#!/usr/bin/env python3
"""Scan coupling strengths and temperature pairs of the two-ladder engine.

Prints one row per run with the measured efficiency, cycle time and
power next to their closed-form values; all rows should agree to
floating precision since the engine saturates both bounds.

Usage:
  python scripts/carnot_power_scan.py
  python scripts/carnot_power_scan.py --couplings 0.02,0.1,0.5 --csv scan.csv
"""

import argparse
import math
import sys

from sltosim.engine import CompactEngineConfig, evolve_cycle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--couplings", default="0.02,0.05,0.2,1.0",
                    help="comma-separated g values")
    ap.add_argument("--cutoff", type=int, default=8, help="Fock cutoff per ladder")
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args()

    pairs = [(0.5, 1.0, 2.0), (1.0, 2.0, 2.0), (0.25, 1.0, 4.0), (0.3, 0.9, 3.0)]
    couplings = [float(x) for x in args.couplings.split(",")]

    rows = []
    print(f"{'beta1':>6} {'beta2':>6} {'omega1':>7} {'g':>6} | "
          f"{'eta':>10} {'eta_C':>10} | {'tau':>10} {'P':>12} {'2gW/pi':>12}")
    for beta1, beta2, omega1 in pairs:
        for g in couplings:
            cfg = CompactEngineConfig(beta1=beta1, beta2=beta2, omega1=omega1, g=g,
                                      n_max1=args.cutoff, n_max2=args.cutoff)
            rep = evolve_cycle(cfg)
            p_formula = 2 * g * cfg.w_ext / math.pi
            print(f"{beta1:6.2f} {beta2:6.2f} {omega1:7.2f} {g:6.3f} | "
                  f"{rep.eta:10.7f} {cfg.carnot_efficiency:10.7f} | "
                  f"{rep.tau:10.4f} {rep.power:12.6e} {p_formula:12.6e}")
            rows.append([beta1, beta2, omega1, g, rep.eta, cfg.carnot_efficiency,
                         rep.tau, rep.power, p_formula])

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("beta1,beta2,omega1,g,eta,eta_carnot,tau,power,power_formula\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
