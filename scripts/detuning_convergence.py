#!/usr/bin/env python3
"""Convergence of the three-level cavity model to its two-level reduction.

Runs the detuning sweep from two kinds of probe sectors and prints the
worst population deviation and upper-level leakage per detuning, plus
fitted log-log slopes.  Sectors with adjacent occupations (n = m + 1)
cancel the residual level-shift mismatch of the intensity profiles and
decay second order; generic sectors keep the mismatch and decay roughly
first order over moderate detuning ratios before flooring.

Usage:
  python scripts/detuning_convergence.py
  python scripts/detuning_convergence.py --ratios 10,20,40,80,160 --g 0.5
"""

import argparse
import sys

from sltosim.optics import (
    OpticsEngineConfig,
    adiabatic_elimination_error,
    sweep_slopes,
    uniform_exchange_profile,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ratios", default="20,40,80,160",
                    help="comma-separated detuning-to-coupling ratios")
    ap.add_argument("--g", type=float, default=0.5, help="leg coupling g1 = g2")
    ap.add_argument("--cutoff", type=int, default=4, help="Fock cutoff per mode")
    args = ap.parse_args()

    ratios = [float(r) for r in args.ratios.split(",")]
    cfg = OpticsEngineConfig(
        beta1=0.5, beta2=1.0, omega1=2.0, g1=args.g, g2=args.g,
        delta=min(ratios) * args.g, n_max1=args.cutoff, n_max2=args.cutoff,
        min_detuning_ratio=5.0,
    )
    profile = uniform_exchange_profile(cfg)
    deltas = [r * args.g for r in ratios]

    for label, block in (("generic sector (3,1)", (3, 1)),
                         ("shift-balanced sector (2,1)", (2, 1))):
        points = adiabatic_elimination_error(cfg, profile, deltas, initial_block=block)
        print(f"\n{label}:")
        print(f"  {'Delta':>8} {'ratio':>7} {'pop deviation':>15} {'leak':>12}")
        for p in points:
            print(f"  {p.delta:8.2f} {p.ratio:7.1f} {p.population_deviation:15.6e} "
                  f"{p.leak_max:12.6e}")
        dev_slope, leak_slope = sweep_slopes(points)
        print(f"  slopes: deviation {dev_slope:+.3f}, leak {leak_slope:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
