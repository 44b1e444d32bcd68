#!/usr/bin/env python3
"""Fit cavity shape polynomials to the inverse-intensity coupling tables.

Targets f(n) = A/n and theta(n) = n**-0.5 on n = 1..n_fit, the profile
family the cavity engine asks for.  No exact polynomial realization is
known, so this script reports the residual floor reached from a given
seed set and writes the best design to JSON.

Usage:
  python scripts/fit_inverse_intensity.py
  python scripts/fit_inverse_intensity.py --seeds 0,1,2,3 --iterations 40000
"""

import argparse
import json
import sys

from sltosim.cli import design_document
from sltosim.designer import (
    AnnealSchedule,
    DesignTargets,
    PotentialAnsatz,
    design_cost,
    mc_optimize,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--amplitude", type=float, default=0.0125,
                    help="prefactor A of the f table (couplings^2 / detuning)")
    ap.add_argument("--n-fit", type=int, default=6)
    ap.add_argument("--iterations", type=int, default=20000)
    ap.add_argument("--seeds", default="0,42",
                    help="comma-separated seeds; best run wins")
    ap.add_argument("--out", default="inverse_intensity_design.json")
    args = ap.parse_args()

    targets = DesignTargets.inverse_intensity(args.amplitude, args.n_fit)
    start = PotentialAnsatz.zeros()
    initial = design_cost(start, targets)

    best_overall = None
    for seed in (int(s) for s in args.seeds.split(",")):
        schedule = AnnealSchedule(iterations=args.iterations, seed=seed)
        best, trace = mc_optimize(start, targets, schedule)
        cost = design_cost(best, targets)
        print(f"seed {seed:>5}: cost {initial:.4f} -> {cost:.6f}")
        if best_overall is None or cost < best_overall[1]:
            best_overall = (best, cost, schedule)

    best, cost, schedule = best_overall
    design = design_document(best, targets, schedule, initial, cost)
    result = design["result"]
    print(f"\nbest run (seed {schedule.seed}), residual floor {cost:.6f}:")
    print(f"  {'n':>3} {'f target':>12} {'f achieved':>12} {'theta target':>13} {'theta achieved':>15}")
    rows = zip(targets.f_target, result["f_achieved"],
               targets.theta_target, result["theta_achieved"])
    for n, (f_t, f_a, theta_t, theta_a) in enumerate(rows, start=1):
        print(f"  {n:>3} {f_t:12.6f} {f_a:12.6f} {theta_t:13.6f} {theta_a:15.6f}")

    with open(args.out, "w") as fh:
        json.dump(design, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
