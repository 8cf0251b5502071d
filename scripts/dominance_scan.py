#!/usr/bin/env python3
"""Stress the lower bounds against random states on the measurement family.

Draws alternating pure and mixed qutrit states, evaluates the entropy sum
and every bound at a fresh random family parameter, and reports the worst
margin entropy_total - bound seen per bound.  Exits nonzero if any instance
violates a bound beyond the slack.
"""

import argparse
import math

import numpy as np

from eurkit.bounds import bound_report
from eurkit.family import SWEEP_BOUNDS, build_family
from eurkit.sampling import random_density


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200, help="number of random instances")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slack", type=float, default=1e-9, help="allowed dominance slack")
    args = parser.parse_args()
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    if not (math.isfinite(args.slack) and args.slack >= 0.0):
        parser.error(f"--slack must be finite and >= 0, got {args.slack}")
    rng = np.random.default_rng(args.seed)
    worst = dict.fromkeys(SWEEP_BOUNDS, math.inf)
    violations = 0
    for i in range(args.n):
        rho = random_density(rng, pure=bool(i % 2))
        report = bound_report(build_family(float(rng.uniform())), rho, slack=args.slack)
        for name in worst:
            worst[name] = min(worst[name], report.entropy_total - getattr(report, name))
        violations += not report.all_satisfied
    for name, margin in worst.items():
        print(f"{name}: worst margin {margin:.3e}")
    print(f"{violations} of {args.n} instances violated a check at slack {args.slack:g}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
