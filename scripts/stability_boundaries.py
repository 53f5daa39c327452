#!/usr/bin/env python3
"""Stability-boundary curves for the reference channel/processor setup.

Sweeps the closed-loop contraction factor rho over ``etac analyze``'s fixed
181-point grid and writes, for each point, the largest open-loop growth factor
alpha that the baseline and the buffered controller can each certify stable
(gamma = 1 and omega = 1 level sets).  The buffered region contains the baseline region everywhere.

    python scripts/stability_boundaries.py --out boundaries.csv
"""

import argparse
import csv

import numpy as np

from etac.analysis import boundary_curves
from etac.cli import RHO_GRID
from etac.domain import StochasticEnv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="boundaries.csv")
    parser.add_argument("--q", type=float, default=0.75, help="transmission success probability")
    parser.add_argument("--capacity", type=int, default=4, help="buffer capacity")
    args = parser.parse_args()

    p = tuple([1.0 / (args.capacity + 1)] * (args.capacity + 1))
    env = StochasticEnv(q=args.q, p=p, capacity=args.capacity)
    curves = boundary_curves(env, RHO_GRID)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "alpha_star_baseline", "alpha_star_anytime"])
        writer.writerows(curves.tolist())

    gain = curves[:, 2] - curves[:, 1]
    print(f"wrote {len(curves)} rows to {args.out}")
    print(f"buffered-vs-baseline margin: min {gain.min():.4f}, max {gain.max():.4f}")
    for rho_mark in (0.1, 0.5, 0.9):
        i = int(np.argmin(np.abs(RHO_GRID - rho_mark)))
        print(
            f"rho={RHO_GRID[i]:.2f}: alpha*_baseline={curves[i, 1]:.4f}, "
            f"alpha*_anytime={curves[i, 2]:.4f}"
        )


if __name__ == "__main__":
    main()
