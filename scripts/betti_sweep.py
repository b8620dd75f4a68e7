#!/usr/bin/env python3
"""Print configuration-space Betti tables for a sweep of base Betti vectors.

Example:
  python scripts/betti_sweep.py --d 3 --beta-max 2 --n-max 8
"""

from __future__ import annotations

import argparse
import itertools
import warnings

from gammahodge import BettiVector, InfiniteVolumeWarning, betti_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3, help="base dimension")
    parser.add_argument("--beta-max", type=int, default=2, help="max value per beta_k")
    parser.add_argument("--n-max", type=int, default=8, help="largest order to print")
    args = parser.parse_args()

    warnings.simplefilter("ignore", InfiniteVolumeWarning)
    header = ["beta"] + [f"b_{n}" for n in range(args.n_max + 1)] + ["K_0"]
    print("  ".join(f"{h:>8}" for h in header))
    for beta in itertools.product(range(args.beta_max + 1), repeat=args.d):
        vector = BettiVector(d=args.d, beta=(0, *beta))
        report = betti_report(vector, args.n_max)
        cells = [str(vector.beta)] + report["b"]
        cells.append(report.get("vanishing", {}).get("K0", "-"))
        print("  ".join(f"{c:>8}" for c in cells))


if __name__ == "__main__":
    main()
