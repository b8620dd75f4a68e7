#!/usr/bin/env python3
"""Coverage experiment: how often the reference lands in the 3-sigma band.

Runs each built-in Monte Carlo check across independent seeds and counts the
runs whose |estimate - reference| stays within three reported standard
errors.  A well-calibrated standard error keeps the count near 99.7%.

Example:
  python scripts/mc_calibration.py --seeds 100 --samples 16000
"""

from __future__ import annotations

import argparse
import time

from gammahodge.poisson_mc import (
    LocalFunctional,
    Polynomial,
    ScalarFunction,
    Window,
    check_laplace,
    check_local_expansion,
    check_mecke,
)


def build_checks(window: Window):
    indicator = ScalarFunction(kind="indicator")
    const = Polynomial(coeffs=(1.0,))
    linear = Polynomial(coeffs=(0.0, 1.0))
    return {
        "laplace(step 0.3)": lambda seed, n: check_laplace(
            ScalarFunction(kind="indicator", scale=0.3), window, n, seed
        ),
        "local(count == 2)": lambda seed, n: check_local_expansion(
            LocalFunctional(kind="count_indicator", k=2), window, n, seed
        ),
        "mecke(m=1, h=t)": lambda seed, n: check_mecke(
            1, indicator, linear, indicator, window, n, seed
        ),
        "mecke(m=2, h=1)": lambda seed, n: check_mecke(
            2, indicator, const, None, window, n, seed
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--samples", type=int, default=16_000)
    parser.add_argument("--lengths", type=float, nargs="+", default=[1.0, 2.0])
    args = parser.parse_args()

    window = Window(lengths=tuple(args.lengths))
    t0 = time.perf_counter()
    for name, fn in build_checks(window).items():
        hits = 0
        worst = 0.0
        for seed in range(args.seeds):
            report = fn(seed, args.samples)
            deviation = abs(report["estimate"] - report["reference"])
            if deviation <= 3 * report["std_error"]:
                hits += 1
            if report["std_error"]:
                worst = max(worst, deviation / report["std_error"])
        print(
            f"{name:>20}: {hits}/{args.seeds} inside 3 sigma "
            f"(worst deviation {worst:.2f} sigma)"
        )
    print(f"elapsed {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
