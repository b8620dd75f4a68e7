"""Run the benchmark over several seeds and summarise it, e.g. for a baseline.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline_seed.json

Runs last BENCHMARK.json's run_seconds.  For each workload: one untraced run
per seed, giving each end-to-end metric's median, quartiles and spread
(quartile distance over the median, the figure BENCHMARK.json's bounds are
judged against), and the same summary of the unscaled wall-time figures and
the probe ratio; then one traced run on the first seed for the per-layer
breakdown.  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    summary = {"seeds": args.seeds, "seconds": RUN_SECONDS, "workloads": {}}
    try:
        for workload in WORKLOADS:
            values: dict[str, list[float]] = {}
            wall: dict[str, list[float]] = {}
            units = {}
            for seed in args.seeds:
                result, details = run(workload, seed, 0)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                values.setdefault("requests", []).append(details["requests"])
                for name, value in details["wall"].items():
                    wall.setdefault(name, []).append(value)
                wall.setdefault("probe_over_reference", []).append(
                    details["machine"]["probe_over_reference"])
            traced, traced_details = run(workload, args.seeds[0], 1)
            end_to_end = {name: {"unit": units.get(name, "count"), **summarise(v)}
                          for name, v in values.items()}
            summary["workloads"][workload] = {
                "end_to_end": end_to_end,
                "wall_unscaled": {name: summarise(v) for name, v in wall.items()},
                "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
                "traced_run": traced_details,
            }
            summary["machine"] = traced_details["machine"]
            print(f"== {workload}")
            for name, stats in end_to_end.items():
                print(f"  {name:<18} median {stats['median']:<12.6g} {stats['unit']:<6} "
                      f"spread {stats['spread']:.3f}")
            sys.stdout.flush()
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
