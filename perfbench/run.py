"""gammahodge CLI benchmark: one closed-loop client per workload, every reply checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {betti,algebra,hodge,poisson} \\
        --seed N --seconds S --trace {0,1}

--trace 0 reports the end-to-end metrics: setup_s (median time to import
gammahodge.cli in a fresh interpreter), throughput_rps, latency_p50_ms,
latency_tail_ms and peak_rss_mb, plus failed_ratio in the table.  --trace 1
replays the same requests with spans around the library's layers and reports
the per-layer metrics.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status: 0 when every reply
passed its oracle, 1 when any failed, 2 when the benchmark could not run.

Every time in the metrics is probe-scaled, not wall time: it is wall time
multiplied by speed.REFERENCE_S over a probe kernel's time measured around
the same work (see speed.py), so that a shared machine's slow spells cancel
out.  On a 2-core Xeon VM the probe median ran at 1.0-1.6 times REFERENCE_S,
so the scaled figures read 0.6-1.0 times wall time there.  The line before
the last one holds the run's details: among them "wall", the same latency
figures unscaled with the summed request seconds, and "machine", with the
measured probe_over_reference ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9
IMPORT_TIMEOUT_S = 10
DEADLINE_S = 170  # the whole run, setup included
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def setup_seconds(env) -> tuple[float, float]:
    """Median import time of gammahodge.cli over fresh interpreters, scaled and wall.

    One discarded import first, so that every timed one finds the bytecode
    cache as an installed package would.
    """
    scaled, wall = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "speed.py"), "gammahodge.cli"], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S, check=True,
        )
        if i:
            one_scaled, one_wall = map(float, done.stdout.split())
            scaled.append(one_scaled)
            wall.append(one_wall)
    return statistics.median(scaled), statistics.median(wall)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "gammahodge" / "cli.py").is_file():
        print(f"error: no gammahodge sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        setup_s, setup_wall_s = (None, None) if args.trace else setup_seconds(env)
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        print(f"error: worker exited {done.returncode} without a result", file=sys.stderr)
        return 2

    attempted, failures = result["attempted"], result["failures"]
    if args.trace:
        units = dict(LAYER_METRICS)
        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": setup_s, **result["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {result['requests']}")
    for name, metric in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            t = result["tail"]
            note = f"  (p{t['percentile']} of {t['samples']} requests, {t['beyond']} beyond)"
            if t["beyond"] < 10:
                note += " FEWER THAN TEN BEYOND: lengthen the run"
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  {'failed_ratio':<52} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} of {attempted} requests)")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "requests": result["requests"],
               "digest": result["digest"], "machine": {**machine(), **result["meta"]}}
    for key in ("wall", "tail", "spans"):
        if key in result:
            details[key] = result[key]
    if setup_wall_s is not None:
        details["wall"]["setup_s"] = setup_wall_s
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
