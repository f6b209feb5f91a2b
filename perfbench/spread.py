"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc-small --seeds 1 2 3 4 5 --seconds 15

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median, with quartiles from
``statistics.quantiles(values, n=4)``.  An end-to-end metric is steady when
that share stays below its bound in BENCHMARK.json.  ``--out`` also writes
every run's result, digest line and tail percentile as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    notes = [line for line in lines if line.startswith("# ")]
    return {"seed": seed, "result": json.loads(lines[-1]), "notes": notes}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    runs = [run_once(args.workload, s, args.seconds, args.trace) for s in args.seeds]
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    print(f"{args.workload}, trace {args.trace}, seeds {args.seeds}")
    print(f"correct: {[r['result']['correct'] for r in runs]}")
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median, share = spread(values)
        summary[name] = {"median": median, "iqr_share": share, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if share < bound / 3 else 'WIDE'}"
        print(f"{name:36s} median {median:<12.6g} IQR/median {share:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": args.seconds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
