"""nc_hardy benchmark: one seeded workload per run, closed loop, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  One client calls the
library in a closed loop: each operation starts when the previous one has
returned.  The loop runs whole rounds of the workload's templates until
``--seconds`` have passed, then every output is checked outside the timed
region.  The last line of standard output is one JSON object; the lines
before it describe the run, and check failures go to standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop with spans around the calls into each layer and reports the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

# At most two busy threads (the machine this was tuned on has two cores): the
# mc-large workload runs two worker threads, and BLAS adds none of its own.
# Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh processes and reported as their median.
SETUP_REPEATS = 5
# The loop always completes this many rounds; the result digest covers them.
DIGEST_ROUNDS = 3
# The tail percentile leaves at least this many op times beyond it.
TAIL_BEYOND = 10


def load_program() -> SimpleNamespace:
    """Import nc_hardy from src/ of the checkout, and from nowhere else."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    nc = SimpleNamespace(**{
        name: importlib.import_module(f"nc_hardy.{name}")
        for name in ("words", "weingarten", "haar_mc", "hardy")
    })
    if not os.path.abspath(nc.words.__file__).startswith(src + os.sep):
        raise SystemExit(f"nc_hardy was imported from {nc.words.__file__}, not {src}")
    return nc


def time_setups(args: argparse.Namespace) -> list[float]:
    """Wall seconds from process start to the end of set-up, in fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with TAIL_BEYOND values beyond it, by nearest rank."""
    n = len(values)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(values)[rank - 1]


def run_loop(workload, seconds: float, host: HostSpeed, tracer: Tracer | None):
    """Closed loop over whole rounds of ops, with a host-speed sample after each op.

    Returns the ops, their results, their wall times, the error text of each
    op that raised (None where it returned) and the total time spent in ops.
    """
    ops, results, durations, raised = [], [], [], []
    rounds = workload.rounds()
    done = 0
    busy = 0.0
    start = perf_counter()
    while done < DIGEST_ROUNDS or perf_counter() - start < seconds:
        for op in next(rounds):
            error = result = None
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception:  # counted as a failed op; the loop goes on
                error = traceback.format_exc()
            durations.append(perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            busy += perf_counter() - t0
            ops.append(op)
            results.append(result)
            raised.append(error)
            host.sample()
        done += 1
    return ops, results, durations, raised, busy


def check_all(ops, results, durations, raised):
    """Check every output outside the timed region.

    Returns the failed op count, failure messages, one digest line per op and
    the per-op time to a relative standard error of 1e-3.
    """
    failed, messages, digest, accuracy_times = 0, [], [], []
    for op, result, wall, error in zip(ops, results, durations, raised):
        checked = None
        if error is None:
            try:
                checked = op.check(result)
            except Exception:
                error = traceback.format_exc()
        if checked is None or checked.errors:
            failed += 1
            messages.append(f"{op.label}: {error}" if checked is None else "; ".join(checked.errors))
            digest.append(f"{op.label} FAILED")
            continue
        digest.append(f"{op.label} {' '.join(checked.digest)}")
        accuracy_times.append(wall * checked.accuracy_factor)
    return failed, messages, digest, accuracy_times


def serial_reruns(ops, results, durations, rounds_ops: int):
    """Re-run the first round's fanned-out ops on one worker thread.

    Returns (attempted, failed, messages, serial seconds, parallel seconds):
    the one-thread result must be bit-identical to the fanned-out one.
    """
    attempted = failed = 0
    messages = []
    serial_s = parallel_s = 0.0
    for op, result, wall in list(zip(ops, results, durations))[:rounds_ops]:
        if op.run_serial is None or result is None:
            continue
        attempted += 1
        t0 = perf_counter()
        try:
            serial = op.run_serial()
        except Exception:
            failed += 1
            messages.append(f"{op.label}: one-worker re-run raised\n{traceback.format_exc()}")
            continue
        serial_s += perf_counter() - t0
        parallel_s += wall
        if op.digest(serial) != op.digest(result):
            failed += 1
            messages.append(
                f"{op.label}: one worker gives {op.digest(serial)}, "
                f"two give {op.digest(result)}"
            )
    return attempted, failed, messages, serial_s, parallel_s


def layer_metrics(tracer: Tracer, nc, durations: list[float], ops_per_s: float,
                  fanout: float) -> tuple[dict, dict]:
    """Per-layer (value, unit) pairs from the spans, and the accounting of op wall time.

    Times and counts are per op: a run lasts a fixed time, so a faster layer
    shows as less time per op, not less time in total.
    """
    n = len(durations)
    self_s, calls = tracer.self_s, tracer.calls
    pairing_calls = calls["weingarten.pairing"]
    mc_s = self_s["haar_mc.mc"]
    samples = sum(call[2] for call in tracer.mc_calls)
    sample_s = tracer.probe_sampling(nc.haar_mc)
    overhead_s = sum(durations) - sum(self_s.values())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # name: (span the value comes from, value, unit); None needs no span and
    # "*" needs them all.
    values = {
        "weingarten.pairing_self_s_per_op": (
            "weingarten.pairing", self_s["weingarten.pairing"] / n, "s"),
        "weingarten.pairing_calls_per_op": ("weingarten.pairing", pairing_calls / n, "count"),
        "weingarten.pairing_nonzero_ratio": (
            "weingarten.pairing", ratio(tracer.pairing_nonzero, pairing_calls), "ratio"),
        "weingarten.pairing_distinct_ratio": (
            "weingarten.pairing", ratio(len(tracer.pairing_keys), pairing_calls), "ratio"),
        "weingarten.table_self_s_per_op": ("weingarten.table", self_s["weingarten.table"] / n, "s"),
        "weingarten.table_builds_per_op": ("weingarten.table", tracer.table_builds / n, "count"),
        "weingarten.table_build_s_per_op": ("weingarten.table", tracer.table_build_s / n, "s"),
        "weingarten.sesquilinear_self_s_per_op": (
            "weingarten.sesquilinear", self_s["weingarten.sesquilinear"] / n, "s"),
        "hardy.self_s_per_op": ("hardy", self_s["hardy"] / n, "s"),
        "haar_mc.self_s_per_op": ("haar_mc.mc", mc_s / n, "s"),
        "haar_mc.samples": ("haar_mc.mc", samples, "count"),
        "haar_mc.samples_per_s": ("haar_mc.mc", ratio(samples, mc_s), "1/s"),
        "haar_mc.sample_s_per_op": ("haar_mc.mc", sample_s / n, "s"),
        "haar_mc.sample_share": ("haar_mc.mc", ratio(sample_s, mc_s), "ratio"),
        "haar_mc.evaluate_reduce_s_per_op": ("haar_mc.mc", (mc_s - sample_s) / n if mc_s else 0.0, "s"),
        "haar_mc.fanout_speedup": ("haar_mc.mc", fanout, "ratio"),
        "bench.overhead_s_per_op": ("*", overhead_s / n, "s"),
        "bench.traced_ops_per_s": (None, ops_per_s, "1/s"),
    }
    metrics = {
        name: (value, unit)
        for name, (span, value, unit) in values.items()
        if span not in tracer.missing_spans  # reported as missing, never as zero
        and not (span == "*" and tracer.missing_spans)
    }
    accounting = {span: round(t, 6) for span, t in sorted(self_s.items())}
    accounting["bench.overhead"] = round(overhead_s, 6)
    return metrics, accounting


def drawn_inputs(ops) -> dict:
    """How often each input property value was drawn in this run."""
    drawn: dict[str, Counter] = {}
    for op in ops:
        for key, value in op.inputs.items():
            counter = drawn.setdefault(key, Counter())
            if isinstance(value, Counter):
                counter.update(value)
            else:
                counter[str(value)] += 1
    return {key: dict(sorted(counter.items())) for key, counter in drawn.items()}


def on_reference_host(value: float, unit: str, factor: float) -> float:
    """A time or rate as it would read where the host-speed factor is 1."""
    if unit == "s":
        return value / factor
    if unit == "1/s":
        return value * factor
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    workload_cls = WORKLOADS[args.workload]

    nc = load_program()
    if args.setup_only:
        workload_cls(nc, args.seed)
        return 0
    setup_times = [] if args.trace else time_setups(args)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workload_cls(nc, args.seed)
    host = HostSpeed()
    ops, results, durations, raised, busy = run_loop(workload, args.seconds, host, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, messages, digest, accuracy_times = check_all(ops, results, durations, raised)
    rounds_ops = len(workload.templates())
    re_attempted, re_failed, re_messages, serial_s, parallel_s = serial_reruns(
        ops, results, durations, rounds_ops
    )
    attempted = len(ops) + re_attempted
    failed += re_failed
    messages += re_messages
    ops_per_s = len(ops) / busy
    pct, tail_s = tail(durations)
    digest_ops = DIGEST_ROUNDS * rounds_ops
    digest_hash = hashlib.sha256("\n".join(digest[:digest_ops]).encode()).hexdigest()
    factor = host.factor()
    loop_factor = factor if workload.calibrated else 1.0

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: {workload.why}")
    print(f"# inputs: {json.dumps(workload.descriptors())}")
    print(f"# inputs drawn: {json.dumps(drawn_inputs(ops))}")
    print(f"# closed loop, 1 client: {len(ops)} ops in {busy:.3f} s "
          f"({len(ops) // rounds_ops} rounds of {rounds_ops})")
    print(f"# op_tail_s is p{pct} of {len(ops)} op times")
    print(f"# failed {failed} of {attempted} attempted (error_rate {failed / attempted:.4g})")
    print(f"# digest sha256:{digest_hash} over the first {digest_ops} ops")
    scaled = "set-up and loop times" if workload.calibrated else "set-up time, not the two-thread loop,"
    print(f"# host-speed factor {factor:.4f}: {scaled} scaled by it to the reference host")
    for line in messages:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer is None:
        raw = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "time_to_rel_se_1e-3_s": (
                statistics.geometric_mean(accuracy_times) if accuracy_times else 0.0, "s"),
        }
        print(f"# setup_s of {SETUP_REPEATS} processes, unscaled: "
              f"{[round(t, 4) for t in setup_times]}")
        metrics = {"setup_s": (on_reference_host(statistics.median(setup_times), "s", factor), "s")}
    else:
        fanout = serial_s / parallel_s if parallel_s else 0.0
        raw, accounting = layer_metrics(tracer, nc, durations, ops_per_s, fanout)
        print(f"# self seconds by span (unscaled), op wall {sum(durations):.4f} s: "
              f"{json.dumps(accounting)}")
        if tracer.missing:
            print(f"# missing (not wrapped, metrics left out): {', '.join(tracer.missing)}")
        metrics = {}
    print(f"# unscaled: {json.dumps({k: v for k, (v, _) in raw.items()})}")
    metrics.update({k: (on_reference_host(v, u, loop_factor), u) for k, (v, u) in raw.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
