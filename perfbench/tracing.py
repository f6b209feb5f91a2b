"""Spans around the calls into each nc_hardy layer, taken from outside the program.

The tracer replaces public functions at the names their callers look up (a
module attribute such as ``nc_hardy.hardy.pairing_moment_exact``, or the method
``WeingartenTable.values``) with wrappers that time each call.  Spans nest on
one stack: every wrapped call runs on the thread that started the operation,
since the Monte Carlo worker threads only run unwrapped chunk functions.  A
span's self time is its duration minus the durations of the spans it caused;
self times and counts are added up per span name when each span closes, so a
run with millions of pairing calls holds only the open spans in memory.

A name that cannot be found is reported as missing, and every metric drawn
from its span is left out of the result instead of reading zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (module, attribute path, span name).  A span name fed by several call sites
# is complete only when every one of them could be wrapped.
WRAPPED = (
    ("nc_hardy.hardy", "boundary_norm_profile", "hardy"),
    ("nc_hardy.hardy", "coeff_recover", "hardy"),
    ("nc_hardy.hardy", "sesquilinear_moment_exact", "weingarten.sesquilinear"),
    ("nc_hardy.hardy", "pairing_moment_exact", "weingarten.pairing"),
    ("nc_hardy.weingarten", "pairing_moment_exact", "weingarten.pairing"),
    ("nc_hardy.weingarten", "WeingartenTable.values", "weingarten.table"),
    ("nc_hardy.hardy", "mc_pairing", "haar_mc.mc"),
    ("nc_hardy.hardy", "mc_recovery_integral", "haar_mc.mc"),
    ("nc_hardy.haar_mc", "mc_pairing", "haar_mc.mc"),
)


class Tracer:
    """Per-name span totals for the operations run while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list[float]] = []  # per open span: child time so far
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()
        # weingarten.pairing outcomes
        self.pairing_nonzero = 0
        self.pairing_keys: set[tuple] = set()
        # weingarten.table: a build is the first values(n, N) call per table
        # and (n, N), seen also while inactive so that warm-up is not a build.
        self._table_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.table_builds = 0
        self.table_build_s = 0.0
        # haar_mc.mc calls, for the sampling probes: (kind, N, samples, workers)
        self.mc_calls: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                self.missing_spans.add(span)
                continue
            setattr(owner, attr, self._wrap(span, original))

    def _wrap(self, span: str, fn):
        if span == "weingarten.pairing":
            after = self._after_pairing
        elif span == "haar_mc.mc":
            after = functools.partial(self._after_mc, inspect.signature(fn))
        else:
            after = None
        table = span == "weingarten.table"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first_build = table and tracer._first_values_call(args)
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[0]
            if first_build:
                tracer.table_builds += 1
                tracer.table_build_s += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _first_values_call(self, args: tuple) -> bool:
        table, n, N = args[0], args[1], args[2]
        seen = self._table_seen.setdefault(table, set())
        if (n, N) in seen:
            return False
        seen.add((n, N))
        return True

    def _after_pairing(self, args: tuple, kwargs: dict, result) -> None:
        # Every caller passes (w, v, kind, N) positionally; binding the
        # signature instead would cost more than many of the calls it times.
        self.pairing_keys.add(args[:4])
        if result != 0:
            self.pairing_nonzero += 1

    def _after_mc(
        self, signature: inspect.Signature, args: tuple, kwargs: dict, result
    ) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.mc_calls.append((a["kind"], a["N"], a["samples"], a["workers"]))

    # -- probes -----------------------------------------------------------

    def probe_sampling(self, haar_mc) -> float:
        """Seconds to draw the boundary samples of every traced MC call alone.

        Each call's chunk plan is sampled again with ``sample_boundary`` on as
        many threads as the call used, so the time compares with the call's
        own wall time.
        """
        total = 0.0
        chunk = haar_mc.CHUNK_SAMPLES
        for index, (kind, N, samples, workers) in enumerate(self.mc_calls):
            full, rem = divmod(samples, chunk)
            plan = [chunk] * full + ([rem] if rem else [])
            stream = haar_mc.SeededStream(seed=index)

            def draw(count: int, kind=kind, N=N, stream=stream) -> None:
                haar_mc.sample_boundary(kind, N, stream, count=count)

            start = perf_counter()
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    list(pool.map(draw, plan))
            else:
                for count in plan:
                    draw(count)
            total += perf_counter() - start
        return total
