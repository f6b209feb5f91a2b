"""The four seeded workloads and the checks on their outputs.

Each workload puts one layer of nc_hardy in charge of most of the work and
bypasses the others:

* ``exact-deep``: ``weingarten`` (sigma, tau) enumeration with cold Gram solves;
* ``exact-wide``: the ``hardy`` grid loop and the sesquilinear expansion over
  word pairs, with a warm Weingarten table;
* ``mc-small``: the ``haar_mc`` sampler (Ginibre draw, QR, phase fix, ball
  blocks) on one thread;
* ``mc-large``: ``words``-style prefix-cached word products and the two-thread
  chunk fan-out.

Operations come in rounds, one per template, and a run ends only on a round
boundary, so every run holds the same mix of templates and the op-time
quantiles do not depend on where the clock stopped.  Every input is drawn from
the workload seed; the program only ever receives the drawn inputs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from collections import Counter
from itertools import product
from typing import Any, Callable, Iterator

# Samples of the Monte Carlo estimates used to check exact outputs: enough
# for a relative standard error near 1 % on exact-wide's profiles.
CHECK_SAMPLES = 512
# A check passes when |estimate - reference| <= SE_LIMIT standard errors
# (plus a rounding allowance for integrands that are constant).
SE_LIMIT = 5.0
ROUNDING = 1e-9


@dataclass
class Checked:
    """What the checks found for one operation's output."""

    errors: list[str]
    digest: list[str]
    # (SE / (1e-3 |exact|))^2: the factor that turns the op's wall time into
    # the time to a relative standard error of 1e-3.  Exact results have SE 0
    # and reach any accuracy in their own wall time, so their factor is 1.
    accuracy_factor: float = 1.0


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    # Properties of the drawn inputs, counted over the run: name -> value, or
    # name -> Counter of values for per-word properties.
    inputs: dict
    # The same call on one worker thread, for ops that fan out.
    run_serial: Callable[[], Any] | None = None
    digest: Callable[[Any], list[str]] | None = None


def _hex(z: complex) -> str:
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def _within_se(estimate: complex, se: float, reference: complex) -> bool:
    diff = abs(complex(estimate) - complex(reference))
    return diff <= SE_LIMIT * se + ROUNDING * max(1.0, abs(complex(reference)))


def _accuracy_factor(se: float, exact: complex) -> float:
    return (se / (1e-3 * abs(complex(exact)))) ** 2


def _phase(rng: random.Random) -> complex:
    # Unit moduli keep the exact values, and so the relative standard errors,
    # of similar size from one seed to the next.
    return cmath.exp(2j * math.pi * rng.random())


def _random_series(rng: random.Random, nc, m: int, terms: int, max_len: int):
    """Random words of random lengths, with random phases."""
    coeffs = {}
    while len(coeffs) < terms:
        length = rng.randint(0, max_len)
        coeffs[nc.words.Word([rng.randint(1, m) for _ in range(length)])] = _phase(rng)
    return nc.words.NcSeries(m, coeffs)


def _stratified_series(rng: random.Random, nc, m: int, per_length):
    """per_length[l] random distinct words of each length l, with random phases."""
    coeffs = {}
    for length, count in enumerate(per_length):
        for word in rng.sample(list(product(range(1, m + 1), repeat=length)), count):
            coeffs[word] = _phase(rng)
    return nc.words.NcSeries(m, coeffs)


def _graded(word):
    return word.sort_key()


def _profile(word) -> str:
    """Letter multiplicities of a word, largest first: "2+1" for 1 2 1."""
    return "+".join(map(str, sorted(Counter(word.letters).values(), reverse=True))) or "0"


def _series_inputs(f) -> dict:
    return {
        "terms": len(f.coeffs),
        "degree": f.degree(),
        "word_profiles": Counter(_profile(w) for w in f.coeffs),
    }


def brute_pairing(nc, w, v, kind, N: int) -> Fraction:
    """Boundary integral of Tr((X^w)* X^v) by explicit index-chain enumeration.

    Sums raw Haar entry moments over every assignment of the chain indices:
    an independent route from the class-merging integrator, and only
    affordable for short words at small N.  The same oracle as in
    tests/conftest.py, repeated so that the benchmark needs only the library.
    """
    moment = nc.weingarten.haar_entry_moment
    wl, vl = w.letters, v.letters
    s, t = len(vl), len(wl)
    if s + t == 0:
        return Fraction(N)
    total = Fraction(0)
    for chain in product(range(1, N + 1), repeat=s + t):
        l = dict(zip(range(-s, t), chain))
        l[t] = l[-s]
        if kind.family == "polydisc":
            term = Fraction(1)
            for letter in range(1, kind.m + 1):
                ups = [(l[-k + 1], l[-k]) for k in range(1, s + 1) if vl[k - 1] == letter]
                conjs = [(l[k - 1], l[k]) for k in range(1, t + 1) if wl[k - 1] == letter]
                if ups or conjs:
                    term *= moment(ups, conjs, N)
                    if term == 0:
                        break
            total += term
        elif kind.family == "ball_column":
            ups = [((vl[k - 1] - 1) * N + l[-k + 1], l[-k]) for k in range(1, s + 1)]
            conjs = [((wl[k - 1] - 1) * N + l[k - 1], l[k]) for k in range(1, t + 1)]
            total += moment(ups, conjs, kind.m * N)
        else:
            ups = [(l[-k + 1], (vl[k - 1] - 1) * N + l[-k]) for k in range(1, s + 1)]
            conjs = [(l[k - 1], (wl[k - 1] - 1) * N + l[k]) for k in range(1, t + 1)]
            total += moment(ups, conjs, kind.m * N)
    return total


class Workload:
    """Seeded source of operation rounds; constructing one is the set-up."""

    name: str
    why: str
    # Whether loop times are scaled by the host speed (see calibrate.py).
    calibrated = True

    def __init__(self, nc, seed: int) -> None:
        self.nc = nc
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stream_seed = self.rng.getrandbits(62)
        self.check_table = nc.weingarten.WeingartenTable()
        self._op_index = 0

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield [self.make_op(template) for template in self.templates()]

    def templates(self) -> list:
        raise NotImplementedError

    def make_op(self, template) -> Op:
        raise NotImplementedError

    def next_stream(self):
        self._op_index += 1
        return self.nc.haar_mc.SeededStream(self.stream_seed, self._op_index)

    def descriptors(self) -> dict:
        """Fixed input properties of this workload, for the run header."""
        return {}


# -- exact-deep ---------------------------------------------------------------

# (family, letter multiplicities, alphabet sizes m, dimensions N).  Polydisc
# ops cost prod_r (n_r!)^2 (sigma, tau) pairs; ball ops cost n! prod_r n_r!.
# Multiplicity (4, 4) is left out: one such op takes seconds.
DEEP_TEMPLATES = (
    ("polydisc", (3, 3), (2,), (4, 5, 6, 7, 8)),
    ("polydisc", (4, 2), (2,), (4, 5, 6, 7, 8)),
    ("polydisc", (4, 3), (2,), (4, 5, 6, 7, 8)),
    ("polydisc", (2, 2, 2), (3,), (4, 5, 6, 7, 8)),
    ("ball_column", (3, 2), (2, 3), (2, 3, 4)),
    ("ball_row", (2, 2, 1), (3,), (2, 3, 4)),
    ("ball_column|ball_row", (3, 3), (2,), (3, 4)),
)


class ExactDeep(Workload):
    name = "exact-deep"
    why = (
        "one exact pairing per op on words with equal letter multisets, cold "
        "Weingarten table: (sigma, tau) enumeration and Gram solves dominate"
    )

    def __init__(self, nc, seed: int) -> None:
        super().__init__(nc, seed)
        self._symmetry_checked: set[str] = set()
        # Warm-up: the first pairing pays for lazily built interpreter state.
        W = nc.weingarten
        W.pairing_moment_exact(
            nc.words.Word([1, 2]), nc.words.Word([2, 1]), W.BoundaryKind.polydisc(2), 2,
            table=W.WeingartenTable(),
        )

    def templates(self) -> list:
        return list(DEEP_TEMPLATES)

    def make_op(self, template) -> Op:
        nc, rng = self.nc, self.rng
        W = nc.weingarten
        families, profile, ms, Ns = template
        family = rng.choice(families.split("|"))
        m = rng.choice(ms)
        length = sum(profile)
        N = rng.choice([n for n in Ns if family == "polydisc" or m * n >= length])
        letters = rng.sample(range(1, m + 1), len(profile))
        multiset = [a for a, k in zip(letters, profile) for _ in range(k)]
        w_letters, v_letters = multiset[:], multiset[:]
        rng.shuffle(w_letters)
        rng.shuffle(v_letters)
        w, v = nc.words.Word(w_letters), nc.words.Word(v_letters)
        kind = W.BoundaryKind(family, m)
        label = f"{family}{profile}"
        stream = self.next_stream()

        def run():
            return nc.weingarten.pairing_moment_exact(
                w, v, kind, N, table=nc.weingarten.WeingartenTable()
            )

        def check(value) -> Checked:
            errors = []
            if not isinstance(value, Fraction):
                errors.append(f"{label}: result is {type(value).__name__}, not Fraction")
            # Tr((X^w)* X^v)/N is (1/N) Tr(g* f) with f = X^v, g = X^w.
            est = nc.haar_mc.mc_pairing(
                nc.words.NcSeries.monomial(m, v), nc.words.NcSeries.monomial(m, w),
                1.0, kind, N, CHECK_SAMPLES, stream,
            )
            if not _within_se(est.mean, est.std_error, complex(value) / N):
                errors.append(
                    f"{label} w={w_letters} v={v_letters} N={N}: exact {value} vs "
                    f"MC {est.mean * N} +- {est.std_error * N}"
                )
            # Symmetry of the real pairing, once per template and run: the
            # swapped call costs as much as the op itself.
            if label not in self._symmetry_checked:
                self._symmetry_checked.add(label)
                swapped = W.pairing_moment_exact(v, w, kind, N, table=self.check_table)
                if swapped != value:
                    errors.append(f"{label}: pairing(w, v) = {value} but pairing(v, w) = {swapped}")
            return Checked(errors, [str(value)])

        inputs = {"boundary": family, "profile": _profile(w), "N": N}
        return Op(label, run, check, inputs)

    def descriptors(self) -> dict:
        return {
            "templates": [
                {"boundary": f, "multiplicities": list(p), "m": list(ms), "N": list(Ns)}
                for f, p, ms, Ns in DEEP_TEMPLATES
            ],
            "table": "fresh WeingartenTable per op",
        }


# -- exact-wide ---------------------------------------------------------------

WIDE_M = 3
# Words per length 0..4 in each series (32 terms).  A fixed count per length
# keeps the number of word pairs, and so the op cost, alike across ops.
WIDE_WORDS_PER_LENGTH = (1, 3, 6, 10, 12)
WIDE_MAX_LEN = len(WIDE_WORDS_PER_LENGTH) - 1
WIDE_R_GRID = (0.6, 0.8, 1.0)
WIDE_N_GRID = {"polydisc": (4, 5, 6), "ball": (2, 3, 4)}
# Words of at most this length are checked against the index-chain oracle at
# each of these N.
WIDE_ORACLE_LEN = 2
WIDE_ORACLE_N = (2, 3)
# Odd number of templates per round, so the median op falls inside one template.
WIDE_TEMPLATES = (
    ("profile", "polydisc"),
    ("profile", "ball"),
    ("recover", "polydisc"),
    ("recover", "ball"),
    ("profile", "polydisc"),
)


class ExactWide(Workload):
    name = "exact-wide"
    why = (
        "exact norm profiles and coefficient recovery of 32-term series, "
        "warm table: the sesquilinear expansion and grid loop dominate"
    )

    def __init__(self, nc, seed: int) -> None:
        super().__init__(nc, seed)
        self._oracle: dict[tuple, Fraction] = {}
        # DEFAULT_TABLE is warm, as in a process that has already computed pairings.
        table = nc.weingarten.DEFAULT_TABLE
        for n in range(1, WIDE_MAX_LEN + 1):
            for N in WIDE_N_GRID["polydisc"]:
                table.values(n, N)
            for N in WIDE_N_GRID["ball"]:
                table.values(n, WIDE_M * N)

    def templates(self) -> list:
        return list(WIDE_TEMPLATES)

    def make_op(self, template) -> Op:
        nc, rng = self.nc, self.rng
        H = nc.hardy
        what, family = template
        f = _stratified_series(rng, nc, WIDE_M, WIDE_WORDS_PER_LENGTH)
        space = H.SpaceKind(family, WIDE_M)
        n_grid = WIDE_N_GRID[family]
        label = f"{what}-{family}"
        stream = self.next_stream()
        if what == "profile":
            def run():
                return nc.hardy.boundary_norm_profile(
                    f, space, WIDE_R_GRID, n_grid, engine="exact"
                )

            def headline(report):
                cell = report.cells[-1]  # r = 1, largest N
                est = nc.haar_mc.mc_pairing(
                    f, f, cell.r, space.boundary(), cell.N, CHECK_SAMPLES, stream
                )
                return cell.value, est.mean, est.std_error
        else:
            word = rng.choice(sorted((w for w in f.coeffs if len(w)), key=_graded))

            def run():
                return nc.hardy.coeff_recover(f, word, 1.0, space, n_grid, engine="exact")

            def headline(report):
                mc = nc.hardy.coeff_recover(
                    f, word, 1.0, space, [n_grid[-1]], engine="mc",
                    samples=CHECK_SAMPLES, stream=stream,
                )
                return report.recovered, mc.recovered, mc.cells[-1].std_error

        def check(report) -> Checked:
            errors = self._oracle_errors(f, space.boundary(), label)
            exact, mean, se = headline(report)
            if not _within_se(mean, se, exact):
                errors.append(f"{label}: exact {exact} vs MC {mean} +- {se}")
            return Checked(errors, [_hex(c.value) for c in report.cells])

        inputs = {"op": label, "N": ",".join(map(str, n_grid)), **_series_inputs(f)}
        return Op(label, run, check, inputs)

    def _oracle_errors(self, f, boundary, label: str) -> list[str]:
        """Short-word pairings of f against the index-chain oracle, memoized."""
        W = self.nc.weingarten
        short = [w for w in f.coeffs if len(w) <= WIDE_ORACLE_LEN]
        errors = []
        for w in short:
            for v in short:
                if len(w) != len(v):
                    continue
                for N in WIDE_ORACLE_N:
                    key = (w, v, boundary, N)
                    if key not in self._oracle:
                        self._oracle[key] = brute_pairing(self.nc, w, v, boundary, N)
                    got = W.pairing_moment_exact(w, v, boundary, N, table=self.check_table)
                    if got != self._oracle[key]:
                        errors.append(
                            f"{label}: pairing({w.letters}, {v.letters}, N={N}) = {got}, "
                            f"index chains give {self._oracle[key]}"
                        )
        return errors

    def descriptors(self) -> dict:
        return {
            "m": WIDE_M,
            "words_per_length": list(WIDE_WORDS_PER_LENGTH),
            "r_grid": list(WIDE_R_GRID),
            "N_grid": {k: list(v) for k, v in WIDE_N_GRID.items()},
            "templates": ["-".join(t) for t in WIDE_TEMPLATES],
            "table": "DEFAULT_TABLE, warmed in set-up",
        }


# -- mc-small -----------------------------------------------------------------

SMALL_N = 4
SMALL_MAX_LEN = 2
# (boundary family, m, samples per op)
SMALL_TEMPLATES = (
    ("polydisc", 2, 32768),
    ("ball_column", 2, 16384),
    ("ball_row", 2, 16384),
    ("ball_column", 3, 16384),
    ("ball_row", 3, 16384),
)


class McSmall(Workload):
    name = "mc-small"
    why = (
        "one-thread MC pairings of degree-2 series at N = 4, 16k-32k samples: "
        "Ginibre draws, QR, phase fix and ball blocks dominate"
    )

    def __init__(self, nc, seed: int) -> None:
        super().__init__(nc, seed)
        _mc_warm_up(nc)

    def templates(self) -> list:
        return list(SMALL_TEMPLATES)

    def make_op(self, template) -> Op:
        nc, rng = self.nc, self.rng
        family, m, samples = template
        # Every word of length <= 2, so only the phases vary between ops.
        f = _stratified_series(rng, nc, m, [m ** n for n in range(SMALL_MAX_LEN + 1)])
        kind = nc.weingarten.BoundaryKind(family, m)
        stream = self.next_stream()
        label = f"{family}-m{m}"

        def run():
            return nc.haar_mc.mc_pairing(f, f, 1.0, kind, SMALL_N, samples, stream, workers=1)

        def check(est) -> Checked:
            exact = nc.weingarten.sesquilinear_moment_exact(
                f, f, 1.0, kind, SMALL_N, table=self.check_table
            )
            return _mc_checked(label, est.mean, est.std_error, exact, _mc_digest(est))

        inputs = {"op": label, "N": SMALL_N, "samples": samples, **_series_inputs(f)}
        return Op(label, run, check, inputs)

    def descriptors(self) -> dict:
        return {
            "N": SMALL_N,
            "series": f"every word of length <= {SMALL_MAX_LEN}, random phases",
            "templates": [{"boundary": f, "m": m, "samples": s} for f, m, s in SMALL_TEMPLATES],
            "workers": 1,
        }


# -- mc-large -----------------------------------------------------------------

LARGE_M = 2
LARGE_N = 16
LARGE_DEGREE = 5
LARGE_TERMS = 12
# Distinct nonempty prefixes of the series' words: the number of cached word
# products per chunk, which sets both the evaluation work and peak memory
# (4096 x 16 x 16 complex values, 16.8 MB, per prefix and worker).
LARGE_PREFIXES = 16
LARGE_SAMPLES = 8192  # two chunks, so both workers have one
LARGE_WORKERS = 2
LARGE_TEMPLATES = ("pairing", "recover")


class McLarge(Workload):
    name = "mc-large"
    calibrated = False
    why = (
        "two-thread MC pairings and recoveries of degree-5 series at N = 16: "
        "prefix-cached word products and the chunk fan-out dominate"
    )

    def __init__(self, nc, seed: int) -> None:
        super().__init__(nc, seed)
        _mc_warm_up(nc)

    def templates(self) -> list:
        return list(LARGE_TEMPLATES)

    def _series(self):
        while True:
            f = _random_series(self.rng, self.nc, LARGE_M, LARGE_TERMS, LARGE_DEGREE)
            prefixes = {w.letters[:k] for w in f.coeffs for k in range(1, len(w) + 1)}
            if f.degree() == LARGE_DEGREE and len(prefixes) == LARGE_PREFIXES:
                return f

    def make_op(self, template) -> Op:
        nc = self.nc
        f = self._series()
        stream = self.next_stream()
        space = nc.hardy.SpaceKind.polydisc(LARGE_M)
        kind = space.boundary()
        if template == "pairing":
            def call(workers):
                return nc.haar_mc.mc_pairing(
                    f, f, 1.0, kind, LARGE_N, LARGE_SAMPLES, stream, workers=workers
                )

            def check(est) -> Checked:
                exact = nc.weingarten.sesquilinear_moment_exact(
                    f, f, 1.0, kind, LARGE_N, table=self.check_table
                )
                return _mc_checked(template, est.mean, est.std_error, exact, _mc_digest(est))

            digest = _mc_digest
        else:
            word = self.rng.choice(sorted((w for w in f.coeffs if len(w)), key=_graded))

            def call(workers):
                return nc.hardy.coeff_recover(
                    f, word, 1.0, space, [LARGE_N], engine="mc",
                    samples=LARGE_SAMPLES, stream=stream, workers=workers,
                )

            def digest(report):
                cell = report.cells[-1]
                return [_hex(cell.value), cell.std_error.hex()]

            def check(report) -> Checked:
                exact = nc.hardy.coeff_recover(
                    f, word, 1.0, space, [LARGE_N], engine="exact", table=self.check_table
                ).recovered
                cell = report.cells[-1]
                return _mc_checked(template, cell.value, cell.std_error, exact, digest(report))

        return Op(
            template,
            lambda: call(LARGE_WORKERS),
            check,
            {"op": template, "N": LARGE_N, "samples": LARGE_SAMPLES, **_series_inputs(f)},
            run_serial=lambda: call(1),
            digest=digest,
        )

    def descriptors(self) -> dict:
        return {
            "m": LARGE_M,
            "N": LARGE_N,
            "degree": LARGE_DEGREE,
            "terms": LARGE_TERMS,
            "distinct_prefixes": LARGE_PREFIXES,
            "samples": LARGE_SAMPLES,
            "workers": LARGE_WORKERS,
            "templates": list(LARGE_TEMPLATES),
        }


def _mc_warm_up(nc) -> None:
    """One tiny estimate, so LAPACK and the thread pool are loaded before timing."""
    W = nc.weingarten
    f = nc.words.NcSeries.monomial(2, nc.words.Word([1, 2]))
    nc.haar_mc.mc_pairing(
        f, f, 1.0, W.BoundaryKind.polydisc(2), 2, 64, nc.haar_mc.SeededStream(0), workers=2
    )


def _mc_digest(est) -> list[str]:
    return [_hex(est.mean), est.std_error.hex()]


def _mc_checked(label: str, mean, se: float, exact, digest: list[str]) -> Checked:
    errors = []
    if not _within_se(mean, se, exact):
        errors.append(f"{label}: MC {mean} +- {se} vs exact {exact}")
    return Checked(errors, digest, _accuracy_factor(se, exact))


WORKLOADS = {cls.name: cls for cls in (ExactDeep, ExactWide, McSmall, McLarge)}
