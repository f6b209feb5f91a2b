"""Desk-scale acceptance battery.

Each criterion is a self-contained check with a fixed runtime budget; the CLI
selftest and the pytest suite both run these functions.  Monte Carlo criteria
use fixed internal seeds so a default run is reproducible; an explicit seed
override changes only the sampled parts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iterproduct
from typing import Callable, Sequence

import numpy as np

from .haar_mc import FreenessFactor, SeededStream, freeness_diagnostic, mc_pairing
from .hardy import (
    SpaceKind,
    coeff_recover,
    inner_product,
    kernel_section_gram,
    reproduce_check,
    upsilon_membership,
)
from .weingarten import (
    BoundaryKind,
    WeingartenTable,
    pairing_moment_exact,
    sesquilinear_moment_exact,
)
from .words import (
    MatrixTuple,
    NcSeries,
    Word,
    all_words,
    direct_sum,
    series_eval,
    similarity,
    spectral_theta,
)

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "run_all",
    "cycle_type",
    "random_series",
    "random_tuple",
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float
    limit_seconds: float


CRITERIA: dict[int, Callable[..., CriterionResult]] = {}
# Each sampling criterion's fixed seed, used unless the run overrides it.
MC_SEEDS: dict[int, int] = {}


def _criterion(number: int, name: str, limit: float, mc_seed: int | None = None):
    """Register check, timed against its budget of limit seconds, as CRITERIA[number].

    The check takes the seed to sample with (the run's seed, or mc_seed when
    the run gives none) and returns its failures and the note a pass reports.
    """

    def register(check: Callable[[int | None], tuple[list[str], str]]):
        def run(seed: int | None = None) -> CriterionResult:
            t0 = time.perf_counter()
            failures, note = check(mc_seed if seed is None else seed)
            seconds = time.perf_counter() - t0
            if seconds > limit:
                failures.append(f"runtime {seconds:.1f}s exceeds budget {limit:.0f}s")
            details = note if not failures else "; ".join(failures)
            return CriterionResult(number, name, not failures, details, seconds, limit)

        CRITERIA[number] = run
        if mc_seed is not None:
            MC_SEEDS[number] = mc_seed
        return check

    return register


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a 0-based permutation, largest first.

    The Gram oracles' own helper, so they share nothing with the engine under
    test but its table.
    """
    left, lens = set(range(len(perm))), []
    while left:
        start = left.pop()
        j, length = perm[start], 1
        while j != start:
            left.discard(j)
            j, length = perm[j], length + 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


@_criterion(1, "weingarten-values", 10.0)
def weingarten_values(seed: int | None) -> tuple[list[str], str]:
    """Weingarten values against the hand-inverted 2x2 Gram system, and the
    defining Gram relation for all orders n <= 5, dimensions N <= 12."""
    failures: list[str] = []
    table = WeingartenTable()
    for n_dim in range(2, 9):
        vals = table.values(2, n_dim)
        want_id = 1.0 / (n_dim ** 2 - 1)
        want_tr = -1.0 / (n_dim * (n_dim ** 2 - 1))
        if abs(float(vals[(1, 1)]) - want_id) > 1e-10:
            failures.append(f"Wg({n_dim}, id) != 1/(N^2-1)")
        if abs(float(vals[(2,)]) - want_tr) > 1e-10:
            failures.append(f"Wg({n_dim}, transposition) != -1/(N(N^2-1))")
    worst = 0.0
    for order in range(1, 6):
        perms = list(permutations(range(order)))
        inverses = [np.argsort(b).tolist() for b in perms]
        ident = tuple(range(order))
        for n_dim in range(order, 13):
            vals = table.values(order, n_dim)
            wg_vec = np.array([float(vals[cycle_type(p)]) for p in perms])
            gram = np.empty((len(perms), len(perms)))
            for i, a in enumerate(perms):
                for j, binv in enumerate(inverses):
                    comp = tuple(a[k] for k in binv)
                    gram[i, j] = float(n_dim) ** len(cycle_type(comp))
            unit = np.zeros(len(perms))
            unit[perms.index(ident)] = 1.0
            resid = float(np.max(np.abs(gram @ wg_vec - unit)))
            worst = max(worst, resid)
    if worst > 1e-10:
        failures.append(f"Gram residual {worst:.3e} > 1e-10")
    return failures, f"max Gram residual {worst:.2e}"


@_criterion(2, "crossterm-norm-identity", 60.0, mc_seed=91002)
def crossterm_norm_identity(seed: int | None) -> tuple[list[str], str]:
    """Exact boundary norm of X1X2 + X2X1 equals 2(1 + 1/N^2), scales as r^4,
    and the Monte Carlo oracle agrees at N = 4."""
    failures: list[str] = []
    f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
    kind = BoundaryKind.polydisc(2)
    for n_dim in (1, 2, 4, 8):
        want = 2.0 * (1.0 + 1.0 / n_dim ** 2)
        got = sesquilinear_moment_exact(f, f, 1.0, kind, n_dim)
        if abs(got - want) > 1e-10:
            failures.append(f"N={n_dim}: exact {got} != {want}")
        got_r = sesquilinear_moment_exact(f, f, 0.5, kind, n_dim)
        if abs(got_r - 0.5 ** 4 * want) > 1e-10:
            failures.append(f"N={n_dim}: r-scaling is not r^4")
    stream = SeededStream(seed, 0)
    est = mc_pairing(f, f, 1.0, kind, 4, 100_000, stream)
    want4 = 2.0 * (1.0 + 1.0 / 16.0)
    delta = est.delta_in_se(want4)
    if delta > 3.0:
        failures.append(f"MC at N=4 off by {delta:.2f} standard errors")
    return failures, f"MC delta {delta:.2f} SE"


@_criterion(3, "length-mismatch-vanishing", 10.0)
def length_mismatch_vanishing(seed: int | None) -> tuple[list[str], str]:
    """Pairings of words with different lengths vanish exactly (no tolerance)."""
    failures: list[str] = []
    kind = BoundaryKind.polydisc(2)
    words = all_words(2, 3)
    checked = 0
    for w, v in iterproduct(words, words):
        if len(w) == len(v):
            continue
        for n_dim in (2, 4):
            val = pairing_moment_exact(w, v, kind, n_dim)
            checked += 1
            if val != 0:
                failures.append(f"pairing({w!r}, {v!r}, N={n_dim}) = {val} != 0")
    return failures, f"{checked} pairs exactly zero"


@_criterion(4, "asymptotic-orthogonality", 10.0)
def asymptotic_orthogonality(seed: int | None) -> tuple[list[str], str]:
    """The cross pairing of X1X2 against X2X1 equals 1/N exactly, so the
    sqrt-normalized trace decays at the observed order N^{-3/2}."""
    failures: list[str] = []
    kind = BoundaryKind.polydisc(2)
    w, v = Word((1, 2)), Word((2, 1))
    levels = (2, 4, 8, 16)
    scaled = []
    for n_dim in levels:
        val = pairing_moment_exact(w, v, kind, n_dim)
        if val != Fraction(1, n_dim):
            failures.append(f"N={n_dim}: pairing {val} != 1/N")
        scaled.append(float(val) / np.sqrt(n_dim))
    want_ratio = 2.0 ** (-1.5)
    for a, b in zip(scaled, scaled[1:]):
        ratio = b / a
        if abs(ratio / want_ratio - 1.0) > 0.10:
            failures.append(f"decay ratio {ratio:.4f} not within 10% of 2^-1.5")
    return failures, "decay order N^-1.5"


@_criterion(5, "ball-normalization", 300.0, mc_seed=91005)
def ball_normalization(seed: int | None) -> tuple[list[str], str]:
    """Ball-boundary normalization: degree-1 means equal 1/m exactly; degree-2
    means increase monotonically to 1/m^2; Monte Carlo agrees within 3 SE,
    and its symmetry residual is within 3 SE of 0.

    The Monte Carlo checks include 1 + X1, whose residual 2 Re Tr(X1)/N has
    mean 0 for a Haar column, but not for one whose QR factor keeps the
    phases of R's diagonal.  The stratified value 1 + Tr(X1* X1)/N cannot
    see those phases.
    """
    failures: list[str] = []
    lane = 0
    for m in (2, 3):
        kind = BoundaryKind.ball_column(m)
        x1 = NcSeries.monomial(m, (1,))
        x12 = NcSeries.monomial(m, (1, 2))
        for n_dim in (2, 4, 8):
            val = pairing_moment_exact(Word((1,)), Word((1,)), kind, n_dim)
            if val != Fraction(n_dim, m):
                failures.append(f"m={m}, N={n_dim}: Tr(X1*X1) mean != 1/m")
        deg2 = [
            float(pairing_moment_exact(Word((1, 2)), Word((1, 2)), kind, n_dim)) / n_dim
            for n_dim in (2, 4, 8)
        ]
        limit = 1.0 / m ** 2
        gaps = [abs(x - limit) for x in deg2]
        if not (gaps[0] > gaps[1] > gaps[2]):
            failures.append(f"m={m}: degree-2 means not monotone toward 1/m^2")
        if gaps[-1] / limit > 0.15:
            failures.append(f"m={m}: final relative gap {gaps[-1] / limit:.3f} > 15%")
        checks = (
            ("X1", x1, 1.0 / m, 100_000),
            ("X1X2", x12, deg2[1], 100_000),
            ("1 + X1", NcSeries(m, {(): 1.0, (1,): 1.0}), 1.0 + 1.0 / m, 16_384),
        )
        for label, series, target, samples in checks:
            est = mc_pairing(
                series, series, 1.0, kind, 4, samples, SeededStream(seed, lane)
            )
            lane += 1
            delta = est.delta_in_se(target)
            if delta > 3.0:
                failures.append(f"m={m}: MC of {label} off exact by {delta:.2f} SE")
            delta = est.residual_in_se()
            if delta > 3.0:
                failures.append(f"m={m}: MC of {label}: symmetry residual off 0 by {delta:.2f} SE")
    return failures, "degree 1 exact, degree 2 -> 1/m^2"


@_criterion(6, "coefficient-recovery", 60.0)
def coefficient_recovery(seed: int | None) -> tuple[list[str], str]:
    """Coefficient recovery converges at order 1/N^2 and vanishes exactly for
    query words outside the series support lengths."""
    failures: list[str] = []
    f = NcSeries(2, {(1, 2): 1.0, (2, 1): 2.0, (1,): -0.5})
    kind = SpaceKind.polydisc(2)
    levels = [2, 4, 8, 16]
    for word, coeff in f.items():
        report = coeff_recover(f, word, 0.7, kind, levels, engine="exact")
        err_first = abs(report.cells[0].value - coeff)
        err_last = abs(report.cells[-1].value - coeff)
        if err_last > err_first / 32 + 1e-15:
            failures.append(
                f"word {word!r}: error {err_last:.3e} at N=16 vs {err_first:.3e} at N=2"
            )
    for missing in (Word(), Word((1, 1, 2))):
        report = coeff_recover(f, missing, 0.7, kind, levels, engine="exact")
        if any(cell.value != 0 for cell in report.cells):
            failures.append(f"word {missing!r}: recovery not exactly zero")
    return failures, "O(1/N^2) trend"


@_criterion(7, "orthonormal-monomials", 1.0)
def orthonormal_monomials(seed: int | None) -> tuple[list[str], str]:
    """Monomials are exactly orthonormal: Gram identity on words of length <= 3
    for the polydisc, and for ball-normalized monomials."""
    failures: list[str] = []
    for m in (2, 3):
        words = all_words(m, 3)
        poly = SpaceKind.polydisc(m)
        ball = SpaceKind.ball(m)
        for wi in words:
            fi = NcSeries.monomial(m, wi)
            for wj in words:
                fj = NcSeries.monomial(m, wj)
                want = 1.0 if wi == wj else 0.0
                got = inner_product(fi, fj, poly)
                if got != want:
                    failures.append(f"polydisc Gram({wi!r}, {wj!r}) = {got}")
                total_len = len(wi) + len(wj)
                norm = (
                    m ** (total_len // 2)
                    if total_len % 2 == 0
                    else float(np.sqrt(m ** total_len))
                )
                got_ball = norm * inner_product(fi, fj, ball)
                if got_ball != want:
                    failures.append(f"ball Gram({wi!r}, {wj!r}) = {got_ball}")
    return failures, "Gram matrices exactly identity"


def random_series(rng: np.random.Generator, m: int, max_degree: int, terms: int) -> NcSeries:
    coeffs: dict[Word, complex] = {}
    for _ in range(terms):
        length = int(rng.integers(0, max_degree + 1))
        word = Word(rng.integers(1, m + 1, size=length).tolist())
        coeffs[word] = complex(rng.standard_normal(), rng.standard_normal())
    return NcSeries(m, coeffs)


def random_tuple(rng: np.random.Generator, m: int, n: int, scale: float = 1.0) -> MatrixTuple:
    mats = [
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        for _ in range(m)
    ]
    return MatrixTuple(mats)


@_criterion(8, "nc-function-axioms", 10.0)
def nc_function_axioms(seed: int | None) -> tuple[list[str], str]:
    """Randomized direct-sum and similarity invariance of series evaluation."""
    failures: list[str] = []
    rng = np.random.default_rng(91008)
    for trial in range(200):
        m = int(rng.integers(1, 4))
        f = random_series(rng, m, 3, 4)
        nx = int(rng.integers(1, 5))
        ny = int(rng.integers(1, 5))
        x = random_tuple(rng, m, nx)
        y = random_tuple(rng, m, ny)
        fx = series_eval(f, x)
        fy = series_eval(f, y)
        both = series_eval(f, direct_sum(x, y))
        block = np.zeros((nx + ny, nx + ny), dtype=complex)
        block[:nx, :nx] = fx
        block[nx:, nx:] = fy
        denom = max(1.0, float(np.linalg.norm(block)))
        if float(np.linalg.norm(both - block)) / denom > 1e-9:
            failures.append(f"trial {trial}: direct-sum residual too large")
        while True:
            t_mat = rng.standard_normal((nx, nx)) + 1j * rng.standard_normal((nx, nx))
            if np.linalg.cond(t_mat) <= 1e3:
                break
        conj = series_eval(f, similarity(x, t_mat))
        direct = t_mat @ fx @ np.linalg.inv(t_mat)
        denom = max(1.0, float(np.linalg.norm(direct)))
        if float(np.linalg.norm(conj - direct)) / denom > 1e-9:
            failures.append(f"trial {trial}: similarity residual too large")
    return failures, "200 randomized trials"


@_criterion(9, "membership-and-kernel", 60.0)
def membership_and_kernel(seed: int | None) -> tuple[list[str], str]:
    """Membership bound dominates partial sums; kernel pairing reproduces point
    evaluations; the kernel section Gram is positive up to its tail bound."""
    failures: list[str] = []
    rng = np.random.default_rng(91009)
    for trial in range(50):
        p = float(rng.choice([1.0, 2.0]))
        n = int(rng.integers(2, 4))
        x = random_tuple(rng, 2, n)
        theta_now = spectral_theta(x, p)
        target = float(rng.uniform(0.1, 0.8))
        x = x.scale(np.sqrt(target / theta_now))
        verdict = upsilon_membership(x, p, max_degree=12)
        if verdict.status != "converged" or verdict.bound is None:
            failures.append(f"trial {trial}: expected converged verdict")
            continue
        if verdict.bound + 1e-9 < max(verdict.partial_sum_norms):
            failures.append(f"trial {trial}: bound below a partial sum")
        diffs = np.diff(verdict.partial_sum_norms)
        if np.any(diffs < -1e-12):
            failures.append(f"trial {trial}: partial sums not monotone")
    for trial in range(50):
        p = float(rng.choice([1.0, 2.0]))
        f = random_series(rng, 2, 3, 4)
        y = random_tuple(rng, 2, 2)
        y = y.scale(np.sqrt(float(rng.uniform(0.1, 0.8)) / spectral_theta(y, p)))
        e1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        e2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = reproduce_check(f, y, e1, e2, p)
        if res.residual > 1e-10:
            failures.append(f"trial {trial}: reproduce residual {res.residual:.2e}")
    for trial in range(5):
        tuples = []
        for _ in range(2):
            x = random_tuple(rng, 2, 2)
            x = x.scale(np.sqrt(float(rng.uniform(0.2, 0.8)) / spectral_theta(x, 1.0)))
            tuples.append(x)
        gram, tail = kernel_section_gram(tuples, 1.0, max_degree=10)
        herm_defect = float(np.linalg.norm(gram - gram.conj().T))
        if herm_defect > 1e-10:
            failures.append(f"trial {trial}: section Gram not Hermitian ({herm_defect:.2e})")
        min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0])
        if tail is None or min_eig < -2.0 * tail - 1e-10:
            failures.append(f"trial {trial}: min eigenvalue {min_eig:.2e} below -2*tail")
    return failures, "bounds, reproduction, positivity"


@_criterion(10, "freeness-decay", 300.0, mc_seed=91010)
def freeness_decay(seed: int | None) -> tuple[list[str], str]:
    """Commutator U1 U2 U1^-1 U2^-1 of centered factors: at N = 4, 8, 16, 32
    each estimate is within 3 SE of the exact Tr((U2 U1)* U1 U2)/N = 1/N^2,
    and |estimate| strictly decreases.  (U1 U2 U1 U2 has mean 0 by the torus
    symmetry, so its |estimate| is noise.)  A level leaves 3 SE by chance
    with probability at most 0.27 % (normal approximation), so at most about
    1 % of seeds fail falsely; none of seeds 1..40 does, the worst at 2.38 SE.
    """
    failures: list[str] = []
    factors = [
        FreenessFactor(1, {1: 1.0}),
        FreenessFactor(2, {1: 1.0}),
        FreenessFactor(1, {-1: 1.0}),
        FreenessFactor(2, {-1: 1.0}),
    ]
    stream = SeededStream(seed, 0)
    report = freeness_diagnostic(factors, [4, 8, 16, 32], 10_000, stream)
    worst, kind = 0.0, BoundaryKind.polydisc(2)
    for row in report.rows:
        mean = pairing_moment_exact(Word((2, 1)), Word((1, 2)), kind, row.N) / row.N
        delta = row.estimate.delta_in_se(float(mean))
        worst = max(worst, delta)
        if delta > 3.0:
            failures.append(f"N={row.N}: {row.estimate.mean:.3e} is {delta:.2f} SE from {mean}")
    if not report.monotone_decreasing:
        failures.append(f"|means| not decreasing: {[f'{x:.2e}' for x in report.abs_means]}")
    trend = " > ".join(f"{x:.1e}" for x in report.abs_means)
    return failures, f"{trend}, worst {worst:.2f} SE"


def run_all(seed: int | None = None, only: Sequence[int] | None = None) -> list[CriterionResult]:
    numbers = sorted(set(only)) if only else sorted(CRITERIA)
    unknown = [k for k in numbers if k not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    return [CRITERIA[num](seed=seed) for num in numbers]
