"""Hardy-space layer: coefficient inner products, boundary recovery of Taylor
coefficients, radial norm profiles, domain membership, and reproducing kernels.

Two engines back every boundary integral: the exact Weingarten integrator and
the seeded Monte Carlo sampler.  Exact values are flagged as such; Monte Carlo
values carry a standard error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Literal, Sequence

import numpy as np

from .haar_mc import SeededStream, default_stream, mc_pairing, mc_recovery_integral
from .weingarten import (
    BoundaryKind,
    WeingartenTable,
    pairing_moment_exact,  # not called here; perfbench/tracing.py wraps this name
    sesquilinear_moment_exact,
)
from .words import MatrixTuple, NcSeries, Word, series_eval, spectral_theta, word_eval
from .words import _check_alphabets, _check_engine, _check_grid, _check_integer, _check_letters
from .words import _check_radius, _check_unit_radius, _check_weight
from .words import _geometric_tail, _top_eigenvalue

__all__ = [
    "SpaceKind",
    "GridCell",
    "pairing_grid",
    "inner_product",
    "radial_pairing",
    "RecoveryReport",
    "coeff_recover",
    "NormProfileReport",
    "boundary_norm_profile",
    "UpsilonVerdict",
    "upsilon_membership",
    "KernelValue",
    "kernel_eval",
    "kernel_section_gram",
    "ReproduceResult",
    "reproduce_check",
]

Engine = Literal["exact", "mc"]


@dataclass(frozen=True)
class SpaceKind:
    """Hardy-space domain: polydisc (word weight 1) or ball (weight m^{-|w|})."""

    family: Literal["polydisc", "ball"]
    m: int

    def __post_init__(self) -> None:
        if self.family not in ("polydisc", "ball"):
            raise ValueError("family must be 'polydisc' or 'ball'")
        object.__setattr__(self, "m", _check_integer(self.m, "m", 1))

    @classmethod
    def polydisc(cls, m: int) -> "SpaceKind":
        return cls("polydisc", m)

    @classmethod
    def ball(cls, m: int) -> "SpaceKind":
        return cls("ball", m)

    def boundary(self) -> BoundaryKind:
        if self.family == "polydisc":
            return BoundaryKind.polydisc(self.m)
        return BoundaryKind.ball_column(self.m)

    def stratum_divisor(self, length: int) -> int:
        """Exact integer divisor for a length-l stratum: 1 or m^l."""
        return 1 if self.family == "polydisc" else self.m ** length


@dataclass(frozen=True)
class GridCell:
    """One evaluated cell of an (r, N) grid; a Monte Carlo pairing or
    recovery cell also has its symmetry residual (``MCEstimate``)."""

    r: float
    N: int
    value: complex
    std_error: float | None
    exact: bool
    residual: complex | None = None
    residual_std_error: float | None = None


def pairing_grid(
    f: NcSeries,
    g: NcSeries,
    boundary: BoundaryKind,
    r_grid: Sequence[float],
    N_grid: Sequence[int],
    engine: Engine = "exact",
    samples: int = 100_000,
    stream: SeededStream | None = None,
    workers: int = 1,
    table: WeingartenTable | None = None,
) -> tuple[GridCell, ...]:
    """Boundary integrals of (1/N) Tr(g(rX)* f(rX)) over an (r, N) grid.

    Cells come in r-major order.  The Monte Carlo engine draws the k-th cell
    from stream.lane(k), so every cell has its own substream.  The engine and
    every r and N of the grid and workers are checked before the first cell
    runs.
    """
    _check_engine(engine)
    _check_radius(*r_grid)
    levels = [_check_integer(n, "N", 1) for n in N_grid]
    _check_integer(workers, "workers", 1)
    if engine == "mc":
        stream = stream if stream is not None else default_stream()
    cells = []
    for r in r_grid:
        for n in levels:
            if engine == "exact":
                value = sesquilinear_moment_exact(f, g, r, boundary, n, table)
                cells.append(GridCell(r=float(r), N=n, value=value, std_error=None, exact=True))
            else:
                est = mc_pairing(
                    f, g, r, boundary, n, samples, stream.lane(len(cells)), workers
                )
                cells.append(
                    GridCell(
                        r=float(r), N=n, value=est.mean, std_error=est.std_error, exact=False,
                        residual=est.residual, residual_std_error=est.residual_std_error,
                    )
                )
    return tuple(cells)


def _strata(f: NcSeries, g: NcSeries) -> dict[int, complex]:
    """Length-graded sums sum_{|w|=l} conj(g_w) f_w over the common support."""
    out: dict[int, complex] = {}
    for word, fc in f.coeffs.items():
        gc = g.coeffs.get(word)
        if gc is not None:
            l = len(word)
            out[l] = out.get(l, 0j) + gc.conjugate() * fc
    return out


def inner_product(f: NcSeries, g: NcSeries, kind: SpaceKind) -> complex:
    """Coefficient-side inner product: sum_w conj(g_w) f_w, ball weighted by m^{-|w|}."""
    return radial_pairing(f, g, kind, (1.0,))[0][1]


def radial_pairing(
    f: NcSeries, g: NcSeries, kind: SpaceKind, r_grid: Sequence[float]
) -> tuple[tuple[float, complex], ...]:
    """Series form of the radial pairing: per r, sum_l r^{2l} (weighted stratum sums).

    At r = 1 this equals inner_product(f, g, kind).
    """
    _check_alphabets(f.m, g.m, kind.m)
    _check_radius(*r_grid)
    strata = _strata(f, g)
    out = []
    for r in r_grid:
        val = 0j
        for l, stratum in strata.items():
            val += (r ** (2 * l)) * stratum / kind.stratum_divisor(l)
        out.append((float(r), val))
    return tuple(out)


@dataclass(frozen=True)
class RecoveryReport:
    """Per-level recovery of one Taylor coefficient from boundary integrals."""

    word: Word
    kind: SpaceKind
    engine: str
    r: float
    cells: tuple[GridCell, ...]
    recovered: complex
    richardson: complex | None


def coeff_recover(
    f: NcSeries,
    w: Word,
    r: float,
    kind: SpaceKind,
    N_grid: Sequence[int],
    engine: Engine = "exact",
    samples: int = 100_000,
    stream: SeededStream | None = None,
    workers: int = 1,
    table: WeingartenTable | None = None,
    richardson: bool = False,
) -> RecoveryReport:
    """Recover the Taylor coefficient f_w from boundary pairings against X^w.

    Per level N the value is prefactor * integral of (1/N) Tr((X^w)* f(rX)),
    with prefactor r^{-|w|} on the polydisc and m^{|w|} r^{-|w|} on the ball.
    The report keeps the whole N-trend; `recovered` is the value at the largest
    N.  Optional single Richardson step assumes an a + b/N^2 trend on the two
    largest levels.

    The exact engine reads pairing_grid(f, X^w) at r = 1, times m^{|w|} on the
    ball: only words v with |v| = |w| pair nontrivially, and on that stratum
    the r^{|v|} scale cancels the r^{-|w|} prefactor identically, so r never
    enters the exact route.  Each cell still records the caller's r.  The
    engine, r, every level and workers are checked before the first cell
    runs.
    """
    _check_engine(engine)
    _check_unit_radius(r)
    _check_grid(N_grid)
    _check_letters(f.m, w)
    _check_alphabets(f.m, kind.m)
    levels = sorted({_check_integer(n, "N", 1) for n in N_grid})
    _check_integer(workers, "workers", 1)
    boundary = kind.boundary()
    prefactor = kind.stratum_divisor(len(w)) / r ** len(w)
    cells = []
    if engine == "exact":
        divisor = kind.stratum_divisor(len(w))
        monomial = NcSeries.monomial(f.m, w)
        for cell in pairing_grid(f, monomial, boundary, [1.0], levels, table=table):
            cells.append(replace(cell, r=r, value=divisor * cell.value))
    else:
        stream = stream if stream is not None else default_stream()
        for pos, n in enumerate(levels):
            est = mc_recovery_integral(
                f, w, r, boundary, n, samples, stream.lane(pos), workers
            )
            cells.append(
                GridCell(
                    r=r,
                    N=n,
                    value=prefactor * est.mean,
                    std_error=abs(prefactor) * est.std_error,
                    exact=False,
                    residual=prefactor * est.residual,
                    residual_std_error=abs(prefactor) * est.residual_std_error,
                )
            )
    recovered = cells[-1].value
    rich = None
    if richardson and len(cells) >= 2:
        n1, v1 = cells[-2].N, cells[-2].value
        n2, v2 = cells[-1].N, cells[-1].value
        rich = (n2 ** 2 * v2 - n1 ** 2 * v1) / (n2 ** 2 - n1 ** 2)
    return RecoveryReport(
        word=w,
        kind=kind,
        engine=engine,
        r=r,
        cells=tuple(cells),
        recovered=recovered,
        richardson=rich,
    )


@dataclass(frozen=True)
class NormProfileReport:
    """Grid of boundary L2 means of f with the grid supremum estimate."""

    kind: SpaceKind
    engine: str
    cells: tuple[GridCell, ...]
    s_estimate: float
    limit_inner_product: complex


def boundary_norm_profile(
    f: NcSeries,
    kind: SpaceKind,
    r_grid: Sequence[float],
    N_grid: Sequence[int],
    engine: Engine = "exact",
    samples: int = 100_000,
    stream: SeededStream | None = None,
    workers: int = 1,
    table: WeingartenTable | None = None,
) -> NormProfileReport:
    """Value grid of the boundary integral of (1/N) Tr(f(rX)* f(rX)).

    The supremum estimate is the grid maximum; the grid sup and the
    large-N limit genuinely differ in general, so the report also carries the
    coefficient-side limit value ⟨f, f⟩ for comparison.  The supremum runs
    over r <= 1, so every radius must lie in (0, 1], as in coeff_recover.
    Every r and N of the grid is checked before the first cell runs.
    """
    _check_alphabets(f.m, kind.m)
    _check_grid(r_grid, N_grid)
    _check_unit_radius(*r_grid)
    cells = pairing_grid(
        f, f, kind.boundary(), r_grid, N_grid, engine, samples, stream, workers, table
    )
    s_estimate = max(cell.value.real for cell in cells)
    return NormProfileReport(
        kind=kind,
        engine=engine,
        cells=cells,
        s_estimate=s_estimate,
        limit_inner_product=inner_product(f, f, kind),
    )


@dataclass(frozen=True)
class UpsilonVerdict:
    """Three-valued membership verdict with the evidence that produced it.

    status "converged" carries an operator-norm bound that dominates every
    partial sum; "diverged" carries the degree where growth was detected;
    "inconclusive" means neither test fired before checked_degree.
    """

    status: Literal["converged", "diverged", "inconclusive"]
    bound: float | None
    diverged_at: int | None
    checked_degree: int
    partial_sum_norms: tuple[float, ...]
    theta: float

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "bound": self.bound,
            "diverged_at": self.diverged_at,
            "checked_degree": self.checked_degree,
            "theta": self.theta,
            "partial_sum_norms": list(self.partial_sum_norms),
        }


def upsilon_membership(
    X: MatrixTuple,
    p: float,
    max_degree: int = 48,
    divergence_threshold: float = 32.0,
) -> UpsilonVerdict:
    """Decide whether sum_w p^{|w|} (X^w)* X^w converges at X.

    Fast path: theta = lambda_max(p sum Xi* Xi) < 1 proves convergence with
    bound 1/(1 - theta), since each stratum T_{l+1} = p sum_k Xk* T_l Xk is
    dominated by theta T_l.  An exactly vanishing stratum also proves
    convergence (the sum is finite, e.g. for nilpotent tuples).  Divergence is
    a heuristic: reported at the first degree where the partial-sum norm
    exceeds the threshold while the stratum norms have stopped decaying.
    Strata are accumulated to max_degree in all cases so the verdict carries
    the full partial-sum profile.
    """
    _check_weight(p)
    max_degree = _check_integer(max_degree, "max_degree", 1)
    if not isfinite(divergence_threshold):
        raise ValueError(f"divergence_threshold must be finite, got {divergence_threshold}")
    theta = spectral_theta(X, p)
    n = X.n
    stratum = np.eye(n, dtype=complex)
    partial = np.eye(n, dtype=complex)
    stratum_norms = [1.0]
    partial_norms = [_top_eigenvalue(partial)]
    zero_at: int | None = None
    for l in range(1, max_degree + 1):
        stratum = p * sum(
            a.conj().T @ stratum @ a for a in X.entries
        )
        partial = partial + stratum
        t_norm = _top_eigenvalue(stratum)
        stratum_norms.append(t_norm)
        partial_norms.append(_top_eigenvalue(partial))
        if t_norm == 0.0:
            zero_at = l
            break
    checked = len(stratum_norms) - 1
    status, bound, diverged_at = "inconclusive", None, None
    if theta < 1.0:
        status, bound = "converged", 1.0 / (1.0 - theta)
    elif zero_at is not None:
        status, bound = "converged", partial_norms[-1]
    else:
        for l in range(1, checked + 1):
            growing = stratum_norms[l] >= stratum_norms[l - 1] * (1 - 1e-12)
            if growing and partial_norms[l] >= divergence_threshold:
                status, diverged_at = "diverged", l
                break
    return UpsilonVerdict(
        status=status,
        bound=bound,
        diverged_at=diverged_at,
        checked_degree=checked,
        partial_sum_norms=tuple(partial_norms),
        theta=theta,
    )


@dataclass(frozen=True)
class KernelValue:
    """Truncated kernel value with its truncation metadata.

    tail_bound is present exactly when both arguments satisfied the spectral
    condition theta < 1; it is the product of the two single-argument geometric
    tail bounds.
    """

    value: np.ndarray
    truncation_degree: int
    tail_bound: float | None


def kernel_eval(
    X: MatrixTuple, Y: MatrixTuple, p: float, max_degree: int = 12
) -> KernelValue:
    """Truncated kernel sum_{|w| <= L} p^{|w|} X^w tensor (Y^w)*.

    Degree strata satisfy M_{l+1} = p sum_k (Xk tensor I) M_l (I tensor Yk*),
    which keeps the cost at m matrix products of size (N M) per degree.
    """
    _check_alphabets(X.m, Y.m)
    _check_weight(p)
    max_degree = _check_integer(max_degree, "max_degree", 0)
    n, mm = X.n, Y.n
    dim = n * mm
    left = [np.kron(a, np.eye(mm, dtype=complex)) for a in X.entries]
    right = [np.kron(np.eye(n, dtype=complex), b.conj().T) for b in Y.entries]
    term = np.eye(dim, dtype=complex)
    total = np.eye(dim, dtype=complex)
    for _ in range(max_degree):
        term = p * sum(lk @ term @ rk for lk, rk in zip(left, right))
        total = total + term
    theta_x = spectral_theta(X, p)
    theta_y = spectral_theta(Y, p)
    tail = None
    if theta_x < 1.0 and theta_y < 1.0:
        bx, by = (_geometric_tail(1.0, theta, max_degree) for theta in (theta_x, theta_y))
        tail = bx * by
    total.setflags(write=False)
    return KernelValue(value=total, truncation_degree=max_degree, tail_bound=tail)


def kernel_section_gram(
    tuples: Sequence[MatrixTuple], p: float, max_degree: int = 12
) -> tuple[np.ndarray, float | None]:
    """Gram matrix of the kernel sections e_a* K_p(., X_i) e_b in the weighted
    coefficient inner product.

    Entry [(i,a,b), (j,c,d)] = sum_w p^{|w|} (Xj^w)_{dc} conj((Xi^w)_{ba}),
    which is the [(d,a), (c,b)] entry of the truncated K_p(X_j, X_i).  The
    result is Hermitian and positive semidefinite up to truncation error.
    Returns the Gram matrix and the largest per-block tail bound (None if any
    block lacks one).
    """
    if not tuples:
        raise ValueError("need at least one tuple")
    sizes = [t.n ** 2 for t in tuples]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    dim = int(offsets[-1])
    gram = np.zeros((dim, dim), dtype=complex)
    tails: list[float | None] = []
    for i, xi in enumerate(tuples):
        for j, xj in enumerate(tuples):
            kv = kernel_eval(xj, xi, p, max_degree)
            tails.append(kv.tail_bound)
            ni, nj = xi.n, xj.n
            # K(X_j, X_i) acts on C^{nj} tensor C^{ni}; reindex to sections.
            # Row (a, b), column (c, d) takes kmat[d, a, c, b].
            kmat = kv.value.reshape(nj, ni, nj, ni)
            block = kmat.transpose(1, 3, 2, 0).reshape(ni * ni, nj * nj)
            gram[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = block
    tail = None if any(t is None for t in tails) else max(tails)
    return gram, tail


@dataclass(frozen=True)
class ReproduceResult:
    lhs: complex
    rhs: complex
    residual: float


def reproduce_check(
    f: NcSeries,
    Y: MatrixTuple,
    e1: np.ndarray,
    e2: np.ndarray,
    p: float,
) -> ReproduceResult:
    """Compare the kernel-pairing recovery of e2* f(Y) e1 with direct evaluation.

    The kernel section Z -> e1* K_p(Z, Y) e2 has Taylor coefficients
    p^{|w|} e1* (Y^w)* e2; pairing them against f in the weighted coefficient
    inner product must reproduce e2* f(Y) e1.  For polynomial f the pairing
    truncated at deg f is exact.
    """
    _check_alphabets(f.m, Y.m)
    _check_weight(p)
    e1 = np.asarray(e1, dtype=complex).reshape(-1)
    e2 = np.asarray(e2, dtype=complex).reshape(-1)
    if e1.shape[0] != Y.n or e2.shape[0] != Y.n:
        raise ValueError(f"vectors must have length {Y.n}")
    lhs = 0j
    for w, fw in f.items():
        yw = word_eval(Y, w)
        section_coeff = (p ** len(w)) * np.vdot(e1, yw.conj().T @ e2)
        lhs += (p ** (-len(w))) * np.conjugate(section_coeff) * fw
    rhs = complex(np.vdot(e2, series_eval(f, Y) @ e1))
    return ReproduceResult(lhs=complex(lhs), rhs=rhs, residual=abs(complex(lhs) - rhs))
