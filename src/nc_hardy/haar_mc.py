"""Seeded Haar sampling of the distinguished boundaries and Monte Carlo
estimation of tracial integrals.

Every estimate is a deterministic function of (seed, stream plan): samples are
drawn in fixed-size chunks, each chunk from its own derived substream, and the
per-chunk partial sums are reduced in chunk order.  Results therefore do not
depend on the worker count.  Plain averaging only; no variance reduction, so
the estimator stays an independent, auditable oracle for the exact engine.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import Callable, Mapping, Sequence

import numpy as np

from .weingarten import BoundaryKind
from .words import (
    AlphabetMismatchError,
    MatrixTuple,
    NcSeries,
    Word,
    _fresh_cache,
    _series_stack,
)

__all__ = [
    "CHUNK_SAMPLES",
    "DEFAULT_SEED",
    "default_seed",
    "SeededStream",
    "default_stream",
    "MCEstimate",
    "sample_haar_unitary",
    "sample_boundary",
    "mc_pairing",
    "mc_recovery_integral",
    "FreenessStructureError",
    "FreenessFactor",
    "FreenessRow",
    "FreenessReport",
    "freeness_diagnostic",
]

# Chunk size is part of the stream plan: changing it changes the draws.
CHUNK_SAMPLES = 4096

_ENV_SEED = "NC_HARDY_SEED"
DEFAULT_SEED = 424242


def default_seed() -> int:
    """Default seed, overridable through the NC_HARDY_SEED environment variable."""
    raw = os.environ.get(_ENV_SEED)
    if raw is None or raw == "":
        return DEFAULT_SEED
    return int(raw)


@dataclass(frozen=True)
class SeededStream:
    """Deterministic stream identity: (seed, stream_id) fixes every sample drawn."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def chunk_generator(self, chunk_index: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, chunk_index)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def lane(self, offset: int) -> "SeededStream":
        """Derived stream for grid cells; offsets must be distinct per cell."""
        return SeededStream(self.seed, self.stream_id + offset)


def default_stream(seed: int | None = None, stream_id: int = 0) -> SeededStream:
    return SeededStream(default_seed() if seed is None else seed, stream_id)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result contract: mean, standard error, sample count, seed."""

    mean: complex
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError("an estimate needs at least 2 samples")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")

    @classmethod
    def from_sums(
        cls, total: complex, total_sq: float, samples: int, seed: int
    ) -> "MCEstimate":
        mean = total / samples
        var = max((total_sq - abs(total) ** 2 / samples) / (samples - 1), 0.0)
        return cls(mean=complex(mean), std_error=sqrt(var / samples), samples=samples, seed=seed)

    def delta_in_se(self, reference: complex) -> float:
        """|mean - reference| in units of std_error (inf if std_error = 0 and they differ)."""
        diff = abs(self.mean - complex(reference))
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else float("inf")
        return diff / self.std_error

    def to_json_dict(self) -> dict:
        return {
            "re": self.mean.real,
            "im": self.mean.imag,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
        }


def _haar_stack(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitaries of shape (count, dim, dim).

    Complex Ginibre matrix, QR-factorized, with the phases of the diagonal of R
    divided out so the factorization is the unique one with positive diagonal.
    """
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    mag = np.abs(d)
    ph = np.where(mag == 0, 1.0, d / np.where(mag == 0, 1.0, mag))
    return q * ph[:, None, :]


def sample_haar_unitary(
    N: int, stream: SeededStream, count: int | None = None
) -> np.ndarray:
    """Haar-random N x N unitary (or a stack of them when count is given).

    A fixed stream always reproduces the same draw; use distinct stream ids for
    independent samples.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = stream.generator()
    stack = _haar_stack(N, count if count is not None else 1, rng)
    return stack if count is not None else stack[0]


def _boundary_stack(
    kind: BoundaryKind, N: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Boundary samples of shape (count, m, N, N)."""
    m = kind.m
    if kind.family == "polydisc":
        return _haar_stack(N, count * m, rng).reshape(count, m, N, N)
    big = _haar_stack(m * N, count, rng)
    if kind.family == "ball_column":
        blocks = [big[:, k * N : (k + 1) * N, 0:N] for k in range(m)]
    else:
        blocks = [big[:, 0:N, k * N : (k + 1) * N] for k in range(m)]
    return np.stack(blocks, axis=1)


def sample_boundary(
    kind: BoundaryKind, N: int, stream: SeededStream, count: int | None = None
) -> MatrixTuple | np.ndarray:
    """One boundary point as a MatrixTuple, or a (count, m, N, N) stack.

    polydisc: m independent Haar unitaries.  ball_column: the m blocks of the
    first block column of a Haar unitary of size mN (an isometry column, so
    sum Xi* Xi = I).  ball_row: blocks of the first block row (sum Xi Xi* = I).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = stream.generator()
    stack = _boundary_stack(kind, N, count if count is not None else 1, rng)
    if count is None:
        return MatrixTuple(list(stack[0]))
    return stack


def _chunk_plan(samples: int) -> list[int]:
    full, rem = divmod(samples, CHUNK_SAMPLES)
    return [CHUNK_SAMPLES] * full + ([rem] if rem else [])


def _mc_estimate(
    kind: BoundaryKind,
    N: int,
    samples: int,
    stream: SeededStream,
    integrand: Callable[[np.ndarray], np.ndarray],
    workers: int = 1,
) -> MCEstimate:
    if N < 1:
        raise ValueError("N must be >= 1")
    if samples < 2:
        raise ValueError("need at least 2 samples")

    def run_chunk(job: tuple[int, int]) -> tuple[complex, float]:
        idx, size = job
        rng = stream.chunk_generator(idx)
        xs = _boundary_stack(kind, N, size, rng)
        z = np.asarray(integrand(xs), dtype=complex)
        return complex(z.sum()), float(np.square(np.abs(z)).sum())

    jobs = list(enumerate(_chunk_plan(samples)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, jobs))
    else:
        partials = [run_chunk(job) for job in jobs]
    total = 0j
    total_sq = 0.0
    for part_sum, part_sq in partials:  # fixed chunk order
        total += part_sum
        total_sq += part_sq
    return MCEstimate.from_sums(total, total_sq, samples, stream.seed)


def _mc_weighted_pairing(
    f: NcSeries,
    g: NcSeries,
    r_f: float,
    r_g: float,
    kind: BoundaryKind,
    N: int,
    samples: int,
    stream: SeededStream | None,
    workers: int,
) -> MCEstimate:
    if f.m != g.m:
        raise AlphabetMismatchError("series alphabets differ")
    if f.m != kind.m:
        raise AlphabetMismatchError("series and boundary alphabets differ")
    stream = stream if stream is not None else default_stream()

    def integrand(xs: np.ndarray) -> np.ndarray:
        cache = _fresh_cache(xs.shape[0], N)
        fx = _series_stack(f, xs, r_f, cache)
        gx = _series_stack(g, xs, r_g, cache)
        return np.einsum("bij,bij->b", gx.conj(), fx) / N

    return _mc_estimate(kind, N, samples, stream, integrand, workers)


def mc_pairing(
    f: NcSeries,
    g: NcSeries,
    r: float,
    kind: BoundaryKind,
    N: int,
    samples: int,
    stream: SeededStream | None = None,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the boundary integral of (1/N) Tr(g(rX)* f(rX))."""
    return _mc_weighted_pairing(f, g, r, r, kind, N, samples, stream, workers)


def mc_recovery_integral(
    f: NcSeries,
    w: Word,
    r: float,
    kind: BoundaryKind,
    N: int,
    samples: int,
    stream: SeededStream | None = None,
    workers: int = 1,
) -> MCEstimate:
    """Raw coefficient-recovery integral (1/N) Tr((X^w)* f(rX)); no prefactors."""
    g = NcSeries.monomial(f.m, w)
    return _mc_weighted_pairing(f, g, r, 1.0, kind, N, samples, stream, workers)


class FreenessStructureError(ValueError):
    """Factor list is not an alternating product of centered one-letter polynomials."""


class FreenessFactor:
    """Centered Laurent polynomial in a single Haar unitary.

    Unitarity collapses any word in U and U* to a power U^j, so a factor is a
    map from nonzero integer powers to coefficients.  A zero power would be a
    constant term, which is never centered under the normalized trace.
    """

    __slots__ = ("letter", "terms")

    def __init__(self, letter: int, terms: Mapping[int, complex]) -> None:
        if letter < 1:
            raise FreenessStructureError("ensemble letters are 1-based")
        cleaned = {}
        for power, coeff in terms.items():
            c = complex(coeff)
            if c == 0:
                continue
            if power == 0:
                raise FreenessStructureError(
                    "constant terms are not centered: drop the power-0 coefficient"
                )
            cleaned[int(power)] = c
        if not cleaned:
            raise FreenessStructureError("factor has no nonzero centered terms")
        self.letter = letter
        self.terms = tuple(sorted(cleaned.items()))

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*U{self.letter}^{j}" for j, c in self.terms)
        return f"FreenessFactor({body})"


@dataclass(frozen=True)
class FreenessRow:
    N: int
    estimate: MCEstimate


@dataclass(frozen=True)
class FreenessReport:
    rows: tuple[FreenessRow, ...]
    abs_means: tuple[float, ...]
    monotone_decreasing: bool
    final_within_3se: bool


def _power_stack(
    xs: np.ndarray, letter: int, power: int, cache: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    got = cache.get((letter, power))
    if got is not None:
        return got
    if power < 0:
        pos = _power_stack(xs, letter, -power, cache)
        out = pos.conj().transpose(0, 2, 1)
    elif power == 1:
        out = xs[:, letter - 1]
    else:
        out = _power_stack(xs, letter, power - 1, cache) @ xs[:, letter - 1]
    cache[(letter, power)] = out
    return out


def freeness_diagnostic(
    factors: Sequence[FreenessFactor],
    N_grid: Sequence[int],
    samples: int,
    stream: SeededStream | None = None,
    workers: int = 1,
) -> FreenessReport:
    """Estimate the normalized trace of an alternating product of centered factors.

    Independent Haar families are asymptotically free, so the estimates should
    shrink toward zero as N grows; the report records the |mean| trend and
    whether the final estimate is within three standard errors of zero.
    Consecutive factors must come from different ensembles.
    """
    if not factors:
        raise FreenessStructureError("need at least one factor")
    for a, b in zip(factors, factors[1:]):
        if a.letter == b.letter:
            raise FreenessStructureError(
                "consecutive factors must use different ensembles"
            )
    if not N_grid:
        raise ValueError("N_grid must be nonempty")
    m = max(fac.letter for fac in factors)
    kind = BoundaryKind.polydisc(m)
    stream = stream if stream is not None else default_stream()

    def make_integrand(n: int) -> Callable[[np.ndarray], np.ndarray]:
        def integrand(xs: np.ndarray) -> np.ndarray:
            cache: dict[tuple[int, int], np.ndarray] = {}
            running: np.ndarray | None = None
            for fac in factors:
                mat = np.zeros((xs.shape[0], n, n), dtype=complex)
                for power, coeff in fac.terms:
                    mat += coeff * _power_stack(xs, fac.letter, power, cache)
                running = mat if running is None else running @ mat
            return np.einsum("bii->b", running) / n

        return integrand

    rows = []
    for pos, n in enumerate(N_grid):
        est = _mc_estimate(kind, n, samples, stream.lane(pos), make_integrand(n), workers)
        rows.append(FreenessRow(N=n, estimate=est))
    abs_means = tuple(abs(row.estimate.mean) for row in rows)
    monotone = all(b < a for a, b in zip(abs_means, abs_means[1:]))
    final = rows[-1].estimate
    return FreenessReport(
        rows=tuple(rows),
        abs_means=abs_means,
        monotone_decreasing=monotone,
        final_within_3se=abs(final.mean) <= 3 * final.std_error,
    )
