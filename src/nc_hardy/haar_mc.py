"""Seeded Haar sampling of the distinguished boundaries and Monte Carlo
estimation of tracial integrals.

Every estimate is a deterministic function of (seed, stream plan): samples are
drawn in fixed-size chunks, each chunk from its own derived substream, and the
per-chunk partial sums are reduced in chunk order.  Results therefore do not
depend on the worker count.  Plain averaging only; no variance reduction, so
the estimator stays an independent, auditable oracle for the exact engine.

Stream plan 3 (``STREAM_PLAN``): a polydisc point is m Haar unitaries of size
N.  A ball point needs only the first block column of a Haar unitary of size
mN, an mN x N isometry split into its m blocks.  The row ball is the column
ball's adjoint: the row blocks of U are the adjoints of the column blocks of
U*, which is Haar too.  Each draw is the Q factor, with positive diagonal of
R, of a rows x cols complex Ginibre block (Mezzadri, math-ph/0609050), and
``_boundary_batches`` computes it on one of two routes, chosen by the
per-matrix QR work rows * cols**2:

* at or below ``_GRAM_SCHMIDT_MAX_WORK``, batched Gram-Schmidt: the block is
  drawn batch-last, shape (cols, rows, count), and orthonormalized in place
  by modified Gram-Schmidt with one reorthogonalization pass, each step one
  numpy operation over the whole chunk;
* above it, LAPACK: the block is drawn as (count, rows, cols), QR-factorized
  one matrix at a time (zgeqrf and zungqr) and phase-fixed.  These are plan
  2's draws, bit for bit.

LAPACK's cost per matrix is mostly call overhead at small shapes, while
Gram-Schmidt's grows with the block and leaves the cache first for tall
blocks.  Per 4096-sample chunk of ``sample_boundary`` (draw, QR and the
copy into the output layout), in ms, numpy 2.4.6 with one BLAS thread on a
2-core Intel Xeon, median of 7:

    rows x cols  work  boundary            LAPACK  Gram-Schmidt
       4 x 4       64  polydisc, m = 2       34.8      12.6
       8 x 4      128  ball, m = 2           18.3       8.8
      12 x 4      192  ball, m = 3           24.4      14.3
      32 x 4      512  ball, m = 8           38.7      39.2
       8 x 8      512  polydisc, m = 1       54.4      29.0
      10 x 10    1000  polydisc, m = 1       74.6      47.6
      16 x 8     1024  ball, m = 2           53.2      54.0
      24 x 8     1536  ball, m = 3           78.3      83.8
      16 x 16    4096  polydisc, m = 2      308.9     387.4

Up to work 1000 no shape measured loses (32 x 4 ties); from 1024 on the
tall ball blocks tie or lose, though square ones still win up to 12 x 12,
so the crossover is 1000.  The benchmark's mc-small workload (work 64 to
192) runs the Gram-Schmidt route, mc-large (16 x 16) the LAPACK route.

Every boundary stack is handed out C-contiguous.  On the Gram-Schmidt route
one copy both moves the batch axis first and writes the layout: the polydisc
and the column ball as drawn, the row ball as the conjugate transpose of the
column ball's blocks.  Each chunk reports its count, sum and second
central moment, merged in chunk order (Chan, Golub and LeVeque 1979), so the
standard error does not cancel when the integrand concentrates.

A chunk's integrand (1/N) Tr(g(r_g X)* f(r_f X)) evaluates f and g in one
prefix-trie walk of their words (``words._series_sums``), and evaluates f
once when (g, r_g) is (f, r_f).  Neither changes a bit of the sums, so the
evaluation is not part of the stream plan.

On the LAPACK route a chunk draws its whole Ginibre block first, so the
stream does not see the split, and then runs everything after the draw in
sub-batches of ``_SUB_BATCH`` samples: the Q step, the phase fix, the ball
layout and the integrand.  The sub-batches' values are joined into the
chunk's value array, which is summed once, so every chunk keeps the bits of
its (count, sum, M2) for any sub-batch size.  Only the working set shrinks:
at N = 16 a whole-chunk stack is 16.8 MB, and the QR, the phase fix and
every matmul of the word walk stream several of them through memory.  Per
4096-sample chunk of ``mc_pairing(f, f)`` on the mc-large benchmark's shape
(polydisc, m = 2, N = 16, a degree-5 series with 16 distinct prefixes;
draw, Q step, layout, integrand and sum), in ms, one worker, median of 5 to
7 interleaved runs, same host as above:

    S      16    64   256  1024  4096 (whole chunk)
    ms    536   455   483   606   748

Below 64 samples numpy's per-call overhead takes over.  Slicing only the
integrand, with the Q step over the whole chunk, is slower: over six
alternating 20 s mc-large runs it read 1.78 against 2.04 ops/s and peaked
at 329 against 137 MB.  The Gram-Schmidt route stays whole: its
reductions run along the rows axis, and its shapes are small.
"""

from __future__ import annotations

import cmath
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .weingarten import BoundaryKind
from .words import MatrixTuple, NcSeries, Word, _series_sums, _walk_words
from .words import _check_alphabets, _check_grid, _check_integer, _check_radius

__all__ = [
    "CHUNK_SAMPLES",
    "STREAM_PLAN",
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
# Bumped whenever the draws or the reduction of a fixed seed change.
STREAM_PLAN = 3
# Per-matrix QR work rows * cols**2 up to which _boundary_batches
# orthonormalizes by batched Gram-Schmidt rather than LAPACK QR.  Measured per 4096-sample
# chunk (table in the module docstring): Gram-Schmidt wins or ties at every
# shape up to 10 x 10 (1000) and ties or loses from 16 x 8 (1024) on.
_GRAM_SCHMIDT_MAX_WORK = 1000
# Samples per sub-batch of a LAPACK-route chunk (table in the module
# docstring); any value gives the same bits.
_SUB_BATCH = 64

_ENV_SEED = "NC_HARDY_SEED"
DEFAULT_SEED = 424242


def default_seed() -> int:
    """Default seed, overridable through the NC_HARDY_SEED environment variable."""
    raw = os.environ.get(_ENV_SEED)
    if raw is None or raw == "":
        return DEFAULT_SEED
    return int(raw)


@dataclass(frozen=True, slots=True)
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


def default_stream() -> SeededStream:
    return SeededStream(default_seed())


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result contract: mean, standard error, sample count, seed,
    and the stream plan that drew the samples."""

    mean: complex
    std_error: float
    samples: int
    seed: int
    stream_plan: int = STREAM_PLAN

    def __post_init__(self) -> None:
        _check_integer(self.samples, "samples", 2)
        if not (cmath.isfinite(self.mean) and 0 <= self.std_error < float("inf")):
            raise ValueError(f"need a finite mean and std_error >= 0, got {self}")

    @classmethod
    def from_chunks(
        cls, chunks: Sequence[tuple[int, complex, float]], seed: int
    ) -> "MCEstimate":
        """Reduce per-chunk (count, sum, M2), in the given order.

        M2 is the chunk's sum of |z - chunk mean|^2.  The mean is the sum of
        the chunk sums over the sample count; the M2s are merged one chunk at
        a time by the update of Chan, Golub and LeVeque (1979), which never
        subtracts two large sums.
        """
        count, total, m2 = 0, 0j, 0.0
        for n, s, q in chunks:
            if count:
                delta = s / n - total / count
                m2 += q + abs(delta) ** 2 * (count * n / (count + n))
            else:
                m2 = q
            count += n
            total += s
        return cls(
            mean=complex(total / count),
            std_error=sqrt(m2 / (count - 1) / count),
            samples=count,
            seed=seed,
        )

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
            "stream_plan": self.stream_plan,
        }


def _gram_schmidt_q(
    count: int, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """The Gram-Schmidt route: the Q, with positive diagonal of R, of the thin
    QR factorization of count complex Ginibre blocks of rows x cols, indexed
    (count, rows, cols) as a transposed view.

    The block is drawn batch-last, shape (cols, rows, count), with real and
    imaginary parts interleaved, and its columns are orthonormalized in place
    by modified Gram-Schmidt with one reorthogonalization pass ("twice is
    enough": Giraud, Langou and Rozloznik 2005), each step over all count
    samples.  R's diagonal is the residual norms, real and positive, so there
    is no phase to fix and no scale to apply.  Its column norms and
    projections are sums along the rows axis, not the batch axis; this route
    is never split into sub-batches.
    """
    q = rng.standard_normal((cols, rows, count, 2)).view(complex)[..., 0]
    for j in range(cols):
        v = q[j]
        for _ in range(2):  # the second sweep is the reorthogonalization
            for k in range(j):
                v -= q[k] * (q[k].conj() * v).sum(axis=0)
        norm = np.sqrt(
            np.square(v.real).sum(axis=0) + np.square(v.imag).sum(axis=0)
        )
        v /= np.where(norm == 0, 1.0, norm)
    return q.transpose(2, 1, 0)


def _ginibre(count: int, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The LAPACK route's draw: count complex Ginibre matrices of rows x cols,
    C-contiguous, all real parts drawn before all imaginary parts, scaled by
    1/sqrt(2)."""
    z = np.empty((count, rows, cols), dtype=complex)
    z.real = rng.standard_normal((count, rows, cols))
    z.imag = rng.standard_normal((count, rows, cols))
    z /= np.sqrt(2.0)
    return z


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """The LAPACK route's Q step: the thin Q factor of each matrix of z, with
    the phases of R's diagonal divided out of its columns, C-contiguous.

    LAPACK factorizes one matrix at a time, so any split of z along its first
    axis gives the same bits for each matrix.
    """
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    mag = np.abs(d)
    q *= np.where(mag == 0, 1.0, d / np.where(mag == 0, 1.0, mag))[:, None, :]
    return q


def _check_count(N: int, count: int | None) -> int:
    """The number of samples a sampler draws: count, or 1 when it is None."""
    _check_integer(N, "N", 1)
    return 1 if count is None else _check_integer(count, "count", 1)


def sample_haar_unitary(
    N: int, stream: SeededStream, count: int | None = None
) -> np.ndarray:
    """Haar-random N x N unitary (or a stack of them when count is given).

    A fixed stream always reproduces the same draw; use distinct stream ids for
    independent samples.
    """
    size = _check_count(N, count)
    rng = stream.generator()
    (stack,) = _boundary_batches(BoundaryKind.polydisc(1), N, size, rng, size)
    return stack[:, 0] if count is not None else stack[0, 0]


def _boundary_batches(
    kind: BoundaryKind, N: int, count: int, rng: np.random.Generator, batch: int
) -> Iterator[np.ndarray]:
    """The boundary stack of count samples, shape (count, m, N, N), handed
    out in consecutive C-contiguous sub-batches of at most batch samples.

    polydisc: count * m Haar unitaries of size N.  ball_column: the mN x N
    first block column of a Haar unitary of size mN, split into its m blocks
    by a reshape.  ball_row: the adjoints of those blocks, i.e. the first
    block row of the Haar unitary U* whose first block column was drawn,
    written as the conjugate transpose in the same one copy that makes the
    column ball contiguous.

    The route is chosen here, and only here, by the per-matrix QR work
    rows * N**2 (module docstring); the routes draw different blocks from
    rng, so the route is part of the stream plan.  The Gram-Schmidt route
    (``_gram_schmidt_q``) orthonormalizes the whole block in one pass and
    hands it out in one batch.  The LAPACK route draws the whole Ginibre
    block first (``_ginibre``), so the draws do not depend on batch, and
    then each sub-batch gets its Q factors and phase fix
    (``_phase_fixed_q``) and its layout from its own slice of the block.
    """
    m = kind.m
    mats, rows = (m, N) if kind.family == "polydisc" else (1, m * N)

    def layout(q: np.ndarray, size: int) -> np.ndarray:
        blocks = q.reshape(size, m, N, N)
        if kind.family == "ball_row":
            out = np.empty_like(blocks, order="C")
            return np.conjugate(blocks.transpose(0, 1, 3, 2), out=out)
        return np.ascontiguousarray(blocks)

    if rows * N * N <= _GRAM_SCHMIDT_MAX_WORK:
        yield layout(_gram_schmidt_q(count * mats, rows, N, rng), count)
        return
    z = _ginibre(count * mats, rows, N, rng)
    for lo in range(0, count, batch):
        hi = min(lo + batch, count)
        yield layout(_phase_fixed_q(z[lo * mats : hi * mats]), hi - lo)


def sample_boundary(
    kind: BoundaryKind, N: int, stream: SeededStream, count: int | None = None
) -> MatrixTuple | np.ndarray:
    """One boundary point as a MatrixTuple, or a (count, m, N, N) stack.

    polydisc: m independent Haar unitaries.  ball_column: the m blocks of the
    first block column of a Haar unitary of size mN (an isometry column, so
    sum Xi* Xi = I), drawn as an mN x N thin QR factor.  ball_row: the
    adjoints of the ball_column blocks drawn from the same stream, which are
    the blocks of the first block row of a Haar unitary (sum Xi Xi* = I).
    """
    size = _check_count(N, count)
    (stack,) = _boundary_batches(kind, N, size, stream.generator(), size)
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
    _check_integer(N, "N", 1)
    samples = _check_integer(samples, "samples", 2)

    def run_chunk(job: tuple[int, int]) -> tuple[int, complex, float]:
        idx, size = job
        rng = stream.chunk_generator(idx)
        batches = _boundary_batches(kind, N, size, rng, _SUB_BATCH)
        z = np.concatenate([integrand(xs) for xs in batches])
        total = complex(z.sum())
        return size, total, float(np.square(np.abs(z - total / size)).sum())

    jobs = list(enumerate(_chunk_plan(samples)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, jobs))
    else:
        partials = [run_chunk(job) for job in jobs]
    return MCEstimate.from_chunks(partials, stream.seed)  # fixed chunk order


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
    _check_alphabets(f.m, g.m, kind.m)
    _check_radius(r_f)
    stream = stream if stream is not None else default_stream()

    same = (f, r_f) == (g, r_g)

    def integrand(xs: np.ndarray) -> np.ndarray:
        if same:
            fx = gx = _series_sums(xs, [(f, r_f)])[0]
        else:
            fx, gx = _series_sums(xs, [(f, r_f), (g, r_g)])
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
            if not cmath.isfinite(c):
                raise FreenessStructureError(f"power {power}: coefficient {c} is not finite")
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

    Each chunk gets every power U^|j| it needs from one word-product walk
    (``words._walk_words``) over the words (letter,) * |j|; a negative power
    j takes the adjoint, U^j = (U^|j|)*.
    """
    if not factors:
        raise FreenessStructureError("need at least one factor")
    for a, b in zip(factors, factors[1:]):
        if a.letter == b.letter:
            raise FreenessStructureError(
                "consecutive factors must use different ensembles"
            )
    _check_grid(N_grid)
    levels = [_check_integer(n, "N", 1) for n in N_grid]
    m = max(fac.letter for fac in factors)
    kind = BoundaryKind.polydisc(m)
    stream = stream if stream is not None else default_stream()
    power_words = {Word((fac.letter,) * abs(j)) for fac in factors for j, _ in fac.terms}

    def make_integrand(n: int) -> Callable[[np.ndarray], np.ndarray]:
        def integrand(xs: np.ndarray) -> np.ndarray:
            powers = dict(_walk_words(xs, power_words))
            running: np.ndarray | None = None
            for fac in factors:
                mat = np.zeros((xs.shape[0], n, n), dtype=complex)
                for power, coeff in fac.terms:
                    u = powers[Word((fac.letter,) * abs(power))]
                    mat += coeff * (u if power > 0 else u.conj().transpose(0, 2, 1))
                running = mat if running is None else running @ mat
            return np.einsum("bii->b", running) / n

        return integrand

    rows = []
    for pos, n in enumerate(levels):
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
