"""Seeded Haar sampling of the distinguished boundaries and Monte Carlo
estimation of tracial integrals.

Every estimate is a deterministic function of (seed, stream plan): samples are
drawn in fixed-size chunks, each chunk from its own derived substream, and the
per-chunk partial sums are reduced in chunk order.  Results therefore do not
depend on the worker count.

Stream plan 4 (``STREAM_PLAN``) draws what plan 3 drew and changes the pairing
estimator.  All three boundary measures are invariant under the torus action
X -> (e^{i t_1} X_1, ..., e^{i t_m} X_m), so Tr(g_b(X)* f_a(X)) has mean 0
whenever the letter multisets a and b of two words differ (Collins and
Sniady 2006).  A pairing sample is therefore split by letter multiset
(``_pairing_values``): the stratified value sum_a Tr(G_a* F_a)/N, which is
the estimator, and the cross-stratum symmetry residual, its mean reported
with its own standard error.  The split rests on a symmetry of the measure,
not on the exact engine, and the residual keeps that symmetry under test: a
sampler whose column phases are not uniform moves the residual's mean off 0
(acceptance criterion 5), where the stratified value need not move.  So the
estimator stays an independent oracle for the exact engine.  On one
4096-sample chunk of each of the mc-small benchmark's five templates (every
word of length <= 2 with random phases, N = 4), the variance per sample fell
8 to 206 times, by a geometric mean of 93 (seed 5) and 78 (seed 99).  The
freeness diagnostic keeps plain averaging.

Where every stratum's trace is constant, as for a one-word stratum on the
polydisc (Tr((U^w)* U^w)/N = 1), the stratified value is exact up to
rounding: its sample spread is rounding noise and gives an SE near 1e-17,
while the mean is off the exact value by a few ulps.  So no pairing SE is
reported below ``_ROUNDING_ULPS`` ulps of the bound on one sample
(``_sample_bounds``).  Without that floor, a pinned m = 1 polydisc pairing
in the tests has a mean one ulp off its exact value and 28 SE away.

A polydisc point is m Haar unitaries of size N.  A ball point needs only the
first block column of a Haar unitary of size mN, an mN x N isometry split
into its m blocks.  The row ball is the column ball's adjoint: the row
blocks of U are the adjoints of the column blocks of U*, which is Haar too.
Each draw is the Q factor, with positive diagonal of R, of a rows x cols
complex Ginibre block (Mezzadri, math-ph/0609050), and ``_boundary_batches``
computes it on one of two routes, chosen by the per-matrix QR work
rows * cols**2:

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

A chunk's pairing integrand evaluates f and g in one prefix-trie walk of
their words (``words._stratum_sums``), and evaluates f once when (g, r_g) is
(f, r_f).

A chunk draws its whole block first on both routes, so the stream does not
see the split, and then runs the rest in sub-batches of S samples, with S
chosen from N alone: S = _SUB_BATCH // N**2 (at least 1), so a sub-batch's
N x N stack holds about 16,384 entries, 64 samples at N = 16 and 1,024 at
N = 4.  On the LAPACK route each sub-batch gets its Q step, phase fix,
layout and integrand; on the Gram-Schmidt route, whose column norms and
projections run along the rows axis, the whole block is orthonormalized
first and each sub-batch gets its layout and integrand.  The sub-batches'
values are joined into the chunk's value rows, each summed once, so every
chunk keeps the bits of its (count, sum, M2) for any sub-batch size.  Only
the working set shrinks: at N = 16 a whole-chunk stack is 16.8 MB, and the
QR, the phase fix and every matmul of the word walk stream several of them
through memory.  Per 4096-sample chunk of ``mc_pairing(f, f)`` on the
mc-large benchmark's shape (polydisc, m = 2, N = 16, a degree-5 series with
16 distinct prefixes; draw, Q step, layout, integrand and sum), in ms, one
worker, median of 5 to 7 interleaved runs, same host as above, under plan 3:

    S      16    64   256  1024  4096 (whole chunk)
    ms    536   455   483   606   748

Below 64 samples numpy's per-call overhead takes over.  Slicing only the
integrand, with the Q step over the whole chunk, is slower: over six
alternating 20 s mc-large runs it read 1.78 against 2.04 ops/s and peaked
at 329 against 137 MB.  The stratum sums of one word length are alive at
once, so the Gram-Schmidt route is split too: handed out whole, a 4096-sample
ball_row chunk at m = 3, N = 4 keeps them all, and its draw and integrand
peak at 16.9 MB (tracemalloc) in place of 6.6 MB in sub-batches.
"""

from __future__ import annotations

import cmath
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from math import sqrt
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .weingarten import BoundaryKind
from .words import MatrixTuple, NcSeries, Word, _stratum, _stratum_sums, _walk_words
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
# Bumped whenever the draws, the estimator or the reduction of a fixed seed
# change.
STREAM_PLAN = 4
# Per-matrix QR work rows * cols**2 up to which _boundary_batches
# orthonormalizes by batched Gram-Schmidt rather than LAPACK QR.  Measured per 4096-sample
# chunk (table in the module docstring): Gram-Schmidt wins or ties at every
# shape up to 10 x 10 (1000) and ties or loses from 16 x 8 (1024) on.
_GRAM_SCHMIDT_MAX_WORK = 1000
# Matrix entries per N x N stack of a chunk's sub-batch: a sub-batch has
# _SUB_BATCH // N**2 samples (at least 1), 64 at N = 16 and 1024 at N = 4
# (tables in the module docstring).  Any value gives the same bits.
_SUB_BATCH = 16384
# No pairing standard error is reported below this many ulps of the bound on
# one sample (``_sample_bounds``).  Where a stratum's trace does not vary,
# as for a one-word stratum on the polydisc, Tr((U^w)* U^w)/N = 1, the
# sample spread is rounding noise and the SE is near 1e-17, while the mean
# is off the exact value by rounding of up to 2.2 ulps of the bound (83
# polydisc pairings and recoveries, m = 1 to 3, N = 1 to 32, words up to
# length 6).
_ROUNDING_ULPS = 64

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
        _check_integer(self.seed, "seed", 0)
        _check_integer(self.stream_id, "stream_id", 0)

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


_Chunks = Sequence[tuple[int, complex, float]]


def _merge(chunks: _Chunks) -> tuple[int, complex, float]:
    """(count, mean, standard error of the mean) of per-chunk (count, sum, M2),
    merged in the given order."""
    count, total, m2 = 0, 0j, 0.0
    for n, s, q in chunks:
        if count:
            delta = s / n - total / count
            m2 += q + abs(delta) ** 2 * (count * n / (count + n))
        else:
            m2 = q
        count += n
        total += s
    return count, complex(total / count), sqrt(m2 / (count - 1) / count)


def _in_se(diff: float, se: float) -> float:
    """diff in units of se (inf if se = 0 and diff is not)."""
    if se == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / se


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result contract: mean, standard error, sample count, seed,
    the stream plan that drew the samples and, for a pairing, the symmetry
    residual with its standard error (``_pairing_values``)."""

    mean: complex
    std_error: float
    samples: int
    seed: int
    stream_plan: int = STREAM_PLAN
    residual: complex | None = None
    residual_std_error: float | None = None

    def __post_init__(self) -> None:
        _check_integer(self.samples, "samples", 2)
        if (self.residual is None) != (self.residual_std_error is None):
            raise ValueError("a residual needs its std_error, and only a residual has one")
        pairs = [(self.mean, self.std_error)]
        if self.residual is not None:
            pairs.append((self.residual, self.residual_std_error))
        for mean, se in pairs:
            if not (cmath.isfinite(mean) and 0 <= se < float("inf")):
                raise ValueError(f"need a finite mean and std_error >= 0, got {self}")

    @classmethod
    def from_chunks(
        cls, chunks: _Chunks, seed: int, residual_chunks: _Chunks | None = None
    ) -> "MCEstimate":
        """Reduce per-chunk (count, sum, M2) of the estimate and, if given, of
        its residual, each in the given order.

        M2 is the chunk's sum of |z - chunk mean|^2.  The mean is the sum of
        the chunk sums over the sample count; the M2s are merged one chunk at
        a time by the update of Chan, Golub and LeVeque (1979), which never
        subtracts two large sums.
        """
        count, mean, se = _merge(chunks)
        residual = residual_se = None
        if residual_chunks is not None:
            _, residual, residual_se = _merge(residual_chunks)
        return cls(mean, se, count, seed, residual=residual, residual_std_error=residual_se)

    def delta_in_se(self, reference: complex) -> float:
        """|mean - reference| in units of std_error (inf if std_error = 0 and they differ)."""
        return _in_se(abs(self.mean - complex(reference)), self.std_error)

    def residual_in_se(self) -> float:
        """|residual| in units of its std_error, for a pairing estimate: the
        residual's expectation is 0 under a torus-invariant sampler."""
        if self.residual is None:
            raise ValueError("this estimate has no symmetry residual: only a pairing has one")
        return _in_se(abs(self.residual), self.residual_std_error)

    def to_json_dict(self) -> dict:
        out = {
            "re": self.mean.real,
            "im": self.mean.imag,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "stream_plan": self.stream_plan,
        }
        if self.residual is not None:
            out["symmetry_residual"] = {
                "re": self.residual.real,
                "im": self.residual.imag,
                "std_error": self.residual_std_error,
            }
        return out


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
    projections are sums along the rows axis, not the batch axis, so the
    whole chunk is orthonormalized at once and only then handed out in
    sub-batches.
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
    kind: BoundaryKind,
    N: int,
    count: int,
    rng: np.random.Generator,
    batch: int | None = None,
) -> Iterator[np.ndarray]:
    """The boundary stack of count samples, shape (count, m, N, N), handed
    out in consecutive C-contiguous sub-batches of at most batch samples, by
    default _SUB_BATCH // N**2 of them (at least 1).

    polydisc: count * m Haar unitaries of size N.  ball_column: the mN x N
    first block column of a Haar unitary of size mN, split into its m blocks
    by a reshape.  ball_row: the adjoints of those blocks, i.e. the first
    block row of the Haar unitary U* whose first block column was drawn,
    written as the conjugate transpose in the same one copy that makes the
    column ball contiguous.

    The route and the sub-batch size are chosen here, and only here.  The
    route follows the per-matrix QR work rows * N**2 (module docstring); the
    routes draw different blocks from rng, so the route is part of the
    stream plan.  Both draw the whole block first, so the draws do not
    depend on batch.  The Gram-Schmidt route (``_gram_schmidt_q``) then
    orthonormalizes the whole block in one pass, and each sub-batch gets its
    layout from its own slice of the Q factors.  On the LAPACK route
    (``_ginibre``) each sub-batch gets its Q factors and phase fix
    (``_phase_fixed_q``) and its layout from its own slice of the block.
    """
    m = kind.m
    mats, rows = (m, N) if kind.family == "polydisc" else (1, m * N)
    if batch is None:
        batch = max(1, _SUB_BATCH // (N * N))

    def layout(q: np.ndarray, size: int) -> np.ndarray:
        blocks = q.reshape(size, m, N, N)
        if kind.family == "ball_row":
            out = np.empty_like(blocks, order="C")
            return np.conjugate(blocks.transpose(0, 1, 3, 2), out=out)
        return np.ascontiguousarray(blocks)

    gram_schmidt = rows * N * N <= _GRAM_SCHMIDT_MAX_WORK
    block = (_gram_schmidt_q if gram_schmidt else _ginibre)(count * mats, rows, N, rng)
    for lo in range(0, count, batch):
        hi = min(lo + batch, count)
        part = block[lo * mats : hi * mats]
        yield layout(part if gram_schmidt else _phase_fixed_q(part), hi - lo)


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
    """The estimate of an integrand that maps each sub-batch of boundary
    points to its values, shape (rows, batch): row 0 is the estimate, and a
    row 1 its symmetry residual.  Each row of each chunk is summed once into
    its own (count, sum, M2)."""
    _check_integer(N, "N", 1)
    samples = _check_integer(samples, "samples", 2)
    workers = _check_integer(workers, "workers", 1)

    def run_chunk(job: tuple[int, int]) -> list[tuple[int, complex, float]]:
        idx, size = job
        batches = _boundary_batches(kind, N, size, stream.chunk_generator(idx))
        moments = []
        for z in np.concatenate([integrand(xs) for xs in batches], axis=1):
            total = complex(z.sum())
            moments.append((size, total, float(np.square(np.abs(z - total / size)).sum())))
        return moments

    jobs = list(enumerate(_chunk_plan(samples)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, jobs))
    else:
        partials = [run_chunk(job) for job in jobs]
    mean_chunks, *residual_chunks = zip(*partials)
    return MCEstimate.from_chunks(mean_chunks, stream.seed, *residual_chunks)  # fixed chunk order


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
    integrand = partial(_pairing_values, f=f, g=g, r_f=r_f, r_g=r_g)
    est = _mc_estimate(kind, N, samples, stream, integrand, workers)
    value_bound, residual_bound = _sample_bounds(f, g, r_f, r_g)
    ulps = _ROUNDING_ULPS * sys.float_info.epsilon
    return replace(
        est,
        std_error=max(est.std_error, ulps * value_bound),
        residual_std_error=max(est.residual_std_error, ulps * residual_bound),
    )


def _sample_bounds(f: NcSeries, g: NcSeries, r_f: float, r_g: float) -> tuple[float, float]:
    """Bounds on |value| and |residual| of one pairing sample
    (``_pairing_values``): sums of |f_v g_w| r_f^|v| r_g^|w| over the word
    pairs of one stratum and of two different strata.  Each |Tr(X^w* X^v)|/N
    is at most 1, since every letter of a boundary point is a contraction."""
    weights: dict[bytes, list[float]] = {}
    for k, (h, r) in enumerate(((f, r_f), (g, r_g))):
        for w, c in h.coeffs.items():
            weights.setdefault(_stratum(w), [0.0, 0.0])[k] += abs(c) * r ** len(w)
    value = sum(a * b for a, b in weights.values())
    total = sum(a for a, _ in weights.values()) * sum(b for _, b in weights.values())
    return value, max(total - value, 0.0)


def _plus(run: np.ndarray | None, part: np.ndarray | None) -> np.ndarray | None:
    """run + part, in place in run, where None is an empty sum."""
    if part is None:
        return run
    if run is None:
        return part
    run += part
    return run


def _dot(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | float:
    """sum_k a[:, k] b[:, k] per batch point, where None is an empty sum."""
    if a is None or b is None:
        return 0.0
    return np.einsum("bk,bk->b", a, b)


def _pairing_values(
    xs: np.ndarray, f: NcSeries, g: NcSeries, r_f: float, r_g: float
) -> np.ndarray:
    """(1/N) Tr(g(r_g X)* f(r_f X)) at every batch point, split by letter
    multiset, shape (2, count): row 0 is the stratified value
    sum_a Tr(G_a* F_a) / N and row 1 the symmetry residual
    sum_{a != b} Tr(G_b* F_a) / N, where F_a and G_a are the sums of f's and
    g's terms over the words of stratum a (``words._stratum_sums``).

    The two rows add up to the whole integrand.  The residual's expectation
    is 0 under any measure invariant under X -> (e^{i t_1} X_1, ...,
    e^{i t_m} X_m), so the stratified value alone is the estimator; the
    residual tests the sampler for that symmetry.  It is summed from the
    cross terms of each stratum with the strata before it, never as a
    difference with the whole integrand, so it does not cancel when the
    value is large.  Each trace is a dot product of the flattened matrices,
    with g's sums conjugated in place.  When (g, r_g) is (f, r_f), f is
    evaluated once and only real parts are needed, as each cross term comes
    with its conjugate, so the dot products run on float views, at half the
    arithmetic, with no conjugated copy and one dot per cross term pair.
    """
    count, N = xs.shape[0], xs.shape[2]
    same = (f, r_f) == (g, r_g)
    value, residual = np.zeros(count, complex), np.zeros(count, complex)
    f_run = g_run = None
    for sums in _stratum_sums(xs, [(f, r_f)] if same else [(f, r_f), (g, r_g)]):
        fa, ga = sums[0], sums[-1]
        if same:
            fa = ga = fa.reshape(count, -1).view(float)
        else:
            fa = None if fa is None else fa.reshape(count, -1)
            ga = None if ga is None else np.conjugate(ga, out=ga).reshape(count, -1)
        value += _dot(ga, fa)
        cross = _dot(g_run, fa)
        residual += cross
        residual += cross if same else _dot(ga, f_run)
        f_run = _plus(f_run, fa)
        g_run = f_run if same else _plus(g_run, ga)
    return np.stack([value, residual]) / N


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
        letter = _check_integer(letter, "letter", 1, FreenessStructureError)
        cleaned = {}
        for power, coeff in terms.items():
            power = _check_integer(power, "power", None, FreenessStructureError)
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise FreenessStructureError(f"power {power}: coefficient {c} is not finite")
            if c == 0:
                continue
            if power == 0:
                raise FreenessStructureError(
                    "constant terms are not centered: drop the power-0 coefficient"
                )
            cleaned[power] = c
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
    _check_integer(workers, "workers", 1)
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
            return (np.einsum("bii->b", running) / n)[None]

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
