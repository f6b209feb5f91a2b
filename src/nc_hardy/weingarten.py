"""Exact integration of polynomials in Haar-unitary entries.

Weingarten coefficients are obtained from the Gram system over the symmetric
group, reduced to conjugacy classes and solved in exact rational arithmetic,
so every value produced here is an exact Fraction.  On top of that sit the
entry-moment formula and the boundary trace pairings used by the Hardy-space
layer: products of independent unitaries (polydisc boundary) and block
columns/rows of a single larger unitary (ball boundaries).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iterproduct
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .words import AlphabetMismatchError, NcSeries, Word

__all__ = [
    "ExactEngineError",
    "GramSingularityError",
    "MultiplicityLimitError",
    "Permutation",
    "cycle_count",
    "partitions",
    "WeingartenTable",
    "DEFAULT_TABLE",
    "weingarten",
    "haar_entry_moment",
    "BoundaryKind",
    "pairing_moment_exact",
    "sesquilinear_moment_exact",
]


class ExactEngineError(Exception):
    """Base class for exact-integrator precondition failures."""


class GramSingularityError(ExactEngineError):
    """Weingarten data requested in the singular regime N < n (unsupported)."""


class MultiplicityLimitError(ExactEngineError):
    """Word multiplicities exceed the supported Weingarten order."""


class Permutation:
    """A permutation of {1..n} stored as its tuple of images."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(int(i) for i in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images must be a bijection of 1..n")
        self._images = imgs

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def n(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        return self._images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self._images[other._images[i] - 1] for i in range(self.n))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self._images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            j = start
            while not seen[j - 1]:
                seen[j - 1] = True
                cyc.append(j)
                j = self._images[j - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        imgs = list(range(1, n + 1))
        imgs[i - 1], imgs[j - 1] = imgs[j - 1], imgs[i - 1]
        return cls(imgs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation{self._images}"


def cycle_count(sigma: Permutation) -> int:
    """Number of cycles, fixed points included."""
    return len(sigma.cycles())


# 0-based permutation helpers for the hot combinatorial loops.

def _cycle_type0(perm: Sequence[int]) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def _invert0(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return inv


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with weakly decreasing parts."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            out.append((k,) + rest)
    return out


def _class_representative(cycle_type: tuple[int, ...]) -> tuple[int, ...]:
    n = sum(cycle_type)
    img = list(range(n))
    pos = 0
    for c in cycle_type:
        for i in range(c):
            img[pos + i] = pos + (i + 1) % c
        pos += c
    return tuple(img)


def _solve_fraction_system(A: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    k = len(A)
    M = [A[i][:] + [rhs[i]] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if M[r][col] != 0), None)
        if piv is None:
            raise GramSingularityError("class Gram system is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(k):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[i][k] for i in range(k)]


def _class_gram(n: int, N: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The partitions of n and the class-reduced Gram matrix at dimension N.

    A[mu][lam] = sum_{sigma in class lam} N^{#(rep_mu sigma^{-1})}: the Gram
    operator pi -> sum_sigma N^{#(pi sigma^{-1})} f(sigma) restricted to class
    functions f, evaluated at the representative of class mu.
    """
    parts = partitions(n)
    index = {pt: i for i, pt in enumerate(parts)}
    reps = [_class_representative(pt) for pt in parts]
    k = len(parts)
    A = [[0] * k for _ in range(k)]
    for sigma in permutations(range(n)):
        lam = index[_cycle_type0(sigma)]
        sinv = _invert0(sigma)
        for mu, rep in enumerate(reps):
            comp = tuple(rep[sinv[i]] for i in range(n))
            A[mu][lam] += N ** len(_cycle_type0(comp))
    return parts, A


def _solve_wg_system(n: int, N: int) -> dict[tuple[int, ...], Fraction]:
    """Weingarten values by cycle type at order n, dimension N.

    Wg is a class function and the Gram operator acts on class functions, so
    the n! x n! inversion collapses to the p(n) x p(n) system of _class_gram,
    solved exactly against the indicator of the identity class.
    """
    parts, A = _class_gram(n, N)
    frac_a = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(1) if pt == (1,) * n else Fraction(0) for pt in parts]
    sol = _solve_fraction_system(frac_a, rhs)
    return {parts[i]: sol[i] for i in range(len(parts))}


def _solve_free_sums(
    n: int, N: int, wg: Mapping[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """K(y) = sum_{pi in S_n} wg(pi) N^{#(y pi)} for each cycle type of y.

    The sum runs over sigma = pi^{-1}, whose class equals that of pi, so it is
    the class Gram matrix at N applied to the Weingarten vector wg.
    """
    parts, A = _class_gram(n, N)
    return {
        parts[mu]: sum((count * wg[lam] for count, lam in zip(A[mu], parts)), Fraction(0))
        for mu in range(len(parts))
    }


class WeingartenTable:
    """Shared cache of exact Weingarten values keyed by (n, N) and cycle type,
    and of the free-permutation sums built from them.

    Single writer, concurrent readers: inserts happen under a lock, lookups are
    plain dict reads on fully built per-key sub-tables.  Readers get read-only
    views, so no caller can alter a cached value.
    """

    def __init__(self, max_n: int = 6) -> None:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        self.max_n = max_n
        self._values: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
        self._free_sums: dict[tuple[int, int, int], dict[tuple[int, ...], Fraction]] = {}
        self._lock = threading.Lock()

    def values(self, n: int, N: int) -> Mapping[tuple[int, ...], Fraction]:
        """All Wg(N, .) of order n, keyed by cycle type."""
        if not 1 <= n <= self.max_n:
            raise MultiplicityLimitError(
                f"order n = {n} outside supported range [1, {self.max_n}]"
            )
        if N < n:
            raise GramSingularityError(
                f"need N >= n for an invertible Gram system (got N = {N}, n = {n})"
            )
        key = (n, N)
        got = self._values.get(key)
        if got is None:
            computed = _solve_wg_system(n, N)
            with self._lock:
                self._values.setdefault(key, computed)
            got = self._values[key]
        return MappingProxyType(got)

    def free_sums(self, n: int, M: int, N: int) -> Mapping[tuple[int, ...], Fraction]:
        """K(y) = sum_{pi in S_n} Wg(M, pi) N^{#(y pi)}, keyed by the cycle type of y.

        K is a class function of y.  It closes the sum over a permutation that
        no letter constrains: a free permutation pi composed with a fixed y
        contributes N per cycle of y pi.  For M = N it is the indicator of the
        identity class, by the defining Gram relation of Wg.
        """
        if N < 1:
            raise ValueError("N must be >= 1")
        wg = self.values(n, M)
        key = (n, M, N)
        got = self._free_sums.get(key)
        if got is None:
            computed = _solve_free_sums(n, N, wg)
            with self._lock:
                self._free_sums.setdefault(key, computed)
            got = self._free_sums[key]
        return MappingProxyType(got)

    def wg(self, n: int, N: int, cycle_type: tuple[int, ...]) -> Fraction:
        ct = tuple(sorted(cycle_type, reverse=True))
        if sum(ct) != n:
            raise ValueError(f"cycle type {ct} is not a partition of {n}")
        return self.values(n, N)[ct]


DEFAULT_TABLE = WeingartenTable()


def weingarten(
    n: int, N: int, sigma: Permutation, table: WeingartenTable | None = None
) -> Fraction:
    """Wg(N, sigma): the (sigma, identity) entry of the inverse Gram matrix over S_n.

    Depends only on the cycle type of sigma; values are exact rationals.
    """
    if sigma.n != n:
        raise ValueError(f"permutation acts on {sigma.n} points, expected {n}")
    tab = table if table is not None else DEFAULT_TABLE
    return tab.wg(n, N, sigma.cycle_type())


def _value_matching_bijections(
    a: Sequence[object], b: Sequence[object]
) -> list[tuple[int, ...]]:
    """All 0-based bijections f with b[f(k)] == a[k]; empty if the multisets differ."""
    if len(a) != len(b):
        return []
    pos_a: dict[object, list[int]] = defaultdict(list)
    pos_b: dict[object, list[int]] = defaultdict(list)
    for i, v in enumerate(a):
        pos_a[v].append(i)
    for i, v in enumerate(b):
        pos_b[v].append(i)
    if set(pos_a) != set(pos_b):
        return []
    if any(len(pos_a[v]) != len(pos_b[v]) for v in pos_a):
        return []
    values = list(pos_a)
    out = []
    for choice in iterproduct(*[permutations(pos_b[v]) for v in values]):
        f = [0] * len(a)
        for vi, v in enumerate(values):
            for slot, a_pos in enumerate(pos_a[v]):
                f[a_pos] = choice[vi][slot]
        out.append(tuple(f))
    return out


def haar_entry_moment(
    ups: Sequence[tuple[int, int]],
    conjs: Sequence[tuple[int, int]],
    N: int,
    table: WeingartenTable | None = None,
) -> Fraction:
    """Exact Haar-unitary entry moment E[prod u_{ij} * prod conj(u_{i'j'})].

    Vanishes identically when the two factor counts differ; otherwise it is the
    double sum over permutation pairs (sigma, tau) matching row and column
    indices, weighted by Wg(N, tau sigma^{-1}).
    """
    for i, j in list(ups) + list(conjs):
        if not (1 <= i <= N and 1 <= j <= N):
            raise ValueError(f"entry index ({i}, {j}) outside [1, {N}]^2")
    if len(ups) != len(conjs):
        return Fraction(0)
    n = len(ups)
    if n == 0:
        return Fraction(1)
    tab = table if table is not None else DEFAULT_TABLE
    wg = tab.values(n, N)
    sigmas = _value_matching_bijections([i for i, _ in ups], [i for i, _ in conjs])
    if not sigmas:
        return Fraction(0)
    taus = _value_matching_bijections([j for _, j in ups], [j for _, j in conjs])
    if not taus:
        return Fraction(0)
    total = Fraction(0)
    for sig in sigmas:
        for tau in taus:
            pi = [0] * n
            for k in range(n):
                pi[sig[k]] = tau[k]
            total += wg[_cycle_type0(pi)]
    return total


@dataclass(frozen=True)
class BoundaryKind:
    """A distinguished boundary: m independent unitaries (polydisc) or the first
    block column/row of one Haar unitary of size mN (ball)."""

    family: str
    m: int

    _FAMILIES = ("polydisc", "ball_column", "ball_row")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise ValueError(f"family must be one of {self._FAMILIES}")
        if self.m < 1:
            raise ValueError("m must be >= 1")

    @property
    def is_ball(self) -> bool:
        return self.family != "polydisc"

    @classmethod
    def polydisc(cls, m: int) -> "BoundaryKind":
        return cls("polydisc", m)

    @classmethod
    def ball_column(cls, m: int) -> "BoundaryKind":
        return cls("ball_column", m)

    @classmethod
    def ball_row(cls, m: int) -> "BoundaryKind":
        return cls("ball_row", m)


def _check_letters(w: Word, v: Word, m: int) -> None:
    bad = max(w.max_letter(), v.max_letter())
    if bad > m:
        raise AlphabetMismatchError(f"word letter {bad} outside alphabet [1, {m}]")


def pairing_moment_exact(
    w: Word,
    v: Word,
    kind: BoundaryKind,
    N: int,
    table: WeingartenTable | None = None,
) -> Fraction:
    """Exact value of the boundary integral of Tr((X^w)* X^v).

    The trace is expanded into a cyclic chain of matrix-entry variables
    l_{-|v|}, ..., l_0, ..., l_{|w|} (with the closing identification
    l_{-|v|} = l_{|w|}).  Haar expectation is resolved by the entry-moment
    formula: for each independent unitary a pair of permutations (sigma for
    rows, tau for columns) is summed over, weighted by Wg(tau sigma^{-1}).
    Each pair adds one delta edge per row and per column between chain
    indices.  Every index carries exactly two constraints, so the edges form
    a union of cycles; each cycle is one free index ranging over a block of
    size N and contributes a factor N.

    Polydisc: the m coordinates are independent, so the letters are
    contracted one at a time (Collins-Sniady), with per-letter order n_r =
    multiplicity of the letter (requires N >= max n_r).  The state after each
    letter is the set of paths joining still-open chain indices; pairs that
    leave the same paths merge their weights, and each closed cycle
    multiplies by N.  Ball: all entries come from a single unitary of size
    mN, and the block offsets force the row (column ball) or column (row
    ball) matching to respect letters; inconsistent offsets kill the term
    (requires mN >= |w|).  For the last polydisc letter and for the ball, the
    permutation that no letter constrains is summed in closed form through
    the cached class function WeingartenTable.free_sums, so only the
    letter-constrained one is enumerated.

    Unbalanced letter counts yield an exact rational zero with no Weingarten
    work at all.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_letters(w, v, kind.m)
    if kind.family == "polydisc":
        return _pairing_polydisc(w, v, N, table if table is not None else DEFAULT_TABLE)
    return _pairing_ball(
        w,
        v,
        kind.m,
        N,
        table if table is not None else DEFAULT_TABLE,
        rows_blocked=kind.family == "ball_column",
    )


def _join(ends: list[int], a: int, b: int) -> int:
    """Add the delta edge a - b to a disjoint union of paths; 1 if it closes a cycle.

    Every chain index carries at most two delta constraints, so the merge
    graph is a union of paths and cycles.  ends[i] is the far end of the path
    that ends at index i (i itself while no edge touches i), and -1 once i
    carries two edges.
    """
    x = ends[a]
    if x == b:
        ends[a] = ends[b] = -1
        return 1
    y = ends[b]
    ends[a] = ends[b] = -1
    ends[x] = y
    ends[y] = x
    return 0


def _add_edges(
    state: Sequence[int], edges: Iterable[tuple[int, int]]
) -> tuple[list[int], int]:
    """A copy of the path structure state with edges added, and the cycles they close."""
    ends = list(state)
    closed = 0
    for a, b in edges:
        closed += _join(ends, a, b)
    return ends, closed


def _close_free_letter(
    states: dict[tuple[int, ...], Fraction],
    fixed: list[tuple[tuple[int, ...], list[tuple[int, int]]]],
    v_ends: list[int],
    w_ends: list[int],
    K: Mapping[tuple[int, ...], Fraction],
    N: int,
) -> Fraction:
    """Sum out the last pair of permutations, one of them in closed form.

    Each entry of fixed is a permutation a (v-side slot k -> w-side slot a[k])
    with its delta edges.  Once they are added, the remaining chain indices
    are the endpoints v_ends / w_ends of the free permutation's edges, and each
    path left joins w-side endpoint j to v-side endpoint x_a(j).  A free
    permutation f then closes #(x_a f) more classes, with weight
    Wg(f a^{-1}) or Wg(a f^{-1}); substituting f = pi a turns its whole sum
    into K(ct(a x_a)).
    """
    v_index = {vert: k for k, vert in enumerate(v_ends)}
    total = Fraction(0)
    for state, weight in states.items():
        counts: Counter[tuple[int, tuple[int, ...]]] = Counter()
        for a, edges in fixed:
            ends, closed = _add_edges(state, edges)
            y = [a[v_index[ends[vert]]] for vert in w_ends]
            counts[closed, _cycle_type0(y)] += 1
        total += weight * sum(
            (count * N ** closed * K[ct] for (closed, ct), count in counts.items()),
            Fraction(0),
        )
    return total


def _pairing_polydisc(w: Word, v: Word, N: int, table: WeingartenTable) -> Fraction:
    wl, vl = w.letters, v.letters
    if Counter(wl) != Counter(vl):
        return Fraction(0)
    s, t = len(vl), len(wl)
    if t == 0:
        return Fraction(N)
    var = lambda o: o + s  # chain offset o in [-s, t]

    letters = []
    for letter in sorted(set(wl)):
        v_pos = [k + 1 for k, x in enumerate(vl) if x == letter]
        w_pos = [k + 1 for k, x in enumerate(wl) if x == letter]
        nr = len(v_pos)
        if nr > table.max_n:
            raise MultiplicityLimitError(
                f"letter {letter} has multiplicity {nr} > max_n = {table.max_n}"
            )
        letters.append((nr, table.values(nr, N), v_pos, w_pos))
    # The last letter is summed out in closed form, so the deepest goes last.
    letters.sort(key=lambda item: item[0])

    def row_edges(sig, v_pos, w_pos):
        return [(var(-v_pos[a] + 1), var(w_pos[sig[a]] - 1)) for a in range(len(sig))]

    ends = list(range(s + t + 1))
    _join(ends, var(-s), var(t))
    states = {tuple(ends): Fraction(1)}
    powers = [N ** c for c in range(s + t + 2)]
    for nr, wg, v_pos, w_pos in letters[:-1]:
        perms = list(permutations(range(nr)))
        cols = [
            (tau, [(var(-v_pos[a]), var(w_pos[tau[a]])) for a in range(nr)])
            for tau in perms
        ]
        merged: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
        for state, weight in states.items():
            for sig in perms:
                after_rows, closed_rows = _add_edges(state, row_edges(sig, v_pos, w_pos))
                for tau, edges in cols:
                    ends, closed = _add_edges(after_rows, edges)
                    pi = [0] * nr
                    for a in range(nr):
                        pi[sig[a]] = tau[a]
                    merged[tuple(ends)] += (
                        weight * wg[_cycle_type0(pi)] * powers[closed_rows + closed]
                    )
        states = merged

    nr, _, v_pos, w_pos = letters[-1]
    fixed = [(sig, row_edges(sig, v_pos, w_pos)) for sig in permutations(range(nr))]
    return _close_free_letter(
        states,
        fixed,
        [var(-p) for p in v_pos],
        [var(p) for p in w_pos],
        table.free_sums(nr, N, N),
        N,
    )


def _pairing_ball(
    w: Word, v: Word, m: int, N: int, table: WeingartenTable, rows_blocked: bool
) -> Fraction:
    wl, vl = w.letters, v.letters
    if len(wl) != len(vl):
        return Fraction(0)
    n = len(wl)
    if n == 0:
        return Fraction(N)
    if Counter(wl) != Counter(vl):
        return Fraction(0)
    if n > table.max_n:
        raise MultiplicityLimitError(f"word length {n} > max_n = {table.max_n}")
    if m * N < n:
        raise GramSingularityError(
            f"ball pairing needs mN >= |w| (got mN = {m * N}, |w| = {n})"
        )
    var = lambda o: o + n

    # Row deltas join v-side l_{-k} to w-side l_j, column deltas join
    # l_{-(k+1)} to l_{j+1}.  The block offsets constrain the rows of the
    # column ball and the columns of the row ball to match letters.
    row_v, row_w = [var(-k) for k in range(n)], [var(j) for j in range(n)]
    col_v, col_w = [var(-(k + 1)) for k in range(n)], [var(j + 1) for j in range(n)]
    if rows_blocked:
        (fix_v, fix_w), (free_v, free_w) = (row_v, row_w), (col_v, col_w)
    else:
        (fix_v, fix_w), (free_v, free_w) = (col_v, col_w), (row_v, row_w)
    fixed = [
        (a, [(fix_v[k], fix_w[a[k]]) for k in range(n)])
        for a in _value_matching_bijections(vl, wl)
    ]
    ends = list(range(2 * n + 1))
    _join(ends, var(-n), var(n))
    return _close_free_letter(
        {tuple(ends): Fraction(1)}, fixed, free_v, free_w, table.free_sums(n, m * N, N), N
    )


def sesquilinear_moment_exact(
    f: NcSeries,
    g: NcSeries,
    r: float,
    kind: BoundaryKind,
    N: int,
    table: WeingartenTable | None = None,
) -> complex:
    """Exact boundary integral of (1/N) Tr(g(rX)* f(rX)).

    Bilinear expansion over word pairs into pairing_moment_exact, with the
    scale r^{|w|+|v|} per pair.  Real for f = g; complex in general.
    """
    if f.m != g.m:
        raise AlphabetMismatchError("series alphabets differ")
    if f.m != kind.m:
        raise AlphabetMismatchError("series and boundary alphabets differ")
    total = 0j
    for wv, gw in g.items():
        for vv, fv in f.items():
            pair = pairing_moment_exact(wv, vv, kind, N, table)
            if pair:
                total += gw.conjugate() * fv * (r ** (len(wv) + len(vv))) * (pair / N)
    return total
