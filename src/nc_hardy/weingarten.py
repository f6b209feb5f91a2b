"""Exact integration of polynomials in Haar-unitary entries.

Weingarten coefficients are obtained from Collins' character formula, with
the characters of the symmetric group computed by the Murnaghan-Nakayama
rule in integers, once per order and process.  Each table entry and each
pairing is summed in Python ints over one common denominator and returned as
a single Fraction, so every value produced here is exact.  It is defined for
every N >= 1: for N < n it is the Gram pseudo-inverse, with which the
Weingarten formula still holds (Collins-Matsumoto).  On top of that sit the
entry-moment formula and the boundary trace pairings used by the Hardy-space
layer: products of independent unitaries (polydisc boundary) and block
columns/rows of a single larger unitary (ball boundaries).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product as iterproduct
from math import factorial, lcm, prod
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .words import NcSeries, Word, _check_alphabets, _check_integer, _check_letters, _check_radius

__all__ = [
    "ExactEngineError",
    "MultiplicityLimitError",
    "partitions",
    "WeingartenTable",
    "DEFAULT_TABLE",
    "haar_entry_moment",
    "BoundaryKind",
    "pairing_moment_exact",
    "sesquilinear_moment_exact",
]


class ExactEngineError(Exception):
    """Base class for exact-integrator precondition failures."""


class MultiplicityLimitError(ExactEngineError):
    """Word multiplicities exceed the supported Weingarten order."""


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


def _mn_character(
    lam: tuple[int, ...], mu: tuple[int, ...], memo: dict[tuple, int]
) -> int:
    """chi^lam at cycle type mu by the Murnaghan-Nakayama rule.

    Removes a border strip of length mu[0] from lam in every possible way,
    with sign (-1)^(height of the strip), and recurses on mu[1:].  In the
    decreasing beta-set b_i = lam_i + len(lam) - 1 - i of lam, removing a
    strip of length k moves one bead b to the empty position b - k >= 0, and
    the height is the number of beads strictly between them.
    """
    if not mu:
        return 1
    key = (lam, mu)
    got = memo.get(key)
    if got is not None:
        return got
    k, rest = mu[0], mu[1:]
    top = len(lam) - 1
    beta = [row + top - i for i, row in enumerate(lam)]
    occupied = set(beta)
    total = 0
    for b in beta:
        if b - k < 0 or b - k in occupied:
            continue
        height = sum(1 for c in beta if b - k < c < b)
        moved = sorted((b - k if c == b else c for c in beta), reverse=True)
        smaller = tuple(x - top + i for i, x in enumerate(moved) if x > top - i)
        total += (-1) ** height * _mn_character(smaller, rest, memo)
    memo[key] = total
    return total


_Characters = tuple[
    tuple[tuple[int, ...], ...], Mapping[tuple[int, ...], Mapping[tuple[int, ...], int]]
]


@cache
def _characters(n: int) -> _Characters:
    """The partitions of n and the character table chi[lam][mu] of S_n.

    Built once per order and process, and shared by every WeingartenTable:
    the table depends on n alone, not on a dimension.  It is read-only, so
    no caller can alter the shared constants.
    """
    parts = tuple(partitions(n))
    memo: dict[tuple, int] = {}
    chi = {
        lam: MappingProxyType({mu: _mn_character(lam, mu, memo) for mu in parts})
        for lam in parts
    }
    return parts, MappingProxyType(chi)


def _content_product(lam: tuple[int, ...], N: int) -> int:
    """P_lam(N) = prod over the boxes of lam of (N + content); 0 iff len(lam) > N.

    With it s_lam(1^N) = chi^lam(1) P_lam(N) / n!.
    """
    return prod(N + j - i for i, row in enumerate(lam) for j in range(row))


def _character_sums(
    n: int, weights: Sequence[tuple[tuple[int, ...], int, int]]
) -> dict[tuple[int, ...], Fraction]:
    """The class function mu -> (1/n!) sum_lam chi^lam(1) chi^lam(mu) a_lam / b_lam
    over the given (lam, a_lam, b_lam) with b_lam > 0.

    The sum runs in integers over the common denominator lcm_lam b_lam, with
    one Fraction per cycle type.
    """
    parts, chi = _characters(n)
    ident = (1,) * n
    den = lcm(*(b for _, _, b in weights))
    rows = [(chi[lam], chi[lam][ident] * a * (den // b)) for lam, a, b in weights]
    whole = factorial(n) * den
    return {mu: Fraction(sum(row[mu] * c for row, c in rows), whole) for mu in parts}


def _wg_values(n: int, N: int) -> dict[tuple[int, ...], Fraction]:
    """Weingarten values by cycle type at order n, dimension N >= 1.

    Collins' character formula: Wg(N, mu) = (1/n!^2) sum_lam chi^lam(1)^2
    chi^lam(mu) / s_lam(1^N), over the lam with s_lam(1^N) != 0.  With
    s_lam(1^N) = chi^lam(1) P_lam(N) / n! this is (1/n!) sum_lam chi^lam(1)
    chi^lam(mu) / P_lam(N), summed over lcm_lam P_lam(N).  For N < n it drops
    the lam with more than N rows and gives the Moore-Penrose pseudo-inverse
    of the singular Gram matrix (N^{#(a b^-1)}).
    """
    return _character_sums(
        n, [(lam, 1, _content_product(lam, N)) for lam in _characters(n)[0] if len(lam) <= N]
    )


def _free_sum_values(n: int, M: int, N: int) -> dict[tuple[int, ...], Fraction]:
    """K(y) = sum_{pi in S_n} Wg(M, pi) N^{#(y pi)} for each cycle type of y.

    Both factors are class functions: Wg(M, .) by Collins' formula, and
    N^{#(.)} = sum_lam chi^lam s_lam(1^N) by Schur-Weyl duality.  Their
    convolution is (1/n!) sum_lam chi^lam(1) chi^lam(y) s_lam(1^N) / s_lam(1^M)
    = (1/n!) sum_lam chi^lam(1) chi^lam(y) P_lam(N) / P_lam(M), over the lam of
    Wg(M, .), summed over lcm_lam P_lam(M).
    """
    return _character_sums(
        n,
        [
            (lam, _content_product(lam, N), _content_product(lam, M))
            for lam in _characters(n)[0]
            if len(lam) <= M
        ],
    )


class WeingartenTable:
    """Shared cache of exact Weingarten values keyed by (n, N) and cycle type,
    and of the free-permutation sums of Wg, for every order n <= max_n and
    every dimension N >= 1.

    Each entry is a sum over the partitions lam of n of S_n characters over
    content products P_lam, so no permutation is enumerated; it is summed in
    integers over one common denominator and stored as one Fraction per cycle
    type.  The character tables of S_n are process-wide constants, built once
    per order and shared by every table.

    Single writer, concurrent readers: inserts happen under a lock, lookups are
    plain dict reads on fully built per-key sub-tables.  Readers get read-only
    views, so no caller can alter a cached value.
    """

    max_n = 6

    def __init__(self) -> None:
        self._values: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
        self._free_sums: dict[tuple[int, int, int], dict[tuple[int, ...], Fraction]] = {}
        self._lock = threading.Lock()

    def _cached(self, store: dict, key: object, build: Callable[[], object]):
        """store[key], built on a miss and inserted under the lock."""
        got = store.get(key)
        if got is None:
            computed = build()
            with self._lock:
                got = store.setdefault(key, computed)
        return got

    def _check(self, n: int, *dims: int) -> None:
        """Reject an order outside [1, max_n] or a dimension that is not an integer >= 1."""
        if not 1 <= n <= self.max_n:
            raise MultiplicityLimitError(
                f"order n = {n} outside supported range [1, {self.max_n}]"
            )
        for dim in dims:
            _check_integer(dim, "N", 1)

    def values(self, n: int, N: int) -> Mapping[tuple[int, ...], Fraction]:
        """All Wg(N, .) of order n, keyed by cycle type."""
        got = self._values.get((n, N))
        if got is None:
            self._check(n, N)
            got = self._cached(self._values, (n, N), lambda: _wg_values(n, N))
        return MappingProxyType(got)

    def free_sums(self, n: int, M: int, N: int) -> Mapping[tuple[int, ...], Fraction]:
        """K(y) = sum_{pi in S_n} Wg(M, pi) N^{#(y pi)}, keyed by the cycle type of y.

        K is a class function of y.  It closes the sum over a permutation that
        no letter constrains: a free permutation pi composed with a fixed y
        contributes N per cycle of y pi.  For M = N >= n it is the indicator of
        the identity class, by the defining Gram relation of Wg; for N < n it
        is the projection onto the span of the Gram matrix instead.
        """
        got = self._free_sums.get((n, M, N))
        if got is None:
            self._check(n, M, N)
            got = self._cached(
                self._free_sums, (n, M, N), lambda: _free_sum_values(n, M, N)
            )
        return MappingProxyType(got)

    def wg(self, n: int, N: int, cycle_type: tuple[int, ...]) -> Fraction:
        ct = tuple(sorted(cycle_type, reverse=True))
        if sum(ct) != n:
            raise ValueError(f"cycle type {ct} is not a partition of {n}")
        return self.values(n, N)[ct]


DEFAULT_TABLE = WeingartenTable()


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
    N = _check_integer(N, "N", 1)
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


@dataclass(frozen=True, slots=True)
class BoundaryKind:
    """A distinguished boundary: m independent unitaries (polydisc) or the first
    block column/row of one Haar unitary of size mN (ball)."""

    family: str
    m: int

    _FAMILIES = ("polydisc", "ball_column", "ball_row")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise ValueError(f"family must be one of {self._FAMILIES}")
        object.__setattr__(self, "m", _check_integer(self.m, "m", 1))

    @classmethod
    def polydisc(cls, m: int) -> "BoundaryKind":
        return cls("polydisc", m)

    @classmethod
    def ball_column(cls, m: int) -> "BoundaryKind":
        return cls("ball_column", m)

    @classmethod
    def ball_row(cls, m: int) -> "BoundaryKind":
        return cls("ball_row", m)


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
    multiplicity of the letter.  The state after each letter is the set of
    paths joining still-open chain indices; pairs that leave the same paths
    merge their weights, and each closed cycle multiplies by N.  Column ball:
    all entries come from a single unitary of size mN, and the block offsets
    force the row matching to respect letters; inconsistent offsets kill the
    term.  Row ball: the row blocks of U are the adjoints of the column
    blocks of the Haar unitary U*, so ball_row(w, v) = ball_column(rev v,
    rev w).  For the last polydisc letter and for the ball, the permutation
    that no letter constrains is summed in closed form through the cached
    class function WeingartenTable.free_sums, so only the letter-constrained
    one is enumerated.  Every N >= 1 is supported: where N < n_r (or
    mN < |w|) the Weingarten function is the Gram pseudo-inverse.

    Unbalanced letter counts yield an exact rational zero with no Weingarten
    work at all.
    """
    N = _check_integer(N, "N", 1)
    _check_letters(kind.m, w, v)
    tab = table if table is not None else DEFAULT_TABLE
    if kind.family == "polydisc":
        return _pairing_polydisc(w, v, N, tab)
    if kind.family == "ball_row":
        w, v = Word(v.letters[::-1]), Word(w.letters[::-1])
    return _pairing_ball(w, v, kind.m, N, tab)


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


def _over_common_denominator(
    values: Mapping[tuple[int, ...], Fraction],
) -> tuple[dict[tuple[int, ...], int], int]:
    """Integer numerators of a table's values over the lcm d of their
    denominators, and d."""
    d = lcm(*(x.denominator for x in values.values()))
    return {ct: x.numerator * (d // x.denominator) for ct, x in values.items()}, d


def _close_free_letter(
    states: dict[tuple[int, ...], int],
    denominator: int,
    fixed: list[tuple[tuple[int, ...], list[tuple[int, int]]]],
    v_ends: list[int],
    w_ends: list[int],
    K: Mapping[tuple[int, ...], Fraction],
    N: int,
) -> Fraction:
    """Sum out the last pair of permutations, one of them in closed form.

    The state weights are integers over a common denominator.  Each entry of
    fixed is a permutation a (v-side slot k -> w-side slot a[k]) with its
    delta edges.  Once they are added, the remaining chain indices are the
    endpoints v_ends / w_ends of the free permutation's edges, and each path
    left joins w-side endpoint j to v-side endpoint x_a(j).  A free
    permutation f then closes #(x_a f) more classes, with weight Wg(f a^{-1})
    or Wg(a f^{-1}); substituting f = pi a turns its whole sum into
    K(ct(a x_a)).  K is scaled to integers too, so the result is one Fraction.
    """
    k_int, k_den = _over_common_denominator(K)
    k_of: dict[tuple[int, ...], int] = {}  # y -> K(ct(y)) as an integer
    powers = [N ** c for c in range(len(v_ends) + 1)]
    v_index = {vert: k for k, vert in enumerate(v_ends)}
    total = 0
    for state, weight in states.items():
        inner = 0
        for a, edges in fixed:
            ends, closed = _add_edges(state, edges)
            y = tuple([a[v_index[ends[vert]]] for vert in w_ends])
            k = k_of.get(y)
            if k is None:
                k = k_of[y] = k_int[_cycle_type0(y)]
            inner += powers[closed] * k
        total += weight * inner
    return Fraction(total, denominator * k_den)


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
        letters.append((len(v_pos), v_pos, w_pos))
    # The last letter is summed out in closed form, so the deepest goes last.
    letters.sort(key=lambda item: item[0])
    # Every table is fetched before the first permutation is enumerated, so
    # the table refuses an order above its limit before any work.
    wgs = [_over_common_denominator(table.values(nr, N)) for nr, _, _ in letters[:-1]]
    K = table.free_sums(letters[-1][0], N, N)

    def row_edges(sig, v_pos, w_pos):
        return [(var(-v_pos[a] + 1), var(w_pos[sig[a]] - 1)) for a in range(len(sig))]

    # State weights are integers over the product of each letter's Wg
    # denominator.
    ends = list(range(s + t + 1))
    _join(ends, var(-s), var(t))
    states = {tuple(ends): 1}
    denominator = 1
    powers = [N ** c for c in range(s + t + 2)]
    for (nr, v_pos, w_pos), (wg, wg_den) in zip(letters[:-1], wgs):
        denominator *= wg_den
        perms = list(permutations(range(nr)))
        rows = [row_edges(sig, v_pos, w_pos) for sig in perms]
        cols = []
        for tau in perms:
            edges = [(var(-v_pos[a]), var(w_pos[tau[a]])) for a in range(nr)]
            # Wg(tau sig^{-1}) for every sig, in the order of rows
            coeffs = []
            for sig in perms:
                pi = [0] * nr
                for a in range(nr):
                    pi[sig[a]] = tau[a]
                coeffs.append(wg[_cycle_type0(pi)])
            cols.append((edges, coeffs))
        merged: dict[tuple[int, ...], int] = defaultdict(int)
        for state, weight in states.items():
            for si, r_edges in enumerate(rows):
                after_rows, closed_rows = _add_edges(state, r_edges)
                for edges, coeffs in cols:
                    ends, closed = _add_edges(after_rows, edges)
                    merged[tuple(ends)] += weight * coeffs[si] * powers[closed_rows + closed]
        states = merged

    nr, v_pos, w_pos = letters[-1]
    fixed = [(sig, row_edges(sig, v_pos, w_pos)) for sig in permutations(range(nr))]
    return _close_free_letter(
        states, denominator, fixed, [var(-p) for p in v_pos], [var(p) for p in w_pos], K, N
    )


def _pairing_ball(w: Word, v: Word, m: int, N: int, table: WeingartenTable) -> Fraction:
    wl, vl = w.letters, v.letters
    if len(wl) != len(vl):
        return Fraction(0)
    n = len(wl)
    if n == 0:
        return Fraction(N)
    if Counter(wl) != Counter(vl):
        return Fraction(0)
    K = table.free_sums(n, m * N, N)
    var = lambda o: o + n

    # Column ball.  Row deltas join v-side l_{-k} to w-side l_j, column deltas
    # join l_{-(k+1)} to l_{j+1}.  The block offsets constrain the rows to
    # match letters; the columns are free.
    fixed = [
        (a, [(var(-k), var(a[k])) for k in range(n)])
        for a in _value_matching_bijections(vl, wl)
    ]
    free_v, free_w = [var(-(k + 1)) for k in range(n)], [var(j + 1) for j in range(n)]
    ends = list(range(2 * n + 1))
    _join(ends, var(-n), var(n))
    return _close_free_letter({tuple(ends): 1}, 1, fixed, free_v, free_w, K, N)


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
    scale r^{|w|+|v|} per pair, g-major and f-minor in items() order.  Pairs
    of unequal length are skipped: every boundary pairs them to an exact
    zero (Collins-Sniady 2006), so the same nonzero terms are added in the
    same order.  Real for f = g; complex in general.  r must be finite; any
    finite r is allowed, since the integrand is a polynomial in r.
    """
    _check_alphabets(f.m, g.m, kind.m)
    N = _check_integer(N, "N", 1)
    _check_radius(r)
    total = 0j
    for wv, gw in g.items():
        for vv, fv in f.items():
            if len(wv) != len(vv):
                continue
            pair = pairing_moment_exact(wv, vv, kind, N, table)
            if pair:
                total += gw.conjugate() * fv * (r ** (len(wv) + len(vv))) * (pair / N)
    return total
