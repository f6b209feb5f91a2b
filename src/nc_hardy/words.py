"""Free-monoid words, sparse noncommutative power series, and their evaluation
at tuples of square matrices.

Values are immutable after construction and safe to share across threads.
The package's input rules are checked here, each by one ``_check_*``
function, and every public entry runs them on its whole input (every N and
r of a grid) before any work.
"""

from __future__ import annotations

import math
import operator
from functools import total_ordering
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "AlphabetMismatchError",
    "SeriesFormatError",
    "SpectralConditionError",
    "Word",
    "EMPTY_WORD",
    "all_words",
    "NcSeries",
    "MatrixTuple",
    "word_eval",
    "series_eval",
    "series_eval_tail_bounded",
    "l2p_norm",
    "direct_sum",
    "similarity",
    "spectral_theta",
]


class AlphabetMismatchError(ValueError):
    """A word, series, or tuple was combined with an incompatible alphabet size."""


class SeriesFormatError(ValueError):
    """A serialized series did not match the interchange schema."""


class SpectralConditionError(RuntimeError):
    """Tail bound unavailable: p * sum(Xi* Xi) has an eigenvalue >= 1."""


@total_ordering
class Word:
    """Immutable word over the 1-based alphabet {1..m}; the empty word is the unit.

    Letters are stored as a byte string (alphabet sizes up to 255).  The
    canonical order is graded: by length first, then lexicographically.
    """

    __slots__ = ("_data",)

    def __init__(self, letters: Iterable[int] = ()) -> None:
        try:
            data = bytes(letters)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"letters must be integers in [1, 255]: {exc}") from None
        if 0 in data:
            raise ValueError("letters are 1-based; 0 is not a letter")
        self._data = data

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(self._data)

    def max_letter(self) -> int:
        return max(self._data, default=0)

    def sort_key(self) -> tuple[int, bytes]:
        return (len(self._data), self._data)

    def concat(self, other: "Word") -> "Word":
        out = Word()
        out._data = self._data + other._data
        return out

    __mul__ = concat

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __hash__(self) -> int:
        return hash(self._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._data == other._data

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Word({','.join(str(b) for b in self._data)})"


EMPTY_WORD = Word()

WordLike = Union[Word, Iterable[int]]


def _as_word(key: WordLike) -> Word:
    return key if isinstance(key, Word) else Word(key)


def all_words(m: int, max_len: int) -> list[Word]:
    """Every word over {1..m} of length at most max_len, in graded order."""
    out = [Word()]
    level = [()]
    for _ in range(max_len):
        level = [tup + (k,) for tup in level for k in range(1, m + 1)]
        out.extend(Word(tup) for tup in level)
    return out


class NcSeries:
    """Finitely supported noncommutative power series over the alphabet {1..m}.

    Canonical sparse form: coefficients that are exactly zero are dropped, and
    iteration follows the graded word order.  Instances are immutable.
    """

    __slots__ = ("_m", "_coeffs")

    def __init__(self, m: int, coeffs: Mapping[WordLike, complex] | None = None) -> None:
        m = _check_integer(m, "m", 1)
        store: dict[Word, complex] = {}
        for key, value in (coeffs or {}).items():
            word = _as_word(key)
            _check_letters(m, word)
            store[word] = store.get(word, 0j) + complex(value)
        self._m = m
        self._coeffs = {w: c for w, c in store.items() if c != 0}

    @property
    def m(self) -> int:
        return self._m

    @property
    def coeffs(self) -> Mapping[Word, complex]:
        return MappingProxyType(self._coeffs)

    def degree(self) -> int:
        return max((len(w) for w in self._coeffs), default=0)

    def items(self) -> list[tuple[Word, complex]]:
        """Terms in canonical (length, lexicographic) order."""
        return sorted(self._coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __getitem__(self, key: WordLike) -> complex:
        return self._coeffs.get(_as_word(key), 0j)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NcSeries)
            and self._m == other._m
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self._m, frozenset(self._coeffs.items())))

    def __add__(self, other: "NcSeries") -> "NcSeries":
        if not isinstance(other, NcSeries):
            return NotImplemented
        _check_alphabets(self._m, other._m)
        merged = dict(self._coeffs)
        for w, c in other._coeffs.items():
            merged[w] = merged.get(w, 0j) + c
        return NcSeries(self._m, merged)

    def __neg__(self) -> "NcSeries":
        return NcSeries(self._m, {w: -c for w, c in self._coeffs.items()})

    def __sub__(self, other: "NcSeries") -> "NcSeries":
        return self + (-other)

    def __rmul__(self, scalar: complex) -> "NcSeries":
        return NcSeries(self._m, {w: scalar * c for w, c in self._coeffs.items()})

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*X^{w.letters}" for w, c in self.items()) or "0"
        return f"NcSeries(m={self._m}: {body})"

    @classmethod
    def zero(cls, m: int) -> "NcSeries":
        return cls(m, {})

    @classmethod
    def monomial(cls, m: int, word: WordLike, coeff: complex = 1.0) -> "NcSeries":
        return cls(m, {_as_word(word): coeff})

    def to_json_dict(self) -> dict:
        """Interchange form: {"m": ..., "terms": [{"word": [...], "re": ..., "im": ...}]}."""
        return {
            "m": self._m,
            "terms": [
                {"word": list(w.letters), "re": c.real, "im": c.imag}
                for w, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "NcSeries":
        if not isinstance(data, dict) or "m" not in data or "terms" not in data:
            raise SeriesFormatError('series JSON must be an object with "m" and "terms"')
        m = _json_integer(data["m"], '"m"', SeriesFormatError)
        if m < 1:
            raise SeriesFormatError('"m" must be a positive integer')
        terms = data["terms"]
        if not isinstance(terms, list):
            raise SeriesFormatError('"terms" must be a list')
        coeffs: dict[Word, complex] = {}
        for idx, term in enumerate(terms):
            try:
                word = Word(term["word"])
                re = float(term["re"])
                im = float(term.get("im", 0.0))
            except (TypeError, KeyError, ValueError) as exc:
                raise SeriesFormatError(f"term {idx}: {exc}") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SeriesFormatError(f"term {idx}: coefficient is not finite")
            # A letter outside the alphabet is malformed input here, not a
            # precondition of a computation, so it is a format error.
            if word.max_letter() > m:
                raise SeriesFormatError(f"term {idx}: letter out of range for m = {m}")
            if word in coeffs:
                raise SeriesFormatError(f"term {idx}: duplicate word {list(word.letters)}")
            coeffs[word] = complex(re, im)
        return cls(m, coeffs)


class MatrixTuple:
    """A point of matrix space: m complex n-by-n matrices sharing one dimension n.

    Component arrays are stored read-only and their entries must be finite.
    n = 0 is allowed and acts as the neutral element of the direct sum.
    """

    __slots__ = ("_entries",)

    def __init__(self, matrices: Sequence[np.ndarray]) -> None:
        if len(matrices) < 1:
            raise ValueError("a matrix tuple needs at least one component")
        entries = []
        n = None
        for a in matrices:
            arr = np.array(a, dtype=complex)
            if arr.ndim == 0:
                arr = arr.reshape(1, 1)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("components must be square matrices")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError("all components must share one dimension")
            if not np.isfinite(arr).all():
                raise ValueError("matrix entries must be finite")
            arr.setflags(write=False)
            entries.append(arr)
        self._entries = tuple(entries)

    @property
    def m(self) -> int:
        return len(self._entries)

    @property
    def n(self) -> int:
        return self._entries[0].shape[0]

    @property
    def entries(self) -> tuple[np.ndarray, ...]:
        return self._entries

    def scale(self, factor: complex) -> "MatrixTuple":
        return MatrixTuple([factor * a for a in self._entries])

    def __repr__(self) -> str:
        return f"MatrixTuple(m={self.m}, n={self.n})"


# Batched evaluation: xs has shape (count, m, n, n), one matrix tuple per
# batch entry.  One walk serves word_eval, series_eval,
# series_eval_tail_bounded and the Monte Carlo integrands (pairings and the
# freeness powers): it visits the prefix trie of every word to be evaluated one
# length at a time.  A length-1 product is the letter's own matrix slice, with
# no identity product; each longer product is its parent prefix's product
# times one letter.  Only prefixes with children are kept, and a level is
# dropped once the next one is built, so at most two levels are alive.  Words
# come out in graded order, which is NcSeries.items() order, so each series
# adds its terms in the order of a plain loop over items() and keeps its bits.
# A MatrixTuple is evaluated as a batch of one.

def _walk_words(xs: np.ndarray, words: Iterable[Word]) -> Iterator[tuple[Word, np.ndarray]]:
    """Yield (w, stack of X^w) for every distinct word in words, in graded order."""
    count, _, n, _ = xs.shape
    wanted = {w._data for w in words}
    if b"" in wanted:
        yield EMPTY_WORD, np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))
    parents: dict[bytes, np.ndarray] = {}
    for length in range(1, max(map(len, wanted), default=0) + 1):
        inner = {w[:length] for w in wanted if len(w) > length}
        level: dict[bytes, np.ndarray] = {}
        for node in sorted(inner.union(w for w in wanted if len(w) == length)):
            letter = xs[:, node[-1] - 1]
            prod = letter if length == 1 else parents[node[:-1]] @ letter
            if node in wanted:
                yield Word(node), prod
            if node in inner:
                level[node] = prod
        parents = level


def _series_sums(
    xs: np.ndarray, terms: Sequence[tuple[NcSeries, float]]
) -> list[np.ndarray]:
    """sum_w f_w (rX)^w at every batch point, for each (f, r) in terms, in one walk."""
    count, _, n, _ = xs.shape
    sums = [np.zeros((count, n, n), dtype=complex) for _ in terms]
    for w, prod in _walk_words(xs, {w for f, _ in terms for w in f._coeffs}):
        for total, (f, r) in zip(sums, terms):
            c = f._coeffs.get(w)
            if c is not None:
                total += (c * r ** len(w)) * prod
    return sums


def _stratum(w: Word) -> bytes:
    """w's stratum, its letter multiset, as its sorted letters."""
    return bytes(sorted(w._data))


def _stratum_sums(
    xs: np.ndarray, terms: Sequence[tuple[NcSeries, float]]
) -> Iterator[list[np.ndarray | None]]:
    """Per stratum, sum_{w in stratum} f_w (rX)^w at every batch point for each
    (f, r) in terms (None where f has no word in it), in one walk.

    A stratum is a letter multiset: the words whose sorted letters agree.
    Every stratum lies within one word length, so strata come out length by
    length, each length's in the order of their first words, and only one
    length's sums are alive at a time.  Each sum adds its words in graded
    order.
    """
    length, strata = 0, {}
    for w, prod in _walk_words(xs, {w for f, _ in terms for w in f._coeffs}):
        if len(w) > length:
            yield from strata.values()
            length, strata = len(w), {}
        sums = strata.setdefault(_stratum(w), [None] * len(terms))
        for k, (f, r) in enumerate(terms):
            c = f._coeffs.get(w)
            if c is None:
                continue
            term = (c * r ** len(w)) * prod
            if sums[k] is None:
                sums[k] = term
            else:
                sums[k] += term
    yield from strata.values()


def word_eval(X: MatrixTuple, w: Word) -> np.ndarray:
    """Ordered product X_{w_1} ... X_{w_t}; the empty word gives the identity."""
    _check_letters(X.m, w)
    # The walk hands out views (the identity, a letter's slice); copy one out.
    [(_, prod)] = _walk_words(np.stack(X.entries)[None], [w])
    return np.array(prod[0])


def series_eval(f: NcSeries, X: MatrixTuple, r: float = 1.0) -> np.ndarray:
    """Exact finite sum sum_w f_w (rX)^w for a polynomial series."""
    _check_alphabets(f.m, X.m)
    return _series_sums(np.stack(X.entries)[None], [(f, r)])[0][0]


def _check_weight(p: float) -> None:
    """Reject a weight p that is not a finite positive number."""
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and positive, got {p}")


def _check_integer(
    value: int, name: str, least: int | None, error: type[ValueError] = ValueError
) -> int:
    """value as an int; reject one that is not an integer >= least (numpy ints
    pass; least None sets no bound) with error.

    The one rule for every integer input: a level N (>= 1), an alphabet size
    m (>= 1), a truncation degree, a sample count (>= 2), a draw count, a
    seed and stream id (>= 0), a worker count (>= 1), and a freeness factor's
    letter (>= 1) and powers.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise error(f"{name} must be >= {least}")
    return n


def _json_integer(value: object, name: str, error: type[ValueError]) -> int:
    """value if it is a JSON integer; else the loader's format error (a bool,
    a float or a string is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def _check_radius(*radii: float) -> None:
    """Reject a radial scale that is not finite."""
    for r in radii:
        if not math.isfinite(r):
            raise ValueError(f"r must be finite, got {r}")


def _check_unit_radius(*radii: float) -> None:
    """Reject a radius outside (0, 1], NaN included."""
    if not all(0 < r <= 1 for r in radii):
        raise ValueError("r must lie in (0, 1]")


def _check_alphabets(*sizes: int) -> None:
    """Reject alphabet sizes that are not all equal."""
    if len(set(sizes)) > 1:
        raise AlphabetMismatchError(f"alphabet sizes differ: {', '.join(map(str, sizes))}")


def _check_letters(m: int, *words: Word) -> None:
    """Reject words that use a letter outside the alphabet {1..m}."""
    bad = max(map(Word.max_letter, words))
    if bad > m:
        raise AlphabetMismatchError(f"word letter {bad} outside alphabet [1, {m}]")


def _check_grid(*grids: Sequence) -> None:
    """Reject an empty grid."""
    if any(len(grid) == 0 for grid in grids):
        raise ValueError("grids must be nonempty")


def _check_engine(engine: str) -> None:
    """Reject an engine other than "exact" and "mc"."""
    if engine not in ("exact", "mc"):
        raise ValueError(f"unknown engine {engine!r}")


def l2p_norm(f: NcSeries, p: float) -> float:
    """Weighted coefficient norm sqrt( sum_l p^{-l} sum_{|w|=l} |f_w|^2 )."""
    _check_weight(p)
    return math.sqrt(sum(abs(c) ** 2 / p ** len(w) for w, c in f.coeffs.items()))


def direct_sum(X: MatrixTuple, Y: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal direct sum; dimensions add."""
    _check_alphabets(X.m, Y.m)
    n, q = X.n, Y.n
    out = []
    for a, b in zip(X.entries, Y.entries):
        z = np.zeros((n + q, n + q), dtype=complex)
        z[:n, :n] = a
        z[n:, n:] = b
        out.append(z)
    return MatrixTuple(out)


_COND_LIMIT = 1e14


def similarity(X: MatrixTuple, T: np.ndarray) -> MatrixTuple:
    """Conjugate every component by T.

    Rejects T that is singular to working precision; the raised error reports
    the observed condition number.
    """
    T = np.asarray(T, dtype=complex)
    if T.shape != (X.n, X.n):
        raise ValueError(f"T must be {X.n}x{X.n}, got {T.shape}")
    cond = float(np.linalg.cond(T))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"similarity matrix is singular to working precision (cond = {cond:.3e})"
        )
    Tinv = np.linalg.inv(T)
    return MatrixTuple([T @ a @ Tinv for a in X.entries])


def _top_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part of mat (0.0 for the empty matrix)."""
    if mat.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[-1])


def spectral_theta(X: MatrixTuple, p: float) -> float:
    """Largest eigenvalue of p * sum_i Xi* Xi (0.0 for the empty dimension)."""
    if X.n == 0:
        return 0.0
    return p * _top_eigenvalue(sum(a.conj().T @ a for a in X.entries))


def _geometric_tail(scale: float, theta: float, degree: int) -> float:
    """scale * theta^((L+1)/2) / (1 - sqrt(theta)) for L = degree: the geometric
    bound on the terms past degree L."""
    return scale * theta ** ((degree + 1) / 2) / (1.0 - math.sqrt(theta))


def series_eval_tail_bounded(
    source: NcSeries | Callable[[Word], complex],
    X: MatrixTuple,
    p: float,
    max_degree: int,
    *,
    coeff_norm: float | None = None,
) -> tuple[np.ndarray, float]:
    """Evaluate a coefficient source at X through degree max_degree with a tail bound.

    Requires theta = lambda_max(p * sum Xi* Xi) < 1.  Cauchy-Schwarz against the
    geometric word-sum bound gives stratum norms <= ||f||_{2,p} * theta^{l/2}, so
    the discarded tail is bounded by ||f||_{2,p} * theta^{(L+1)/2} / (1 - sqrt(theta)).

    The source is either a finite NcSeries (its norm is computed, so coeff_norm
    must not be given) or a callable word -> coefficient together with an
    explicit finite coeff_norm = ||f||_{2,p} >= 0.  The sum starts from the
    empty word's term and adds every one of the m^l words of each length l, in
    graded order, as one word-product walk (the one series_eval uses): up to
    max_degree for a callable and up to min(max_degree, degree) for an
    NcSeries, whose coefficients vanish beyond its degree.  Intended for small
    m and max_degree.
    """
    _check_weight(p)
    max_degree = _check_integer(max_degree, "max_degree", 0)
    theta = spectral_theta(X, p)
    if theta >= 1.0:
        raise SpectralConditionError(
            f"p * sum Xi*Xi has top eigenvalue {theta:.6g} >= 1; "
            "raise the truncation degree check via upsilon_membership instead"
        )
    if isinstance(source, NcSeries):
        if coeff_norm is not None:
            raise ValueError("coeff_norm is computed for an NcSeries source; do not pass it")
        _check_alphabets(source.m, X.m)
        norm_val = l2p_norm(source, p)
        coeff_fn: Callable[[Word], complex] = lambda w: source[w]
        depth = min(max_degree, source.degree())
    else:
        if coeff_norm is None:
            raise ValueError("coeff_norm is required for callable coefficient sources")
        if not (math.isfinite(coeff_norm) and coeff_norm >= 0):
            raise ValueError(f"coeff_norm must be finite and >= 0, got {coeff_norm}")
        norm_val = float(coeff_norm)
        coeff_fn = source
        depth = max_degree
    value = complex(coeff_fn(EMPTY_WORD)) * np.eye(X.n, dtype=complex)
    for w, prod in _walk_words(np.stack(X.entries)[None], all_words(X.m, depth)[1:]):
        value += complex(coeff_fn(w)) * prod[0]
    return value, _geometric_tail(norm_val, theta, max_degree)
