"""Free-monoid words, sparse noncommutative power series, and their evaluation
at tuples of square matrices.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
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
    "concat",
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


def concat(u: Word, v: Word) -> Word:
    return u.concat(v)


class NcSeries:
    """Finitely supported noncommutative power series over the alphabet {1..m}.

    Canonical sparse form: coefficients that are exactly zero are dropped, and
    iteration follows the graded word order.  Instances are immutable.
    """

    __slots__ = ("_m", "_coeffs")

    def __init__(self, m: int, coeffs: Mapping[WordLike, complex] | None = None) -> None:
        if m < 1:
            raise ValueError("alphabet size m must be >= 1")
        store: dict[Word, complex] = {}
        for key, value in (coeffs or {}).items():
            word = _as_word(key)
            if word.max_letter() > m:
                raise AlphabetMismatchError(
                    f"word {word!r} uses letter {word.max_letter()} but m = {m}"
                )
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
        if self._m != other._m:
            raise AlphabetMismatchError("cannot add series over different alphabets")
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
        m = data["m"]
        if not isinstance(m, int) or m < 1:
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

    def entry(self, letter: int) -> np.ndarray:
        """Component for a 1-based letter."""
        if not 1 <= letter <= self.m:
            raise AlphabetMismatchError(f"letter {letter} outside alphabet [1, {self.m}]")
        return self._entries[letter - 1]

    def scale(self, factor: complex) -> "MatrixTuple":
        return MatrixTuple([factor * a for a in self._entries])

    def __repr__(self) -> str:
        return f"MatrixTuple(m={self.m}, n={self.n})"


# Batched evaluation: xs has shape (count, m, n, n), one matrix tuple per
# batch entry.  Word products are built prefix by prefix and cached per word,
# so series sharing prefixes (or two series at the same points) multiply each
# prefix once.  A MatrixTuple is evaluated as a batch of one.

def _fresh_cache(count: int, n: int) -> dict[Word, np.ndarray]:
    return {EMPTY_WORD: np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))}


def _word_stack(xs: np.ndarray, w: Word, cache: dict[Word, np.ndarray]) -> np.ndarray:
    got = cache.get(w)
    if got is None:
        prefix = Word(w.letters[:-1])
        got = _word_stack(xs, prefix, cache) @ xs[:, w.letters[-1] - 1]
        cache[w] = got
    return got


def _series_stack(
    f: NcSeries, xs: np.ndarray, r: float, cache: dict[Word, np.ndarray]
) -> np.ndarray:
    count, _, n, _ = xs.shape
    total = np.zeros((count, n, n), dtype=complex)
    for word, c in f.items():
        total += (c * r ** len(word)) * _word_stack(xs, word, cache)
    return total


def word_eval(X: MatrixTuple, w: Word) -> np.ndarray:
    """Ordered product X_{w_1} ... X_{w_t}; the empty word gives the identity."""
    if w.max_letter() > X.m:
        raise AlphabetMismatchError(
            f"word uses letter {w.max_letter()} but tuple has alphabet size {X.m}"
        )
    # The empty word's identity is a read-only view in the cache; copy it out.
    return np.array(_word_stack(np.stack(X.entries)[None], w, _fresh_cache(1, X.n))[0])


def series_eval(f: NcSeries, X: MatrixTuple, r: float = 1.0) -> np.ndarray:
    """Exact finite sum sum_w f_w (rX)^w for a polynomial series."""
    if f.m != X.m:
        raise AlphabetMismatchError(f"series alphabet {f.m} != tuple alphabet {X.m}")
    return _series_stack(f, np.stack(X.entries)[None], r, _fresh_cache(1, X.n))[0]


def l2p_norm(f: NcSeries, p: float) -> float:
    """Weighted coefficient norm sqrt( sum_l p^{-l} sum_{|w|=l} |f_w|^2 )."""
    if p <= 0:
        raise ValueError("p must be positive")
    return math.sqrt(sum(abs(c) ** 2 / p ** len(w) for w, c in f.coeffs.items()))


def direct_sum(X: MatrixTuple, Y: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal direct sum; dimensions add."""
    if X.m != Y.m:
        raise AlphabetMismatchError("direct sum needs matching alphabet sizes")
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


def spectral_theta(X: MatrixTuple, p: float) -> float:
    """Largest eigenvalue of p * sum_i Xi* Xi (0.0 for the empty dimension)."""
    if X.n == 0:
        return 0.0
    s = sum(a.conj().T @ a for a in X.entries)
    s = (s + s.conj().T) / 2
    return float(p * np.linalg.eigvalsh(s)[-1])


def _enumerate_partial_sum(
    coeff_fn: Callable[[Word], complex],
    X: MatrixTuple,
    max_degree: int,
) -> np.ndarray:
    total = complex(coeff_fn(EMPTY_WORD)) * np.eye(X.n, dtype=complex)
    level: list[tuple[Word, np.ndarray]] = [(EMPTY_WORD, np.eye(X.n, dtype=complex))]
    for _ in range(max_degree):
        nxt: list[tuple[Word, np.ndarray]] = []
        for w, mat in level:
            for k in range(1, X.m + 1):
                word = w.concat(Word((k,)))
                prod = mat @ X.entries[k - 1]
                nxt.append((word, prod))
                total += complex(coeff_fn(word)) * prod
        level = nxt
    return total


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

    The source is either a finite NcSeries (its norm is computed) or a callable
    word -> coefficient together with an explicit coeff_norm = ||f||_{2,p}.
    Enumerates all m^l words per level; intended for small m and max_degree.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    theta = spectral_theta(X, p)
    if theta >= 1.0:
        raise SpectralConditionError(
            f"p * sum Xi*Xi has top eigenvalue {theta:.6g} >= 1; "
            "raise the truncation degree check via upsilon_membership instead"
        )
    if isinstance(source, NcSeries):
        if source.m != X.m:
            raise AlphabetMismatchError("series and tuple alphabets differ")
        norm_val = l2p_norm(source, p)
        coeff_fn: Callable[[Word], complex] = lambda w: source[w]
    else:
        if coeff_norm is None:
            raise ValueError("coeff_norm is required for callable coefficient sources")
        norm_val = float(coeff_norm)
        coeff_fn = source
    value = _enumerate_partial_sum(coeff_fn, X, max_degree)
    tail = norm_val * theta ** ((max_degree + 1) / 2) / (1.0 - math.sqrt(theta))
    return value, tail
