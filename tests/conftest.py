"""Shared helpers: independent brute-force oracles and random input factories.

The brute pairing oracle assembles boundary integrals from explicit index
chains and raw entry moments, a different route than the production
letter-at-a-time contraction; agreement between the two is a real cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iterproduct

import numpy as np

from nc_hardy import BoundaryKind, MatrixTuple, NcSeries, Word, haar_entry_moment


def all_words(m: int, max_len: int) -> list[Word]:
    out = [Word()]
    level = [()]
    for _ in range(max_len):
        level = [tup + (k,) for tup in level for k in range(1, m + 1)]
        out.extend(Word(tup) for tup in level)
    return out


def brute_pairing(w: Word, v: Word, kind: BoundaryKind, N: int) -> Fraction:
    """Boundary integral of Tr((X^w)* X^v) by explicit index-chain enumeration."""
    m = kind.m
    wl, vl = w.letters, v.letters
    s, t = len(vl), len(wl)
    if s + t == 0:
        return Fraction(N)
    total = Fraction(0)
    for chain in iterproduct(range(1, N + 1), repeat=s + t):
        l = dict(zip(range(-s, t), chain))
        l[t] = l[-s]
        if kind.family == "polydisc":
            term = Fraction(1)
            for letter in range(1, m + 1):
                ups = [(l[-k + 1], l[-k]) for k in range(1, s + 1) if vl[k - 1] == letter]
                conjs = [(l[k - 1], l[k]) for k in range(1, t + 1) if wl[k - 1] == letter]
                if ups or conjs:
                    term *= haar_entry_moment(ups, conjs, N)
                    if term == 0:
                        break
            total += term
        elif kind.family == "ball_column":
            ups = [((vl[k - 1] - 1) * N + l[-k + 1], l[-k]) for k in range(1, s + 1)]
            conjs = [((wl[k - 1] - 1) * N + l[k - 1], l[k]) for k in range(1, t + 1)]
            total += haar_entry_moment(ups, conjs, m * N)
        else:
            ups = [(l[-k + 1], (vl[k - 1] - 1) * N + l[-k]) for k in range(1, s + 1)]
            conjs = [(l[k - 1], (wl[k - 1] - 1) * N + l[k]) for k in range(1, t + 1)]
            total += haar_entry_moment(ups, conjs, m * N)
    return total


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
