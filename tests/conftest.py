"""Shared helpers: an independent brute-force oracle, plus the random input
factories of the acceptance battery (re-exported so both draw the same inputs).

The brute pairing oracle assembles boundary integrals from explicit index
chains and raw entry moments, a different route than the production
letter-at-a-time contraction; agreement between the two is a real cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iterproduct

from nc_hardy import BoundaryKind, Word, haar_entry_moment
from nc_hardy.acceptance import all_words, random_series, random_tuple  # noqa: F401


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
