import json
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_words, brute_pairing, cycle_type
from nc_hardy import (
    AlphabetMismatchError,
    DEFAULT_TABLE,
    BoundaryKind,
    MultiplicityLimitError,
    NcSeries,
    WeingartenTable,
    Word,
    haar_entry_moment,
    partitions,
    pairing_moment_exact,
    sesquilinear_moment_exact,
)
from nc_hardy.weingarten import _characters, _content_product

GOLDEN_TABLE = Path(__file__).parent / "golden" / "weingarten_table.json"
GOLDEN_BELOW = Path(__file__).parent / "golden" / "weingarten_below_threshold.json"

# Pairings computed by the engine that enumerated every (sigma, tau) pair per
# letter and merged chain indices with a union-find, before it was replaced by
# letter-at-a-time contraction: (family, m, w, v, N, value).
GOLDEN_PAIRINGS = [
    ("polydisc", 2, (1, 2, 2, 1, 1, 2, 1, 2), (1, 1, 2, 2, 2, 1, 2, 1), 7, Fraction(-41, 7560)),
    ("ball_column", 2, (1,) * 6, (1,) * 6, 3, Fraction(47, 385)),
    ("ball_row", 2, (1,) * 6, (1,) * 6, 3, Fraction(47, 385)),
    ("polydisc", 2, (1, 2, 1, 1, 2, 2), (2, 1, 2, 1, 1, 2), 5, Fraction(11, 60)),
    ("polydisc", 2, (1, 1, 2, 1, 2, 1), (2, 1, 1, 1, 2, 1), 6, Fraction(1, 3)),
    ("polydisc", 2, (1, 2, 1, 1, 2, 1, 2), (2, 1, 1, 2, 1, 2, 1), 4, Fraction(13, 60)),
    ("polydisc", 3, (1, 2, 3, 1, 2, 3), (3, 1, 2, 2, 1, 3), 4, Fraction(1, 4)),
    ("ball_column", 3, (3, 1, 3, 3, 1), (1, 3, 3, 1, 3), 2, Fraction(19, 7560)),
    ("ball_row", 3, (1, 2, 3, 2, 1), (1, 1, 2, 3, 2), 2, Fraction(1, 504)),
    ("ball_column", 2, (1, 1, 2, 1, 2, 2), (2, 1, 2, 1, 2, 1), 3, Fraction(3757, 1940400)),
    ("ball_row", 2, (1, 1, 2, 1, 2, 2), (2, 1, 2, 1, 2, 1), 3, Fraction(3757, 1940400)),
]


class TestWeingartenValues:
    def test_order_one(self):
        for n_dim in range(1, 9):
            assert DEFAULT_TABLE.wg(1, n_dim, (1,)) == Fraction(1, n_dim)

    def test_order_two_hand_inverted(self):
        # invert [[N^2, N], [N, N^2]] by hand
        for n_dim in range(2, 9):
            assert DEFAULT_TABLE.wg(2, n_dim, (1, 1)) == Fraction(1, n_dim ** 2 - 1)
            assert DEFAULT_TABLE.wg(2, n_dim, (2,)) == Fraction(-1, n_dim * (n_dim ** 2 - 1))

    def test_order_three_closed_forms(self):
        table = WeingartenTable()
        for n_dim in (3, 4, 7):
            denom = n_dim * (n_dim ** 2 - 1) * (n_dim ** 2 - 4)
            vals = table.values(3, n_dim)
            assert vals[(1, 1, 1)] == Fraction(n_dim ** 2 - 2, denom)
            assert vals[(2, 1)] == Fraction(-1, denom // n_dim)
            assert vals[(3,)] == Fraction(2, denom)

    def test_full_gram_inversion_oracle(self):
        # independent route: invert the full n! x n! Gram matrix in floats;
        # below the order it is singular and Wg is its pseudo-inverse
        table = WeingartenTable()
        for order in (2, 3, 4):
            perms = list(permutations(range(order)))
            ident = perms.index(tuple(range(order)))
            inverses = [np.argsort(b).tolist() for b in perms]
            for n_dim in (*range(1, order), order, order + 2, 8):
                gram = np.empty((len(perms), len(perms)))
                for i, a in enumerate(perms):
                    for j, binv in enumerate(inverses):
                        comp = tuple(a[k] for k in binv)
                        gram[i, j] = float(n_dim) ** len(cycle_type(comp))
                unit = np.eye(len(perms))[:, ident]
                if n_dim < order:
                    inv_col = np.linalg.pinv(gram) @ unit
                else:
                    inv_col = np.linalg.solve(gram, unit)
                vals = table.values(order, n_dim)
                for idx, perm in enumerate(perms):
                    exact = float(vals[cycle_type(perm)])
                    assert abs(inv_col[idx] - exact) < 1e-8

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sigma = rng.permutation(4).tolist()
            pi = rng.permutation(4).tolist()
            pinv = np.argsort(pi)
            conj = [pi[sigma[pinv[k]]] for k in range(4)]
            assert DEFAULT_TABLE.wg(4, 6, cycle_type(sigma)) == DEFAULT_TABLE.wg(
                4, 6, cycle_type(conj)
            )

    def test_defining_relation_residual(self):
        # G Wg = 1 for N >= n; below the order, the Moore-Penrose identities
        # G W G = G and W G W = W for the matrices G = (N^{#(a b^-1)}) and
        # W = (Wg(N, a b^-1))
        table = WeingartenTable()
        for order in (2, 3, 4, 5):
            perms = list(permutations(range(order)))
            ident = perms.index(tuple(range(order)))
            inverses = [np.argsort(b).tolist() for b in perms]
            for n_dim in (*range(1, order), order, order + 3):
                vals = table.values(order, n_dim)
                gram = np.empty((len(perms), len(perms)))
                wg_mat = np.empty((len(perms), len(perms)))
                for i, a in enumerate(perms):
                    for j, binv in enumerate(inverses):
                        ct = cycle_type(tuple(a[k] for k in binv))
                        gram[i, j] = float(n_dim) ** len(ct)
                        wg_mat[i, j] = float(vals[ct])
                if n_dim >= order:
                    resid = gram @ wg_mat[:, ident] - np.eye(len(perms))[:, ident]
                    assert np.max(np.abs(resid)) <= 1e-10
                else:
                    scale = np.max(np.abs(gram))
                    resid = gram @ wg_mat @ gram - gram
                    assert np.max(np.abs(resid)) <= 1e-12 * scale
                    resid = wg_mat @ gram @ wg_mat - wg_mat
                    assert np.max(np.abs(resid)) <= 1e-12

    def test_asymptotic_order(self):
        # |Wg(N, sigma)| * N^(2n - #sigma) converges; adjacent doublings agree to 5%
        table = WeingartenTable()
        for order in (2, 3, 4):
            for ctype in partitions(order):
                seq = []
                for n_dim in (8, 16, 32, 64):
                    val = table.values(order, n_dim)[ctype]
                    seq.append(abs(float(val)) * n_dim ** (2 * order - len(ctype)))
                assert abs(seq[-1] / seq[-2] - 1.0) <= 0.05

    def test_values_are_read_only(self):
        table = WeingartenTable()
        with pytest.raises(TypeError):
            table.values(2, 3)[(1, 1)] = Fraction(0)
        with pytest.raises(TypeError):
            table.free_sums(2, 4, 2)[(1, 1)] = Fraction(0)
        assert table.values(2, 3)[(1, 1)] == Fraction(1, 8)

    def test_free_sums_against_permutation_sum(self):
        # K(y) = sum over all pi of Wg(M, pi) N^{#(y pi)}, summed directly; at
        # M = N >= n the Gram relation makes it the indicator of the identity
        # class
        table = WeingartenTable()
        for order in (1, 2, 3, 4):
            perms = list(permutations(range(order)))
            below = [(big, small) for big in range(1, order) for small in (big, 2)]
            for big, small in [
                (order, order), (order + 2, order + 2), (2 * order, 2), (5, 1), *below
            ]:
                wg = table.values(order, big)
                got = table.free_sums(order, big, small)
                for y in perms:
                    want = sum(
                        wg[cycle_type(pi)]
                        * small ** len(cycle_type([y[p] for p in pi]))
                        for pi in perms
                    )
                    assert got[cycle_type(y)] == want
                    if big == small >= order:
                        assert want == (1 if y == tuple(range(order)) else 0)

    def test_free_sums_build_no_weingarten_table(self):
        table = WeingartenTable()
        table.free_sums(3, 6, 2)
        assert not table._values

    def test_gram_goldens(self):
        # values(n, N) for n <= 6, N in [n, 12], and free_sums(n, M, N) for
        # N <= 6, M in {N, 2N, 3N}, M >= n, as computed by the class-reduced
        # Gram solve that the character formula replaced.
        golden = json.loads(GOLDEN_TABLE.read_text())

        def parse(entry):
            return {
                tuple(int(x) for x in ct.split(",")): Fraction(value)
                for ct, value in entry["table"].items()
            }

        table = WeingartenTable()
        assert len(golden["values"]) == 57 and len(golden["free_sums"]) == 84
        for entry in golden["values"]:
            assert dict(table.values(entry["n"], entry["N"])) == parse(entry)
        for entry in golden["free_sums"]:
            assert dict(table.free_sums(entry["n"], entry["M"], entry["N"])) == parse(entry)

    def test_below_threshold_goldens(self):
        # values(n, N) for N < n <= 6, and free_sums(n, M, N) for M < n or
        # N < n <= M, with M, N <= 2n: where partitions longer than N or M
        # drop out and P_lam(N) = 0, as computed by the engine that summed
        # one Fraction per partition.
        golden = json.loads(GOLDEN_BELOW.read_text())

        def parse(entry):
            return {
                tuple(int(x) for x in ct.split(",")): Fraction(value)
                for ct, value in entry["table"].items()
            }

        table = WeingartenTable()
        assert len(golden["values"]) == 15 and len(golden["free_sums"]) == 225
        for entry in golden["values"]:
            assert entry["N"] < entry["n"]
            assert dict(table.values(entry["n"], entry["N"])) == parse(entry)
        for entry in golden["free_sums"]:
            assert entry["M"] < entry["n"] or entry["N"] < entry["n"]
            got = table.free_sums(entry["n"], entry["M"], entry["N"])
            assert dict(got) == parse(entry)
            assert all(type(x) is Fraction for x in got.values())

    def test_below_order_is_pseudo_inverse(self):
        # order 3 at N = 2: the sign character drops out of the character sum
        table = WeingartenTable()
        assert dict(table.values(3, 2)) == {
            (1, 1, 1): Fraction(17, 144),
            (2, 1): Fraction(1, 144),
            (3,): Fraction(-7, 144),
        }
        assert dict(table.values(4, 1)) == {ct: Fraction(1, 576) for ct in partitions(4)}

    def test_order_limit(self):
        table = WeingartenTable()
        with pytest.raises(MultiplicityLimitError):
            table.values(7, 10)
        with pytest.raises(ValueError):
            table.values(2, 0)


def _centralizer_order(mu):
    return prod(k ** c * factorial(c) for k, c in Counter(mu).items())


def _hook_product(lam):
    conj = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    return prod(row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row))


class TestCharacters:
    # The Murnaghan-Nakayama table on its own, with no Weingarten value involved.

    def test_row_orthogonality(self):
        for n in range(1, 8):
            parts, chi = _characters(n)
            for lam in parts:
                for rho in parts:
                    got = sum(
                        Fraction(factorial(n), _centralizer_order(mu)) * chi[lam][mu] * chi[rho][mu]
                        for mu in parts
                    )
                    assert got == (factorial(n) if lam == rho else 0)

    def test_column_orthogonality(self):
        for n in range(1, 8):
            parts, chi = _characters(n)
            for mu in parts:
                for nu in parts:
                    got = sum(chi[lam][mu] * chi[lam][nu] for lam in parts)
                    assert got == (_centralizer_order(mu) if mu == nu else 0)

    def test_dimension_is_hook_length_formula(self):
        for n in range(1, 8):
            parts, chi = _characters(n)
            for lam in parts:
                assert chi[lam][(1,) * n] * _hook_product(lam) == factorial(n)

    def test_schur_weyl_count(self):
        # (C^N)^{(x) n} = sum_lam S_lam (x) V_lam, with s_lam(1^N) =
        # chi^lam(1) P_lam(N) / n! and P_lam(N) = 0 for partitions longer than
        # N: at the identity the dimensions add up to N^n, and a permutation
        # of cycle type mu has trace N^{len(mu)}
        for n in range(1, 8):
            parts, chi = _characters(n)
            ident = (1,) * n
            for N in range(1, 9):
                for lam in parts:
                    assert (_content_product(lam, N) == 0) == (len(lam) > N)
                for mu in parts:
                    got = sum(
                        Fraction(chi[lam][mu] * chi[lam][ident] * _content_product(lam, N))
                        for lam in parts
                    ) / factorial(n)
                    assert got == N ** len(mu)

    def test_shared_and_read_only(self):
        # one character table per order and process, shared by every
        # WeingartenTable, and no caller can change it
        parts, chi = _characters(4)
        assert _characters(4)[1] is chi
        builds = _characters.cache_info().misses
        WeingartenTable().values(4, 3)
        WeingartenTable().free_sums(4, 5, 2)
        assert _characters.cache_info().misses == builds
        assert not hasattr(WeingartenTable(), "_characters")
        lam, mu = parts[0], parts[-1]
        with pytest.raises(TypeError):
            chi[lam][mu] = 0
        with pytest.raises(TypeError):
            chi[lam] = {}
        with pytest.raises(TypeError):
            parts[0] = (1,) * 4
        assert chi[lam][mu] == 1


class TestEntryMoments:
    def test_basic_values(self):
        for n_dim in (2, 3, 5):
            assert haar_entry_moment([(1, 1)], [(1, 1)], n_dim) == Fraction(1, n_dim)
            assert haar_entry_moment([(1, 1)], [(1, 2)], n_dim) == 0
        assert haar_entry_moment([(1, 1), (2, 2)], [(1, 1), (2, 2)], 2) == Fraction(1, 3)

    def test_fourth_moment(self):
        for n_dim in (2, 3, 4):
            got = haar_entry_moment([(1, 1), (1, 1)], [(1, 1), (1, 1)], n_dim)
            assert got == Fraction(2, n_dim * (n_dim + 1))

    def test_off_diagonal_fourth_moment(self):
        for n_dim in (2, 3):
            got = haar_entry_moment([(1, 1), (2, 2)], [(1, 2), (2, 1)], n_dim)
            assert got == Fraction(-1, n_dim * (n_dim ** 2 - 1))

    def test_unbalanced_vanishes(self):
        assert haar_entry_moment([(1, 1)], [], 3) == 0
        assert haar_entry_moment([], [(1, 1), (2, 2)], 3) == 0

    def test_empty_product(self):
        assert haar_entry_moment([], [], 3) == 1

    def test_index_range(self):
        with pytest.raises(ValueError):
            haar_entry_moment([(1, 3)], [(1, 1)], 2)

    def test_dimension_must_be_positive(self):
        # checked before the empty product, which would otherwise return 1
        for n_dim in (0, -3):
            for ups, conjs in (([], []), ([(1, 1)], []), ([(1, 1)], [(1, 1)])):
                with pytest.raises(ValueError, match="N must be >= 1"):
                    haar_entry_moment(ups, conjs, n_dim)


class TestPairingExact:
    def test_telescoping_identity(self):
        kind = BoundaryKind.polydisc(2)
        for w in (Word(), Word((1,)), Word((1, 2)), Word((1, 1, 2)), Word((2, 2, 2))):
            for n_dim in (1, 2, 3, 5):
                assert pairing_moment_exact(w, w, kind, n_dim) == Fraction(n_dim)

    def test_length_mismatch_exact_zero(self):
        kind = BoundaryKind.polydisc(2)
        assert pairing_moment_exact(Word((1,)), Word((1, 2)), kind, 3) == 0

    def test_letter_mismatch_exact_zero(self):
        for kind in (BoundaryKind.polydisc(2), BoundaryKind.ball_column(2)):
            assert pairing_moment_exact(Word((1, 1)), Word((1, 2)), kind, 3) == 0

    def test_cross_pairing_value(self):
        kind = BoundaryKind.polydisc(2)
        for n_dim in (1, 2, 4, 8, 16):
            got = pairing_moment_exact(Word((1, 2)), Word((2, 1)), kind, n_dim)
            assert got == Fraction(1, n_dim)

    def test_ball_degree_one(self):
        for m in (1, 2, 3):
            kind = BoundaryKind.ball_column(m)
            for n_dim in (1, 2, 3):
                got = pairing_moment_exact(Word((1,)), Word((1,)), kind, n_dim)
                assert got == Fraction(n_dim, m)

    def test_ball_degree_two_closed_form(self):
        kind = BoundaryKind.ball_column(2)
        for n_dim in (1, 2, 3, 4):
            got = pairing_moment_exact(Word((1, 2)), Word((1, 2)), kind, n_dim)
            want = Fraction(n_dim * (2 * n_dim ** 2 - 1), 2 * (4 * n_dim ** 2 - 1))
            assert got == want

    def test_row_ball_matches_column_ball(self):
        words = all_words(2, 2)
        col = BoundaryKind.ball_column(2)
        row = BoundaryKind.ball_row(2)
        for w in words:
            for v in words:
                for n_dim in (1, 2):
                    assert pairing_moment_exact(w, v, col, n_dim) == pairing_moment_exact(
                        w, v, row, n_dim
                    )

    def test_brute_force_chain_oracle_polydisc(self):
        words = all_words(2, 2)
        kind = BoundaryKind.polydisc(2)
        for n_dim in (2, 3):
            for w in words:
                for v in words:
                    got = pairing_moment_exact(w, v, kind, n_dim)
                    assert got == brute_pairing(w, v, kind, n_dim)

    def test_brute_force_chain_oracle_polydisc_degree_three(self):
        words = all_words(2, 3)
        kind = BoundaryKind.polydisc(2)
        for w in words:
            for v in words:
                if len(w) < 3 and len(v) < 3:
                    continue
                got = pairing_moment_exact(w, v, kind, 2)
                assert got == brute_pairing(w, v, kind, 2), (w, v)

    def test_pairing_symmetric_in_word_arguments(self):
        # the integrals are real, so swapping w and v leaves them unchanged
        words = [Word(t) for t in [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]]
        for kind in (
            BoundaryKind.polydisc(2), BoundaryKind.ball_column(2), BoundaryKind.ball_row(2)
        ):
            for w in words:
                for v in words:
                    assert pairing_moment_exact(w, v, kind, 3) == pairing_moment_exact(
                        v, w, kind, 3
                    )

    def test_ball_degree_three_limit_trend(self):
        # normalized diagonal pairings approach 1/m^|w|
        kind = BoundaryKind.ball_column(2)
        w = Word((1, 2, 1))
        gaps = []
        for n_dim in (2, 4, 8, 16):
            val = float(pairing_moment_exact(w, w, kind, n_dim)) / n_dim
            gaps.append(abs(val - 0.125))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.001

    def test_brute_force_chain_oracle_ball(self):
        words = all_words(2, 2)
        for family in (BoundaryKind.ball_column(2), BoundaryKind.ball_row(2)):
            for n_dim in (1, 2):
                for w in words:
                    for v in words:
                        got = pairing_moment_exact(w, v, family, n_dim)
                        assert got == brute_pairing(w, v, family, n_dim)

    @pytest.mark.parametrize("family, m, w, v, N, want", GOLDEN_PAIRINGS)
    def test_golden_values(self, family, m, w, v, N, want):
        kind = BoundaryKind(family, m)
        assert pairing_moment_exact(Word(w), Word(v), kind, N, WeingartenTable()) == want
        assert pairing_moment_exact(Word(v), Word(w), kind, N, WeingartenTable()) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_short_words_against_chain_oracle(self, data):
        family = data.draw(st.sampled_from(["polydisc", "ball_column", "ball_row"]))
        m = data.draw(st.integers(1, 3))
        letters = st.lists(st.integers(1, m), max_size=3)
        w = data.draw(letters)
        v = data.draw(st.one_of(st.permutations(w), letters))
        N = data.draw(st.integers(1, 3))
        kind = BoundaryKind(family, m)
        got = pairing_moment_exact(Word(w), Word(v), kind, N, DEFAULT_TABLE)
        assert got == brute_pairing(Word(w), Word(v), kind, N)
        assert got == pairing_moment_exact(Word(w), Word(v), kind, N, WeingartenTable())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_polydisc_at_dimension_one_is_torus_integral(self, data):
        # N = 1: the m unitaries are independent uniform phases, so the
        # pairing is 1 if every letter occurs equally often in w and v, else 0
        m = data.draw(st.integers(1, 3))
        w = data.draw(st.lists(st.integers(1, m), max_size=6))
        v = data.draw(st.one_of(st.permutations(w), st.lists(st.integers(1, m), max_size=6)))
        got = pairing_moment_exact(Word(w), Word(v), BoundaryKind.polydisc(m), 1)
        assert got == (1 if Counter(w) == Counter(v) else 0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ball_at_dimension_one_is_sphere_moment(self, data):
        # N = 1: the letters are the coordinates of a uniform point of the
        # unit sphere in C^m, whose moments are alpha! (m-1)! / (m-1+|alpha|)!
        # for the letter counts alpha, including m < |w|
        family = data.draw(st.sampled_from(["ball_column", "ball_row"]))
        m = data.draw(st.integers(1, 3))
        w = data.draw(st.lists(st.integers(1, m), max_size=6))
        v = data.draw(st.one_of(st.permutations(w), st.lists(st.integers(1, m), max_size=6)))
        want = 0
        if Counter(w) == Counter(v):
            alpha = Counter(w).values()
            want = Fraction(
                prod(factorial(k) for k in alpha) * factorial(m - 1), factorial(m - 1 + len(w))
            )
        assert pairing_moment_exact(Word(w), Word(v), BoundaryKind(family, m), 1) == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_letter_relabelling_invariance(self, data):
        # permuting the letters permutes independent unitaries (polydisc) or
        # the blocks of one Haar unitary (balls); Haar measure sees neither
        family = data.draw(st.sampled_from(["polydisc", "ball_column", "ball_row"]))
        m = data.draw(st.integers(1, 3))
        w = data.draw(st.lists(st.integers(1, m), max_size=5))
        v = data.draw(st.one_of(st.permutations(w), st.lists(st.integers(1, m), max_size=5)))
        pi = data.draw(st.permutations(range(1, m + 1)))
        N = data.draw(st.integers(1, 3))
        kind = BoundaryKind(family, m)
        relabel = lambda word: Word(pi[x - 1] for x in word)
        assert pairing_moment_exact(relabel(w), relabel(v), kind, N) == pairing_moment_exact(
            Word(w), Word(v), kind, N
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cancellation_identities(self, data):
        # polydisc: X_a is unitary, so a letter added at either end of both
        # words cancels; column ball: sum_a X_a* X_a = I cancels a common first
        # letter summed over a; row ball: sum_a X_a X_a* = I cancels a common
        # last letter.  N runs below the threshold too.
        family = data.draw(st.sampled_from(["polydisc", "ball_column", "ball_row"]))
        m = data.draw(st.integers(1, 3))
        w = data.draw(st.lists(st.integers(1, m), max_size=4))
        v = data.draw(st.one_of(st.permutations(w), st.lists(st.integers(1, m), max_size=4)))
        N = data.draw(st.integers(1, 3))
        kind = BoundaryKind(family, m)
        want = pairing_moment_exact(Word(w), Word(v), kind, N)

        def pair(a, b):
            return pairing_moment_exact(Word(a), Word(b), kind, N)

        letters = range(1, m + 1)
        if family == "polydisc":
            for a in letters:
                assert pair([a, *w], [a, *v]) == want
                assert pair([*w, a], [*v, a]) == want
        elif family == "ball_column":
            assert sum(pair([a, *w], [a, *v]) for a in letters) == want
        else:
            assert sum(pair([*w, a], [*v, a]) for a in letters) == want

    def test_multiplicity_and_dimension_guards(self):
        long_word = Word((1,) * 7)
        with pytest.raises(MultiplicityLimitError):
            pairing_moment_exact(long_word, long_word, BoundaryKind.polydisc(1), 10)
        with pytest.raises(MultiplicityLimitError):
            pairing_moment_exact(long_word, long_word, BoundaryKind.ball_column(2), 10)

    def test_multiplicity_refused_before_any_enumeration(self, monkeypatch):
        def no_edges(*args, **kwargs):
            raise AssertionError("a permutation was enumerated")

        monkeypatch.setattr("nc_hardy.weingarten._add_edges", no_edges)
        w = Word((1,) * 7 + (2,) * 6)
        v = Word((2,) * 6 + (1,) * 7)
        with pytest.raises(MultiplicityLimitError):
            pairing_moment_exact(w, v, BoundaryKind.polydisc(2), 3, WeingartenTable())

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetMismatchError):
            pairing_moment_exact(Word((3,)), Word((3,)), BoundaryKind.polydisc(2), 2)

    def test_concurrent_table_access(self):
        # fresh table exercised from several threads; single-writer cache must
        # hand every reader identical exact values
        from concurrent.futures import ThreadPoolExecutor

        table = WeingartenTable()
        kind = BoundaryKind.polydisc(2)
        words = [Word((1, 2)), Word((2, 1)), Word((1, 1)), Word((1, 2, 1))]

        def job(idx):
            w = words[idx % len(words)]
            v = words[(idx + 1) % len(words)]
            return pairing_moment_exact(w, v, kind, 3, table)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(64)))
        for idx, got in enumerate(results):
            w = words[idx % len(words)]
            v = words[(idx + 1) % len(words)]
            assert got == pairing_moment_exact(w, v, kind, 3)


class TestSesquilinear:
    def test_single_letter(self):
        f = NcSeries(2, {(1,): 1.0})
        kind = BoundaryKind.polydisc(2)
        for n_dim in (1, 2, 5):
            for r in (0.25, 1.0):
                got = sesquilinear_moment_exact(f, f, r, kind, n_dim)
                assert abs(got - r ** 2) < 1e-15

    def test_crossterm_value(self):
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        kind = BoundaryKind.polydisc(2)
        for n_dim in (1, 2, 4, 8):
            got = sesquilinear_moment_exact(f, f, 1.0, kind, n_dim)
            assert abs(got - 2 * (1 + 1 / n_dim ** 2)) < 1e-12
            assert abs(got.imag) < 1e-15
        assert sesquilinear_moment_exact(f, f, 1.0, kind, 2) == 2.5

    def test_r_scaling_is_degree_four(self):
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        kind = BoundaryKind.polydisc(2)
        for r in (0.3, 0.5):
            got = sesquilinear_moment_exact(f, f, r, kind, 4)
            assert abs(got - r ** 4 * 2 * (1 + 1 / 16)) < 1e-13

    def test_zero_series(self):
        z = NcSeries.zero(2)
        assert sesquilinear_moment_exact(z, z, 1.0, BoundaryKind.polydisc(2), 3) == 0

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            sesquilinear_moment_exact(
                NcSeries.zero(2), NcSeries.zero(3), 1.0, BoundaryKind.polydisc(2), 2
            )

    def test_non_finite_r_rejected_before_any_pairing(self, monkeypatch):
        def no_pairing(*args, **kwargs):
            raise AssertionError("a pairing ran")

        monkeypatch.setattr("nc_hardy.weingarten.pairing_moment_exact", no_pairing)
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        for r in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"r must be finite, got {r}"):
                sesquilinear_moment_exact(f, f, r, BoundaryKind.polydisc(2), 4)

    def test_radius_outside_unit_interval_allowed(self):
        # the integrand is a polynomial in r, so any finite r is legal here
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        kind = BoundaryKind.polydisc(2)
        unit = sesquilinear_moment_exact(f, f, 1.0, kind, 4)
        for r in (-0.5, 2.0):
            assert sesquilinear_moment_exact(f, f, r, kind, 4) == r ** 4 * unit


class TestLevelCheck:
    """Every exact entry takes an integer level N >= 1, numpy integers included."""

    W, KIND = Word((1, 2, 1)), BoundaryKind.polydisc(2)
    F = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})

    def test_non_integer_level_refused(self):
        for n_dim in (2.7, 3.0, Fraction(3)):
            with pytest.raises(ValueError, match="N must be an integer"):
                pairing_moment_exact(self.W, self.W, self.KIND, n_dim)
            with pytest.raises(ValueError, match="N must be an integer"):
                sesquilinear_moment_exact(self.F, self.F, 1.0, self.KIND, n_dim)
            with pytest.raises(ValueError, match="N must be an integer"):
                haar_entry_moment([(1, 1)], [(1, 1)], n_dim)
            with pytest.raises(ValueError, match="N must be an integer"):
                WeingartenTable().values(2, n_dim)

    def test_numpy_integer_level_accepted(self):
        for n_dim in (1, 3):
            assert pairing_moment_exact(self.W, self.W, self.KIND, np.int64(n_dim)) == (
                pairing_moment_exact(self.W, self.W, self.KIND, n_dim)
            )
            assert sesquilinear_moment_exact(self.F, self.F, 1.0, self.KIND, np.int32(n_dim)) == (
                sesquilinear_moment_exact(self.F, self.F, 1.0, self.KIND, n_dim)
            )
        assert WeingartenTable().values(2, np.int64(3)) == DEFAULT_TABLE.values(2, 3)
