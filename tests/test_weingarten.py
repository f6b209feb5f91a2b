from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_words, brute_pairing
from nc_hardy import (
    AlphabetMismatchError,
    DEFAULT_TABLE,
    BoundaryKind,
    GramSingularityError,
    MultiplicityLimitError,
    NcSeries,
    WeingartenTable,
    Word,
    haar_entry_moment,
    pairing_moment_exact,
    sesquilinear_moment_exact,
)
from nc_hardy.weingarten import _cycle_type0, _invert0

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
        # independent route: invert the full n! x n! Gram matrix in floats
        table = WeingartenTable()
        for order in (2, 3, 4):
            perms = list(permutations(range(order)))
            ident = perms.index(tuple(range(order)))
            for n_dim in (order, order + 2, 8):
                gram = np.empty((len(perms), len(perms)))
                for i, a in enumerate(perms):
                    binvs = None
                    for j, b in enumerate(perms):
                        binv = _invert0(b)
                        comp = tuple(a[binv[k]] for k in range(order))
                        gram[i, j] = float(n_dim) ** len(_cycle_type0(comp))
                inv_col = np.linalg.solve(gram, np.eye(len(perms))[:, ident])
                vals = table.values(order, n_dim)
                for idx, perm in enumerate(perms):
                    exact = float(vals[_cycle_type0(perm)])
                    assert abs(inv_col[idx] - exact) < 1e-8

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sigma = rng.permutation(4).tolist()
            pi = rng.permutation(4).tolist()
            pinv = _invert0(pi)
            conj = [pi[sigma[pinv[k]]] for k in range(4)]
            assert DEFAULT_TABLE.wg(4, 6, _cycle_type0(sigma)) == DEFAULT_TABLE.wg(
                4, 6, _cycle_type0(conj)
            )

    def test_defining_relation_residual(self):
        table = WeingartenTable()
        for order in (2, 3, 4):
            perms = list(permutations(range(order)))
            ident = perms.index(tuple(range(order)))
            for n_dim in (order, order + 3):
                vals = table.values(order, n_dim)
                wg_vec = np.array([float(vals[_cycle_type0(p)]) for p in perms])
                gram = np.empty((len(perms), len(perms)))
                for i, a in enumerate(perms):
                    for j, b in enumerate(perms):
                        binv = _invert0(b)
                        comp = tuple(a[binv[k]] for k in range(order))
                        gram[i, j] = float(n_dim) ** len(_cycle_type0(comp))
                resid = gram @ wg_vec - np.eye(len(perms))[:, ident]
                assert np.max(np.abs(resid)) <= 1e-10

    def test_asymptotic_order(self):
        # |Wg(N, sigma)| * N^(2n - #sigma) converges; adjacent doublings agree to 5%
        table = WeingartenTable()
        for order in (2, 3, 4):
            from nc_hardy import partitions

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
        # M = N the Gram relation makes it the indicator of the identity class
        table = WeingartenTable()
        for order in (1, 2, 3, 4):
            perms = list(permutations(range(order)))
            for big, small in ((order, order), (order + 2, order + 2), (2 * order, 2), (5, 1)):
                wg = table.values(order, big)
                got = table.free_sums(order, big, small)
                for y in perms:
                    want = sum(
                        wg[_cycle_type0(pi)]
                        * small ** len(_cycle_type0([y[p] for p in pi]))
                        for pi in perms
                    )
                    assert got[_cycle_type0(y)] == want
                    if big == small:
                        assert want == (1 if y == tuple(range(order)) else 0)

    def test_singular_regime_rejected(self):
        table = WeingartenTable()
        with pytest.raises(GramSingularityError):
            table.values(3, 2)

    def test_order_limit(self):
        table = WeingartenTable(max_n=6)
        with pytest.raises(MultiplicityLimitError):
            table.values(7, 10)


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


class TestPairingExact:
    def test_telescoping_identity(self):
        kind = BoundaryKind.polydisc(2)
        for w in (Word(), Word((1,)), Word((1, 2)), Word((1, 1, 2)), Word((2, 2, 2))):
            for n_dim in (1, 2, 3, 5) if len(w) == 0 else (3, 5):
                n_req = max([w.letters.count(k) for k in set(w.letters)] or [1])
                if n_dim < n_req:
                    continue
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
                try:
                    got = pairing_moment_exact(w, v, kind, 2)
                except GramSingularityError:
                    # letter multiplicity 3 exceeds N = 2
                    continue
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
        if family == "polydisc":
            need = max([w.count(x) for x in w] + [v.count(x) for x in v] + [1])
        else:
            need = -(-max(len(w), len(v), 1) // m)
        N = data.draw(st.integers(need, 3))
        kind = BoundaryKind(family, m)
        got = pairing_moment_exact(Word(w), Word(v), kind, N, DEFAULT_TABLE)
        assert got == brute_pairing(Word(w), Word(v), kind, N)
        assert got == pairing_moment_exact(Word(w), Word(v), kind, N, WeingartenTable())

    def test_multiplicity_and_dimension_guards(self):
        kind = BoundaryKind.polydisc(1)
        with pytest.raises(GramSingularityError):
            pairing_moment_exact(Word((1, 1)), Word((1, 1)), kind, 1)
        long_word = Word((1,) * 7)
        with pytest.raises(MultiplicityLimitError):
            pairing_moment_exact(long_word, long_word, kind, 10)
        with pytest.raises(GramSingularityError):
            pairing_moment_exact(
                Word((1, 1, 2)), Word((1, 2, 1)), BoundaryKind.ball_column(2), 1
            )

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
