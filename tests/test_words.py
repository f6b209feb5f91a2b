import json
import math

import numpy as np
import pytest

from conftest import all_words, random_series, random_tuple
from nc_hardy import (
    AlphabetMismatchError,
    EMPTY_WORD,
    MatrixTuple,
    NcSeries,
    SeriesFormatError,
    SpectralConditionError,
    Word,
    direct_sum,
    l2p_norm,
    series_eval,
    series_eval_tail_bounded,
    similarity,
    word_eval,
)
from nc_hardy.words import _series_sums


class TestWord:
    def test_basics(self):
        w = Word((1, 2, 1))
        assert len(w) == 3
        assert w.letters == (1, 2, 1)
        assert len(EMPTY_WORD) == 0
        assert Word() == EMPTY_WORD

    def test_invalid_letters(self):
        with pytest.raises(ValueError):
            Word((0, 1))
        with pytest.raises(ValueError):
            Word((-1,))
        with pytest.raises(ValueError):
            Word((256,))
        with pytest.raises(ValueError):
            Word(3)  # bytes(int) would silently mean zero letters

    def test_graded_order(self):
        words = [Word((2,)), Word(), Word((1, 1)), Word((1,)), Word((1, 2))]
        ordered = sorted(words)
        assert ordered == [Word(), Word((1,)), Word((2,)), Word((1, 1)), Word((1, 2))]

    def test_concat_is_monoid(self):
        u, v = Word((1, 2)), Word((2, 1, 1))
        assert (u * v).letters == (1, 2, 2, 1, 1)
        assert u * EMPTY_WORD == u
        assert EMPTY_WORD * v == v
        assert (u * v) * u == u * (v * u)


class TestWordEval:
    def test_empty_word_gives_identity(self):
        X = MatrixTuple([np.array([[1, 2], [3, 4]])])
        assert np.array_equal(word_eval(X, EMPTY_WORD), np.eye(2))

    def test_identity_factors(self):
        X = MatrixTuple([np.eye(2), np.eye(2)])
        assert np.allclose(word_eval(X, Word((1, 2, 1))), np.eye(2))

    def test_scalar_product(self):
        X = MatrixTuple([np.array([[2.0]]), np.array([[3.0]])])
        got = word_eval(X, Word((1, 2, 2)))
        assert got.shape == (1, 1)
        assert got[0, 0] == 18.0

    def test_alphabet_mismatch(self):
        X = MatrixTuple([np.eye(2)])
        with pytest.raises(AlphabetMismatchError):
            word_eval(X, Word((2,)))

    def test_concat_multiplicativity(self):
        rng = np.random.default_rng(11)
        X = random_tuple(rng, 2, 3)
        for _ in range(20):
            u = Word(rng.integers(1, 3, size=int(rng.integers(0, 4))).tolist())
            v = Word(rng.integers(1, 3, size=int(rng.integers(0, 4))).tolist())
            lhs = word_eval(X, u * v)
            rhs = word_eval(X, u) @ word_eval(X, v)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestNcSeries:
    def test_canonical_form_drops_zeros(self):
        f = NcSeries(2, {(1,): 1.0, (2,): 0.0})
        assert Word((2,)) not in f.coeffs
        assert f[(1,)] == 1.0
        assert f[(2,)] == 0j

    def test_duplicate_keys_accumulate(self):
        f = NcSeries(2, {Word((1,)): 1.0, (1,): 2.0})
        assert f[(1,)] == 3.0
        g = NcSeries(2, {Word((1,)): 1.0, (1,): -1.0})
        assert g == NcSeries.zero(2)

    def test_degree(self):
        assert NcSeries.zero(2).degree() == 0
        assert NcSeries(2, {(1, 2, 1): 1.0}).degree() == 3

    def test_letter_validation(self):
        with pytest.raises(AlphabetMismatchError):
            NcSeries(1, {(2,): 1.0})

    def test_algebra(self):
        f = NcSeries(2, {(1,): 1.0})
        g = NcSeries(2, {(1,): -1.0, (2,): 2.0})
        assert (f + g) == NcSeries(2, {(2,): 2.0})
        assert (2 * f) == NcSeries(2, {(1,): 2.0})
        assert (f - f) == NcSeries.zero(2)

    def test_items_canonical_order(self):
        f = NcSeries(2, {(1, 1): 1.0, (2,): 1.0, (): 1.0})
        assert [w for w, _ in f.items()] == [Word(), Word((2,)), Word((1, 1))]

    def test_json_round_trip(self):
        f = NcSeries(2, {(1, 2): 1.0 + 2.0j, (): -0.5})
        blob = json.dumps(f.to_json_dict())
        assert NcSeries.from_json_dict(json.loads(blob)) == f

    def test_json_term_errors_name_index(self):
        data = {"m": 2, "terms": [{"word": [1], "re": 1.0}, {"word": [1, 9], "re": 1.0}]}
        with pytest.raises(SeriesFormatError, match="term 1"):
            NcSeries.from_json_dict(data)
        with pytest.raises(SeriesFormatError, match="term 0"):
            NcSeries.from_json_dict({"m": 2, "terms": [{"word": [1]}]})
        with pytest.raises(SeriesFormatError):
            NcSeries.from_json_dict({"m": 2})

    def test_json_alphabet_size_must_be_a_json_integer(self):
        for m in (True, 1.5, 2.0, "1"):
            with pytest.raises(SeriesFormatError, match='"m" must be an integer'):
                NcSeries.from_json_dict({"m": m, "terms": [{"word": [1], "re": 1.0}]})
        with pytest.raises(SeriesFormatError, match="positive"):
            NcSeries.from_json_dict({"m": 0, "terms": []})


class TestSeriesEval:
    def test_single_linear_term(self):
        f = NcSeries(2, {(1,): 3.0})
        X = MatrixTuple([np.eye(2), np.zeros((2, 2))])
        assert np.allclose(series_eval(f, X, 1.0), 3 * np.eye(2))

    def test_commutator_free_sum(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        got = series_eval(f, MatrixTuple([a, b]), 1.0)
        assert np.allclose(got, a @ b + b @ a)

    def test_scalar_geometric_sum(self):
        # all 7 words of length <= 2 over two letters, scalar point (0.1, 0.1)
        words = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        f = NcSeries(2, {w: 1.0 for w in words})
        X = MatrixTuple([np.array([[0.1]]), np.array([[0.1]])])
        expected = sum(0.1 ** len(w) for w in words)  # 1 + 0.2 + 0.04
        got = series_eval(f, X, 1.0)[0, 0]
        assert abs(got - expected) < 1e-15
        assert abs(expected - 1.24) < 1e-15

    def test_r_scaling(self):
        f = NcSeries(1, {(1, 1): 1.0})
        X = MatrixTuple([np.array([[2.0]])])
        assert abs(series_eval(f, X, 0.5)[0, 0] - 1.0) < 1e-15

    def test_matches_unbatched_reference(self):
        # word_eval, series_eval and the Monte Carlo integrand share one prefix
        # trie walk; every sum must match a plain left-to-right product loop
        # over f.items() bit for bit: on a batch of one, on a batch of several
        # points, and for two series summed in one walk.
        def product_loop(X, f, r):
            want = np.zeros((X.n, X.n), dtype=complex)
            for w, c in f.items():
                prod = np.eye(X.n, dtype=complex)
                for letter in w:
                    prod = prod @ X.entries[letter - 1]
                want += c * (r ** len(w)) * prod
                assert np.array_equal(word_eval(X, w), prod)
            return want

        rng = np.random.default_rng(17)
        for trial in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(0, 9))
            f = random_series(rng, m, 4, 6)
            # Only words of length 3 and 4: their proper prefixes are trie
            # nodes that are not words of g.
            g_words = [tuple(rng.integers(1, m + 1, size=size).tolist()) for size in (3, 4, 4)]
            g = NcSeries(m, {w: complex(*rng.standard_normal(2)) for w in g_words})
            points = [random_tuple(rng, m, n) for _ in range(1 + trial % 4)]
            r_f, r_g = (float(x) for x in rng.uniform(0.2, 1.0, size=2))
            assert np.array_equal(series_eval(f, points[0], r_f), product_loop(points[0], f, r_f))
            xs = np.stack([np.stack(X.entries) for X in points])
            f_sums, g_sums = _series_sums(xs, [(f, r_f), (g, r_g)])
            for X, fx, gx in zip(points, f_sums, g_sums):
                assert np.array_equal(fx, product_loop(X, f, r_f))
                assert np.array_equal(gx, product_loop(X, g, r_g))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            series_eval(NcSeries(2, {(1,): 1.0}), MatrixTuple([np.eye(2)]), 1.0)


class TestDirectSum:
    def test_scalars(self):
        X = MatrixTuple([np.array([[2.0]])])
        Y = MatrixTuple([np.array([[3.0]])])
        assert np.array_equal(direct_sum(X, Y).entries[0], np.diag([2.0 + 0j, 3.0]))

    def test_zero_dim_neutral(self):
        X = MatrixTuple([np.eye(2), 2 * np.eye(2)])
        Z = MatrixTuple([np.zeros((0, 0)), np.zeros((0, 0))])
        out = direct_sum(X, Z)
        assert out.n == 2
        for a, b in zip(out.entries, X.entries):
            assert np.array_equal(a, b)

    def test_word_eval_respects_blocks(self):
        rng = np.random.default_rng(3)
        X = random_tuple(rng, 2, 2)
        Y = random_tuple(rng, 2, 2)
        w = Word((1, 2))
        got = word_eval(direct_sum(X, Y), w)
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = word_eval(X, w)
        want[2:, 2:] = word_eval(Y, w)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_series_eval_respects_blocks(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            f = random_series(rng, m, 3, 4)
            X = random_tuple(rng, m, int(rng.integers(1, 4)))
            Y = random_tuple(rng, m, int(rng.integers(1, 4)))
            got = series_eval(f, direct_sum(X, Y))
            want = np.zeros((X.n + Y.n, X.n + Y.n), dtype=complex)
            want[: X.n, : X.n] = series_eval(f, X)
            want[X.n :, X.n :] = series_eval(f, Y)
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            direct_sum(MatrixTuple([np.eye(2)]), MatrixTuple([np.eye(2), np.eye(2)]))


class TestSimilarity:
    def test_identity_and_scalar_T(self):
        rng = np.random.default_rng(6)
        X = random_tuple(rng, 2, 3)
        for T in (np.eye(3), 2 * np.eye(3)):
            out = similarity(X, T)
            for a, b in zip(out.entries, X.entries):
                assert np.allclose(a, b, atol=1e-14)

    def test_conjugation_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            f = random_series(rng, m, 3, 4)
            X = random_tuple(rng, m, n)
            while True:
                T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                if np.linalg.cond(T) <= 1e3:
                    break
            got = series_eval(f, similarity(X, T))
            want = T @ series_eval(f, X) @ np.linalg.inv(T)
            assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))

    def test_singular_T_rejected(self):
        X = MatrixTuple([np.eye(2)])
        with pytest.raises(np.linalg.LinAlgError):
            similarity(X, np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestL2pNorm:
    def test_zero(self):
        assert l2p_norm(NcSeries.zero(2), 1.0) == 0.0

    def test_unit_coefficients(self):
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        assert l2p_norm(f, 1.0) == math.sqrt(2.0)
        assert l2p_norm(f, 2.0) == math.sqrt(0.5)
        assert l2p_norm(NcSeries(2, {(1,): 2.0}), 4.0) == 1.0

    def test_direct_sum_agreement(self):
        rng = np.random.default_rng(8)
        f = random_series(rng, 2, 3, 6)
        direct = sum(abs(c) ** 2 for c in f.coeffs.values())
        assert abs(l2p_norm(f, 1.0) ** 2 - direct) <= 1e-13 * max(1.0, direct)

    def test_domain_error(self):
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                l2p_norm(NcSeries.zero(1), p)


class TestTailBoundedEval:
    def test_zero_series(self):
        X = MatrixTuple([0.5 * np.eye(2), np.zeros((2, 2))])
        value, tail = series_eval_tail_bounded(NcSeries.zero(2), X, 1.0, 5)
        assert np.array_equal(value, np.zeros((2, 2)))
        assert tail == 0.0

    def test_scalar_geometric_limit(self):
        # f_w = 1 for every word, x = 0.5: partial sums -> 2.  The stated norm
        # is finite only for p > 1; p = 2 keeps theta = 0.5 < 1.
        X = MatrixTuple([np.array([[0.5]])])
        norm = math.sqrt(2.0)  # sum_l 2^{-l} = 2
        prev_tail = None
        for L in (5, 10, 20):
            value, tail = series_eval_tail_bounded(
                lambda w: 1.0, X, 2.0, L, coeff_norm=norm
            )
            partial = value[0, 0].real
            assert abs(partial - (2.0 - 0.5 ** L)) < 1e-12
            assert abs(2.0 - partial) <= tail
            if prev_tail is not None:
                assert tail < prev_tail
            prev_tail = tail
        assert prev_tail < 1e-2

    def test_stated_bound_value(self):
        # theta = 0.25, ||f|| = 1, L = 10: bound = 0.25^5.5 / (1 - 0.5) = 2^-10
        X = MatrixTuple([np.array([[0.5]])])
        _, tail = series_eval_tail_bounded(lambda w: 0.0, X, 1.0, 10, coeff_norm=1.0)
        assert abs(tail - 0.0009765625) < 1e-18

    def test_bound_dominates_truncation_error(self):
        from nc_hardy import spectral_theta

        rng = np.random.default_rng(9)
        for _ in range(10):
            f = random_series(rng, 2, 4, 6)
            X = random_tuple(rng, 2, 2)
            X = X.scale(math.sqrt(0.5 / spectral_theta(X, 1.0)))
            full = series_eval(f, X)
            value, tail = series_eval_tail_bounded(f, X, 1.0, 2)
            assert np.linalg.norm(full - value, ord=2) <= tail + 1e-12

    def test_matches_series_eval_beyond_degree(self):
        rng = np.random.default_rng(10)
        f = random_series(rng, 2, 3, 5)
        X = random_tuple(rng, 2, 2, scale=0.3)
        value, _ = series_eval_tail_bounded(f, X, 1.0, 6)
        direct = series_eval(f, X)
        assert np.linalg.norm(value - direct) <= 1e-13 * max(1.0, np.linalg.norm(direct))

    def test_one_term_series_far_beyond_its_degree(self):
        # Words longer than the series' degree have zero coefficients, so
        # the value is series_eval's; the tail still charges degree 14.
        from nc_hardy import spectral_theta

        rng = np.random.default_rng(11)
        X = random_tuple(rng, 2, 3)
        X = X.scale(math.sqrt(0.5 / spectral_theta(X, 1.0)))
        f = NcSeries(2, {(1, 2, 1): 0.5 - 0.3j})
        value, tail = series_eval_tail_bounded(f, X, 1.0, 14)
        assert np.array_equal(value, series_eval(f, X))
        theta = spectral_theta(X, 1.0)
        assert tail == l2p_norm(f, 1.0) * theta ** 7.5 / (1.0 - math.sqrt(theta))

        # A callable source sums every word through its depth, in graded
        # order, each product built left to right from its first letter.
        coeff = lambda w: complex(0.5 ** len(w), 0.1 * sum(w.letters) - 0.2)
        value, _ = series_eval_tail_bounded(coeff, X, 1.0, 4, coeff_norm=3.0)
        expected = coeff(Word()) * np.eye(3, dtype=complex)
        for w in all_words(2, 4)[1:]:
            prod = X.entries[w.letters[0] - 1]
            for k in w.letters[1:]:
                prod = prod @ X.entries[k - 1]
            expected += coeff(w) * prod
        assert np.array_equal(value, expected)

    def test_spectral_precondition(self):
        X = MatrixTuple([np.eye(2)])
        with pytest.raises(SpectralConditionError):
            series_eval_tail_bounded(NcSeries.zero(1), X, 1.0, 4)

    def test_callable_requires_norm(self):
        X = MatrixTuple([np.array([[0.1]])])
        with pytest.raises(ValueError):
            series_eval_tail_bounded(lambda w: 1.0, X, 1.0, 3)
        # the norm must be finite and nonnegative, and only a callable takes one
        for norm in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                series_eval_tail_bounded(lambda w: 1.0, X, 1.0, 3, coeff_norm=norm)
        with pytest.raises(ValueError):
            series_eval_tail_bounded(NcSeries.zero(1), X, 1.0, 3, coeff_norm=1.0)
        for p in (math.nan, math.inf):
            with pytest.raises(ValueError):
                series_eval_tail_bounded(NcSeries.zero(1), X, p, 3)

    def test_max_degree_must_be_an_integer(self):
        X = MatrixTuple([np.array([[0.1]])])
        for source, norm in ((NcSeries(1, {(1,): 1.0}), None), (lambda w: 1.0, 1.0)):
            with pytest.raises(ValueError, match="max_degree must be an integer, got 2.5"):
                series_eval_tail_bounded(source, X, 1.0, 2.5, coeff_norm=norm)
            with pytest.raises(ValueError, match="max_degree must be >= 0"):
                series_eval_tail_bounded(source, X, 1.0, -1, coeff_norm=norm)
            assert series_eval_tail_bounded(source, X, 1.0, np.int64(3), coeff_norm=norm)[1] == (
                series_eval_tail_bounded(source, X, 1.0, 3, coeff_norm=norm)[1]
            )
