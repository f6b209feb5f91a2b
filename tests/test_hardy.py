import math

import numpy as np
import pytest

from conftest import all_words, random_series, random_tuple
from nc_hardy import (
    AlphabetMismatchError,
    BoundaryKind,
    MatrixTuple,
    NcSeries,
    SeededStream,
    SpaceKind,
    Word,
    boundary_norm_profile,
    coeff_recover,
    inner_product,
    kernel_eval,
    kernel_section_gram,
    l2p_norm,
    mc_pairing,
    pairing_grid,
    radial_pairing,
    reproduce_check,
    sesquilinear_moment_exact,
    spectral_theta,
    upsilon_membership,
    word_eval,
)

CROSSTERM = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})


def _no_cell(*args, **kwargs):
    raise AssertionError("a cell ran")


class TestInnerProduct:
    def test_monomial_orthonormality_polydisc(self):
        kind = SpaceKind.polydisc(2)
        words = all_words(2, 3)
        for w in words:
            for v in words:
                got = inner_product(
                    NcSeries.monomial(2, w), NcSeries.monomial(2, v), kind
                )
                assert got == (1.0 if w == v else 0.0)

    def test_ball_normalized_orthonormality(self):
        for m in (2, 3):
            kind = SpaceKind.ball(m)
            words = all_words(m, 3)
            for w in words:
                for v in words:
                    ip = inner_product(
                        NcSeries.monomial(m, w), NcSeries.monomial(m, v), kind
                    )
                    total = len(w) + len(v)
                    norm = m ** (total // 2) if total % 2 == 0 else math.sqrt(m ** total)
                    assert norm * ip == (1.0 if w == v else 0.0)

    def test_crossterm_values(self):
        assert inner_product(CROSSTERM, CROSSTERM, SpaceKind.polydisc(2)) == 2.0
        assert inner_product(CROSSTERM, CROSSTERM, SpaceKind.ball(2)) == 0.5

    def test_parseval_consistency(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            f = random_series(rng, m, 3, 5)
            poly = inner_product(f, f, SpaceKind.polydisc(m)).real
            ball = inner_product(f, f, SpaceKind.ball(m)).real
            assert abs(poly - l2p_norm(f, 1.0) ** 2) <= 1e-12 * max(1.0, poly)
            assert abs(ball - l2p_norm(f, float(m)) ** 2) <= 1e-12 * max(1.0, ball)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            inner_product(NcSeries.zero(2), NcSeries.zero(2), SpaceKind.ball(3))


class TestRadialPairing:
    def test_single_letter(self):
        got = radial_pairing(
            NcSeries.monomial(2, (1,)), NcSeries.monomial(2, (1,)), SpaceKind.polydisc(2), [0.3, 1.0]
        )
        assert got == ((0.3, complex(0.3 ** 2)), (1.0, complex(1.0)))

    def test_crossterm_degree_four(self):
        vals = radial_pairing(CROSSTERM, CROSSTERM, SpaceKind.polydisc(2), [0.5, 1.0])
        assert abs(vals[0][1] - 2 * 0.5 ** 4) < 1e-15
        assert vals[1][1] == inner_product(CROSSTERM, CROSSTERM, SpaceKind.polydisc(2))

    def test_zero(self):
        vals = radial_pairing(CROSSTERM, NcSeries.zero(2), SpaceKind.polydisc(2), [0.5])
        assert vals[0][1] == 0j

    def test_non_finite_r_rejected(self):
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError):
                radial_pairing(CROSSTERM, CROSSTERM, SpaceKind.polydisc(2), [0.5, r])


class TestCoeffRecover:
    F = NcSeries(2, {(): 0.5, (1,): 1.0 - 0.5j, (1, 2): 1.0, (2, 1): -0.75 + 0.3j})

    def test_linear_term_exact_everywhere(self):
        f = NcSeries(2, {(1,): 3.0})
        report = coeff_recover(f, Word((1,)), 0.9, SpaceKind.polydisc(2), [1, 2, 4])
        assert all(cell.value == 3.0 for cell in report.cells)
        assert report.recovered == 3.0

    def test_crossterm_trend(self):
        report = coeff_recover(
            CROSSTERM, Word((1, 2)), 0.7, SpaceKind.polydisc(2), [2, 4, 8]
        )
        assert [cell.value for cell in report.cells] == [1.25, 1.0625, 1.015625]

    def test_richardson_step(self):
        report = coeff_recover(
            CROSSTERM, Word((1, 2)), 0.7, SpaceKind.polydisc(2), [8, 16], richardson=True
        )
        assert abs(report.richardson - 1.0) < 1e-12

    def test_wrong_length_is_exact_zero(self):
        for w in (Word(), Word((1, 1, 2))):
            report = coeff_recover(CROSSTERM, w, 0.7, SpaceKind.polydisc(2), [2, 4])
            assert all(cell.value == 0 for cell in report.cells)

    def test_ball_recovery_exact(self):
        f = NcSeries(2, {(1,): 2.5})
        report = coeff_recover(f, Word((1,)), 0.5, SpaceKind.ball(2), [1, 2, 4])
        assert all(abs(cell.value - 2.5) < 1e-14 for cell in report.cells)

    def test_mc_engine(self):
        report = coeff_recover(
            CROSSTERM,
            Word((1, 2)),
            0.8,
            SpaceKind.polydisc(2),
            [4],
            engine="mc",
            samples=20_000,
            stream=SeededStream(70),
        )
        cell = report.cells[0]
        assert cell.std_error is not None
        assert abs(cell.value - 1.0625) <= 3 * cell.std_error + 1e-12

    def test_r_validation(self):
        with pytest.raises(ValueError):
            coeff_recover(CROSSTERM, Word((1,)), 1.5, SpaceKind.polydisc(2), [2])

    def test_richardson_needs_two_levels_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_cell)
        for engine in ("exact", "mc"):
            for levels in ([4], [4, 4]):
                with pytest.raises(ValueError, match="richardson needs at least two"):
                    coeff_recover(
                        CROSSTERM, Word((1, 2)), 0.9, SpaceKind.polydisc(2), levels, engine,
                        richardson=True,
                    )

    @pytest.mark.parametrize("space", [SpaceKind.polydisc(2), SpaceKind.ball(2)])
    def test_mc_recovery_does_not_depend_on_r(self, space):
        # only w's own stratum enters the stratified value, where the radius
        # cancels the r^{-2|w|} scale
        reports = [
            coeff_recover(
                self.F, Word((1, 2)), r, space, [2, 3], "mc", samples=2000,
                stream=SeededStream(72),
            )
            for r in (0.5, 0.9)
        ]
        for half, most in zip(*(report.cells for report in reports)):
            assert abs(half.value - most.value) <= 1e-12 * abs(most.value)
            assert abs(half.std_error - most.std_error) <= 1e-12 * most.std_error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_recovery_at_unit_radius_is_the_grid_cell_times_the_divisor(self, workers):
        stream = SeededStream(73)
        for space in (SpaceKind.polydisc(2), SpaceKind.ball(2)):
            divisor = space.stratum_divisor(2)
            report = coeff_recover(
                self.F, Word((1, 2)), 1.0, space, [3, 2], "mc", samples=2000,
                stream=stream, workers=workers,
            )
            grid = pairing_grid(
                self.F, NcSeries.monomial(2, (1, 2)), space.boundary(), [1.0], [2, 3], "mc",
                samples=2000, stream=stream, workers=workers,
            )
            for cell, want in zip(report.cells, grid, strict=True):
                assert (cell.r, cell.N) == (want.r, want.N)
                assert cell.value == divisor * want.value
                assert cell.std_error == divisor * want.std_error
                assert cell.estimate.residual == divisor * want.estimate.residual

    def test_invalid_level_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.haar_mc._mc_estimate", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        for engine in ("exact", "mc"):
            for levels in ((16, 0), (16, -3), (16, 2.7)):
                with pytest.raises(ValueError, match="N must be"):
                    coeff_recover(
                        CROSSTERM, Word((1, 2)), 0.9, SpaceKind.polydisc(2), levels, engine
                    )

    def test_non_integer_level_refused_and_numpy_integers_accepted(self):
        kind = SpaceKind.polydisc(2)
        with pytest.raises(ValueError, match="N must be an integer, got 2.7"):
            coeff_recover(CROSSTERM, Word((1, 2)), 0.7, kind, [2.7, 4.2])
        report = coeff_recover(CROSSTERM, Word((1, 2)), 0.7, kind, np.array([4, 2]))
        assert [cell.N for cell in report.cells] == [2, 4]
        assert all(type(cell.N) is int for cell in report.cells)
        assert [cell.value for cell in report.cells] == [1.25, 1.0625]


class TestPairingGrid:
    F = NcSeries(2, {(): 0.5, (1,): 1.0 - 0.5j, (1, 2): 1.0, (2, 1): -0.75 + 0.3j})
    G = NcSeries(2, {(): 1.0, (1, 2): 0.6 - 0.2j, (2, 2): 1.0})

    def test_exact_cells_r_major(self):
        kind = BoundaryKind.ball_row(2)
        cells = pairing_grid(self.F, self.G, kind, [0.5, 1.0], [2, 3])
        assert [(c.r, c.N) for c in cells] == [(0.5, 2), (0.5, 3), (1.0, 2), (1.0, 3)]
        for cell in cells:
            assert cell.exact and cell.std_error is None
            assert cell.value == sesquilinear_moment_exact(self.F, self.G, cell.r, kind, cell.N)

    def test_mc_cell_k_draws_lane_k(self):
        kind = BoundaryKind.polydisc(2)
        stream = SeededStream(81, 3)
        cells = pairing_grid(
            self.F, self.G, kind, [0.5, 1.0], [2, 3], "mc", samples=500, stream=stream
        )
        for k, cell in enumerate(cells):
            est = mc_pairing(self.F, self.G, cell.r, kind, cell.N, 500, stream.lane(k))
            assert not cell.exact
            assert cell.estimate == est
            assert (cell.value, cell.std_error) == (est.mean, est.std_error)

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            pairing_grid(self.F, self.G, BoundaryKind.polydisc(2), [1.0], [2], "bogus")

    def test_non_finite_r_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_cell)
        for engine in ("exact", "mc"):
            for r in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    pairing_grid(
                        self.F, self.G, BoundaryKind.polydisc(2), [0.5, r], [2], engine
                    )

    def test_invalid_level_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_cell)
        kind = BoundaryKind.polydisc(2)
        for engine in ("exact", "mc"):
            with pytest.raises(ValueError, match="N must be >= 1"):
                pairing_grid(self.F, self.G, kind, [1.0], (16, 0), engine, samples=1_000_000)

    def test_invalid_workers_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_recovery_integral", _no_cell)
        space = SpaceKind.polydisc(2)
        for engine in ("exact", "mc"):
            for workers, message in ((2.5, "workers must be an integer"), (0, "workers must be >= 1")):
                with pytest.raises(ValueError, match=message):
                    pairing_grid(
                        self.F, self.G, space.boundary(), [1.0], [2], engine, workers=workers
                    )
                with pytest.raises(ValueError, match=message):
                    boundary_norm_profile(self.F, space, [1.0], [2], engine, workers=workers)
                with pytest.raises(ValueError, match=message):
                    coeff_recover(self.F, Word((1,)), 1.0, space, [2], engine, workers=workers)

    def test_non_integer_level_refused_and_numpy_integers_accepted(self):
        kind = BoundaryKind.polydisc(2)
        for engine in ("exact", "mc"):
            with pytest.raises(ValueError, match="N must be an integer, got 2.7"):
                pairing_grid(self.F, self.G, kind, [1.0], [2, 2.7], engine)
        cells = pairing_grid(self.F, self.G, kind, [1.0], np.array([2, 3]))
        assert cells == pairing_grid(self.F, self.G, kind, [1.0], [2, 3])
        assert all(type(cell.N) is int for cell in cells)


class TestBoundaryNormProfile:
    def test_single_letter_constant_grid(self):
        f = NcSeries.monomial(2, (1,))
        report = boundary_norm_profile(f, SpaceKind.polydisc(2), [0.5, 1.0], [1, 2, 4])
        for cell in report.cells:
            assert abs(cell.value - cell.r ** 2) < 1e-15
        assert abs(report.s_estimate - 1.0) < 1e-15

    def test_sup_exceeds_limit(self):
        report = boundary_norm_profile(CROSSTERM, SpaceKind.polydisc(2), [1.0], [1, 2, 4, 8])
        by_level = {cell.N: cell.value.real for cell in report.cells}
        assert abs(by_level[1] - 4.0) < 1e-12
        assert report.s_estimate == pytest.approx(4.0, abs=1e-12)
        assert report.limit_inner_product == 2.0

    def test_zero_series_all_zero(self):
        report = boundary_norm_profile(NcSeries.zero(2), SpaceKind.ball(2), [0.5, 1.0], [2, 4])
        assert all(cell.value == 0 for cell in report.cells)
        assert report.s_estimate == 0.0

    def test_mc_engine_smoke(self):
        report = boundary_norm_profile(
            CROSSTERM,
            SpaceKind.polydisc(2),
            [1.0],
            [4],
            engine="mc",
            samples=10_000,
            stream=SeededStream(71),
        )
        cell = report.cells[0]
        assert abs(cell.value - 2.125) <= 3 * cell.std_error + 1e-12


    def test_radius_outside_unit_interval_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_cell)
        for engine in ("exact", "mc"):
            for r in (2.0, 1.0 + 1e-12, 0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
                    boundary_norm_profile(
                        CROSSTERM, SpaceKind.polydisc(2), [1.0, r], [2], engine
                    )

    def test_invalid_level_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("nc_hardy.hardy.sesquilinear_moment_exact", _no_cell)
        monkeypatch.setattr("nc_hardy.hardy.mc_pairing", _no_cell)
        for engine in ("exact", "mc"):
            with pytest.raises(ValueError, match="N must be >= 1"):
                boundary_norm_profile(
                    CROSSTERM, SpaceKind.polydisc(2), [0.5, 1.0], (16, 0), engine
                )


class TestAlphabetSize:
    def test_non_integer_alphabet_size_refused_by_every_type(self):
        for make in (
            lambda m: NcSeries(m, {(1, 2): 1.0}),
            SpaceKind.polydisc,
            SpaceKind.ball,
            BoundaryKind.polydisc,
            BoundaryKind.ball_column,
        ):
            for m in (2.5, 2.0, "2"):
                with pytest.raises(ValueError, match=f"m must be an integer, got {m!r}"):
                    make(m)
            with pytest.raises(ValueError, match="m must be >= 1"):
                make(0)
            m = make(np.int64(2)).m
            assert m == 2 and type(m) is int


class TestUpsilonMembership:
    def test_spectral_fast_path(self):
        x = MatrixTuple([0.5 * np.eye(2), 0.5 * np.eye(2)])
        verdict = upsilon_membership(x, 1.0)
        assert verdict.status == "converged"
        assert abs(verdict.bound - 2.0) < 1e-12
        assert verdict.theta == pytest.approx(0.5, abs=1e-12)

    def test_nilpotent_with_large_norm(self):
        jay = np.array([[0.0, 3.0], [0.0, 0.0]])
        for p in (1.0, 2.5):
            verdict = upsilon_membership(MatrixTuple([jay, np.zeros((2, 2))]), p)
            assert verdict.status == "converged"
            assert verdict.bound == verdict.partial_sum_norms[-1]
            assert verdict.theta >= 1.0

    def test_unit_scalar_diverges(self):
        x = MatrixTuple([np.array([[1.0]]), np.array([[0.0]])])
        verdict = upsilon_membership(x, 1.0)
        assert verdict.status == "diverged"
        assert verdict.diverged_at is not None

    def test_inconclusive_when_budget_too_small(self):
        x = MatrixTuple([np.array([[1.0]]), np.array([[0.0]])])
        verdict = upsilon_membership(x, 1.0, max_degree=10, divergence_threshold=32.0)
        assert verdict.status == "inconclusive"

    def test_partial_sums_match_word_enumeration(self):
        # independent route: sum p^{|w|} (X^w)* X^w literally over all words
        from itertools import product as iterproduct

        from nc_hardy import word_eval

        rng = np.random.default_rng(77)
        x = random_tuple(rng, 2, 2, scale=0.7)
        p, max_deg = 1.5, 4
        verdict = upsilon_membership(x, p, max_degree=max_deg)
        brute = np.zeros((2, 2), dtype=complex)
        for length in range(max_deg + 1):
            for letters in iterproduct((1, 2), repeat=length):
                mat = word_eval(x, Word(letters))
                brute += p ** length * (mat.conj().T @ mat)
        brute_norm = float(np.linalg.eigvalsh((brute + brute.conj().T) / 2)[-1])
        assert abs(verdict.partial_sum_norms[-1] - brute_norm) <= 1e-12 * max(1.0, brute_norm)

    def test_partial_sums_monotone_and_dominated(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            x = random_tuple(rng, 2, 3)
            x = x.scale(math.sqrt(float(rng.uniform(0.1, 0.8)) / spectral_theta(x, 1.0)))
            verdict = upsilon_membership(x, 1.0, max_degree=12)
            sums = verdict.partial_sum_norms
            assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
            assert verdict.bound + 1e-9 >= max(sums)

    def test_p_validation(self):
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                upsilon_membership(MatrixTuple([np.eye(2)]), p)

    def test_threshold_validation(self):
        # a NaN threshold would keep the divergence test from ever firing
        x = MatrixTuple([np.eye(1)])
        assert upsilon_membership(x, 1.0, max_degree=5, divergence_threshold=3.0).status == "diverged"
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="divergence_threshold"):
                upsilon_membership(x, 1.0, max_degree=5, divergence_threshold=bad)

    def test_max_degree_must_be_an_integer(self):
        x = MatrixTuple([0.5 * np.eye(2)])
        with pytest.raises(ValueError, match="max_degree must be an integer, got 2.5"):
            upsilon_membership(x, 1.0, max_degree=2.5)
        with pytest.raises(ValueError, match="max_degree must be >= 1"):
            upsilon_membership(x, 1.0, max_degree=0)
        assert upsilon_membership(x, 1.0, max_degree=np.int64(4)).checked_degree == 4


class TestKernel:
    def test_max_degree_must_be_an_integer(self):
        x = MatrixTuple([0.5 * np.eye(2)])
        with pytest.raises(ValueError, match="max_degree must be an integer, got 2.5"):
            kernel_eval(x, x, 1.0, max_degree=2.5)
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            kernel_eval(x, x, 1.0, max_degree=-1)
        assert kernel_eval(x, x, 1.0, max_degree=np.int64(3)).truncation_degree == 3

    def test_zero_second_argument(self):
        x = MatrixTuple([0.3 * np.eye(2), 0.1 * np.eye(2)])
        y = MatrixTuple([np.zeros((3, 3)), np.zeros((3, 3))])
        kv = kernel_eval(x, y, 1.0, max_degree=6)
        assert np.array_equal(kv.value, np.eye(6))

    def test_scalar_geometric(self):
        x = MatrixTuple([np.array([[0.5]])])
        y = MatrixTuple([np.array([[0.4]])])
        kv = kernel_eval(x, y, 1.0, max_degree=30)
        assert kv.tail_bound is not None
        assert abs(kv.value[0, 0] - 1.25) <= kv.tail_bound + 1e-12

    def test_adjoint_identity(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            x = random_tuple(rng, 2, 2, scale=0.5)
            y = random_tuple(rng, 2, 3, scale=0.5)
            kxy = kernel_eval(x, y, 1.5, max_degree=8).value
            kyx = kernel_eval(y, x, 1.5, max_degree=8).value
            # (N*M) x (N*M) versus (M*N) x (M*N): adjoint after factor swap
            n, mm = x.n, y.n
            swapped = (
                kxy.reshape(n, mm, n, mm).transpose(1, 0, 3, 2).reshape(mm * n, mm * n)
            )
            assert np.linalg.norm(swapped.conj().T - kyx) <= 1e-12

    def test_recursion_matches_word_enumeration(self):
        # independent route: literal sum over all words of degree <= L
        from itertools import product as iterproduct

        from nc_hardy import word_eval

        rng = np.random.default_rng(76)
        x = random_tuple(rng, 2, 2, scale=0.6)
        y = random_tuple(rng, 2, 2, scale=0.6)
        p, max_deg = 1.3, 4
        dim = x.n * y.n
        brute = np.zeros((dim, dim), dtype=complex)
        for length in range(max_deg + 1):
            for letters in iterproduct((1, 2), repeat=length):
                w = Word(letters)
                brute += p ** length * np.kron(
                    word_eval(x, w), word_eval(y, w).conj().T
                )
        got = kernel_eval(x, y, p, max_degree=max_deg).value
        assert np.linalg.norm(got - brute) <= 1e-12 * max(1.0, np.linalg.norm(brute))

    def test_tail_presence_follows_spectral_condition(self):
        good = MatrixTuple([0.5 * np.eye(2)])
        bad = MatrixTuple([1.5 * np.eye(2)])
        assert kernel_eval(good, good, 1.0, 4).tail_bound is not None
        assert kernel_eval(good, bad, 1.0, 4).tail_bound is None
        assert kernel_eval(bad, good, 1.0, 4).tail_bound is None

    def test_section_gram_positive(self):
        rng = np.random.default_rng(74)
        tuples = []
        for _ in range(3):
            x = random_tuple(rng, 2, 2)
            tuples.append(x.scale(math.sqrt(0.6 / spectral_theta(x, 1.0))))
        gram, tail = kernel_section_gram(tuples, 1.0, max_degree=8)
        assert tail is not None
        assert np.linalg.norm(gram - gram.conj().T) <= 1e-10
        min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0])
        assert min_eig >= -2 * tail - 1e-10

    def test_section_gram_mixed_dimensions(self):
        rng = np.random.default_rng(78)
        tuples = []
        for n in (2, 3):
            x = random_tuple(rng, 2, n)
            tuples.append(x.scale(math.sqrt(0.5 / spectral_theta(x, 1.0))))
        gram, tail = kernel_section_gram(tuples, 1.0, max_degree=8)
        assert gram.shape == (13, 13)
        assert np.linalg.norm(gram - gram.conj().T) <= 1e-10
        min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0])
        assert min_eig >= -2 * tail - 1e-10

    def test_section_gram_entries_match_word_sum(self):
        # Entry [(i,a,b), (j,c,d)] = sum_w p^{|w|} (Xj^w)_{dc} conj((Xi^w)_{ba}),
        # summed directly over every word up to the truncation degree.
        rng = np.random.default_rng(79)
        p, degree = 0.7, 3
        tuples = [random_tuple(rng, 2, n) for n in (1, 3, 2)]
        gram, _ = kernel_section_gram(tuples, p, max_degree=degree)
        words = all_words(2, degree)
        want = np.zeros_like(gram)
        row = 0
        for xi in tuples:
            for a in range(xi.n):
                for b in range(xi.n):
                    col = 0
                    for xj in tuples:
                        for c in range(xj.n):
                            for d in range(xj.n):
                                want[row, col] = sum(
                                    p ** len(w)
                                    * word_eval(xj, w)[d, c]
                                    * np.conj(word_eval(xi, w)[b, a])
                                    for w in words
                                )
                                col += 1
                    row += 1
        assert np.allclose(gram, want, rtol=1e-12, atol=1e-12)


    def test_p_validation(self):
        x = MatrixTuple([0.5 * np.eye(2)])
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                kernel_eval(x, x, p)


class TestReproduceCheck:
    def test_zero_series(self):
        y = MatrixTuple([0.2 * np.eye(2), np.zeros((2, 2))])
        res = reproduce_check(NcSeries.zero(2), y, np.ones(2), np.ones(2), 1.0)
        assert res.lhs == 0 and res.rhs == 0 and res.residual == 0

    def test_scalar_linear(self):
        f = NcSeries.monomial(2, (1,))
        y = MatrixTuple([np.array([[0.3]]), np.array([[0.1]])])
        res = reproduce_check(f, y, np.array([1.0]), np.array([1.0]), 1.0)
        assert abs(res.lhs - 0.3) < 1e-15
        assert abs(res.rhs - 0.3) < 1e-15

    def test_random_battery(self):
        rng = np.random.default_rng(75)
        for _ in range(25):
            p = float(rng.choice([1.0, 2.0]))
            f = random_series(rng, 2, 3, 4)
            y = random_tuple(rng, 2, 2)
            y = y.scale(math.sqrt(float(rng.uniform(0.1, 0.8)) / spectral_theta(y, p)))
            e1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            e2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            res = reproduce_check(f, y, e1, e2, p)
            assert res.residual <= 1e-10

    def test_dimension_mismatch(self):
        y = MatrixTuple([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            reproduce_check(NcSeries.zero(2), y, np.ones(3), np.ones(2), 1.0)

    def test_p_validation(self):
        y = MatrixTuple([np.eye(2), np.eye(2)])
        for p in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                reproduce_check(NcSeries.zero(2), y, np.ones(2), np.ones(2), p)


class TestRadialBoundaryProfiles:
    """Boundary norm profiles over both boundaries against their series predictions."""

    def test_single_letter(self):
        f = NcSeries.monomial(2, (1,))
        poly, ball = SpaceKind.polydisc(2), SpaceKind.ball(2)
        for cell in boundary_norm_profile(f, poly, [0.5, 1.0], [2, 4]).cells:
            assert abs(cell.value - cell.r ** 2) < 1e-14
        for cell in boundary_norm_profile(f, ball, [0.5, 1.0], [2, 4]).cells:
            assert abs(cell.value - cell.r ** 2 / 2) < 1e-14
        assert radial_pairing(f, f, poly, [0.5, 1.0]) == ((0.5, 0.25), (1.0, 1.0))
        assert radial_pairing(f, f, ball, [0.5, 1.0]) == ((0.5, 0.125), (1.0, 0.5))

    def test_degree_two_monomial_telescopes(self):
        f = NcSeries.monomial(2, (1, 2))
        poly = SpaceKind.polydisc(2)
        for cell in boundary_norm_profile(f, poly, [0.5], [2, 4, 8]).cells:
            assert abs(cell.value - 0.5 ** 4) < 1e-14
        assert radial_pairing(f, f, poly, [0.5]) == ((0.5, 0.5 ** 4),)
