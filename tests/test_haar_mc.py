import numpy as np
import pytest

from conftest import all_words
from nc_hardy import (
    BoundaryKind,
    FreenessFactor,
    FreenessStructureError,
    GramSingularityError,
    MCEstimate,
    NcSeries,
    SeededStream,
    Word,
    freeness_diagnostic,
    haar_entry_moment,
    mc_pairing,
    mc_recovery_integral,
    pairing_moment_exact,
    sample_boundary,
    sample_haar_unitary,
)


class TestSeededStream:
    def test_reproducible(self):
        u1 = sample_haar_unitary(4, SeededStream(123, 5))
        u2 = sample_haar_unitary(4, SeededStream(123, 5))
        assert np.array_equal(u1, u2)

    def test_distinct_streams_differ(self):
        u1 = sample_haar_unitary(4, SeededStream(123, 0))
        u2 = sample_haar_unitary(4, SeededStream(123, 1))
        assert not np.allclose(u1, u2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SeededStream(-1)

    def test_env_seed(self, monkeypatch):
        from nc_hardy import default_seed

        monkeypatch.setenv("NC_HARDY_SEED", "777")
        assert default_seed() == 777
        monkeypatch.delenv("NC_HARDY_SEED")
        assert default_seed() == 424242


class TestSamplers:
    def test_unitarity(self):
        u = sample_haar_unitary(6, SeededStream(1))
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12
        stack = sample_haar_unitary(3, SeededStream(2), count=50)
        defect = stack.conj().transpose(0, 2, 1) @ stack - np.eye(3)
        assert np.max(np.linalg.norm(defect, axis=(1, 2))) <= 1e-12

    def test_polydisc_boundary(self):
        xs = sample_boundary(BoundaryKind.polydisc(3), 4, SeededStream(3))
        assert xs.m == 3 and xs.n == 4
        for a in xs.entries:
            assert np.linalg.norm(a.conj().T @ a - np.eye(4)) <= 1e-12

    def test_ball_column_isometry(self):
        xs = sample_boundary(BoundaryKind.ball_column(2), 5, SeededStream(4))
        gram = sum(a.conj().T @ a for a in xs.entries)
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-12

    def test_ball_row_coisometry(self):
        xs = sample_boundary(BoundaryKind.ball_row(3), 4, SeededStream(5))
        gram = sum(a @ a.conj().T for a in xs.entries)
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-12

    def test_trace_centered(self):
        stack = sample_haar_unitary(3, SeededStream(6), count=20_000)
        traces = np.einsum("bii->b", stack)
        se = traces.std(ddof=1) / np.sqrt(len(traces))
        assert abs(traces.mean()) <= 3 * se + 1e-12

    def test_ball_block_mean(self):
        # the m blocks sum to the identity, so each block carries mass 1/m
        f = NcSeries(2, {(1,): 1.0})
        est = mc_pairing(
            f, f, 1.0, BoundaryKind.ball_column(2), 4, 10_000, SeededStream(17)
        )
        assert est.delta_in_se(0.5) <= 3.0


# Twelve entry-moment checks of degree <= 2 against the exact engine.
_MOMENT_BATTERY = [
    ([(1, 1)], [(1, 1)]),
    ([(1, 2)], [(1, 2)]),
    ([(1, 1)], [(1, 2)]),
    ([(1, 1)], [(2, 2)]),
    ([(1, 1)], []),
    ([(1, 1), (1, 1)], [(1, 1), (1, 1)]),
    ([(1, 1), (1, 2)], [(1, 1), (1, 2)]),
    ([(1, 1), (2, 2)], [(1, 1), (2, 2)]),
    ([(1, 1), (2, 2)], [(1, 2), (2, 1)]),
    ([(1, 1), (2, 1)], [(1, 1), (2, 1)]),
    ([(1, 2), (2, 1)], [(1, 2), (2, 1)]),
    ([(1, 1), (2, 2)], [(1, 1), (2, 1)]),
]


class TestMomentBattery:
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_sampler_matches_exact_moments(self, n_dim):
        samples = 20_000
        stack = sample_haar_unitary(n_dim, SeededStream(1000 + n_dim), count=samples)
        for ups, conjs in _MOMENT_BATTERY:
            prod = np.ones(samples, dtype=complex)
            for i, j in ups:
                prod = prod * stack[:, i - 1, j - 1]
            for i, j in conjs:
                prod = prod * stack[:, i - 1, j - 1].conj()
            exact = float(haar_entry_moment(ups, conjs, n_dim))
            se = prod.std(ddof=1) / np.sqrt(samples)
            assert abs(prod.mean() - exact) <= 4 * se + 1e-12


class TestInvariance:
    def test_left_translation_invariance(self):
        # distribution of Tr(VU) matches Tr(U): two-sample KS at the 1% level
        from scipy.stats import ks_2samp

        n_dim, samples = 4, 3000
        u_stack = sample_haar_unitary(n_dim, SeededStream(2001), count=samples)
        w_stack = sample_haar_unitary(n_dim, SeededStream(2002), count=samples)
        v = sample_haar_unitary(n_dim, SeededStream(2003))
        tr_u = np.einsum("bii->b", u_stack)
        tr_vu = np.einsum("ij,bji->b", v, w_stack)
        for a, b in ((tr_u.real, tr_vu.real), (tr_u.imag, tr_vu.imag)):
            assert ks_2samp(a, b).pvalue > 0.01


class TestMcPairing:
    def test_constant_integrand(self):
        f = NcSeries(2, {(1,): 1.0})
        est = mc_pairing(f, f, 0.5, BoundaryKind.polydisc(2), 3, 1000, SeededStream(31))
        assert abs(est.mean - 0.25) <= 1e-12
        assert est.std_error <= 1e-12

    def test_crossterm_agrees_with_exact(self):
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        est = mc_pairing(f, f, 1.0, BoundaryKind.polydisc(2), 4, 20_000, SeededStream(32))
        assert est.delta_in_se(2 * (1 + 1 / 16)) <= 3.0

    def test_distinct_letters_orthogonal(self):
        f = NcSeries(2, {(1,): 1.0})
        g = NcSeries(2, {(2,): 1.0})
        est = mc_pairing(f, g, 1.0, BoundaryKind.polydisc(2), 3, 10_000, SeededStream(33))
        assert abs(est.mean) <= 3 * est.std_error + 1e-12

    def test_worker_count_irrelevant(self):
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        kind = BoundaryKind.ball_column(2)
        est1 = mc_pairing(f, f, 0.8, kind, 3, 10_000, SeededStream(34), workers=1)
        est3 = mc_pairing(f, f, 0.8, kind, 3, 10_000, SeededStream(34), workers=3)
        assert est1.mean == est3.mean
        assert est1.std_error == est3.std_error

    def test_pairing_battery_against_exact_engine(self):
        # shared sample stacks keep 225 pair checks cheap; exact values are the
        # oracle, tolerance 4 SE with a tiny absolute floor for constant cells
        words = all_words(2, 3)
        kind = BoundaryKind.polydisc(2)
        samples = 20_000
        for pos, n_dim in enumerate((2, 4, 8)):
            stack = sample_boundary(kind, n_dim, SeededStream(4000, pos), count=samples)
            mats = {Word(): np.broadcast_to(np.eye(n_dim, dtype=complex), stack[:, 0].shape)}
            for w in sorted(words):
                if len(w) == 0:
                    continue
                prefix = Word(w.letters[:-1])
                mats[w] = mats[prefix] @ stack[:, w.letters[-1] - 1]
            for w in words:
                for v in words:
                    try:
                        exact = float(pairing_moment_exact(w, v, kind, n_dim)) / n_dim
                    except GramSingularityError:
                        # letter multiplicity above N: exact engine declines
                        continue
                    z = np.einsum("bij,bij->b", mats[w].conj(), mats[v]) / n_dim
                    mean = z.mean()
                    se = z.std(ddof=1) / np.sqrt(samples)
                    assert abs(mean - exact) <= 4 * se + 1e-12, (w, v, n_dim)

    def test_sample_floor(self):
        f = NcSeries(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            mc_pairing(f, f, 1.0, BoundaryKind.polydisc(1), 2, 1, SeededStream(35))

    def test_dimension_floor(self):
        f = NcSeries(1, {(1,): 1.0})
        kind = BoundaryKind.polydisc(1)
        with pytest.raises(ValueError, match="N must be >= 1"):
            mc_pairing(f, f, 1.0, kind, 0, 100, SeededStream(36))
        with pytest.raises(ValueError, match="N must be >= 1"):
            mc_recovery_integral(f, Word((1,)), 1.0, kind, 0, 100, SeededStream(36))
        with pytest.raises(ValueError, match="N must be >= 1"):
            freeness_diagnostic([FreenessFactor(1, {1: 1.0})], [0], 100, SeededStream(36))


class TestMCEstimate:
    def test_from_sums_matches_numpy(self):
        rng = np.random.default_rng(40)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        est = MCEstimate.from_sums(
            complex(z.sum()), float(np.square(np.abs(z)).sum()), len(z), 9
        )
        assert abs(est.mean - z.mean()) < 1e-12
        want_se = z.std(ddof=1) / np.sqrt(len(z))
        assert abs(est.std_error - want_se) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            MCEstimate(mean=0j, std_error=0.0, samples=1, seed=0)
        with pytest.raises(ValueError):
            MCEstimate(mean=0j, std_error=-1.0, samples=5, seed=0)


class TestFreeness:
    def test_single_centered_factor(self):
        report = freeness_diagnostic(
            [FreenessFactor(1, {1: 1.0})], [4, 8], 5000, SeededStream(50)
        )
        for row in report.rows:
            assert abs(row.estimate.mean) <= 3 * row.estimate.std_error + 1e-12

    def test_two_letter_product(self):
        factors = [FreenessFactor(1, {1: 1.0}), FreenessFactor(2, {1: 1.0})]
        report = freeness_diagnostic(factors, [4, 8], 5000, SeededStream(51))
        assert report.final_within_3se

    def test_inverse_powers(self):
        factors = [FreenessFactor(1, {-1: 1.0}), FreenessFactor(2, {2: 1.0})]
        report = freeness_diagnostic(factors, [4], 5000, SeededStream(52))
        est = report.rows[0].estimate
        assert abs(est.mean) <= 3 * est.std_error + 1e-12

    def test_structure_errors(self):
        with pytest.raises(FreenessStructureError):
            FreenessFactor(1, {0: 1.0})
        with pytest.raises(FreenessStructureError):
            FreenessFactor(1, {})
        with pytest.raises(FreenessStructureError):
            freeness_diagnostic(
                [FreenessFactor(1, {1: 1.0}), FreenessFactor(1, {2: 1.0})],
                [4],
                100,
                SeededStream(53),
            )
        with pytest.raises(FreenessStructureError):
            freeness_diagnostic([], [4], 100, SeededStream(54))
