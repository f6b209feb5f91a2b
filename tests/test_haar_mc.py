import hashlib
import sys

import numpy as np
import pytest

from conftest import all_words
from nc_hardy import (
    BoundaryKind,
    FreenessFactor,
    FreenessStructureError,
    MCEstimate,
    NcSeries,
    STREAM_PLAN,
    SeededStream,
    Word,
    freeness_diagnostic,
    haar_entry_moment,
    mc_pairing,
    mc_recovery_integral,
    pairing_moment_exact,
    sample_boundary,
    sample_haar_unitary,
    sesquilinear_moment_exact,
)
from nc_hardy.haar_mc import CHUNK_SAMPLES, _GRAM_SCHMIDT_MAX_WORK, _SUB_BATCH, _boundary_batches
from nc_hardy.haar_mc import _ROUNDING_ULPS, _pairing_values
from nc_hardy.words import _series_sums


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

    def test_seed_and_stream_id_follow_the_integer_rule(self):
        for args, message in (
            ((2.5,), "seed must be an integer, got 2.5"),
            ((-1,), "seed must be >= 0"),
            ((3, 1.5), "stream_id must be an integer, got 1.5"),
            ((3, -1), "stream_id must be >= 0"),
        ):
            with pytest.raises(ValueError, match=message):
                SeededStream(*args)
        assert np.array_equal(
            sample_haar_unitary(3, SeededStream(np.int64(5), np.int64(2))),
            sample_haar_unitary(3, SeededStream(5, 2)),
        )

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

    def test_polydisc_and_unitary_bits_pinned(self):
        # digests of little-endian complex128 bytes captured under stream
        # plan 3, where these shapes take the Gram-Schmidt route
        xs = sample_boundary(BoundaryKind.polydisc(2), 4, SeededStream(7), count=3)
        assert xs[0, 0, 0, 0].real == float.fromhex("-0x1.162b877ab2398p-2")
        assert xs[2, 1, 3, 3].imag == float.fromhex("0x1.fb2257a64e97fp-5")
        assert hashlib.sha256(xs.astype("<c16").tobytes()).hexdigest() == (
            "f7c399d147ea9ddc81b5b83f1cdb067717534c5999d02573c3b601a3848be0b5"
        )
        us = sample_haar_unitary(3, SeededStream(7), count=2)
        assert us[0, 0, 0].real == float.fromhex("-0x1.203c0e61f7e46p-2")
        assert hashlib.sha256(us.astype("<c16").tobytes()).hexdigest() == (
            "83cd7c4ffa5e1a9be821edb233d8b46336204101673783804afd0b94a49c941b"
        )

    @pytest.mark.parametrize("n_dim", [4, 16])  # Gram-Schmidt and LAPACK routes
    def test_count_must_be_positive(self, n_dim):
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be >= 1"):
                sample_boundary(BoundaryKind.polydisc(2), n_dim, SeededStream(7), count=count)
            with pytest.raises(ValueError, match="count must be >= 1"):
                sample_haar_unitary(n_dim, SeededStream(7), count=count)
        assert sample_boundary(BoundaryKind.polydisc(2), n_dim, SeededStream(7), count=1).shape == (
            1, 2, n_dim, n_dim,
        )

    def test_count_must_be_an_integer(self):
        for count in (2.0, 2.5):
            with pytest.raises(ValueError, match="count must be an integer"):
                sample_boundary(BoundaryKind.polydisc(2), 4, SeededStream(7), count=count)
            with pytest.raises(ValueError, match="count must be an integer"):
                sample_haar_unitary(4, SeededStream(7), count=count)
        assert np.array_equal(
            sample_boundary(BoundaryKind.polydisc(2), 4, SeededStream(7), count=np.int64(3)),
            sample_boundary(BoundaryKind.polydisc(2), 4, SeededStream(7), count=3),
        )

    def test_lapack_route_bits_pinned(self):
        # 16 x 16 is above the Gram-Schmidt crossover, as in the mc-large
        # benchmark; the digest was captured under stream plan 2
        assert 16**3 > _GRAM_SCHMIDT_MAX_WORK
        xs = sample_boundary(BoundaryKind.polydisc(2), 16, SeededStream(7), count=2)
        assert hashlib.sha256(xs.astype("<c16").tobytes()).hexdigest() == (
            "615fe288fdbfe1d59935305f5c3aa0e694b8043c7fb947a310ba6e5b9806fb4d"
        )

    @pytest.mark.parametrize("m, n_dim", [(3, 4), (2, 8)])
    def test_ball_isometry_at_the_crossover(self, m, n_dim):
        # the largest benchmarked shape at or below the crossover (12 x 4)
        # and the smallest shape above it (16 x 8)
        work = m * n_dim**3
        assert (work <= _GRAM_SCHMIDT_MAX_WORK) == (n_dim == 4)
        xs = sample_boundary(BoundaryKind.ball_column(m), n_dim, SeededStream(9), count=1024)
        gram = np.einsum("bkia,bkic->bac", xs.conj(), xs)
        defect = np.linalg.norm(gram - np.eye(n_dim), axis=(1, 2))
        assert np.max(defect) <= 1e-12

    # (2, 8) is above the Gram-Schmidt crossover
    @pytest.mark.parametrize("m, n_dim", [(1, 3), (2, 4), (3, 2), (2, 8)])
    def test_row_ball_is_column_ball_adjoint(self, m, n_dim):
        cols = sample_boundary(BoundaryKind.ball_column(m), n_dim, SeededStream(8), count=5)
        rows = sample_boundary(BoundaryKind.ball_row(m), n_dim, SeededStream(8), count=5)
        assert rows.shape == cols.shape == (5, m, n_dim, n_dim)
        assert np.array_equal(rows, cols.conj().transpose(0, 1, 3, 2))

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
    # 11 is above the Gram-Schmidt crossover, so both routes are checked
    @pytest.mark.parametrize("n_dim", [2, 3, 4, 11])
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


def _short_word_cases(count: int, seed: int) -> list:
    """Seeded (family, m, w, v, N) cases with m in {2, 3}, words of length 1
    to 3 and N in 1..4; three in four pair w with a rearrangement of itself,
    so most values are nonzero."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        family = ("polydisc", "ball_column", "ball_row")[k % 3]
        m = int(rng.integers(2, 4))
        w = tuple(int(x) for x in rng.integers(1, m + 1, size=int(rng.integers(1, 4))))
        if rng.random() < 0.75:
            v = tuple(int(x) for x in rng.permutation(w))
        else:
            v = tuple(int(x) for x in rng.integers(1, m + 1, size=int(rng.integers(1, 4))))
        cases.append((family, m, w, v, int(rng.integers(1, 5))))
    return cases


_SHORT_WORD_CASES = _short_word_cases(24, 4100)


class TestMcPairing:
    def test_constant_integrand(self):
        f = NcSeries(2, {(1,): 1.0})
        est = mc_pairing(f, f, 0.5, BoundaryKind.polydisc(2), 3, 1000, SeededStream(31))
        assert abs(est.mean - 0.25) <= 1e-12
        assert est.std_error <= 1e-12

    def test_samples_must_be_an_integer_at_least_two(self):
        f = NcSeries(2, {(1,): 1.0})
        kind = BoundaryKind.polydisc(2)
        for samples, message in ((2.5, "samples must be an integer"), (1, "samples must be >= 2")):
            with pytest.raises(ValueError, match=message):
                mc_pairing(f, f, 1.0, kind, 3, samples, SeededStream(31))
            with pytest.raises(ValueError, match=message):
                mc_recovery_integral(f, Word((1,)), 1.0, kind, 3, samples, SeededStream(31))
            with pytest.raises(ValueError, match=message):
                MCEstimate(mean=0j, std_error=0.0, samples=samples, seed=0)
        assert mc_pairing(f, f, 1.0, kind, 3, np.int64(100), SeededStream(31)) == (
            mc_pairing(f, f, 1.0, kind, 3, 100, SeededStream(31))
        )

    def test_crossterm_agrees_with_exact(self):
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        est = mc_pairing(f, f, 1.0, BoundaryKind.polydisc(2), 4, 20_000, SeededStream(32))
        assert est.delta_in_se(2 * (1 + 1 / 16)) <= 3.0

    def test_distinct_letters_orthogonal(self):
        f = NcSeries(2, {(1,): 1.0})
        g = NcSeries(2, {(2,): 1.0})
        est = mc_pairing(f, g, 1.0, BoundaryKind.polydisc(2), 3, 10_000, SeededStream(33))
        assert abs(est.mean) <= 3 * est.std_error + 1e-12
        # X1 and X2 are different strata: the sampled cross term is the residual
        assert est.residual_std_error > 0 and est.residual_in_se() <= 3.0

    def test_worker_count_irrelevant(self):
        # N = 3 takes the Gram-Schmidt route; the polydisc at N = 11 takes the
        # LAPACK route, whose chunks run in sub-batches
        f = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        cases = (
            (BoundaryKind.ball_column(2), 3),
            (BoundaryKind.ball_row(2), 3),
            (BoundaryKind.polydisc(2), 11),
        )
        for kind, n_dim in cases:
            est1 = mc_pairing(f, f, 0.8, kind, n_dim, 10_000, SeededStream(34), workers=1)
            for workers in (2, 3):
                est = mc_pairing(
                    f, f, 0.8, kind, n_dim, 10_000, SeededStream(34), workers=workers
                )
                assert est.mean == est1.mean
                assert est.std_error == est1.std_error

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
                    exact = float(pairing_moment_exact(w, v, kind, n_dim)) / n_dim
                    z = np.einsum("bij,bij->b", mats[w].conj(), mats[v]) / n_dim
                    mean = z.mean()
                    se = z.std(ddof=1) / np.sqrt(samples)
                    assert abs(mean - exact) <= 4 * se + 1e-12, (w, v, n_dim)

    @pytest.mark.parametrize("case", range(len(_SHORT_WORD_CASES)))
    def test_random_short_words_against_exact_engine(self, case):
        family, m, w, v, n_dim = _SHORT_WORD_CASES[case]
        kind = BoundaryKind(family, m)
        est = mc_pairing(
            NcSeries.monomial(m, v), NcSeries.monomial(m, w), 1.0, kind, n_dim, 4096,
            SeededStream(4100, case),
        )
        exact = float(pairing_moment_exact(Word(w), Word(v), kind, n_dim)) / n_dim
        assert abs(est.mean - exact) <= 5 * est.std_error + 1e-12, (est, exact)
        assert est.residual_in_se() <= 3.0, est

    def test_sample_floor(self):
        f = NcSeries(1, {(1,): 1.0})
        with pytest.raises(ValueError):
            mc_pairing(f, f, 1.0, BoundaryKind.polydisc(1), 2, 1, SeededStream(35))

    def test_non_finite_r_rejected_before_any_sample(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling ran")

        monkeypatch.setattr("nc_hardy.haar_mc._mc_estimate", no_sampling)
        f = NcSeries(1, {(): 1.0, (1,): 1.0})
        kind = BoundaryKind.polydisc(1)
        for r in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"r must be finite, got {r}"):
                mc_pairing(f, f, r, kind, 2, 100, SeededStream(37))
            with pytest.raises(ValueError, match=f"r must be finite, got {r}"):
                mc_recovery_integral(f, Word((1,)), r, kind, 2, 100, SeededStream(37))
        # the recovery integral is the pairing at r times r^{-|w|}
        with pytest.raises(ZeroDivisionError):
            mc_recovery_integral(f, Word((1,)), 0.0, kind, 2, 100, SeededStream(37))

    def test_radius_outside_unit_interval_allowed(self):
        # the integrand is a polynomial in r, so any finite r is legal here
        f = NcSeries(1, {(): 1.0, (1,): 1.0})
        kind = BoundaryKind.polydisc(1)
        for r in (-0.5, 2.0):
            est = mc_pairing(f, f, r, kind, 2, 4096, SeededStream(38))
            assert abs(est.mean - (1 + r * r)) <= 5 * est.std_error + 1e-12
            est = mc_recovery_integral(f, Word((1,)), r, kind, 2, 4096, SeededStream(38))
            assert abs(est.mean - r) <= 5 * est.std_error + 1e-12

    def test_workers_follow_the_integer_rule_before_any_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling ran")

        monkeypatch.setattr("nc_hardy.haar_mc._boundary_batches", no_sampling)
        f = NcSeries(2, {(1,): 1.0})
        kind = BoundaryKind.polydisc(2)
        for workers, message in ((2.5, "workers must be an integer"), (0, "workers must be >= 1")):
            with pytest.raises(ValueError, match=message):
                mc_pairing(f, f, 1.0, kind, 3, 100, SeededStream(39), workers=workers)
            with pytest.raises(ValueError, match=message):
                mc_recovery_integral(f, Word((1,)), 1.0, kind, 3, 100, SeededStream(39), workers)

    def test_dimension_floor(self):
        f = NcSeries(1, {(1,): 1.0})
        kind = BoundaryKind.polydisc(1)
        with pytest.raises(ValueError, match="N must be >= 1"):
            mc_pairing(f, f, 1.0, kind, 0, 100, SeededStream(36))
        with pytest.raises(ValueError, match="N must be >= 1"):
            mc_recovery_integral(f, Word((1,)), 1.0, kind, 0, 100, SeededStream(36))
        with pytest.raises(ValueError, match="N must be >= 1"):
            freeness_diagnostic([FreenessFactor(1, {1: 1.0})], [0], 100, SeededStream(36))


# float.hex of (re, im, std_error) of mc_pairing(f, g, 0.9) and
# mc_recovery_integral(f, w, 0.9), 4396 samples (a full chunk and a remainder
# chunk), captured under stream plan 4; every sub-batch size and worker count
# gives these bits.  On the polydisc at m = 1 every word is its own stratum,
# so both SEs there are the rounding floor (_ROUNDING_ULPS).  Stream plan 5
# moved only that case's recovery pin, in its last ulp: the recovery became
# the pairing with X^w at radius 0.9, scaled by 0.9^{-|w|}
_F1 = NcSeries(1, {(): 0.5, (1,): 1.0, (1, 1): 0.5j, (1, 1, 1): -0.25})
_G1 = NcSeries(1, {(1,): 0.75, (1, 1): -1.0, (1, 1, 1): 0.5j})
_F2 = NcSeries(2, {(): 0.3, (1,): 1.0, (1, 2): 0.5, (2, 1): -0.5j, (2, 2, 1): 0.25})
_G2 = NcSeries(2, {(2,): 0.5j, (1, 2): 1.0, (2, 1): 0.25, (1, 2, 1): -0.5})
_LAPACK_ROUTE_PINS = [
    (
        BoundaryKind.polydisc(1), 11, _F1, _G1, (1, 1),
        ("0x1.370a3d70a3d70p-1", "-0x1.0be6149c6f370p-2", "0x1.0081c4fc1df34p-46"),
        ("0x0.0p+0", "0x1.9eb851eb851edp-2", "0x1.9eb851eb851edp-48"),
    ),
    (
        BoundaryKind.ball_column(2), 8, _F2, _G2, (1, 2),
        ("0x1.4f890e568b406p-4", "-0x1.58b48ba3d3870p-6", "0x1.1fe8ce86e8b8bp-13"),
        ("0x1.9c84581939cd2p-4", "-0x1.c755ec9a5b985p-11", "0x1.5d6523665ab92p-13"),
    ),
    (
        BoundaryKind.ball_row(2), 8, _F2, _G2, (2, 1),
        ("0x1.4fbd72548fd46p-4", "-0x1.588027a5cef2dp-6", "0x1.2118931e8b3c6p-13"),
        ("0x1.c755ec9a5b985p-11", "-0x1.9c84581939cd2p-4", "0x1.5d6523665ab93p-13"),
    ),
]


def _hex(est: MCEstimate) -> tuple[str, str, str]:
    return (est.mean.real.hex(), est.mean.imag.hex(), est.std_error.hex())


class TestSubBatches:
    @pytest.mark.parametrize("case", range(len(_LAPACK_ROUTE_PINS)))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lapack_route_bits_pinned(self, case, workers):
        kind, n_dim, f, g, w, pairing_pin, recovery_pin = _LAPACK_ROUTE_PINS[case]
        rows = n_dim if kind.family == "polydisc" else kind.m * n_dim
        assert rows * n_dim**2 > _GRAM_SCHMIDT_MAX_WORK
        est = mc_pairing(f, g, 0.9, kind, n_dim, 4396, SeededStream(61), workers=workers)
        assert _hex(est) == pairing_pin
        est = mc_recovery_integral(
            f, Word(w), 0.9, kind, n_dim, 4396, SeededStream(62), workers=workers
        )
        assert _hex(est) == recovery_pin

    def test_freeness_bits_pinned(self):
        # the polydisc at N = 11 takes the LAPACK route
        factors = [FreenessFactor(1, {1: 1.0, -2: 0.5j}), FreenessFactor(2, {2: 1.0, -1: -0.25})]
        for workers in (1, 2):
            report = freeness_diagnostic(factors, [11], 4396, SeededStream(63), workers)
            assert _hex(report.rows[0].estimate) == (
                "-0x1.e4a18fa8c8a38p-13", "0x1.c398556f670d9p-14", "0x1.a22e83af46bc7p-10"
            )

    @pytest.mark.parametrize(
        "kind, n_dim",
        [
            (BoundaryKind.polydisc(2), 11),
            (BoundaryKind.ball_column(2), 8),
            (BoundaryKind.ball_row(2), 8),
            (BoundaryKind.ball_row(3), 2),  # Gram-Schmidt route
        ],
    )
    def test_batches_concatenate_to_the_whole_stack(self, kind, n_dim):
        # both routes hand out sub-batches, by default _SUB_BATCH // N**2
        # samples each
        whole = sample_boundary(kind, n_dim, SeededStream(64), count=300)
        for batch in (1, 7, 64, 300, None):
            parts = list(_boundary_batches(kind, n_dim, 300, SeededStream(64).generator(), batch))
            assert all(part.flags.c_contiguous for part in parts)
            assert np.array_equal(np.concatenate(parts), whole)
            size = batch if batch is not None else max(1, _SUB_BATCH // n_dim**2)
            assert len(parts) == -(-300 // size)

    @pytest.mark.parametrize("sub_batch", [1, 7, CHUNK_SAMPLES])
    def test_sub_batch_size_changes_no_bit(self, monkeypatch, sub_batch):
        monkeypatch.setattr("nc_hardy.haar_mc._SUB_BATCH", sub_batch)
        kind, n_dim, f, g, _, pairing_pin, _ = _LAPACK_ROUTE_PINS[2]
        est = mc_pairing(f, g, 0.9, kind, n_dim, 4396, SeededStream(61), workers=2)
        assert _hex(est) == pairing_pin


class TestStratification:
    @pytest.mark.parametrize("family", ["polydisc", "ball_column", "ball_row"])
    def test_value_and_residual_split_the_whole_integrand(self, family):
        # the reference is stream plan 3's integrand (1/N) Tr(g(rX)* f(rX))
        # and, per stratum, the same integrand of f's and g's terms there
        n_dim = 3
        xs = sample_boundary(BoundaryKind(family, 2), n_dim, SeededStream(90), count=200)
        cases = (
            (_F2, _F2, 0.9),
            (_F2, _G2, 0.7),
            (_F2, NcSeries.monomial(2, (2, 1)), 1.0),
        )
        for f, g, r in cases:
            values = _pairing_values(xs, f, g, r)
            assert values.shape == (2, 200)
            fx, gx = _series_sums(xs, [(f, r), (g, r)])
            whole = np.einsum("bij,bij->b", gx.conj(), fx) / n_dim
            scale = np.linalg.norm(fx, axis=(1, 2)) * np.linalg.norm(gx, axis=(1, 2)) / n_dim
            assert np.all(np.abs(values[0] + values[1] - whole) <= 1e-12 * scale)
            stratified = np.zeros(200, dtype=complex)
            for stratum in {tuple(sorted(w)) for w in f.coeffs}:
                f_part, g_part = (
                    NcSeries(2, {w: c for w, c in h.coeffs.items() if tuple(sorted(w)) == stratum})
                    for h in (f, g)
                )
                fa, ga = _series_sums(xs, [(f_part, r), (g_part, r)])
                stratified += np.einsum("bij,bij->b", ga.conj(), fa) / n_dim
            assert np.all(np.abs(values[0] - stratified) <= 1e-12 * scale)

    def test_battery_words_agree_with_exact_and_residual_with_zero(self):
        # the pairing battery's words (every word of length <= 3 at m = 2) as
        # two series with unit coefficients of random phase
        rng = np.random.default_rng(4001)
        f, g = (
            NcSeries(2, {w: np.exp(2j * np.pi * rng.random()) for w in all_words(2, 3)})
            for _ in range(2)
        )
        kind = BoundaryKind.polydisc(2)
        for pos, n_dim in enumerate((2, 4, 8)):
            for h in (f, g):
                est = mc_pairing(f, h, 1.0, kind, n_dim, 20_000, SeededStream(4001, pos))
                exact = sesquilinear_moment_exact(f, h, 1.0, kind, n_dim)
                assert est.delta_in_se(exact) <= 3.0, (n_dim, est, exact)
                assert est.residual_in_se() <= 3.0, (n_dim, est)

    def test_se_falls_across_strata_and_stays_within_one(self):
        # one chunk, so plan 3's integrand can be recomputed on the same draws;
        # X1X2 + X2X1 (criterion 2) is one stratum, 1 + X1 + X1X2 three
        kind, n_dim, samples = BoundaryKind.polydisc(2), 4, CHUNK_SAMPLES
        xs = np.concatenate(
            list(_boundary_batches(kind, n_dim, samples, SeededStream(92).chunk_generator(0)))
        )
        single = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        multi = NcSeries(2, {(): 1.0, (1,): 1.0, (1, 2): 1.0})
        ses = {}
        for f in (single, multi):
            est = mc_pairing(f, f, 1.0, kind, n_dim, samples, SeededStream(92))
            fx = _series_sums(xs, [(f, 1.0)])[0]
            whole = np.einsum("bij,bij->b", fx.conj(), fx).real / n_dim
            ses[f] = est, whole.std(ddof=1) / np.sqrt(samples)
        est, plan3_se = ses[single]
        assert abs(est.std_error / plan3_se - 1) <= 1e-9
        assert (est.residual, est.residual_std_error) == (0, 0)
        est, plan3_se = ses[multi]
        assert est.std_error <= plan3_se / 5
        assert est.residual_std_error > 0

    @pytest.mark.parametrize("n_dim", [4, 8])  # Gram-Schmidt and LAPACK routes
    def test_every_field_keeps_its_bits_for_any_sub_batch(self, monkeypatch, n_dim):
        kind = BoundaryKind.ball_row(2)
        want = mc_pairing(_F2, _G2, 0.9, kind, n_dim, 4396, SeededStream(66))
        for sub_batch in (n_dim**2, 7 * n_dim**2, 4396 * n_dim**2):  # 1, 7 and all samples
            monkeypatch.setattr("nc_hardy.haar_mc._SUB_BATCH", sub_batch)
            for workers in (1, 2):
                est = mc_pairing(_F2, _G2, 0.9, kind, n_dim, 4396, SeededStream(66), workers=workers)
                assert est == want

    def test_one_word_strata_agree_with_exact_within_the_rounding_floor(self):
        # on the polydisc a one-word stratum's trace Tr((U^w)* U^w)/N is 1 at
        # every point, so each value below is exact up to rounding, and its
        # sample spread is rounding noise: the SE is the floor
        kind1, kind2 = BoundaryKind.polydisc(1), BoundaryKind.polydisc(2)
        three = NcSeries(2, {(): 1.0, (1,): 1.0, (1, 2): 1.0})
        plus, minus = NcSeries(2, {(1,): 1.0, (2,): 1.0}), NcSeries(2, {(1,): 1.0, (2,): -1.0})
        ulp = _ROUNDING_ULPS * sys.float_info.epsilon
        for f, g, kind in ((_F1, _F1, kind1), (three, three, kind2), (plus, minus, kind2)):
            bound = sum(abs(c * g[w]) * 0.81 ** len(w) for w, c in f.coeffs.items())
            for n_dim in (2, 4, 16):
                est = mc_pairing(f, g, 0.9, kind, n_dim, 4396, SeededStream(68))
                exact = sesquilinear_moment_exact(f, g, 0.9, kind, n_dim)
                assert est.std_error == pytest.approx(ulp * bound, rel=1e-12)
                assert est.delta_in_se(exact) <= 3.0, (n_dim, est, exact)

    def test_residual_in_se_needs_a_residual(self):
        factors = [FreenessFactor(1, {1: 1.0})]
        row = freeness_diagnostic(factors, [3], 500, SeededStream(67)).rows[0]
        with pytest.raises(ValueError, match="no symmetry residual"):
            row.estimate.residual_in_se()

    def test_json_reports_the_residual(self):
        est = mc_pairing(_F2, _G2, 0.9, BoundaryKind.polydisc(2), 3, 500, SeededStream(67))
        assert est.to_json_dict()["symmetry_residual"] == {
            "re": est.residual.real,
            "im": est.residual.imag,
            "std_error": est.residual_std_error,
        }
        factors = [FreenessFactor(1, {1: 1.0})]
        row = freeness_diagnostic(factors, [3], 500, SeededStream(67)).rows[0]
        assert row.estimate.residual is None
        assert "symmetry_residual" not in row.estimate.to_json_dict()


class TestMCEstimate:
    def test_from_chunks_matches_numpy(self):
        rng = np.random.default_rng(40)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        chunks = [z[:200], z[200:400], z[400:497], z[497:]]
        est = MCEstimate.from_chunks(
            [
                (len(c), complex(c.sum()), float(np.square(np.abs(c - c.sum() / len(c))).sum()))
                for c in chunks
            ],
            9,
        )
        total = 0j
        for c in chunks:
            total += complex(c.sum())
        assert est.mean == total / len(z)
        assert abs(est.mean - z.mean()) < 1e-12
        want_se = z.std(ddof=1) / np.sqrt(len(z))
        assert abs(est.std_error - want_se) < 1e-12
        assert (est.samples, est.seed, est.stream_plan) == (500, 9, STREAM_PLAN)
        assert est.to_json_dict()["stream_plan"] == STREAM_PLAN == 5

    def test_standard_error_survives_a_large_mean(self):
        # f = a X1X2 + b X2X1 is one stratum, so (1/N) Tr(f(X)* f(X)) is the
        # stratified value a^2 + b^2 + 2ab Re Tr((X1X2)* X2X1)/N, and its SE
        # is ab times that of X1X2 + X2X1 on the same draws.  A
        # sum-of-squares reduction cancels to 0 here; the merge keeps it.
        kind, stream = BoundaryKind.polydisc(2), SeededStream(3)
        big = NcSeries(2, {(1, 2): 1e4, (2, 1): 1e-6})
        unit = NcSeries(2, {(1, 2): 1.0, (2, 1): 1.0})
        est = mc_pairing(big, big, 1.0, kind, 2, 8192, stream)
        ref = mc_pairing(unit, unit, 1.0, kind, 2, 8192, stream)
        assert abs(est.std_error / (1e-2 * ref.std_error) - 1) <= 1e-6
        assert abs(est.std_error - 1.153e-4) <= 1e-7
        # f = a + b X1 is two strata: its value a^2 + b^2 has no spread, so
        # its SE is the rounding floor, and the cross term 2ab Re Tr(X1)/N
        # is the residual, with the SE that the whole integrand had under
        # stream plan 3 on these draws
        kind = BoundaryKind.polydisc(1)
        big = NcSeries(1, {(): 1e4, (1,): 1e-6})
        unit = NcSeries(1, {(): 1.0, (1,): 1.0})
        est = mc_pairing(big, big, 1.0, kind, 2, 8192, stream)
        ref = mc_pairing(unit, unit, 1.0, kind, 2, 8192, stream)
        assert (est.mean, est.std_error) == (1e8, _ROUNDING_ULPS * sys.float_info.epsilon * 1e8)
        assert abs(est.residual_std_error / (1e-2 * ref.residual_std_error) - 1) <= 1e-6
        assert abs(est.residual_std_error - 7.79e-5) <= 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            MCEstimate(mean=0j, std_error=0.0, samples=1, seed=0)
        with pytest.raises(ValueError):
            MCEstimate(mean=0j, std_error=-1.0, samples=5, seed=0)
        for residual, se in ((0j, None), (None, 0.1), (complex("nan"), 0.1), (0j, -1.0)):
            with pytest.raises(ValueError):
                MCEstimate(0j, 0.0, 5, 0, residual=residual, residual_std_error=se)

    def test_non_finite_mean_or_std_error_rejected(self):
        nan, inf = float("nan"), float("inf")
        for mean, se in (
            (complex(nan), nan),
            (complex(nan), 0.5),
            (complex(0.0, inf), 0.5),
            (1j, nan),
            (1j, inf),
        ):
            with pytest.raises(ValueError, match="finite"):
                MCEstimate(mean=mean, std_error=se, samples=10, seed=1)


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

    def test_bits_pinned(self):
        # three letters, negative and repeated powers, two chunks per row;
        # digest of the little-endian (re, im, std_error) rows captured before
        # the powers moved onto the shared word-product walk
        factors = [
            FreenessFactor(1, {1: 1.0, -2: 0.5j}),
            FreenessFactor(2, {2: 1.0, -1: -0.25}),
            FreenessFactor(3, {-2: 0.5, 3: 1.0 - 0.5j}),
            FreenessFactor(1, {-2: 1.0, 2: 0.3}),
        ]
        for workers in (1, 2):
            report = freeness_diagnostic(factors, [2, 4], 5000, SeededStream(55), workers)
            stats = [
                (row.estimate.mean.real, row.estimate.mean.imag, row.estimate.std_error)
                for row in report.rows
            ]
            assert hashlib.sha256(np.array(stats, dtype="<f8").tobytes()).hexdigest() == (
                "5425f083d5f81d084c73a001ee95d3a52e7c79c412d390e5b89a570407d1dee2"
            )

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

    def test_invalid_level_rejected_before_any_row(self, monkeypatch):
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr("nc_hardy.haar_mc._mc_estimate", no_row)
        factors = [FreenessFactor(1, {1: 1.0}), FreenessFactor(2, {1: 1.0})]
        with pytest.raises(ValueError, match="N must be >= 1"):
            freeness_diagnostic(factors, (64, 0), 20_000, SeededStream(56))
        with pytest.raises(ValueError, match="N must be an integer"):
            freeness_diagnostic(factors, (64, 4.5), 20_000, SeededStream(56))

    def test_letter_and_powers_follow_the_integer_rule(self):
        for letter, terms, message in (
            (1, {1.5: 1.0}, "power must be an integer, got 1.5"),
            (2.5, {1: 1.0}, "letter must be an integer, got 2.5"),
            (0, {1: 1.0}, "letter must be >= 1"),
        ):
            with pytest.raises(FreenessStructureError, match=message):
                FreenessFactor(letter, terms)
        factor = FreenessFactor(np.int64(2), {np.int64(-1): 1.0})
        assert (factor.letter, factor.terms) == (2, ((-1, 1.0),))
        assert type(factor.letter) is int and type(factor.terms[0][0]) is int

    def test_workers_checked_before_any_row(self, monkeypatch):
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr("nc_hardy.haar_mc._mc_estimate", no_row)
        factors = [FreenessFactor(1, {1: 1.0}), FreenessFactor(2, {1: 1.0})]
        for workers, message in ((2.5, "workers must be an integer"), (0, "workers must be >= 1")):
            with pytest.raises(ValueError, match=message):
                freeness_diagnostic(factors, [4, 8], 100, SeededStream(57), workers)

    def test_non_finite_coefficient_rejected(self):
        for bad in (float("nan"), float("inf"), complex(0.0, float("-inf")), complex(1.0, float("nan"))):
            with pytest.raises(FreenessStructureError, match="not finite"):
                FreenessFactor(1, {1: 1.0, -2: bad})
