import math
import warnings

import numpy as np
import pytest

from oracles import lps_estimate_reference
from tsgof.errors import DegenerateSampleError, DomainError
from tsgof.distributions import QGaussianParams, gg_tsallis_entropy, qgauss_sample
from tsgof.entropy import (
    check_consistency_conditions,
    knn_bias_constant,
    lps_block,
    tsallis_knn_estimate,
)
from tsgof.mathcore import RngStream


class TestBiasConstant:
    def test_k1_q_half(self):
        assert knn_bias_constant(1, 0.5) == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_k2_q_half(self):
        expected = (math.gamma(2.0) / math.gamma(2.5)) ** 2
        assert knn_bias_constant(2, 0.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5658843, abs=1e-7)

    def test_gamma_pole(self):
        with pytest.raises(DomainError):
            knn_bias_constant(1, 2.0)

    def test_q_range(self):
        with pytest.raises(DomainError):
            knn_bias_constant(2, 3.0)
        with pytest.raises(DomainError):
            knn_bias_constant(1, 0.0)
        with pytest.raises(DomainError):
            knn_bias_constant(1, 1.0)
        with pytest.raises(DomainError):
            knn_bias_constant(0, 0.5)


# the one entropy-order rule, in the words each of its callers reports
ORDER_REFUSALS = [
    (1.0, "entropy order q = 1 is excluded (Shannon case out of scope)"),
    (0.0, "entropy order q must be positive and finite, got 0.0"),
    (-1.0, "entropy order q must be positive and finite, got -1.0"),
    (math.nan, "entropy order q must be positive and finite, got nan"),
    (math.inf, "entropy order q must be positive and finite, got inf"),
]
ORDER_IDS = [repr(q) for q, _ in ORDER_REFUSALS]


class TestOrderRule:
    @pytest.mark.parametrize("q, message", ORDER_REFUSALS, ids=ORDER_IDS)
    def test_bias_constant_refusals_in_full(self, q, message):
        with pytest.raises(DomainError) as err:
            knn_bias_constant(1, q)
        assert str(err.value) == message

    @pytest.mark.parametrize("q, message", ORDER_REFUSALS, ids=ORDER_IDS)
    def test_consistency_conditions_refusals_in_full(self, q, message):
        # unchecked, q = inf gives a report with every condition False
        with pytest.raises(DomainError) as err:
            check_consistency_conditions(math.inf, m=2, q=q)
        assert str(err.value) == message

    def test_estimator_bound_keeps_its_words(self):
        with pytest.raises(DomainError) as err:
            knn_bias_constant(2, 3.0)
        assert str(err.value) == "estimator requires q < k + 1 = 3, got q=3.0"

    def test_integer_rule_comes_first(self):
        with pytest.raises(DomainError) as err:
            knn_bias_constant(0, math.nan)
        assert str(err.value) == "k must be a positive integer, got 0"


class TestWorkedExample:
    def test_two_points_exact(self):
        est = tsallis_knn_estimate([[0.0], [1.0]], k=1, q=0.5)
        expected_i = math.sqrt(8.0 / math.pi)
        expected_h = (1.0 - expected_i) / (0.5 - 1.0)
        assert abs(est.i_hat - expected_i) <= 1e-12
        assert abs(est.h_hat - expected_h) <= 1e-12
        assert (est.q, est.k, est.n, est.m) == (0.5, 1, 2, 1)

    def test_identity_between_fields(self):
        x = RngStream(51, 0).generator.random((100, 2))
        est = tsallis_knn_estimate(x, k=2, q=0.7)
        assert est.h_hat == (1.0 - est.i_hat) / (est.q - 1.0)
        assert est.i_hat > 0


class TestLpsSum:
    @pytest.mark.parametrize("q", [0.5, 1.5])
    def test_bits_equal_fsum_over_array(self, q):
        # k-th neighbor distances over about 12 decades, summed in log space;
        # a plain np.sum misses math.fsum's bits on about a third of such
        # samples, so sixteen of them catch a sum that is not exactly rounded
        for stream in range(8):
            gen = RngStream(8, stream).generator
            gaps = 10.0 ** gen.uniform(-6.0, 6.0, size=1000)
            line = gen.permutation(np.cumsum(gaps))[:, None]
            plane = gen.standard_normal((1000, 2)) * 10.0 ** gen.integers(-6, 6, size=(1000, 1))
            for x in (line, plane):
                estimate = tsallis_knn_estimate(x, 2, q)
                i_hat, h_hat = lps_estimate_reference(x, 2, q)
                assert estimate.i_hat == i_hat
                assert estimate.h_hat == h_hat


class TestLpsBlock:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [0.5, 1.2])
    def test_row_does_not_depend_on_its_stack(self, m, q):
        # each row of a stack of null draws is that draw's own block of one,
        # and the term-by-term estimate at each k, bit for bit
        ks = (1, 3)
        params = QGaussianParams(m=m, q=q)
        samples = np.stack([qgauss_sample(params, 60, RngStream(19, j)) for j in range(5)])
        block = lps_block(samples, ks, q)
        assert block.shape == (5, 2)
        for row, sample in zip(block, samples):
            assert row.tobytes() == lps_block(sample[None], ks, q)[0].tobytes()
            assert row.tolist() == [lps_estimate_reference(sample, k, q)[0] for k in ks]


class TestEstimatorStatistics:
    def test_uniform_square_near_zero_entropy(self):
        vals = [
            tsallis_knn_estimate(
                RngStream(52, rep).generator.random((5000, 2)), k=1, q=0.5
            ).h_hat
            for rep in range(10)
        ]
        assert abs(np.mean(vals)) <= 0.04

    def test_gaussian_matches_closed_form(self):
        closed = gg_tsallis_entropy(1, 2.0, None, 2.0)
        vals = [
            tsallis_knn_estimate(
                RngStream(53, rep).generator.standard_normal((10_000, 1)), k=2, q=2.0
            ).h_hat
            for rep in range(50)
        ]
        assert np.mean(vals) == pytest.approx(closed, abs=0.02)
        assert closed == pytest.approx(0.7179052, abs=1e-6)

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_scaling_law(self, q):
        x = RngStream(54, 0).generator.standard_normal((500, 2))
        k = 2
        base = tsallis_knn_estimate(x, k, q)
        scaled = tsallis_knn_estimate(2.0 * x, k, q)
        factor = 2.0 ** (2 * (1.0 - q))
        assert scaled.i_hat == pytest.approx(base.i_hat * factor, rel=1e-10)

    def test_positive_i_hat_for_q_below_one(self):
        x = RngStream(55, 0).generator.standard_normal((200, 3))
        est = tsallis_knn_estimate(x, k=1, q=0.3)
        assert est.i_hat > 0
        assert np.sign(est.h_hat) == np.sign((est.i_hat - 1.0) / (1.0 - 0.3))


class TestEstimatorInvariances:
    def test_exact_under_distance_preserving_fp_maps(self):
        gen = RngStream(56, 0).generator
        x = gen.standard_normal((300, 3))
        base = tsallis_knn_estimate(x, k=2, q=0.5).i_hat
        # row permutation
        perm = gen.permutation(300)
        assert tsallis_knn_estimate(x[perm], k=2, q=0.5).i_hat == base
        # coordinate permutation and sign flips are exact in floating point
        flipped = x[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
        assert tsallis_knn_estimate(flipped, k=2, q=0.5).i_hat == base

    def test_stable_under_generic_rotation(self):
        gen = RngStream(57, 0).generator
        x = gen.standard_normal((300, 3))
        rotation, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        base = tsallis_knn_estimate(x, k=1, q=0.5).i_hat
        moved = tsallis_knn_estimate(x @ rotation.T, k=1, q=0.5).i_hat
        assert moved == pytest.approx(base, rel=1e-9)


class TestDuplicatePolicy:
    def test_duplicates_error_for_heavy_q(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        with pytest.raises(DegenerateSampleError):
            tsallis_knn_estimate(x, k=1, q=1.5)

    def test_duplicates_fine_for_light_q(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        est = tsallis_knn_estimate(x, k=1, q=0.5)
        assert math.isfinite(est.h_hat)


class TestEstimateValidation:
    def test_requires_n_greater_than_k(self):
        with pytest.raises(DomainError):
            tsallis_knn_estimate(np.zeros((3, 1)), k=3, q=0.5)

    def test_requires_q_below_k_plus_one(self):
        x = RngStream(61, 0).generator.random((50, 1))
        with pytest.raises(DomainError):
            tsallis_knn_estimate(x, k=1, q=2.0)

    def test_rejects_q_one(self):
        x = RngStream(62, 0).generator.random((50, 1))
        with pytest.raises(DomainError):
            tsallis_knn_estimate(x, k=1, q=1.0)

    @pytest.mark.parametrize(
        "rows, k, q, cause",
        [
            # finite terms near 1.5e308 whose sum overflows inside math.fsum
            ([[0, 0], [4.9e153, 0], [-4.9e153, 0]], 1, 5e-324, "intermediate overflow in fsum"),
            # neighbor distances past float64, so the terms are inf
            ([[1e300, 1e300], [1, 0], [0.5, 0.5], [1e300, 2.5], [1e300, 2.5]], 2, 5e-324,
             "a sum is not finite"),
            # finite distances whose terms overflow in np.exp
            ([[1e154, 3e153], [1, 0], [0.5, 0.5], [-2e153, 2.5], [7e153, -1e153], [3, 4]], 2, 1e-5,
             "a sum is not finite"),
        ],
        ids=["fsum", "distances", "exp"],
    )
    def test_overflow_is_a_domain_error_without_a_warning(self, rows, k, q, cause):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError) as err:
                tsallis_knn_estimate(np.array(rows, dtype=float), k=k, q=q)
        assert str(err.value) == f"estimator terms overflow float64: {cause}"
        assert caught == []


class TestConsistencyConditions:
    def test_compact_support_both_hold(self):
        report = check_consistency_conditions(math.inf, m=2, q=0.8)
        assert report.r_c == math.inf
        assert report.condition_mean and report.condition_mean_square
        assert report.q_range_ok

    def test_strict_inequality_at_boundary(self):
        report = check_consistency_conditions(4.0, m=2, q=0.5)
        assert report.r_c == 2.0
        assert not report.condition_mean  # needs r_c > 2, strictly

    def test_mean_square_needs_more(self):
        report = check_consistency_conditions(6.0, m=2, q=0.6, k=1)
        assert report.r_c == 4.0
        assert report.condition_mean  # 4 > 4/3
        assert not report.condition_mean_square  # bound is 8

    def test_mean_square_implies_q_above_half(self):
        report = check_consistency_conditions(math.inf, m=1, q=0.4)
        assert not report.condition_mean_square

    def test_heavy_q_range_via_k(self):
        assert not check_consistency_conditions(math.inf, m=1, q=1.5, k=1).q_range_ok
        assert check_consistency_conditions(math.inf, m=1, q=1.5, k=3).q_range_ok

    def test_invalid_tail_exponent(self):
        with pytest.raises(DomainError):
            check_consistency_conditions(1.5, m=2, q=0.5)
