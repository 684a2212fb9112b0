import math

import numpy as np
import pytest

from tsgof.errors import DegenerateSampleError, DomainError
from tsgof.distributions import gg_tsallis_entropy
from tsgof.entropy import (
    check_consistency_conditions,
    knn_bias_constant,
    lps_estimate,
    tsallis_knn_estimate,
)
from tsgof.mathcore import RngStream, unit_ball_volume


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
        # heavy-tailed distances over 12 decades, summed in log space
        gen = RngStream(8, 0).generator
        rho = np.abs(gen.standard_t(1.2, size=4000)) * 10.0 ** gen.integers(-6, 6, size=4000)
        m, k, n = 2, 2, 4000
        log_scale = (
            math.log(n - 1) + math.log(knn_bias_constant(k, q)) + math.log(unit_ball_volume(m))
        )
        powers = np.exp((1.0 - q) * (log_scale + m * np.log(rho)))
        estimate = lps_estimate(rho, k, q, m)
        assert estimate.i_hat == math.fsum(powers) / n
        assert estimate.h_hat == (1.0 - estimate.i_hat) / (q - 1.0)


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
