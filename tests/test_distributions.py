import math

import numpy as np
import pytest
from scipy import stats as sps

from oracles import pdf_power_integral_quadrature, radial_cdf_from_log_pdf
from tsgof.errors import DomainError, InfeasibleModelError
from tsgof.distributions import (
    GGParams,
    QGaussianParams,
    gg_covariance,
    gg_log_pdf,
    gg_norm_const,
    gg_q_integral,
    gg_sample,
    gg_tsallis_entropy,
    gg_variance_scale,
    qgauss_covariance,
    qgauss_covariance_factor,
    qgauss_log_pdf,
    qgauss_norm_const,
    qgauss_q_integral,
    qgauss_sample,
    qgauss_tsallis_entropy,
    tsallis_entropy_uniform,
)
from tsgof.gof import infeasibility_reason
from tsgof.linalg import SymPDMatrix, sample_mean_cov
from tsgof.mathcore import RngStream

GAUSS_SHANNON_1D = 0.5 * math.log(2.0 * math.pi * math.e)


class TestGGNormConst:
    def test_gaussian_1d(self):
        assert gg_norm_const(1, 2.0) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_gaussian_2d(self):
        assert gg_norm_const(2, 2.0) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_laplace_type_1d(self):
        assert gg_norm_const(1, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_gaussian_reduction_with_sigma(self):
        sigma = SymPDMatrix([[4.0, 1.0], [1.0, 2.0]])
        expected = (2.0 * math.pi) * math.sqrt(7.0)
        assert gg_norm_const(2, 2.0, sigma) == pytest.approx(expected, rel=1e-12)

    def test_density_normalizes_m1_m2(self):
        for m in (1, 2):
            for s in (1.0, 2.0, 3.0):
                params = GGParams(m=m, s=s)
                total = pdf_power_integral_quadrature(params, 1.0)
                assert total == pytest.approx(1.0, abs=1e-6), f"m={m} s={s}"

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            gg_norm_const(1, 0.0)


class TestGGLogPdf:
    def test_standard_normal_peak(self):
        params = GGParams(m=1, s=2.0)
        assert gg_log_pdf([0.0], params) == pytest.approx(
            math.log(1.0 / math.sqrt(2.0 * math.pi)), rel=1e-12
        )

    def test_laplace_type_peak(self):
        params = GGParams(m=1, s=1.0)
        assert gg_log_pdf([0.0], params) == pytest.approx(math.log(0.25), rel=1e-12)

    def test_s2_equals_multivariate_normal(self):
        gen = RngStream(21, 0).generator
        for m in (1, 2, 3):
            a = gen.standard_normal((m, m))
            sigma = a @ a.T + m * np.eye(m)
            mu = gen.standard_normal(m)
            params = GGParams(m=m, s=2.0, alpha=mu, sigma=SymPDMatrix(sigma))
            ref = sps.multivariate_normal(mean=mu, cov=sigma)
            for _ in range(10):
                x = gen.standard_normal(m) * 2.0
                assert gg_log_pdf(x, params) == pytest.approx(ref.logpdf(x), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            gg_log_pdf([0.0, 1.0], GGParams(m=1, s=2.0))


class TestGGVarianceScale:
    def test_gaussian_case_is_one(self):
        for m in (1, 2, 3, 5):
            assert gg_variance_scale(m, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_hand_values(self):
        assert gg_variance_scale(1, 1.0) == pytest.approx(8.0, rel=1e-12)
        assert gg_variance_scale(2, 1.0) == pytest.approx(12.0, rel=1e-12)

    def test_covariance_helper(self):
        params = GGParams(m=2, s=1.0, sigma=SymPDMatrix(np.diag([2.0, 0.5])))
        cov = gg_covariance(params)
        assert np.allclose(cov.entries, np.diag([24.0, 6.0]), rtol=1e-12)


class TestGGSample:
    def test_gaussian_covariance_recovery(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        params = GGParams(m=2, s=2.0, sigma=SymPDMatrix(sigma))
        draws = gg_sample(params, 100_000, RngStream(22, 0))
        _, cov = sample_mean_cov(draws)
        assert np.all(np.abs(cov.entries / sigma - 1.0) < 0.05)

    def test_laplace_type_variance(self):
        params = GGParams(m=1, s=1.0)
        draws = gg_sample(params, 100_000, RngStream(23, 0))
        assert abs(draws.var() - 8.0) <= 0.3

    def test_mean_matches_location(self):
        alpha = np.array([3.0, -1.0])
        params = GGParams(m=2, s=3.0, alpha=alpha)
        draws = gg_sample(params, 100_000, RngStream(24, 0))
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - alpha) < 3.0 * se + 1e-9)

    def test_reproducible(self):
        params = GGParams(m=2, s=1.5)
        a = gg_sample(params, 100, RngStream(25, 7))
        b = gg_sample(params, 100, RngStream(25, 7))
        assert np.array_equal(a, b)


class TestGGQIntegral:
    def test_near_one_at_q_one(self):
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            assert gg_q_integral(2, 1.5, None, q) == pytest.approx(1.0, abs=1e-5)

    def test_gaussian_square_integral(self):
        assert gg_q_integral(1, 2.0, None, 2.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12
        )

    def test_against_quadrature_spot_checks(self):
        for m, s, q in [(1, 1.0, 2.0), (2, 1.0, 0.5), (1, 3.0, 0.8), (2, 2.0, 1.5)]:
            closed = gg_q_integral(m, s, None, q)
            numeric = pdf_power_integral_quadrature(GGParams(m=m, s=s), q)
            assert closed == pytest.approx(numeric, rel=1e-6), f"m={m} s={s} q={q}"

    def test_rejects_q_one_and_nonpositive(self):
        with pytest.raises(DomainError):
            gg_q_integral(1, 2.0, None, 1.0)
        with pytest.raises(DomainError):
            gg_q_integral(1, 2.0, None, 0.0)


class TestGGTsallisEntropy:
    def test_gaussian_q2_value(self):
        expected = (1.0 / (2.0 * math.sqrt(math.pi)) - 1.0) / (1.0 - 2.0)
        assert gg_tsallis_entropy(1, 2.0, None, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_shannon_limit(self):
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            assert gg_tsallis_entropy(1, 2.0, None, q) == pytest.approx(
                GAUSS_SHANNON_1D, abs=1e-3
            )

    def test_monotone_in_scale(self):
        small = gg_tsallis_entropy(1, 2.0, SymPDMatrix([[1.0]]), 1.5)
        large = gg_tsallis_entropy(1, 2.0, SymPDMatrix([[4.0]]), 1.5)
        assert large > small


class TestQGaussianParams:
    def test_rejects_non_normalizable(self):
        with pytest.raises(InfeasibleModelError) as err:
            QGaussianParams(m=2, q=3.0)
        assert "1 + 2/m" in str(err.value)

    def test_boundary_q_rejected(self):
        with pytest.raises(InfeasibleModelError):
            QGaussianParams(m=2, q=2.0)  # nu = 0 exactly

    def test_nu_and_covariance_flag(self):
        p = QGaussianParams(m=2, q=1.2)
        assert p.nu == pytest.approx(8.0, rel=1e-12)
        assert qgauss_covariance(p).dim == 2
        with pytest.raises(InfeasibleModelError):
            qgauss_covariance(QGaussianParams(m=2, q=1.6))

    def test_gaussian_limit_allowed(self):
        p = QGaussianParams(m=3, q=1.0)
        assert p.m == 3


class TestQGaussNormConst:
    def test_cauchy_like_1d(self):
        assert qgauss_norm_const(QGaussianParams(m=1, q=2.0)) == pytest.approx(
            1.0 / (math.pi * math.sqrt(2.0)), rel=1e-12
        )

    def test_gaussian_limit(self):
        for m in (1, 2, 3):
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                got = qgauss_norm_const(QGaussianParams(m=m, q=q))
                assert got == pytest.approx((2.0 * math.pi) ** (-m / 2.0), rel=1e-4)

    def test_density_normalizes_m1_m2(self):
        for m in (1, 2):
            for q in (0.5, 0.8, 1.2, 1.5):
                params = QGaussianParams(m=m, q=q)
                total = pdf_power_integral_quadrature(params, 1.0)
                assert total == pytest.approx(1.0, abs=1e-6), f"m={m} q={q}"


class TestQGaussLogPdf:
    def test_peak_is_log_norm_const(self):
        params = QGaussianParams(m=2, q=0.7)
        assert qgauss_log_pdf([0.0, 0.0], params) == pytest.approx(
            math.log(qgauss_norm_const(params)), rel=1e-12
        )

    def test_outside_support_is_minus_inf(self):
        params = QGaussianParams(m=1, q=0.5)  # support radius 2
        assert qgauss_log_pdf([2.0001], params) == -math.inf
        assert qgauss_log_pdf([1.9999], params) > -math.inf

    def test_hand_value_heavy_tail(self):
        params = QGaussianParams(m=1, q=2.0)
        expected = -math.log(math.pi * math.sqrt(2.0)) - math.log(2.0)
        assert qgauss_log_pdf([math.sqrt(2.0)], params) == pytest.approx(expected, rel=1e-12)

    def test_q_one_is_normal(self):
        params = QGaussianParams(m=1, q=1.0)
        assert qgauss_log_pdf([0.3], params) == pytest.approx(
            sps.norm.logpdf(0.3), abs=1e-12
        )


class TestQGaussQIntegralAndEntropy:
    def test_compact_branch_against_quadrature(self):
        params = QGaussianParams(m=1, q=0.5)
        closed = qgauss_q_integral(params)
        numeric = pdf_power_integral_quadrature(params, 0.5)
        assert closed == pytest.approx(numeric, rel=1e-8)

    def test_heavy_branch_against_quadrature(self):
        params = QGaussianParams(m=2, q=1.2)
        closed = qgauss_q_integral(params)
        numeric = pdf_power_integral_quadrature(params, 1.2)
        assert closed == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [0.5, 1.2])
    def test_det_scaling_law(self, m, q):
        c = 2.0
        base = QGaussianParams(m=m, q=q)
        scaled = QGaussianParams(m=m, q=q, sigma=SymPDMatrix(c * c * np.eye(m)))
        assert qgauss_q_integral(scaled) == pytest.approx(
            qgauss_q_integral(base) * c ** (m * (1.0 - q)), rel=1e-10
        )

    def test_shannon_limit(self):
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            got = qgauss_tsallis_entropy(QGaussianParams(m=1, q=q))
            assert got == pytest.approx(GAUSS_SHANNON_1D, abs=1e-3)

    def test_divergent_q_integral_unreachable_past_params_guard(self):
        # q/(q-1) > 1/(q-1), so any normalizable q > 1 member has a finite
        # q-integral; the divergence error surfaces at params construction.
        with pytest.raises(InfeasibleModelError):
            qgauss_q_integral(QGaussianParams(m=2, q=2.5))

    def test_entropy_rejects_q_one(self):
        with pytest.raises(DomainError):
            qgauss_tsallis_entropy(QGaussianParams(m=1, q=1.0))


class TestQGaussCovariance:
    def test_factor_matches_student_t_formula(self):
        # nu = 8, c^2 = 1.25 -> covariance factor = 1.25 * 8/6
        assert qgauss_covariance_factor(2, 1.2) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_factor_gaussian_limit(self):
        assert qgauss_covariance_factor(3, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_factor_compact_branch(self):
        # q=0.5, m=1: 2 / (2 + 0.5*3) = 4/7
        assert qgauss_covariance_factor(1, 0.5) == pytest.approx(4.0 / 7.0, rel=1e-12)

    def test_no_covariance_raises(self):
        with pytest.raises(InfeasibleModelError) as err:
            qgauss_covariance_factor(2, 1.6)
        assert "1 + 2/(m+2)" in str(err.value)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_guard_is_the_feasibility_rule_at_its_boundary(self, m):
        # at q = 1 + 2/(m+2) as a float, 2 + (1 - q)(m + 2) rounds to a tiny
        # positive number for m in {1, 3, 4, 5, 8}; the guard must still raise
        boundary = 1.0 + 2.0 / (m + 2.0)
        assert infeasibility_reason("t1", boundary, m) is not None
        with pytest.raises(InfeasibleModelError):
            qgauss_covariance_factor(m, boundary)
        below = math.nextafter(boundary, 1.0)
        assert infeasibility_reason("t1", below, m) is None
        assert qgauss_covariance_factor(m, below) == 2.0 / (2.0 + (1.0 - below) * (m + 2.0))

    def test_compact_branch_monte_carlo(self):
        params = QGaussianParams(m=1, q=0.5)
        draws = qgauss_sample(params, 200_000, RngStream(31, 0))
        assert abs(draws.var() - 4.0 / 7.0) < 0.01


class TestQGaussSample:
    def test_compact_support_bound(self):
        params = QGaussianParams(m=1, q=0.5, mu=[1.0])
        draws = qgauss_sample(params, 10_000, RngStream(32, 0))
        assert np.all(np.abs(draws - 1.0) <= 2.0)

    def test_heavy_tail_covariance(self):
        params = QGaussianParams(m=2, q=1.2)
        draws = qgauss_sample(params, 100_000, RngStream(33, 0))
        _, cov = sample_mean_cov(draws)
        assert np.all(np.abs(cov.entries - (5.0 / 3.0) * np.eye(2)) < 0.09)

    def test_gaussian_case(self):
        params = QGaussianParams(m=2, q=1.0)
        draws = qgauss_sample(params, 100_000, RngStream(34, 0))
        _, cov = sample_mean_cov(draws)
        assert np.all(np.abs(cov.entries - np.eye(2)) < 0.05)

    def test_radial_ks_against_density_quadrature(self):
        params = QGaussianParams(m=2, q=1.2)
        draws = qgauss_sample(params, 10_000, RngStream(35, 0))
        radii = np.sqrt(np.einsum("ij,ij->i", draws, draws))
        grid = np.linspace(0.0, radii.max() * 1.01, 512)[1:]
        cdf_grid = radial_cdf_from_log_pdf(params, grid)
        result = sps.ks_1samp(radii, lambda r: np.interp(r, grid, cdf_grid))
        assert result.pvalue > 0.01

    def test_reproducible(self):
        params = QGaussianParams(m=3, q=1.3)
        a = qgauss_sample(params, 50, RngStream(36, 4))
        b = qgauss_sample(params, 50, RngStream(36, 4))
        assert np.array_equal(a, b)


class TestClosedFormProperties:
    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_pseudo_additivity_for_uniforms(self, q):
        h1 = tsallis_entropy_uniform(2.0, q)
        h2 = tsallis_entropy_uniform(3.0, q)
        joint = tsallis_entropy_uniform(6.0, q)
        assert joint == pytest.approx(h1 + h2 + (1.0 - q) * h1 * h2, abs=1e-12)

    @pytest.mark.parametrize("q", [0.8, 1.2])
    def test_dual_index_member_maximizes_entropy_at_fixed_variance(self, q):
        # Lagrange stationarity for maximizing H_q under an ordinary variance
        # constraint gives f proportional to (A - B x^2)^(1/(q-1)), i.e. the
        # q-Gaussian with the dual index 2-q, not index q itself. Its order-q
        # entropy must dominate both the index-q member and every
        # variance-matched generalized Gaussian.
        variance = 1.0
        dual = 2.0 - q
        params_dual = QGaussianParams(
            m=1, q=dual, sigma=SymPDMatrix([[variance / qgauss_covariance_factor(1, dual)]])
        )
        h_dual = pdf_power_integral_quadrature(params_dual, q)
        h_dual = (1.0 - h_dual) / (q - 1.0)
        h_same = qgauss_tsallis_entropy(
            QGaussianParams(
                m=1, q=q, sigma=SymPDMatrix([[variance / qgauss_covariance_factor(1, q)]])
            )
        )
        assert h_dual >= h_same - 1e-9
        for s in (1.0, 2.0, 3.0):
            gg_sigma = variance / gg_variance_scale(1, s)
            h_gg = gg_tsallis_entropy(1, s, SymPDMatrix([[gg_sigma]]), q)
            assert h_dual >= h_gg - 1e-9, f"s={s}"

    def test_statistic_direction_against_uniform_alternative(self):
        # the one-sided test's power direction: the variance-matched null
        # member's entropy exceeds the uniform cube's entropy at q=1.2, m=2
        cov_factor = qgauss_covariance_factor(2, 1.2)
        member = QGaussianParams(
            m=2, q=1.2, sigma=SymPDMatrix(np.eye(2) / 12.0 / cov_factor)
        )
        assert qgauss_tsallis_entropy(member) > tsallis_entropy_uniform(1.0, 1.2)
