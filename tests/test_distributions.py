import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from oracles import (
    gg_log_pdf,
    pdf_power_integral_quadrature,
    qgauss_log_pdf,
    qgauss_log_radial_two_branch,
    radial_cdf_from_log_pdf,
)
from tsgof.errors import DomainError, InfeasibleModelError, NotPositiveDefiniteError
from tsgof.distributions import (
    GGParams,
    QGaussianParams,
    _qgauss_log_radial,
    gg_q_integral,
    gg_sample,
    gg_tsallis_entropy,
    gg_variance_scale,
    qgauss_covariance_factor,
    qgauss_null_entropies,
    qgauss_q_integral,
    qgauss_sample,
    qgauss_tsallis_entropy,
)
from tsgof.gof import infeasibility_reason
from tsgof.linalg import SymPDMatrix, sample_moments
from tsgof.mathcore import RngStream

GAUSS_SHANNON_1D = 0.5 * math.log(2.0 * math.pi * math.e)


class TestGGNormConst:
    # the oracle density's normalizer, by hand values and by quadrature
    def test_gaussian_1d(self):
        expected = -0.5 - math.log(math.sqrt(2.0 * math.pi))
        assert gg_log_pdf([1.0], GGParams(m=1, s=2.0)) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_2d(self):
        expected = -math.log(2.0 * math.pi)
        assert gg_log_pdf([0.0, 0.0], GGParams(m=2, s=2.0)) == pytest.approx(expected, rel=1e-12)

    def test_laplace_type_1d(self):
        expected = -math.log(4.0) - 1.0
        assert gg_log_pdf([2.0], GGParams(m=1, s=1.0)) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_reduction_with_sigma(self):
        params = GGParams(m=2, s=2.0, sigma=SymPDMatrix([[4.0, 1.0], [1.0, 2.0]]))
        expected = -math.log((2.0 * math.pi) * math.sqrt(7.0))
        assert gg_log_pdf([0.0, 0.0], params) == pytest.approx(expected, rel=1e-12)

    def test_density_normalizes_m1_m2(self):
        for m in (1, 2):
            for s in (1.0, 2.0, 3.0):
                params = GGParams(m=m, s=s)
                total = pdf_power_integral_quadrature(params, 1.0)
                assert total == pytest.approx(1.0, abs=1e-6), f"m={m} s={s}"

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            GGParams(m=1, s=0.0)


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


class TestGGVarianceScale:
    def test_gaussian_case_is_one(self):
        for m in (1, 2, 3, 5):
            assert gg_variance_scale(m, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_hand_values(self):
        assert gg_variance_scale(1, 1.0) == pytest.approx(8.0, rel=1e-12)
        assert gg_variance_scale(2, 1.0) == pytest.approx(12.0, rel=1e-12)

    def test_infinite_s_is_refused_without_a_warning(self):
        # GGParams admits s = inf; the scale's Gamma ratio cannot evaluate it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                gg_variance_scale(2, math.inf)
        assert str(err.value) == "the generalized Gaussian variance scale needs a finite s, got s=inf"


class TestGGSample:
    def test_gaussian_covariance_recovery(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        params = GGParams(m=2, s=2.0, sigma=SymPDMatrix(sigma))
        draws = gg_sample(params, 100_000, RngStream(22, 0))
        cov = sample_moments(draws[None])[1][0]
        assert np.all(np.abs(cov / sigma - 1.0) < 0.05)

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

    def test_boosted_gamma_radius(self):
        # m/s = 1/4 < 1 takes the boosted Gamma draw; X^4 = 2G, G ~ Gamma(1/4)
        draws = gg_sample(GGParams(m=1, s=4.0), 1_000_000, RngStream(7, 0))
        assert abs((draws[:, 0] ** 4).mean() - 0.5) <= 0.005

    def test_plain_gamma_radius(self):
        # m/s = 3: |X| = 2G, G ~ Gamma(3)
        draws = gg_sample(GGParams(m=3, s=1.0), 1_000_000, RngStream(6, 0))
        assert abs(np.linalg.norm(draws, axis=1).mean() - 6.0) <= 0.02

    def test_infinite_s_is_refused(self):
        # the closed forms take s = inf, the uniform law on the unit ball
        assert gg_q_integral(2, math.inf, None, 0.5) == pytest.approx(math.sqrt(math.pi))
        with pytest.raises(DomainError, match="^the generalized Gaussian sampler needs a finite s"):
            gg_sample(GGParams(m=2, s=math.inf), 10, RngStream(1))


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
        assert qgauss_covariance_factor(p.m, p.q) == pytest.approx(5.0 / 3.0, rel=1e-12)
        with pytest.raises(InfeasibleModelError):
            qgauss_covariance_factor(2, 1.6)

    def test_gaussian_limit_allowed(self):
        p = QGaussianParams(m=3, q=1.0)
        assert p.m == 3

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_index_is_refused_by_the_tail_bound_rule(self, q):
        # unchecked, the covariance factor is nan at q = nan and 0.0 at q = -inf
        message = f"entropic index q must be finite, got {q!r}"
        with pytest.raises(InfeasibleModelError) as params_err:
            QGaussianParams(m=2, q=q)
        with pytest.raises(InfeasibleModelError) as factor_err:
            qgauss_covariance_factor(2, q)
        assert str(params_err.value) == str(factor_err.value) == message


class TestQGaussNormConst:
    # the oracle density's normalizer, at its peak and by quadrature
    def test_cauchy_like_1d(self):
        assert qgauss_log_pdf([0.0], QGaussianParams(m=1, q=2.0)) == pytest.approx(
            -math.log(math.pi * math.sqrt(2.0)), rel=1e-12
        )

    def test_gaussian_limit(self):
        for m in (1, 2, 3):
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                got = math.exp(qgauss_log_pdf(np.zeros(m), QGaussianParams(m=m, q=q)))
                assert got == pytest.approx((2.0 * math.pi) ** (-m / 2.0), rel=1e-4)

    def test_density_normalizes_m1_m2(self):
        for m in (1, 2):
            for q in (0.5, 0.8, 1.2, 1.5):
                params = QGaussianParams(m=m, q=q)
                total = pdf_power_integral_quadrature(params, 1.0)
                assert total == pytest.approx(1.0, abs=1e-6), f"m={m} q={q}"


class TestQGaussLogPdf:
    def test_peak_is_log_norm_const(self):
        # m = 2, q = 0.7: C_q = b (a + 1) / pi with a = 1/(1-q), b = (1-q)/2
        params = QGaussianParams(m=2, q=0.7)
        expected = math.log(0.15 * (1.0 + 1.0 / 0.3) / math.pi)
        assert qgauss_log_pdf([0.0, 0.0], params) == pytest.approx(expected, rel=1e-12)

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_heavy_branch_is_multivariate_t(self, m):
        # X = mu + c Sigma^(1/2) T with T standard Student-t, nu = 2/(q-1) - m
        # and c^2 = 2/(nu (q-1))
        gen = RngStream(37, m).generator
        a = gen.standard_normal((m, m))
        sigma = a @ a.T + m * np.eye(m)
        mu = gen.standard_normal(m)
        for q in (1.2, 1.0 + 1.5 / m):
            params = QGaussianParams(m=m, q=q, mu=mu, sigma=SymPDMatrix(sigma))
            c2 = 2.0 / (params.nu * (q - 1.0))
            ref = sps.multivariate_t(loc=mu, shape=c2 * sigma, df=params.nu)
            for _ in range(10):
                x = mu + gen.standard_normal(m) * 3.0
                assert qgauss_log_pdf(x, params) == pytest.approx(ref.logpdf(x), abs=1e-10)


class TestQGaussLogRadial:
    @pytest.mark.parametrize("m", range(1, 65))
    def test_one_expression_has_the_bits_of_the_two_branches(self, m):
        # every q the closed forms admit: the compact branch, both sides of 1,
        # and each tail bound with the float just inside it
        normalizable, covariance = 1.0 + 2.0 / m, 1.0 + 2.0 / (m + 2.0)
        qs = [5e-324, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-6, math.nextafter(1.0, 0.0),
              math.nextafter(1.0, 2.0), 1.0 + 1e-6, math.nextafter(covariance, 1.0), covariance,
              math.nextafter(covariance, 3.0), 0.5 * (covariance + normalizable),
              math.nextafter(normalizable, 1.0)]
        for q in qs:
            for exponent_num in (1.0, q):
                got = _qgauss_log_radial(m, q, exponent_num)
                assert got == qgauss_log_radial_two_branch(m, q, exponent_num), (q, exponent_num)
                assert math.isfinite(got)


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
        with pytest.raises(DomainError) as err:
            qgauss_tsallis_entropy(QGaussianParams(m=1, q=1.0))
        assert str(err.value) == "entropy order q = 1 is excluded (Shannon case out of scope)"


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

    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_refusals_past_normalizability_are_the_feasibility_reason(self, m):
        bound = 1.0 + 2.0 / m
        for q in (bound, 0.5 * (bound + 3.0)):
            reason = infeasibility_reason("t1", q, m)
            assert reason.startswith("not normalizable")
            with pytest.raises(InfeasibleModelError) as params_err:
                QGaussianParams(m, q)
            with pytest.raises(InfeasibleModelError) as factor_err:
                qgauss_covariance_factor(m, q)
            assert str(params_err.value) == str(factor_err.value) == reason

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_refusal_between_the_bounds_is_the_feasibility_reason(self, m):
        low, high = 1.0 + 2.0 / (m + 2.0), 1.0 + 2.0 / m
        for q in (low, 0.5 * (low + high)):
            reason = infeasibility_reason("t1", q, m)
            assert reason.startswith("covariance bridge")
            with pytest.raises(InfeasibleModelError) as err:
                qgauss_covariance_factor(m, q)
            assert str(err.value) == reason

    @pytest.mark.parametrize("m", range(1, 65))
    def test_closed_forms_are_finite_just_inside_both_bounds(self, m):
        # the radial Beta integrals converge wherever the two bounds admit q,
        # so the closed forms need no divergence check of their own
        for bound in (1.0 + 2.0 / m, 1.0 + 2.0 / (m + 2.0)):
            params = QGaussianParams(m, math.nextafter(bound, 1.0))
            assert math.isfinite(qgauss_q_integral(params))
            assert math.isfinite(qgauss_tsallis_entropy(params))
        q = math.nextafter(1.0 + 2.0 / (m + 2.0), 1.0)
        assert np.isfinite(qgauss_null_entropies(np.eye(m)[None], q)).all()

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
        cov = sample_moments(draws[None])[1][0]
        assert np.all(np.abs(cov - (5.0 / 3.0) * np.eye(2)) < 0.09)

    def test_gaussian_case(self):
        params = QGaussianParams(m=2, q=1.0)
        draws = qgauss_sample(params, 100_000, RngStream(34, 0))
        cov = sample_moments(draws[None])[1][0]
        assert np.all(np.abs(cov - np.eye(2)) < 0.05)

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


class TestOverflowingDraws:
    # a radius past float64 (nu near 0 for t1, s near 0 for GG) would give
    # inf and nan rows, after numpy RuntimeWarnings
    @pytest.mark.parametrize(
        "sample, params, n, message",
        [
            (qgauss_sample, QGaussianParams(m=2, q=1.9999), 2000,
             "q-Gaussian q=1.9999, m=2 draws overflow float64: 1861 of 2000 are not finite"),
            (qgauss_sample, QGaussianParams(m=1, q=2.999999999), 50,
             "q-Gaussian q=2.999999999, m=1 draws overflow float64: 50 of 50 are not finite"),
            (gg_sample, GGParams(m=2, s=0.005), 100,
             "generalized Gaussian s=0.005, m=2 draws overflow float64: 100 of 100 are not finite"),
        ],
        ids=["qgauss-m2", "qgauss-m1", "gg"],
    )
    def test_refused_without_a_warning(self, sample, params, n, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError) as err:
                sample(params, n, RngStream(1))
        assert str(err.value) == message
        assert caught == []

    def test_finite_draws_are_the_radial_construction(self):
        # the shared tail changes no bit of a finite draw
        sigma = SymPDMatrix([[2.0, 0.3], [0.3, 1.0]])
        params = QGaussianParams(m=2, q=1.5, mu=[1.0, -2.0], sigma=sigma)
        gen = RngStream(3).generator
        z = gen.standard_normal((500, 2))
        w = gen.chisquare(params.nu, size=500)
        c = math.sqrt(2.0 / (params.nu * 0.5))
        radial = c * z / np.sqrt(w / params.nu)[:, None]
        expected = params.mu + radial @ sigma.cholesky_factor.T
        assert qgauss_sample(params, 500, RngStream(3)).tobytes() == expected.tobytes()


class TestOverflowingClosedForms:
    # at a shape matrix of 1e300 * I, log I_q is about 1,300: exp of it is
    # past float64, which math.exp and math.expm1 refuse with OverflowError
    @pytest.mark.parametrize(
        "closed_form, message",
        [
            (lambda sigma: qgauss_tsallis_entropy(QGaussianParams(m=4, q=0.05, sigma=sigma)),
             "q-Gaussian entropy overflows float64: log I_q = 1315.38"),
            (lambda sigma: qgauss_q_integral(QGaussianParams(m=4, q=0.05, sigma=sigma)),
             "q-Gaussian q-integral overflows float64: log I_q = 1315.38"),
            (lambda sigma: gg_tsallis_entropy(4, 2.0, sigma, 0.05),
             "generalized Gaussian entropy overflows float64: log I_q = 1321.96"),
            (lambda sigma: gg_q_integral(4, 2.0, sigma, 0.05),
             "generalized Gaussian q-integral overflows float64: log I_q = 1321.96"),
        ],
        ids=["qgauss-entropy", "qgauss-q-integral", "gg-entropy", "gg-q-integral"],
    )
    def test_refused_as_domain_error(self, closed_form, message):
        with pytest.raises(DomainError) as err:
            closed_form(np.eye(4) * 1e300)
        assert str(err.value) == message

    def test_entropy_past_float64_after_the_division_is_refused(self):
        # at m = 4, q = 0.5 and a covariance of 6.76e306 * I, log I_q is 709.4:
        # expm1 of it is finite (1.2e308), but dividing by 1 - q = 0.5 takes
        # it past float64, which float division returns as inf
        assert math.isfinite(math.expm1(709.4)) and math.expm1(709.4) / 0.5 == math.inf
        with pytest.raises(DomainError) as err:
            qgauss_null_entropies(np.eye(4)[None] * 6.76e306, 0.5)
        assert str(err.value) == "q-Gaussian entropy overflows float64: log I_q = 709.4"


class TestQGaussNullEntropies:
    # covariances of t1 (q = 1.2) and t2 (q = 0.5) null samples, scaled by
    # 1e-3, 1 and 1e3
    @pytest.mark.parametrize("q", [1.2, 0.5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_each_row_is_the_closed_form_of_its_matrix_alone(self, q, m):
        params = QGaussianParams(m=m, q=q)
        samples = np.stack([qgauss_sample(params, 20, RngStream(21, j)) for j in range(8)])
        covariances = np.concatenate([sample_moments(samples)[1] * a for a in (1e-3, 1.0, 1e3)])
        got = qgauss_null_entropies(covariances, q)
        assert got.shape == (24,)
        for cov, value in zip(covariances, got.tolist()):
            # the product the statistic forms; cov / factor can differ in the last bit
            sigma = cov * (1.0 / qgauss_covariance_factor(m, q))
            assert value == qgauss_tsallis_entropy(QGaussianParams(m=m, q=q, sigma=sigma))
            assert value == qgauss_null_entropies(cov[None], q)[0]

    def test_singular_covariance_is_refused(self):
        covariances = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(NotPositiveDefiniteError):
            qgauss_null_entropies(covariances, 1.2)

    @pytest.mark.parametrize("q", [0.0, 1.0, math.nan])
    def test_order_is_checked_first(self, q):
        with pytest.raises(DomainError, match="entropy order q"):
            qgauss_null_entropies(np.zeros((1, 2, 2)), q)


class TestClosedFormProperties:
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
        # member's entropy exceeds the uniform unit cube's entropy at q=1.2,
        # m=2; the cube's q-integral is 1, so its entropy is 0 at every q
        cov_factor = qgauss_covariance_factor(2, 1.2)
        member = QGaussianParams(
            m=2, q=1.2, sigma=SymPDMatrix(np.eye(2) / 12.0 / cov_factor)
        )
        assert qgauss_tsallis_entropy(member) > 0.0
