import math
import warnings

import numpy as np
import pytest

from oracles import lps_estimate_reference, null_max_entropy
from tsgof.errors import (
    ConfigError,
    DegenerateSampleError,
    DomainError,
    InfeasibleModelError,
    NotPositiveDefiniteError,
)
from tsgof.distributions import (
    GGParams,
    QGaussianParams,
    gg_sample,
    gg_variance_scale,
    qgauss_covariance_factor,
    qgauss_sample,
)
from tsgof import gof
from tsgof.gof import (
    TestResult,
    gof_statistic,
    infeasibility_reason,
    null_replicates,
    run_test,
)
from tsgof.linalg import SymPDMatrix, sample_moments
from tsgof.mathcore import RngStream
from tsgof.statkit import empirical_quantile

GAUSS_SHANNON_1D = 0.5 * math.log(2.0 * math.pi * math.e)


def null_draws(n, seed, stream=0, q=1.2, m=2):
    return qgauss_sample(QGaussianParams(m=m, q=q), n, RngStream(seed, stream))


# (family, q, m, k, N, bridge, reason): every bound of every stage, sampling
# (no k, no bridge), estimator (k and N, no bridge) and statistic (bridge)
FEASIBILITY_TABLE = [
    ("t2", 0.5, 2, None, None, False, None),
    ("t2", 0.0, 2, None, None, False, "family t2 requires q in (0, 1), got q=0.0"),
    ("t2", 1.2, 2, None, None, False, "family t2 requires q in (0, 1), got q=1.2"),
    ("t1", 1.2, 2, None, None, False, None),
    ("t1", 0.9, 2, None, None, False, "family t1 requires q in (1, 3), got q=0.9"),
    ("t1", 3.0, 1, None, None, False, "family t1 requires q in (1, 3), got q=3.0"),
    ("t1", 2.0, 2, None, None, False,
     "not normalizable: requires q < 1 + 2/m = 2.0 for m=2, got q=2.0"),
    ("t1", 1.5, 2, 1, 100, False, None),
    ("t1", 2.5, 1, 1, 100, False, "estimator requires q < k + 1 = 2, got q=2.5"),
    ("t2", 0.5, 1, 5, 5, False, "estimator requires N > k, got N=5, k=5"),
    ("t1", 2.5, 2, 1, 1, False,
     "not normalizable: requires q < 1 + 2/m = 2.0 for m=2, got q=2.5"),
    ("t1", 1.2, 2, 1, 100, True, None),
    ("t2", 0.9, 3, 1, 100, True, None),
    ("t1", 1.5, 2, 1, 100, True,
     "covariance bridge requires q < 1 + 2/(m+2) = 1.5 for m=2, got q=1.5"),
    ("t1", 1.45, 3, None, None, True,
     "covariance bridge requires q < 1 + 2/(m+2) = 1.4 for m=3, got q=1.45"),
    ("t1", 2.5, 1, 1, 100, True, "estimator requires q < k + 1 = 2, got q=2.5"),
    ("t1", 1.2, 2, 1, 2, True, "sample covariance requires N > m, got N=2, m=2"),
    ("t1", 1.2, 2, 1, 2, False, None),
    ("t1", 1.2, 2, 1, 3, True, None),
    ("t2", 0.5, 3, 1, 3, True, "sample covariance requires N > m, got N=3, m=3"),
    ("t2", 0.5, 3, 1, 3, False, None),
    ("t2", 0.5, 3, 1, 4, True, None),
    # N > m is checked last: every earlier bound keeps its reason
    ("t2", 0.5, 3, 3, 3, True, "estimator requires N > k, got N=3, k=3"),
    ("t1", 1.45, 3, 1, 3, True,
     "covariance bridge requires q < 1 + 2/(m+2) = 1.4 for m=3, got q=1.45"),
]


class TestFamilyFeasibility:
    def test_t1_bounds(self):
        assert infeasibility_reason("t1", 1.2, 2) is None
        assert "(1, 3)" in infeasibility_reason("t1", 0.9, 2)
        assert "1 + 2/m" in infeasibility_reason("t1", 2.5, 2)
        assert "1 + 2/(m+2)" in infeasibility_reason("t1", 1.7, 2)
        assert "N > m" in infeasibility_reason("t1", 1.2, 2, 1, 2)

    def test_t2_bounds(self):
        assert infeasibility_reason("t2", 0.5, 3) is None
        assert "(0, 1)" in infeasibility_reason("t2", 1.2, 3)
        assert "N > m" in infeasibility_reason("t2", 0.5, 3, 1, 3)

    def test_reason_table(self):
        # the replicate path raises the rule's reason for every point it refuses
        for family, q, m, k, n, bridge, expected in FEASIBILITY_TABLE:
            assert infeasibility_reason(family, q, m, k, n, bridge) == expected
            if k is None:
                continue
            if expected is None:
                null_replicates(n, m, (k,), q, family, [], statistic=bridge)
                continue
            with pytest.raises(InfeasibleModelError) as err:
                null_replicates(n, m, (k,), q, family, [], statistic=bridge)
            assert str(err.value) == expected

    def test_unknown_family(self):
        with pytest.raises(DomainError) as err:
            infeasibility_reason("t3", 0.5, 1)
        assert not isinstance(err.value, InfeasibleModelError)
        assert str(err.value) == "unknown family 't3' (expected one of ('t1', 't2'))"


class TestNullMaxEntropy:
    def test_gaussian_limit(self):
        cov = SymPDMatrix.identity(1)
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            family = "t1" if q > 1 else "t2"
            got = null_max_entropy(cov, 1, q, family)
            assert got == pytest.approx(GAUSS_SHANNON_1D, abs=1e-3)

    @pytest.mark.parametrize("family,q", [("t1", 1.2), ("t2", 0.6)])
    def test_covariance_scaling_law(self, family, q):
        m, c = 2, 2.0
        base = null_max_entropy(SymPDMatrix.identity(m), m, q, family)
        scaled = null_max_entropy(SymPDMatrix(c * c * np.eye(m)), m, q, family)
        # H = (1 - I)/(q - 1) and I scales by c^(m(1-q))
        base_integral = 1.0 - (q - 1.0) * base
        expected = (1.0 - base_integral * c ** (m * (1.0 - q))) / (q - 1.0)
        assert scaled == pytest.approx(expected, rel=1e-10)

    def test_infeasible_q_names_bound(self):
        with pytest.raises(InfeasibleModelError):
            null_max_entropy(SymPDMatrix.identity(2), 2, 2.5, "t1")


def uniform_50(fault=None):
    x = RngStream(80, 0).generator.random((50, 2))
    if fault in ("duplicate", "both"):
        x[1] = x[0]
    if fault in ("rank-1", "both"):
        x[:, 1] = 2.0 * x[:, 0]
    return x


class TestGofStatistic:
    @pytest.mark.parametrize(
        "fault,k,q,family,error,message",
        [
            ("duplicate", 1, 1.2, "t1", DegenerateSampleError, None),
            ("rank-1", 1, 1.2, "t1", NotPositiveDefiniteError, None),
            ("both", 1, 1.2, "t1", NotPositiveDefiniteError, None),
            (None, 0, 0.5, "t2", DomainError, "k must be a positive integer, got 0"),
            (None, 1.5, 1.2, "t1", DomainError, "k must be a positive integer, got 1.5"),
        ],
        ids=["duplicate", "rank-1", "both", "k=0", "k=1.5"],
    )
    def test_errors(self, fault, k, q, family, error, message):
        # the covariance comes before the neighbor query, so a rank-deficient
        # sample names the covariance even when it also has duplicates
        with pytest.raises(error) as err:
            gof_statistic(uniform_50(fault), k, q, family)
        assert type(err.value) is error
        if message is not None:
            assert str(err.value) == message

    def test_null_mean_near_zero(self):
        stats = [
            gof_statistic(null_draws(2000, 81, rep), k=1, q=1.2, family="t1").statistic
            for rep in range(100)
        ]
        assert abs(np.mean(stats)) <= 0.02

    def test_alternative_mean_positive(self):
        null_stats = [
            gof_statistic(null_draws(2000, 82, rep), k=1, q=1.2, family="t1").statistic
            for rep in range(50)
        ]
        alt_stats = [
            gof_statistic(
                RngStream(83, rep).generator.random((2000, 2)), k=1, q=1.2, family="t1"
            ).statistic
            for rep in range(50)
        ]
        se = np.std(null_stats, ddof=1) / math.sqrt(len(null_stats))
        assert np.mean(alt_stats) > 3.0 * se

    def test_affine_change_within_noise(self):
        null_stats = [
            gof_statistic(null_draws(1000, 84, rep), k=1, q=1.2, family="t1").statistic
            for rep in range(30)
        ]
        se = np.std(null_stats, ddof=1) / math.sqrt(len(null_stats))
        diffs = []
        for rep in range(20):
            x = null_draws(1000, 85, rep)
            q0 = gof_statistic(x, k=1, q=1.2, family="t1").statistic
            q1 = gof_statistic(3.0 * x + 1.5, k=1, q=1.2, family="t1").statistic
            diffs.append(q1 - q0)
        assert abs(np.mean(diffs)) < 2.0 * se

    def test_row_permutation_exact(self):
        x = null_draws(500, 86)
        perm = RngStream(86, 1).generator.permutation(500)
        a = gof_statistic(x, k=2, q=1.2, family="t1").statistic
        b = gof_statistic(x[perm], k=2, q=1.2, family="t1").statistic
        assert a == b

    def test_mean_within_noise_bands_and_spread_shrinks(self):
        summaries = []
        for n in (500, 1000, 2000, 4000):
            stats = [
                gof_statistic(null_draws(n, 87, rep), k=1, q=1.2, family="t1").statistic
                for rep in range(30)
            ]
            summaries.append(
                (abs(np.mean(stats)), np.std(stats, ddof=1) / math.sqrt(len(stats)))
            )
        # convergence in probability to 0: |mean Q| nonincreasing within noise
        # bands, and the replication spread strictly shrinks with N
        first_mean, first_se = summaries[0]
        last_mean, last_se = summaries[-1]
        assert last_mean <= first_mean + 2.0 * (first_se + last_se)
        assert last_se < first_se


class TestNullReplicates:
    @staticmethod
    def replicates(ks, statistic=True, q=1.2, family="t1"):
        streams = (RngStream(3, r) for r in range(12))
        return null_replicates(80, 2, ks, q, family, streams, statistic)

    @pytest.mark.parametrize("statistic", [True, False])
    def test_columns_equal_single_k_runs(self, statistic):
        # common random numbers across k: one shared query serves every k
        shared = self.replicates((1, 2, 3), statistic)
        assert shared.shape == (12, 3)
        for j, k in enumerate((1, 2, 3)):
            alone = self.replicates((k,), statistic)
            assert shared[:, j].tobytes() == alone[:, 0].tobytes()

    def test_entries_equal_per_draw_statistic_and_estimate(self):
        # against the per-sample oracles, apart from the block path under test
        stats = self.replicates((1, 3))
        estimates = self.replicates((1, 3), statistic=False)
        for r in range(12):
            draw = null_draws(80, 3, r)
            upper = null_max_entropy(sample_moments(draw[None])[1][0], 2, 1.2, "t1")
            for j, k in enumerate((1, 3)):
                h_hat = lps_estimate_reference(draw, k, 1.2)[1]
                assert stats[r, j] == gof_statistic(draw, k, 1.2, "t1").statistic
                assert stats[r, j] == upper - h_hat
                assert estimates[r, j] == h_hat

    @pytest.mark.parametrize("statistic", [True, False])
    def test_block_boundaries_do_not_matter(self, statistic):
        # N = 1000 gives blocks of 8 draws, so 12 draws make a block of 8 and one of 4
        def run(reps):
            streams = (RngStream(4, r) for r in reps)
            return null_replicates(1000, 2, (1, 3), 1.2, "t1", streams, statistic).tobytes()

        whole = run(range(12))
        assert whole == b"".join(run([r]) for r in range(12))
        for j in (1, 5, 8, 11):
            assert whole == run(range(j)) + run(range(j, 12))

    REFUSED = "q-Gaussian q=1.2, m=2 draws overflow float64: 1 of 80 are not finite"

    @staticmethod
    def refuse(x):
        raise DomainError(TestNullReplicates.REFUSED)

    FAULTS = {
        "duplicate": lambda x: x.__setitem__(1, x[0]),
        "rank-1": lambda x: x.__setitem__((slice(None), 1), 2.0 * x[:, 0]),
        "non-finite": lambda x: x.__setitem__((0, 0), math.inf),
        "refused": refuse,  # what the sampler raises for a draw that overflows
    }

    @pytest.mark.parametrize(
        "planted,error,message",
        [
            ({5: "duplicate"}, DegenerateSampleError,
             "duplicate points give zero neighbor distances, undefined for q > 1 "
             "(remove or perturb the duplicates, or use q < 1)"),
            ({5: "rank-1"}, NotPositiveDefiniteError,
             "matrix is not positive definite (pivot 1 <= 0)"),
            ({3: "duplicate", 5: "rank-1"}, DegenerateSampleError, None),
            ({1: "rank-1", 2: "non-finite"}, NotPositiveDefiniteError, None),
            ({1: "non-finite", 2: "rank-1"}, DomainError, "sample matrix entries must be finite"),
            ({5: "refused"}, DomainError, REFUSED),
            ({3: "duplicate", 5: "refused"}, DegenerateSampleError, None),
            ({3: "refused", 5: "rank-1"}, DomainError, REFUSED),
        ],
        ids=[
            "duplicate", "rank-1", "duplicate-first", "rank-1-first", "non-finite-first",
            "refused", "duplicate-before-refused", "refused-first",
        ],
    )
    def test_first_bad_draw_raises_as_alone(self, monkeypatch, planted, error, message):
        # the moments of a whole block come before any draw's Cholesky, yet
        # the first bad draw in stream order names the error
        draw = gof.qgauss_sample
        calls = iter(range(12))

        def sample(params, n, rng):
            x = draw(params, n, rng)
            fault = planted.get(next(calls))
            if fault:
                self.FAULTS[fault](x)
            return x

        monkeypatch.setattr(gof, "qgauss_sample", sample)
        with pytest.raises(error) as err:
            self.replicates((1, 2))
        assert type(err.value) is error
        if message is not None:
            assert str(err.value) == message

    def test_overflowing_null_draws_refused_without_a_warning(self):
        # nu = 2/(q-1) - m is 2e-4 here, so most radii overflow float64
        streams = (RngStream(1, r) for r in range(20))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"^q-Gaussian q=1\.9999, m=2 draws overflow"):
                null_replicates(50, 2, (2,), 1.9999, "t1", streams, statistic=False)
        assert caught == []

    def test_estimates_need_no_covariance_bridge(self):
        # q=1.5 at m=2 has no covariance, but it can be drawn and estimated
        assert self.replicates((1,), statistic=False, q=1.5).shape == (12, 1)
        with pytest.raises(InfeasibleModelError, match="covariance bridge"):
            self.replicates((1,), q=1.5)

    def test_any_infeasible_k_raises(self):
        with pytest.raises(InfeasibleModelError, match="q < k \\+ 1 = 2"):
            null_replicates(80, 1, (2, 1), 2.5, "t1", [], statistic=False)
        with pytest.raises(InfeasibleModelError, match="N > k"):
            null_replicates(5, 1, (1, 5), 0.5, "t2", [])


class TestRunTest:
    def test_table_hit_and_decision(self):
        x = null_draws(500, 88)
        low = run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_value=1e9)
        assert low.reject is False and low.critical_value == 1e9
        high = run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_value=-1e9)
        assert high.reject is True

    @pytest.mark.parametrize("crit", [math.nan, math.inf, -math.inf])
    def test_non_finite_critical_value_is_domain_error(self, crit):
        x = null_draws(500, 88)
        with pytest.raises(DomainError, match="critical values must be finite"):
            run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_value=crit)

    def test_table_miss_without_budget_is_config_error(self):
        x = null_draws(400, 89)
        with pytest.raises(ConfigError):
            run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_value=None)

    def test_table_miss_with_budget_simulates(self):
        x = null_draws(400, 90)
        result = run_test(
            x,
            k=1,
            q=1.2,
            family="t1",
            alpha=0.05,
            critical_value=None,
            simulate=100,
            rng=RngStream(91, 0),
        )
        assert result.critical_value is not None and math.isfinite(result.critical_value)
        assert isinstance(result.reject, bool)

    def test_simulation_reproducible(self):
        x = null_draws(300, 92)
        a = run_test(x, k=1, q=1.2, family="t1", alpha=0.05, simulate=50, rng=RngStream(93, 0))
        b = run_test(x, k=1, q=1.2, family="t1", alpha=0.05, simulate=50, rng=RngStream(93, 0))
        assert a.critical_value == b.critical_value

    def test_requires_rng_for_simulation(self):
        x = null_draws(300, 94)
        with pytest.raises(DomainError):
            run_test(x, k=1, q=1.2, family="t1", alpha=0.05, simulate=50)

    def test_alpha_range(self):
        x = null_draws(300, 95)
        with pytest.raises(DomainError):
            run_test(x, k=1, q=1.2, family="t1", alpha=0.7, simulate=50, rng=RngStream(0))

    def test_result_is_frozen_record(self):
        result = TestResult(statistic=0.1, family="t1", q=1.2, k=1, n=100, m=2)
        with pytest.raises(AttributeError):
            result.statistic = 0.2


class TestPower:
    """Rejection rates of the t1, q = 1.2, m = 2, k = 1 test at level 0.05,
    with the critical value from 400 null replicates, over 200 samples of
    each alternative at unit covariance."""

    UNIT = np.eye(2)
    ALTERNATIVES = {
        "null": QGaussianParams(m=2, q=1.2),
        "GG s=1": GGParams(m=2, s=1.0, sigma=UNIT / gg_variance_scale(2, 1.0)),
        "GG s=3": GGParams(m=2, s=3.0, sigma=UNIT / gg_variance_scale(2, 3.0)),
        "t2 q=0.5": QGaussianParams(m=2, q=0.5, sigma=UNIT / qgauss_covariance_factor(2, 0.5)),
    }

    @pytest.mark.parametrize("n", [200, 500])
    def test_rejection_rates(self, n):
        null = null_replicates(n, 2, (1,), 1.2, "t1", (RngStream(8_001, r) for r in range(400)))
        crit = empirical_quantile(null[:, 0], 0.95)
        rate, median = {}, {}
        for i, (name, params) in enumerate(self.ALTERNATIVES.items()):
            sample = gg_sample if isinstance(params, GGParams) else qgauss_sample
            stats = np.array([
                gof_statistic(sample(params, n, RngStream(8_100 + i, r)), 1, 1.2, "t1").statistic
                for r in range(200)
            ])
            rate[name], median[name] = float(np.mean(stats > crit)), float(np.median(stats))
        print(f"N={n} crit={crit:.4f} rate={rate} median Q={median}")
        assert rate["null"] <= 0.15
        # at a given covariance the lighter-tailed laws have a larger order-q
        # entropy than the index-q null member, so they push Q below zero and
        # go undetected; the Laplace-type GG s = 1 has a smaller one and is
        # detected
        for name in ("GG s=3", "t2 q=0.5"):
            assert median[name] < 0.0 and rate[name] <= 0.10, name
        assert median["GG s=1"] > 0.0 and rate["GG s=1"] > rate["null"]
