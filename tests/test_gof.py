import math

import numpy as np
import pytest

from tsgof.errors import (
    ConfigError,
    DegenerateSampleError,
    DomainError,
    InfeasibleModelError,
    NotPositiveDefiniteError,
)
from tsgof.distributions import QGaussianParams, qgauss_sample
from tsgof.entropy import tsallis_knn_estimate
from tsgof.gof import (
    TestResult,
    gof_statistic,
    infeasibility_reason,
    null_max_entropy,
    null_replicates,
    require_feasible,
    run_test,
)
from tsgof.harness import CriticalValueRow, CriticalValueTable
from tsgof.linalg import SymPDMatrix
from tsgof.mathcore import RngStream

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
]


class TestFamilyFeasibility:
    def test_t1_bounds(self):
        require_feasible("t1", 1.2, 2)
        with pytest.raises(InfeasibleModelError):
            require_feasible("t1", 0.9, 2)
        with pytest.raises(InfeasibleModelError) as err:
            require_feasible("t1", 2.5, 2)
        assert "1 + 2/m" in str(err.value)
        with pytest.raises(InfeasibleModelError) as err:
            require_feasible("t1", 1.7, 2)
        assert "1 + 2/(m+2)" in str(err.value)

    def test_t2_bounds(self):
        require_feasible("t2", 0.5, 3)
        with pytest.raises(InfeasibleModelError):
            require_feasible("t2", 1.2, 3)

    def test_reason_table(self):
        for *case, expected in FEASIBILITY_TABLE:
            assert infeasibility_reason(*case) == expected, case
            if expected is None:
                require_feasible(*case)
                continue
            with pytest.raises(InfeasibleModelError) as err:
                require_feasible(*case)
            assert str(err.value) == expected

    def test_unknown_family(self):
        with pytest.raises(DomainError) as err:
            require_feasible("t3", 0.5, 1)
        assert not isinstance(err.value, InfeasibleModelError)


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
        stats = self.replicates((1, 3))
        estimates = self.replicates((1, 3), statistic=False)
        for r in range(12):
            draw = null_draws(80, 3, r)
            for j, k in enumerate((1, 3)):
                assert stats[r, j] == gof_statistic(draw, k, 1.2, "t1").statistic
                assert estimates[r, j] == tsallis_knn_estimate(draw, k, 1.2).h_hat

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
    def table(self, crit=0.05):
        row = CriticalValueRow(
            q=1.2, m=2, k=1, n=500, alpha=0.05, crit=crit, replications=500, seed=0
        )
        return CriticalValueTable([row])

    def test_table_hit_and_decision(self):
        x = null_draws(500, 88)
        low = run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_table=self.table(1e9))
        assert low.reject is False and low.critical_value == 1e9
        high = run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_table=self.table(-1e9))
        assert high.reject is True

    def test_table_miss_without_budget_is_config_error(self):
        x = null_draws(400, 89)  # n=400 not in table
        with pytest.raises(ConfigError):
            run_test(x, k=1, q=1.2, family="t1", alpha=0.05, critical_table=self.table())

    def test_table_miss_with_budget_simulates(self):
        x = null_draws(400, 90)
        result = run_test(
            x,
            k=1,
            q=1.2,
            family="t1",
            alpha=0.05,
            critical_table=self.table(),
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
