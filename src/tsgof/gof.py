"""Tsallis goodness-of-fit statistics and the decision procedure.

The statistic compares the order-q Tsallis entropy of the null family
member whose covariance equals the plug-in sample covariance with the
nearest-neighbor entropy estimate:

    Q = H_q(null member with covariance = sample covariance) - h_hat.

Under the null Q converges to 0; the test rejects for large Q against a
Monte Carlo critical value (upper one-sided). The index-q member does not
maximize order-q entropy under a covariance constraint: at identity
covariance and m = 2, H_0.5 is 6.683 for the t2 null, 8.027 for the
Gaussian and 9.578 for the Laplace-type generalized Gaussian (s = 1). So Q
can be negative under an alternative, and the test then does not reject
it.

Two null branches are supported: 't1', the heavy-tailed q-Gaussian, and
't2', the compact-support q-Gaussian. `infeasibility_reason` is the one
feasibility rule for both.
"""

from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    QGaussianParams,
    qgauss_shape_from_covariance,
    qgauss_tsallis_entropy,
    qgauss_sample,
)
from .entropy import knn_bias_constant, lps_estimate
from .knn import knn_distances
from .errors import ConfigError, DomainError, InfeasibleModelError
from .linalg import SymPDMatrix, as_sample_matrix, sample_mean_cov
from .mathcore import RngStream
from .statkit import empirical_quantile

FAMILIES = ("t1", "t2")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a goodness-of-fit evaluation."""

    __test__ = False  # not a pytest class, despite the name

    statistic: float
    family: str
    q: float
    k: int
    n: int
    m: int
    alpha: float | None = None
    critical_value: float | None = None
    reject: bool | None = None


def infeasibility_reason(
    family: str, q: float, m: int, k: int | None = None, n: int | None = None, bridge: bool = True
) -> str | None:
    """Why the (family, q, m) null cannot serve the test, or None if it can.

    Sampling needs q in (0, 1) for t2, and q in (1, 3) with q < 1 + 2/m
    (normalizability) for t1. Given k and n, the neighbor estimator also
    needs q < k + 1 and N > k. With bridge, the statistic also needs the
    covariance, which for t1 exists only for q < 1 + 2/(m+2). The first
    violated bound is named; harness manifests record these strings.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r} (expected 't1' or 't2')")
    if family == "t2" and not (0.0 < q < 1.0):
        return f"family t2 requires q in (0, 1), got q={q}"
    if family == "t1" and not (1.0 < q < 3.0):
        return f"family t1 requires q in (1, 3), got q={q}"
    if family == "t1" and not q < 1.0 + 2.0 / m:
        return f"not normalizable: requires q < 1 + 2/m = {1.0 + 2.0 / m} for m={m}, got q={q}"
    if k is not None and not q < k + 1:
        return f"estimator requires q < k + 1 = {k + 1}, got q={q}"
    if k is not None and not n > k:
        return f"estimator requires N > k, got N={n}, k={k}"
    if bridge and family == "t1" and not q < 1.0 + 2.0 / (m + 2.0):
        return (
            f"covariance bridge requires q < 1 + 2/(m+2) = {1.0 + 2.0 / (m + 2.0)} "
            f"for m={m}, got q={q}"
        )
    return None


def require_feasible(
    family: str, q: float, m: int, k: int | None = None, n: int | None = None, bridge: bool = True
) -> None:
    """Raise InfeasibleModelError naming the bound that infeasibility_reason finds."""
    reason = infeasibility_reason(family, q, m, k, n, bridge)
    if reason:
        raise InfeasibleModelError(reason)


def null_max_entropy(sample_cov: SymPDMatrix, m: int, q: float, family: str) -> float:
    """Tsallis entropy of the null family member whose covariance equals
    sample_cov (via the covariance/shape bridge), in closed form."""
    require_feasible(family, q, m)
    if not isinstance(sample_cov, SymPDMatrix):
        sample_cov = SymPDMatrix(sample_cov)
    if sample_cov.dim != m:
        raise DomainError(f"covariance is {sample_cov.dim}x{sample_cov.dim}, expected m={m}")
    shape = qgauss_shape_from_covariance(sample_cov, m, q)
    return qgauss_tsallis_entropy(QGaussianParams(m=m, q=q, sigma=shape))


def _checked_ks(ks, q: float, m: int, n: int, family: str, statistic: bool) -> tuple:
    """The ks as ints, once each is a positive integer the feasibility rule
    accepts at (q, m, N), with the covariance bridge if statistic."""
    for k in ks:
        require_feasible(family, q, m, k, n, bridge=statistic)
        knn_bias_constant(k, q)  # validates k before the query
    return tuple(int(k) for k in ks)


def _sample_statistics(a: np.ndarray, ks: tuple, q: float, family: str, statistic: bool) -> list:
    """Q (with statistic) or h_hat of one sample matrix, at every k of ks.

    The covariance and null entropy are formed once, before one neighbor
    query at max(ks), whose column k-1 gives each k its estimate. The ks
    must have passed _checked_ks.
    """
    m = a.shape[1]
    if statistic:
        upper = null_max_entropy(sample_mean_cov(a)[1], m, q, family)
    rho = knn_distances(a, max(ks))
    h_hat = [lps_estimate(rho[:, k - 1], k, q, m).h_hat for k in ks]
    return [upper - h for h in h_hat] if statistic else h_hat


def gof_statistic(x, k: int, q: float, family: str) -> TestResult:
    """The raw test statistic, without a critical value.

    The covariance comes before the neighbor query, so a rank-deficient
    sample raises NotPositiveDefiniteError even when it also has the
    duplicate points that raise DegenerateSampleError for q > 1.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    ks = _checked_ks((k,), q, m, n, family, True)
    (statistic,) = _sample_statistics(a, ks, q, family, True)
    return TestResult(statistic=statistic, family=family, q=q, k=ks[0], n=n, m=m)


def run_test(
    x,
    k: int,
    q: float,
    family: str,
    alpha: float,
    critical_table=None,
    simulate: int | None = None,
    rng: RngStream | None = None,
) -> TestResult:
    """Evaluate the statistic and decide against a critical value.

    The critical value comes from `critical_table` (anything with a
    .lookup(q, m, k, n, alpha) method, e.g. harness.CriticalValueTable) or,
    on table miss or absence, from `simulate` null replicates at the
    observed (N, m, q, k), replicate j drawn from rng.child(j): the upper
    (1-alpha) empirical quantile of their statistics.
    """
    if not (0.0 < alpha <= 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    base = gof_statistic(x, k, q, family)

    crit = None
    if critical_table is not None:
        crit = critical_table.lookup(q=q, m=base.m, k=base.k, n=base.n, alpha=alpha)
    if crit is None:
        if simulate is None:
            raise ConfigError(
                f"no critical value for (q={q}, m={base.m}, k={base.k}, N={base.n}, "
                f"alpha={alpha}) and no simulation budget given"
            )
        if simulate < 2:
            raise DomainError("simulation budget must be at least 2 replications")
        if rng is None:
            raise DomainError("on-the-fly simulation requires an RngStream")
        streams = (rng.child(j) for j in range(simulate))
        stats = null_replicates(base.n, base.m, (base.k,), q, family, streams)[:, 0]
        crit = empirical_quantile(stats, 1.0 - alpha)

    return replace(
        base, alpha=alpha, critical_value=float(crit), reject=bool(base.statistic > crit)
    )


def null_replicates(
    n: int, m: int, ks, q: float, family: str, streams, statistic: bool = True
) -> np.ndarray:
    """One standard null draw of size n per RngStream in streams, evaluated
    at every k of ks: a (replicates, len(ks)) matrix.

    Each draw goes through the same per-sample function as gof_statistic,
    with one neighbor query at max(ks), so all ks share draws (common
    random numbers across k) and each column equals what a run with
    ks=(k,) gives, bit for bit. With statistic, entries are Q; without it
    they are the estimates h_hat, and the covariance bridge is not
    required.
    """
    ks = _checked_ks(ks, q, m, n, family, statistic)
    params = QGaussianParams(m=m, q=q)
    rows = [
        _sample_statistics(qgauss_sample(params, n, rng), ks, q, family, statistic)
        for rng in streams
    ]
    return np.array(rows).reshape(-1, len(ks))
