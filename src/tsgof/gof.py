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

from dataclasses import dataclass

import numpy as np

from .distributions import (
    QGaussianParams,
    qgauss_shape_from_covariance,
    qgauss_tsallis_entropy,
    qgauss_sample,
)
from .entropy import lps_estimate, tsallis_knn_estimate
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


def gof_statistic(x, k: int, q: float, family: str, engine: str = "tree") -> TestResult:
    """The raw test statistic, without a critical value."""
    a = as_sample_matrix(x)
    n, m = a.shape
    require_feasible(family, q, m, k, n)
    _, cov = sample_mean_cov(a)
    upper = null_max_entropy(cov, m, q, family)
    estimate = tsallis_knn_estimate(a, k, q, engine=engine)
    return TestResult(
        statistic=upper - estimate.h_hat, family=family, q=q, k=int(k), n=n, m=m
    )


def run_test(
    x,
    k: int,
    q: float,
    family: str,
    alpha: float,
    critical_table=None,
    simulate: int | None = None,
    rng: RngStream | None = None,
    engine: str = "tree",
) -> TestResult:
    """Evaluate the statistic and decide against a critical value.

    The critical value comes from `critical_table` (anything with a
    .lookup(q, m, k, n, alpha) method, e.g. harness.CriticalValueTable) or,
    on table miss or absence, from `simulate` fresh null replications at
    the observed (N, m, q, k) using the upper (1-alpha) empirical quantile.
    """
    if not (0.0 < alpha <= 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    base = gof_statistic(x, k, q, family, engine=engine)

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
        crit = simulate_critical_value(base.n, base.m, k, q, family, alpha, simulate, rng, engine)

    return TestResult(
        statistic=base.statistic,
        family=family,
        q=q,
        k=base.k,
        n=base.n,
        m=base.m,
        alpha=alpha,
        critical_value=float(crit),
        reject=bool(base.statistic > crit),
    )


def null_replicates(
    n: int,
    m: int,
    ks,
    q: float,
    family: str,
    streams,
    engine: str = "tree",
    statistic: bool = True,
) -> np.ndarray:
    """One standard null draw of size n per RngStream in streams, evaluated
    at every k of ks: a (replicates, len(ks)) matrix.

    Each draw gets one neighbor query at max(ks), and k reads column k-1 of
    it, so all ks share draws (common random numbers across k) and each
    column equals what a run with ks=(k,) gives, bit for bit. With
    statistic, entries are Q, with the covariance and null entropy formed
    once per draw; without it they are the estimates h_hat, and the
    covariance bridge is not required.
    """
    ks = tuple(ks)
    for k in ks:
        require_feasible(family, q, m, k, n, bridge=statistic)
    params = QGaussianParams(m=m, q=q)
    k_max = max(ks)
    out = []
    for rng in streams:
        draw = qgauss_sample(params, n, rng)
        rho = knn_distances(draw, k_max, engine=engine)
        h_hat = [lps_estimate(rho[:, k - 1], k, q, m).h_hat for k in ks]
        if statistic:
            upper = null_max_entropy(sample_mean_cov(draw)[1], m, q, family)
            out.append([upper - h for h in h_hat])
        else:
            out.append(h_hat)
    return np.array(out).reshape(-1, len(ks))


def simulate_critical_value(
    n: int,
    m: int,
    k: int,
    q: float,
    family: str,
    alpha: float,
    replications: int,
    rng: RngStream,
    engine: str = "tree",
) -> float:
    """Upper (1-alpha) empirical quantile of the null statistic distribution."""
    streams = (rng.child(j) for j in range(replications))
    stats = null_replicates(n, m, (k,), q, family, streams, engine)[:, 0]
    return empirical_quantile(stats, 1.0 - alpha)
