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

The observed Q and every null replicate go through one function of a
stack of samples. Its null half is `distributions.qgauss_null_entropies`
of the samples' covariances, which `linalg.sample_moments` forms with
exactly rounded sums; h_hat comes from `entropy.lps_block`. Its results
equal, bit for bit, those of forming each sample's covariance, null
entropy and estimate alone with math.fsum.
"""

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .distributions import QGaussianParams, qgauss_null_entropies, qgauss_sample
from .entropy import knn_bias_constant, lps_block
from .errors import ConfigError, DomainError, InfeasibleModelError
from .linalg import as_sample_matrix, sample_moments
from .mathcore import RngStream
from .statkit import empirical_quantile

FAMILIES = ("t1", "t2")

# samples x points per block of null draws: B = max(1, 8192 // N) keeps a
# block's scratch arrays near 3 MB or less at m = 3
_BLOCK_VALUES = 8192


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
    covariance (t1: q < 1 + 2/(m+2)) and, given n, a nonsingular sample
    covariance (N > m). The first violated bound is named; manifests record it.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r} (expected one of {FAMILIES})")
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
    if bridge and n is not None and not n > m:
        return f"sample covariance requires N > m, got N={n}, m={m}"
    return None


def _checked_ks(ks, q: float, m: int, n: int, family: str, statistic: bool) -> tuple:
    """The ks as ints, once each is a positive integer that infeasibility_reason
    accepts at (q, m, N), at its statistic stage if statistic; or InfeasibleModelError."""
    for k in ks:
        if reason := infeasibility_reason(family, q, m, k, n, bridge=statistic):
            raise InfeasibleModelError(reason)
        knn_bias_constant(k, q)  # validates k before the query
    return tuple(int(k) for k in ks)


def _block_values(samples: np.ndarray, ks: tuple, q: float, statistic: bool) -> np.ndarray:
    """The (B, len(ks)) Q (with statistic) or h_hat of a (B, n, m) stack, at every k of ks.

    With statistic, the null half of Q (`qgauss_null_entropies` of the
    samples' covariances) comes before the estimate (`lps_block`), so a
    rank-deficient sample raises NotPositiveDefiniteError even if it also
    has duplicates. The ks must have passed _checked_ks.
    """
    if not statistic:
        return (1.0 - lps_block(samples, ks, q)) / (q - 1.0)
    upper = qgauss_null_entropies(sample_moments(samples)[1], q)
    return upper[:, None] - (1.0 - lps_block(samples, ks, q)) / (q - 1.0)


def gof_statistic(x, k: int, q: float, family: str) -> TestResult:
    """The raw test statistic, without a critical value.

    The covariance comes before the neighbor query, so a rank-deficient
    sample raises NotPositiveDefiniteError even when it also has the
    duplicate points that raise DegenerateSampleError for q > 1.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    ks = _checked_ks((k,), q, m, n, family, True)
    statistic = float(_block_values(a[None], ks, q, True)[0, 0])
    return TestResult(statistic=statistic, family=family, q=q, k=ks[0], n=n, m=m)


def run_test(
    x,
    k: int,
    q: float,
    family: str,
    alpha: float,
    critical_value: float | None = None,
    simulate: int | None = None,
    rng: RngStream | None = None,
) -> TestResult:
    """Evaluate the statistic and decide against a critical value.

    A given critical_value (harness.read_critical_value reads one from a
    table) is used as it is; without one, it is the upper (1-alpha)
    empirical quantile of `simulate` null replicates at the observed
    (N, m, q, k), replicate j drawn from rng.child(j).
    """
    if critical_value is not None and not np.isfinite(critical_value):
        raise DomainError("critical values must be finite")
    if not (0.0 < alpha <= 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    base = gof_statistic(x, k, q, family)

    crit = critical_value
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

    The draws are evaluated in blocks of max(1, 8192 // n) by
    `_block_values`, like gof_statistic's sample, with one neighbor query at
    max(ks), so all ks share draws (common random numbers across k) and
    each column equals what a run with ks=(k,) gives, bit for bit. Where a
    block fails, its draws are evaluated again one at a time, so the first
    failing draw raises what it raises alone, wherever the block
    boundaries fall; a draw the sampler refuses (one that overflows
    float64) raises once the draws before it are evaluated. With
    statistic, entries are Q; without it they are the estimates h_hat, and
    the covariance bridge is not required.
    """
    ks = _checked_ks(ks, q, m, n, family, statistic)
    params = QGaussianParams(m=m, q=q)
    streams = iter(streams)
    blocks = []
    while chunk := list(islice(streams, max(1, _BLOCK_VALUES // n))):
        samples = []
        try:
            for rng in chunk:
                samples.append(qgauss_sample(params, n, rng))  # DomainError on overflow
            blocks.append(_block_values(np.stack(samples), ks, q, statistic))
        except ValueError:
            for sample in samples:
                _block_values(sample[None], ks, q, statistic)
            raise
    return np.concatenate(blocks) if blocks else np.empty((0, len(ks)))
