"""Nearest-neighbor estimation of the q-integral and Tsallis entropy.

The estimator follows Leonenko, Pronzato & Savani (Ann. Statist. 36, 2008):
with rho_i the distance from X_i to its k-th nearest neighbor,

    i_hat = (1/N) sum_i [ (N-1) * C(k, q) * V_m * rho_i^m ]^(1-q)

estimates integral(f^q), and the Tsallis entropy estimate is
h_hat = (1 - i_hat)/(q - 1). C(k, q) is the Gamma-ratio bias constant and
V_m the unit-ball volume. The per-point terms are evaluated in log space,
which keeps tiny neighbor distances from underflowing rho^m, and summed
with exact rounding (`mathcore.exact_sums`), so the estimate does not
depend on point order. `lps_block(samples, ks, q)`, the one evaluation
path, maps a stack of samples to i_hat at several k with one exact_sums
call; `tsallis_knn_estimate` and the test statistic both call it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateSampleError, DomainError
from .knn import knn_distances
from .linalg import as_sample_matrix
from .mathcore import exact_sums, unit_ball_volume


@dataclass(frozen=True)
class EntropyEstimate:
    """Estimate of integral(f^q) (i_hat) and Tsallis entropy (h_hat), with provenance."""

    i_hat: float
    h_hat: float
    n: int
    m: int
    q: float
    k: int


@dataclass(frozen=True)
class ConsistencyReport:
    """Evaluation of the moment conditions behind estimator consistency."""

    r_c: float
    condition_mean: bool
    condition_mean_square: bool
    q_range_ok: bool


def knn_bias_constant(k: int, q: float) -> float:
    """The Gamma-ratio constant [Gamma(k)/Gamma(k+1-q)]^(1/(1-q)).

    Defined for integer k >= 1 and 0 < q < k+1, q != 1; at q = k+1 the
    denominator hits the Gamma pole.
    """
    if int(k) != k or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if not (0 < q < k + 1):
        raise DomainError(f"order q must satisfy 0 < q < k+1 = {k + 1}, got {q!r}")
    if q == 1:
        raise DomainError("order q = 1 is excluded (estimator undefined at the Shannon point)")
    return math.exp((gammaln(k) - gammaln(k + 1.0 - q)) / (1.0 - q))


def lps_block(samples: np.ndarray, ks: tuple, q: float) -> np.ndarray:
    """The (B, len(ks)) i_hat of a (B, n, m) stack of samples, at every k of ks.

    The constant factor log[(N-1) C(k, q) V_m] of each k's terms is formed once
    per call. Per sample come one neighbor query at max(ks), whose column k-1
    gives each k its distances, and the duplicate check: for q > 1 a zero
    distance makes the estimate infinite and raises DegenerateSampleError. One
    exact_sums call then sums the terms of every k of every sample; a sum that
    overflows float64 raises DomainError. The ks must be integers with n > k.
    """
    b, n, m = samples.shape
    columns = [k - 1 for k in ks]
    log_scales = np.array(
        [math.log(n - 1) + math.log(knn_bias_constant(k, q)) + math.log(unit_ball_volume(m))
         for k in ks]
    )
    rho = np.empty((b, len(ks), n))
    for j, sample in enumerate(samples):
        rho[j] = knn_distances(sample, max(ks)).T[columns]
        if q > 1 and np.min(rho[j]) == 0.0:
            raise DegenerateSampleError(
                "duplicate points give zero neighbor distances, undefined for q > 1 "
                "(remove or perturb the duplicates, or use q < 1)"
            )
    # rho == 0 -> log -inf -> exact 0 term (q < 1); an overflowing term
    # or sum is refused below, not warned about
    with np.errstate(divide="ignore", over="ignore"):
        powers = np.exp((1.0 - q) * (log_scales[:, None] + m * np.log(rho)))
    try:
        sums = exact_sums(powers.reshape(-1, n))
    except OverflowError as exc:
        raise DomainError(f"estimator terms overflow float64: {exc}") from exc
    if not np.isfinite(sums).all():
        raise DomainError("estimator terms overflow float64: a sum is not finite")
    return sums.reshape(b, len(ks)) / n


def tsallis_knn_estimate(x, k: int, q: float) -> EntropyEstimate:
    """Estimate integral(f^q) and the Tsallis entropy from a sample, as a
    block of one through `lps_block`.

    Duplicate points produce zero neighbor distances; for q > 1 those make
    the estimate infinite, so they raise DegenerateSampleError.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    knn_bias_constant(k, q)  # validates k and q before the query; knn refuses N <= k
    i_hat = float(lps_block(a[None], (int(k),), q)[0, 0])
    h_hat = float((1.0 - i_hat) / (q - 1.0))
    return EntropyEstimate(i_hat=i_hat, h_hat=h_hat, q=q, k=int(k), n=n, m=m)


def check_consistency_conditions(
    tail_exponent_beta: float, m: int, q: float, k: int = 1
) -> ConsistencyReport:
    """Evaluate the moment inequalities guaranteeing estimator consistency.

    tail_exponent_beta is the power-law decay exponent of the density
    (f(x) = O(|x|^-beta)); pass math.inf for compactly supported densities.
    The critical moment is r_c = beta - m. Convergence in mean needs
    r_c > m(1-q)/q; convergence in mean square additionally needs q > 1/2
    and r_c > 2m(1-q)/(2q-1). The inequalities are strict.
    """
    if int(m) != m or m < 1:
        raise DomainError(f"dimension must be a positive integer, got {m!r}")
    if int(k) != k or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if not (q > 0) or q == 1:
        raise DomainError(f"order q must be positive and != 1, got {q!r}")
    if math.isinf(tail_exponent_beta):
        r_c = math.inf
    else:
        if not (tail_exponent_beta > m):
            raise DomainError(
                f"invalid tail exponent: beta must exceed the dimension m={m}, "
                f"got beta={tail_exponent_beta!r}"
            )
        r_c = float(tail_exponent_beta) - m
    cond_mean = r_c > m * (1.0 - q) / q
    cond_ms = q > 0.5 and r_c > 2.0 * m * (1.0 - q) / (2.0 * q - 1.0)
    q_range_ok = (0.0 < q < 1.0) or (1.0 < q < (k + 1.0) / 2.0)
    return ConsistencyReport(
        r_c=r_c,
        condition_mean=bool(cond_mean),
        condition_mean_square=bool(cond_ms),
        q_range_ok=bool(q_range_ok),
    )
