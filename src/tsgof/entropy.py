"""Nearest-neighbor estimation of the q-integral and Tsallis entropy.

The estimator follows Leonenko, Pronzato & Savani (Ann. Statist. 36, 2008):
with rho_i the distance from X_i to its k-th nearest neighbor,

    i_hat = (1/N) sum_i [ (N-1) * C(k, q) * V_m * rho_i^m ]^(1-q)

estimates integral(f^q), and the Tsallis entropy estimate is
h_hat = (1 - i_hat)/(q - 1). C(k, q) is the Gamma-ratio bias constant and
V_m the unit-ball volume. The per-point terms are evaluated in log space,
which keeps tiny neighbor distances from underflowing rho^m.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError
from .knn import knn_distances
from .linalg import as_sample_matrix
from .mathcore import log_gamma, unit_ball_volume


@dataclass(frozen=True)
class EntropyEstimate:
    """Estimate of integral(f^q) (i_hat) and Tsallis entropy (h_hat), with provenance."""

    i_hat: float
    h_hat: float
    q: float
    k: int
    n: int
    m: int


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
    return math.exp((log_gamma(k) - log_gamma(k + 1.0 - q)) / (1.0 - q))


def lps_estimate(rho, k: int, q: float, m: int) -> EntropyEstimate:
    """The estimate from rho, the k-th neighbor distances of N points in R^m.

    For q > 1 a zero distance (a duplicate point) makes the estimate
    infinite and raises DegenerateSampleError.
    """
    n = rho.shape[0]
    if q > 1 and np.min(rho) == 0.0:
        raise DegenerateSampleError(
            "duplicate points give zero neighbor distances, undefined for q > 1 "
            "(remove or perturb the duplicates, or use q < 1)"
        )
    log_scale = math.log(n - 1) + math.log(knn_bias_constant(k, q)) + math.log(unit_ball_volume(m))
    with np.errstate(divide="ignore"):  # rho == 0 -> log -inf -> exact 0 term (q < 1)
        powers = np.exp((1.0 - q) * (log_scale + m * np.log(rho)))
    # exactly rounded sum: reproducible and invariant to point order
    i_hat = math.fsum(powers.tolist()) / n
    h_hat = (1.0 - i_hat) / (q - 1.0)
    return EntropyEstimate(i_hat=i_hat, h_hat=h_hat, q=q, k=int(k), n=n, m=m)


def tsallis_knn_estimate(x, k: int, q: float) -> EntropyEstimate:
    """Estimate integral(f^q) and the Tsallis entropy from a sample, with
    the kd-tree neighbor query of `knn_distances`.

    Duplicate points produce zero neighbor distances; for q > 1 those make
    the estimate infinite, so they raise DegenerateSampleError.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    if not (n > k):
        raise DomainError(f"need N > k, got N={n}, k={k}")
    knn_bias_constant(k, q)  # validates k and q before the query
    return lps_estimate(knn_distances(a, k)[:, -1], k, q, m)


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
