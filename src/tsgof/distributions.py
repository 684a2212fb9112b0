"""The two model families: multivariate exponential-power (generalized
Gaussian) and multivariate q-Gaussian.

Both are elliptical. Conventions used throughout:

* Generalized Gaussian with shape exponent s > 0:
      f(x) = exp(-1/2 * [(x-alpha)^T Sigma^{-1} (x-alpha)]^(s/2)) / C(m, s, Sigma)
  so s = 2 is the multivariate normal and s = 1 a Laplace-type law.
  Sigma is the *shape matrix*; the covariance is gg_variance_scale(m, s) * Sigma.

* q-Gaussian with entropic index q:
      f(x) = C_q * [1 - (1-q)/2 * (x-mu)^T Sigma^{-1} (x-mu)]_+^(1/(1-q))
  Compactly supported for q < 1; for q > 1 it is a rescaled multivariate
  Student-t with dof = 2/(q-1) - m, normalizable only while that dof is
  positive (q < 1 + 2/m). The covariance, when it exists
  (q < 1 + 2/(m+2)), equals qgauss_covariance_factor(m, q) * Sigma on both
  branches. q = 1 is admitted as the Gaussian limit for sampling and
  density evaluation; the order-q entropy functions require q != 1.

Closed-form q-integrals (integral of f^q) and Tsallis entropies
H_q = (integral(f^q) - 1) / (1 - q) come from the radial Beta reduction and
are cross-checked against adaptive quadrature in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .errors import DomainError, InfeasibleModelError
from .linalg import SymPDMatrix, mahalanobis_sq
from .mathcore import RngStream, draw_gamma

_LOG_2PI = math.log(2.0 * math.pi)


def _as_location(vec, m: int, name: str) -> np.ndarray:
    if vec is None:
        v = np.zeros(m)
    else:
        v = np.asarray(vec, dtype=float).reshape(-1)
    if v.shape[0] != m:
        raise DomainError(f"{name} must have length {m}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} entries must be finite")
    v = v.copy()
    v.setflags(write=False)
    return v


def _as_shape_matrix(sigma, m: int) -> SymPDMatrix:
    if sigma is None:
        return SymPDMatrix.identity(m)
    if not isinstance(sigma, SymPDMatrix):
        sigma = SymPDMatrix(sigma)
    if sigma.dim != m:
        raise DomainError(f"shape matrix must be {m}x{m}, got {sigma.dim}x{sigma.dim}")
    return sigma


@dataclass(frozen=True, eq=False)
class GGParams:
    """Generalized Gaussian parameters (dimension, shape exponent, location, shape matrix)."""

    m: int
    s: float
    alpha: np.ndarray = None
    sigma: SymPDMatrix = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not (self.s > 0):
            raise DomainError(f"shape exponent s must be positive, got {self.s!r}")
        object.__setattr__(self, "alpha", _as_location(self.alpha, self.m, "alpha"))
        object.__setattr__(self, "sigma", _as_shape_matrix(self.sigma, self.m))


@dataclass(frozen=True, eq=False)
class QGaussianParams:
    """q-Gaussian parameters. Sigma is the shape matrix, not the covariance."""

    m: int
    q: float
    mu: np.ndarray = None
    sigma: SymPDMatrix = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not np.isfinite(self.q):
            raise DomainError(f"entropic index q must be finite, got {self.q!r}")
        if self.q > 1 and not self.q < 1.0 + 2.0 / self.m:
            raise InfeasibleModelError(
                f"q-Gaussian with q={self.q} is not normalizable in dimension m={self.m}: "
                f"requires q < 1 + 2/m = {1.0 + 2.0 / self.m}"
            )
        object.__setattr__(self, "mu", _as_location(self.mu, self.m, "mu"))
        object.__setattr__(self, "sigma", _as_shape_matrix(self.sigma, self.m))

    @property
    def nu(self) -> float:
        """Student-t degrees of freedom on the heavy-tail branch (q > 1)."""
        if not self.q > 1:
            raise DomainError("nu is defined only for q > 1")
        return 2.0 / (self.q - 1.0) - self.m


# ---------------------------------------------------------------------------
# generalized Gaussian family
# ---------------------------------------------------------------------------


def _gg_log_norm_const(m: int, s: float, log_det_sigma: float) -> float:
    # C(m, s, Sigma) = pi^(m/2) Gamma(m/s + 1) 2^(m/s) sqrt(det Sigma) / Gamma(m/2 + 1)
    return (
        0.5 * m * math.log(math.pi)
        + gammaln(m / s + 1.0)
        + (m / s) * math.log(2.0)
        + 0.5 * log_det_sigma
        - gammaln(0.5 * m + 1.0)
    )


def gg_norm_const(m: int, s: float, sigma=None) -> float:
    """Normalization constant C(m, s, Sigma) of the generalized Gaussian density."""
    params = GGParams(m=m, s=s, sigma=sigma)
    return math.exp(_gg_log_norm_const(params.m, params.s, params.sigma.log_det))


def gg_log_pdf(x, params: GGParams) -> float:
    """Log-density of the generalized Gaussian at point x."""
    h = mahalanobis_sq(x, params.alpha, params.sigma)
    log_c = _gg_log_norm_const(params.m, params.s, params.sigma.log_det)
    return -log_c - 0.5 * h ** (params.s / 2.0)


def gg_variance_scale(m: int, s: float) -> float:
    """Scale factor beta(m, s) with Var(X) = beta * Sigma."""
    if int(m) != m or m < 1:
        raise DomainError(f"dimension must be a positive integer, got {m!r}")
    if not (s > 0):
        raise DomainError(f"shape exponent s must be positive, got {s!r}")
    return math.exp(
        (2.0 / s) * math.log(2.0) + gammaln((m + 2.0) / s) - math.log(m) - gammaln(m / s)
    )


def gg_sample(params: GGParams, n: int, rng: RngStream) -> np.ndarray:
    """Exact draws via the radial decomposition.

    X = alpha + r * Sigma^(1/2) U with U uniform on the sphere and
    r = (2 G)^(1/s), G ~ Gamma(m/s), which gives the radial density
    proportional to r^(m-1) exp(-r^s / 2).
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    m, s = params.m, params.s
    gen = rng.generator
    z = gen.standard_normal((n, m))
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = 1.0
    g = np.atleast_1d(draw_gamma(rng, m / s, size=n))
    r = (2.0 * g) ** (1.0 / s)
    directions = z / norms[:, None]
    radial = directions * r[:, None]
    return params.alpha + radial @ params.sigma.cholesky_factor.T


def _gg_log_q_integral(m: int, s: float, log_det_sigma: float, q: float) -> float:
    # integral of f^q = C(m, s, Sigma)^(1-q) * q^(-m/s), by substituting
    # w = q^(1/s) y in the standardized integral.
    return (1.0 - q) * _gg_log_norm_const(m, s, log_det_sigma) - (m / s) * math.log(q)


def _check_order(q: float):
    if not (q > 0) or not np.isfinite(q):
        raise DomainError(f"entropy order q must be positive and finite, got {q!r}")
    if q == 1:
        raise DomainError("entropy order q = 1 is excluded (Shannon case out of scope)")


def gg_q_integral(m: int, s: float, sigma, q: float) -> float:
    """integral of f^q over R^m for the generalized Gaussian."""
    _check_order(q)
    params = GGParams(m=m, s=s, sigma=sigma)
    return math.exp(_gg_log_q_integral(params.m, params.s, params.sigma.log_det, q))


def gg_tsallis_entropy(m: int, s: float, sigma, q: float) -> float:
    """Order-q Tsallis entropy of the generalized Gaussian: (I_q - 1)/(1 - q)."""
    _check_order(q)
    params = GGParams(m=m, s=s, sigma=sigma)
    log_iq = _gg_log_q_integral(params.m, params.s, params.sigma.log_det, q)
    return math.expm1(log_iq) / (1.0 - q)


def gg_covariance(params: GGParams) -> SymPDMatrix:
    """Covariance matrix of the generalized Gaussian: beta(m, s) * Sigma."""
    return params.sigma.scaled(gg_variance_scale(params.m, params.s))


# ---------------------------------------------------------------------------
# q-Gaussian family
# ---------------------------------------------------------------------------


def _log_sphere_area(m: int) -> float:
    # surface area of the unit sphere in R^m
    return math.log(2.0) + 0.5 * m * math.log(math.pi) - gammaln(0.5 * m)


def _qgauss_log_radial(m: int, q: float, exponent_num: float) -> float:
    """log of integral_0^R r^(m-1) [1 - (1-q) r^2 / 2]_+^(exponent_num/(1-q)) dr.

    exponent_num is 1 for the normalization constant and q for the
    q-integral. Both branches reduce to a Beta function:
      q < 1: (1/2) a^(-m/2) B(m/2, p + 1),        a = (1-q)/2, p = exponent_num/(1-q)
      q > 1: (1/2) a^(-m/2) B(m/2, p' - m/2),     a = (q-1)/2, p' = exponent_num/(q-1)
    the second converging only for p' > m/2.
    """
    if q < 1:
        a = 0.5 * (1.0 - q)
        p = exponent_num / (1.0 - q)
        return math.log(0.5) - 0.5 * m * math.log(a) + betaln(0.5 * m, p + 1.0)
    a = 0.5 * (q - 1.0)
    p = exponent_num / (q - 1.0)
    if not p > 0.5 * m:
        raise InfeasibleModelError(
            f"radial integral diverges: requires {exponent_num}/(q-1) > m/2, "
            f"i.e. q < {1.0 + 2.0 * exponent_num / m} for m={m}, got q={q}"
        )
    return math.log(0.5) - 0.5 * m * math.log(a) + betaln(0.5 * m, p - 0.5 * m)


def _qgauss_log_norm_const(params: QGaussianParams) -> float:
    m, q = params.m, params.q
    if q == 1:
        return -0.5 * m * _LOG_2PI - 0.5 * params.sigma.log_det
    log_total = (
        0.5 * params.sigma.log_det + _log_sphere_area(m) + _qgauss_log_radial(m, q, 1.0)
    )
    return -log_total


def qgauss_norm_const(params: QGaussianParams) -> float:
    """Normalizing multiplier C_q of the q-Gaussian density."""
    return math.exp(_qgauss_log_norm_const(params))


def qgauss_log_pdf(x, params: QGaussianParams) -> float:
    """Log-density at x; -inf outside the support on the compact branch."""
    h = mahalanobis_sq(x, params.mu, params.sigma)
    log_c = _qgauss_log_norm_const(params)
    q = params.q
    if q == 1:
        return log_c - 0.5 * h
    bracket = 1.0 - 0.5 * (1.0 - q) * h
    if bracket <= 0.0:
        return -math.inf
    return log_c + math.log(bracket) / (1.0 - q)


def _qgauss_log_q_integral(params: QGaussianParams) -> float:
    m, q = params.m, params.q
    _check_order(q)
    return (
        q * _qgauss_log_norm_const(params)
        + 0.5 * params.sigma.log_det
        + _log_sphere_area(m)
        + _qgauss_log_radial(m, q, q)
    )


def qgauss_q_integral(params: QGaussianParams) -> float:
    """integral of f^q over R^m for the q-Gaussian."""
    return math.exp(_qgauss_log_q_integral(params))


def qgauss_tsallis_entropy(params: QGaussianParams) -> float:
    """Order-q Tsallis entropy of the q-Gaussian: (1 - I_q)/(q - 1)."""
    return math.expm1(_qgauss_log_q_integral(params)) / (1.0 - params.q)


def qgauss_covariance_factor(m: int, q: float) -> float:
    """Factor linking shape matrix to covariance: Cov = factor * Sigma.

    Valid on both branches; on the heavy-tail branch the covariance exists
    only for q < 1 + 2/(m+2).
    """
    if int(m) != m or m < 1:
        raise DomainError(f"dimension must be a positive integer, got {m!r}")
    if q > 1 and not q < 1.0 + 2.0 / (m + 2.0):
        raise InfeasibleModelError(
            f"q-Gaussian covariance does not exist for q={q}, m={m}: "
            f"requires q < 1 + 2/(m+2) = {1.0 + 2.0 / (m + 2.0)}"
        )
    return 2.0 / (2.0 + (1.0 - q) * (m + 2.0))


def qgauss_covariance(params: QGaussianParams) -> SymPDMatrix:
    """Covariance matrix of the q-Gaussian, when it exists."""
    return params.sigma.scaled(qgauss_covariance_factor(params.m, params.q))


def qgauss_shape_from_covariance(cov: SymPDMatrix, m: int, q: float) -> SymPDMatrix:
    """Invert the covariance/shape bridge: the Sigma whose member has covariance cov."""
    return cov.scaled(1.0 / qgauss_covariance_factor(m, q))


def qgauss_sample(params: QGaussianParams, n: int, rng: RngStream) -> np.ndarray:
    """Exact draws via the elliptical radial representations.

    q < 1: X = mu + Sigma^(1/2) U rho with rho = sqrt(2 B / (1-q)),
           B ~ Beta(m/2, 1/(1-q) + 1).
    q > 1: X = mu + c Sigma^(1/2) T with T standard multivariate Student-t,
           dof nu = 2/(q-1) - m and c = sqrt(2 / (nu (q-1))).
    q = 1: multivariate normal.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    m, q = params.m, params.q
    gen = rng.generator
    z = gen.standard_normal((n, m))
    if q == 1:
        radial = z
    elif q < 1:
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        norms[norms == 0.0] = 1.0
        b = gen.beta(0.5 * m, 1.0 / (1.0 - q) + 1.0, size=n)
        rho = np.sqrt(2.0 * b / (1.0 - q))
        radial = (z / norms[:, None]) * rho[:, None]
    else:
        nu = params.nu  # > 0 guaranteed by the params invariant
        w = gen.chisquare(nu, size=n)
        c = math.sqrt(2.0 / (nu * (q - 1.0)))
        radial = c * z / np.sqrt(w / nu)[:, None]
    return params.mu + radial @ params.sigma.cholesky_factor.T


# ---------------------------------------------------------------------------
# reference values for simple supports
# ---------------------------------------------------------------------------


def tsallis_entropy_uniform(volume: float, q: float) -> float:
    """Tsallis entropy of the uniform density on a support of given volume."""
    if not (volume > 0):
        raise DomainError(f"volume must be positive, got {volume!r}")
    _check_order(q)
    # integral of f^q = volume^(1-q)
    return math.expm1((1.0 - q) * math.log(volume)) / (1.0 - q)
