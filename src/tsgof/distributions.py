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
  branches. q = 1 is admitted as the Gaussian limit for sampling only;
  the order-q entropy functions require q != 1.

Closed-form q-integrals (integral of f^q) and Tsallis entropies
H_q = (integral(f^q) - 1) / (1 - q) come from the radial Beta reduction and
are cross-checked against adaptive quadrature in the test suite. The null
half of the statistic Q, the entropy of the index-q member at each sample
covariance of a stack, is `qgauss_null_entropies`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .errors import DomainError, InfeasibleModelError
from .linalg import SymPDMatrix, log_det
from .mathcore import RngStream, _positive_integer


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
        object.__setattr__(self, "m", _positive_integer(self.m, "dimension"))
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
        object.__setattr__(self, "m", _positive_integer(self.m, "dimension"))
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


def gg_variance_scale(m: int, s: float) -> float:
    """Scale factor beta(m, s) with Var(X) = beta * Sigma."""
    _positive_integer(m, "dimension")
    if not (s > 0):
        raise DomainError(f"shape exponent s must be positive, got {s!r}")
    return math.exp(
        (2.0 / s) * math.log(2.0) + gammaln((m + 2.0) / s) - math.log(m) - gammaln(m / s)
    )


def _affine_draws(member: str, params, loc: np.ndarray, radial: np.ndarray) -> np.ndarray:
    """The draws loc + radial @ L^T, with params.sigma = L L^T. The
    samplers run under np.errstate(all="ignore"), so a radius that
    overflows float64 warns nothing; any draw that is not finite is refused
    here, with a DomainError naming the member (member.format(p=params),
    formatted only then)."""
    x = loc + radial @ params.sigma.cholesky_factor.T
    finite = np.isfinite(x)
    if not finite.all():
        bad = len(x) - int(finite.all(axis=1).sum())
        member = member.format(p=params)
        raise DomainError(f"{member} draws overflow float64: {bad} of {len(x)} are not finite")
    return x


@np.errstate(all="ignore")
def gg_sample(params: GGParams, n: int, rng: RngStream) -> np.ndarray:
    """Exact draws via the radial decomposition.

    X = alpha + r * Sigma^(1/2) U with U uniform on the sphere and
    r = (2 G)^(1/s), G ~ Gamma(m/s), which gives the radial density
    proportional to r^(m-1) exp(-r^s / 2). Below shape 1, G = G1 * V^(s/m)
    with G1 ~ Gamma(m/s + 1) and V uniform, which avoids rejection
    pathologies near zero. Draws that overflow float64 (s near 0) raise
    DomainError, as does s = inf, which the closed forms admit.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    m, s = params.m, params.s
    if math.isinf(s):
        raise DomainError("the generalized Gaussian sampler needs a finite s, got s=inf")
    gen = rng.generator
    z = gen.standard_normal((n, m))
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = 1.0
    shape = m / s
    if shape >= 1.0:
        g = gen.standard_gamma(shape, size=n)
    else:
        g = gen.standard_gamma(shape + 1.0, size=n) * gen.random(n) ** (1.0 / shape)
    r = (2.0 * g) ** (1.0 / s)
    directions = z / norms[:, None]
    radial = directions * r[:, None]
    return _affine_draws("generalized Gaussian s={p.s}, m={p.m}", params, params.alpha, radial)


def _gg_log_q_integral(m: int, s: float, log_det_sigma: float, q: float) -> float:
    # integral of f^q = C(m, s, Sigma)^(1-q) * q^(-m/s), by substituting
    # w = q^(1/s) y in the standardized integral, with the normalizer
    # C(m, s, Sigma) = pi^(m/2) Gamma(m/s + 1) 2^(m/s) sqrt(det Sigma) / Gamma(m/2 + 1)
    log_c = (
        0.5 * m * math.log(math.pi)
        + gammaln(m / s + 1.0)
        + (m / s) * math.log(2.0)
        + 0.5 * log_det_sigma
        - gammaln(0.5 * m + 1.0)
    )
    return (1.0 - q) * log_c - (m / s) * math.log(q)


def _check_order(q: float):
    if not (q > 0) or not np.isfinite(q):
        raise DomainError(f"entropy order q must be positive and finite, got {q!r}")
    if q == 1:
        raise DomainError("entropy order q = 1 is excluded (Shannon case out of scope)")


def _from_log_q_integral(log_iq: float, name: str, q: float | None = None) -> float:
    """I_q = exp(log_iq), or given q (I_q - 1)/(1 - q); past float64, DomainError."""
    try:
        value = math.exp(log_iq) if q is None else math.expm1(log_iq) / (1.0 - q)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows float64: log I_q = {log_iq:.6g}")
    return value


def gg_q_integral(m: int, s: float, sigma, q: float) -> float:
    """integral of f^q over R^m for the generalized Gaussian."""
    _check_order(q)
    params = GGParams(m=m, s=s, sigma=sigma)
    log_iq = _gg_log_q_integral(params.m, params.s, params.sigma.log_det, q)
    return _from_log_q_integral(log_iq, "generalized Gaussian q-integral")


def gg_tsallis_entropy(m: int, s: float, sigma, q: float) -> float:
    """Order-q Tsallis entropy of the generalized Gaussian: (I_q - 1)/(1 - q)."""
    _check_order(q)
    params = GGParams(m=m, s=s, sigma=sigma)
    log_iq = _gg_log_q_integral(params.m, params.s, params.sigma.log_det, q)
    return _from_log_q_integral(log_iq, "generalized Gaussian entropy", q)


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


def _qgauss_log_q_integral(m: int, q: float, log_det_sigma):
    """log integral(f^q) of the index-q member in R^m, for log_det_sigma a
    float or an array of them; q must have passed _check_order."""
    area = _log_sphere_area(m)
    radial_1 = _qgauss_log_radial(m, q, 1.0)
    radial_q = _qgauss_log_radial(m, q, q)
    # q * log C_q + log[det(Sigma)^(1/2) * sphere area * radial integral of order q]
    return q * -(0.5 * log_det_sigma + area + radial_1) + 0.5 * log_det_sigma + area + radial_q


def qgauss_q_integral(params: QGaussianParams) -> float:
    """integral of f^q over R^m for the q-Gaussian."""
    _check_order(params.q)
    log_iq = _qgauss_log_q_integral(params.m, params.q, params.sigma.log_det)
    return _from_log_q_integral(log_iq, "q-Gaussian q-integral")


def qgauss_tsallis_entropy(params: QGaussianParams) -> float:
    """Order-q Tsallis entropy of the q-Gaussian: (1 - I_q)/(q - 1)."""
    _check_order(params.q)
    log_iq = _qgauss_log_q_integral(params.m, params.q, params.sigma.log_det)
    return _from_log_q_integral(log_iq, "q-Gaussian entropy", params.q)


def qgauss_covariance_factor(m: int, q: float) -> float:
    """Factor linking shape matrix to covariance: Cov = factor * Sigma.

    Valid on both branches; on the heavy-tail branch the covariance exists
    only for q < 1 + 2/(m+2).
    """
    _positive_integer(m, "dimension")
    if q > 1 and not q < 1.0 + 2.0 / (m + 2.0):
        raise InfeasibleModelError(
            f"q-Gaussian covariance does not exist for q={q}, m={m}: "
            f"requires q < 1 + 2/(m+2) = {1.0 + 2.0 / (m + 2.0)}"
        )
    return 2.0 / (2.0 + (1.0 - q) * (m + 2.0))


def qgauss_null_entropies(covariances: np.ndarray, q: float) -> np.ndarray:
    """(B,) order-q Tsallis entropies of the index-q members whose covariances
    are a (B, m, m) stack, from one stacked log-det of the shape matrices
    (each covariance times 1 / the covariance factor): each equals
    qgauss_tsallis_entropy of its shape matrix alone, bit for bit."""
    _check_order(q)
    m = covariances.shape[-1]
    log_dets = log_det(covariances * (1.0 / qgauss_covariance_factor(m, q)))
    log_iqs = _qgauss_log_q_integral(m, q, log_dets)
    return np.array([_from_log_q_integral(v, "q-Gaussian entropy", q) for v in log_iqs.tolist()])


@np.errstate(all="ignore")
def qgauss_sample(params: QGaussianParams, n: int, rng: RngStream) -> np.ndarray:
    """Exact draws via the elliptical radial representations.

    q < 1: X = mu + Sigma^(1/2) U rho with rho = sqrt(2 B / (1-q)),
           B ~ Beta(m/2, 1/(1-q) + 1).
    q > 1: X = mu + c Sigma^(1/2) T with T standard multivariate Student-t,
           dof nu = 2/(q-1) - m and c = sqrt(2 / (nu (q-1))).
    q = 1: multivariate normal.
    Draws that overflow float64 (nu near 0) raise DomainError.
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
    return _affine_draws("q-Gaussian q={p.q}, m={p.m}", params, params.mu, radial)

