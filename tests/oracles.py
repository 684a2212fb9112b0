"""Independent numerical oracles shared by the tests.

The model log-densities are stated here, apart from the package: their
normalizing constants are the textbook Gamma-function forms written with
math.lgamma, the determinant comes from np.linalg.slogdet and the
quadratic form from np.linalg.solve, so none of them shares the radial
Beta reduction or the Cholesky of the closed forms under test. The
quadrature oracles integrate these densities (and their q-th powers), and
the normalization checks (integral of exp(log_pdf) must be 1) pin the
densities themselves, so together the checks validate the q-integral
algebra against an independent route. `qgauss_log_radial_two_branch`
is not independent: it is the radial Beta log written once per branch,
the reference that the package's one expression for both branches must
match bit for bit.

The per-sample references at the end restate the test statistic one
sample at a time, apart from the block evaluation the package uses: the
one-matrix Cholesky and its log-determinant, the null entropy through the
covariance/shape bridge and the closed form of a QGaussianParams, and the
estimator from brute-force neighbor distances summed with math.fsum.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import betaln

from tsgof.distributions import (
    GGParams,
    QGaussianParams,
    qgauss_covariance_factor,
    qgauss_tsallis_entropy,
)
from tsgof.entropy import knn_bias_constant
from tsgof.errors import DomainError, InfeasibleModelError, NotPositiveDefiniteError
from tsgof.gof import infeasibility_reason
from tsgof.linalg import SymPDMatrix, as_sample_matrix
from tsgof.mathcore import _estimator_bound, _positive_integer, unit_ball_volume

# cap on the scratch distance block (floats) used by the brute force
_BRUTE_BLOCK_FLOATS = 1 << 23


def _quadratic_form_and_half_log_det(x, loc, sigma: SymPDMatrix) -> tuple[float, float]:
    """(x - loc)^T Sigma^{-1} (x - loc) and (1/2) log det Sigma, by numpy's
    LAPACK solve and slogdet."""
    d = np.asarray(x, dtype=float) - loc
    return float(d @ np.linalg.solve(sigma.entries, d)), 0.5 * np.linalg.slogdet(sigma.entries)[1]


def gg_log_pdf(x, params: GGParams) -> float:
    """Log-density of the generalized Gaussian at x, with normalizer
    C = pi^(m/2) Gamma(m/s + 1) 2^(m/s) sqrt(det Sigma) / Gamma(m/2 + 1)."""
    m, s = params.m, params.s
    h, half_log_det = _quadratic_form_and_half_log_det(x, params.alpha, params.sigma)
    log_c = (
        0.5 * m * math.log(math.pi) + math.lgamma(m / s + 1.0) + (m / s) * math.log(2.0)
        + half_log_det - math.lgamma(0.5 * m + 1.0)
    )
    return -log_c - 0.5 * h ** (s / 2.0)


def qgauss_log_pdf(x, params: QGaussianParams) -> float:
    """Log-density of the q-Gaussian at x; -inf outside the support on the
    compact branch. With a = 1/|1-q| and b = |1-q|/2, the integral of the
    unnormalized kernel over the unit-shape member is
    pi^(m/2) Gamma(a + 1) / (b^(m/2) Gamma(a + 1 + m/2)) for q < 1 and
    pi^(m/2) Gamma(a - m/2) / (b^(m/2) Gamma(a)) for q > 1; q = 1 is the
    normal."""
    m, q = params.m, params.q
    h, half_log_det = _quadratic_form_and_half_log_det(x, params.mu, params.sigma)
    if q == 1:
        return -0.5 * m * math.log(2.0 * math.pi) - half_log_det - 0.5 * h
    if q < 1:
        a = 1.0 / (1.0 - q)
        log_mass = (
            0.5 * m * math.log(math.pi) + math.lgamma(a + 1.0)
            - 0.5 * m * math.log((1.0 - q) / 2.0) - math.lgamma(a + 1.0 + 0.5 * m)
        )
    else:
        a = 1.0 / (q - 1.0)
        log_mass = (
            0.5 * m * math.log(math.pi) + math.lgamma(a - 0.5 * m)
            - 0.5 * m * math.log((q - 1.0) / 2.0) - math.lgamma(a)
        )
    bracket = 1.0 - 0.5 * (1.0 - q) * h
    if bracket <= 0.0:
        return -math.inf
    return -log_mass - half_log_det + math.log(bracket) / (1.0 - q)


def qgauss_log_radial_two_branch(m: int, q: float, exponent_num: float) -> float:
    """The radial Beta log of `distributions._qgauss_log_radial`, written
    once per branch, as the package wrote it before one expression in |1-q|
    served both:
      q < 1: (1/2) a^(-m/2) B(m/2, p + 1),    a = (1-q)/2, p = exponent_num/(1-q)
      q > 1: (1/2) a^(-m/2) B(m/2, p - m/2),  a = (q-1)/2, p = exponent_num/(q-1)
    """
    if q < 1:
        a = 0.5 * (1.0 - q)
        p = exponent_num / (1.0 - q)
        return math.log(0.5) - 0.5 * m * math.log(a) + betaln(0.5 * m, p + 1.0)
    a = 0.5 * (q - 1.0)
    p = exponent_num / (q - 1.0)
    return math.log(0.5) - 0.5 * m * math.log(a) + betaln(0.5 * m, p - 0.5 * m)


def _integrate_1d(f, radius):
    if radius is None:
        value, _ = integrate.quad(f, -np.inf, np.inf, limit=400)
    else:
        value, _ = integrate.quad(f, -radius, radius, limit=400)
    return value


def _integrate_2d(f, radius):
    if radius is None:
        value, _ = integrate.dblquad(f, -np.inf, np.inf, -np.inf, np.inf)
        return value
    # circle-slice bounds keep the integrand smooth up to the support edge
    lo = lambda x: -math.sqrt(max(radius * radius - x * x, 0.0))
    hi = lambda x: math.sqrt(max(radius * radius - x * x, 0.0))
    value, _ = integrate.dblquad(f, -radius, radius, lo, hi)
    return value


def _support_radius(params) -> float | None:
    """Radius beyond which the density is zero (compact q-Gaussian), else None."""
    if isinstance(params, QGaussianParams) and params.q < 1:
        # standardized radius sqrt(2/(1-q)) scaled by the largest sigma scale
        scale = math.sqrt(float(np.max(np.diag(params.sigma.entries))))
        return math.sqrt(2.0 / (1.0 - params.q)) * scale * (1.0 + 1e-12)
    return None


def _log_pdf(params):
    if isinstance(params, GGParams):
        return lambda x: gg_log_pdf(x, params)
    return lambda x: qgauss_log_pdf(x, params)


def pdf_power_integral_quadrature(params, power: float) -> float:
    """integral of f(x)^power over R^m by adaptive quadrature (m = 1 or 2).

    Centered parameters are assumed (the tests use zero location).
    """
    log_pdf = _log_pdf(params)
    radius = _support_radius(params)

    if params.m == 1:

        def f(x):
            lp = log_pdf(np.array([x]))
            return 0.0 if lp == -math.inf else math.exp(power * lp)

        return _integrate_1d(f, radius)

    if params.m == 2:

        def f(y, x):
            lp = log_pdf(np.array([x, y]))
            return 0.0 if lp == -math.inf else math.exp(power * lp)

        return _integrate_2d(f, radius)

    raise ValueError("quadrature oracle covers m = 1 and m = 2 only")


def radial_cdf_from_log_pdf(params: QGaussianParams, radii: np.ndarray) -> np.ndarray:
    """CDF of the standardized radius ||Sigma^(-1/2)(X - mu)||, by cumulative
    quadrature of r^(m-1) * f_profile(r) against the density profile.

    Independent of the sampler's own Beta/Student-t representations: only
    the density (via qgauss_log_pdf on a standardized member) and the
    sphere-area factor enter.
    """
    m, q = params.m, params.q
    standard = QGaussianParams(m=m, q=q)
    log_sphere = math.log(2.0) + 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m)

    def radial_density(r):
        if r <= 0:
            return 0.0
        point = np.zeros(m)
        point[0] = r
        lp = qgauss_log_pdf(point, standard)
        if lp == -math.inf:
            return 0.0
        return math.exp(log_sphere + (m - 1) * math.log(r) + lp)

    radii = np.asarray(radii, dtype=float)
    order = np.argsort(radii)
    cdf_sorted = np.empty_like(radii)
    total = 0.0
    prev = 0.0
    for pos, idx in enumerate(order):
        r = radii[idx]
        piece, _ = integrate.quad(radial_density, prev, r, limit=200)
        total += piece
        cdf_sorted[pos] = total
        prev = r
    out = np.empty_like(radii)
    out[order] = np.clip(cdf_sorted, 0.0, 1.0)
    return out


def cholesky_reference(a) -> np.ndarray:
    """The unpivoted Cholesky factor of one matrix, entry by entry: each
    inner product a 1-D `@`, each diagonal entry math.sqrt of its pivot.
    A pivot at or below 1e-12 times the largest diagonal entry raises
    NotPositiveDefiniteError naming its index."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    threshold = 1e-12 * max(float(np.max(np.diagonal(a))), 0.0)
    lower = np.zeros_like(a)
    for j in range(m):
        pivot = a[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= threshold:
            raise NotPositiveDefiniteError(j)
        lower[j, j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            lower[i, j] = (a[i, j] - float(lower[i, :j] @ lower[j, :j])) / lower[j, j]
    return lower


def log_det_reference(a) -> float:
    """Twice the sum of the logs of cholesky_reference's diagonal."""
    return 2.0 * float(np.sum(np.log(np.diagonal(cholesky_reference(a)))))


def qgauss_shape_from_covariance(cov: SymPDMatrix, m: int, q: float) -> SymPDMatrix:
    """Invert the covariance/shape bridge: the Sigma whose member has covariance cov."""
    return SymPDMatrix(cov.entries * (1.0 / qgauss_covariance_factor(m, q)))


def null_max_entropy(sample_cov, m: int, q: float, family: str) -> float:
    """Tsallis entropy of the null family member whose covariance equals
    sample_cov (via the covariance/shape bridge), in closed form."""
    if reason := infeasibility_reason(family, q, m):
        raise InfeasibleModelError(reason)
    if not isinstance(sample_cov, SymPDMatrix):
        sample_cov = SymPDMatrix(sample_cov)
    if sample_cov.dim != m:
        raise DomainError(f"covariance is {sample_cov.dim}x{sample_cov.dim}, expected m={m}")
    shape = qgauss_shape_from_covariance(sample_cov, m, q)
    return qgauss_tsallis_entropy(QGaussianParams(m=m, q=q, sigma=shape))


def knn_distances_bruteforce(x, k: int) -> np.ndarray:
    """All-pairs computation of the N x k neighbor-distance matrix, the
    oracle for `knn.knn_distances`.

    Row i holds the sorted distances from point i to its 1st..k-th nearest
    neighbors among the other N-1 points. Duplicate rows yield zero
    distances; callers that cannot tolerate them must reject downstream.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    k = _positive_integer(k, "k")
    if reason := _estimator_bound(k, n=n):
        raise DomainError(reason)
    out = np.empty((n, k))
    block = max(1, _BRUTE_BLOCK_FLOATS // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = np.zeros((stop - start, n))
        for j in range(m):  # fixed coordinate order for bit equality with the tree
            diff = a[start:stop, j][:, None] - a[None, :, j]
            d2 += diff * diff
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        smallest = np.partition(d2, k - 1, axis=1)[:, :k]
        out[start:stop] = np.sqrt(np.sort(smallest, axis=1))
    return out


def lps_estimate_reference(x, k: int, q: float) -> tuple[float, float]:
    """(i_hat, h_hat) of one sample, term by term: the brute-force k-th
    neighbor distances, each term (N-1) C(k, q) V_m rho^m raised to 1 - q
    in log space with np.log and np.exp over the whole array, as the
    package evaluates them (math.exp gives other bits than numpy's SIMD
    exp on some hosts), then math.fsum. No duplicate check."""
    x = np.asarray(x, dtype=float)
    n, m = x.shape
    rho = knn_distances_bruteforce(x, k)[:, k - 1]
    log_scale = math.log(n - 1) + math.log(knn_bias_constant(k, q)) + math.log(unit_ball_volume(m))
    with np.errstate(divide="ignore"):
        powers = np.exp((1.0 - q) * (log_scale + m * np.log(rho)))
    i_hat = math.fsum(powers) / n
    return i_hat, (1.0 - i_hat) / (q - 1.0)
