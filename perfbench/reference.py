"""Reference computations made apart from the package under test.

Nothing here imports tsgof. The benchmark draws its own null samples
(numpy Student-t and Beta radial constructions), evaluates null entropies
by its own one-dimensional radial quadrature of the q-Gaussian density,
and computes the Leonenko-Pronzato-Savani estimate from its own
scipy.spatial.cKDTree neighbour distances and the published formula.
The checks compare the program's outputs with these.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.spatial import cKDTree


def _kernel(q: float, r):
    """Unnormalised radial profile [1 - (1-q) r^2 / 2]_+^(1/(1-q)) of the
    standard (identity-shape) q-Gaussian."""
    base = 1.0 - 0.5 * (1.0 - q) * r * r
    return max(base, 0.0) ** (1.0 / (1.0 - q))


def _radial_integral(f, q: float) -> float:
    if q < 1.0:
        edge = math.sqrt(2.0 / (1.0 - q))
        value, _ = integrate.quad(f, 0.0, edge, epsabs=0.0, epsrel=1e-12, limit=200)
        return value
    head, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return head + tail


@lru_cache(maxsize=None)
def standard_member(q: float, m: int) -> tuple[float, float]:
    """(integral of f^q, per-coordinate variance) of the identity-shape
    q-Gaussian in R^m, by radial quadrature."""
    area = 2.0 * math.pi ** (0.5 * m) / math.gamma(0.5 * m)
    mass = area * _radial_integral(lambda r: r ** (m - 1) * _kernel(q, r), q)
    iq = area * _radial_integral(lambda r: r ** (m - 1) * _kernel(q, r) ** q, q) / mass**q
    second = area * _radial_integral(lambda r: r ** (m + 1) * _kernel(q, r), q) / mass
    return iq, second / m


def tsallis_entropy(q: float, m: int) -> float:
    """Order-q Tsallis entropy of the identity-shape q-Gaussian."""
    iq, _ = standard_member(q, m)
    return (1.0 - iq) / (q - 1.0)


def null_entropy_at_cov(cov: np.ndarray, q: float) -> float:
    """Tsallis entropy of the q-Gaussian whose covariance is cov.

    The shape matrix is cov / v, v the variance factor of the standard
    member, and integral(f^q) scales with det(shape)^((1-q)/2).
    """
    cov = np.atleast_2d(cov)
    m = cov.shape[0]
    iq, var = standard_member(q, m)
    sign, logdet = np.linalg.slogdet(cov / var)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    return (1.0 - iq * math.exp(0.5 * (1.0 - q) * logdet)) / (q - 1.0)


def null_draws(rng: np.random.Generator, family: str, q: float, m: int, n: int) -> np.ndarray:
    """n draws of the identity-shape null member.

    t1 (q > 1): the q-Gaussian is a Student-t with nu = 2/(q-1) - m degrees
    of freedom and scale sqrt(2 / (nu (q-1))).
    t2 (q < 1): a uniform direction times radius sqrt(2 B / (1-q)) with
    B ~ Beta(m/2, 1/(1-q) + 1).
    """
    z = rng.standard_normal((n, m))
    if family == "t1":
        nu = 2.0 / (q - 1.0) - m
        w = rng.chisquare(nu, size=n)
        return math.sqrt(2.0 / (nu * (q - 1.0))) * z / np.sqrt(w / nu)[:, None]
    direction = z / np.linalg.norm(z, axis=1)[:, None]
    b = rng.beta(0.5 * m, 1.0 / (1.0 - q) + 1.0, size=n)
    return direction * np.sqrt(2.0 * b / (1.0 - q))[:, None]


def lps_estimates(x: np.ndarray, ks, q: float) -> dict:
    """{k: (i_hat, h_hat)} for each k, from one cKDTree query at max(ks)."""
    n, m = x.shape
    kmax = max(ks)
    dist, _ = cKDTree(x).query(x, k=kmax + 1)
    log_ball = 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0)
    out = {}
    for k in ks:
        log_ck = (math.lgamma(k) - math.lgamma(k + 1.0 - q)) / (1.0 - q)
        log_zeta = math.log(n - 1) + log_ck + log_ball + m * np.log(dist[:, k])
        i_hat = float(np.mean(np.exp((1.0 - q) * log_zeta)))
        out[k] = (i_hat, (1.0 - i_hat) / (q - 1.0))
    return out


def gof_statistics(x: np.ndarray, ks, q: float) -> dict:
    """{k: Q} with Q = (null entropy at the sample covariance) - h_hat."""
    upper = null_entropy_at_cov(np.cov(x, rowvar=False), q)
    return {k: upper - h for k, (_, h) in lps_estimates(x, ks, q).items()}


def simulate_statistics(rng, family: str, q: float, m: int, n: int, ks, reps: int) -> dict:
    """{k: array of reps null statistics} from the benchmark's own draws."""
    out = {k: np.empty(reps) for k in ks}
    for r in range(reps):
        for k, value in gof_statistics(null_draws(rng, family, q, m, n), ks, q).items():
            out[k][r] = value
    return out


def simulate_estimates(rng, family: str, q: float, m: int, n: int, ks, reps: int) -> dict:
    """{k: array of reps entropy estimates h_hat} from the benchmark's own draws."""
    out = {k: np.empty(reps) for k in ks}
    for r in range(reps):
        for k, (_, h) in lps_estimates(null_draws(rng, family, q, m, n), ks, q).items():
            out[k][r] = h
    return out


def infeasibility(kind: str, family: str, q: float, m: int, k: int, n: int) -> str | None:
    """The feasibility rule, restated: which bound a grid cell violates.

    Returns the violated bound's value as text, or None. Sampling needs
    the family's q range (and q < 1 + 2/m on the heavy tail); the
    estimator needs q < k + 1 and N > k; the test statistic also needs the
    covariance, q < 1 + 2/(m+2), on the heavy tail.
    """
    if family == "t2":
        if not 0.0 < q < 1.0:
            return "1"
    else:
        if not 1.0 < q < 3.0:
            return "3" if q >= 3.0 else "1"
        if not q < 1.0 + 2.0 / m:
            return repr(1.0 + 2.0 / m)
    if not q < k + 1:
        return repr(k + 1)
    if not n > k:
        return repr(k)
    if kind != "consistency-curves" and family == "t1" and not q < 1.0 + 2.0 / (m + 2.0):
        return repr(1.0 + 2.0 / (m + 2.0))
    return None


def upper_band_false_alarm(replications: int, level: float, reference_reps: int) -> float:
    """Probability that the program's empirical (level) quantile of
    `replications` null statistics exceeds the maximum of `reference_reps`
    independent ones, when both come from the same distribution.

    The program interpolates between order statistics j and j+1 of M
    (1-based position 1 + level (M-1)); exceeding the reference maximum
    needs the top M - j of its values to be the top M - j of the pooled
    M + L values.
    """
    m = replications
    top = m - int(math.floor(1.0 + level * (m - 1)))
    top = max(top, 1)
    return math.comb(m, top) / math.comb(m + reference_reps, top)
