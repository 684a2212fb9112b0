"""Statistical utilities for the simulation study: Shapiro-Wilk normality
test, empirical quantiles, and the offset log-log regression.

The Shapiro-Wilk routine is a direct implementation of Royston's AS R94
approximation (Royston, "Remark AS R94", Applied Statistics 44(4), 1995),
valid for sample sizes 3..5000; the polynomial coefficients below are
hard-coded from that source. It is validated in the tests against
published reference values and an independent implementation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateSampleError, DomainError

# Royston (1995) polynomial coefficients, lowest order first.
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.544, -0.39978, 0.025054, -0.0006714)  # mean of ln(1-W), 4 <= n <= 11
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)  # ln sd,          4 <= n <= 11
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)  # mean, n >= 12 (in ln n)
_C6 = (-0.4803, -0.082676, 0.0030302)  # ln sd, n >= 12 (in ln n)
_G = (-2.273, 0.459)  # gamma(n) for the n <= 11 transform

SHAPIRO_WILK_MAX_N = 5000  # the largest n the approximation covers


def _poly(coeffs, u):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


@dataclass(frozen=True)
class ShapiroResult:
    w: float
    p_value: float
    n: int


def shapiro_wilk(sample) -> ShapiroResult:
    """W statistic and p-value for the composite normality hypothesis."""
    x = np.sort(np.asarray(sample, dtype=float).reshape(-1))
    n = x.shape[0]
    if not (3 <= n <= SHAPIRO_WILK_MAX_N):
        raise DomainError(f"Shapiro-Wilk supports 3 <= n <= {SHAPIRO_WILK_MAX_N}, got n={n}")
    if not np.all(np.isfinite(x)):
        raise DomainError("sample values must be finite")
    if x[-1] - x[0] <= 0.0:
        raise DegenerateSampleError("constant sample: W is undefined")

    # Expected normal order statistics (Blom-type plotting positions).
    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssq = float(m @ m)

    a = np.empty(n)
    if n == 3:
        a[0], a[1], a[2] = -math.sqrt(0.5), 0.0, math.sqrt(0.5)
    else:
        rsn = 1.0 / math.sqrt(n)
        c = m / math.sqrt(ssq)
        a_n = _poly(_C1, rsn) + c[-1]
        if n > 5:
            a_n1 = _poly(_C2, rsn) + c[-2]
            phi = (ssq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
            )
            a[:] = m / math.sqrt(phi)
            a[-2], a[1] = a_n1, -a_n1
        else:
            phi = (ssq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
            a[:] = m / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n

    centered = x - x.mean()
    w = float((a @ x) ** 2 / (centered @ centered))
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return ShapiroResult(w=w, p_value=p, n=n)

    w1 = 1.0 - w
    if w1 <= 0.0:
        return ShapiroResult(w=w, p_value=1.0, n=n)
    y = math.log(w1)
    if n <= 11:
        gamma = _poly(_G, float(n))
        if y >= gamma:
            # W so small that the transform degenerates; report essentially zero.
            return ShapiroResult(w=w, p_value=1e-19, n=n)
        y = -math.log(gamma - y)
        mu = _poly(_C3, float(n))
        sd = math.exp(_poly(_C4, float(n)))
    else:
        ln_n = math.log(n)
        mu = _poly(_C5, ln_n)
        sd = math.exp(_poly(_C6, ln_n))
    p = float(ndtr((mu - y) / sd))
    return ShapiroResult(w=w, p_value=p, n=n)


def empirical_quantile(values, level: float) -> float:
    """Order-statistic quantile with linear interpolation.

    With sorted values v_(1..M) and 1-based position h = 1 + level*(M-1),
    the result interpolates linearly between v_(floor(h)) and v_(ceil(h)).
    This rule is part of the result-file contract: critical-value tables
    are sensitive to the interpolation convention.
    """
    v = np.sort(np.asarray(values, dtype=float).reshape(-1))
    if v.shape[0] == 0:
        raise DomainError("empirical_quantile requires a nonempty sample")
    if not (0.0 < level < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {level!r}")
    if not np.all(np.isfinite(v)):
        raise DomainError("values must be finite")
    h = level * (v.shape[0] - 1)
    lo = math.floor(h)
    frac = h - lo
    if lo + 1 >= v.shape[0]:
        return float(v[-1])
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


@dataclass(frozen=True)
class RegressionFit:
    intercept: float
    slope: float
    residual_stderr: float


def ols_slope_with_offset(ns, mean_abs_q) -> RegressionFit:
    """Fit log(mean_abs_q) + (1/2) log N = intercept + slope * log N.

    The half-log offset absorbs the root-N decay, so the reported slope
    measures departure from an exactly root-N convergence rate.
    """
    ns = np.asarray(ns, dtype=float).reshape(-1)
    vals = np.asarray(mean_abs_q, dtype=float).reshape(-1)
    if ns.shape != vals.shape:
        raise DomainError("ns and mean_abs_q must have equal length")
    if np.unique(ns).shape[0] < 3:
        raise DomainError("regression needs at least 3 distinct sample sizes")
    if not (np.all(ns > 0) and np.all(vals > 0)):
        raise DomainError("sample sizes and mean magnitudes must be positive")
    x = np.log(ns)
    y = np.log(vals) + 0.5 * x
    design = np.column_stack([np.ones_like(x), x])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    dof = x.shape[0] - 2
    rse = math.sqrt(float(residuals @ residuals) / dof) if dof > 0 else 0.0
    return RegressionFit(intercept=float(coef[0]), slope=float(coef[1]), residual_stderr=rse)
