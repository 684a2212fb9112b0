"""Small dense symmetric-matrix operations: Cholesky, log-determinant,
Mahalanobis forms, and sample moments.

Matrices here are tiny (dimension ~10 at most), so the Cholesky is the
classic unpivoted algorithm with an explicit pivot threshold; that keeps
full control over the failure diagnostics. Sample means and covariances
accumulate with exactly rounded summation (`mathcore.exact_sums`, the bits
of math.fsum), which makes them invariant to row permutation bit-for-bit.
`sample_moments` forms them for a whole stack of samples at once, with one
exact_sums call for the means and one for the covariance entries.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DomainError, NotPositiveDefiniteError
from .mathcore import exact_sums

_SYMMETRY_RTOL = 1e-12
_PIVOT_RTOL = 1e-12


def _as_square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


class SymPDMatrix:
    """A symmetric matrix expected to be positive definite.

    Symmetry is checked at construction (relative tolerance 1e-12).
    Positive definiteness is only established when a Cholesky-backed
    quantity is first requested, so rank-deficient sample covariances can
    be carried around and are flagged exactly where a factor is needed.
    """

    __slots__ = ("_entries", "_chol", "_log_det")

    def __init__(self, entries):
        a = _as_square(entries)
        scale = float(np.max(np.abs(a))) or 1.0
        if float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
            raise DomainError("matrix is not symmetric within 1e-12 relative tolerance")
        a = a.copy()
        a.setflags(write=False)
        self._entries = a
        self._chol = None
        self._log_det = None

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def cholesky_factor(self) -> np.ndarray:
        if self._chol is None:
            self._chol = cholesky(self._entries)
            self._chol.setflags(write=False)
        return self._chol

    @property
    def log_det(self) -> float:
        if self._log_det is None:
            diag = np.diagonal(self.cholesky_factor)
            self._log_det = 2.0 * float(np.sum(np.log(diag)))
        return self._log_det

    def scaled(self, factor: float) -> "SymPDMatrix":
        if not (factor > 0):
            raise DomainError("scale factor must be positive")
        return SymPDMatrix(self._entries * factor)

    @classmethod
    def identity(cls, m: int) -> "SymPDMatrix":
        if int(m) != m or m < 1:
            raise DomainError(f"dimension must be a positive integer, got {m!r}")
        return cls(np.eye(int(m)))

    def __repr__(self):
        return f"SymPDMatrix({self._entries.tolist()!r})"


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a, unpivoted.

    A pivot at or below 1e-12 times the largest diagonal entry is treated
    as non-positive-definite; the raised error names the failing index.
    """
    if isinstance(a, SymPDMatrix):
        a = a.entries
    a = _as_square(a)
    m = a.shape[0]
    threshold = _PIVOT_RTOL * max(float(np.max(np.diagonal(a))), 0.0)
    lower = np.zeros_like(a)
    for j in range(m):
        pivot = a[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= threshold:
            raise NotPositiveDefiniteError(j)
        lower[j, j] = math.sqrt(pivot)
        for i in range(j + 1, m):
            lower[i, j] = (a[i, j] - float(lower[i, :j] @ lower[j, :j])) / lower[j, j]
    return lower


def log_det(a) -> float:
    """Log-determinant of a positive definite matrix, via its Cholesky factor."""
    if isinstance(a, SymPDMatrix):
        return a.log_det
    diag = np.diagonal(cholesky(a))
    return 2.0 * float(np.sum(np.log(diag)))


def as_sample_matrix(x) -> np.ndarray:
    """Validate an N x m observation matrix: N >= 2, all entries finite."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DomainError(f"sample matrix must be 2-D (rows = observations), got ndim={a.ndim}")
    if a.shape[0] < 2:
        raise DomainError("sample matrix needs at least 2 rows")
    if not np.all(np.isfinite(a)):
        raise DomainError("sample matrix entries must be finite")
    return a


def sample_mean_cov(x) -> tuple[np.ndarray, SymPDMatrix]:
    """Column means and the (N-1)-divisor sample covariance.

    Accumulation uses exactly rounded summation, so the result does not
    depend on row order. The covariance is returned unchecked for positive
    definiteness; downstream Cholesky use raises if it is degenerate.
    """
    mean, cov = sample_moments(as_sample_matrix(x)[None])
    return mean[0], SymPDMatrix(cov[0])


def sample_moments(samples) -> tuple[np.ndarray, np.ndarray]:
    """Column means (B, m) and (N-1)-divisor covariances (B, m, m) of a
    (B, N, m) stack of samples, each with the bits sample_mean_cov gives
    that sample alone: every column sum and every covariance entry is
    math.fsum's, through one exact_sums call for all means and one for
    all covariance entries. A non-finite entry raises DomainError as
    as_sample_matrix does.
    """
    b, n, m = samples.shape
    as_sample_matrix(samples.reshape(b * n, m))  # its finite check, once for the stack
    columns = np.ascontiguousarray(samples.transpose(0, 2, 1))  # one row per column
    mean = exact_sums(columns.reshape(b * m, n)).reshape(b, m) / n
    centered = columns - mean[:, :, None]
    i, j = np.triu_indices(m)
    upper = exact_sums((centered[:, i] * centered[:, j]).reshape(-1, n)).reshape(b, -1) / (n - 1)
    cov = np.empty((b, m, m))
    cov[:, i, j] = upper
    cov[:, j, i] = upper
    return mean, cov


def mahalanobis_sq(x, mu, a) -> float:
    """(x - mu)^T A^{-1} (x - mu) via triangular solves against A's Cholesky factor."""
    if not isinstance(a, SymPDMatrix):
        a = SymPDMatrix(a)
    x = np.asarray(x, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if x.shape[0] != a.dim or mu.shape[0] != a.dim:
        raise DomainError(
            f"dimension mismatch: x has {x.shape[0]}, mu has {mu.shape[0]}, matrix has {a.dim}"
        )
    z = solve_triangular(a.cholesky_factor, x - mu, lower=True, check_finite=False)
    return float(z @ z)
