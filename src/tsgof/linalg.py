"""Small dense symmetric-matrix operations: Cholesky, log-determinant and
sample moments.

Matrices here are tiny (dimension ~10 at most), so the Cholesky is the
classic unpivoted algorithm with an explicit pivot threshold; that keeps
full control over the failure diagnostics. It factors one matrix or a
whole (..., m, m) stack, each matrix with the bits it has alone. Sample
means and covariances accumulate with exactly rounded summation
(`mathcore.exact_sums`, the bits of math.fsum), which makes them
invariant to row permutation bit-for-bit. `sample_moments` forms them for
a whole stack of samples at once, with one exact_sums call for the means
and one for the covariance entries.
"""

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError
from .mathcore import _positive_integer, exact_sums

_SYMMETRY_RTOL = 1e-12
_PIVOT_RTOL = 1e-12


def _as_square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


class SymPDMatrix:
    """A symmetric positive definite matrix, with its Cholesky factor and
    log-determinant formed once, at construction.

    Symmetry is checked with relative tolerance 1e-12; a matrix that is not
    positive definite raises NotPositiveDefiniteError. The entries and the
    factor are read-only arrays.
    """

    __slots__ = ("entries", "cholesky_factor", "log_det")

    def __init__(self, entries):
        a = _as_square(entries)
        if a.ndim != 2:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        scale = float(np.max(np.abs(a))) or 1.0
        if float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
            raise DomainError("matrix is not symmetric within 1e-12 relative tolerance")
        self.entries, self.cholesky_factor = a.copy(), cholesky(a)
        self.entries.setflags(write=False)
        self.cholesky_factor.setflags(write=False)
        self.log_det = float(_factor_log_det(self.cholesky_factor))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, m: int) -> "SymPDMatrix":
        return cls(np.eye(_positive_integer(m, "dimension")))

    def __repr__(self):
        return f"SymPDMatrix({self.entries.tolist()!r})"


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a, unpivoted, for one matrix or
    for each matrix of a (..., m, m) stack.

    A pivot at or below 1e-12 times its matrix's largest diagonal entry is
    treated as non-positive-definite; the raised error names the failing
    index, the smallest one in the stack. Each inner product is a
    (1, j) @ (j, 1) matmul, which numpy evaluates with the same dot as for
    one matrix, so every factor has the bits it has alone.
    """
    a = _as_square(a)
    threshold = _PIVOT_RTOL * np.maximum(np.max(np.diagonal(a, 0, -2, -1), axis=-1), 0.0)
    lower = np.zeros_like(a)
    for j in range(a.shape[-1]):
        column = lower[..., j, :j, None]  # row j of L as a (..., j, 1) column
        pivot = a[..., j, j] - (lower[..., j, None, :j] @ column)[..., 0, 0]
        if np.any(pivot <= threshold):
            raise NotPositiveDefiniteError(j)
        lower[..., j, j] = np.sqrt(pivot)
        dots = lower[..., j + 1 :, None, :j] @ column[..., None, :, :]  # (..., m-j-1, 1, 1)
        lower[..., j + 1 :, j] = (a[..., j + 1 :, j] - dots[..., 0, 0]) / lower[..., j, j, None]
    return lower


def _factor_log_det(lower: np.ndarray):
    return 2.0 * np.sum(np.log(np.diagonal(lower, 0, -2, -1)), axis=-1)


def log_det(a):
    """Log-determinant of a positive definite matrix, via its Cholesky
    factor: a float, or an array of shape (...) for a (..., m, m) stack."""
    value = _factor_log_det(cholesky(a))
    return float(value) if value.ndim == 0 else value


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


def sample_moments(samples) -> tuple[np.ndarray, np.ndarray]:
    """Column means (B, m) and (N-1)-divisor covariances (B, m, m) of a
    (B, N, m) stack of samples: every column sum and every covariance
    entry is math.fsum's, through one exact_sums call for all means and
    one for all covariance entries, so no result depends on row order or
    on the other samples of the stack. N < 2 or a non-finite entry raises
    DomainError as as_sample_matrix does, and so does a sum, difference
    or product that overflows float64. The covariances are not checked for
    positive definiteness.
    """
    b, n, m = samples.shape
    columns = np.ascontiguousarray(samples.transpose(0, 2, 1))  # one row per column
    as_sample_matrix(columns.reshape(b * m, n).T)  # its N and finite checks, once for the stack
    i, j = np.triu_indices(m)
    try:
        mean = exact_sums(columns.reshape(b * m, n)).reshape(b, m) / n
        with np.errstate(over="ignore"):  # refused below, not warned about
            centered = columns - mean[:, :, None]
            products = (centered[:, i] * centered[:, j]).reshape(-1, n)
        if not np.isfinite(products).all():
            raise OverflowError("a covariance product is not finite")
        upper = exact_sums(products).reshape(b, -1) / (n - 1)
    except OverflowError as exc:
        raise DomainError(f"sample moments overflow float64: {exc}") from exc
    cov = np.empty((b, m, m))
    cov[:, i, j] = upper
    cov[:, j, i] = upper
    return mean, cov

