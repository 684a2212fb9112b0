"""Exact k-th nearest-neighbor Euclidean distances for all points of a
static dataset.

`knn_distances` is the one entry point the package uses: a sorted window
for one-dimensional samples and a kd-tree query otherwise.
`knn_distances_bruteforce` is an O(N^2) all-pairs computation kept only as
the correctness oracle for tests. All three accumulate squared coordinate
differences in fixed coordinate order before the final square root, so
their outputs agree bit-for-bit; with ties broken by point index the k-th
distance is the k-th element of the same total order either way.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from .errors import DomainError
from .linalg import as_sample_matrix

# cap on the scratch distance block (floats) used by the brute force
_BRUTE_BLOCK_FLOATS = 1 << 23


def _check_k(k: int, n: int) -> int:
    if int(k) != k or not (1 <= k <= n - 1):
        raise DomainError(f"k must be an integer in [1, N-1] = [1, {n - 1}], got {k!r}")
    return int(k)


def knn_distances_bruteforce(x, k: int) -> np.ndarray:
    """All-pairs computation of the N x k neighbor-distance matrix.

    Row i holds the sorted distances from point i to its 1st..k-th nearest
    neighbors among the other N-1 points. Duplicate rows yield zero
    distances; callers that cannot tolerate them must reject downstream.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    k = _check_k(k, n)
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


def knn_distances(x, k: int) -> np.ndarray:
    """The N x k neighbor-distance matrix; identical output to the brute
    force, bit-for-bit.

    For m = 1 one sort gives each point's k nearest neighbors among the k
    sorted points on each side of it (rounding is monotone, so no point
    outside that window is nearer); the window is padded with -inf/+inf
    and its centre, the point itself, is dropped as the first zero. Equal
    values get equal rows in any sort order, so the sort need not be
    stable. For m >= 2 a kd-tree query.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    k = _check_k(k, n)
    if m > 1:
        dist, _ = cKDTree(a).query(a, k=k + 1)
        return dist[:, 1:]
    order = np.argsort(a[:, 0])
    s = a[order, 0]
    padded = np.concatenate((np.full(k, -np.inf), s, np.full(k, np.inf)))
    out = np.empty((n, k))
    with np.errstate(over="ignore"):  # gaps past 1e154 square to inf, silently as in the tree
        d = sliding_window_view(padded, 2 * k + 1) - s[:, None]
        d *= d
        d.sort(axis=1)
        out[order] = np.sqrt(d[:, 1 : k + 1])
    return out
