"""Exact k-th nearest-neighbor Euclidean distances for all points of a
static dataset.

`knn_distances` is the one entry point the package uses: a kd-tree query.
`knn_distances_bruteforce` is an O(N^2) all-pairs computation kept only as
the correctness oracle for tests. Both accumulate squared coordinate
differences in fixed coordinate order before the final square root, so
their outputs agree bit-for-bit; with ties broken by point index the k-th
distance is the k-th element of the same total order either way.
"""

import numpy as np
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
    """The N x k neighbor-distance matrix by kd-tree query; identical output
    to the brute force, bit-for-bit."""
    a = as_sample_matrix(x)
    n, _ = a.shape
    k = _check_k(k, n)
    dist, _ = cKDTree(a).query(a, k=k + 1)
    return dist[:, 1:]
