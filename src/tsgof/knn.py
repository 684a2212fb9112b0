"""Exact k-th nearest-neighbor Euclidean distances for all points of a sample.

`knn_distances` is the one entry point the package uses: a sorted window for
one-dimensional samples and a kd-tree query otherwise. It refuses k and N in
the words of gof.infeasibility_reason (mathcore._estimator_bound). Both paths,
and the O(N^2) all-pairs oracle the tests keep, accumulate squared coordinate
differences in fixed coordinate order before the final square root, so their
outputs agree bit-for-bit; with ties broken by point index the k-th distance is
the k-th element of the same total order either way.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from .errors import DomainError
from .linalg import as_sample_matrix
from .mathcore import _estimator_bound, _positive_integer


def knn_distances(x, k: int) -> np.ndarray:
    """The N x k neighbor-distance matrix; identical output to an all-pairs
    brute force, bit-for-bit.

    For m = 1 one sort gives each point's k nearest neighbors among the k
    sorted points on each side of it (rounding is monotone, so no point
    outside that window is nearer); the window is padded with -inf/+inf
    and its centre, the point itself, is dropped as the first zero. Equal
    values get equal rows in any sort order, so the sort need not be
    stable. For m >= 2 a kd-tree query.
    """
    a = as_sample_matrix(x)
    n, m = a.shape
    k = _positive_integer(k, "k")
    if reason := _estimator_bound(k, n=n):
        raise DomainError(reason)
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
