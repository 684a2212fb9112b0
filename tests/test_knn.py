import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import knn_distances_bruteforce
from tsgof import knn
from tsgof.errors import DomainError
from tsgof.knn import knn_distances
from tsgof.mathcore import RngStream


def lattice_5x5():
    g = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), -1).reshape(-1, 2)
    return g


class TestBruteForce:
    def test_hand_example_k1(self):
        x = np.array([[0.0], [1.0], [3.0]])
        assert np.array_equal(knn_distances_bruteforce(x, 1), [[1.0], [1.0], [2.0]])

    def test_hand_example_k2(self):
        x = np.array([[0.0], [1.0], [3.0]])
        out = knn_distances_bruteforce(x, 2)
        assert np.array_equal(out[:, 1], [3.0, 2.0, 3.0])
        assert np.array_equal(out[:, 0], [1.0, 1.0, 2.0])

    def test_k_equals_n_minus_one_is_max_distance(self):
        gen = RngStream(41, 0).generator
        x = gen.standard_normal((30, 3))
        out = knn_distances_bruteforce(x, 29)
        for i in range(30):
            dists = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
            dists[i] = -1.0
            assert out[i, -1] == dists.max()

    def test_duplicates_yield_zero(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        out = knn_distances_bruteforce(x, 1)
        assert out[0, 0] == 0.0 and out[1, 0] == 0.0

    def test_k_out_of_range(self):
        x = np.zeros((3, 1))
        for bad in (0, 3, -1, 1.5):
            with pytest.raises(DomainError):
                knn_distances_bruteforce(x, bad)


class TestEngineEquivalence:
    def test_random_configs_bit_identical(self):
        gen = RngStream(42, 0).generator
        for _ in range(20):
            n = int(gen.integers(5, 800))
            m = int(gen.integers(1, 6))
            k = int(gen.integers(1, min(6, n)))
            x = gen.standard_normal((n, m)) * float(gen.uniform(0.01, 100.0))
            assert np.array_equal(knn_distances_bruteforce(x, k), knn_distances(x, k))

    def test_tie_heavy_lattice(self):
        for k in (1, 2, 3, 4, 8):
            assert np.array_equal(
                knn_distances_bruteforce(lattice_5x5(), k), knn_distances(lattice_5x5(), k)
            )

    def test_two_points(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        expected = [[5.0], [5.0]]
        assert np.array_equal(knn_distances_bruteforce(x, 1), expected)
        assert np.array_equal(knn_distances(x, 1), expected)

    def test_dispatch(self):
        x = RngStream(43, 0).generator.standard_normal((50, 2))
        assert np.array_equal(knn_distances(x, 2), knn_distances_bruteforce(x, 2))


class TestInvariances:
    def test_rows_nondecreasing(self):
        x = RngStream(44, 0).generator.standard_normal((200, 3))
        out = knn_distances(x, 5)
        assert np.all(np.diff(out, axis=1) >= 0)

    def test_monotone_in_k(self):
        x = RngStream(45, 0).generator.standard_normal((100, 2))
        k3 = knn_distances(x, 3)
        k4 = knn_distances(x, 4)
        assert np.all(k3[:, 2] <= k4[:, 3])
        assert np.array_equal(k3, k4[:, :3])

    def test_global_min_is_closest_pair(self):
        gen = RngStream(46, 0).generator
        x = gen.standard_normal((150, 2))
        out = knn_distances(x, 1)
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        assert out.min() == pytest.approx(np.sqrt(d2.min()), rel=1e-15)

    def test_rigid_motion_distances_stable(self):
        gen = RngStream(47, 0).generator
        x = gen.standard_normal((300, 3))
        rotation, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        shift = gen.standard_normal(3) * 5.0
        moved = x @ rotation.T + shift
        a = knn_distances(x, 3)
        b = knn_distances(moved, 3)
        assert np.max(np.abs(a - b)) <= 1e-9


@st.composite
def one_column_samples(draw):
    """(N x 1 sample, k) with N from 2 and k from 1 to N - 1. Entries are any
    finite floats, floats rounded to one decimal (tied distances), or taken
    from a small pool (exact duplicates, +0.0 and -0.0)."""
    n = draw(st.integers(2, 60))
    element = (
        st.floats(allow_nan=False, allow_infinity=False)
        | st.floats(-10.0, 10.0).map(lambda v: round(v, 1))
        | st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
    )
    x = np.array(draw(st.lists(element, min_size=n, max_size=n)))
    return x[:, None], draw(st.integers(1, n - 1))


class TestSortedWindow:
    @settings(deadline=None)
    @given(one_column_samples())
    def test_matches_bruteforce(self, sample):
        x, k = sample
        with np.errstate(over="ignore"):  # gaps past 1e154 square to inf in both
            expected = knn_distances_bruteforce(x, k)
        assert np.array_equal(knn_distances(x, k), expected)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 1e-160, 3e-160, 3e-160, 7e-160, -2e-160],  # d * d subnormal
            [0.0, 1e-170, 2e-170, 5e-165, -0.0, 1e-160],  # d * d underflows to 0
            [0.0, 1e160, -1e160, 2.5e160, 1e150, 1e160],  # d * d overflows to inf
            [-1.7e308, 1.7e308, 0.0, 1e308],  # d itself overflows to inf
        ],
    )
    def test_extreme_gaps_match_bruteforce(self, values):
        x = np.array(values)[:, None]
        for k in range(1, len(values)):
            with np.errstate(over="ignore"):
                expected = knn_distances_bruteforce(x, k)
            assert np.array_equal(knn_distances(x, k), expected)

    def test_one_column_never_builds_a_tree(self, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("cKDTree built for m = 1")

        monkeypatch.setattr(knn, "cKDTree", no_tree)
        x = RngStream(48, 0).generator.standard_normal((500, 1))
        assert np.array_equal(knn_distances(x, 3), knn_distances_bruteforce(x, 3))
        with pytest.raises(AssertionError):
            knn_distances(np.hstack((x, x)), 3)
