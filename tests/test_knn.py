import numpy as np
import pytest

from tsgof.errors import DomainError
from tsgof.knn import knn_distances, knn_distances_bruteforce
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
