import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgof.errors import DomainError, NotPositiveDefiniteError
from tsgof.linalg import (
    SymPDMatrix,
    as_sample_matrix,
    cholesky,
    log_det,
    mahalanobis_sq,
    sample_mean_cov,
)
from tsgof.mathcore import RngStream


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        lower = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
        assert np.allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 5.0]], rtol=1e-10)

    def test_indefinite_matrix_names_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot_index == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.zeros((2, 2)))
        assert err.value.pivot_index == 0

    def test_random_spd_roundtrip(self):
        gen = RngStream(1, 0).generator
        for m in (2, 3, 5, 8):
            a = gen.standard_normal((m, m))
            spd = a @ a.T + m * np.eye(m)
            lower = cholesky(spd)
            frob = np.linalg.norm(lower @ lower.T - spd) / np.linalg.norm(spd)
            assert frob <= 1e-10


class TestLogDet:
    def test_identity_is_zero(self):
        assert log_det(np.eye(4)) == 0.0

    def test_diagonal(self):
        assert log_det(np.diag([4.0, 9.0])) == pytest.approx(math.log(36.0), rel=1e-12)

    def test_hand_value(self):
        assert log_det(np.array([[4.0, 2.0], [2.0, 5.0]])) == pytest.approx(
            math.log(16.0), rel=1e-12
        )

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_law(self, c):
        gen = RngStream(2, 0).generator
        for m in (2, 3):
            a = gen.standard_normal((m, m))
            spd = a @ a.T + m * np.eye(m)
            assert log_det(c * spd) == pytest.approx(
                m * math.log(c) + log_det(spd), abs=1e-10
            )


class TestSymPDMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            SymPDMatrix([[1.0, 0.5], [0.4, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            SymPDMatrix(np.ones((2, 3)))

    def test_caches_factor_and_log_det(self):
        spd = SymPDMatrix([[4.0, 2.0], [2.0, 5.0]])
        assert spd.log_det == pytest.approx(math.log(16.0), rel=1e-12)
        assert np.allclose(spd.cholesky_factor, [[2.0, 0.0], [1.0, 2.0]])

    def test_non_pd_flagged_lazily(self):
        degenerate = SymPDMatrix(np.zeros((2, 2)))  # construction is fine
        with pytest.raises(NotPositiveDefiniteError):
            _ = degenerate.log_det

    def test_entries_read_only(self):
        spd = SymPDMatrix(np.eye(2))
        with pytest.raises(ValueError):
            spd.entries[0, 0] = 3.0


class TestSampleMeanCov:
    def test_two_point_hand_example(self):
        mean, cov = sample_mean_cov([[0.0, 0.0], [2.0, 2.0]])
        assert np.array_equal(mean, [1.0, 1.0])
        assert np.array_equal(cov.entries, [[2.0, 2.0], [2.0, 2.0]])

    def test_constant_rows_give_zero_covariance(self):
        _, cov = sample_mean_cov(np.ones((10, 2)) * 3.5)
        assert np.array_equal(cov.entries, np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            _ = cov.cholesky_factor

    def test_large_normal_sample_near_identity(self):
        x = RngStream(3, 0).generator.standard_normal((100_000, 2))
        _, cov = sample_mean_cov(x)
        assert np.all(np.abs(cov.entries - np.eye(2)) < 0.05)

    def test_row_permutation_exact(self):
        gen = RngStream(4, 0).generator
        x = gen.standard_normal((500, 3)) * 1e6  # large values stress the summation
        mean_a, cov_a = sample_mean_cov(x)
        perm = gen.permutation(500)
        mean_b, cov_b = sample_mean_cov(x[perm])
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(cov_a.entries, cov_b.entries)

    def test_bits_equal_fsum_over_array(self):
        # heavy tails over 16 decades: exact summation of the same terms
        gen = RngStream(5, 0).generator
        x = gen.standard_t(1.5, size=(3000, 3)) * 10.0 ** gen.integers(-8, 8, size=(3000, 3))
        mean, cov = sample_mean_cov(x)
        ref_mean = np.array([math.fsum(x[:, j]) for j in range(3)]) / 3000
        assert mean.tobytes() == ref_mean.tobytes()
        centered = x - ref_mean
        for i in range(3):
            for j in range(3):
                ref = math.fsum(centered[:, i] * centered[:, j]) / 2999
                assert cov.entries[i, j].tobytes() == np.float64(ref).tobytes()

    def test_rejects_single_row(self):
        with pytest.raises(DomainError):
            sample_mean_cov([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            as_sample_matrix([[1.0, np.inf], [0.0, 1.0]])


class TestMahalanobis:
    def test_zero_at_center(self):
        spd = SymPDMatrix([[4.0, 2.0], [2.0, 5.0]])
        assert mahalanobis_sq([1.5, -2.0], [1.5, -2.0], spd) == 0.0

    def test_identity_matrix(self):
        assert mahalanobis_sq([1.0, 0.0], [0.0, 0.0], SymPDMatrix.identity(2)) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_diagonal_scaling(self):
        spd = SymPDMatrix(np.diag([4.0, 1.0]))
        assert mahalanobis_sq([2.0, 0.0], [0.0, 0.0], spd) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            mahalanobis_sq([1.0, 2.0, 3.0], [0.0, 0.0], SymPDMatrix.identity(2))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=2))
    def test_nonnegative(self, point):
        spd = SymPDMatrix([[2.0, 0.7], [0.7, 1.0]])
        assert mahalanobis_sq(point, [0.3, -0.4], spd) >= 0.0

    def test_positive_away_from_center(self):
        spd = SymPDMatrix([[2.0, 0.7], [0.7, 1.0]])
        assert mahalanobis_sq([1.0, 1.0], [0.0, 0.0], spd) > 0.0
