import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cholesky_reference, log_det_reference
from tsgof.errors import DomainError, NotPositiveDefiniteError
from tsgof.linalg import (
    SymPDMatrix,
    as_sample_matrix,
    cholesky,
    log_det,
    sample_moments,
)
from tsgof.mathcore import RngStream


@st.composite
def spd_stacks(draw):
    """A (B, m, m) stack of Gram matrices, m 1-5 and B 1-17, columns scaled
    over several decades, and the indices of up to three of them given a
    zero row and column, so that their Cholesky fails."""
    m = draw(st.integers(1, 5))
    b = draw(st.integers(1, 17))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.standard_normal((b, m + 3, m)) * 10.0 ** gen.integers(-3, 4, size=(b, 1, m))
    stack = x.transpose(0, 2, 1) @ x
    stack = stack + stack.transpose(0, 2, 1)  # exactly symmetric
    deficient = draw(st.lists(st.integers(0, b - 1), max_size=3, unique=True))
    for index in deficient:
        r = draw(st.integers(0, m - 1))
        stack[index, r, :] = 0.0
        stack[index, :, r] = 0.0
    return stack, deficient


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

    def test_error_survives_pickling(self):
        # how a pool worker's error reaches the parent process
        error = pickle.loads(pickle.dumps(NotPositiveDefiniteError(2)))
        assert type(error) is NotPositiveDefiniteError and error.pivot_index == 2
        assert str(error) == "matrix is not positive definite (pivot 2 <= 0)"

    def test_random_spd_roundtrip(self):
        gen = RngStream(1, 0).generator
        for m in (2, 3, 5, 8):
            a = gen.standard_normal((m, m))
            spd = a @ a.T + m * np.eye(m)
            lower = cholesky(spd)
            frob = np.linalg.norm(lower @ lower.T - spd) / np.linalg.norm(spd)
            assert frob <= 1e-10


class TestStackedCholesky:
    @settings(deadline=None)
    @given(spd_stacks())
    def test_bits_equal_one_matrix_reference(self, case):
        stack, deficient = case
        failing = {}
        for index, a in enumerate(stack):
            try:
                cholesky_reference(a)
            except NotPositiveDefiniteError as alone:
                failing[index] = alone.pivot_index
        assert set(deficient) <= set(failing)
        if failing:
            # the stack fails at the smallest pivot where a matrix fails alone
            for function in (cholesky, log_det):
                with pytest.raises(NotPositiveDefiniteError) as err:
                    function(stack)
                assert err.value.pivot_index == min(failing.values())
            return
        lower = cholesky(stack)
        log_dets = log_det(stack)
        assert lower.shape == stack.shape and log_dets.shape == stack.shape[:1]
        for a, factor, value in zip(stack, lower, log_dets):
            assert factor.tobytes() == cholesky_reference(a).tobytes()
            assert value.tobytes() == np.float64(log_det_reference(a)).tobytes()

    def test_one_matrix_gives_a_float(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        assert type(log_det(a)) is float
        assert log_det(a) == log_det_reference(a)
        assert log_det(a[None, None]).shape == (1, 1)

    def test_rejects_non_square_stack(self):
        with pytest.raises(DomainError):
            cholesky(np.ones((3, 2, 3)))


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

    def test_non_pd_raises_at_construction(self):
        with pytest.raises(NotPositiveDefiniteError):
            SymPDMatrix(np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            SymPDMatrix(np.ones((2, 2)))

    def test_rejects_stack(self):
        with pytest.raises(DomainError):
            SymPDMatrix(np.ones((2, 2, 2)))

    def test_entries_read_only(self):
        spd = SymPDMatrix(np.eye(2))
        with pytest.raises(ValueError):
            spd.entries[0, 0] = 3.0


class TestSampleMeanCov:
    def test_two_point_hand_example(self):
        mean, cov = sample_moments(np.array([[[0.0, 0.0], [2.0, 2.0]]]))
        assert np.array_equal(mean, [[1.0, 1.0]])
        assert np.array_equal(cov, [[[2.0, 2.0], [2.0, 2.0]]])

    def test_constant_rows_give_zero_covariance(self):
        _, cov = sample_moments(np.ones((1, 10, 2)) * 3.5)
        assert np.array_equal(cov, np.zeros((1, 2, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(cov)

    def test_large_normal_sample_near_identity(self):
        x = RngStream(3, 0).generator.standard_normal((100_000, 2))
        _, cov = sample_moments(x[None])
        assert np.all(np.abs(cov[0] - np.eye(2)) < 0.05)

    def test_row_permutation_exact(self):
        gen = RngStream(4, 0).generator
        x = gen.standard_normal((500, 3)) * 1e6  # large values stress the summation
        mean_a, cov_a = sample_moments(x[None])
        perm = gen.permutation(500)
        mean_b, cov_b = sample_moments(x[perm][None])
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(cov_a, cov_b)

    def test_bits_equal_fsum_over_array(self):
        # heavy tails over 16 decades: exact summation of the same terms
        gen = RngStream(5, 0).generator
        x = gen.standard_t(1.5, size=(3000, 3)) * 10.0 ** gen.integers(-8, 8, size=(3000, 3))
        mean, cov = sample_moments(x[None])
        ref_mean = np.array([math.fsum(x[:, j]) for j in range(3)]) / 3000
        assert mean[0].tobytes() == ref_mean.tobytes()
        centered = x - ref_mean
        for i in range(3):
            for j in range(3):
                ref = math.fsum(centered[:, i] * centered[:, j]) / 2999
                assert cov[0, i, j].tobytes() == np.float64(ref).tobytes()

    def test_rejects_single_row(self):
        with pytest.raises(DomainError):
            sample_moments(np.array([[[1.0, 2.0]]]))

    def test_rejects_single_row_samples_in_a_stack(self):
        # B one-row samples must not pass as one sample of B rows
        with pytest.raises(DomainError, match="at least 2 rows"):
            sample_moments(np.array([[[1.0, 2.0]], [[3.0, 5.0]]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            as_sample_matrix([[1.0, np.inf], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "rows, cause",
        [
            # a column sum past float64: math.fsum raised OverflowError
            ([[1.7e308, 1.0], [1.6e308, 2.0], [1.5e308, 0.0]], "intermediate overflow in fsum"),
            # an inf and a -inf covariance product: math.fsum raised ValueError
            ([[1e300, 1e300], [1.0, 0.0], [1e300, 2.5], [0.5, 0.5]],
             "a covariance product is not finite"),
            # a squared deviation past float64: inf covariance and a RuntimeWarning
            ([[1e300, 0.0], [0.5, 1.0], [-1.0, 3.0]], "a covariance product is not finite"),
        ],
        ids=["sum", "mixed-products", "square"],
    )
    def test_overflow_is_a_domain_error_without_a_warning(self, rows, cause):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError) as err:
                sample_moments(np.array([rows]))
        assert str(err.value) == f"sample moments overflow float64: {cause}"
        assert caught == []
