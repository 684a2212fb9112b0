import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgof.distributions import GGParams, QGaussianParams, gg_variance_scale, qgauss_covariance_factor
from tsgof.entropy import check_consistency_conditions, knn_bias_constant
from tsgof.errors import DomainError
from tsgof.linalg import SymPDMatrix
from tsgof.mathcore import RngStream, content_index, exact_sums, unit_ball_volume

# every parameter that must be a positive integer, as (name in the message, call)
POSITIVE_INTEGER_SITES = {
    "GGParams.m": ("dimension", lambda v: GGParams(m=v, s=2.0)),
    "QGaussianParams.m": ("dimension", lambda v: QGaussianParams(m=v, q=0.5)),
    "gg_variance_scale.m": ("dimension", lambda v: gg_variance_scale(v, 2.0)),
    "qgauss_covariance_factor.m": ("dimension", lambda v: qgauss_covariance_factor(v, 0.5)),
    "knn_bias_constant.k": ("k", lambda v: knn_bias_constant(v, 0.5)),
    "check_consistency_conditions.m": (
        "dimension", lambda v: check_consistency_conditions(math.inf, v, 0.5, 1)),
    "check_consistency_conditions.k": (
        "k", lambda v: check_consistency_conditions(math.inf, 1, 0.5, v)),
    "SymPDMatrix.identity.m": ("dimension", SymPDMatrix.identity),
    "unit_ball_volume.m": ("dimension", unit_ball_volume),
}


@pytest.mark.parametrize("site", sorted(POSITIVE_INTEGER_SITES))
@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_positive_integer_rule_refuses_with_one_message(site, bad):
    name, call = POSITIVE_INTEGER_SITES[site]
    with pytest.raises(DomainError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be a positive integer, got {bad!r}"


def test_positive_integer_rule_coerces_an_integral_dimension():
    assert type(GGParams(m=2.0, s=2.0).m) is int
    assert type(QGaussianParams(m=np.int64(3), q=0.5).m) is int
    assert SymPDMatrix.identity(2.0).dim == 2


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_recurrence(self):
        for m in range(3, 31):
            expected = unit_ball_volume(m - 2) * 2.0 * math.pi / m
            assert unit_ball_volume(m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            unit_ball_volume(bad)

    def test_last_dimension_before_underflow_keeps_its_subnormal_value(self):
        assert unit_ball_volume(452) == 1e-323  # the subnormal 2 * 2**-1074

    @pytest.mark.parametrize("m", [453, 1500])
    def test_underflow_to_zero_is_refused(self, m):
        message = f"^the volume of the unit ball in R\\^{m} underflows float64$"
        with pytest.raises(DomainError, match=message):
            unit_ball_volume(m)


class TestRngStream:
    def test_equal_identifiers_reproduce_bitwise(self):
        a = RngStream(123456789, 42)
        b = RngStream(123456789, 42)
        assert np.array_equal(a.generator.random(1000), b.generator.random(1000))

    def test_distinct_indices_differ(self):
        a = RngStream(1, 0).generator.random(100)
        b = RngStream(1, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_call_sequence_matters_only_through_state(self):
        a = RngStream(9, 9)
        first = a.generator.standard_normal(5)
        b = RngStream(9, 9)
        assert np.array_equal(first, b.generator.standard_normal(5))

    def test_child_streams_deterministic_and_distinct(self):
        parent = RngStream(77, 3)
        c0 = parent.child(0).generator.random(50)
        c0_again = RngStream(77, 3).child(0).generator.random(50)
        c1 = RngStream(77, 3).child(1).generator.random(50)
        assert np.array_equal(c0, c0_again)
        assert not np.array_equal(c0, c1)

    def test_bad_identifiers(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(0, 2**64)


class TestContentIndex:
    def test_pinned_value(self):
        # the stream layout: a change here changes result bytes and needs a
        # harness.STREAM_LAYOUT bump
        assert content_index("t1", 1.2, 2, 100, 7) == 12022227510290988258

    def test_every_part_matters(self):
        base = ("t1", 1.2, 2, 100, 7)
        variants = [
            ("t2", 1.2, 2, 100, 7),
            ("t1", float(np.nextafter(1.2, 2.0)), 2, 100, 7),
            ("t1", 1.2, 3, 100, 7),
            ("t1", 1.2, 2, 101, 7),
            ("t1", 1.2, 2, 100, 8),
            ("t1", 1.2, 2, 7, 100),  # order of parts matters too
        ]
        indices = {content_index(*parts) for parts in [base] + variants}
        assert len(indices) == len(variants) + 1
        assert all(0 <= i < 2**64 for i in indices)


# a float with a 54-bit signed integer significand and any exponent from the
# subnormal range to about 1e300
SPREAD = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1074, 944))


@st.composite
def row_of(draw, width):
    kind = draw(st.sampled_from(
        ["spread", "one scale", "cancel", "tie", "zeros", "negative zeros", "special",
         "overflow"]))
    if kind == "spread":
        return draw(st.lists(SPREAD, min_size=width, max_size=width))
    if kind == "one scale":  # full 53-bit significands of one binade, whose sums carry
        scale = draw(st.integers(-1074, 944))
        significand = st.integers(2**52, 2**53 - 1) | st.integers(-(2**53) + 1, -(2**52))
        return [math.ldexp(v, scale) for v in draw(
            st.lists(significand, min_size=width, max_size=width))]
    if kind == "cancel":  # exact cancellation pairs, and what is left of them
        half = draw(st.lists(SPREAD, min_size=width // 2, max_size=width // 2))
        rest = draw(st.lists(SPREAD, min_size=width % 2, max_size=width % 2))
        return half + [-v for v in half] + rest
    if kind == "tie":  # the exact sum lies halfway between two floats, or next to it
        scale = draw(st.integers(-1000, 900))
        nudge = draw(st.sampled_from([0.0, 2.0**-140, -(2.0**-140)]))
        values = [math.ldexp(1.0, scale), math.ldexp(1.0, scale - 53), math.ldexp(nudge, scale)]
        values += [0.0] * max(0, width - 3)
        return draw(st.permutations(values))[:width] if width >= 3 else values[:width]
    if kind == "zeros":
        return [draw(st.sampled_from([0.0, -0.0])) for _ in range(width)]
    if kind == "negative zeros":
        return [-0.0] * width
    if kind == "special":
        row = draw(st.lists(SPREAD, min_size=width, max_size=width))
        if row:
            row[draw(st.integers(0, width - 1))] = draw(
                st.sampled_from([math.inf, -math.inf, math.nan]))
        return row
    return [1.7e308] * width  # overflows in fsum from two entries on


@st.composite
def row_matrices(draw):
    width = draw(st.integers(0, 40))
    listed = draw(st.lists(row_of(width), min_size=1, max_size=6))
    rows = np.array(listed, dtype=float).reshape(len(listed), width)
    layout = draw(st.sampled_from(["contiguous", "column major", "every other column"]))
    if layout == "column major":
        return np.asfortranarray(rows)
    if layout == "every other column":
        wide = np.zeros((rows.shape[0], 2 * width))
        wide[:, ::2] = rows
        return wide[:, ::2]
    return rows


class TestExactSums:
    @settings(deadline=None)
    @given(row_matrices())
    def test_bits_and_errors_equal_fsum_per_row(self, rows):
        try:
            expected = [math.fsum(row.tolist()) for row in rows]
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                exact_sums(rows)
            return
        got = exact_sums(rows)
        assert got.shape == (rows.shape[0],)
        assert got.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()

    def test_zero_signs_and_empty_rows(self):
        rows = np.array([[-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [2.0**-1074, -(2.0**-1074)]])
        got = exact_sums(rows)
        assert [math.copysign(1.0, v) for v in got] == [
            math.copysign(1.0, math.fsum(row.tolist())) for row in rows]
        assert exact_sums(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]

    def test_rejects_non_matrix(self):
        with pytest.raises(DomainError, match="2-D"):
            exact_sums(np.ones(4))
