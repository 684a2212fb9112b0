import math
from pathlib import Path

import numpy as np
import pytest

from tsgof.errors import DomainError
from tsgof.mathcore import (
    RngStream,
    content_index,
    draw_gamma,
    log_gamma,
    unit_ball_volume,
)

DATA = Path(__file__).parent / "data"


def load_loggamma_table():
    rows = []
    for line in (DATA / "loggamma_reference.csv").read_text().splitlines()[1:]:
        x, value = line.split(",")
        rows.append((float(x), float(value)))
    return rows


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_against_high_precision_table(self):
        for x, expected in load_loggamma_table():
            got = log_gamma(x)
            if expected == 0.0:
                assert abs(got) < 1e-12
            else:
                assert abs(got - expected) / abs(expected) <= 1e-12, f"x={x}"

    def test_recurrence(self):
        for x in np.linspace(0.5, 100.0, 200):
            assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


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


class TestDraws:
    def test_gamma_mean_matches_shape(self):
        g = draw_gamma(RngStream(6, 0), 3.0, size=1_000_000)
        assert abs(g.mean() - 3.0) <= 0.02

    def test_gamma_boosted_small_shape(self):
        g = draw_gamma(RngStream(7, 0), 0.5, size=1_000_000)
        assert abs(g.mean() - 0.5) <= 0.01
        assert abs(g.var() - 0.5) <= 0.02

    def test_gamma_scalar(self):
        value = draw_gamma(RngStream(8, 0), 2.5)
        assert isinstance(value, float) and value > 0

    def test_domain_errors(self):
        rng = RngStream(0)
        with pytest.raises(DomainError):
            draw_gamma(rng, 0.0)
