"""Tests of the benchmark's own metric arithmetic (no package import)."""

import statistics

import pytest

import benchmath
import hostref


def _span(start, end, parent=None):
    return {"name": "x", "tag": "", "start": start, "end": end, "parent": parent, "run": "r"}


class TestSelfTimes:
    def test_leaf_self_time_is_its_duration(self):
        assert benchmath.self_times([_span(1.0, 3.5)]) == [2.5]

    def test_children_are_subtracted_from_the_parent_only(self):
        spans = [_span(0.0, 10.0), _span(1.0, 3.0, 0), _span(4.0, 8.0, 0), _span(5.0, 6.0, 2)]
        assert benchmath.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [_span(0.0, 10.0), _span(1.0, 5.0, 0), _span(3.0, 7.0, 0)]
        assert benchmath.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_outside_the_parent_is_clipped(self):
        spans = [_span(0.0, 4.0), _span(3.0, 6.0, 0)]
        assert benchmath.self_times(spans)[0] == pytest.approx(3.0)


class TestP50:
    def test_odd_count_is_middle_value(self):
        assert benchmath.p50([5.0, 1.0, 3.0]) == 3.0

    def test_even_count_averages_middle_pair(self):
        assert benchmath.p50([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_accepts_a_generator(self):
        assert benchmath.p50(x for x in (2.0, 8.0, 4.0)) == 4.0

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            benchmath.p50([])


class TestCoverage:
    def test_share_of_wall_time(self):
        assert benchmath.coverage([1.0, 2.0, 0.5], 7.0) == pytest.approx(0.5)

    def test_replay_may_exceed_the_wall_time(self):
        assert benchmath.coverage([93.0], 74.5) > 1.0

    def test_needs_positive_wall_time(self):
        with pytest.raises(ValueError):
            benchmath.coverage([1.0], 0.0)


class TestFailedShare:
    def test_ratio(self):
        assert benchmath.failed_share(3, 12) == 0.25

    def test_no_failures_is_zero(self):
        assert benchmath.failed_share(0, 39) == 0.0

    @pytest.mark.parametrize("failed, attempted", [(0, 0), (5, 4), (-1, 3)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            benchmath.failed_share(failed, attempted)


class TestSlug:
    @pytest.mark.parametrize("name, expect", [
        ("Z j=1 k=2/A n=5 d=3", "Z-j1-k2.A-n5-d3"),
        ("face-prob/B n=3 d=2 idx=1", "face-prob.B-n3-d2-idx1"),
        ("U1 conditioned/A n=4 d=2", "U1-conditioned.A-n4-d2"),
        ("joint-absorption/walk1+bridge2 d=1", "joint-absorption.walk1-bridge2-d1"),
    ])
    def test_gate_names(self, name, expect):
        assert benchmath.slug(name) == expect


class TestSpread:
    def test_matches_statistics_quantiles(self):
        vals = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 10.6]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        assert benchmath.iqr_share(vals) == pytest.approx((q3 - q1) / statistics.median(vals))


class TestDigest:
    def test_identical_rows_match(self):
        rows = [("a", 0.5, 0.01, 1.2, 0), ("b", 1.0, 0.0, None, 2)]
        assert benchmath.estimate_digest(rows) == benchmath.estimate_digest(list(rows))

    def test_last_bit_of_a_mean_changes_it(self):
        a = [("a", 0.5, 0.01, 1.2, 0)]
        b = [("a", 0.5 + 2 ** -53, 0.01, 1.2, 0)]
        assert benchmath.estimate_digest(a) != benchmath.estimate_digest(b)


class TestHostScale:
    def test_reference_speed_gives_one(self):
        assert hostref.host_scale([hostref.REF_UNIT_S] * 3) == pytest.approx(1.0)

    def test_slow_host_scales_times_down(self):
        unit = hostref.REF_UNIT_S
        assert hostref.host_scale([unit, 2 * unit, 3 * unit]) == pytest.approx(0.5)

    def test_needs_reference_times(self):
        with pytest.raises(ValueError):
            hostref.host_scale([])
