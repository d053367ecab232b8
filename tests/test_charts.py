from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflip import (
    CyclicQuotientChart,
    IndexOutOfRange,
    TooLargeGroup,
    WeightSequence,
    atlas_report,
    is_small,
    minus_chart,
    normal_form,
    normalize,
    plus_chart,
    y_chart,
)


def seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


well_formed_sequences = st.tuples(
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
).map(
    lambda ab: normalize(WeightSequence(tuple(ab[0]), tuple(ab[1]))).output
)


class TestMinusChart:
    def test_half_point(self):
        chart = minus_chart(seq("1,2;1,1,1"), 2)
        assert chart.group_orders == (2,)
        assert chart.weight_rows == ((1, 1, 1, 1),)

    def test_trivial_chart(self):
        assert minus_chart(seq("1,1;1,1"), 1).is_trivial()

    def test_one_fifth_chart(self):
        chart = minus_chart(seq("1,5;2,3"), 2)
        assert chart.group_orders == (5,)
        assert chart.weight_rows == ((4, 2, 3),)
        assert normal_form(5, chart.weight_rows[0]).weights == (1, 2, 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            minus_chart(seq("1,1;1,1"), 3)


class TestYChart:
    def test_a1_locus(self):
        chart = y_chart(seq("1,2;1,1,1"), 2, 1)
        assert chart.group_orders == (2, 1)
        assert chart.weight_rows[0] == (1, 1, 0, 0)

    def test_trivial(self):
        assert y_chart(seq("1,1;1,1"), 1, 1).is_trivial()

    def test_mixed_orders(self):
        chart = y_chart(seq("1,5;2,3"), 2, 1)
        assert chart.group_orders == (5, 2)
        assert chart.weight_rows == ((4, 1, 0), (0, 1, 1))

    def test_order_divides_product(self):
        s = seq("1,5;2,3")
        for i in range(1, s.m + 1):
            for j in range(1, s.n + 1):
                chart = y_chart(s, i, j)
                assert (s.a[i - 1] * s.b[j - 1]) % chart.order == 0


class TestSmallness:
    def test_half_point_is_small(self):
        assert is_small(minus_chart(seq("1,2;1,1,1"), 2))

    def test_reflection_is_not_small(self):
        reflection = CyclicQuotientChart(3, (2,), ((1, 0, 0),))
        assert not is_small(reflection)

    def test_one_fifth_is_small(self):
        assert is_small(CyclicQuotientChart(3, (5,), ((4, 2, 3),)))

    def test_enumeration_cap(self):
        huge = CyclicQuotientChart(2, (10**6 + 1,), ((1, 1),))
        with pytest.raises(TooLargeGroup):
            is_small(huge)

    @settings(max_examples=40, deadline=None)
    @given(well_formed_sequences)
    def test_all_charts_small_for_well_formed(self, s):
        for entry in atlas_report(s):
            assert entry.small, (s, entry.label())


    def test_atlas_checks_every_order_before_any_chart_loop(self, monkeypatch):
        # The second plus chart and the Y charts are over the cap; no chart,
        # small or not, may reach normal_form or is_small first.
        import orbiflip.charts as charts

        def forbidden(*args):
            raise AssertionError("per-chart loop ran before the order check")

        monkeypatch.setattr(charts, "normal_form", forbidden)
        monkeypatch.setattr(charts, "is_small", forbidden)
        with pytest.raises(TooLargeGroup, match="group order 1000003 exceeds"):
            atlas_report(seq("1,1;1,1000003"))


class TestPlusChartSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(well_formed_sequences)
    def test_plus_equals_swapped_minus(self, s):
        for j in range(1, s.n + 1):
            assert plus_chart(s, j) == minus_chart(s.swap(), j)


class TestAtlas:
    def test_francia_flop_atlas(self):
        entries = atlas_report(seq("1,2;1,1,1"))
        minus_sing = [
            e for e in entries if e.space == "minus" and not e.chart.is_trivial()
        ]
        assert [e.index for e in minus_sing] == [(2,)]
        assert minus_sing[0].chart.weight_rows == ((1, 1, 1, 1),)
        assert all(
            e.chart.is_trivial() for e in entries if e.space == "plus"
        ), "X+ must be smooth"
        y_sing = [e for e in entries if e.space == "Y" and not e.chart.is_trivial()]
        assert [e.index for e in y_sing] == [(2, 1), (2, 2), (2, 3)]
        for e in y_sing:
            forms = [nf for nf in e.normal_forms if nf.order > 1]
            assert [nf.weights for nf in forms] == [(0, 0, 1, 1)], "A_1 type"
        assert all(e.small for e in entries)

    def test_atiyah_atlas_smooth(self):
        assert all(e.chart.is_trivial() for e in atlas_report(seq("1,1;1,1")))

    def test_one_fifth_normal_form(self):
        entries = atlas_report(seq("1,5;2,3"))
        chart2 = next(e for e in entries if e.space == "minus" and e.index == (2,))
        assert chart2.normal_forms[0].render() == "1/5(1,2,3)"
