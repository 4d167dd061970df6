from hypothesis import given
from hypothesis import strategies as st

from lumigather.geometry import pt
from lumigather.patterns import classify_line

A, B, S = frozenset("A"), frozenset("B"), frozenset("S")


class TestClassifyLine:
    def test_three_s_stations(self):
        cc = classify_line({pt(0, 0): {"S"}, pt(2, 0): {"S"}, pt(5, 0): {"S"}})
        assert cc.factors == (S, S, S)
        assert cc.span_sq() == 25
        assert cc.counts == {"S": 3}

    def test_exact_midpoint(self):
        cc = classify_line({pt(0, 0): {"A"}, pt(2, 0): {"B"}, pt(4, 0): {"A"}})
        assert cc.has_exact_midpoint
        assert cc.factors == (A, B, A)

    def test_off_midpoint_not_m(self):
        cc = classify_line({pt(0, 0): {"A"}, pt(3, 0): {"B"}, pt(4, 0): {"A"}})
        assert not cc.has_exact_midpoint
        assert cc.factors == (A, B, A)

    def test_reversal_canonical(self):
        cc = classify_line({pt(0, 0): {"A"}, pt(3, 0): {"B"}, pt(4, 0): {"B"}})
        assert cc.factors == (A, B, B)
        # the station order does not depend on the order the points are given in
        assert classify_line({pt(4, 0): {"B"}, pt(3, 0): {"B"}, pt(0, 0): {"A"}}) == cc

    def test_single_station(self):
        cc = classify_line({pt(1, 1): {"E"}})
        assert cc.endpoint_left == cc.endpoint_right == pt(1, 1)
        assert cc.factors == (frozenset("E"),)
        assert len(cc.stations) == 1

    def test_left_endpoint_is_lex_smaller(self):
        cc = classify_line({pt(5, 0): {"S"}, pt(-1, 0): {"S"}})
        assert cc.endpoint_left == pt(-1, 0)

    def test_vertical_line(self):
        cc = classify_line({pt(0, 0): {"S"}, pt(0, 3): {"M"}, pt(0, 7): {"S"}})
        assert [f for _, f in cc.stations] == [{"S"}, {"M"}, {"S"}]

    def test_counts_by_point_presence(self):
        cc = classify_line({pt(0, 0): {"A", "B"}, pt(2, 0): {"B"}})
        assert cc.counts == {"A": 1, "B": 2}


# -- properties --------------------------------------------------------------

_COLORS = ("S", "M", "E")


@st.composite
def station_lists(draw):
    k = draw(st.integers(1, 5))
    xs = sorted(draw(st.sets(st.integers(0, 40), min_size=k, max_size=k)))
    stations = {}
    for x in xs:
        cols = draw(st.sets(st.sampled_from(_COLORS), min_size=1, max_size=2))
        stations[pt(x, 0)] = cols
    return stations


@given(station_lists())
def test_counts_consistency(stations):
    cc = classify_line(stations)
    for color, count in cc.counts.items():
        assert count == sum(1 for _, f in cc.stations if color in f)
    for _, f in cc.stations:
        for c in f:
            assert cc.counts[c] >= 1
