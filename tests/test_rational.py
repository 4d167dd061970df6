from fractions import Fraction

import pytest

from lumigather.rational import (
    Rat,
    format_rat,
    min_rat_ge_sqrt,
    parse_rat,
    sqrt_exact,
    sqrt_interval,
)


def test_rat_is_fraction():
    assert Rat is Fraction


def test_parse_and_format_roundtrip():
    assert parse_rat("3/4") == Rat(3, 4)
    assert parse_rat("-7") == Rat(-7)
    assert parse_rat("6/4") == Rat(3, 2)
    assert format_rat(Rat(5)) == "5/1"
    assert format_rat(Rat(-3, 6)) == "-1/2"


@pytest.mark.parametrize("bad", ["1/0", "x", "", "1/2/3", "1.5"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_sqrt_exact():
    assert sqrt_exact(Rat(4, 9)) == Rat(2, 3)
    assert sqrt_exact(Rat(0)) == 0
    assert sqrt_exact(Rat(2)) is None
    assert sqrt_exact(Rat(1, 3)) is None


def test_sqrt_interval_encloses_and_tightens():
    for x in (Rat(2), Rat(5, 7), Rat(10007, 3)):
        lo64, hi64 = sqrt_interval(x, 64)
        lo256, hi256 = sqrt_interval(x, 256)
        assert lo64 * lo64 <= x <= hi64 * hi64
        assert lo64 <= lo256 <= hi256 <= hi64
        assert hi256 - lo256 < hi64 - lo64


def test_min_rat_ge_sqrt_exact_cases():
    assert min_rat_ge_sqrt(Rat(1, 100)) == Rat(1, 10)
    assert min_rat_ge_sqrt(Rat(1)) == 1
    assert min_rat_ge_sqrt(Rat(0)) == 0


def test_min_rat_ge_sqrt_irrational_bound():
    for x in (Rat(1, 2), Rat(2, 3), Rat(99, 100)):
        lam = min_rat_ge_sqrt(x)
        assert lam * lam >= x
        assert lam <= 1
        assert (lam - Rat(1, 64)) ** 2 < x  # within one 1/64 step of the root
