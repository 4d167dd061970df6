import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lumigather.configuration import Configuration, canonical
from lumigather.geometry import Classification, Point
from lumigather.potentials import (
    Cmp,
    INF,
    R0,
    SqrtSum,
    ZERO_VEC,
    _canonical_form,
    _root_sum,
    compare_values,
    lex_less,
    potential_f,
    potential_g,
    serialize_potential,
    sqrt_sum,
)
from lumigather.rational import Rat

from conftest import make_config
from test_geometry import (
    collinear_inputs,
    denominators,
    lattice_inputs,
    ref_center,
    ref_dist_sq,
    ref_hull,
    ref_on_segment,
    ref_selected_min_edges,
)


def approx(value, bits=64):
    """Float midpoint of a potential entry, for oracle comparisons."""
    if isinstance(value, SqrtSum):
        lo, hi = value.interval(bits)
        return (float(lo) + float(hi)) / 2
    return float(value)


class TestPotentialF:
    def test_collinear_is_zero_vector(self):
        c = make_config([((0, 0), "O"), ((3, 0), "O"), ((7, 0), "O")])
        assert potential_f(c) == ZERO_VEC

    def test_unit_square_vertices(self):
        c = make_config([((0, 0), "O"), ((1, 0), "O"), ((1, 1), "O"), ((0, 1), "O")])
        f = potential_f(c)
        assert f[0] == 1
        assert f[2] == 0 and f[3] == 0 and f[4] == 0
        assert abs(approx(f[1]) - 4 * math.sqrt(2) / 2) < 1e-12

    def test_rectangle_with_inside_robot(self):
        pts = [((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O"), ((2, (1, 2)), "O")]
        c = make_config(pts)
        f = potential_f(c)
        assert f[0] == 4
        assert f[1] == 0
        assert f[2] == 1
        # oracle: walk start excludes far endpoints of both contraction edges
        # (0,0) and (4,1); rightmost-topmost of the rest is (4,0); CCW ring
        # (4,0),(4,1),(0,1),(0,0) gives walk distances 0,1,5,6.
        assert approx(f[3]) == pytest.approx(0 + 1 + 5 + 6, abs=1e-12)
        assert approx(f[4]) == pytest.approx(math.sqrt(4 + 0.25), abs=1e-12)

    def test_symmetric_exclusions(self):
        c = make_config([((0, 0), "O"), ((2, 0), "O"), ((2, 2), "O"), ((0, 2), "O"), ((1, 0), "O")])
        f = potential_f(c)
        assert f[2] == 0 and f[3] == 0 and f[4] == 0  # symmetric: only f1, f2 live
        assert approx(f[1]) > 0

    def test_asymmetric_excludes_center_sum(self):
        c = make_config([((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O")])
        f = potential_f(c)
        assert f[1] == 0

    def test_inside_count_is_per_robot(self):
        pts = [((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O")]
        two_inside = pts + [((2, (1, 2)), "O"), ((2, (1, 2)), "O")]
        assert potential_f(make_config(two_inside))[2] == 2

    def test_walk_sum_counts_robots_not_locations(self):
        pts = [((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O")]
        doubled = pts + [((0, 1), "O")]
        f1 = potential_f(make_config(pts))
        f2 = potential_f(make_config(doubled))
        assert approx(f2[3]) > approx(f1[3])


class TestPotentialG:
    def test_gathered_with_one_a(self):
        c = make_config([((2, 2), "A"), ((2, 2), "B"), ((2, 2), "B")])
        g = potential_g(c)
        assert g[0] == 0

    def test_two_a_points(self):
        c = make_config([((0, 0), "A"), ((4, 0), "A")])
        assert potential_g(c) == (INF, 4, 4, 0, 0)

    def test_three_a_points(self):
        c = make_config([((0, 0), "A"), ((1, 0), "A"), ((3, 0), "A")])
        g = potential_g(c)
        assert g[:4] == (INF, INF, INF, INF)
        assert g[4] == 1  # nearest-endpoint distances 0, 1, 0

    def test_zero_a_points(self):
        c = make_config([((0, 0), "B"), ((6, 0), "B"), ((2, 0), "B")])
        g = potential_g(c)
        assert g[0] == INF
        assert g[1] == 6
        assert approx(g[2]) == pytest.approx(3 + 3 + 1, abs=1e-12)
        assert g[3] == 3

    def test_single_a_sum_over_robots(self):
        c = make_config([((0, 0), "A"), ((3, 0), "B"), ((3, 0), "B")])
        assert potential_g(c)[0] == 6

    def test_non_collinear_rejected(self):
        with pytest.raises(ValueError):
            potential_g(make_config([((0, 0), "A"), ((1, 0), "A"), ((0, 1), "A")]))


class TestLexLess:
    def test_first_entry_decides(self):
        assert lex_less(ZERO_VEC, (Rat(1), 0, 0, 0, 0)) is Cmp.LESS

    def test_inf_ties_fall_through(self):
        a = (INF, Rat(4), Rat(1), 0, 0)
        b = (INF, Rat(4), Rat(2), 0, 0)
        assert lex_less(a, b) is Cmp.LESS
        assert lex_less(b, a) is Cmp.GREATER

    def test_inf_greater_than_finite(self):
        assert lex_less((Rat(10) ** 9, 0, 0, 0, 0), (INF, 0, 0, 0, 0)) is Cmp.LESS

    def test_equal_vectors(self):
        v = (INF, sqrt_sum([Rat(2)]), 0, 0, 0)
        assert lex_less(v, (INF, sqrt_sum([Rat(2)]), 0, 0, 0)) is Cmp.EQUAL

    def test_identical_radicand_multisets_compare_exactly(self):
        a = sqrt_sum([Rat(2), Rat(2)])
        b = sqrt_sum([Rat(2), Rat(2)])
        assert compare_values(a, b) is Cmp.EQUAL

    def test_squarefree_canonicalization_detects_equality(self):
        assert compare_values(sqrt_sum([Rat(8)]), sqrt_sum([Rat(2), Rat(2)])) is Cmp.EQUAL
        assert compare_values(sqrt_sum([Rat(18)]), sqrt_sum([Rat(2), Rat(8)])) is Cmp.EQUAL

    def test_sqrt_vs_rational(self):
        assert compare_values(sqrt_sum([Rat(2)]), Rat(3, 2)) is Cmp.LESS
        assert compare_values(sqrt_sum([Rat(2)]), Rat(7, 5)) is Cmp.GREATER

    def test_close_values_separate(self):
        # sqrt(2)+sqrt(3) squared is 5+2*sqrt(6) = 9.8989794...; compare against
        # square roots of rationals just below and just above it
        a = sqrt_sum([Rat(2), Rat(3)])
        assert compare_values(a, sqrt_sum([Rat(9898979, 1000000)])) is Cmp.GREATER
        assert compare_values(a, sqrt_sum([Rat(9898980, 1000000)])) is Cmp.LESS

    def test_exact_part_folding(self):
        v = sqrt_sum([Rat(4), Rat(9, 4)])
        assert v == Rat(7, 2)


class TestSerialization:
    def test_entry_kinds(self):
        out = serialize_potential((INF, Rat(4), sqrt_sum([Rat(2)]), 0, Rat(1, 3)))
        assert out[0] == "inf"
        assert out[1] == "4/1"
        assert isinstance(out[2], list) and len(out[2]) == 2
        assert out[3] == "0/1"
        assert out[4] == "1/3"


rads = st.lists(
    st.fractions(min_value=0, max_value=40, max_denominator=9), min_size=0, max_size=5
)


@given(rads, rads)
def test_enclosure_soundness_widening_never_flips(r1, r2):
    a = sqrt_sum([Rat(f.numerator, f.denominator) for f in r1])
    b = sqrt_sum([Rat(f.numerator, f.denominator) for f in r2])
    coarse = compare_values(a, b)
    assert coarse is not Cmp.UNDECIDED
    # recompute at higher precision via direct intervals when both irrational
    if isinstance(a, SqrtSum) and isinstance(b, SqrtSum):
        alo, ahi = a.interval(2048)
        blo, bhi = b.interval(2048)
        if coarse is Cmp.LESS:
            assert alo < bhi
        elif coarse is Cmp.GREATER:
            assert ahi > blo


@given(rads)
def test_sqrt_sum_interval_contains_float_value(r1):
    v = sqrt_sum([Rat(f.numerator, f.denominator) for f in r1])
    target = sum(math.sqrt(float(f)) for f in r1)
    if isinstance(v, SqrtSum):
        lo, hi = v.interval(64)
        assert float(lo) - 1e-9 <= target <= float(hi) + 1e-9
    else:
        assert abs(float(v) - target) < 1e-9


# -- enclosures on integers against the per-radicand Fraction formula --------


def ref_sqrt_interval(x, bits):
    """``(lo, hi)`` around sqrt(x): sqrt(p/q) = sqrt(p*q)/q, one isqrt at 2*bits."""
    p, q = x.numerator, x.denominator
    if p == 0:
        return R0, R0
    s = math.isqrt((p * q) << (2 * bits))
    return Rat(s, q << bits), Rat(s + 1, q << bits)


def ref_interval(value, bits):
    lo = hi = value.exact
    for r in value.radicands:
        a, b = ref_sqrt_interval(r, bits)
        lo += a
        hi += b
    return lo, hi


def ref_compare_values(a, b):
    """``compare_values`` with every enclosure built per radicand."""
    if a == INF or b == INF:
        if a == INF and b == INF:
            return Cmp.EQUAL
        return Cmp.GREATER if a == INF else Cmp.LESS
    sa, sb = (v if isinstance(v, SqrtSum) else SqrtSum(Rat(v), ()) for v in (a, b))
    if sa.radicands == sb.radicands:
        if sa.exact == sb.exact:
            return Cmp.EQUAL
        return Cmp.LESS if sa.exact < sb.exact else Cmp.GREATER
    for i, bits in enumerate((64, 256, 1024, 4096, 16384)):
        if i == 3:
            ca, cb = _canonical_form(sa), _canonical_form(sb)
            if ca is not None and ca == cb:
                return Cmp.EQUAL
        alo, ahi = ref_interval(sa, bits)
        blo, bhi = ref_interval(sb, bits)
        if ahi < blo:
            return Cmp.LESS
        if alo > bhi:
            return Cmp.GREATER
    return Cmp.UNDECIDED


# radicands of small and wide numerators over mixed, small, prime and wide
# denominators, as sqrt_sum takes them
radicand_numerators = st.one_of(st.integers(0, 9), st.integers(0, 2**80))
mixed_rads = st.lists(st.builds(Rat, radicand_numerators, denominators), min_size=1, max_size=6)


@st.composite
def root_sums(draw):
    """A ``sqrt_sum`` of mixed radicands, a ``_root_sum`` over a shared den**2,
    or a SqrtSum built as it stands, zero and square radicands included."""
    how = draw(st.sampled_from(["sqrt_sum", "root_sum", "as built"]))
    exact = draw(st.builds(Rat, st.integers(0, 2**40), denominators))
    if how == "sqrt_sum":
        return sqrt_sum(draw(mixed_rads), exact)
    if how == "as built":
        return SqrtSum(exact, tuple(draw(mixed_rads)))
    norms = st.one_of(st.integers(0, 200), st.integers(0, 2**90))
    return _root_sum(draw(st.lists(norms, min_size=1, max_size=6)), draw(denominators))


@given(root_sums(), st.sampled_from([64, 256, 4096]))
def test_interval_is_the_per_radicand_sum(value, bits):
    if isinstance(value, SqrtSum):
        assert value.interval(bits) == ref_interval(value, bits)


@st.composite
def compared_pairs(draw):
    """Two distance-sum values; b is often a near or equal rewrite of a."""
    rational = st.builds(Rat, st.integers(0, 50), st.integers(1, 9))
    a = draw(st.one_of(st.just(INF), rational, root_sums()))
    how = draw(st.sampled_from(["free", "shift", "split", "nudge"]))
    if how == "free" or not isinstance(a, SqrtSum):
        return a, draw(st.one_of(st.just(INF), rational, root_sums()))
    if how == "shift":  # the same roots, exact parts 2**-k apart
        step = Rat(draw(st.integers(-1, 1)), 2 ** draw(st.integers(0, 80)))
        return a, SqrtSum(a.exact + step, a.radicands)
    rads = list(a.radicands)
    r = rads.pop(draw(st.integers(0, len(rads) - 1)))
    if how == "split":  # sqrt(r/4) + sqrt(r/4) = sqrt(r): the same value
        return a, sqrt_sum(rads + [r / 4, r / 4], a.exact)
    # one radicand 2**-k larger: a value just above a
    return a, sqrt_sum(rads + [r + Rat(1, 2 ** draw(st.integers(0, 80)))], a.exact)


@given(compared_pairs())
@example((sqrt_sum([Rat(8)]), sqrt_sum([Rat(2), Rat(2)])))  # equal by canonical form
@example((sqrt_sum([Rat(2**61 - 1)]), sqrt_sum([Rat(2**61 - 1, 4)] * 2)))  # undecided
def test_compare_values_decides_as_the_reference(ab):
    a, b = ab
    assert compare_values(a, b) is ref_compare_values(a, b)
    assert compare_values(b, a) is ref_compare_values(b, a)


# -- potentials on the lattice against the Fraction formulas -----------------


def ref_potential_f(config):
    pts = [p for p, _ in config.entries]
    ref = ref_hull(pts)
    if ref is None:
        return ZERO_VEC
    ring, edges, cls = ref
    k = len(ring)
    area = sum(a.x * b.y - b.x * a.y for a, b in zip(ring, ring[1:] + ring[:1])) / 2
    if cls in (Classification.SYM_CONTRACTIBLE, Classification.SYM_NONCONTRACTIBLE):
        center = ref_center(ring)
        return (area, sqrt_sum([ref_dist_sq(center, p) for p in pts]), 0, R0, R0)
    forbidden = {ring[(i + 1) % k] for i in ref_selected_min_edges(edges)}
    v0 = max((v for v in ring if v not in forbidden), key=lambda v: (v.x, v.y))
    s = ring.index(v0)
    walk, walk_edges = ring[s:] + ring[:s], edges[s:] + edges[:s]
    inside = 0
    f4, f5 = [], []
    for p in pts:
        loc, prefix = None, []
        for i in range(k):
            a, b = walk[i], walk[(i + 1) % k]
            if p == a:
                loc = prefix
                break
            if p != b and ref_on_segment(p, a, b):
                loc = prefix + [ref_dist_sq(a, p)]
                break
            prefix.append(walk_edges[i])
        if loc is None:
            inside += 1
        else:
            f4.extend(loc)
        f5.append(min(ref_dist_sq(p, v) for v in ring))
    return (area, R0, inside, sqrt_sum(f4), sqrt_sum(f5))


def ref_potential_g(config):
    robots = config.entries
    pts = sorted({p for p, _ in robots}, key=lambda p: (p.x, p.y))
    left, right = pts[0], pts[-1]
    a_points = [p for p in pts if (p, "A") in robots]
    if len(a_points) == 1:
        return (sqrt_sum([ref_dist_sq(a_points[0], p) for p, _ in robots]), R0, R0, 0, R0)
    if len(a_points) in (0, 2):
        mid = Point((left.x + right.x) / 2, (left.y + right.y) / 2)
        return (
            INF,
            sqrt_sum([ref_dist_sq(left, right)]),
            sqrt_sum([ref_dist_sq(mid, p) for p, _ in robots]),
            sum(1 for _, c in robots if c == "B"),
            R0,
        )
    ends = [min(ref_dist_sq(p, left), ref_dist_sq(p, right)) for p, _ in robots]
    return (INF, INF, INF, INF, sqrt_sum(ends))


@given(lattice_inputs)
def test_potential_f_matches_the_reference(pts):
    cfg = Configuration(canonical((p, "O") for p in pts))
    assert potential_f(cfg) == ref_potential_f(cfg)


@given(collinear_inputs(), st.data())
def test_potential_g_matches_the_reference(pts, data):
    colors = [data.draw(st.sampled_from("AB")) for _ in pts]
    cfg = Configuration(canonical(zip(pts, colors)))
    assert potential_g(cfg) == ref_potential_g(cfg)
