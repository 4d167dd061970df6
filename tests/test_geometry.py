import copy
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lumigather.configuration import ConfigInterner, Configuration, Frame, canonical
from lumigather.geometry import (
    Classification,
    CollinearSignal,
    Point,
    convex_hull,
    dist_sq,
    hull_area_twice,
    hull_center,
    is_contractible,
    is_on_lds,
    is_symmetric,
    midpoint,
    min_edge_targets,
    nearest_vertex,
    on_segment,
    orientation,
    pt,
    toward,
)
from lumigather.rational import Rat, parse_rat

from conftest import edge_lengths_sq, random_frame


class TestConvexHull:
    def test_unit_square(self):
        h = convex_hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
        assert h.vertices == (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))

    def test_collinear_signal(self):
        out = convex_hull([pt(0, 0), pt(1, 0), pt(2, 0)])
        assert isinstance(out, CollinearSignal)

    def test_interior_point_excluded(self):
        h = convex_hull([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 2)])
        assert set(h.vertices) == {pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)}

    def test_all_coincident_is_collinear(self):
        assert isinstance(convex_hull([pt(1, 2), pt(1, 2)]), CollinearSignal)

    def test_duplicates_allowed(self):
        h = convex_hull([pt(0, 0), pt(0, 0), pt(3, 0), pt(0, 3)])
        assert len(h.vertices) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([])


class TestSymmetry:
    def test_unit_square_symmetric(self):
        assert is_symmetric(convex_hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]))

    def test_rectangle_asymmetric(self):
        assert not is_symmetric(convex_hull([pt(0, 0), pt(4, 0), pt(4, 1), pt(0, 1)]))

    def test_rhombus_symmetric(self):
        # every edge length 5 via the 3-4-5 triple
        assert is_symmetric(convex_hull([pt(0, 0), pt(5, 0), pt(8, 4), pt(3, 4)]))


class TestContractible:
    def test_square_vertices_only(self):
        pts = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
        assert is_contractible(pts)

    def test_square_edge_point_not_contractible(self):
        pts = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt((1, 2), 0)]
        assert not is_contractible(pts)

    def test_rectangle_interior_not_contractible(self):
        pts = [pt(0, 0), pt(4, 0), pt(4, 1), pt(0, 1), pt(2, (1, 2))]
        assert not is_contractible(pts)

    def test_rectangle_edge_point_contractible(self):
        pts = [pt(0, 0), pt(4, 0), pt(4, 1), pt(0, 1), pt(2, 0)]
        assert is_contractible(pts)

    def test_symmetric_center_allowed(self):
        pts = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2), pt(1, 1)]
        assert is_contractible(pts)


class TestHullCenter:
    def test_unit_square(self):
        h = convex_hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
        assert hull_center(h) == pt((1, 2), (1, 2))

    def test_rhombus(self):
        h = convex_hull([pt(0, 0), pt(5, 0), pt(8, 4), pt(3, 4)])
        assert hull_center(h) == pt(4, 2)

    def test_triangle_centroid(self):
        h = convex_hull([pt(0, 0), pt(6, 0), pt(3, 4)])
        assert hull_center(h) == pt(3, (4, 3))


class TestMinEdgeTargets:
    def test_rectangle_both_short_edges(self):
        got = min_edge_targets([pt(0, 0), pt(4, 0), pt(4, 1), pt(0, 1)])
        assert set(got) == {(pt(4, 1), pt(4, 0)), (pt(0, 0), pt(0, 1))}

    def test_triangle_unique_min_edge(self):
        # squared lengths 100, 10, 90: the unique minimum edge is (10,0)-(9,3)
        pts = [pt(0, 0), pt(10, 0), pt(9, 3)]
        h = convex_hull(pts)
        assert sorted(edge_lengths_sq(h)) == [10, 90, 100]
        assert min_edge_targets(pts) == [(pt(9, 3), pt(10, 0))]

    def test_robot_on_min_edge_interior(self):
        pts = [pt(0, 0), pt(10, 0), pt(9, 3), pt((19, 2), (3, 2))]
        got = min_edge_targets(pts)
        assert (pt((19, 2), (3, 2)), pt(10, 0)) in got
        assert (pt(9, 3), pt(10, 0)) in got

    def test_consecutive_run_contracts_first_ccw_edge_only(self):
        # isosceles triangle: two consecutive minimum edges meeting at (0,3)
        pts = [pt(-2, 0), pt(2, 0), pt(0, 3)]
        h = convex_hull(pts)
        [(src, dst)] = min_edge_targets(pts)
        assert (src, dst) == (pt(0, 3), pt(2, 0))

    def test_symmetric_rejected(self):
        with pytest.raises(ValueError):
            min_edge_targets([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


class TestNearestVertex:
    def test_tie_broken_clockwise_from_center_ray(self):
        h = convex_hull([pt(0, 0), pt(4, 0), pt(4, 2), pt(0, 2)])
        assert nearest_vertex(pt(1, 1), h) == pt(0, 0)

    def test_near_right_edge_tie(self):
        h = convex_hull([pt(0, 0), pt(4, 0), pt(4, 2), pt(0, 2)])
        p = pt((39, 10), 1)
        got = nearest_vertex(p, h)
        best = min(dist_sq(p, v) for v in h.vertices)
        assert dist_sq(p, got) == best
        assert got == pt(4, 2)

    def test_tie_within_one_half_plane(self):
        # four vertices at distance 5 from p, two on each side of the ray to
        # the center (0, -12/5): the angle inside one side decides
        verts = [pt(-5, 0), pt(0, -20), pt(5, 0), pt(3, 4), pt(-3, 4)]
        h = convex_hull(verts + [pt(0, 0)])
        assert nearest_vertex(pt(0, 0), h) == pt(-5, 0)

    def test_unique_nearest(self):
        h = convex_hull([pt(0, 0), pt(4, 0), pt(4, 2), pt(0, 2)])
        assert nearest_vertex(pt(1, (1, 2)), h) == pt(0, 0)

    def test_vertex_input_rejected(self):
        h = convex_hull([pt(0, 0), pt(4, 0), pt(4, 2), pt(0, 2)])
        with pytest.raises(ValueError):
            nearest_vertex(pt(0, 0), h)


class TestOnLds:
    def test_three_collinear(self):
        assert is_on_lds([pt(0, 0), pt(3, 0), pt(7, 0)])

    def test_single_point(self):
        assert is_on_lds([pt(0, 0)])

    def test_triangle(self):
        assert not is_on_lds([pt(0, 0), pt(1, 0), pt(0, 1)])

    def test_points_from_an_iterator(self):
        assert not is_on_lds(iter([pt(0, 0), pt(1, 0), pt(0, 1)]))
        assert len(convex_hull(iter([pt(0, 0), pt(1, 0), pt(0, 1)])).vertices) == 3


class TestOnSegment:
    def test_degenerate_segment_holds_only_its_endpoint(self):
        a = pt((1, 3), -2)
        assert on_segment(a, a, a)
        for p in (pt(3, 0), pt((1, 3), 0), pt((2, 3), -4), pt((1, 3), (-5, 3))):
            assert not on_segment(p, a, a)


class TestPoint:
    def test_separately_built_equal_points(self):
        a = Point(Rat(1, 3), Rat(-2, 7))
        b = Point(Rat(2, 6), Rat(-4, 14))
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash((1, 3, -2, 7))
        assert len({a, b}) == 1 and {a: 1}[b] == 1

    def test_unequal_points(self):
        assert pt(1, 2) != pt(2, 1)
        assert pt(1, 2) != pt(1, (2 * 10**30 + 1, 10**30))
        assert pt(1, 2) != (1, 2)

    def test_order_is_exact_where_floats_tie(self):
        third = Rat(1, 3)
        above = third + Rat(1, 10**30)
        assert float(third) == float(above)
        lo, hi = Point(third, Rat(5)), Point(above, Rat(-5))
        assert lo < hi and not hi < lo
        assert sorted([hi, lo]) == [lo, hi]
        assert sorted([hi, lo], key=Point.order_key) == [lo, hi]

    def test_equal_x_ordered_by_y(self):
        third = Rat(1, 3)
        below = Point(Rat(2), third - Rat(1, 10**30))
        above = Point(Rat(2), third)
        assert float(below.y) == float(above.y)
        assert below < above and not above < below
        assert pt(2, 0) < pt(2, 1) and not pt(2, 1) < pt(2, 0)
        assert not pt(2, 1) < pt(2, 1)

    def test_immutable(self):
        p = pt(1, 2)
        with pytest.raises(AttributeError):
            p.x = Rat(3)
        with pytest.raises(AttributeError):
            p.label = "a"
        with pytest.raises(AttributeError):
            del p.y
        assert p == pt(1, 2) and hash(p) == hash((1, 1, 2, 1))

    def test_pickle_and_deepcopy_round_trip(self):
        p = pt((1, 3), (-5, 7))
        p.order_key()  # a cached key travels with neither copy
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert q == p and hash(q) == hash(p)
            assert (q.x, q.y) == (p.x, p.y) and q.order_key() == p.order_key()

    def test_equal_points_built_by_every_path_intern_once(self):
        square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
        centers = [
            Point(parse_rat("2/4"), parse_rat(" 1/2")),
            toward(pt(0, 0), pt(2, 2), Rat(1, 4)),
            midpoint(pt(1, 0), pt(0, 1)),
            hull_center(convex_hull(square)),
            Frame.from_triple(3, 4, 5).apply(pt((7, 10), (-1, 10))),
        ]
        assert len(set(map(id, centers))) == len(centers)
        assert all(c == centers[0] and hash(c) == hash(centers[0]) for c in centers)
        interner = ConfigInterner()
        # robot order differs between the two colorings, so both sort
        blue = [interner.get((*((p, "A") for p in square), (c, "B"))) for c in centers]
        red = [interner.get(((c, "A"), *((p, "B") for p in reversed(square)))) for c in centers]
        for cfgs in (blue, red):
            assert all(cfg is cfgs[0] for cfg in cfgs)
        assert blue[0] is not red[0]
        assert blue[0].shape is red[0].shape
        assert len(interner._shapes) == 1


# -- property tests ---------------------------------------------------------

coords = st.integers(-30, 30)
dens = st.integers(1, 3)


@st.composite
def rat_points(draw, min_size=3, max_size=8):
    n = draw(st.integers(min_size, max_size))
    pts = []
    for _ in range(n):
        xn, yn = draw(coords), draw(coords)
        xd, yd = draw(dens), draw(dens)
        pts.append(Point(Rat(xn, xd), Rat(yn, yd)))
    return pts


@st.composite
def asym_contractible_points(draw):
    """Hull vertices on a parabola plus rational points on the hull's edges.

    Points (x, a*x**2) with distinct x >= 0 are in strictly convex position,
    and the edge joining the two extreme vertices is strictly longer than
    every other edge, so the hull is asymmetric; points on its edges keep the
    set contractible.
    """
    a = Rat(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    xs = [draw(st.integers(0, 10))]
    for _ in range(draw(st.integers(2, 5))):
        xs.append(xs[-1] + draw(st.integers(1, 8)))
    den = draw(dens)
    verts = [Point(Rat(x, den), a * Rat(x, den) ** 2) for x in xs]
    pts = list(verts)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(verts) - 1))
        u, v = verts[i], verts[(i + 1) % len(verts)]
        m = draw(st.integers(2, 4))
        lam = Rat(draw(st.integers(1, m - 1)), m)
        pts.append(Point(u.x + lam * (v.x - u.x), u.y + lam * (v.y - u.y)))
    return draw(st.permutations(pts))


@given(rat_points())
def test_hull_idempotent(pts):
    h = convex_hull(pts)
    assume(not isinstance(h, CollinearSignal))
    again = convex_hull(list(h.vertices))
    assert set(again.vertices) == set(h.vertices)


@given(rat_points())
def test_hull_ccw_positive_area(pts):
    h = convex_hull(pts)
    assume(not isinstance(h, CollinearSignal))
    assert hull_area_twice(h.vertices) > 0
    k = len(h.vertices)
    for i in range(k):
        a, b, c = h.vertices[i], h.vertices[(i + 1) % k], h.vertices[(i + 2) % k]
        assert orientation(a, b, c) == 1


@given(rat_points(), st.randoms(use_true_random=False))
def test_classification_equivariant(pts, pyrng):
    frame = random_frame(pyrng)
    moved = [frame.apply(p) for p in pts]
    h1, h2 = convex_hull(pts), convex_hull(moved)
    if isinstance(h1, CollinearSignal):
        assert isinstance(h2, CollinearSignal)
    else:
        assert h1.classification == h2.classification
        assert {frame.apply(v) for v in h1.vertices} == set(h2.vertices)


@given(asym_contractible_points())
def test_min_edge_targets_given_hull_matches_rebuilt(pts):
    h = convex_hull(pts)
    assert h.classification is Classification.ASYM_CONTRACTIBLE
    assert min_edge_targets(pts, h) == min_edge_targets(pts)


@given(asym_contractible_points(), st.randoms(use_true_random=False))
def test_min_edge_targets_equivariant(pts, pyrng):
    assert convex_hull(pts).classification is Classification.ASYM_CONTRACTIBLE
    frame = random_frame(pyrng)
    moved = [frame.apply(p) for p in pts]
    got = {(frame.apply(a), frame.apply(b)) for a, b in min_edge_targets(pts)}
    assert got == set(min_edge_targets(moved))


@given(rat_points(min_size=4), st.randoms(use_true_random=False))
def test_nearest_vertex_equivariant(pts, pyrng):
    h = convex_hull(pts[:-1])
    assume(not isinstance(h, CollinearSignal))
    p = pts[-1]
    assume(p not in h.vertices)
    best = min(dist_sq(p, v) for v in h.vertices)
    ties = [v for v in h.vertices if dist_sq(p, v) == best]
    center_x = sum((v.x for v in h.vertices), Rat(0)) / len(h.vertices)
    center_y = sum((v.y for v in h.vertices), Rat(0)) / len(h.vertices)
    assume(len(ties) == 1 or Point(center_x, center_y) != p)
    frame = random_frame(pyrng)
    hm = convex_hull([frame.apply(v) for v in pts[:-1]])
    assert frame.apply(nearest_vertex(p, h)) == nearest_vertex(frame.apply(p), hm)


@given(rat_points(min_size=4))
def test_nearest_vertex_minimizes(pts):
    h = convex_hull(pts[:-1])
    assume(not isinstance(h, CollinearSignal))
    p = pts[-1]
    assume(p not in h.vertices)
    got = nearest_vertex(p, h)
    assert dist_sq(p, got) == min(dist_sq(p, v) for v in h.vertices)


@given(rat_points(min_size=1))
def test_point_order_is_exact_coordinate_order(pts):
    # each point also gets neighbours whose coordinates round to the same float
    eps = Rat(1, 10**30)
    pts = pts + [Point(p.x + eps, p.y) for p in pts] + [Point(p.x, p.y - eps) for p in pts]
    exact = sorted(pts, key=lambda p: (p.x, p.y))
    assert sorted(pts, key=Point.order_key) == exact
    assert sorted(pts) == exact


# small, zero, negative and huge numerators and denominators
rat_parts = st.one_of(st.integers(-12, 12), st.integers(-(10**40), 10**40))


@st.composite
def rationals(draw):
    """A rational built from a pair that is not reduced and may have a negative denominator."""
    k = draw(st.integers(-5, 5).filter(bool))
    return Rat(k * draw(rat_parts), k * draw(rat_parts.filter(bool)))


@st.composite
def coordinate_pairs(draw):
    """Two coordinate pairs; each coordinate of the second often rebuilds the first's."""
    first = (draw(rationals()), draw(rationals()))
    k = draw(st.integers(-5, 5).filter(bool))
    second = tuple(
        Rat(k * v.numerator, k * v.denominator) if draw(st.booleans()) else draw(rationals())
        for v in first
    )
    return first, second


@given(coordinate_pairs())
def test_point_equality_hash_and_parts_follow_the_coordinates(pairs):
    (a, b), (c, d) = pairs
    p, q = Point(a, b), Point(c, d)
    assert (p == q) == ((a, b) == (c, d)) and (p != q) == ((a, b) != (c, d))
    if p == q:
        assert hash(p) == hash(q)
    for r in (p, q):
        assert (r.xn, r.xd) == (r.x.numerator, r.x.denominator)
        assert (r.yn, r.yd) == (r.y.numerator, r.y.denominator)
        for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert copied == r and hash(copied) == hash(r)
            assert (copied == q) == (r == q)


@given(st.lists(rationals(), min_size=2, max_size=10))
def test_point_order_key_is_the_coordinate_order_for_any_rationals(values):
    pts = [Point(x, y) for x, y in zip(values, reversed(values))]
    # neighbours whose nonzero coordinates round to the same floats
    eps = Rat(1, 10**60)
    right = [Point(p.x + eps, p.y) for p in pts]
    below = [Point(p.x, p.y - eps) for p in pts]
    for p, q, r in zip(pts, right, below):
        assert not p.x or q.order_key()[0] == p.order_key()[0]
        assert not p.y or r.order_key()[2] == p.order_key()[2]
    pts += right + below
    exact = sorted(pts, key=lambda p: (p.x, p.y))
    assert sorted(pts, key=Point.order_key) == exact
    assert sorted(pts) == exact


# -- integer kernels against the Fraction formulas ---------------------------


def ref_cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def ref_dist_sq(a, b):
    dx, dy = a.x - b.x, a.y - b.y
    return dx * dx + dy * dy


def ref_on_segment(p, a, b):
    """Collinear, and the projection of p lands between a and b (a != b)."""
    if ref_cross(a, b, p) != 0:
        return False
    d = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    return 0 <= d <= ref_dist_sq(a, b)


def ref_hull(points):
    """(vertices, edge lengths, classification) by the Fraction formulas.

    None when every distinct point is collinear.
    """
    pts = sorted(set(points), key=lambda p: (p.x, p.y))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ref_cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    ring = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    if len(ring) < 3:
        return None
    start = ring.index(pts[0])
    ring = tuple(ring[start:] + ring[:start])
    k = len(ring)
    edges = tuple(ref_dist_sq(ring[i], ring[(i + 1) % k]) for i in range(k))
    if all(e == edges[0] for e in edges):
        center = Point(sum(v.x for v in ring) / k, sum(v.y for v in ring) / k)
        ok = all(p in ring or p == center for p in pts)
        cls = Classification.SYM_CONTRACTIBLE if ok else Classification.SYM_NONCONTRACTIBLE
    else:
        ok = all(
            any(ref_on_segment(p, ring[i], ring[(i + 1) % k]) for i in range(k)) for p in pts
        )
        cls = Classification.ASYM_CONTRACTIBLE if ok else Classification.ASYM_NONCONTRACTIBLE
    return ring, edges, cls


# small and wide numerators (above 2**64), small, prime and wide denominators
numerators = st.one_of(st.integers(-40, 40), st.integers(-(2**80), 2**80))
denominators = st.one_of(st.sampled_from([1, 2, 3, 7, 2**61 - 1]), st.integers(1, 2**70))
lambdas = st.one_of(
    st.sampled_from([Rat(-1), Rat(0), Rat(1, 3), Rat(1, 2), Rat(1), Rat(2)]),
    st.builds(Rat, numerators, denominators),
)


@st.composite
def wide_points(draw, k):
    """k points whose coordinates share one denominator or mix several."""
    shared = draw(st.one_of(st.none(), denominators))
    cs = [Rat(draw(numerators), shared or draw(denominators)) for _ in range(2 * k)]
    return [Point(cs[2 * i], cs[2 * i + 1]) for i in range(k)]


def along(a, b, lam):
    return Point(a.x + lam * (b.x - a.x), a.y + lam * (b.y - a.y))


@st.composite
def triples(draw):
    """(o, a, b); in about half the draws b lies on the line through o and a."""
    o, a, b = draw(wide_points(3))
    if draw(st.booleans()):
        b = along(o, a, draw(lambdas))
    return o, a, b


@st.composite
def hull_inputs(draw):
    """Wide points, or a wide square with or without its center.

    Up to three more points lie on lines through two earlier ones.
    """
    if draw(st.booleans()):
        t, u = draw(wide_points(2))
        s = u.x
        pts = [t, Point(t.x + s, t.y), Point(t.x + s, t.y + s), Point(t.x, t.y + s)]
        if draw(st.booleans()):
            pts.append(Point(t.x + s / 2, t.y + s / 2))
    else:
        pts = draw(wide_points(draw(st.integers(1, 6))))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(along(a, b, draw(lambdas)))
    return draw(st.permutations(pts))


@given(triples())
def test_orientation_is_the_sign_of_the_cross_product(obc):
    c = ref_cross(*obc)
    assert orientation(*obc) == (c > 0) - (c < 0)


@given(wide_points(2))
def test_dist_sq_is_exact(ab):
    assert dist_sq(*ab) == ref_dist_sq(*ab)


@given(wide_points(2), lambdas)
def test_toward_is_the_fraction_formula(ab, lam):
    # the progress point of a move and a truncated move's reach
    assert toward(*ab, lam) == along(*ab, lam)


@given(wide_points(2))
def test_midpoint_is_the_fraction_formula(ab):
    a, b = ab
    assert midpoint(a, b) == Point((a.x + b.x) / 2, (a.y + b.y) / 2)


@given(triples())
def test_on_segment_matches_the_projection_test(abp):
    a, b, p = abp
    assume(a != b)
    assert on_segment(p, a, b) == ref_on_segment(p, a, b)


@given(hull_inputs())
def test_convex_hull_matches_the_reference_chain(pts):
    h = convex_hull(pts)
    ref = ref_hull(pts)
    if ref is None:
        assert isinstance(h, CollinearSignal)
    else:
        assert (h.vertices, edge_lengths_sq(h), h.classification) == ref


# -- configuration analyses on the lattice against the Fraction formulas ------


def ref_on_lds(points):
    pts = list(dict.fromkeys(points))
    return all(ref_cross(pts[0], pts[1], p) == 0 for p in pts[2:])


def ref_selected_min_edges(edges):
    k = len(edges)
    is_min = [e == min(edges) for e in edges]
    return [i for i in range(k) if is_min[i] and not is_min[(i - 1) % k]]


def ref_min_edge_targets(points):
    ring, edges, _ = ref_hull(points)
    k = len(ring)
    out = []
    for i in ref_selected_min_edges(edges):
        right, other = ring[i], ring[(i + 1) % k]
        for p in set(points):
            if p != right and ref_on_segment(p, right, other):
                out.append((p, right))
    out.sort(key=lambda pr: (pr[0].x, pr[0].y))
    return tuple(out)


def ref_center(ring):
    k = len(ring)
    return Point(sum(v.x for v in ring) / k, sum(v.y for v in ring) / k)


def ref_nearest_vertex(p, ring):
    """Nearest vertex, ties by the smallest clockwise angle from p -> center."""
    best = min(ref_dist_sq(p, v) for v in ring)
    cands = [v for v in ring if ref_dist_sq(p, v) == best]
    c = ref_center(ring)
    r = Point(c.x - p.x, c.y - p.y)
    if len(cands) == 1 or (r.x == 0 and r.y == 0):
        return cands[0]

    def bucket(v):
        cr = r.x * v.y - r.y * v.x
        if cr == 0:
            return 0 if r.x * v.x + r.y * v.y > 0 else 2
        return 1 if cr < 0 else 3

    chosen = cands[0]
    for v in cands[1:]:
        u, w = Point(v.x - p.x, v.y - p.y), Point(chosen.x - p.x, chosen.y - p.y)
        bu, bw = bucket(u), bucket(w)
        if bu < bw or (bu == bw and u.x * w.y - u.y * w.x < 0):
            chosen = v
    return chosen


@st.composite
def collinear_inputs(draw):
    """Wide points on the line through two wide points, duplicates possible."""
    a, b = draw(wide_points(2))
    pts = [a, b] + [along(a, b, draw(lambdas)) for _ in range(draw(st.integers(0, 5)))]
    return draw(st.permutations(pts))


@st.composite
def wide_asym_contractible_points(draw):
    """``asym_contractible_points`` under a wide scaling and translation."""
    pts = draw(asym_contractible_points())
    scale = abs(draw(st.builds(Rat, numerators, denominators))) or Rat(1)
    tx, ty = (draw(st.builds(Rat, numerators, denominators)) for _ in range(2))
    return [Point(scale * p.x + tx, scale * p.y + ty) for p in pts]


lattice_inputs = st.one_of(
    hull_inputs(), collinear_inputs(), wide_asym_contractible_points()
)


@given(lattice_inputs)
def test_configuration_analyses_match_the_references(pts):
    cfg = Configuration(canonical((p, "O") for p in pts))
    ref = ref_hull(pts)
    assert cfg.on_lds == ref_on_lds(pts) == (ref is None)
    if ref is None:
        assert isinstance(cfg.hull, CollinearSignal)
        return
    h = cfg.hull
    ring = ref[0]
    assert (h.vertices, edge_lengths_sq(h), h.classification) == ref
    assert hull_center(h) == ref_center(ring)
    assert hull_area_twice(h.vertices, h.lattice) == sum(
        a.x * b.y - b.x * a.y for a, b in zip(ring, ring[1:] + ring[:1])
    )
    if h.classification is Classification.ASYM_CONTRACTIBLE:
        assert cfg.contraction_targets() == ref_min_edge_targets(pts)
    for p in cfg.occupied:
        if p not in ring:
            assert nearest_vertex(p, h) == ref_nearest_vertex(p, ring)
