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
    _is_zero,
    _root_sum,
    compare_values,
    lex_less,
    potential_f,
    potential_g,
    serialize_potential,
    sqrt_sum,
)
from lumigather.rational import Rat, sqrt_exact

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
        # a prime class far beyond trial division
        p = Rat(2**61 - 1)
        assert compare_values(sqrt_sum([p]), sqrt_sum([p / 4] * 2)) is Cmp.EQUAL

    def test_sqrt_vs_rational(self):
        assert compare_values(sqrt_sum([Rat(2)]), Rat(3, 2)) is Cmp.LESS
        assert compare_values(sqrt_sum([Rat(2)]), Rat(7, 5)) is Cmp.GREATER

    def test_close_values_separate(self):
        # sqrt(2)+sqrt(3) squared is 5+2*sqrt(6) = 9.8989794...; compare against
        # square roots of rationals just below and just above it
        a = sqrt_sum([Rat(2), Rat(3)])
        assert compare_values(a, sqrt_sum([Rat(9898979, 1000000)])) is Cmp.GREATER
        assert compare_values(a, sqrt_sum([Rat(9898980, 1000000)])) is Cmp.LESS

    def test_values_closer_than_1024_bits_separate(self):
        # sqrt(4**1100 + 1) - 2**1100 is about 2**-1101
        assert compare_values(sqrt_sum([Rat(4**1100 + 1)]), Rat(2**1100)) is Cmp.GREATER
        assert compare_values(Rat(2**1100), sqrt_sum([Rat(4**1100 + 1)])) is Cmp.LESS

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


def ref_as_sum(v):
    return v if isinstance(v, SqrtSum) else SqrtSum(Rat(v), ())


def ref_class_zero(sa, sb):
    """Whether sa - sb is 0, each root written as sqrt(r / c) * sqrt(c) for
    the first radicand c of its square class, a rational root as itself."""
    exact = sa.exact - sb.exact
    coeffs = {}
    for sign, rads in ((1, sa.radicands), (-1, sb.radicands)):
        for r in rads:
            root = sqrt_exact(r)
            if root is not None:
                exact += sign * root
                continue
            c = next((c for c in coeffs if sqrt_exact(r / c) is not None), r)
            coeffs[c] = coeffs.get(c, R0) + sign * sqrt_exact(r / c)
    return exact == 0 and all(v == 0 for v in coeffs.values())


def ref_compare_values(a, b):
    """``compare_values`` with every enclosure built per radicand."""
    if isinstance(a, str) or isinstance(b, str):
        if isinstance(a, str) and isinstance(b, str):
            return Cmp.EQUAL
        return Cmp.GREATER if isinstance(a, str) else Cmp.LESS
    sa, sb = ref_as_sum(a), ref_as_sum(b)
    if sa.radicands == sb.radicands:
        if sa.exact == sb.exact:
            return Cmp.EQUAL
        return Cmp.LESS if sa.exact < sb.exact else Cmp.GREATER
    bits = 64
    while True:
        alo, ahi = ref_interval(sa, bits)
        blo, bhi = ref_interval(sb, bits)
        if ahi < blo:
            return Cmp.LESS
        if alo > bhi:
            return Cmp.GREATER
        if bits == 1024 and ref_class_zero(sa, sb):
            return Cmp.EQUAL
        bits *= 4 if bits < 1024 else 2


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
@example((sqrt_sum([Rat(8)]), sqrt_sum([Rat(2), Rat(2)])))  # equal by square class
@example((sqrt_sum([Rat(2**61 - 1)]), sqrt_sum([Rat(2**61 - 1, 4)] * 2)))  # equal, prime class
def test_compare_values_decides_as_the_reference(ab):
    a, b = ab
    assert compare_values(a, b) is ref_compare_values(a, b)
    assert compare_values(b, a) is ref_compare_values(b, a)


# -- square classes against trial-division factoring -------------------------


def ref_small_primes(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


SMALL_PRIMES = ref_small_primes(10**4)


def ref_canonical_sqrt(rad):
    """sqrt(rad) as (coeff, squarefree m): rad = p/q gives sqrt(p*q)/q, and
    the square part of p*q, found by trial division, moves into coeff.

    Only radicands whose prime factors are all below 1e4 are given to it.
    """
    p, q = rad.numerator, rad.denominator
    if p == 0:
        return R0, 1
    n = p * q
    coeff = Rat(1, q)
    m = 1
    for f in SMALL_PRIMES:
        if n == 1:
            break
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        coeff *= f ** (e // 2)
        if e % 2:
            m *= f
    assert n == 1, "a prime factor at or above 1e4"
    return coeff, m


def ref_canonical_form(value):
    """(exact part, {squarefree m: coefficient of sqrt(m)}) of a value."""
    value = ref_as_sum(value)
    exact, form = value.exact, {}
    for r in value.radicands:
        coeff, m = ref_canonical_sqrt(r)
        if m == 1:
            exact += coeff
        else:
            form[m] = form.get(m, R0) + coeff
    return exact, {m: c for m, c in form.items() if c}


smooth_ints = st.lists(
    st.tuples(st.sampled_from(SMALL_PRIMES[:20] + SMALL_PRIMES[-20:]), st.integers(1, 3)),
    max_size=3,
).map(lambda fs: math.prod(f**e for f, e in fs))
smooth_rads = st.builds(Rat, smooth_ints, smooth_ints)


@st.composite
def smooth_pairs(draw):
    """Two sums of roots of radicands whose prime factors are all below 1e4.

    b writes some of a's roots sqrt(r) as k roots sqrt(r / k**2), an equal
    value over other radicands of the same classes, and then may gain or
    lose a root; or b is drawn free.  Half the time b is a SqrtSum as built,
    its exact part written as the root of its square.
    """
    exact = Rat(draw(st.integers(0, 9)), draw(st.integers(1, 9)))
    rads = draw(st.lists(smooth_rads, min_size=1, max_size=4))
    if draw(st.booleans()):
        return sqrt_sum(rads, exact), sqrt_sum(draw(st.lists(smooth_rads, max_size=4)), exact)
    out = []
    for r in rads:
        k = draw(st.integers(1, 3))
        out += [r / k**2] * k
    change = draw(st.sampled_from(["none", "gain", "lose"]))
    if change == "gain":
        out.append(draw(st.sampled_from(rads)) / draw(st.sampled_from([1, 4, 9])))
    elif change == "lose":
        out.pop(draw(st.integers(0, len(out) - 1)))
    if draw(st.booleans()):
        return sqrt_sum(rads, exact), SqrtSum(R0, tuple(out) + (exact * exact,))
    return sqrt_sum(rads, exact), sqrt_sum(out, exact)


@given(smooth_pairs())
@example((sqrt_sum([Rat(8)]), sqrt_sum([Rat(2), Rat(2)])))
@example((sqrt_sum([Rat(12, 5)]), sqrt_sum([Rat(3, 5), Rat(15, 25)])))
def test_square_classes_decide_equality_as_factoring_does(ab):
    a, b = ab
    sa, sb = ref_as_sum(a), ref_as_sum(b)
    signed = [(1, r) for r in sa.radicands] + [(-1, r) for r in sb.radicands]
    equal = ref_canonical_form(a) == ref_canonical_form(b)
    assert _is_zero(sa.exact - sb.exact, signed) is equal
    assert (compare_values(a, b) is Cmp.EQUAL) is equal


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
