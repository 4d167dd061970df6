"""Lexicographic 5-entry potential functions over configurations.

Entries are exact where possible (areas, counts) and certified otherwise:
a sum of Euclidean distances is kept as the multiset of its squared-distance
radicands plus an exact part, and is compared through interval enclosures at
escalating precision.  Every comparison is decided: two sums over identical
radicand multisets compare by their exact parts, and two sums that 1024-bit
enclosures cannot separate are tested for equality by square classes.
Square roots of rationals whose pairwise ratios are not squares are linearly
independent over the rationals (Besicovitch, 1940), so the difference of two
sums is zero exactly when its exact part and the coefficient of every class
are; a nonzero difference is separated by enclosures of doubling precision.

Integers inside, one normalisation out, identical rationals: the distances
are lattice ints, and ``SqrtSum.interval`` sums integer roots over one common
denominator and builds one rational per bound, equal to the sum of the
per-radicand enclosures ``sqrt(p*q)/q`` that the tests keep as the reference.
"""

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt, lcm

from .geometry import (
    Classification,
    Point,
    hull_area_twice,
    hull_center_of,
    selected_min_edges,
)
from .rational import R0, Rat, format_rat, sqrt_exact

INF = "inf"

# enclosure precisions tried before the square-class test
_ESCALATION = (64, 256, 1024)


class Cmp(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True, slots=True)
class SqrtSum:
    """exact + sum of sqrt(radicand) over a sorted multiset of rationals.

    The enclosure runs on integers.  With ``M`` the least common multiple of
    the radicands' denominators ``q_i``, sqrt(p_i/q_i) = sqrt(p_i*q_i)/q_i =
    sqrt(p_i*q_i) * (M // q_i) / M, so one ``isqrt`` per radicand at 2*bits
    extra precision bounds each root to within ``(M // q_i) / (M << bits)``,
    and both bounds of the sum are built as one rational each.
    """

    exact: object
    radicands: tuple
    # (M, ((p_i*q_i, M // q_i), ...), sum of M // q_i), set on first use
    _terms: tuple = field(default=None, init=False, repr=False, compare=False)

    def _prepare(self):
        dens = [r.denominator for r in self.radicands]
        m = lcm(*dens)
        terms = []
        width = 0
        for r, q in zip(self.radicands, dens):
            p = r.numerator
            if p:  # sqrt(0) is exact: it widens neither bound
                w = m // q
                terms.append((p * q, w))
                width += w
        prepared = (m, tuple(terms), width)
        object.__setattr__(self, "_terms", prepared)
        return prepared

    def interval(self, bits):
        """Certified ``(lo, hi)`` with ``lo <= value <= hi``; ValueError on a negative radicand."""
        m, terms, width = self._terms or self._prepare()
        shift = 2 * bits
        low = 0
        for n, w in terms:
            low += isqrt(n << shift) * w
        den = m << bits
        a, b = self.exact.numerator, self.exact.denominator
        base = a * den
        return Rat(base + b * low, b * den), Rat(base + b * (low + width), b * den)

    def __repr__(self):
        return f"SqrtSum({self.exact}+sqrt{list(self.radicands)})"


def sqrt_sum(radicands, exact=R0):
    """Build a distance-sum value, folding exact square roots into the base.

    Returns a plain rational when nothing irrational remains.
    """
    base = exact
    irr = []
    for r in radicands:
        if r < 0:
            raise ValueError("negative radicand")
        if r == 0:
            continue
        s = sqrt_exact(r)
        if s is None:
            irr.append(r)
        else:
            base += s
    if not irr:
        return base
    irr.sort()
    return SqrtSum(base, tuple(irr))


def _as_sum(v):
    """``v`` as a SqrtSum: a rational becomes one with no radicands."""
    if isinstance(v, SqrtSum):
        return v
    return SqrtSum(Rat(v), ())


def _is_zero(exact, signed):
    """Whether ``exact`` + the sum of ``sign * sqrt(r)`` over ``signed`` is 0.

    Radicands a and b share a square class when a*b is a rational square;
    then sqrt(a) = (sqrt(a*b)/b) * sqrt(b) adds an exact coefficient to the
    class of b, and a square radicand adds its root to ``exact``.  Roots of
    distinct classes are linearly independent over the rationals, so the sum
    is zero exactly when ``exact`` and every class coefficient are.
    """
    classes = {}  # class representative -> coefficient of its root
    for sign, r in signed:
        root = sqrt_exact(r)
        if root is not None:
            exact += sign * root
            continue
        for rep in classes:
            k = sqrt_exact(r * rep)
            if k is not None:
                classes[rep] += sign * k / rep
                break
        else:
            classes[r] = Rat(sign)
    return exact == 0 and not any(classes.values())


def _compare_exact(a, b):
    if a == b:
        return Cmp.EQUAL
    return Cmp.LESS if a < b else Cmp.GREATER


def _separate(sa, sb, bits):
    """LESS or GREATER when the ``bits`` enclosures are disjoint, else None."""
    alo, ahi = sa.interval(bits)
    blo, bhi = sb.interval(bits)
    if ahi < blo:
        return Cmp.LESS
    if alo > bhi:
        return Cmp.GREATER
    return None


def compare_values(a, b):
    """LESS, EQUAL or GREATER for two non-negative distance-sum values or INF."""
    if isinstance(a, str) or isinstance(b, str):  # INF is the only str value
        if isinstance(a, str) and isinstance(b, str):
            return Cmp.EQUAL
        return Cmp.GREATER if isinstance(a, str) else Cmp.LESS
    if not isinstance(a, SqrtSum) and not isinstance(b, SqrtSum):
        return _compare_exact(a, b)
    sa, sb = _as_sum(a), _as_sum(b)
    if sa.radicands == sb.radicands:
        return _compare_exact(sa.exact, sb.exact)
    for bits in _ESCALATION:
        c = _separate(sa, sb, bits)
        if c is not None:
            return c
    signed = [(1, r) for r in sa.radicands] + [(-1, r) for r in sb.radicands]
    if _is_zero(sa.exact - sb.exact, signed):
        return Cmp.EQUAL
    # the values differ, so fine enough enclosures are disjoint
    bits = _ESCALATION[-1]
    while True:
        bits *= 2
        c = _separate(sa, sb, bits)
        if c is not None:
            return c


def lex_less(a, b):
    """Lexicographic comparison of two 5-entry potential vectors.

    Returns LESS, EQUAL or GREATER, never anything else: each entry
    comparison is exact (``compare_values``), so no verdict is a guess.
    """
    for x, y in zip(a, b):
        c = compare_values(x, y)
        if c is Cmp.EQUAL:
            continue
        return c
    return Cmp.EQUAL


def serialize_entry(v):
    if v == INF:
        return "inf"
    if isinstance(v, SqrtSum):
        lo, hi = v.interval(64)
        return [format_rat(lo), format_rat(hi)]
    return format_rat(Rat(v))


def serialize_potential(vec):
    return [serialize_entry(v) for v in vec]


ZERO_VEC = (R0, R0, R0, R0, R0)


def _walk_start(hull):
    """Start vertex of the perimeter walk for an asymmetric hull.

    Rightmost-topmost, excluding the far endpoints of the contraction target
    edges: a robot leaving such an endpoint along its minimum edge travels
    CCW-backward past the start, which would flip the walk-distance sum
    upward and break the strict decrease the termination argument needs.
    """
    verts = hull.vertices
    k = len(verts)
    forbidden = {verts[(i + 1) % k] for i in selected_min_edges(hull)}
    return max((v for v in verts if v not in forbidden), key=Point.order_key)


def potential_f(config):
    """Line-election potential: (area, center-dist, inside-count, edge-walk, vertex-dist).

    Collinear configurations score exactly zero everywhere.  Symmetric hulls
    use the center-distance sum; asymmetric hulls use the inside count, the
    counter-clockwise perimeter walk from the rightmost-topmost vertex to
    every robot on the boundary, and the nearest-vertex distance sum.
    Every distance is taken on the hull's lattice.
    """
    memo = config.memo
    if "f" in memo:
        return memo["f"]
    if config.on_lds:
        memo["f"] = ZERO_VEC
        return ZERO_VEC
    hull = config.hull
    lat = hull.lattice
    xy = lat.xy
    verts = hull.vertices
    area = hull_area_twice(verts, lat) / 2
    robots = [p for p, _ in config.entries]
    if hull.classification in (
        Classification.SYM_CONTRACTIBLE,
        Classification.SYM_NONCONTRACTIBLE,
    ):
        center = hull_center_of(verts, lat)
        # distances over the denominator k * L, which the center's
        # coordinates (sums over k vertices of the lattice) divide
        k = len(verts)
        kl = k * lat.den
        cx = center.xn * (kl // center.xd)
        cy = center.yn * (kl // center.yd)
        norm = {p: (k * x - cx) ** 2 + (k * y - cy) ** 2 for p, (x, y) in xy.items()}
        vec = (area, _root_sum([norm[p] for p in robots], kl), 0, R0, R0)
    else:
        locate = _boundary_index(hull, verts.index(_walk_start(hull)))
        vxy = [xy[v] for v in verts]
        walk = {}
        near = {}
        for p, (x, y) in xy.items():
            walk[p] = locate(p)
            near[p] = min((vx - x) ** 2 + (vy - y) ** 2 for vx, vy in vxy)
        inside = 0
        f4 = []
        for p in robots:
            loc = walk[p]
            if loc is None:
                inside += 1
            else:
                f4.extend(loc)
        f5 = [near[p] for p in robots]
        vec = (area, R0, inside, _root_sum(f4, lat.den), _root_sum(f5, lat.den))
    memo["f"] = vec
    return vec


def _boundary_index(hull, start):
    """Locator of boundary points as perimeter-walk norm lists from ``vertices[start]``.

    A boundary point's list holds the lattice norms of the edges walked
    before its own edge, then of the part of that edge up to the point.
    """
    verts = hull.vertices
    k = len(verts)
    xy = hull.lattice.xy
    sides = []
    for j in range(start, start + k):
        a, b = verts[j % k], verts[(j + 1) % k]
        sides.append((a, b, *xy[a], *xy[b], hull.edge_norms[j % k]))

    def locate(p):
        x, y = xy[p]
        prefix = []
        for a, b, ax, ay, bx, by, norm in sides:
            if p == a:
                return prefix
            # p lies in the closed hull: collinear with an edge means on it
            if p != b and (bx - ax) * (y - ay) == (by - ay) * (x - ax):
                prefix.append((x - ax) ** 2 + (y - ay) ** 2)
                return prefix
            prefix.append(norm)
        return None

    return locate


def _root_sum(norms, den):
    """``sqrt_sum`` of the radicands ``n / den**2`` for the ints ``n`` in ``norms``.

    ``n / den**2`` has a rational root exactly when ``n`` is a perfect
    square, so the roots are summed as ints and a rational is built only
    for each distinct irrational radicand.
    """
    roots = 0
    irr = []
    for n in norms:
        s = isqrt(n)
        if s * s == n:
            roots += s
        else:
            irr.append(n)
    base = Rat(roots, den)
    if not irr:
        return base
    irr.sort()
    d2 = den * den
    rad = {n: Rat(n, d2) for n in set(irr)}
    return SqrtSum(base, tuple(rad[n] for n in irr))


def potential_g(config):
    """Two-color gathering potential, branching on the number of A points.

    Every distance is taken on the configuration's lattice.
    """
    memo = config.memo
    if "g" in memo:
        return memo["g"]
    if not config.on_lds:
        raise ValueError("potential_g requires a collinear configuration")
    cc = config.cc
    lat = config.lattice
    robots = [lat.xy[p] for p, _ in config.entries]
    (lx, ly), (rx, ry) = lat.xy[cc.endpoint_left], lat.xy[cc.endpoint_right]
    n_a = cc.counts.get("A", 0)
    if n_a == 1:
        ax, ay = lat.xy[next(p for p, f in cc.stations if "A" in f)]
        g1 = _root_sum([(x - ax) ** 2 + (y - ay) ** 2 for x, y in robots], lat.den)
        vec = (g1, R0, R0, 0, R0)
    elif n_a in (0, 2):
        span = _root_sum([(rx - lx) ** 2 + (ry - ly) ** 2], lat.den)
        # distances to the endpoints' midpoint over the denominator 2 * L
        mx, my = lx + rx, ly + ry
        g3 = _root_sum([(2 * x - mx) ** 2 + (2 * y - my) ** 2 for x, y in robots], 2 * lat.den)
        n_b = sum(1 for _, c in config.entries if c == "B")
        vec = (INF, span, g3, n_b, R0)
    else:
        g5 = _root_sum(
            [min((x - lx) ** 2 + (y - ly) ** 2, (x - rx) ** 2 + (y - ry) ** 2) for x, y in robots],
            lat.den,
        )
        vec = (INF, INF, INF, INF, g5)
    memo["g"] = vec
    return vec
