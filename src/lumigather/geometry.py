"""Exact rational planar geometry.

All predicates here (collinearity, hull membership, symmetry, nearest-vertex
selection) are decided exactly, on orientations and squared distances.
There is no tolerance parameter anywhere in this module.

Kernel invariant: each predicate has one implementation, on one of two
integer kernels chosen by what it reads.

* Analyses of a configuration -- its convex hull and classification,
  collinearity, contraction targets, nearest vertices, center and area --
  run on the configuration's ``Lattice``: the least common denominator L of
  its coordinates and every point as the integer pair ``(L*x, L*y)``.
  Scaling by L > 0 keeps the sign of every cross product, the order of
  squared distances and the lexicographic order of points, so each test is
  one expression over ints.  A rational is built only for a value that
  leaves the analysis: an edge length or squared distance as
  ``Rat(N, L*L)``, an area, a center or a destination.
* Isolated points -- a truncated move, a move's reach in a replayed trace,
  the span of a line -- go through ``orientation``, ``on_segment`` and
  ``dist_sq``.  They read each coordinate as its integer ``numerator`` and
  ``denominator``, and a ``Fraction`` keeps its denominator positive.  A
  coordinate difference is then an unreduced integer pair ``(N, D)`` with
  ``D > 0``, and comparing two such quotients cross-multiplies by positive
  integers, so the sign of ``N1 * D2 - N2 * D1`` is the sign of
  ``N1 / D1 - N2 / D2`` exactly.  No rational is built until ``dist_sq``
  normalises its result once.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

from .rational import Rat


class Point:
    """Immutable exact point of the plane.

    Points are hashed and sorted far more often than they are built, so each
    one computes ``hash((x, y))`` at construction and keeps it; equality is
    identity first, then the stored hashes, then the exact coordinates.

    The order is the exact lexicographic order of ``(x, y)``.  It is decided
    on ``order_key() == (float(x), x, float(y), y)``, computed on first use:
    ``float`` of a ``Fraction`` is correctly rounded, hence monotone, so
    ``float(a) < float(b)`` implies ``a < b``, and the exact value breaks
    every tie between equal floats.  Sorting with ``key=Point.order_key``
    therefore gives the same sequence as sorting on ``(x, y)``, with most
    comparisons made on floats.
    """

    __slots__ = ("x", "y", "_hash", "_key")

    def __new__(cls, x, y):
        self = object.__new__(cls)
        _set_x(self, x)
        _set_y(self, y)
        _set_hash(self, hash((x, y)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Point is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Point is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return (Point, (self.x, self.y))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Point:
            return NotImplemented
        return self._hash == other._hash and self.x == other.x and self.y == other.y

    def order_key(self):
        """``(float(x), x, float(y), y)``: sorts exactly as ``(x, y)`` does."""
        try:
            return self._key
        except AttributeError:
            key = (float(self.x), self.x, float(self.y), self.y)
            _set_key(self, key)
            return key

    def __lt__(self, other):
        return self.order_key() < other.order_key()

    def __repr__(self):
        return f"({self.x},{self.y})"


# the slot setters bypass the __setattr__ that makes a Point immutable
_set_x = Point.x.__set__
_set_y = Point.y.__set__
_set_hash = Point._hash.__set__
_set_key = Point._key.__set__


def pt(x, y=None):
    """Point from ints/rationals; a (num, den) tuple means num/den."""
    if y is None:
        x, y = x

    def r(v):
        return Rat(*v) if isinstance(v, tuple) else Rat(v)

    return Point(r(x), r(y))


def _diff(a, b):
    """``a - b`` as an unreduced integer pair ``(N, D)`` with ``D > 0``."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    if ad == bd:
        return an - bn, ad
    return an * bd - bn * ad, ad * bd


def orientation(o, a, b):
    """1 when b lies left of the ray o -> a, -1 when right of it, 0 when collinear.

    This is the sign of the cross product ``(a - o) x (b - o)``, decided on
    integers.
    """
    n1, d1 = _diff(a.x, o.x)
    n2, d2 = _diff(b.y, o.y)
    n3, d3 = _diff(a.y, o.y)
    n4, d4 = _diff(b.x, o.x)
    left, dl = n1 * n2, d1 * d2
    right, dr = n3 * n4, d3 * d4
    if dl != dr:
        left, right = left * dr, right * dl
    return (left > right) - (left < right)


def dist_sq(a, b):
    """Exact squared distance, normalised once from integers."""
    nx, dx = _diff(a.x, b.x)
    ny, dy = _diff(a.y, b.y)
    if dx == dy:
        return Rat(nx * nx + ny * ny, dx * dx)
    nx, ny = nx * dy, ny * dx
    d = dx * dy
    return Rat(nx * nx + ny * ny, d * d)


def midpoint(a, b):
    half = Rat(1, 2)
    return Point((a.x + b.x) * half, (a.y + b.y) * half)


def _between(v, a, b):
    """``v`` lies in the closed interval spanned by ``a`` and ``b``.

    The denominators of both differences are positive, so their numerators
    carry their signs.
    """
    return _diff(v, a)[0] * _diff(v, b)[0] <= 0


def on_segment(p, a, b):
    """True when p lies on the closed segment ab (only ``a`` itself when a == b).

    p is collinear with a and b and inside the segment's bounding box.
    """
    return orientation(a, b, p) == 0 and _between(p.x, a.x, b.x) and _between(p.y, a.y, b.y)


class Lattice:
    """Points as integers over their least common denominator.

    ``den`` is the least common multiple L of the points' coordinate
    denominators and ``xy`` maps each distinct point p to
    ``(L * p.x, L * p.y)``, a pair of ints, in the order the points came.
    A Configuration builds its lattice once, on first use, and all of its
    analyses share it.
    """

    __slots__ = ("den", "xy")

    def __init__(self, points):
        """``points``: any iterable of points; duplicates are dropped."""
        points = tuple(points)
        dens = {p.x.denominator for p in points}
        dens.update(p.y.denominator for p in points)
        den = self.den = math.lcm(*dens)
        if den == 1:
            self.xy = {p: (p.x.numerator, p.y.numerator) for p in points}
        else:
            self.xy = {
                p: (
                    p.x.numerator * (den // p.x.denominator),
                    p.y.numerator * (den // p.y.denominator),
                )
                for p in points
            }

    def with_point(self, p):
        """This lattice, or the lattice of its points and ``p`` when p is off it."""
        if p in self.xy:
            return self
        return Lattice((*self.xy, p))

    def norm(self, a, b):
        """Squared distance from a to b, times L**2, as an int."""
        (ax, ay), (bx, by) = self.xy[a], self.xy[b]
        dx, dy = ax - bx, ay - by
        return dx * dx + dy * dy


class Classification(Enum):
    SYM_NONCONTRACTIBLE = "sym-noncontractible"
    SYM_CONTRACTIBLE = "sym-contractible"
    ASYM_NONCONTRACTIBLE = "asym-noncontractible"
    ASYM_CONTRACTIBLE = "asym-contractible"
    ON_LDS = "on-lds"


@dataclass(frozen=True, slots=True)
class CollinearSignal:
    """All distinct positions are collinear (includes 1 and 2 points)."""

    points: tuple


@dataclass(frozen=True, slots=True)
class HullView:
    """Strict convex hull of a set of occupied positions.

    vertices are counter-clockwise starting at the lexicographically smallest
    point; edge i runs from vertices[i] to vertices[(i+1) % k].  The
    classification is taken with respect to the full occupied point set the
    hull was built from, not just the vertices.  ``lattice`` is the lattice
    of that point set and ``edge_norms[i]`` is the squared length of edge i
    times L**2, as an int.
    """

    vertices: tuple
    classification: Classification
    lattice: Lattice = field(compare=False, repr=False)
    edge_norms: tuple = field(compare=False, repr=False)

    @property
    def edge_lengths_sq(self):
        """Squared edge lengths as rationals, edge i first."""
        d2 = self.lattice.den * self.lattice.den
        return tuple(Rat(n, d2) for n in self.edge_norms)


def convex_hull(points, lattice=None):
    """Strict CCW hull of the given occupied positions.

    Returns a HullView, or a CollinearSignal when every distinct position is
    collinear (a single point and two points count as collinear).
    ``lattice``, when given, must be ``Lattice(points)``.
    """
    lat = Lattice(points) if lattice is None else lattice
    xy = lat.xy
    if not xy:
        raise ValueError("convex_hull of empty point set")
    # scaling by L > 0 keeps the lexicographic order of points
    pts = tuple(sorted(xy, key=xy.__getitem__))
    if len(pts) <= 2:
        return CollinearSignal(pts)
    q = [(*xy[p], p) for p in pts]

    def chain(seq):
        out = []
        for r in seq:
            x, y, _ = r
            while len(out) >= 2:
                ox, oy, _ = out[-2]
                ax, ay, _ = out[-1]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                    break
                out.pop()
            out.append(r)
        return out

    # the lower chain starts at pts[0], so the ring does too
    ring = chain(q)[:-1] + chain(reversed(q))[:-1]
    k = len(ring)
    if k < 3:
        return CollinearSignal(pts)
    verts = tuple(r[2] for r in ring)
    sides = [
        (ax, ay, bx - ax, by - ay) for (ax, ay, _), (bx, by, _) in zip(ring, ring[1:] + ring[:1])
    ]
    norms = tuple(dx * dx + dy * dy for _, _, dx, dy in sides)
    vert_set = set(verts)
    if len(set(norms)) == 1:
        center = hull_center_of(verts, lat)
        ok = all(p in vert_set or p == center for p in pts)
        cls = Classification.SYM_CONTRACTIBLE if ok else Classification.SYM_NONCONTRACTIBLE
    else:
        # every point lies in the closed hull, whose edges lie on supporting
        # lines: a point collinear with an edge lies on that edge
        ok = all(
            p in vert_set or any(dx * (y - ay) == dy * (x - ax) for ax, ay, dx, dy in sides)
            for x, y, p in q
        )
        cls = Classification.ASYM_CONTRACTIBLE if ok else Classification.ASYM_NONCONTRACTIBLE
    return HullView(verts, cls, lat, norms)


def on_hull_boundary(p, hull):
    """True when p lies on an edge of ``hull``."""
    lat = hull.lattice.with_point(p)
    xy = lat.xy
    x, y = xy[p]
    verts = hull.vertices
    for a, b in zip(verts, verts[1:] + verts[:1]):
        (ax, ay), (bx, by) = xy[a], xy[b]
        if (
            (bx - ax) * (y - ay) == (by - ay) * (x - ax)
            and (x - ax) * (x - bx) <= 0
            and (y - ay) * (y - by) <= 0
        ):
            return True
    return False


def hull_center_of(vertices, lattice):
    """Vertex centroid.  For regular polygons this is the circumcenter.

    ``lattice`` must hold every vertex.
    """
    xy = lattice.xy
    den = len(vertices) * lattice.den
    sx = sum(xy[v][0] for v in vertices)
    sy = sum(xy[v][1] for v in vertices)
    return Point(Rat(sx, den), Rat(sy, den))


def hull_center(hull):
    return hull_center_of(hull.vertices, hull.lattice)


def is_symmetric(hull):
    """All hull edges have equal (squared) length."""
    return len(set(hull.edge_norms)) == 1


def is_contractible(points, hull=None):
    """Contractibility of an occupied point set (must not be collinear).

    Symmetric hulls: every occupied point is a vertex or the center.
    Asymmetric hulls: every occupied point lies on the hull boundary.
    """
    if hull is None:
        hull = convex_hull(points)
    if isinstance(hull, CollinearSignal):
        raise ValueError("contractibility undefined for collinear configurations")
    return hull.classification in (
        Classification.SYM_CONTRACTIBLE,
        Classification.ASYM_CONTRACTIBLE,
    )


def is_on_lds(points, lattice=None):
    """True when all occupied positions are collinear (1 or 2 points: true).

    ``lattice``, when given, must be ``Lattice(points)``.
    """
    lat = Lattice(points) if lattice is None else lattice
    q = list(lat.xy.values())
    if len(q) <= 2:
        return True
    (ax, ay), (bx, by) = q[0], q[1]
    dx, dy = bx - ax, by - ay
    return all(dx * (y - ay) == dy * (x - ax) for x, y in q[2:])


def hull_area_twice(verts, lattice=None):
    """Twice the (positive, CCW) shoelace area of the vertex ring.

    ``lattice``, when given, must hold every vertex.
    """
    lat = Lattice(verts) if lattice is None else lattice
    q = [lat.xy[v] for v in verts]
    s = sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(q, q[1:] + q[:1]))
    return Rat(s, lat.den * lat.den)


def selected_min_edges(hull):
    """Indices of the minimum edges a contraction acts on.

    Minimum edges come in maximal cyclic runs of consecutive edges; an
    isolated minimum edge is its own run.  Only the first edge of each run in
    CCW order is contracted.  The hull must not have all edges minimal.
    """
    edges = hull.edge_norms
    k = len(edges)
    m = min(edges)
    is_min = [e == m for e in edges]
    if all(is_min):
        raise ValueError("all edges minimal: symmetric hull has no contraction target")
    return [i for i in range(k) if is_min[i] and not is_min[(i - 1) % k]]


def min_edge_targets(points, hull=None):
    """Contraction moves for an asymmetric contractible configuration.

    For each selected minimum edge (v_k, v_{k+1}) in CCW order, every
    occupied point on the closed edge other than v_k is paired with v_k.
    With shared chirality v_k is the edge's right vertex.  ``hull``, when
    given, must be ``convex_hull(points)``.
    """
    if hull is None:
        hull = convex_hull(points)
    if isinstance(hull, CollinearSignal):
        raise ValueError("min_edge_targets needs a non-collinear configuration")
    if hull.classification is not Classification.ASYM_CONTRACTIBLE:
        raise ValueError("min_edge_targets requires an asymmetric contractible configuration")
    verts = hull.vertices
    k = len(verts)
    xy = hull.lattice.xy
    out = []
    for i in selected_min_edges(hull):
        right = verts[i]
        (ax, ay), (bx, by) = xy[right], xy[verts[(i + 1) % k]]
        dx, dy = bx - ax, by - ay
        # every occupied point lies in the closed hull: collinear with an
        # edge means on it
        for p, (x, y) in xy.items():
            if p != right and dx * (y - ay) == dy * (x - ax):
                out.append((p, right))
    out.sort(key=lambda pr: pr[0].order_key())
    return out


def nearest_vertex(p, hull):
    """Hull vertex at minimum exact squared distance from p.

    Ties are broken by the smallest clockwise angle of (p -> vertex) from the
    ray (p -> hull center); with p at the center exactly, the first tied
    vertex in the canonical CCW ring is taken.
    """
    verts = hull.vertices
    if p in verts:
        raise ValueError("nearest_vertex is undefined for a hull vertex")
    lat = hull.lattice.with_point(p)
    xy = lat.xy
    px, py = xy[p]
    vecs = [(x - px, y - py) for x, y in (xy[v] for v in verts)]
    norms = [vx * vx + vy * vy for vx, vy in vecs]
    best = min(norms)
    cands = [i for i, n in enumerate(norms) if n == best]
    if len(cands) == 1:
        return verts[cands[0]]
    c = hull_center_of(verts, lat)
    # r = c - p scaled by k * L, the denominator every center coordinate divides
    k = len(verts)
    kl = k * lat.den
    rx = c.x.numerator * (kl // c.x.denominator) - k * px
    ry = c.y.numerator * (kl // c.y.denominator) - k * py
    if rx == 0 and ry == 0:
        return verts[cands[0]]

    def bucket(v):
        vx, vy = v
        cr = rx * vy - ry * vx
        if cr == 0:
            return 0 if rx * vx + ry * vy > 0 else 2
        return 1 if cr < 0 else 3

    def before(u, w):
        # Smaller clockwise angle from r wins.
        bu, bw = bucket(u), bucket(w)
        if bu != bw:
            return bu < bw
        return u[0] * w[1] - u[1] * w[0] < 0

    chosen = cands[0]
    for i in cands[1:]:
        if before(vecs[i], vecs[chosen]):
            chosen = i
    return verts[chosen]
