"""Exact rational planar geometry.

All predicates here (collinearity, hull membership, symmetry, nearest-vertex
selection) are decided exactly, on orientations and squared distances.
There is no tolerance parameter anywhere in this module.

Kernel invariant: ``orientation``, ``on_segment`` and ``dist_sq`` read each
coordinate as its integer ``numerator`` and ``denominator``, and both
backends keep every denominator positive.  A coordinate difference is then an
unreduced integer pair ``(N, D)`` with ``D > 0``, and comparing two such
quotients cross-multiplies by positive integers, so the sign of
``N1 * D2 - N2 * D1`` is the sign of ``N1 / D1 - N2 / D2`` exactly.  No
rational is built until ``dist_sq`` normalises its result once.
"""

from dataclasses import dataclass
from enum import Enum

from .rational import Rat


class Point:
    """Immutable exact point of the plane.

    Points are hashed and sorted far more often than they are built, so each
    one computes ``hash((x, y))`` at construction and keeps it; equality is
    identity first, then the stored hashes, then the exact coordinates.

    The order is the exact lexicographic order of ``(x, y)``.  It is decided
    on ``order_key() == (float(x), x, float(y), y)``, computed on first use:
    ``float`` of a rational is monotone (``fractions`` rounds correctly and
    gmpy2 rounds monotonically too), so ``float(a) < float(b)`` implies
    ``a < b``, and the exact value breaks every tie between equal floats.
    Sorting with ``key=Point.order_key`` therefore gives the same sequence as
    sorting on ``(x, y)``, with most comparisons made on floats.
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

    def __add__(self, other):
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point(self.x - other.x, self.y - other.y)

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
    hull was built from, not just the vertices.
    """

    vertices: tuple
    edge_lengths_sq: tuple
    classification: Classification


def convex_hull(points):
    """Strict CCW hull of the given occupied positions.

    Returns a HullView, or a CollinearSignal when every distinct position is
    collinear (a single point and two points count as collinear).
    """
    pts = sorted(set(points), key=Point.order_key)
    if not pts:
        raise ValueError("convex_hull of empty point set")
    if len(pts) <= 2:
        return CollinearSignal(tuple(pts))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        return CollinearSignal(tuple(pts))
    start = ring.index(pts[0])
    ring = ring[start:] + ring[:start]
    verts = tuple(ring)
    k = len(verts)
    edges = tuple(dist_sq(verts[i], verts[(i + 1) % k]) for i in range(k))
    sym = all(e == edges[0] for e in edges)
    if sym:
        center = hull_center_of(verts)
        vert_set = set(verts)
        ok = all(p in vert_set or p == center for p in pts)
        cls = Classification.SYM_CONTRACTIBLE if ok else Classification.SYM_NONCONTRACTIBLE
    else:
        ok = all(on_hull_boundary(p, verts) for p in pts)
        cls = Classification.ASYM_CONTRACTIBLE if ok else Classification.ASYM_NONCONTRACTIBLE
    return HullView(verts, edges, cls)


def on_hull_boundary(p, verts):
    """True when p lies on an edge of the vertex ring ``verts``."""
    k = len(verts)
    return any(on_segment(p, verts[i], verts[(i + 1) % k]) for i in range(k))


def hull_center_of(vertices):
    """Vertex centroid.  For regular polygons this is the circumcenter."""
    k = len(vertices)
    inv = Rat(1, k)
    sx = sum((v.x for v in vertices), Rat(0))
    sy = sum((v.y for v in vertices), Rat(0))
    return Point(sx * inv, sy * inv)


def hull_center(hull):
    return hull_center_of(hull.vertices)


def is_symmetric(hull):
    """All hull edges have equal (squared) length."""
    return all(e == hull.edge_lengths_sq[0] for e in hull.edge_lengths_sq)


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


def is_on_lds(points):
    """True when all occupied positions are collinear (1 or 2 points: true)."""
    pts = list(dict.fromkeys(points))
    if len(pts) <= 2:
        return True
    a, b = pts[0], pts[1]
    return all(orientation(a, b, p) == 0 for p in pts[2:])


def hull_area_twice(verts):
    """Twice the (positive, CCW) shoelace area of the vertex ring."""
    k = len(verts)
    s = Rat(0)
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        s += a.x * b.y - b.x * a.y
    return s


def selected_min_edges(hull):
    """Indices of the minimum edges a contraction acts on.

    Minimum edges come in maximal cyclic runs of consecutive edges; an
    isolated minimum edge is its own run.  Only the first edge of each run in
    CCW order is contracted.  The hull must not have all edges minimal.
    """
    edges = hull.edge_lengths_sq
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
    occupied = sorted(set(points), key=Point.order_key)
    out = []
    for i in selected_min_edges(hull):
        right, other = verts[i], verts[(i + 1) % k]
        for p in occupied:
            if p != right and on_segment(p, right, other):
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
    best = min(dist_sq(p, v) for v in verts)
    cands = [v for v in verts if dist_sq(p, v) == best]
    if len(cands) == 1:
        return cands[0]
    c = hull_center_of(verts)
    r = c - p
    if r.x == 0 and r.y == 0:
        return cands[0]

    def bucket(v):
        cr = r.x * v.y - r.y * v.x
        dt = r.x * v.x + r.y * v.y
        if cr == 0:
            return 0 if dt > 0 else 2
        return 1 if cr < 0 else 3

    def before(u, w):
        # Smaller clockwise angle from r wins.
        bu, bw = bucket(u), bucket(w)
        if bu != bw:
            return bu < bw
        return u.x * w.y - u.y * w.x < 0

    chosen = cands[0] - p
    chosen_pt = cands[0]
    for v in cands[1:]:
        vec = v - p
        if before(vec, chosen):
            chosen = vec
            chosen_pt = v
    return chosen_pt
