"""Lexicographic 5-entry potential functions over configurations.

Entries are exact where possible (areas, counts) and certified otherwise:
a sum of Euclidean distances is kept as the multiset of its squared-distance
radicands plus an exact part, and is compared through interval enclosures at
escalating precision.  Two sums over identical radicand multisets compare
exactly; beyond that, square-free canonicalization decides equality (distinct
square-free parts are linearly independent over the rationals), so a
comparison is reported Undecided only when precision genuinely runs out.

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

_ESCALATION = (64, 256, 1024)
_LAST_RESORT = (4096, 16384)


class Cmp(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    UNDECIDED = 2


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


_PRIMES = None


def _small_primes():
    global _PRIMES
    if _PRIMES is None:
        n = 10000
        sieve = bytearray([1]) * (n + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(n**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _PRIMES = [i for i in range(2, n + 1) if sieve[i]]
    return _PRIMES


def _canonical_sqrt(rad):
    """sqrt(rad) as (coeff, squarefree m), or None when factoring gives out.

    rad = p/q gives sqrt(p*q)/q; square parts of p*q move into the rational
    coefficient.  Any cofactor surviving trial division below 1e4 that is not
    a perfect square and not provably prime leaves the result unusable.
    """
    p, q = rad.numerator, rad.denominator
    n = p * q
    coeff = Rat(1, q)
    m = 1
    for f in _small_primes():
        if f * f > n:
            break
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            coeff *= f ** (e // 2)
            if e % 2:
                m *= f
    if n > 1:
        s = isqrt(n)
        if s * s == n:
            coeff *= s
        elif n < 10**8:
            m *= n  # survived trial division and below 1e8: prime
        else:
            return None
    return coeff, m


def _canonical_form(value):
    exact = value.exact
    form = {}
    for r in value.radicands:
        c = _canonical_sqrt(r)
        if c is None:
            return None
        coeff, m = c
        if m == 1:
            exact += coeff
        else:
            form[m] = form.get(m, R0) + coeff
    form = {m: c for m, c in form.items() if c != 0}
    return exact, form


def _compare_exact(a, b):
    if a == b:
        return Cmp.EQUAL
    return Cmp.LESS if a < b else Cmp.GREATER


def compare_values(a, b):
    """Exact-aware comparison of two non-negative distance-sum values."""
    if a == INF or b == INF:
        if a == INF and b == INF:
            return Cmp.EQUAL
        return Cmp.GREATER if a == INF else Cmp.LESS
    if not isinstance(a, SqrtSum) and not isinstance(b, SqrtSum):
        return _compare_exact(a, b)
    sa, sb = _as_sum(a), _as_sum(b)
    ra, rb = sa.radicands, sb.radicands
    if ra == rb:
        return _compare_exact(sa.exact, sb.exact)
    for bits in _ESCALATION:
        alo, ahi = sa.interval(bits)
        blo, bhi = sb.interval(bits)
        if ahi < blo:
            return Cmp.LESS
        if alo > bhi:
            return Cmp.GREATER
    ca = _canonical_form(sa)
    cb = _canonical_form(sb)
    if ca is not None and cb is not None and ca[0] == cb[0] and ca[1] == cb[1]:
        return Cmp.EQUAL
    for bits in _LAST_RESORT:
        alo, ahi = sa.interval(bits)
        blo, bhi = sb.interval(bits)
        if ahi < blo:
            return Cmp.LESS
        if alo > bhi:
            return Cmp.GREATER
    return Cmp.UNDECIDED


def lex_less(a, b):
    """Lexicographic comparison of two 5-entry potential vectors.

    Returns LESS/GREATER/EQUAL, or UNDECIDED when an entry comparison cannot
    be resolved at the precision ceiling (reported, never guessed).
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
        cx = center.x.numerator * (kl // center.x.denominator)
        cy = center.y.numerator * (kl // center.y.denominator)
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
