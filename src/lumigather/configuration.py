"""Configurations and observation frames.

A Configuration is the multiset of (position, color) pairs at an instant.
Derived analyses are computed lazily and cached, so the many per-robot
algorithm evaluations that share one instant pay for them once.  Those that
depend on the positions alone (occupied points, their integer lattice,
collinearity, convex hull, contraction targets) belong to a Shape, which a
ConfigInterner keeps one of per point set: the colorings of one point set,
which a color cycle of the simulation walks through without moving, and
their inner views (``recolor``) pay for geometry once.  The line pattern
depends on the colors and stays with the Configuration.

The package builds no reference cycles (a configuration holds its
interner's Shape table, never the interner), so reference counting alone
frees what it allocates, and the entry points that simulate, serialize,
parse and check run under ``collector_paused``.  ``tests/test_collector.py``
pins both facts.
"""

import functools
import gc
from dataclasses import dataclass

from .geometry import (
    CollinearSignal,
    Classification,
    Lattice,
    Point,
    convex_hull,
    is_on_lds,
    min_edge_targets,
)
from .patterns import classify_line
from .rational import Rat


def collector_paused(fn):
    """``fn`` with CPython's cyclic garbage collector off for the call.

    The package builds no reference cycles, so the collector finds nothing
    to free, and its passes over the many objects a run allocates are pure
    cost.  The wrapper turns the collector off if it is on and back on in a
    ``finally``, also when ``fn`` raises; if the caller has already turned
    it off, for instance an outer paused call, it stays off.  A cycle that
    some later change creates is then collected after the outermost paused
    call returns: freed late, never leaked.  The switch is process-wide, so
    a paused call in another thread may turn the collector back on early,
    which costs time and changes no result.

    Applied where each entry point is defined: ``engine.run``,
    ``Trace.dumps``, ``Trace.parse``, every check behind ``checker.CHECKS``,
    ``checker.enumerate_unfair`` and ``fuzz.run_with_checks``.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _entry_key(entry):
    p, color = entry
    return (p.order_key(), color)


def canonical(entries):
    """The (Point, color) entries as a tuple in the canonical order.

    The order is by x, then y, then color (``Point.order_key`` is exactly
    the (x, y) order); two configurations are equal exactly when their
    canonical entry tuples are.
    """
    return tuple(sorted(entries, key=_entry_key))


class Shape:
    """Position-only analyses of one tuple of occupied points.

    ``occupied`` is the tuple of distinct points in the canonical (x, y)
    order.  Its lattice, collinearity, hull and contraction targets depend on
    the points alone, so every coloring of the same points shares one Shape
    and computes each of them at most once, on first use.
    """

    __slots__ = ("occupied", "_lattice", "_hull", "_on_lds", "_contraction")

    def __init__(self, occupied):
        self.occupied = occupied
        self._lattice = None
        self._hull = None
        self._on_lds = None
        self._contraction = None

    @property
    def lattice(self):
        """The occupied points as integers over their common denominator."""
        if self._lattice is None:
            self._lattice = Lattice(self.occupied)
        return self._lattice

    @property
    def hull(self):
        """HullView or CollinearSignal over the occupied points."""
        if self._hull is None:
            self._hull = convex_hull(self.occupied, self.lattice)
        return self._hull

    @property
    def on_lds(self):
        if self._on_lds is None:
            self._on_lds = is_on_lds(self.occupied, self.lattice)
        return self._on_lds

    @property
    def classification(self):
        if isinstance(self.hull, CollinearSignal):
            return Classification.ON_LDS
        return self.hull.classification

    def contraction_targets(self):
        """Memoized minimum-edge contraction moves (asym contractible only)."""
        if self._contraction is None:
            self._contraction = tuple(min_edge_targets(self.occupied, self.hull))
        return self._contraction


class Configuration:
    """Canonical multiset of (Point, color) with cached analyses.

    ``entries`` must already be a tuple in the canonical order: the caller
    sorts, through ``canonical`` or ``ConfigInterner.get``.  What depends on
    the colors (``points``, ``colors_present``, ``cc``, ``memo``) is kept
    here; what depends on the positions alone is the ``shape``'s, looked up
    on the first such query in ``shapes``, the interner's table of Shapes by
    occupied-point tuple.  A configuration built without a table gets a
    Shape of its own.
    """

    __slots__ = ("entries", "_points", "_shapes", "_shape", "_cc", "_colors", "memo")

    def __init__(self, entries, shapes=None):
        self.entries = entries
        self._points = None
        self._shapes = shapes
        self._shape = None
        self._cc = None
        self._colors = None
        self.memo = {}

    def __eq__(self, other):
        return isinstance(other, Configuration) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @property
    def points(self):
        """Mapping Point -> frozenset of colors present there."""
        if self._points is None:
            acc = {}
            for p, c in self.entries:
                acc.setdefault(p, set()).add(c)
            self._points = {p: frozenset(cs) for p, cs in acc.items()}
        return self._points

    @property
    def shape(self):
        """The Shape of the occupied points, shared through ``shapes``."""
        shape = self._shape
        if shape is None:
            # the entries are in canonical order, so their points are too
            occupied = tuple(dict.fromkeys(p for p, _ in self.entries))
            shapes = self._shapes
            if shapes is None:
                shape = Shape(occupied)
            else:
                shape = shapes.get(occupied)
                if shape is None:
                    shape = shapes[occupied] = Shape(occupied)
            self._shape = shape
        return shape

    @property
    def occupied(self):
        return self.shape.occupied

    @property
    def colors_present(self):
        if self._colors is None:
            self._colors = frozenset(c for _, c in self.entries)
        return self._colors

    @property
    def lattice(self):
        return self.shape.lattice

    @property
    def hull(self):
        return self.shape.hull

    @property
    def on_lds(self):
        return self.shape.on_lds

    @property
    def classification(self):
        return self.shape.classification

    @property
    def cc(self):
        """ColorConfig of a collinear configuration."""
        if self._cc is None:
            if not self.on_lds:
                raise ValueError("cc requested for a non-collinear configuration")
            self._cc = classify_line(self.points)
        return self._cc

    def gathered(self):
        return len(self.occupied) == 1

    def contraction_targets(self):
        return self.shape.contraction_targets()

    def recolor(self, mapper):
        """New Configuration with colors mapped through ``mapper``.

        The points are the same, so the new configuration gets this one's
        Shape, and with it the lattice, hull and targets computed on either.
        """
        cfg = Configuration(canonical((p, mapper(c)) for p, c in self.entries))
        cfg._shape = self.shape
        return cfg


class ConfigInterner:
    """One Configuration per distinct multiset of entries, one Shape per point set.

    Repeated instants then share one object and its cached analyses, and
    configurations that differ only in colors share one Shape.  The engine,
    each TraceData and each enumeration keep their own interner, and with it
    their own ``memo`` entries and their own Shapes: the checker re-derives
    every action and every hull independently of the engine, once per
    distinct (configuration, position, light) and once per point set, and
    never sees an action or a hull the engine computed.

    ``get`` takes an entry tuple in any order; the engine and the checker
    pass robot order and leave the sorting to it.  Only a tuple it has not
    seen before is sorted, and the result is recorded under both the sorted
    and the given tuple.
    """

    __slots__ = ("_cache", "_shapes")

    def __init__(self):
        self._cache = {}
        self._shapes = {}

    def get(self, entries):
        cache = self._cache
        cfg = cache.get(entries)
        if cfg is None:
            key = canonical(entries)
            cfg = cache.get(key)
            if cfg is None:
                cfg = cache[key] = Configuration(key, self._shapes)
            cache[entries] = cfg
        return cfg


@dataclass(frozen=True, slots=True)
class Frame:
    """Orientation-preserving rational similarity of the plane.

    rotation (cos_r, sin_r) must be a Pythagorean pair with
    cos_r**2 + sin_r**2 == 1, scale must be positive.
    """

    cos_r: object
    sin_r: object
    scale: object
    translation: Point

    def __post_init__(self):
        if self.cos_r * self.cos_r + self.sin_r * self.sin_r != 1:
            raise ValueError("rotation is not a Pythagorean pair")
        if self.scale <= 0:
            raise ValueError("frame must be orientation-preserving (scale > 0)")

    @staticmethod
    def from_triple(a, b, c, scale=1, tx=0, ty=0):
        """Frame from a Pythagorean triple a^2 + b^2 = c^2."""
        return Frame(Rat(a, c), Rat(b, c), Rat(scale), Point(Rat(tx), Rat(ty)))

    def apply(self, p):
        x = self.scale * (self.cos_r * p.x - self.sin_r * p.y) + self.translation.x
        y = self.scale * (self.sin_r * p.x + self.cos_r * p.y) + self.translation.y
        return Point(x, y)

    def inverse_apply(self, p):
        ux = (p.x - self.translation.x) / self.scale
        uy = (p.y - self.translation.y) / self.scale
        return Point(self.cos_r * ux + self.sin_r * uy, -self.sin_r * ux + self.cos_r * uy)

    def apply_config(self, cfg):
        return Configuration(canonical((self.apply(p), c) for p, c in cfg.entries))
