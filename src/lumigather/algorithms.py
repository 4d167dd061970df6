"""Gathering algorithms as pure functions of what a robot's Look observes.

Each algorithm maps the Look's ``(cfg, pos, light)`` (the configuration, the
robot's own position and its own light) to an Action: a new light color plus
a destination in the configuration's frame; a destination equal to ``pos``
means stay.  All are stateless and equivariant under orientation-preserving
rational similarities.

Two combinators compose specs: ``sim_for_unfair(X)`` ("sim") runs an
unfair-SSYNC algorithm X under ASYNC with 3k colors for X's k, and
``then(X, Y)`` runs X off a line and Y on one.  ``six-color`` is
sim(then(elect-one-lds, lu-gather)) and ``three-color`` is
then(sim(elect-one-lds), lu-gather-async).  A composed function calls its
parts' functions, so only the outermost spec checks the alphabet.

``phase_class`` is the one reading of a configuration's simulation phase
class, the phases (S, M, E) its colors show; sim acts on it and the
checker's cycle check verifies its rotation.
"""

from dataclasses import dataclass

from .geometry import (
    Classification,
    hull_center,
    nearest_vertex,
    on_hull_boundary,
)


@dataclass(frozen=True, slots=True)
class Action:
    """A new light color and a destination in the configuration's frame.

    ``inner_exec`` marks a wrapper action that ran its inner algorithm.
    The ``__init__`` sets the slots through their descriptors, bypassing the
    frozen ``__setattr__`` as ``Point.__new__`` does; fields, equality, hash
    and ``dataclasses.replace`` stay the dataclass's.
    """

    color: str
    dest: object
    inner_exec: bool = False

    def __init__(self, color, dest, inner_exec=False):
        _set_color(self, color)
        _set_dest(self, dest)
        _set_inner_exec(self, inner_exec)

    def changes(self, pos, light):
        """Whether this action changes ``light`` or leaves ``pos``.

        This is what it means for a robot to act: an action that keeps both
        is a null cycle, and a robot whose action is one is not enabled.
        """
        return self.color != light or self.dest != pos


_set_color = Action.color.__set__
_set_dest = Action.dest.__set__
_set_inner_exec = Action.inner_exec.__set__


def phase_of(c):
    return c.split(".", 1)[0]


def inner_of(c):
    return c.split(".", 1)[1] if "." in c else "O"


def phase_class(cfg):
    """The phases (S, M, E) that ``cfg``'s colors show, kept in ``cfg.memo``."""
    cls = cfg.memo.get("phase_class")
    if cls is None:
        cls = cfg.memo["phase_class"] = frozenset(phase_of(c) for c in cfg.colors_present)
    return cls


def _endpoints_near_far(cfg, me):
    """Nearest and furthest endpoint; exact-midpoint ties go to the left one."""
    cc = cfg.cc
    left, right = cc.endpoint_left, cc.endpoint_right
    lat = cfg.lattice.with_point(me)
    if lat.norm(me, left) <= lat.norm(me, right):
        return left, right
    return right, left


def elect_one_lds(cfg, me, light):
    """Line-formation step: contract the hull by the configuration's class.

    Colorless; a collinear configuration is the target condition and yields stay.
    """
    stay = Action(light, me)
    if cfg.on_lds:
        return stay
    hull = cfg.hull
    cls = hull.classification
    if cls is Classification.SYM_NONCONTRACTIBLE:
        center = hull_center(hull)
        if me not in hull.vertices and me != center:
            return Action(light, center)
        return stay
    if cls is Classification.ASYM_NONCONTRACTIBLE:
        # only robots strictly inside move here; a robot already on the
        # boundary walking to its nearest vertex could travel CCW-backward
        # past the perimeter-walk start and break the descent argument
        if not on_hull_boundary(me, hull):
            return Action(light, nearest_vertex(me, hull))
        return stay
    if cls is Classification.SYM_CONTRACTIBLE:
        center = hull_center(hull)
        if me != center:
            return Action(light, center)
        return stay
    for src, dst in cfg.contraction_targets():
        if src == me:
            return Action(light, dst)
    return stay


def _ab_star_b(cc):
    """One endpoint carries color A (possibly mixed), all other points are pure B.

    Matching by color presence rather than by pure factors keeps the rule
    stable when a B robot arrives exactly on the A endpoint.
    """
    a_points = [p for p, f in cc.stations if "A" in f]
    if len(a_points) != 1:
        return None
    p_a = a_points[0]
    if p_a != cc.endpoint_left and p_a != cc.endpoint_right:
        return None
    if all(f == frozenset(("B",)) for p, f in cc.stations if p != p_a):
        return p_a
    return None


def lu_gather(cfg, me, light):
    """Two-color gathering from a collinear configuration."""
    if not cfg.on_lds:
        raise ValueError("lu_gather requires a collinear snapshot")
    cc = cfg.cc
    k = len(cc.stations)
    stay = Action(light, me)
    mid = cc.midpoint
    present = cfg.colors_present

    if present == {"A"}:
        if k == 1:
            return stay
        if k == 2:
            return Action("B", mid)
        pn, _ = _endpoints_near_far(cfg, me)
        if me != pn:
            return Action("A", pn)
        return stay

    if present == {"B"}:
        if k >= 2 and (me == cc.endpoint_left or me == cc.endpoint_right):
            return Action("A", me)
        return stay

    p_a = _ab_star_b(cc)
    if light == "A":
        if p_a is not None:
            return stay
        if cc.has_exact_midpoint and cc.factors == (
            frozenset("A"),
            frozenset("B"),
            frozenset("A"),
        ):
            return Action("B", mid)
        return stay
    if p_a is not None:
        return Action("B", p_a)
    return Action("B", mid)


def lu_gather_in_async(cfg, me, light):
    """Three-color gathering from a collinear configuration, ASYNC-safe.

    Case split on the set of colors present; within each family the guards
    follow the color-class grammar top to bottom, first match wins.
    """
    if not cfg.on_lds:
        raise ValueError("lu_gather_in_async requires a collinear snapshot")
    cc = cfg.cc
    stations = cc.stations
    k = len(stations)
    stay = Action(light, me)
    left, right = cc.endpoint_left, cc.endpoint_right
    mid = cc.midpoint
    pn, _ = _endpoints_near_far(cfg, me)
    present = cfg.colors_present

    if present == {"S"}:
        if k == 2:
            return Action("M", mid)
        if k >= 3 and me != pn:
            return Action("S", pn)
        return stay

    if present == {"S", "M"}:
        s_points = [p for p, f in stations if "S" in f]
        if len(s_points) == 1:
            if light == "S":
                return Action("E", me)
            return stay
        both_ends = set(s_points) == {left, right}
        interior_pure_m = all(
            f == frozenset("M") for p, f in stations if p != left and p != right
        )
        if len(s_points) == 2 and both_ends and interior_pure_m:
            if light == "S":
                return Action("M", mid)
            return stay
        if len(s_points) >= 2 and light == "S":
            return Action("M", me)
        return stay

    if present == {"S", "E"}:
        if k == 2 and light == "E":
            return Action("S", me)
        # the sandwich guards demand the interior station exactly at the
        # midpoint: a robot still in flight is always seen strictly short of
        # it, so a transient merge of stations can never fake this shape
        if cc.has_exact_midpoint and stations[1][1] == frozenset("E"):
            n_e = sum(1 for _, f in stations if "E" in f)
            if n_e > 1 and me == pn and light == "E":
                return Action("S", me)
            if cc.factors == (frozenset("S"), frozenset("E"), frozenset("S")) and light == "S":
                return Action("M", me)
        return stay

    if present == {"M"}:
        return Action("E", me)

    if present == {"M", "E"}:
        e_points = [p for p, f in stations if "E" in f]
        if len(e_points) == 1 and k >= 2:
            p_e = e_points[0]
            if me != p_e:
                return Action(light, p_e)
            return stay
        if light == "M":
            return Action("E", me)
        return stay

    if present == {"E"}:
        if k == 1:
            return stay
        if k == 2:
            return Action("S", me)
        if cc.has_exact_midpoint:
            if me == pn:
                return Action("S", me)
            return stay
        if me != pn:
            return Action("E", mid)
        return stay

    # all three colors present
    se_points = [p for p, f in stations if "S" in f or "E" in f]
    if len(se_points) == 1:
        if light == "S":
            return Action("E", me)
        return stay
    if (
        cc.has_exact_midpoint
        and stations[1][1] == frozenset("E")
        and all("E" not in f for p, f in stations if p != stations[1][0])
        and me == pn
        and light == "S"
    ):
        return Action("M", me)
    return stay


def _inner_view(cfg):
    """The configuration the inner algorithm sees: phase components stripped.

    It is kept in the outer configuration's memo, so every robot evaluated
    on one configuration shares it; it has the outer configuration's Shape,
    so the hull and targets are those of its points.
    """
    memo = cfg.memo
    inner = memo.get("inner_view")
    if inner is None:
        inner = memo["inner_view"] = cfg.recolor(inner_of)
    return inner


_ALL_S = frozenset("S")

# phase class -> (the phase that advances in it, the phase it advances to)
_ROTATION = {
    frozenset("SM"): ("S", "M"),
    frozenset("M"): ("M", "E"),
    frozenset("ME"): ("M", "E"),
    frozenset("E"): ("E", "S"),
    frozenset("ES"): ("E", "S"),
}

_PHASES = ("S", "M", "E")


@dataclass(frozen=True, slots=True)
class AlgorithmSpec:
    """An algorithm's function and alphabet, and what its traces owe the checker.

    ``inner``: the spec a simulation runs, else None.  ``potential``: ``"f"``
    or ``"g"``, the potential every effective round decreases, else None.
    ``goal``: ``"gather"`` or ``"line"``.  ``checks``: its protocol-shape checks.
    """

    id: str
    colors: tuple
    initial: str
    fn: object
    needs_onlds_start: bool = False
    inner: object = None
    potential: object = None
    goal: str = "gather"
    checks: tuple = ()

    def __call__(self, cfg, pos, light):
        act = self.fn(cfg, pos, light)
        if act.color not in self.colors:
            raise AssertionError(f"{self.id} emitted color {act.color!r} outside alphabet")
        return act


def sim_for_unfair(inner, name=None):
    """The simulation of the unfair-SSYNC spec ``inner`` under ASYNC.

    Adds a phase component (S, M, E) rotated through color cycles; ``inner``
    runs only in all-S configurations, on the inner-color view.  A one-color
    ``inner`` never changes a light, so the alphabet is {S, M, E}, else {S, M,
    E} x its colors: 3k for k.  Its traces owe ``cycle`` and ``switch``.
    """
    inner_fn = inner.fn

    def wrapped(cfg, me, light):
        phases = phase_class(cfg)
        if phases == _ALL_S:
            inner_light = inner_of(light)
            act = inner_fn(_inner_view(cfg), me, inner_light)
            if act.changes(me, inner_light):
                color = f"M.{act.color}" if "." in light else "M"
                return Action(color, act.dest, inner_exec=True)
        else:
            rotation = _ROTATION.get(phases)
            if rotation is not None:
                phase, dot, icolor = light.partition(".")
                if phase == rotation[0]:
                    return Action(rotation[1] + dot + icolor, me)
        return Action(light, me)

    colored = len(inner.colors) > 1
    return AlgorithmSpec(
        name or f"sim({inner.id})",
        tuple(f"{p}.{c}" for p in _PHASES for c in inner.colors) if colored else _PHASES,
        f"S.{inner.initial}" if colored else "S",
        wrapped,
        inner.needs_onlds_start,
        inner=inner,
        goal=inner.goal,
        checks=("cycle", "switch") + inner.checks,
    )


def then(first, second, name=None):
    """``first`` until the configuration is on a line, ``second`` from then on.

    A one-color part adds no color: the alphabet is the other parts' colors
    in order, and the initial color is the first such part's.  It reaches
    ``second``'s goal and owes ``first``'s checks.
    """
    first_fn, second_fn = first.fn, second.fn

    def composed(cfg, pos, light):
        return (second_fn if cfg.on_lds else first_fn)(cfg, pos, light)

    colored = [spec for spec in (first, second) if len(spec.colors) > 1] or [first]
    return AlgorithmSpec(
        name or f"then({first.id}, {second.id})",
        tuple(dict.fromkeys(c for spec in colored for c in spec.colors)),
        colored[0].initial,
        composed,
        first.needs_onlds_start,
        goal=second.goal,
        checks=first.checks,
    )


_ELECT = AlgorithmSpec("elect-one-lds", ("O",), "O", elect_one_lds, potential="f", goal="line")
_LU = AlgorithmSpec("lu-gather", ("A", "B"), "A", lu_gather, True, potential="g")
_LU_ASYNC = AlgorithmSpec(
    "lu-gather-async", _PHASES, "S", lu_gather_in_async, True, checks=("shrink",)
)
_SIX = sim_for_unfair(then(_ELECT, _LU), "six-color")
_THREE = then(sim_for_unfair(_ELECT), _LU_ASYNC, "three-color")
ALGORITHMS = {spec.id: spec for spec in (_ELECT, _LU, _SIX, _LU_ASYNC, _THREE)}


def get_algorithm(name):
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None
