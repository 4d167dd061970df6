import copy
import dataclasses
import itertools
import json
import json.scanner
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lumigather import algorithms, configuration, engine
from lumigather.algorithms import get_algorithm
from lumigather.checker import CHECKS, TraceData, default_checks, validate_trace
from lumigather.configuration import ConfigInterner, Configuration, Frame, canonical
from lumigather.engine import (
    AsyncWorld,
    BudgetExhausted,
    EmptyActivation,
    IllegalChoice,
    RandomAsyncPolicy,
    Scenario,
    ScenarioError,
    SyncWorld,
    Trace,
    _pick_fraction,
    apply_move,
    enabled_ids,
    run,
    ssync_round,
)
from lumigather.fuzz import random_scenario, run_with_checks
from lumigather.geometry import Point, dist_sq, is_on_lds, pt
from lumigather.rational import Rat, min_rat_ge_sqrt

from conftest import observe
from test_geometry import along, wide_points

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scen(robots, **kw):
    base = dict(
        delta=Rat(1), scheduler="async", algorithm="three-color", seed=0,
        step_budget=50000,
    )
    base.update(kw)
    return Scenario(robots=tuple((pt(*p), c) for p, c in robots), **base)


def bookkeeping(w):
    """What an AsyncWorld keeps besides its robots: clock, steps, the incremental state."""
    return (
        w.t, w.steps, list(w.ready), list(w.movers), w.busy,
        list(w.stamps.items()), list(w.shown), w.visible,
    )


def world_state(w):
    """The bookkeeping, every robot slot and the trace text of an AsyncWorld."""
    robots = [tuple(getattr(r, s) for s in r.__slots__) for r in w.robots]
    return bookkeeping(w), robots, w.trace.dumps()


class TestApplyMove:
    def test_halfway(self):
        assert apply_move(pt(0, 0), pt(10, 0), Rat(1, 2), Rat(1)) == pt(5, 0)

    def test_clamped_up_to_delta(self):
        assert apply_move(pt(0, 0), pt(10, 0), Rat(1, 100), Rat(1)) == pt(1, 0)

    def test_short_move_reaches(self):
        for frac in (Rat(1, 100), Rat(1, 2), Rat(1)):
            assert apply_move(pt(0, 0), pt((1, 2), 0), frac, Rat(1)) == pt((1, 2), 0)

    def test_irrational_clamp_stays_rational_and_legal(self):
        origin, dest, delta = pt(0, 0), pt(3, 3), Rat(2)
        got = apply_move(origin, dest, Rat(1, 1000), delta)
        assert got != dest
        assert dist_sq(origin, got) >= delta * delta
        # landing point stays on the segment
        assert got.x == got.y and 0 < got.x < 3

    def test_fraction_respected_when_long_enough(self):
        assert apply_move(pt(0, 0), pt(8, 0), Rat(3, 4), Rat(1)) == pt(6, 0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            apply_move(pt(0, 0), pt(1, 0), Rat(0), Rat(1))


def ref_apply_move(origin, dest, fraction, delta):
    """``apply_move`` by Fraction arithmetic."""
    if dest == origin:
        return origin
    d2 = (dest.x - origin.x) ** 2 + (dest.y - origin.y) ** 2
    dd = delta * delta
    if d2 <= dd or fraction == 1:
        return dest
    lam = fraction
    if lam * lam * d2 < dd:
        lam = min_rat_ge_sqrt(dd / d2)
        if lam >= 1:
            return dest
    return along(origin, dest, lam)


@st.composite
def move_ends(draw):
    """(origin, dest): two wide points, one point twice, or a short step off a wide point."""
    origin, far = draw(wide_points(2))
    kind = draw(st.sampled_from(["far", "zero", "near"]))
    if kind == "far":
        return origin, far
    if kind == "zero":
        return origin, origin
    step = [Rat(draw(st.integers(-3, 3)), draw(st.integers(1, 8))) for _ in range(2)]
    return origin, Point(origin.x + step[0], origin.y + step[1])


@given(
    move_ends(),
    st.one_of(st.just(Rat(1)), st.fractions(Rat(1, 4), 1)),
    st.sampled_from([Rat(1, 4), Rat(1), Rat(2)]),
)
@example((pt(0, 0), pt((1, 2), 0)), Rat(1, 2), Rat(1))  # within delta
@example((pt(0, 0), pt(10, 0)), Rat(1), Rat(1))  # fraction 1
@example((pt(3, 3), pt(3, 3)), Rat(1, 2), Rat(1))  # zero length
@example((pt(0, 0), pt(3, 4)), Rat(1, 4), Rat(2))  # clamped to the rational 2/5
@example((pt(0, 0), pt(1, 2)), Rat(1, 4), Rat(2))  # clamped to 29/32 above sqrt(4/5)
@example((pt(0, 0), pt(1, (1, 8))), Rat(1, 4), Rat(1))  # clamped up to 1: reaches dest
def test_apply_move_is_the_fraction_formula(ends, fraction, delta):
    assert apply_move(*ends, fraction, delta) == ref_apply_move(*ends, fraction, delta)


class TestSsyncRound:
    def test_rectangle_reaches_line_in_one_round(self):
        alg = get_algorithm("elect-one-lds")
        w = SyncWorld([pt(0, 0), pt(4, 0), pt(4, 1), pt(0, 1)], ["O"] * 4)
        movers = enabled_ids(w, alg)
        w2 = ssync_round(w, alg, movers, {i: Rat(1) for i in movers}, Rat(1))
        assert is_on_lds(w2.positions)

    def test_no_enabled_fixpoint(self):
        alg = get_algorithm("elect-one-lds")
        w = SyncWorld([pt(0, 0), pt(4, 0)], ["O", "O"])
        assert enabled_ids(w, alg) == []
        assert ssync_round(w, alg, [0, 1], {}, Rat(1)) is w

    def test_empty_activation(self):
        alg = get_algorithm("elect-one-lds")
        w = SyncWorld([pt(0, 0), pt(4, 0)], ["O", "O"])
        with pytest.raises(EmptyActivation):
            ssync_round(w, alg, [], {}, Rat(1))


class TestEnabled:
    def test_lu_gather_aa_endpoint(self):
        w = SyncWorld([pt(0, 0), pt(2, 0)], ["A", "A"])
        assert 0 in enabled_ids(w, get_algorithm("lu-gather"))

    def test_lu_gather_abstarb_a_robot(self):
        w = SyncWorld([pt(0, 0), pt(1, 0), pt(3, 0)], ["A", "B", "B"])
        assert 0 not in enabled_ids(w, get_algorithm("lu-gather"))
        assert 2 in enabled_ids(w, get_algorithm("lu-gather"))

    def test_gathered_point(self):
        w = SyncWorld([pt(1, 1), pt(1, 1)], ["A", "A"])
        assert enabled_ids(w, get_algorithm("lu-gather")) == []


class TestObserveTiming:
    """Asynchronous visibility rules driven through explicit adversary choices."""

    def _world(self, **kw):
        sc = scen(
            [((0, 0), "S"), ((8, 0), "S")],
            scheduler="async",
            algorithm="lu-gather-async",
            fairness_bound=100,
            **kw,
        )
        return AsyncWorld(sc)

    def test_former_color_at_compute_instant(self):
        w = self._world()
        w.async_step(("look", 0))
        w.async_step(("look", 1))
        w.async_step(("advance",))
        w.async_step(("compute", 0))  # t_C = 1: S -> M
        cfg, _, _ = observe(w, 1)
        assert cfg.points[pt(0, 0)] == frozenset({"S"})
        w.async_step(("advance",))
        cfg, _, _ = observe(w, 1)
        assert cfg.points[pt(0, 0)] == frozenset({"M"})

    def test_mover_positions(self):
        w = self._world()
        w.async_step(("look", 0))
        w.async_step(("advance",))
        w.async_step(("compute", 0))  # dest (4, 0)
        w.async_step(("advance",))
        w.async_step(("move_begin", 0, Rat(1)))  # t_B = 2, reach (4, 0)
        cfg, pos, _ = observe(w, 1)
        assert pos == pt(8, 0)
        assert pt(0, 0) in cfg.points  # origin at t_B
        w.async_step(("advance",))  # t = 3
        _, p3, _ = observe(w, 0)
        assert 0 < dist_sq(pt(0, 0), p3) < dist_sq(pt(0, 0), pt(4, 0))
        w.async_step(("advance",))  # t = 4
        _, p4, _ = observe(w, 0)
        assert dist_sq(pt(0, 0), p3) < dist_sq(pt(0, 0), p4) < 16
        w.async_step(("move_end", 0))  # t_E = 4: still seen short of reach
        assert observe(w, 0)[1] == p4
        w.async_step(("advance",))  # t = 5 = t_E + 1: destination visible
        assert observe(w, 0)[1] == pt(4, 0)

    def test_move_end_before_tb_plus_one_illegal(self):
        w = self._world()
        w.async_step(("look", 0))
        w.async_step(("advance",))
        w.async_step(("compute", 0))
        w.async_step(("advance",))
        w.async_step(("move_begin", 0, Rat(1)))
        with pytest.raises(IllegalChoice):
            w.async_step(("move_end", 0))

    def test_rejected_choice_leaves_the_world_unchanged(self):
        # eight legal steps; the world is not terminal, so the run ends on
        # its step budget
        w = self._world(step_budget=8)
        for choice in (
            ("look", 0),
            ("advance",),
            ("compute", 0),
            ("advance",),
            ("move_begin", 0, Rat(1)),
        ):
            w.async_step(choice)
        before = world_state(w)
        with pytest.raises(IllegalChoice):
            w.async_step(("advance", {0: Rat(2)}))
        with pytest.raises(IllegalChoice):
            w.async_step(("move_end", 0))
        assert world_state(w) == before
        for choice in (("advance",), ("move_end", 0), ("advance",)):
            w.async_step(choice)
        w.trace.end(w.t, "budget")
        # instant 1 shows nothing new: robot 0's color shows from 2
        assert [ln["t"] for ln in w.trace.lines if ln["kind"] == "Config"] == [0, 2, 3, 4]
        assert validate_trace(w.trace).passed

    @pytest.mark.parametrize(
        "choice,message",
        [
            ((), "not a non-empty tuple"),
            (["look", 0], "not a non-empty tuple"),
            (("look",), "names no robot"),
            (("advance", "x"), "is not a map"),
            (("look", 0, "junk", 5), "trailing elements"),
            (("compute", 0, None), "trailing elements"),
            (("move_begin", 0, Rat(1), "junk"), "trailing elements"),
            (("move_end", 0, 0), "trailing elements"),
            (("advance", None, "more"), "trailing elements"),
        ],
        ids=[
            "empty",
            "list",
            "no-robot",
            "string-progress",
            "look-trailing",
            "compute-trailing",
            "move-begin-trailing",
            "move-end-trailing",
            "advance-trailing",
        ],
    )
    def test_malformed_choice_is_illegal(self, choice, message):
        w = AsyncWorld(Scenario.load(SCENARIOS / "square.json"))
        before = world_state(w)
        with pytest.raises(IllegalChoice, match=message):
            w.async_step(choice)
        assert world_state(w) == before
        w.async_step(("look", 0))

    @pytest.mark.parametrize(
        "mus,message",
        [
            ([Rat(1, 2)], "is not a map"),
            ({7: Rat(1, 2)}, r"robots \[7\], which are not moving"),
            ({0: Rat(1, 2), 1: Rat(1, 2)}, r"robots \[1\], which are not moving"),
        ],
        ids=["list", "unknown-robot", "idle-robot"],
    )
    def test_progress_that_is_no_map_of_movers_is_illegal(self, mus, message):
        w = self._square_computed()
        w.async_step(("move_begin", 0, Rat(1, 2)))
        before = world_state(w)
        with pytest.raises(IllegalChoice, match=message):
            w.async_step(("advance", mus))
        assert world_state(w) == before
        w.async_step(("advance", {0: Rat(1, 2)}))

    @pytest.mark.parametrize("rid", [-1, True, 4, "0"])
    def test_robot_id_outside_the_world_is_illegal(self, rid):
        w = AsyncWorld(Scenario.load(SCENARIOS / "square.json"))  # robots 0..3
        before = world_state(w)
        with pytest.raises(IllegalChoice, match="robot id"):
            w.async_step(("look", rid))
        assert world_state(w) == before

    @staticmethod
    def _square_computed():
        """square.json with robot 0 computed, its move not yet begun."""
        w = AsyncWorld(Scenario.load(SCENARIOS / "square.json"))
        for choice in (("look", 0), ("advance",), ("compute", 0), ("advance",)):
            w.async_step(choice)
        return w

    @pytest.mark.parametrize("frac", [Rat(2), Rat(0), Rat(-1, 2), 0.5, 1])
    def test_move_truncation_outside_the_rationals_in_0_1_is_illegal(self, frac):
        w = self._square_computed()
        before = world_state(w)
        with pytest.raises(IllegalChoice, match="truncation"):
            w.async_step(("move_begin", 0, frac))
        assert world_state(w) == before
        w.async_step(("move_begin", 0, Rat(1, 2)))

    @pytest.mark.parametrize("mu", [0.5, Rat(1), Rat(0), 1])
    def test_progress_outside_the_rationals_in_mu_1_is_illegal(self, mu):
        w = self._square_computed()
        w.async_step(("move_begin", 0, Rat(1, 2)))
        before = world_state(w)
        with pytest.raises(IllegalChoice, match="progress"):
            w.async_step(("advance", {0: mu}))
        assert world_state(w) == before
        w.async_step(("advance", {0: Rat(1, 2)}))

    def test_advance_past_the_move_span_cap_is_illegal(self):
        w = AsyncWorld(
            scen([((0, 0), "S"), ((8, 0), "S")], algorithm="lu-gather-async", move_span_cap=1)
        )
        for choice in (
            ("look", 0),
            ("advance", None),
            ("compute", 0),
            ("advance", None),
            ("move_begin", 0, Rat(1)),
            ("advance", None),
        ):
            w.async_step(choice)
        before = world_state(w)
        with pytest.raises(IllegalChoice, match="move span cap reached"):
            w.async_step(("advance", None))
        assert world_state(w) == before
        w.async_step(("move_end", 0))
        w.async_step(("advance", None))

    def test_advance_that_starves_a_robot_is_illegal(self):
        w = AsyncWorld(
            scen([((0, 0), "S"), ((8, 0), "S")], algorithm="lu-gather-async", fairness_bound=2)
        )
        w.async_step(("look", 0))
        w.async_step(("advance", None))  # robot 1 has not acted for two steps
        before = world_state(w)
        with pytest.raises(IllegalChoice, match="fairness: robot 1 starved beyond bound"):
            w.async_step(("advance", None))
        assert world_state(w) == before
        w.async_step(("look", 1))

    def test_compute_at_look_instant_illegal(self):
        w = self._world()
        w.async_step(("look", 0))
        with pytest.raises(IllegalChoice):
            w.async_step(("compute", 0))

    def test_fairness_bound_enforced(self):
        sc = scen(
            [((0, 0), "S"), ((8, 0), "S")],
            algorithm="lu-gather-async",
            fairness_bound=2,
        )
        w = AsyncWorld(sc)
        w.async_step(("look", 0))
        w.async_step(("advance",))
        with pytest.raises(IllegalChoice) as exc:
            w.async_step(("compute", 0))
        assert "fairness" in str(exc.value)


@pytest.mark.parametrize("policy", engine.POLICIES)
def test_shown_state_matches_the_checker_replay(policy):
    """What the engine shows at each step is what the checker re-derives.

    The checker replays the timing rules from the logged events alone, so
    every step of an instant, advances and events alike, must show the
    instant's replayed configuration and each robot's replayed position and
    light.
    """
    sc = random_scenario(random.Random(67), "three-color", "async", 5, bound=8, policy=policy)
    w = AsyncWorld(sc)
    adversary = engine._make_policy(sc, random.Random(sc.seed))
    n = len(w.robots)
    seen = []
    while not w.is_terminal():
        w.async_step(adversary.step(w))
        own = [observe(w, i)[1:] for i in range(n)]
        seen.append((w.t, w.visible.entries, own))
    td = TraceData(w.trace)
    for t, entries, own in seen:
        assert entries == td.replayed(t).entries
        assert own == [td.shown(t)[i] for i in range(n)]
    assert len(seen) > 100 and w.t > 10


def reference_legal(phase, t, last):
    """The per-phase guards the engine's legality used to evaluate.

    ``last`` maps each event kind to the instant of the robot's latest one
    (-1 before any).
    """
    if phase == engine.IDLE:
        ok = (last["move_begin"] == -1 or t >= last["move_end"] + 1) and t > last["compute"]
        return ["look"] if ok else []
    if phase == engine.OBSERVED:
        return ["compute"] if t > last["look"] else []
    if phase == engine.COMPUTED:
        return ["move_begin"] if t > last["compute"] else []
    return ["move_end"] if t >= last["move_begin"] + 1 else []


@pytest.mark.parametrize("policy", engine.POLICIES)
def test_legality_and_starvation_match_the_guard_reference(policy):
    """One legal event per robot per instant, recounted from the guards.

    The world's incremental bookkeeping (the ready robots, the movers, the
    busy count and every robot's starvation) is recounted from scratch after
    every step, and a rejected choice leaves all of it as it was.
    """
    sc = random_scenario(random.Random(61), "three-color", "async", 5, bound=8, policy=policy)
    w = AsyncWorld(sc)
    adversary = engine._make_policy(sc, random.Random(sc.seed))
    n = len(w.robots)
    last = [dict.fromkeys(("look", "compute", "move_begin", "move_end"), -1) for _ in range(n)]
    starve = [0] * n
    steps = 0
    while not w.is_terminal():
        for i, r in enumerate(w.robots):
            event = w.next_event(i)
            assert ([] if event is None else [event]) == reference_legal(r.phase, w.t, last[i])
            assert w.steps - w.stamps.get(i, w.steps) == starve[i]  # 0 once it acted now
        rs = w.robots
        assert w.ready == [i for i in range(n) if reference_legal(rs[i].phase, w.t, last[i])]
        assert w.movers == [i for i in range(n) if rs[i].phase == engine.MOVING]
        assert w.busy == sum(r.phase != engine.IDLE for r in rs)
        # most starved first, ties in index order
        assert list(w.stamps) == sorted(w.ready, key=lambda i: (-starve[i], i))
        choice = adversary.step(w)
        # a Look by a robot that has acted at this instant and a progress
        # fraction for a robot that is not moving change nothing
        before = bookkeeping(w), len(w.trace.lines)
        for bad in (
            *(("look", i) for i in range(n) if i not in w.ready),
            *(("advance", {i: Rat(1, 2)}) for i in range(n) if i not in w.movers),
        ):
            with pytest.raises(IllegalChoice):
                w.async_step(bad)
        assert (bookkeeping(w), len(w.trace.lines)) == before
        w.async_step(choice)
        steps += 1
        acted = None if choice[0] == "advance" else choice[1]
        if acted is not None:
            last[acted][choice[0]] = w.t
        for i, r in enumerate(w.robots):
            if i == acted:
                starve[i] = 0
            elif reference_legal(r.phase, w.t, last[i]):
                starve[i] += 1
    assert steps > 100 and w.t > 10


class TestConfigInterner:
    def test_every_order_gives_the_one_canonical_configuration(self):
        entries = [(pt(2, 0), "S"), (pt(0, 1), "M"), (pt(0, 1), "E"), (pt(2, 0), "S")]
        interner = ConfigInterner()
        first = interner.get(tuple(entries))
        assert first.entries == canonical(entries)
        for perm in itertools.permutations(entries):
            cfg = interner.get(perm)
            assert cfg is first
            assert cfg.entries == canonical(entries)


class TestShapes:
    """Position-only geometry: one Shape per point set and per interner."""

    @staticmethod
    def _run_capturing(monkeypatch, sc):
        """``run(sc)`` and the AsyncWorld that produced it."""
        worlds = []

        class Captured(AsyncWorld):
            def __init__(self, scenario):
                super().__init__(scenario)
                worlds.append(self)

        monkeypatch.setattr(engine, "AsyncWorld", Captured)
        trace = run(sc)
        return trace, worlds[0]

    @pytest.mark.parametrize("algorithm", ["six-color", "three-color"])
    def test_an_engine_run_computes_geometry_once_per_point_set(self, monkeypatch, algorithm):
        calls = {}
        for name in ("is_on_lds", "convex_hull"):
            counter = calls[name] = Counter()

            def counting(points, *rest, original=getattr(configuration, name), counter=counter):
                counter[tuple(points)] += 1
                return original(points, *rest)

            monkeypatch.setattr(configuration, name, counting)
        sc = random_scenario(random.Random(17), algorithm, "async", 5, bound=8)
        _, world = self._run_capturing(monkeypatch, sc)
        shapes = world.cache._shapes
        for counter in calls.values():
            assert counter and set(counter) <= set(shapes)
            assert max(counter.values()) == 1
        # the configurations far outnumber the point sets they color
        assert len(shapes) < len(set(world.cache._cache.values()))

    def test_six_color_builds_no_shape_outside_all_s(self, monkeypatch):
        sc = random_scenario(random.Random(17), "six-color", "async", 5, bound=8)
        _, world = self._run_capturing(monkeypatch, sc)
        configs = set(world.cache._cache.values())
        mixed = [cfg for cfg in configs if algorithms.phase_class(cfg) != frozenset("S")]
        assert mixed and all(cfg._shape is None for cfg in mixed)

    def test_the_checker_never_reads_a_shape_of_the_engine(self, monkeypatch):
        sc = random_scenario(random.Random(17), "three-color", "async", 5, bound=8)
        trace, world = self._run_capturing(monkeypatch, sc)
        parsed = Trace.parse(trace.dumps())
        for name in default_checks("three-color", "async"):
            assert CHECKS[name](parsed).passed
        td = TraceData.of(parsed)
        tables = [world.cache, td.cache]
        for interner in tables:
            for cfg in interner._cache.values():
                assert cfg._shape is None or cfg._shape is interner._shapes[cfg.occupied]
        engine_shapes, checker_shapes = ({id(s) for s in c._shapes.values()} for c in tables)
        assert engine_shapes and checker_shapes
        assert not engine_shapes & checker_shapes

    def test_recolor_shares_the_shape_and_equality_reads_entries_alone(self):
        entries = ((pt(0, 0), "S.M"), (pt(4, 0), "S.O"), (pt(2, 5), "S.M"))
        outer = ConfigInterner().get(entries)
        view = algorithms._inner_view(outer)
        assert view.shape is outer.shape
        assert view.entries == canonical((p, algorithms.inner_of(c)) for p, c in entries)
        assert view.hull is outer.hull and view.on_lds is outer.on_lds
        # built without an interner: a Shape of its own, equal analyses, and
        # equal and hashed as the interned one since the entries are
        direct = Configuration(canonical(entries))
        assert direct.shape is not outer.shape
        assert direct.occupied == outer.occupied
        assert direct.classification is outer.classification
        assert direct == outer and hash(direct) == hash(outer)
        assert view != outer
        frame = Frame.from_triple(3, 4, 5, scale=2, tx=1, ty=-1)
        moved = frame.apply_config(outer)
        assert moved.classification is outer.classification
        assert moved.occupied == tuple(sorted(map(frame.apply, outer.occupied), key=Point.order_key))


class TestRun:
    def test_single_robot_immediately_gathered(self):
        tr = run(scen([((1, 1), "S")]))
        assert TraceData.of(tr).status == "gathered"
        assert not any(ln["kind"] == "MoveBegin" for ln in tr.lines)

    def test_two_robots_async_gathers(self):
        tr = run(scen([((0, 0), "S"), ((5, 3), "S")], seed=9))
        assert TraceData.of(tr).status == "gathered"

    def test_zero_delta_rejected(self):
        with pytest.raises(ScenarioError):
            scen([((0, 0), "S")], delta=Rat(0))

    def test_determinism_byte_for_byte(self):
        sc = scen([((0, 0), "S"), ((4, 0), "S"), ((4, 4), "S")], seed=5)
        assert run(sc).dumps() == run(sc).dumps()

    def test_budget_exhausted_carries_config(self):
        sc = scen([((0, 0), "S"), ((40, 0), "S"), ((17, 23), "S")], step_budget=10)
        with pytest.raises(BudgetExhausted) as exc:
            run(sc)
        assert TraceData.of(exc.value.trace).status == "budget"
        assert validate_trace(exc.value.trace).passed

    def test_checks_skip_a_run_that_exhausts_its_budget(self):
        sc = dataclasses.replace(Scenario.load(SCENARIOS / "square.json"), step_budget=5)
        out = run_with_checks(sc)
        assert out.budget_exhausted and TraceData.of(out.trace).status == "budget"
        assert out.reports == [] and not out.ok

    def test_zero_movement_cycles_omit_move_events(self):
        # all-M collinear start: the first activations only flip colors
        sc = scen(
            [((0, 0), "M"), ((6, 0), "M"), ((2, 0), "M")],
            algorithm="lu-gather-async",
            seed=2,
        )
        tr = run(sc)
        computes = [ln for ln in tr.lines if ln["kind"] == "Compute"]
        assert computes[0]["color"] == "E"
        assert TraceData.of(tr).status == "gathered"
        # cycles whose Compute stays put must show no Move events at all
        per_robot = {}
        for ln in tr.lines:
            if ln["kind"] in ("Look", "Compute", "MoveBegin"):
                per_robot.setdefault(ln["robot"], []).append(ln["kind"])
        stay_cycles = 0
        for kinds in per_robot.values():
            for a, b in zip(kinds, kinds[1:]):
                if a == "Compute" and b == "Look":
                    stay_cycles += 1
        assert stay_cycles > 0
        assert validate_trace(tr).passed

    def test_unfair_ssync_reaches_line(self):
        sc = scen(
            [((0, 0), "O"), ((7, 0), "O"), ((5, 6), "O"), ((-3, 2), "O")],
            scheduler="ssync-unfair",
            algorithm="elect-one-lds",
            delta=Rat(1, 4),
            step_budget=10000,
            seed=3,
        )
        tr = run(sc)
        assert TraceData.of(tr).status in ("fixpoint", "gathered")
        final = tr.lines[-2]
        assert final["kind"] == "Config"
        points = [pt((Rat(e[0]), Rat(e[1]))) for e in final["entries"]]
        assert is_on_lds(points)

    def test_fair_ssync_activates_every_robot_within_its_bound(self):
        sc = dataclasses.replace(
            Scenario.load(SCENARIOS / "line-lu.json"), scheduler="ssync", fairness_bound=2
        )
        tr = run(sc)
        rounds = [(l["t"], l["activated"]) for l in tr.lines if l["kind"] == "RoundStart"]
        assert len(rounds) > 10
        for rid in range(len(sc.robots)):
            acted = [0] + [t for t, ids in rounds if rid in ids]
            assert max(b - a for a, b in zip(acted, acted[1:])) <= 2, rid
        assert validate_trace(tr).passed

    def test_unfair_ssync_at_bound_1_activates_an_enabled_robot_every_round(self):
        sc = dataclasses.replace(Scenario.load(SCENARIOS / "line-lu.json"), fairness_bound=1)
        tr = run(sc)
        rep = CHECKS["monotone"](tr)
        rounds = sum(l["kind"] == "RoundStart" for l in tr.lines)
        assert rep.passed and rep.extras["effective_rounds"] == rounds > 5

    @pytest.mark.parametrize("policy", ["random", "round-robin", "ssync-embedded"])
    def test_policies_all_gather_and_replay(self, policy):
        sc = scen(
            [((0, 0), "S"), ((4, 0), "S"), ((1, 3), "S")], policy=policy, seed=13
        )
        tr = run(sc)
        assert TraceData.of(tr).status == "gathered"
        assert validate_trace(tr).passed


@pytest.mark.parametrize("policy", ["random", "rigid", "stingy"])
@pytest.mark.parametrize("n", range(2, 7))
def test_async_fairness_bound_n_is_the_least_one_the_random_policies_keep(policy, n):
    sc = random_scenario(random.Random(n), "three-color", "async", n, bound=8, policy=policy)
    with pytest.raises(ScenarioError, match=f"async fairness_bound {n - 1} is below n={n}"):
        dataclasses.replace(sc, fairness_bound=n - 1)
    tr = run(dataclasses.replace(sc, fairness_bound=n))
    assert TraceData.of(tr).status == "gathered" and validate_trace(tr).passed


class TestTruncation:
    @pytest.mark.parametrize(
        "policy,fraction",
        [("stingy", Rat(1, 1024)), ("ssync-stingy", Rat(1, 1024)), ("rigid", Rat(1)),
         ("round-robin", Rat(1)), ("random", None), ("ssync-embedded", None)],
    )
    def test_pick_fraction_and_its_draws(self, policy, fraction):
        # constant policies draw nothing and the others draw once, so async
        # traces keep their random stream
        rng, twin = random.Random(3), random.Random(3)
        got = _pick_fraction(policy, rng)
        if fraction is None:
            assert got in (Rat(1), Rat(3, 4), Rat(1, 2), Rat(1, 4))
            twin.randrange(4)
        else:
            assert got == fraction
        assert rng.getstate() == twin.getstate()

    def test_round_based_ssync_stingy_truncates_to_1_1024(self):
        sc = scen(
            [((0, 0), "A"), ((1024, 0), "A")],
            scheduler="ssync",
            algorithm="lu-gather",
            policy="ssync-stingy",
            delta=Rat(1, 4),
            step_budget=3,
        )
        with pytest.raises(BudgetExhausted) as exc:
            run(sc)
        reaches = [ln["reach"] for ln in exc.value.trace.lines if ln["kind"] == "MoveBegin"]
        # both endpoints head for the midpoint 512: 1/1024 of the way is 1/2
        assert reaches and all(r in (["1/2", "0/1"], ["2047/2", "0/1"]) for r in reaches)


def test_action_memo_saves_engine_evaluations_only(monkeypatch):
    calls = [0]
    evaluate = algorithms.AlgorithmSpec.__call__

    def counting(self, cfg, pos, light):
        calls[0] += 1
        return evaluate(self, cfg, pos, light)

    monkeypatch.setattr(algorithms.AlgorithmSpec, "__call__", counting)
    sc = random_scenario(random.Random(17), "three-color", "async", 5, bound=8)

    def measure():
        calls[0] = 0
        trace = run(sc)
        engine_evals, calls[0] = calls[0], 0
        reports = [str(CHECKS[name](trace)) for name in default_checks("three-color", "async")]
        return trace.dumps(), engine_evals, calls[0], reports

    memoized = measure()
    monkeypatch.setattr(engine, "memo_action", lambda alg, cfg, pos, light: alg(cfg, pos, light))
    plain = measure()
    assert memoized[0] == plain[0]
    assert memoized[1] < plain[1]
    assert memoized[2:] == plain[2:]


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        sc = scen([((0, 0), "S"), ((4, 0), "S")], seed=77)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(sc.to_json()))
        assert Scenario.load(p) == sc

    def test_zero_denominator_rejected(self, tmp_path):
        data = scen([((0, 0), "S")]).to_json()
        data["delta"] = "1/0"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ScenarioError):
            Scenario.load(p)

    @pytest.mark.parametrize(
        "raw,message",
        [
            (b"\xff\xfe{}", "scenario is not UTF-8"),
            (b"[" * 200_000, "invalid scenario JSON: nested too deeply"),
        ],
        ids=["not-utf-8", "nested-too-deeply"],
    )
    def test_undecodable_file_rejected(self, tmp_path, raw, message):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        with pytest.raises(ScenarioError, match=message):
            Scenario.load(p)

    def test_color_outside_alphabet(self):
        with pytest.raises(ScenarioError):
            scen([((0, 0), "A")])

    def test_lu_gather_requires_collinear_start(self):
        with pytest.raises(ScenarioError):
            scen(
                [((0, 0), "A"), ((1, 0), "A"), ((0, 1), "A")],
                algorithm="lu-gather",
                scheduler="ssync-unfair",
            )

    def test_parsed_trace_logs_fresh_lists(self):
        tr = Trace.parse(run(scen([((0, 0), "S"), ((4, 0), "S")], seed=1)).dumps())
        p = pt(1, (1, 2))
        tr.config_line(9, ConfigInterner().get(((p, "S"),)))
        tr.lines[-1]["entries"][0][0] = "0/1"
        tr.move_end(9, 0, p)
        assert tr.lines[-1]["pos"] == ["1/1", "1/2"]

    def test_trace_file_round_trip(self, tmp_path):
        tr = run(scen([((0, 0), "S"), ((4, 0), "S")], seed=1))
        p = tmp_path / "t.jsonl"
        tr.write(p)
        back = Trace.load(p)
        assert back.lines == [json.loads(json.dumps(l)) for l in tr.lines]
        assert TraceData.of(back).status == TraceData.of(tr).status


# JSON values as ``json.loads`` returns them: unicode and escapes in strings
# and keys, nested arrays and objects, ints, bools and null
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def _compact(line):
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


class TestTraceText:
    """``Trace.dumps`` and ``Trace.parse``: one JSON object per line."""

    def _trace(self):
        return run(scen([((0, 0), "S"), ((5, 1), "S"), ((2, 7), "S")], seed=3))

    @given(st.lists(st.dictionaries(st.text(), _JSON, max_size=5), max_size=6))
    def test_any_lines_round_trip(self, lines):
        tr = Trace([{"algorithm": "three-color", "kind": "Header"}, *lines])
        text = tr.dumps()
        assert text == "".join(_compact(l) + "\n" for l in tr.lines)
        assert Trace.parse(text).lines == json.loads(json.dumps(tr.lines))

    def test_pure_python_json_gives_the_same_text_and_lines(self, monkeypatch):
        tr = self._trace()
        text = tr.dumps()
        decoder = json.JSONDecoder()
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        monkeypatch.setattr(engine, "c_make_encoder", None)
        monkeypatch.setattr(engine, "_DECODER", decoder)
        assert tr.dumps() == text
        assert Trace.parse(text).lines == tr.lines

    def test_blank_lines_crlf_and_spaced_separators_accepted(self):
        tr = self._trace()
        text = "\n" + "".join("\t" + json.dumps(l) + " \r\n\r\n" for l in tr.lines)
        back = Trace.parse(text)
        assert back.lines == tr.lines
        back_td, td = TraceData.of(back), TraceData.of(tr)
        assert (back_td.status, back_td.end_time) == (td.status, td.end_time)
        assert back.dumps() == tr.dumps()

    def test_first_end_line_decides_status_as_in_trace_data(self):
        tr = self._trace()
        end = TraceData.of(tr)
        assert end.status == "gathered"
        rows = [_compact(l) for l in tr.lines]
        # before the last Config line, so that the lines stay in time order
        rows.insert(-2, _compact({"kind": "End", "t": end.end_time - 1, "status": "fixpoint"}))
        td = TraceData(Trace.parse("".join(r + "\n" for r in rows)))
        assert (td.status, td.end_time) == ("fixpoint", end.end_time - 1)

    @pytest.mark.parametrize(
        "damage,message",
        [
            ("two-values-on-a-line", "more than one value"),
            ("value-over-two-lines", "spans two lines"),
            ("non-object-line", "not a JSON object"),
            ("non-json-line", "Expecting value"),
            ("truncated", "Expecting"),
            ("nested-too-deeply", "trace line 3: nested too deeply"),
        ],
    )
    def test_malformed_text_rejected(self, damage, message):
        rows = [_compact(l) for l in self._trace().lines]
        if damage == "two-values-on-a-line":
            rows[2:4] = [rows[2] + " " + rows[3]]
        elif damage == "value-over-two-lines":
            rows[2] = rows[2].replace(",", ",\n", 1)
        elif damage == "non-object-line":
            rows.insert(2, "[1, 2]")
        elif damage == "non-json-line":
            rows.insert(2, "x")
        elif damage == "nested-too-deeply":  # deeper than the decoder's recursion limit
            rows.insert(2, "[" * 200_000)
        text = "".join(r + "\n" for r in rows)
        if damage == "truncated":
            text = text[:-4]
        with pytest.raises(ValueError, match=message):
            Trace.parse(text)

    @pytest.mark.parametrize("parsed", [False, True], ids=["logged", "parsed"])
    def test_editing_a_config_line_changes_no_other_line(self, parsed):
        tr = self._trace()
        if parsed:
            tr = Trace.parse(tr.dumps())
        configs = [l for l in tr.lines if l["kind"] == "Config"]
        # a configuration that recurs gets lists of its own in each of its Config lines
        entries = [c["entries"] for c in configs]
        i = next(k for k in range(len(entries)) if entries[k] in entries[k + 1:])
        before = copy.deepcopy(tr.lines)
        configs[i]["entries"][0][0] = "99/1"
        configs[i]["entries"].append(["0/1", "0/1", "S"])
        changed = [k for k, (a, b) in enumerate(zip(before, tr.lines)) if a != b]
        assert changed == [tr.lines.index(configs[i])]


def test_replay_validation_over_random_runs():
    for seed in range(6):
        sc = scen(
            [((0, 0), "S"), ((5, 1), "S"), ((2, 7), "S"), ((-3, 2), "S")],
            seed=seed,
        )
        rep = validate_trace(run(sc))
        assert rep.passed, rep
