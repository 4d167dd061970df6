"""The package builds no reference cycles, and its paused entry points say so.

``configuration.collector_paused`` turns CPython's cyclic garbage collector
off for the length of ``engine.run``, ``Trace.dumps``, ``Trace.parse``, every
check behind ``checker.CHECKS``, ``checker.enumerate_unfair`` and
``fuzz.run_with_checks``.  That frees nothing late only while reference
counting frees everything those calls allocate:
``test_workloads_leave_no_cyclic_garbage`` runs every algorithm under every
scheduler and policy, and each failure path, with the collector off and
asserts that ``gc.collect()`` then finds nothing.  If it ever fails, the fix
is to break the new cycle, not to loosen the test.

The other tests pin the collector's state around each entry point: on after
the call, also when it raises, unless the caller had turned it off, and off
until the outermost of nested paused calls returns.
"""

import gc
import random

import pytest

from lumigather import checker, engine, fuzz
from lumigather.algorithms import ALGORITHMS
from lumigather.checker import CHECKS, enumerate_unfair
from lumigather.configuration import collector_paused
from lumigather.engine import (
    POLICIES,
    SCHEDULERS,
    BudgetExhausted,
    Scenario,
    ScenarioError,
    Trace,
    run,
)
from lumigather.fuzz import random_scenario
from lumigather.geometry import pt
from lumigather.rational import Rat

from forgeries import config_only

ENTRY_POINTS = {
    "engine.run": engine.run,
    "Trace.dumps": Trace.dumps,
    "Trace.parse": Trace.parse,
    "checker.enumerate_unfair": checker.enumerate_unfair,
    "fuzz.run_with_checks": fuzz.run_with_checks,
    **{f"checker.{fn.__name__}": fn for fn in {getattr(c, "func", c) for c in CHECKS.values()}},
}

_PAUSED = collector_paused(lambda: None).__code__

SQUARE = tuple((pt(x, y), "S") for x, y in ((0, 0), (4, 0), (4, 4), (0, 4)))


def _scenario(**kw):
    return Scenario(SQUARE, Rat(1), "async", "three-color", **kw)


def _campaign():
    """(algorithm, scheduler, policy): every algorithm under every scheduler,
    the asynchronous one under every adversary policy."""
    for alg in ALGORITHMS:
        for sched in SCHEDULERS:
            for policy in POLICIES if sched == "async" else ("random",):
                yield alg, sched, policy


def _raised(fn, *args):
    """The type of what ``fn(*args)`` raises, None if it returns.

    The exception itself is dropped here: a test frame that kept it would
    make a cycle through its traceback.
    """
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001  (each caller names the type it expects)
        return type(exc)
    return None


def _repeated_move_progress(trace):
    """Text of ``trace`` with its first MoveProgress line written twice."""
    lines = trace.dumps().splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if '"MoveProgress"' in ln)
    return "".join(lines[: i + 1] + lines[i:])


def _workloads():
    rng = random.Random(26)
    for alg, sched, policy in _campaign():
        for n in (3, 5):
            sc = random_scenario(rng, alg, sched, n, bound=6, policy=policy, step_budget=5000)
            trace = Trace.parse(run(sc).dumps())
            for name, check in CHECKS.items():
                if name != "equivariance":
                    check(trace)
    for alg in ("elect-one-lds", "lu-gather"):
        sc = random_scenario(rng, alg, "ssync-unfair", 3, bound=6)
        enumerate_unfair(sc.robots, alg, 3, (Rat(1), Rat(1, 2)))
    CHECKS["equivariance"](run(_scenario(seed=3)))
    assert fuzz.run_with_checks(_scenario(seed=3)).ok
    # the failure paths: a run out of step budget, a fairness bound its
    # policy cannot keep, a spec enumeration cannot judge, a malformed trace
    # and a forged one
    assert _raised(enumerate_unfair, SQUARE, "three-color", 2) is ValueError
    assert _raised(run, _scenario(step_budget=40)) is BudgetExhausted
    assert _raised(run, _scenario(policy="round-robin", fairness_bound=4)) is ScenarioError
    trace = run(_scenario(seed=5))
    assert _raised(Trace.parse, "[]") is ValueError
    assert _raised(CHECKS["replay"], Trace.parse(_repeated_move_progress(trace))) is ValueError
    forged = Trace.parse(trace.dumps())
    config_only(forged.lines)
    assert not CHECKS["replay"](forged).passed


def test_workloads_leave_no_cyclic_garbage():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _workloads()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_is_paused(name):
    fn = ENTRY_POINTS[name]
    assert fn.__code__ is _PAUSED


def _calls():
    """(entry point name, thunk, what it raises or None)."""
    trace = run(_scenario(seed=5))
    parsed = Trace.parse(trace.dumps())
    malformed = Trace.parse(_repeated_move_progress(trace))
    yield "engine.run", lambda: run(_scenario(seed=5)), None
    yield "engine.run", lambda: run(_scenario(step_budget=40)), BudgetExhausted
    unkept = _scenario(policy="round-robin", fairness_bound=4)
    yield "engine.run", lambda: run(unkept), ScenarioError
    yield "Trace.dumps", trace.dumps, None
    yield "Trace.parse", lambda: Trace.parse(trace.dumps()), None
    yield "Trace.parse", lambda: Trace.parse("[]"), ValueError
    for name, check in CHECKS.items():
        fn = getattr(check, "func", check)
        yield f"checker.{fn.__name__}", lambda check=check: check(parsed), None
        yield f"checker.{fn.__name__}", lambda check=check: check(malformed), ValueError
    yield "checker.enumerate_unfair", lambda: enumerate_unfair(
        ((pt(0, 0), "O"), (pt(2, 0), "O"), (pt(1, 1), "O")), "elect-one-lds", 2
    ), None
    yield "checker.enumerate_unfair", lambda: enumerate_unfair(SQUARE, "three-color", 2), ValueError
    yield "fuzz.run_with_checks", lambda: fuzz.run_with_checks(_scenario(seed=5)), None
    yield "fuzz.run_with_checks", lambda: fuzz.run_with_checks(unkept), ScenarioError


def test_collector_on_after_every_entry_point():
    assert gc.isenabled()
    seen = set()
    for name, thunk, raises in _calls():
        assert _raised(thunk) is raises, name
        assert gc.isenabled(), name
        seen.add(name)
    assert seen == ENTRY_POINTS.keys()


def test_collector_stays_off_when_the_caller_turned_it_off():
    gc.disable()
    try:
        for name, thunk, raises in _calls():
            assert _raised(thunk) is raises, name
            assert not gc.isenabled(), name
    finally:
        gc.enable()


def test_nested_calls_keep_the_collector_off():
    trace = Trace.parse(run(_scenario(seed=5)).dumps())

    @collector_paused
    def every_check():
        states = []
        for check in CHECKS.values():
            check(trace)
            states.append(gc.isenabled())
        return states

    assert every_check() == [False] * len(CHECKS)
    assert gc.isenabled()


def test_paused_call_sees_the_collector_off_and_restores_it_on_raise():
    @collector_paused
    def probe(fail):
        if fail:
            raise KeyError(gc.isenabled())
        return gc.isenabled()

    assert probe(False) is False
    assert gc.isenabled()
    with pytest.raises(KeyError, match="False"):
        probe(True)
    assert gc.isenabled()
