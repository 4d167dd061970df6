import copy
import dataclasses
import json
from pathlib import Path

import pytest

from lumigather import algorithms, checker, configuration
from lumigather.checker import (
    CHECKS,
    Report,
    TraceData,
    check_cycle_snapshot,
    check_equivariance,
    check_equivariance_trace,
    check_gathered,
    check_monotone,
    check_onlds_switch,
    check_shrink,
    enumerate_unfair,
    snapshot_has_convention_ties,
    validate_trace,
)
from lumigather.configuration import ConfigInterner, Frame
from lumigather.engine import SCHEDULERS, BudgetExhausted, Scenario, Trace, run
from lumigather.geometry import Point, hull_center, pt
from lumigather.patterns import classify_line
from lumigather.rational import Rat, parse_rat

import test_golden
from conftest import identity_frame, make_config, make_snap
from forgeries import (
    SIX_COLOR,
    cfg_line,
    config_line,
    config_only,
    exec_flags,
    exec_on_a_non_inner_compute,
    fmt,
    index,
    one_move,
    robot,
    synthetic,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scen(robots, **kw):
    base = dict(
        delta=Rat(1), scheduler="async", algorithm="three-color", seed=0,
        step_budget=50000,
    )
    base.update(kw)
    return Scenario(robots=tuple((pt(*p), c) for p, c in robots), **base)


def robot_event(kind, t, rid, **kw):
    return {"kind": kind, "t": t, "robot": rid, **kw}


class TestHappyPaths:
    def test_monotone_f_on_real_run(self):
        sc = scen(
            [((0, 0), "O"), ((9, 0), "O"), ((7, 5), "O"), ((-2, 3), "O"), ((3, 1), "O")],
            scheduler="ssync-unfair",
            algorithm="elect-one-lds",
            delta=Rat(1, 4),
            step_budget=10000,
            seed=21,
        )
        rep = check_monotone(run(sc), "f")
        assert rep.passed
        assert rep.extras["effective_rounds"] > 0

    def test_monotone_g_on_real_run(self):
        sc = scen(
            [((0, 0), "A"), ((2, 0), "A"), ((7, 0), "A"), ((9, 0), "A")],
            scheduler="ssync-unfair",
            algorithm="lu-gather",
            delta=Rat(1, 4),
            step_budget=10000,
            seed=5,
        )
        tr = run(sc)
        assert check_monotone(tr, "g").passed
        assert check_gathered(tr).extras["gathered"]

    def test_cycle_and_switch_on_real_run(self):
        sc = scen([((0, 0), "S"), ((6, 0), "S"), ((2, 5), "S"), ((1, 1), "S")], seed=31)
        tr = run(sc)
        assert check_cycle_snapshot(tr).passed
        rep = check_onlds_switch(tr)
        assert rep.passed
        assert rep.extras["shape"] in (1, 2, 3, 4, 5)

    def test_switch_shape_one_for_collinear_start(self):
        sc = scen([((0, 0), "S"), ((3, 0), "S"), ((9, 0), "S")], seed=2)
        rep = check_onlds_switch(run(sc))
        assert rep.passed and rep.extras["shape"] == 1 and rep.extras["t_switch"] == 0

    def test_shrink_vacuous_single_loop(self):
        sc = scen(
            [((0, 0), "S"), ((3, 0), "S")], algorithm="lu-gather-async", seed=4
        )
        rep = check_shrink(run(sc))
        assert rep.passed


class TestNegativeControls:
    def test_monotone_flags_runaway_round(self):
        # interior robot is enabled (toward a vertex) but the trace moves it away
        start = [(0, 0, "O"), (10, 0, "O"), (9, 3, "O"), (5, 1, "O")]
        after = [(0, 0, "O"), (10, 0, "O"), (9, 3, "O"), (2, 2, "O")]
        tr = synthetic(
            {
                "algorithm": "elect-one-lds",
                "scheduler": "ssync-unfair",
                "robots": [robot(x, y, c) for x, y, c in start],
            },
            [
                cfg_line(0, start),
                {"kind": "RoundStart", "t": 0, "activated": [3]},
                {"kind": "Look", "t": 0, "robot": 3},
                {"kind": "Compute", "t": 0, "robot": 3, "color": "O",
                 "dest": ["2/1", "2/1"], "exec": False},
                {"kind": "MoveBegin", "t": 0, "robot": 3, "reach": ["2/1", "2/1"]},
                {"kind": "MoveEnd", "t": 0, "robot": 3, "pos": ["2/1", "2/1"]},
                cfg_line(1, after),
                {"kind": "End", "t": 1, "status": "budget"},
            ],
        )
        rep = check_monotone(tr, "f")
        assert not rep.passed
        assert rep.violations[0]["detail"]["row"] == "asym-noncontractible"

    def test_monotone_flags_ineffective_round_that_changed_config(self):
        start = [(0, 0, "O"), (10, 0, "O")]  # collinear: nobody enabled
        tr = synthetic(
            {
                "algorithm": "elect-one-lds",
                "scheduler": "ssync-unfair",
                "robots": [robot(x, y, c) for x, y, c in start],
            },
            [
                cfg_line(0, start),
                {"kind": "RoundStart", "t": 0, "activated": [0]},
                {"kind": "Look", "t": 0, "robot": 0},
                {"kind": "Compute", "t": 0, "robot": 0, "color": "O",
                 "dest": ["1/1", "0/1"], "exec": False},
                {"kind": "MoveBegin", "t": 0, "robot": 0, "reach": ["1/1", "0/1"]},
                {"kind": "MoveEnd", "t": 0, "robot": 0, "pos": ["1/1", "0/1"]},
                cfg_line(1, [(1, 0, "O"), (10, 0, "O")]),
                {"kind": "End", "t": 1, "status": "budget"},
            ],
        )
        rep = check_monotone(tr, "f")
        assert not rep.passed

    def test_cycle_flags_inner_exec_on_differing_configurations(self):
        # forged zero-color-change move lets the class stay all-S while the
        # configuration drifts; the second inner execution saw another world
        start = [(0, 0, "S"), (4, 0, "S"), (2, 5, "S")]
        tr = synthetic(
            {"robots": [robot(x, y, c) for x, y, c in start]},
            [
                cfg_line(0, start),
                {"kind": "Look", "t": 0, "robot": 0},
                cfg_line(1, start),
                {"kind": "Compute", "t": 1, "robot": 0, "color": "S",
                 "dest": ["1/1", "1/1"], "exec": True},
                cfg_line(2, start),
                {"kind": "MoveBegin", "t": 2, "robot": 0, "reach": ["1/1", "1/1"]},
                {"kind": "MoveProgress", "t": 3, "robot": 0, "pos": ["1/2", "1/2"]},
                cfg_line(3, [("1/2", "1/2", "S"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Look", "t": 3, "robot": 1},
                {"kind": "MoveEnd", "t": 3, "robot": 0, "pos": ["1/1", "1/1"]},
                cfg_line(4, [(1, 1, "S"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Look", "t": 4, "robot": 2},
                cfg_line(5, [(1, 1, "S"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Compute", "t": 5, "robot": 2, "color": "S",
                 "dest": ["2/1", "2/1"], "exec": True},
                {"kind": "End", "t": 5, "status": "budget"},
            ],
        )
        rep = _cycle_checked(tr)
        assert not rep.passed
        assert any("different" in str(v["detail"]) for v in rep.violations)

    def test_cycle_flags_exec_outside_all_s(self):
        start = [(0, 0, "S"), (4, 0, "M"), (2, 5, "S")]
        tr = synthetic(
            {"robots": [robot(x, y, c) for x, y, c in start]},
            [
                cfg_line(0, start),
                {"kind": "Look", "t": 0, "robot": 0},
                cfg_line(1, start),
                {"kind": "Compute", "t": 1, "robot": 0, "color": "M",
                 "dest": ["1/1", "1/1"], "exec": True},
                {"kind": "End", "t": 1, "status": "budget"},
            ],
        )
        # the class at t=0 is S,M and never turns all-S: no cycle opens, and
        # the exec whose Look comes before any all-S instant is out of place
        rep = _cycle_checked(tr)
        assert rep.extras["cycles"] == 0
        assert rep.violations == [
            {"t": 0, "detail": "robot 0 ran the inner algorithm outside all-S"}
        ]

    def test_switch_flags_offline_destination_and_lost_collinearity(self):
        start = [(0, 0, "S"), (4, 0, "S"), (2, 5, "S")]
        tr = synthetic(
            {"robots": [robot(x, y, c) for x, y, c in start]},
            [
                cfg_line(0, start),
                {"kind": "Look", "t": 0, "robot": 2},
                cfg_line(1, start),
                {"kind": "Compute", "t": 1, "robot": 2, "color": "M",
                 "dest": ["2/1", "-5/1"], "exec": True},
                cfg_line(2, start),
                {"kind": "MoveBegin", "t": 2, "robot": 2, "reach": ["2/1", "-5/1"]},
                {"kind": "MoveProgress", "t": 3, "robot": 2, "pos": ["2/1", "0/1"]},
                cfg_line(3, [(0, 0, "S"), (2, 0, "M"), (4, 0, "S")]),
                {"kind": "MoveProgress", "t": 4, "robot": 2, "pos": ["2/1", "-1/1"]},
                cfg_line(4, [(0, 0, "S"), (2, -1, "M"), (4, 0, "S")]),
                {"kind": "End", "t": 4, "status": "budget"},
            ],
        )
        rep = check_onlds_switch(tr)
        assert not rep.passed
        details = " | ".join(str(v["detail"]) for v in rep.violations)
        assert "off the line" in details
        assert "collinearity lost" in details

    def test_shrink_flags_insufficient_loop(self):
        # both robots turn M and robot 1 moves 1 toward robot 0, then both
        # turn S again: the two-S loop entered at t=6 is only 1 shorter
        tr = synthetic(
            {"algorithm": "lu-gather-async",
             "robots": [robot(0, 0, "S"), robot(10, 0, "S")]},
            [
                cfg_line(0, [(0, 0, "S"), (10, 0, "S")]),
                robot_event("Look", 0, 0),
                robot_event("Look", 0, 1),
                robot_event("Compute", 1, 0, color="M", dest=["0/1", "0/1"], exec=False),
                robot_event("Compute", 1, 1, color="M", dest=["9/1", "0/1"], exec=False),
                cfg_line(2, [(0, 0, "M"), (10, 0, "M")]),
                robot_event("Look", 2, 0),
                robot_event("MoveBegin", 2, 1, reach=["9/1", "0/1"]),
                robot_event("MoveProgress", 3, 1, pos=["19/2", "0/1"]),
                cfg_line(3, [(0, 0, "M"), ("19/2", 0, "M")]),
                robot_event("Compute", 3, 0, color="S", dest=["0/1", "0/1"], exec=False),
                robot_event("MoveEnd", 3, 1, pos=["9/1", "0/1"]),
                cfg_line(4, [(0, 0, "S"), (9, 0, "M")]),
                robot_event("Look", 4, 1),
                robot_event("Compute", 5, 1, color="S", dest=["9/1", "0/1"], exec=False),
                cfg_line(6, [(0, 0, "S"), (9, 0, "S")]),
                {"kind": "End", "t": 6, "status": "budget"},
            ],
        )
        rep = check_shrink(tr)
        assert rep.violations == [{"t": 6, "detail": "loop entered at 6 shrank less than 2*delta"}]
        assert rep.extras["loops"] == 2

    def test_gathered_flags_regather_and_enabled_final(self):
        # both robots move to (2, 0), then robot 0 moves back to (0, 0)
        two = ["2/1", "0/1"]
        tr = synthetic(
            {"algorithm": "lu-gather-async",
             "robots": [robot(0, 0, "S"), robot(5, 0, "S")]},
            [
                cfg_line(0, [(0, 0, "S"), (5, 0, "S")]),
                robot_event("Look", 0, 0),
                robot_event("Look", 0, 1),
                robot_event("Compute", 1, 0, color="S", dest=two, exec=False),
                robot_event("Compute", 1, 1, color="S", dest=two, exec=False),
                robot_event("MoveBegin", 2, 0, reach=two),
                robot_event("MoveBegin", 2, 1, reach=two),
                robot_event("MoveProgress", 3, 0, pos=["1/1", "0/1"]),
                robot_event("MoveProgress", 3, 1, pos=["4/1", "0/1"]),
                cfg_line(3, [(1, 0, "S"), (4, 0, "S")]),
                robot_event("MoveEnd", 3, 0, pos=two),
                robot_event("MoveEnd", 3, 1, pos=two),
                cfg_line(4, [(2, 0, "S"), (2, 0, "S")]),
                robot_event("Look", 4, 0),
                robot_event("Compute", 5, 0, color="S", dest=["0/1", "0/1"], exec=False),
                robot_event("MoveBegin", 6, 0, reach=["0/1", "0/1"]),
                robot_event("MoveProgress", 7, 0, pos=["1/1", "0/1"]),
                cfg_line(7, [(1, 0, "S"), (2, 0, "S")]),
                robot_event("MoveEnd", 7, 0, pos=["0/1", "0/1"]),
                cfg_line(8, [(0, 0, "S"), (2, 0, "S")]),
                {"kind": "End", "t": 8, "status": "budget"},
            ],
        )
        rep = check_gathered(tr)
        assert rep.violations == [
            {"t": 7, "detail": "gathered at 4 but spread again at 7"},
            {"t": 8, "detail": "a robot is still enabled in the final configuration"},
        ]
        assert rep.extras["gathered"] is False

    def test_replay_flags_corrupted_config(self):
        tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
        lines = [dict(l) for l in tr.lines]
        for ln in lines:
            if ln["kind"] == "Config" and ln["t"] > 0:
                ln["entries"][0][0] = "99/1"
                break
        rep = validate_trace(Trace(lines))
        assert not rep.passed

    def test_replay_flags_wrong_compute(self):
        tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
        lines = [dict(l) for l in tr.lines]
        for ln in lines:
            if ln["kind"] == "Compute":
                ln["color"] = "E" if ln["color"] != "E" else "M"
                break
        assert not validate_trace(Trace(lines)).passed


    @pytest.mark.parametrize("scheduler", ["async", "ssync"])
    @pytest.mark.parametrize(
        "reach,progress,compute,message",
        [
            ((2, 1), (1, "1/2"), True, "reach off the segment"),
            (("1/2", 0), ("1/4", 0), True, "shorter than min(delta, full distance)"),
            ((2, 0), (1, 0), False, "move without Compute"),
        ],
        ids=["off-segment", "short-of-delta", "no-compute"],
    )
    def test_replay_flags_forged_move(self, scheduler, reach, progress, compute, message):
        assert validate_trace(one_move(scheduler, (2, 0), (1, 0))).passed
        rep = validate_trace(one_move(scheduler, reach, progress, compute))
        assert not rep.passed
        assert any(message in v["detail"] for v in rep.violations), rep.violations

    @pytest.mark.parametrize("scheduler", ["async", "ssync"])
    def test_replay_flags_a_move_after_a_stay_compute(self, scheduler):
        # two gathered robots: robot 1 computes "stay", then moves to (3, 0)
        def event(kind, t, **kw):
            return {"kind": kind, "t": t, "robot": 1, **kw}

        here = cfg_line(0, [(0, 0, "S"), (0, 0, "S")])
        stay = event("Compute", 0, color="S", dest=["0/1", "0/1"], exec=False)
        reach = ["3/1", "0/1"]
        if scheduler == "async":
            stay["t"] = 1
            lines = [
                here,
                event("Look", 0),
                {**here, "t": 1},
                stay,
                {**here, "t": 2},
                event("MoveBegin", 2, reach=reach),
                event("MoveProgress", 3, pos=["1/1", "0/1"]),
                cfg_line(3, [(0, 0, "S"), (1, 0, "S")]),
                event("MoveEnd", 3, pos=reach),
                cfg_line(4, [(0, 0, "S"), (3, 0, "S")]),
                {"kind": "End", "t": 4, "status": "budget"},
            ]
        else:
            lines = [
                here,
                {"kind": "RoundStart", "t": 0, "activated": [1]},
                event("Look", 0),
                stay,
                event("MoveBegin", 0, reach=reach),
                event("MoveEnd", 0, pos=reach),
                cfg_line(1, [(0, 0, "S"), (3, 0, "S")]),
                {"kind": "End", "t": 1, "status": "budget"},
            ]
        tr = synthetic(
            {
                "algorithm": "lu-gather-async",
                "scheduler": scheduler,
                "robots": [robot(0, 0, "S"), robot(0, 0, "S")],
            },
            lines,
        )
        assert [v["detail"] for v in validate_trace(tr).violations] == [
            "robot 1: reach off the segment to the Compute's destination"
        ]

    @pytest.mark.parametrize(
        "scheduler,events,message",
        [
            # round 0 computes (2, 0) but does not move; round 1 moves there
            # with no Look or Compute of its own
            ("ssync",
             [(0, "Look", {}), (0, "Compute", {}),
              (1, "MoveBegin", {"reach": ["2/1", "0/1"]}),
              (1, "MoveEnd", {"pos": ["2/1", "0/1"]})],
             "round events BE"),
            # round 1 repeats round 0's Compute on round 0's stale Look
            ("ssync",
             [(0, "Look", {}), (0, "Compute", {}),
              (0, "MoveBegin", {"reach": ["2/1", "0/1"]}),
              (0, "MoveEnd", {"pos": ["2/1", "0/1"]}),
              (1, "Compute", {})],
             "round events C "),
            ("ssync", [(0, "Look", {}), (0, "Compute", {})], "Compute's move left out"),
            ("async", [(0, "Look", {}), (1, "Compute", {}), (2, "Look", {})],
             "Compute's move left out"),
        ],
        ids=["stale-compute", "look-less-compute", "round-move-left-out", "async-move-left-out"],
    )
    def test_replay_flags_unpaired_phases(self, scheduler, events, message):
        lines = [cfg_line(0, [(0, 0, "S"), (4, 0, "S")])]
        pos = (0, 0)
        last = events[-1][0] + 1
        for t in range(last):
            if scheduler != "async":
                lines.append({"kind": "RoundStart", "t": t, "activated": [0]})
            for te, kind, kw in events:
                if te != t:
                    continue
                if kind == "Compute":
                    kw = {"color": "M", "dest": ["2/1", "0/1"], "exec": False}
                if kind == "MoveEnd":
                    pos = (2, 0)
                lines.append({"kind": kind, "t": t, "robot": 0, **kw})
            lines.append(cfg_line(t + 1, [(*pos, "M"), (4, 0, "S")]))
        lines.append({"kind": "End", "t": last, "status": "budget"})
        tr = synthetic(
            {
                "algorithm": "lu-gather-async",
                "scheduler": scheduler,
                "robots": [robot(0, 0, "S"), robot(4, 0, "S")],
            },
            lines,
        )
        rep = validate_trace(tr)
        assert not rep.passed
        assert any(message in v["detail"] for v in rep.violations), rep.violations

    def test_replay_flags_a_round_that_activates_another_robot(self):
        tr = one_move("ssync", (2, 0), (1, 0))
        next(l for l in tr.lines if l["kind"] == "RoundStart")["activated"] = [1]
        details = [v["detail"] for v in validate_trace(tr).violations]
        assert details == [
            "robot 0: events in a round that does not activate it",
            "robot 1: round events none are not Look, Compute and move",
        ]


@pytest.mark.parametrize("scheduler", ["fsync", "ssync", "ssync-unfair"])
@pytest.mark.parametrize("policy", ["ssync-stingy", "rigid"])
@pytest.mark.parametrize(
    "algorithm,robots",
    [
        ("elect-one-lds", [((0, 0), "O"), ((9, 0), "O"), ((7, 5), "O"), ((3, 1), "O")]),
        ("lu-gather", [((0, 0), "A"), ((2, 0), "A"), ((7, 0), "A"), ((9, 0), "A")]),
    ],
)
def test_replay_and_monotone_pass_on_round_runs(scheduler, policy, algorithm, robots):
    tr = run(
        scen(robots, scheduler=scheduler, algorithm=algorithm, policy=policy,
             delta=Rat(1, 2), seed=3)
    )
    assert TraceData.of(tr).status in ("gathered", "fixpoint")
    assert validate_trace(tr).passed
    rep = CHECKS["monotone"](tr)
    assert rep.passed and rep.extras["effective_rounds"] > 0


class TestSharedTraceData:
    def _trace(self):
        return run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))

    def test_four_checks_build_one_tracedata(self, monkeypatch):
        tr = self._trace()
        builds = []
        init = TraceData.__init__

        def counting(self, trace):
            builds.append(trace)
            init(self, trace)

        monkeypatch.setattr(TraceData, "__init__", counting)
        for check in (validate_trace, check_cycle_snapshot, check_onlds_switch, check_gathered):
            assert check(tr).passed
        assert builds == [tr]

    def test_of_returns_shared_instance(self):
        tr = self._trace()
        td = TraceData.of(tr)
        assert TraceData.of(tr) is td
        assert TraceData.of(td) is td
        assert TraceData.of(Trace.parse(tr.dumps())) is not td

    def test_appended_line_forces_rebuild(self):
        tr = self._trace()
        td = TraceData.of(tr)
        t = td.end_time
        tr.log(kind="Look", t=t, robot=0)
        again = TraceData.of(tr)
        assert again is not td
        assert again.looks[0][-1] == t and td.looks[0][-1] != t

    def test_replaced_lines_force_rebuild(self):
        tr = self._trace()
        td = TraceData.of(tr)
        tr.lines = list(tr.lines)
        assert TraceData.of(tr) is not td

    def test_tampered_copy_still_fails_replay(self):
        tr = self._trace()
        assert validate_trace(tr).passed
        bad = copy.deepcopy(tr)
        for ln in bad.lines:
            if ln["kind"] == "Config" and ln["t"] > 0:
                ln["entries"][0][0] = "99/1"
                break
        assert not validate_trace(bad).passed
        assert validate_trace(tr).passed

    def test_repeated_config_line_fails_replay(self):
        tr = Trace.parse(self._trace().dumps())
        entries = [l["entries"] for l in tr.lines if l["kind"] == "Config"]
        assert all(a != b for a, b in zip(entries, entries[1:]))
        td = TraceData(tr)
        t = next(t for t in range(1, td.end_time) if t not in td.config_times)
        config_line(tr.lines, t)
        rep = validate_trace(tr)
        assert rep.violations == [
            {"t": t, "detail": f"Config line at t={t}, where the configuration does not change"}
        ]

    def test_forged_repeat_of_the_previous_line_fails_replay(self):
        tr = Trace.parse(self._trace().dumps())
        td = TraceData(tr)
        t = next(t for t in range(1, td.end_time) if t not in td.config_times)
        forged = tr.lines[config_line(tr.lines, t)]["entries"]
        forged[0][0] = "99/1"
        rep = validate_trace(tr)
        assert not rep.passed
        assert {"t": t, "detail": "replayed configuration differs from logged Config"} in rep.violations

    def test_equal_coordinates_share_one_point(self):
        td = TraceData(Trace.parse(self._trace().dumps()))
        last = td.line_entries[-1]
        assert all(p is last[0][0] for p, _ in last)  # gathered: one point
        assert all(p is last[0][0] for p, _ in td.replayed(td.last_t).entries)
        assert td.replayed(0) is td.replayed(0)


def test_checks_evaluate_each_action_once_on_their_own_configurations(monkeypatch):
    tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S"), ((4, 4), "S")], seed=8))
    names = checker.default_checks("three-color", "async")
    seen = []
    evaluate = algorithms.AlgorithmSpec.__call__

    def counting(self, cfg, pos, light):
        seen.append((cfg, pos, light))
        return evaluate(self, cfg, pos, light)

    monkeypatch.setattr(algorithms.AlgorithmSpec, "__call__", counting)
    td = TraceData(Trace.parse(tr.dumps()))
    reports = [str(CHECKS[name](td)) for name in names]
    memoized = list(seen)
    assert len({(id(c), p, light) for c, p, light in memoized}) == len(memoized)
    # every action the checks used was evaluated on a configuration of the
    # TraceData's own interner, never taken from the engine
    assert all(td.cache.get(c.entries) is c for c, _, _ in memoized)
    seen.clear()
    monkeypatch.setattr(checker, "memo_action", lambda alg, cfg, pos, light: alg(cfg, pos, light))
    td = TraceData(Trace.parse(tr.dumps()))
    assert [str(CHECKS[name](td)) for name in names] == reports
    assert len(seen) > len(memoized)


# every registered algorithm under every scheduler, as the checks were read
# from algorithm names before specs carried them
DEFAULT_CHECKS = {
    "elect-one-lds": {
        "fsync": ["replay", "monotone"],
        "ssync": ["replay", "monotone"],
        "ssync-unfair": ["replay", "monotone"],
        "async": ["replay"],
    },
    "lu-gather": {
        "fsync": ["replay", "monotone", "gather"],
        "ssync": ["replay", "monotone", "gather"],
        "ssync-unfair": ["replay", "monotone", "gather"],
        "async": ["replay", "gather"],
    },
    "six-color": {
        "fsync": ["replay", "cycle", "switch", "gather"],
        "ssync": ["replay", "cycle", "switch", "gather"],
        "ssync-unfair": ["replay", "cycle", "switch", "gather"],
        "async": ["replay", "cycle", "switch", "gather"],
    },
    "lu-gather-async": {
        "fsync": ["replay", "shrink", "gather"],
        "ssync": ["replay", "shrink", "gather"],
        "ssync-unfair": ["replay", "shrink", "gather"],
        "async": ["replay", "shrink", "gather"],
    },
    "three-color": {
        "fsync": ["replay", "cycle", "switch", "gather"],
        "ssync": ["replay", "cycle", "switch", "gather"],
        "ssync-unfair": ["replay", "cycle", "switch", "gather"],
        "async": ["replay", "cycle", "switch", "gather"],
    },
}


def test_default_checks_table():
    got = {
        alg: {sched: checker.default_checks(alg, sched) for sched in SCHEDULERS}
        for alg in algorithms.ALGORITHMS
    }
    assert got == DEFAULT_CHECKS
    assert list(got) == list(DEFAULT_CHECKS)


class TestMalformedTraceData:
    def _lines(self):
        return run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8)).lines

    @pytest.mark.parametrize(
        "damage",
        ["config-without-t", "robot-without-x", "non-object-line", "no-progress", "second-config"],
    )
    def test_malformed_line(self, damage):
        lines = [copy.deepcopy(l) for l in self._lines()]
        if damage == "config-without-t":
            del next(l for l in lines if l["kind"] == "Config")["t"]
        elif damage == "robot-without-x":
            del lines[0]["robots"][1]["x"]
        elif damage == "no-progress":
            lines.remove(next(l for l in lines if l["kind"] == "MoveProgress"))
        elif damage == "second-config":
            i = next(k for k, l in enumerate(lines) if l["kind"] == "Config" and l["t"] >= 5)
            lines.insert(i, copy.deepcopy(lines[i]))
            lines[i]["entries"][0][0] = "99/1"
        else:
            lines.insert(3, [1, 2])
        with pytest.raises(ValueError):
            TraceData(Trace(lines))
        with pytest.raises(ValueError):
            TraceData(Trace.parse("".join(json.dumps(l) + "\n" for l in lines)))

    def test_round_start_id_out_of_range(self):
        tr = run(
            scen(
                [((0, 0), "O"), ((4, 0), "O"), ((1, 3), "O")],
                scheduler="ssync-unfair",
                algorithm="elect-one-lds",
            )
        )
        lines = [dict(l) for l in tr.lines]
        i = next(k for k, l in enumerate(lines) if l["kind"] == "RoundStart")
        lines[i]["activated"] = [0, 3]
        with pytest.raises(ValueError, match="robot id 3"):
            TraceData(Trace(lines))


def test_every_check_reports_on_a_trace_without_config_lines():
    tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
    times = [l["t"] for l in tr.lines if l["kind"] == "Config"]
    td = TraceData(Trace([l for l in tr.lines if l["kind"] != "Config"]))
    assert td.config_times == []
    for name, check in CHECKS.items():
        assert isinstance(check(td), Report), name
    # replay alone reads the Config lines; every other check reads the events
    assert validate_trace(td).violations == [
        {"t": t, "detail": f"no Config line at t={t}, where the configuration changes"}
        for t in times
    ]
    assert check_gathered(td).to_json() == check_gathered(tr).to_json()
    assert check_gathered(td).passed


def test_gathered_flags_an_honest_trace_that_never_gathers():
    tr = _scenario_trace("rectangle-unfair.json")
    assert TraceData.of(tr).status == "fixpoint" and validate_trace(tr).passed
    rep = check_gathered(tr)
    assert not rep.passed
    assert rep.violations == [{"t": None, "detail": "no stable gathering in trace"}]
    assert rep.extras == {"gathered": False, "time": None}


def test_a_forged_config_line_fails_replay_alone():
    """square.json with one color of its t=4 Config line forged (``config_only``).

    The line claims the phase class {S, M, E}; only replay reads it, and
    every other check reports what it reports on the honest trace.
    """
    honest = _scenario_trace("square.json")
    tr = _scenario_trace("square.json")
    assert tr.lines[index(tr.lines, "Config", t=4)]["entries"][1] == ["0/1", "4/1", "S"]
    config_only(tr.lines)
    forged = _reparse(tr.lines)
    assert _violations(forged) == [(4, "replayed configuration differs from logged Config")]
    for name in ("cycle", "switch", "gather", "equivariance"):
        assert str(CHECKS[name](forged)) == str(CHECKS[name](honest)), name


def test_default_checks_sort_each_distinct_configuration_once(monkeypatch):
    """``canonical`` runs once per distinct configuration of a golden async
    trace, and once per inner view that the wrapper builds, never again for
    a Config line."""
    tr = Trace.parse(test_golden._text("square"))
    sorts = []
    sort = configuration.canonical

    def counting(entries):
        sorts.append(1)
        return sort(entries)

    monkeypatch.setattr(configuration, "canonical", counting)
    td = TraceData(tr)
    for name in checker.default_checks(td.algorithm, td.scenario.scheduler):
        assert CHECKS[name](td).passed, name
    distinct = {td.replayed(t) for t in td.shown_times}
    assert len({cfg.entries for cfg in distinct}) == len(distinct)
    inner_views = sum("inner_view" in cfg.memo for cfg in distinct)
    assert inner_views > 0
    assert len(sorts) == len(distinct) + inner_views


class TestEquivariance:
    def test_identity_frame_trivial(self):
        view = make_snap([((0, 0), "S"), ((4, 0), "S")], (0, 0), "S")
        rep = check_equivariance("lu-gather-async", *view, [identity_frame()])
        assert rep.passed

    def test_pythagorean_frame_exact(self):
        view = make_snap(
            [((0, 0), "O"), ((4, 0), "O"), ((4, 2), "O"), ((0, 2), "O"), ((1, (1, 2)), "O")],
            (1, (1, 2)),
            "O",
        )
        frame = Frame.from_triple(3, 4, 5, scale=Rat(7, 3), tx=Rat(5, 2), ty=-3)
        rep = check_equivariance("elect-one-lds", *view, [frame])
        assert rep.passed

    def test_trace_check_flags_a_non_equivariant_algorithm(self):
        td = TraceData(run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8)))
        honest = check_equivariance_trace(td)
        assert honest.passed and honest.extras["checked"] > 0
        spec = td.algorithm

        def skewed(cfg, pos, light):  # a fixed global offset does not commute with rotations
            act = spec(cfg, pos, light)
            return dataclasses.replace(act, dest=Point(act.dest.x + 1, act.dest.y))

        td.algorithm = skewed
        rep = check_equivariance_trace(td)
        assert rep.extras == honest.extras
        assert len(rep.violations) == honest.extras["checked"]
        assert rep.violations[0]["detail"].startswith("output not equivariant at robot on ")

    def test_convention_ties_take_the_hull_center_once(self, monkeypatch):
        calls = []

        def counted(hull):
            calls.append(hull)
            return hull_center(hull)

        monkeypatch.setattr(checker, "hull_center", counted)
        cfg = make_config(
            [((0, 0), "O"), ((6, 0), "O"), ((6, 2), "O"), ((0, 2), "O"), ((1, 1), "O")]
        )
        assert not snapshot_has_convention_ties(cfg)
        assert len(calls) == 1

    def test_orientation_reversing_frame_rejected(self):
        with pytest.raises(ValueError):
            Frame(Rat(3, 5), Rat(4, 5), Rat(-1), Point(Rat(0), Rat(0)))
        with pytest.raises(ValueError):
            Frame(Rat(3, 5), Rat(3, 5), Rat(1), Point(Rat(0), Rat(0)))


class TestEnumerate:
    def test_depth_zero_empty_pass(self):
        rep = enumerate_unfair([(pt(0, 0), "O"), (pt(1, 0), "O")], "elect-one-lds", 0)
        assert rep.passed and rep.extras["nodes"] == 0

    def test_triangle_all_edges_decrease(self):
        rep = enumerate_unfair(
            [(pt(0, 0), "O"), (pt(10, 0), "O"), (pt(9, 3), "O")], "elect-one-lds", 6
        )
        assert rep.passed
        assert rep.extras["fixpoints"] >= 1
        assert rep.extras["unfinished"] == 0
        assert not rep.extras["aborted"]

    def test_lu_gather_all_paths_gather(self):
        rep = enumerate_unfair(
            [(pt(0, 0), "A"), (pt(4, 0), "A"), (pt(6, 0), "A")], "lu-gather", 8
        )
        assert rep.passed
        assert rep.extras["unfinished"] == 0

    @pytest.mark.parametrize("alg", ["lu-gather-async", "three-color", "six-color"])
    def test_algorithm_without_a_decreasing_potential_rejected(self, alg):
        with pytest.raises(ValueError, match="elect-one-lds and lu-gather only"):
            enumerate_unfair([(pt(0, 0), "S"), (pt(4, 0), "S")], alg, 4)

    def test_each_distinct_action_evaluated_once(self, monkeypatch):
        seen = []
        evaluate = algorithms.AlgorithmSpec.__call__

        def counting(self, cfg, pos, light):
            seen.append((cfg.entries, pos, light))
            return evaluate(self, cfg, pos, light)

        monkeypatch.setattr(algorithms.AlgorithmSpec, "__call__", counting)
        sc = Scenario.load(SCENARIOS / "line-lu.json")
        rep = enumerate_unfair(
            sc.robots, sc.algorithm, 6, fractions=(Rat(1), Rat(1, 2)), delta=sc.delta
        )
        assert rep.passed and rep.extras["nodes"] > 100
        assert len(seen) == len(set(seen))

    def test_node_ceiling_aborts(self):
        rep = enumerate_unfair(
            [(pt(0, 0), "A"), (pt(4, 0), "A"), (pt(6, 0), "A")],
            "lu-gather",
            8,
            node_ceiling=2,
        )
        assert rep.extras["aborted"]


def test_report_json_shape():
    rep = Report("demo")
    rep.violate(3, "boom")
    data = json.loads(str(rep))
    assert data["check"] == "demo"
    assert data["pass"] is False
    assert data["violations"] == [{"t": 3, "detail": "boom"}]
    assert data["undecided"] == []


def _wrapped_three_color(lines, robots=((0, 0, "S"), (4, 0, "S"), (2, 5, "S"))):
    return synthetic({"robots": [robot(*r) for r in robots]}, lines)


def _nested_cycle_snapshot(trace):
    """Reference for ``check_cycle_snapshot``: for each cycle, a walk over every Compute.

    It costs O(cycles x Computes), where the check places each inner
    execution in its cycle by bisection; both must report the same.
    """
    td = TraceData.of(trace)
    rep = Report("cycle-snapshot")
    # its own configurations, one per Config line, which replay holds equal
    # to the ones the check replays from the events
    cache = ConfigInterner()
    lines = []
    for ln in trace.lines:
        if ln["kind"] == "Config":
            entries = tuple((pt(parse_rat(x), parse_rat(y)), c) for x, y, c in ln["entries"])
            lines.append((ln["t"], cache.get(entries)))
    # the wrapper's segment ends at the first collinear Config line, and
    # never under a simulation (a spec with an ``inner`` one)
    seg, stop = [t for t, _ in lines], None
    if td.algorithm.inner is None:
        for k, (t, cfg) in enumerate(lines):
            if cfg.on_lds:
                seg, stop = seg[:k], t
                break
    if not seg:
        rep.extras["cycles"] = 0
        return rep
    classes = {t: algorithms.phase_class(cfg) for t, cfg in lines}
    prev = None
    for t in seg:
        cls = classes[t]
        if cls not in checker._PHASE_DFA:
            rep.violate(t, f"illegal phase class {sorted(cls)}")
        elif prev is not None and cls != prev and cls not in checker._PHASE_DFA.get(prev, ()):
            rep.violate(t, f"illegal phase transition {sorted(prev)} -> {sorted(cls)}")
        prev = cls
    starts = [
        t
        for i, t in enumerate(seg)
        if classes[t] == frozenset("S") and (i == 0 or classes[seg[i - 1]] != frozenset("S"))
    ]
    # an execution that looked before the first all-S instant is in no cycle
    first = starts[0] if starts else stop
    for rid in range(td.n):
        for _, _, _, ex, tl in td.computes[rid]:
            if ex and tl is not None and (first is None or tl < first):
                rep.violate(tl, f"robot {rid} ran the inner algorithm outside all-S")
    cycles = 0
    for ci, start in enumerate(starts):
        end = starts[ci + 1] if ci + 1 < len(starts) else stop
        snaps = []
        for rid in range(td.n):
            for _, _, _, ex, tl in td.computes[rid]:
                if ex and tl is not None and start <= tl and (end is None or tl < end):
                    seen = td.replayed(tl)
                    if algorithms.phase_class(seen) != frozenset("S"):
                        rep.violate(tl, f"robot {rid} ran the inner algorithm outside all-S")
                    snaps.append((rid, tl, seen))
        if snaps:
            cycles += 1
            base = snaps[0][2]
            for rid, tl, seen in snaps[1:]:
                if seen is not base:
                    rep.violate(
                        tl,
                        f"robot {rid} executed the inner algorithm on a different "
                        f"configuration than robot {snaps[0][0]}",
                    )
    rep.extras["cycles"] = cycles
    return rep


def _cycle_checked(tr):
    """``check_cycle_snapshot(tr)``, asserted equal to the nested reference."""
    rep = check_cycle_snapshot(tr)
    assert rep == _nested_cycle_snapshot(tr)
    return rep


_CYCLE_CASES = [
    name for name, sc in test_golden.CORPUS
    if "cycle" in checker.default_checks(sc.algorithm, sc.scheduler)
]


@pytest.mark.parametrize("name", _CYCLE_CASES)
def test_cycle_check_equals_the_nested_reference_on_golden_traces(name):
    rep = _cycle_checked(Trace.parse(test_golden._text(name)))
    assert rep.passed and rep.extras["cycles"] > 0


@pytest.mark.parametrize("forge", [None, "cleared", "on-a-non-inner-compute"])
def test_cycle_check_equals_the_nested_reference_on_forged_exec_flags(forge):
    tr = Trace.parse(SIX_COLOR())
    edits = {"cleared": exec_flags(False, 33), "on-a-non-inner-compute": exec_on_a_non_inner_compute}
    if forge is not None:
        edits[forge](tr.lines)
    rep = _cycle_checked(_reparse(tr.lines))
    assert rep.extras["cycles"] == (0 if forge == "cleared" else 17)


class TestCheckNegativeControls:
    @staticmethod
    def _recolored(colors):
        """Three robots look at t=0 and keep their place at t=1, taking
        ``colors``, which every robot shows from t=2."""
        start = [(0, 0, "S"), (4, 0, "S"), (2, 5, "S")]
        looks = [robot_event("Look", 0, rid) for rid in range(3)]
        computes = [
            robot_event("Compute", 1, rid, color=c, dest=[fmt(x), fmt(y)], exec=False)
            for rid, ((x, y, _), c) in enumerate(zip(start, colors))
        ]
        return _wrapped_three_color(
            [
                cfg_line(0, start),
                *looks,
                *computes,
                cfg_line(2, [(x, y, c) for (x, y, _), c in zip(start, colors)]),
                {"kind": "End", "t": 2, "status": "budget"},
            ]
        )

    def test_cycle_flags_an_illegal_phase_class(self):
        rep = _cycle_checked(self._recolored("SME"))
        assert {"t": 2, "detail": "illegal phase class ['E', 'M', 'S']"} in rep.violations

    def test_cycle_flags_an_illegal_transition(self):
        rep = _cycle_checked(self._recolored("EEE"))
        assert {"t": 2, "detail": "illegal phase transition ['S'] -> ['E']"} in rep.violations

    def test_cycle_flags_an_inner_execution_outside_all_s(self):
        # robot 0 turns M, then robot 1 runs the inner algorithm on the
        # {S, M} configuration of the cycle that opened at t=0
        tr = _wrapped_three_color(
            [
                cfg_line(0, [(0, 0, "S"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Look", "t": 0, "robot": 0},
                cfg_line(1, [(0, 0, "S"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Compute", "t": 1, "robot": 0, "color": "M",
                 "dest": ["0/1", "0/1"], "exec": False},
                cfg_line(2, [(0, 0, "M"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Look", "t": 2, "robot": 1},
                cfg_line(3, [(0, 0, "M"), (4, 0, "S"), (2, 5, "S")]),
                {"kind": "Compute", "t": 3, "robot": 1, "color": "S",
                 "dest": ["4/1", "0/1"], "exec": True},
                {"kind": "End", "t": 3, "status": "budget"},
            ]
        )
        rep = _cycle_checked(tr)
        assert rep.violations == [
            {"t": 2, "detail": "robot 1 ran the inner algorithm outside all-S"}
        ]
        assert rep.extras["cycles"] == 1

    def test_switch_flags_an_unmatched_shape(self):
        tr = run(scen([((0, 0), "S"), ((3, 0), "S"), ((9, 0), "S")], seed=2))
        assert check_onlds_switch(Trace.parse(tr.dumps())).extras["shape"] == 1
        tr.lines[0]["robots"][1]["color"] = "E"  # robot 1 starts E, no robot M
        rep = check_onlds_switch(tr)
        assert rep.violations == [
            {"t": 0, "detail": {"shape": "unmatched", "states": [("E", "none"), ("S", "none")]}}
        ]
        assert rep.extras["shape"] is None

    def test_monotone_g_flags_a_round_that_keeps_g(self):
        tr = run(Scenario.load(SCENARIOS / "line-lu.json"))
        assert check_monotone(tr, "g").passed
        # the round at t=1 moves robot 1 and keeps every color: without its
        # move the round is still effective, and it keeps the configuration
        t = 1
        tr = Trace.parse(tr.dumps())
        moves = [l for l in tr.lines[1:] if l["t"] == t and l["kind"] in ("MoveBegin", "MoveEnd")]
        assert [l["robot"] for l in moves] == [1, 1]
        tr = _reparse([l for l in tr.lines if not any(l is m for m in moves)])
        rep = check_monotone(tr, "g")
        first = rep.violations[0]
        assert first["t"] == t
        detail = first["detail"]
        assert detail["cmp"] == "EQUAL" and detail["before"] == detail["after"]
        assert detail["row"] == checker._cc_family(TraceData(tr).replayed(t).cc)
        assert detail["row"] in ("A", "AA", "AA+A", "B", "BB*B", "AB*B", "AB_mA", "AB+A", "mixed")

    @pytest.mark.parametrize(
        "stations,row",
        [
            ({0: "A"}, "A"),
            ({0: "A", 1: "A"}, "AA"),
            ({0: "A", 1: "A", 3: "A"}, "AA+A"),
            ({0: "B"}, "B"),
            ({0: "B", 1: "B", 3: "B"}, "BB*B"),
            ({0: "A", 1: "B", 3: "B"}, "AB*B"),
            ({0: "A", 1: "B", 2: "A"}, "AB_mA"),
            ({0: "A", 1: "B", 3: "A"}, "AB+A"),
            ({0: "A", 1: "B", 2: "A", 5: "A"}, "mixed"),
        ],
    )
    def test_cc_family_names_each_station_pattern(self, stations, row):
        # stations on the x axis: x -> the colors shown there
        cc = classify_line({pt(x, 0): colors for x, colors in stations.items()})
        assert checker._cc_family(cc) == row


TRIANGLE = [(pt(0, 0), "O"), (pt(10, 0), "O"), (pt(9, 3), "O")]


def _elect_mutant(fn):
    return dataclasses.replace(algorithms.ALGORITHMS["elect-one-lds"], fn=fn)


class TestEnumerateNegativeControls:
    def test_fixpoint_that_misses_the_goal(self):
        never = _elect_mutant(lambda cfg, pos, light: algorithms.Action(light, pos))
        rep = enumerate_unfair(TRIANGLE, never, 4)
        state = [["0", "0", "O"], ["9", "3", "O"], ["10", "0", "O"]]
        assert rep.violations == [
            {"t": 0, "detail": {"detail": "fixpoint misses the goal", "state": state}}
        ]

    def test_potential_that_does_not_decrease(self):
        def outward(cfg, me, light):  # every vertex away from the origin: the area grows
            if cfg.on_lds:
                return algorithms.Action(light, me)
            return algorithms.Action(light, Point(2 * me.x, 2 * me.y))

        rep = enumerate_unfair(TRIANGLE, _elect_mutant(outward), 1)
        assert not rep.passed
        details = {v["detail"]["detail"] for v in rep.violations}
        assert details == {"potential not decreasing (GREATER)"}


def _budget_run(name, budget):
    sc = dataclasses.replace(Scenario.load(SCENARIOS / name), step_budget=budget)
    with pytest.raises(BudgetExhausted) as exc:
        run(sc)
    return exc.value.trace


@pytest.mark.parametrize("budget,end,events", [(60, 23, 37), (100, 41, 59), (200, 72, 128)])
def test_an_async_budget_is_spent_on_events_and_advances(budget, end, events):
    tr = _budget_run("square.json", budget)
    td = TraceData(tr)
    assert (td.end_time, td.robot_events) == (end, events)
    assert validate_trace(td).passed


def _scenario_trace(name):
    return Trace.parse(run(Scenario.load(SCENARIOS / name)).dumps())


def _reparse(lines):
    return Trace.parse("".join(json.dumps(l) + "\n" for l in lines))


def _violations(tr):
    return [(v["t"], v["detail"]) for v in validate_trace(tr).violations]
