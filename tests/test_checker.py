import copy
import dataclasses
import functools
import json
import random
import re
from pathlib import Path

import pytest

from lumigather import algorithms, checker
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
from lumigather.configuration import Frame, Snapshot
from lumigather.engine import BudgetExhausted, Scenario, Trace, run
from lumigather.fuzz import random_scenario
from lumigather.geometry import Point, hull_center, pt
from lumigather.rational import Rat

from conftest import identity_frame, make_snap

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scen(robots, **kw):
    base = dict(
        delta=Rat(1), scheduler="async", algorithm="three-color", seed=0,
        step_budget=50000,
    )
    base.update(kw)
    return Scenario(robots=tuple((pt(*p), c) for p, c in robots), **base)


def synthetic(header_over, lines):
    """Hand-built trace for negative controls.

    Unless ``header_over`` sets it, the step budget is the one a ``budget``
    End line used up: its rounds, or its robot events and clock advances.
    """
    header = {
        "kind": "Header",
        "algorithm": "three-color",
        "scheduler": "async",
        "delta": "1/1",
        "n": 0,
        "robots": [],
        "adversary": {"policy": "random", "seed": 0},
        "step_budget": 1000,
        "fairness_bound": 64,
        "move_span_cap": 16,
    }
    header.update(header_over)
    header["n"] = len(header["robots"])
    end = next((l for l in lines if l["kind"] == "End"), None)
    if "step_budget" not in header_over and end is not None and end["status"] == "budget":
        steps = end["t"]
        if header["scheduler"] == "async":
            steps += sum(l["kind"] in ("Look", "Compute", "MoveBegin", "MoveEnd") for l in lines)
        header["step_budget"] = max(steps, 1)
    tr = Trace.__new__(Trace)
    tr.lines = [header] + lines
    tr.status = None
    tr.end_time = None
    return tr


def robot(x, y, color):
    return {"x": f"{x}/1", "y": f"{y}/1", "color": color}


def fmt(v):
    return v if isinstance(v, str) else f"{v}/1"


def cfg_line(t, entries):
    return {
        "kind": "Config",
        "t": t,
        "entries": [[fmt(x), fmt(y), c] for x, y, c in entries],
    }


def one_move(scheduler, reach, progress=None, compute=True):
    """lu-gather-async trace: robot 0 computes (2, 0) and moves to ``reach``.

    Robot 1 stays at (4, 0).  Under ``async`` the robot looks at t=0,
    computes at t=1 and moves from t=2 to t=3 through ``progress``; under a
    round-based scheduler it does all of it in the round at t=0.  Config
    lines follow the events, so only the move itself can be at fault.
    """
    light = "M" if compute else "S"
    reach_xy = [fmt(v) for v in reach]

    def config(t, xy):
        return cfg_line(t, [(xy[0], xy[1], light), (4, 0, "S")])

    def event(kind, t, **kw):
        return {"kind": kind, "t": t, "robot": 0, **kw}

    comp = [event("Compute", 1, color="M", dest=["2/1", "0/1"], exec=False)]
    if scheduler == "async":
        lines = [
            cfg_line(0, [(0, 0, "S"), (4, 0, "S")]),
            event("Look", 0),
            cfg_line(1, [(0, 0, "S"), (4, 0, "S")]),
            *(comp if compute else []),
            config(2, (0, 0)),
            event("MoveBegin", 2, reach=reach_xy),
            event("MoveProgress", 3, pos=[fmt(v) for v in progress]),
            config(3, progress),
            event("MoveEnd", 3, pos=reach_xy),
            config(4, reach),
            {"kind": "End", "t": 4, "status": "budget"},
        ]
    else:
        comp[0]["t"] = 0
        lines = [
            cfg_line(0, [(0, 0, "S"), (4, 0, "S")]),
            {"kind": "RoundStart", "t": 0, "activated": [0]},
            event("Look", 0),
            *(comp if compute else []),
            event("MoveBegin", 0, reach=reach_xy),
            event("MoveEnd", 0, pos=reach_xy),
            config(1, reach),
            {"kind": "End", "t": 1, "status": "budget"},
        ]
    return synthetic(
        {
            "algorithm": "lu-gather-async",
            "scheduler": scheduler,
            "robots": [robot(0, 0, "S"), robot(4, 0, "S")],
        },
        lines,
    )


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
        rep = check_cycle_snapshot(tr)
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
        # class at t=0 is S,M: never all-S, so the exec is out of place;
        # there is no all-S cycle at all, which itself is fine, but the
        # forged exec inside a mixed class must be flagged when a cycle opens
        rep = check_cycle_snapshot(tr)
        # no all-S entry: no cycles recorded; the phase DFA accepts S,M -> ...
        assert rep.extras["cycles"] == 0

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
        tr = synthetic(
            {"algorithm": "lu-gather-async",
             "robots": [robot(0, 0, "S"), robot(10, 0, "S")]},
            [
                cfg_line(0, [(0, 0, "S"), (10, 0, "S")]),
                cfg_line(1, [(0, 0, "M"), (10, 0, "M")]),
                cfg_line(2, [(0, 0, "S"), (9, 0, "S")]),
                {"kind": "End", "t": 2, "status": "budget"},
            ],
        )
        rep = check_shrink(tr)
        assert not rep.passed
        assert rep.extras["loops"] == 2

    def test_gathered_flags_regather_and_enabled_final(self):
        tr = synthetic(
            {"algorithm": "lu-gather-async",
             "robots": [robot(0, 0, "S"), robot(5, 0, "S")]},
            [
                cfg_line(0, [(0, 0, "S"), (5, 0, "S")]),
                cfg_line(1, [(2, 0, "S"), (2, 0, "S")]),
                cfg_line(2, [(0, 0, "S"), (5, 0, "S")]),
                {"kind": "End", "t": 2, "status": "budget"},
            ],
        )
        rep = check_gathered(tr)
        assert not rep.passed
        assert rep.extras["gathered"] is False

    def test_replay_flags_corrupted_config(self):
        tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
        lines = [dict(l) for l in tr.lines]
        for ln in lines:
            if ln["kind"] == "Config" and ln["t"] > 0:
                ln["entries"][0][0] = "99/1"
                break
        bad = Trace.__new__(Trace)
        bad.lines = lines
        bad.status = tr.status
        bad.end_time = tr.end_time
        rep = validate_trace(bad)
        assert not rep.passed

    def test_replay_flags_wrong_compute(self):
        tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
        lines = [dict(l) for l in tr.lines]
        for ln in lines:
            if ln["kind"] == "Compute":
                ln["color"] = "E" if ln["color"] != "E" else "M"
                break
        bad = Trace.__new__(Trace)
        bad.lines = lines
        bad.status = tr.status
        bad.end_time = tr.end_time
        assert not validate_trace(bad).passed


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

    def test_replay_requires_a_config_line_at_every_instant(self):
        tr = run(Scenario.load(SCENARIOS / "square.json"))
        assert validate_trace(tr).passed and tr.end_time > 77
        bad = Trace.parse(tr.dumps())
        bad.lines = [l for l in bad.lines if not (l["kind"] == "Config" and l["t"] == 77)]
        rep = validate_trace(bad)
        assert not rep.passed
        assert rep.violations == [
            {"t": 78, "detail": "Config line at t=78 where t=77 was expected"}
        ]

    @pytest.mark.parametrize("damage", ["truncated", "event-after-end", "end-time", "end-status"])
    def test_replay_checks_end_line(self, damage):
        tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
        assert tr.status == "gathered" and validate_trace(tr).passed
        bad = Trace.parse(tr.dumps())
        end = bad.lines[-1]
        if damage == "truncated":
            bad.lines.pop()
        elif damage == "event-after-end":
            bad.lines.append({"kind": "Look", "t": end["t"], "robot": 0})
        elif damage == "end-time":
            end["t"] += 1
        else:
            end["status"] = "fixpoint"
        rep = validate_trace(bad)
        assert not rep.passed and len(rep.violations) == 1


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
    assert tr.status in ("gathered", "fixpoint")
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
        t = tr.end_time
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

    def test_repeated_config_line_shares_its_decoded_entries(self):
        td = TraceData(Trace.parse(self._trace().dumps()))
        ts = td.config_times
        repeats = [t for t in ts[1:] if td.configs[t] == td.configs[t - 1]]
        assert repeats
        assert all(td.configs[t] is td.configs[t - 1] for t in repeats)

    def test_forged_repeat_of_the_previous_line_fails_replay(self):
        tr = Trace.parse(self._trace().dumps())
        configs = [l for l in tr.lines if l["kind"] == "Config"]
        k = next(k for k in range(1, len(configs)) if configs[k]["entries"] == configs[k - 1]["entries"])
        forged = copy.deepcopy(configs[k - 1]["entries"])
        forged[0][0] = "99/1"
        configs[k]["entries"] = forged
        rep = validate_trace(tr)
        assert not rep.passed
        assert {"t": configs[k]["t"], "detail": "replayed configuration differs from logged Config"} in rep.violations

    def test_equal_coordinates_share_one_point(self):
        td = TraceData(Trace.parse(self._trace().dumps()))
        last = td.configs[td.config_times[-1]]
        assert all(p is last[0][0] for p, _ in last)  # gathered: one point
        assert td.config_at(0) is td.config_at(0)


def test_checks_evaluate_each_action_once_on_their_own_configurations(monkeypatch):
    tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S"), ((4, 4), "S")], seed=8))
    names = checker.default_checks("three-color", "async")
    seen = []
    evaluate = algorithms.AlgorithmSpec.__call__

    def counting(self, snap):
        seen.append((snap.config, snap.own_pos, snap.own_light))
        return evaluate(self, snap)

    monkeypatch.setattr(algorithms.AlgorithmSpec, "__call__", counting)
    td = TraceData(Trace.parse(tr.dumps()))
    reports = [str(CHECKS[name](td)) for name in names]
    memoized = list(seen)
    assert len({(id(c), p, light) for c, p, light in memoized}) == len(memoized)
    # every action the checks used was evaluated on a configuration of the
    # TraceData's own interner, never taken from the engine
    assert all(td.cache.get(c.entries) is c for c, _, _ in memoized)
    seen.clear()
    monkeypatch.setattr(
        checker, "memo_action", lambda alg, cfg, pos, light: alg(Snapshot(cfg, pos, light))
    )
    td = TraceData(Trace.parse(tr.dumps()))
    assert [str(CHECKS[name](td)) for name in names] == reports
    assert len(seen) > len(memoized)


class TestMalformedTraceData:
    def _lines(self):
        return run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8)).lines

    def test_first_line_not_header(self):
        with pytest.raises(ValueError, match="Header"):
            TraceData(self._lines()[1:])

    def test_no_robots(self):
        lines = [dict(self._lines()[0], n=0, robots=[]), {"kind": "End", "t": 0, "status": "budget"}]
        with pytest.raises(ValueError, match="at least one robot"):
            TraceData(lines)

    @pytest.mark.parametrize("kind,rid", [("MoveEnd", 9), ("Look", -1), ("Compute", "0")])
    def test_robot_id_out_of_range(self, kind, rid):
        lines = [dict(l) for l in self._lines()]
        i = next(k for k, l in enumerate(lines) if l["kind"] == kind)
        lines[i]["robot"] = rid
        with pytest.raises(ValueError, match="robot id"):
            TraceData(lines)

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
            i = next(k for k, l in enumerate(lines) if l["kind"] == "Config" and l["t"] == 5)
            lines.insert(i, copy.deepcopy(lines[i]))
            lines[i]["entries"][0][0] = "99/1"
        else:
            lines.insert(3, [1, 2])
        with pytest.raises(ValueError):
            TraceData(lines)
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
            TraceData(lines)

    @pytest.mark.parametrize("damage", ["last-config-first", "looks-swapped"])
    def test_line_back_in_time(self, damage):
        # forgeries that passed replay, or were misreported by it, while the
        # per-robot timelines took the lines' order for time order
        lines = run(random_scenario(random.Random(4105), "three-color", "async", 5, bound=8)).lines
        if damage == "last-config-first":
            last = max(i for i, l in enumerate(lines) if l["kind"] == "Config")
            lines.insert(1, lines.pop(last))
        else:
            i, j = (
                k for k, l in enumerate(lines)
                if l["kind"] == "Look" and l["robot"] == 0 and l["t"] in (2, 14)
            )
            lines[i], lines[j] = lines[j], lines[i]
        with pytest.raises(ValueError, match="comes after a line at t="):
            TraceData(lines)

    def test_header_outside_the_scenario_rules(self):
        header = dict(
            self._lines()[0],
            algorithm="lu-gather",
            robots=[robot(0, 0, "A"), robot(5, 0, "A"), robot(2, 3, "A")],
        )
        with pytest.raises(ValueError, match="trace header: lu-gather requires a collinear start"):
            TraceData([header])

    @pytest.mark.parametrize("kind", ["Config", "Compute"])
    def test_color_outside_the_alphabet(self, kind):
        lines = [copy.deepcopy(l) for l in self._lines()]
        line = next(l for l in lines if l["kind"] == kind)
        if kind == "Config":
            line["entries"][1][2] = "Z"
        else:
            line["color"] = "Z"
        with pytest.raises(ValueError, match="color 'Z' outside alphabet of three-color"):
            TraceData(lines)

    @pytest.mark.parametrize(
        "damage,message",
        [
            ("robots-not-array", "robots is not a JSON array"),
            ("n-not-integer", "n is not a JSON integer"),
            ("robot-color-not-string", "color is not a JSON string"),
            ("config-entry-not-array", "malformed Config entries"),
            ("config-entry-short", "malformed Config entries"),
            ("config-color-not-string", "color is not a JSON string"),
            ("entries-not-array", "malformed Config entries"),
            ("t-not-integer", "t is not a JSON integer"),
            ("compute-color-not-string", "color is not a JSON string"),
            ("activated-not-array", "activated is not a JSON array"),
            ("dest-not-pair", "malformed coordinate pair"),
            ("coordinate-not-rational", "malformed rational"),
            ("adversary-not-object", "adversary is not a JSON object"),
            ("adversary-seed-not-integer", "adversary seed is not a JSON integer"),
        ],
    )
    def test_value_of_wrong_type(self, damage, message):
        lines = [copy.deepcopy(l) for l in self._lines()]
        config = next(l for l in lines if l["kind"] == "Config")
        if damage == "robots-not-array":
            lines[0]["robots"] = 5
        elif damage == "n-not-integer":
            lines[0]["n"] = [3]
        elif damage == "robot-color-not-string":
            lines[0]["robots"][0]["color"] = 7
        elif damage == "config-entry-not-array":
            config["entries"][1] = 7
        elif damage == "config-entry-short":
            config["entries"][1] = config["entries"][1][:2]
        elif damage == "config-color-not-string":
            config["entries"][1][2] = ["S"]
        elif damage == "entries-not-array":
            config["entries"] = 5
        elif damage == "compute-color-not-string":
            next(l for l in lines if l["kind"] == "Compute")["color"] = 1
        elif damage == "activated-not-array":
            lines.insert(2, {"kind": "RoundStart", "t": 0, "activated": 1})
        elif damage == "t-not-integer":
            config["t"] = "0"
        elif damage == "dest-not-pair":
            next(l for l in lines if l["kind"] == "Compute")["dest"] = [[1], 2]
        elif damage == "adversary-not-object":
            lines[0]["adversary"] = "random"
        elif damage == "adversary-seed-not-integer":
            lines[0]["adversary"]["seed"] = "x"
        else:
            lines[0]["robots"][2]["y"] = "three"
        with pytest.raises(ValueError, match=message):
            TraceData(lines)


def test_every_check_reports_on_a_trace_without_config_lines():
    tr = run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8))
    td = TraceData([l for l in tr.lines if l["kind"] != "Config"])
    assert td.config_times == []
    for name, check in CHECKS.items():
        assert isinstance(check(td), Report), name
    rep = check_gathered(td)
    assert not rep.passed and rep.extras["gathered"] is False
    assert rep.violations == [{"t": None, "detail": "trace has no Config line"}]


class TestEquivariance:
    def test_identity_frame_trivial(self):
        snap = make_snap([((0, 0), "S"), ((4, 0), "S")], (0, 0), "S")
        rep = check_equivariance("lu-gather-async", snap, [identity_frame()])
        assert rep.passed

    def test_pythagorean_frame_exact(self):
        snap = make_snap(
            [((0, 0), "O"), ((4, 0), "O"), ((4, 2), "O"), ((0, 2), "O"), ((1, (1, 2)), "O")],
            (1, (1, 2)),
            "O",
        )
        frame = Frame.from_triple(3, 4, 5, scale=Rat(7, 3), tx=Rat(5, 2), ty=-3)
        rep = check_equivariance("elect-one-lds", snap, [frame])
        assert rep.passed

    def test_trace_check_flags_a_non_equivariant_algorithm(self):
        td = TraceData(run(scen([((0, 0), "S"), ((5, 0), "S"), ((2, 3), "S")], seed=8)))
        honest = check_equivariance_trace(td)
        assert honest.passed and honest.extras["checked"] > 0
        spec = td.algorithm

        def skewed(snap):  # a fixed global offset does not commute with rotations
            act = spec(snap)
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
        snap = make_snap(
            [((0, 0), "O"), ((6, 0), "O"), ((6, 2), "O"), ((0, 2), "O"), ((1, 1), "O")],
            (1, 1),
            "O",
        )
        assert not snapshot_has_convention_ties(snap)
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

        def counting(self, snap):
            seen.append((snap.config.entries, snap.own_pos, snap.own_light))
            return evaluate(self, snap)

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


# --------------------------------------------------------------------------
# Negative controls: one forged defect per rule that honest runs never fire
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _square_text():
    return run(Scenario.load(SCENARIOS / "square.json")).dumps()


def _square():
    """A fresh copy of the bundled square.json async trace."""
    return Trace.parse(_square_text())


def _one_move():
    """The honest async ``one_move`` trace: Look 0, Compute 1, move from 2 to 3."""
    return one_move("async", (2, 0), (1, 0))


def _line(tr, kind, **match):
    """Index of the first line of ``kind`` whose keys equal ``match``."""
    return next(
        i for i, l in enumerate(tr.lines)
        if l["kind"] == kind and all(l.get(k) == v for k, v in match.items())
    )


def _move_progress(tr):
    """Per move of ``tr``: robot, MoveBegin line and its MoveProgress lines."""
    open_moves, out = {}, []
    for ln in tr.lines:
        if ln["kind"] == "MoveBegin":
            open_moves[ln["robot"]] = (ln["robot"], ln, [])
            out.append(open_moves[ln["robot"]])
        elif ln["kind"] == "MoveProgress":
            open_moves[ln["robot"]][2].append(ln)
    return out


def _compute_at_look_instant(tr):
    # robot 0 computes at t=0, the instant of its Look; the Config at t=1
    # shows the new color, so only the timing is at fault
    comp = tr.lines.pop(_line(tr, "Compute"))
    comp["t"] = 0
    tr.lines.insert(_line(tr, "Config", t=1), comp)
    tr.lines[_line(tr, "Config", t=1)]["entries"][0][2] = "M"


def _end_at_begin(tr):
    # the move ends at its MoveBegin instant, so no progress is due
    del tr.lines[_line(tr, "MoveProgress")]
    end = tr.lines.pop(_line(tr, "MoveEnd"))
    end["t"] = 2
    tr.lines.insert(_line(tr, "Config", t=3), end)
    tr.lines[_line(tr, "Config", t=3)]["entries"] = tr.lines[_line(tr, "Config", t=4)]["entries"]
    del tr.lines[_line(tr, "Config", t=4)]
    tr.lines[-1]["t"] = 3


def _cap_below_longest_move(tr):
    td = TraceData(tr)
    longest = max(m.t_e - m.t_b for ms in td.moves for m in ms if m.t_e is not None)
    assert longest >= 2
    tr.lines[0]["move_span_cap"] = longest - 1


def _progress_repeated(tr):
    _, _, points = next(m for m in _move_progress(tr) if len(m[2]) >= 2)
    points[1]["pos"] = list(points[0]["pos"])


def _forge(kind, **kw):
    def forge(tr):
        tr.lines[_line(tr, kind)].update(kw)
    return forge


def _drop(*kinds):
    def forge(tr):
        tr.lines[:] = [l for l in tr.lines if l["kind"] not in kinds]
    return forge


def _one_round():
    """The honest ssync ``one_move`` trace: one round with the whole cycle."""
    return one_move("ssync", (2, 0), (1, 0))


def _compute_before_look(tr):
    # the round's events are read in line order, not sorted by kind
    i, j = _line(tr, "Look"), _line(tr, "Compute")
    tr.lines[i], tr.lines[j] = tr.lines[j], tr.lines[i]


def _header_n_off(tr):
    tr.lines[0]["n"] += 1


def _one_move_with(reach, progress):
    def forge(tr):
        tr.lines[:] = one_move("async", reach, progress).lines
    return forge


@pytest.mark.parametrize(
    "base,forge,error,message",
    [
        (_one_move, _compute_at_look_instant, None, "events not strictly ordered"),
        (_one_move, _end_at_begin, None, "move ended before t_b+1"),
        (_square, _cap_below_longest_move, None, "move span exceeds cap"),
        (_one_move, _one_move_with((2, 0), (1, 1)), None, "progress point off half-open segment"),
        (_square, _progress_repeated, None, "progress distance not increasing"),
        (_one_move, _drop("Look"), None, "Compute without Look"),
        (_one_move, _one_move_with((0, 0), (0, 0)), None, "zero-distance move not omitted"),
        (_one_move, _forge("MoveEnd", pos=["1/1", "0/1"]), None, "end position differs from reach"),
        (_square, _header_n_off, ValueError, "trace header lists 4 robots, n=5"),
        (_one_move, _drop("MoveBegin"), ValueError, "MoveProgress without MoveBegin"),
        (_one_move, _drop("MoveBegin", "MoveProgress"), ValueError, "MoveEnd without MoveBegin"),
        (_one_round, _compute_before_look, None, "round events CLBE are not Look, Compute and move"),
        (_square, _forge("End", status="done"), None, "End status 'done' is none of gathered"),
    ],
    ids=[
        "not-strictly-ordered",
        "ended-before-tb-plus-1",
        "span-over-cap",
        "progress-off-segment",
        "progress-not-increasing",
        "compute-without-look",
        "zero-distance-move",
        "end-off-reach",
        "header-n",
        "progress-without-begin",
        "end-without-begin",
        "round-compute-before-look",
        "end-status-unknown",
    ],
)
def test_replay_negative_control(base, forge, error, message):
    assert validate_trace(base()).passed
    tr = base()
    forge(tr)
    if error is not None:
        with pytest.raises(error, match=re.escape(message)):
            validate_trace(tr)
        return
    rep = validate_trace(tr)
    assert not rep.passed
    assert any(message in str(v["detail"]) for v in rep.violations), rep.violations


def _wrapped_three_color(lines, robots=((0, 0, "S"), (4, 0, "S"), (2, 5, "S"))):
    return synthetic({"robots": [robot(*r) for r in robots]}, lines)


class TestCheckNegativeControls:
    def test_cycle_flags_an_illegal_phase_class(self):
        assert check_cycle_snapshot(_square()).passed
        tr = _square()
        tr.lines[_line(tr, "Config", t=1)]["entries"] = [
            [x, y, c] for (x, y, _), c in zip(tr.lines[1]["entries"], "SMES")
        ]
        rep = check_cycle_snapshot(tr)
        assert {"t": 1, "detail": "illegal phase class ['E', 'M', 'S']"} in rep.violations

    def test_cycle_flags_an_illegal_transition(self):
        tr = _square()
        entries = tr.lines[_line(tr, "Config", t=1)]["entries"]
        assert {c for _, _, c in entries} == {"S"}
        for e in tr.lines[_line(tr, "Config", t=2)]["entries"]:
            e[2] = "E"
        rep = check_cycle_snapshot(tr)
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
        rep = check_cycle_snapshot(tr)
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
        tr = Trace.parse(tr.dumps())
        configs = {l["t"]: l for l in tr.lines if l["kind"] == "Config"}
        t = next(t for t in sorted(configs) if t + 1 in configs
                 and configs[t]["entries"] != configs[t + 1]["entries"])
        configs[t + 1]["entries"] = copy.deepcopy(configs[t]["entries"])
        rep = check_monotone(tr, "g")
        first = rep.violations[0]
        assert first["t"] == t
        detail = first["detail"]
        assert detail["cmp"] == "EQUAL" and detail["before"] == detail["after"]
        assert detail["row"] == checker._cc_family(TraceData(tr).config_at(t).cc)
        assert detail["row"] in ("A", "AA", "AA+A", "B", "BB*B", "AB*B", "AB_mA", "AB+A", "mixed")


TRIANGLE = [(pt(0, 0), "O"), (pt(10, 0), "O"), (pt(9, 3), "O")]


def _elect_mutant(fn):
    return dataclasses.replace(algorithms.ALGORITHMS["elect-one-lds"], fn=fn)


class TestEnumerateNegativeControls:
    def test_fixpoint_that_misses_the_goal(self):
        never = _elect_mutant(lambda snap: algorithms.Action(snap.own_light, snap.own_pos))
        rep = enumerate_unfair(TRIANGLE, never, 4)
        state = [["0", "0", "O"], ["9", "3", "O"], ["10", "0", "O"]]
        assert rep.violations == [
            {"t": 0, "detail": {"detail": "fixpoint misses the goal", "state": state}}
        ]

    def test_potential_that_does_not_decrease(self):
        def outward(snap):  # every vertex away from the origin: the area grows
            me = snap.own_pos
            if snap.on_lds:
                return algorithms.Action(snap.own_light, me)
            return algorithms.Action(snap.own_light, Point(2 * me.x, 2 * me.y))

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


@pytest.mark.parametrize(
    "name,budget,forged",
    [
        ("square.json", 60, 5),
        ("square.json", 60, 10**6),
        ("line-lu.json", 3, 2),
        ("line-lu.json", 3, 4),
    ],
)
def test_replay_flags_a_forged_step_budget_at_a_budget_end(name, budget, forged):
    tr = Trace.parse(_budget_run(name, budget).dumps())
    steps = budget
    tr.lines[0]["step_budget"] = forged
    rep = validate_trace(tr)
    assert rep.violations == [
        {"t": tr.end_time, "detail": f"End status budget after {steps} steps of a budget of {forged}"}
    ]


@pytest.mark.parametrize("name", ["square.json", "line-lu.json"])
def test_replay_flags_a_run_that_ends_over_its_step_budget(name):
    tr = run(Scenario.load(SCENARIOS / name))
    td = TraceData(tr)
    steps = td.end_time
    if td.scenario.scheduler == "async":
        steps += td.robot_events - 1  # the closing advance is no step
    forged = Trace.parse(tr.dumps())
    forged.lines[0]["step_budget"] = steps
    assert validate_trace(forged).passed
    forged = Trace.parse(tr.dumps())
    forged.lines[0]["step_budget"] = steps - 1
    assert validate_trace(forged).violations == [
        {"t": tr.end_time,
         "detail": f"End status {tr.status} after {steps} steps of a budget of {steps - 1}"}
    ]
