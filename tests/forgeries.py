"""One table of ``lumigather`` command lines, each with the verdict it must give.

The table holds honest verdicts and forged inputs alike.  A ``Row`` names a
base input (or none), an edit of its freshly parsed lines (a base that
returns bytes is written as it is, unparsed and unedited), the
``lumigather`` command lines that read the written file, and what each of
them must give: an exit code, a message on stdout or stderr, and, where a
row pins them, the reports that fail and the exact violations of some of
them.  No command may print a traceback, no printed report may list one
``(t, detail)`` pair twice, and a command that exits 2 prints nothing on
stdout unless the row pins its reports.

The honest rows run every bundled scenario end to end (run, check,
annotate, replay of the annotated copy, plot and enumerate), pin each
scenario's ``run`` summary, and run one small ``fuzz`` campaign per
algorithm and adversary policy or round-based scheduler.

``run_row`` checks one row with any runner that maps an argument list to
``(exit code, stdout, stderr)``.  ``tests/test_forgeries.py`` passes
``cli.main`` in process;

    python tests/forgeries.py DIR

writes every input under DIR and runs each row with the installed
``lumigather`` console script, exiting 1 and naming each mismatch.

A new oracle rule gets its negative control as one more row in ``ROWS``.
The edit functions that other tests apply to other traces (``config_line``,
``config_deleted``, ``config_repeated``, ``config_after_end``,
``config_only`` and ``exec_flags``) live here too.
"""

import dataclasses
import functools
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from pathlib import Path

from lumigather import cli
from lumigather.checker import TraceData
from lumigather.engine import POLICIES, BudgetExhausted, Scenario, Trace, run
from lumigather.fuzz import random_scenario
from lumigather.rational import format_rat

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# --------------------------------------------------------------------------
# Hand-built traces
# --------------------------------------------------------------------------


def synthetic(header_over, lines):
    """Hand-built trace for negative controls.

    Unless ``header_over`` sets it, the step budget is the one a ``budget``
    End line used up: its rounds, or its robot events and clock advances.
    A Config line whose entries equal those of the Config line before it is
    left out, as the engine leaves out a configuration that did not change.
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
    kept, entries = [], None
    for ln in lines:
        if ln["kind"] == "Config":
            if ln["entries"] == entries:
                continue
            entries = ln["entries"]
        kept.append(ln)
    return Trace([header] + kept)


def robot(x, y, color):
    return {"x": fmt(x), "y": fmt(y), "color": color}


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


# --------------------------------------------------------------------------
# Bases: each a function of no argument that returns the honest text
# --------------------------------------------------------------------------


def _text(scenario):
    try:
        return run(scenario).dumps()
    except BudgetExhausted as exc:
        return exc.trace.dumps()


@functools.cache
def bundled(name, step_budget=None):
    """The trace of scenarios/<name>.json, cut short by ``step_budget`` if given."""
    sc = Scenario.load(SCENARIOS / f"{name}.json")
    if step_budget is not None:
        sc = dataclasses.replace(sc, step_budget=step_budget)
    return _text(sc)


@functools.cache
def fuzzed(seed, algorithm):
    """The async trace of ``random_scenario``: ``Random(seed)``, n=5, coordinates within 8."""
    return _text(random_scenario(random.Random(seed), algorithm, "async", 5, bound=8))


@functools.cache
def literal(*robots, seed=0):
    """The three-color async trace from ``robots``, (x, y, color) triples."""
    data = {"robots": [robot(*r) for r in robots], "delta": "1/1", "scheduler": "async",
            "algorithm": "three-color", "adversary": {"policy": "random", "seed": seed}}
    return run(Scenario.from_json(data)).dumps()


def scenario_file(name):
    """scenarios/<name>.json on one line, a scenario and no trace."""
    return json.dumps(json.loads((SCENARIOS / f"{name}.json").read_text()))


SQUARE = partial(bundled, "square")
LINE_LU = partial(bundled, "line-lu")
RECTANGLE = partial(bundled, "rectangle-unfair")
SIX_COLOR = partial(fuzzed, 4105, "six-color")  # 33 inner executions in 17 cycles
ONE_MOVE = lambda: one_move("async", (2, 0), (1, 0)).dumps()  # noqa: E731
ONE_ROUND = lambda: one_move("ssync", (2, 0), (1, 0)).dumps()  # noqa: E731

# --------------------------------------------------------------------------
# Edits: each changes a line list in place or returns a new list
# --------------------------------------------------------------------------


def index(lines, kind, **match):
    """Index of the first line of ``kind`` whose keys equal ``match``."""
    return next(
        i for i, l in enumerate(lines)
        if l["kind"] == kind and all(l.get(k) == v for k, v in match.items())
    )


def first(lines, kind, **match):
    return lines[index(lines, kind, **match)]


GONE = object()


def put(*path, value, kind=None):
    """Edit: ``value`` at ``path`` in the first line of ``kind`` (None: the
    header or scenario); ``GONE`` deletes the key."""
    def edit(lines):
        *inner, key = path
        target = lines[0] if kind is None else first(lines, kind)
        for k in inner:
            target = target[k]
        if value is GONE:
            del target[key]
        else:
            target[key] = value
    return edit


def dropping(*kinds):
    """Edit: every line of ``kinds`` deleted."""
    return lambda lines: [l for l in lines if l["kind"] not in kinds]


def repeated(kind):
    """Edit: the first line of ``kind`` written twice."""
    return lambda lines: lines.insert(index(lines, kind), dict(first(lines, kind)))


def end_moved(shift):
    return lambda lines: lines[-1].update(t=lines[-1]["t"] + shift)


def config_line(lines, t):
    """Index of the Config line at instant t, inserted if the trace has none.

    An inserted line repeats the latest Config line before t, with fresh
    entries, and goes after the MoveProgress lines at t and before every
    other line at t or later.
    """
    latest, i = None, 1
    while i < len(lines):
        ln = lines[i]
        if ln["t"] > t or (ln["t"] == t and ln["kind"] != "MoveProgress"):
            if ln["kind"] == "Config" and ln["t"] == t:
                return i
            break
        if ln["kind"] == "Config":
            latest = ln
        i += 1
    lines.insert(i, {**json.loads(json.dumps(latest)), "t": t})
    return i


def config_times(lines):
    return [l["t"] for l in lines if l["kind"] == "Config"]


def config_deleted(lines, t=None):
    """The Config line at t deleted, by default the middle one."""
    times = config_times(lines)
    t = times[len(times) // 2] if t is None else t
    return [l for l in lines if not (l["kind"] == "Config" and l["t"] == t)]


def config_repeated(lines):
    """A Config line added at the middle instant that has none, if one has none."""
    gaps = sorted(set(range(lines[-1]["t"] + 1)) - set(config_times(lines)))
    if gaps:
        config_line(lines, gaps[len(gaps) // 2])
    return lines


def config_after_end(lines):
    """A copy of the latest Config line one instant after End."""
    return lines + [dict(first(lines[::-1], "Config"), t=lines[-1]["t"] + 1)]


def config_only(lines):
    """The first Config line after instant 0 claims its second entry shows E."""
    next(l for l in lines if l["kind"] == "Config" and l["t"] > 0)["entries"][1][2] = "E"


def exec_flags(value, count):
    """Edit: every Compute's exec flag set to ``value``; ``count`` of them were True."""
    def edit(lines):
        computes = [l for l in lines if l["kind"] == "Compute"]
        assert sum(l["exec"] for l in computes) == count
        for l in computes:
            l["exec"] = value
    return edit


def exec_on_a_non_inner_compute(lines):
    next(l for l in lines if l["kind"] == "Compute" and not l["exec"])["exec"] = True


def lifted(lines):
    """The trace's first move lifted off the line, at its reach and MoveEnd."""
    i = index(lines, "MoveBegin")
    end = first(lines[i:], "MoveEnd", robot=lines[i]["robot"])
    lines[i]["reach"][1] = end["pos"][1] = "1/1"


def compute_at_look_instant(lines):
    # robot 0 computes at t=0, the instant of its Look; the Config at t=1
    # shows the new color, so only the timing is at fault
    comp = lines.pop(index(lines, "Compute"))
    comp["t"] = 0
    lines.insert(config_line(lines, 1), comp)
    lines[config_line(lines, 1)]["entries"][0][2] = "M"


def end_at_begin(lines):
    # the move ends at its MoveBegin instant, so no progress is due
    del lines[index(lines, "MoveProgress")]
    end = lines.pop(index(lines, "MoveEnd"))
    end["t"] = 2
    lines.insert(index(lines, "Config", t=3), end)
    first(lines, "Config", t=3)["entries"] = first(lines, "Config", t=4)["entries"]
    del lines[index(lines, "Config", t=4)]
    lines[-1]["t"] = 3


def cap_below_longest_move(lines):
    td = TraceData(Trace(lines))
    longest = max(m.t_e - m.t_b for ms in td.moves for m in ms if m.t_e is not None)
    assert longest >= 2
    lines[0]["move_span_cap"] = longest - 1


def progress_point_repeated(lines):
    """The second progress point of the first move with two equals its first."""
    points = {}
    for l in lines:
        if l["kind"] == "MoveBegin":
            points[l["robot"]] = []
        elif l["kind"] == "MoveProgress":
            points[l["robot"]].append(l)
            if len(points[l["robot"]]) == 2:
                l["pos"] = list(points[l["robot"]][0]["pos"])
                return


def swapped(i_of, j_of):
    """Edit: the lines at ``i_of(lines)`` and ``j_of(lines)`` swapped."""
    def edit(lines):
        i, j = i_of(lines), j_of(lines)
        lines[i], lines[j] = lines[j], lines[i]
    return edit


def looks_of_robot_0(t):
    return lambda lines: index(lines, "Look", robot=0, t=t)


def roundstart_after_look(lines):
    """The first RoundStart line swapped with the Look line after it."""
    i = index(lines, "RoundStart")
    assert lines[i + 1]["kind"] == "Look"
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


def progress_moved(where):
    """Edit: a copy of the first move's first MoveProgress line at its begin or after its end."""
    def edit(lines):
        i = index(lines, "MoveBegin")
        rid, t_b = lines[i]["robot"], lines[i]["t"]
        j = index(lines[i:], "MoveProgress", robot=rid) + i
        if where == "at-begin":  # the robot's first move: at t_b it shows its header point
            start = lines[0]["robots"][rid]
            lines.insert(i + 1, dict(lines[j], t=t_b, pos=[start["x"], start["y"]]))
        else:
            t = first(lines[i:], "MoveEnd", robot=rid)["t"] + 1
            at = next(k for k in range(j, len(lines)) if lines[k]["t"] >= t)
            lines.insert(at, dict(lines[j], t=t))
    return edit


def move_over_rounds(lines):
    """The round trace's move ends at t=2, through (1, 0) at t=1 and (3/2, 0) at t=2."""
    end = lines.pop(index(lines, "MoveEnd"))
    del lines[-2:]  # its Config line at t=1 and its End line
    for t, x in ((1, 1), (2, "3/2")):
        lines += [{"kind": "MoveProgress", "t": t, "robot": 0, "pos": [fmt(x), "0/1"]},
                  cfg_line(t, [(x, 0, "M"), (4, 0, "S")])]
    lines += [dict(end, t=2), cfg_line(3, [(2, 0, "M"), (4, 0, "S")]),
              {"kind": "End", "t": 3, "status": "budget"}]
    lines[0]["step_budget"] = 3


def cut(t, end_t):
    """Edit: the trace cut to its lines before instant ``end_t`` and its
    Config line at ``t``, and closed by a fixpoint End at ``end_t``."""
    def edit(lines):
        kept = [l for l in lines[1:-1] if l["t"] < end_t or (l["t"] == t and l["kind"] == "Config")]
        return lines[:1] + kept + [{"kind": "End", "t": end_t, "status": "fixpoint"}]
    return edit


def null_cycle(rounds):
    """Edit: robot 0 goes on after the terminal instant t with a Look and a
    Compute that keep its color and place, in one round at t (End at t+1)
    or at t and t+1 (End at t+2)."""
    def edit(lines):
        end = lines.pop()
        t = end["t"]
        pos, color = TraceData(Trace(lines + [end])).shown(t)[0]
        dest = [format_rat(pos.x), format_rat(pos.y)]
        if rounds:
            lines.append({"kind": "RoundStart", "t": t, "activated": [0]})
        lines += [
            {"kind": "Look", "t": t, "robot": 0},
            {"kind": "Compute", "t": t + (not rounds), "robot": 0, "color": color, "dest": dest,
             "exec": False},
            dict(end, t=t + 2 - rounds),
        ]
    return edit


def back_in_time(lines):
    """The last Config line moved to the front."""
    lines.insert(1, lines.pop(max(i for i, l in enumerate(lines) if l["kind"] == "Config")))


def coordinate(cached):
    """Edit: the first Config entry's y false, and with ``cached`` its x 0.0
    after the header's robot 0 took the JSON integers 0 and 0.

    JSON 0, 0.0 and false are equal: with ``cached`` the integer pair comes first.
    """
    def edit(lines):
        entry = first(lines, "Config")["entries"][0]
        assert entry == ["0/1", "0/1", "S"]
        if cached:
            lines[0]["robots"][0].update(x=0, y=0)
            entry[:2] = [0.0, False]
        else:
            entry[1] = False
    return edit


# --------------------------------------------------------------------------
# The table
# --------------------------------------------------------------------------

CHECK = ("check", "--trace", "{input}")
REPLAY = CHECK + ("--check", "replay")
PLOT = ("plot", "--trace", "{input}", "--out", "{input}.svg")
RUN = ("run", "--scenario", "{input}")
ENUMERATE = ("enumerate", "--scenario", "{scenarios}/triangle-enum.json")
SCENARIO_ENUMERATE = ("enumerate", "--scenario", "{input}")


@dataclasses.dataclass(frozen=True)
class Row:
    name: str
    base: object  # None, or a function of no argument that returns the honest text or bytes
    edit: object = None  # changes the parsed lines in place or returns new ones
    cmds: tuple = (CHECK,)
    code: int = 1
    message: str = ""  # in each command's output; "{dir}" is the output directory
    failing: tuple = None  # the names of the failing reports, in print order
    violations: dict = None  # report name -> its exact (t, detail) pairs
    whole: bool = False  # the message is each command's whole stdout, one line


def bad(name, base, edit, message, cmds=(CHECK, PLOT)):
    """A row of malformed input: each command exits 2 with ``message``."""
    return Row(name, base, edit, cmds, 2, message)


def violation(name, base, edit, message, cmds=(REPLAY,)):
    return Row(name, base, edit, cmds, 1, message)


def replay_only(name, base, edit, *violations, cmd=REPLAY):
    """A row whose ``cmd`` fails replay alone, with exactly ``violations``;
    with none, it exits 0.  ``CHECK`` runs the default checks."""
    return Row(name, base, edit, (cmd,), int(bool(violations)),
               failing=("replay",) * bool(violations), violations={"replay": violations})


THREE = partial(literal, (0, 0, "S"), (5, 0, "S"), (2, 3, "S"), seed=8)  # gathered at t=89
DEEP = lambda: b"[" * 200_000 + b"\n"  # noqa: E731
FIXPOINT_ENABLED = "End status fixpoint while a robot is enabled"
CHANGED = "replayed configuration differs from logged Config"
COMPUTE_DIFFERS = "Compute differs from algorithm output"
# robot 0 runs the inner algorithm on its Look at t=0, where the class is S,
# M and no color cycle has begun
START_SMS = ((0, 0, "S"), (4, 0, "M"), (2, 5, "S"))
EXEC_OUTSIDE_ALL_S = lambda: synthetic(  # noqa: E731
    {"robots": [robot(*r) for r in START_SMS]},
    [
        cfg_line(0, START_SMS),
        {"kind": "Look", "t": 0, "robot": 0},
        {"kind": "Compute", "t": 1, "robot": 0, "color": "M", "dest": ["1/1", "1/1"],
         "exec": True},
        {"kind": "End", "t": 1, "status": "budget"},
    ],
).dumps()

# ``lumigather run``'s exit code and stdout summary, by its arguments
RUN_SUMMARIES = {
    "line-lu.json": (0, {"colors_used": ["A", "B"], "final_cc": [["AB", "12", "0"]],
                         "gathered": True, "status": "gathered", "time": 24}),
    "rectangle-unfair.json": (0, {"colors_used": ["O"], "final_cc": [["O", "0", "2"], ["O", "6", "0"]],
                                  "gathered": False, "status": "fixpoint", "time": 9}),
    "segment100.json": (0, {"colors_used": ["E", "M", "S"], "final_cc": [["E", "50", "0"]],
                            "gathered": True, "status": "gathered", "time": 398}),
    "square.json": (0, {"colors_used": ["E", "M", "S"], "final_cc": [["E", "105/32", "105/32"]],
                        "gathered": True, "status": "gathered", "time": 154}),
    "triangle-enum.json": (0, {"colors_used": ["O"], "final_cc": [["O", "0", "0"], ["O", "10", "0"]],
                               "gathered": False, "status": "fixpoint", "time": 5}),
    "square.json --steps 60": (3, {"colors_used": ["E", "M", "S"], "final_cc": None,
                                   "gathered": False, "status": "budget", "time": 23}),
}

BUNDLED = [p.stem for p in sorted(SCENARIOS.glob("*.json"))]
# ``enumerate --depth 4``'s exit code and message, by bundled scenario: it
# judges elect-one-lds and lu-gather and rejects any other algorithm
NOT_JUDGED = "enumerate: enumeration judges elect-one-lds and lu-gather only, not "
ENUMERATED_AT_4 = {
    "line-lu": (0, '"edges": 67, "fixpoints": 5, "nodes": 22, "unfinished": 0}, "pass": true'),
    "rectangle-unfair": (0, '"edges": 16, "fixpoints": 1, "nodes": 7, "unfinished": 0}, "pass": true'),
    "segment100": (2, NOT_JUDGED + "'lu-gather-async'"),
    "square": (2, NOT_JUDGED + "'three-color'"),
    "triangle-enum": (0, '"edges": 1, "fixpoints": 1, "nodes": 2, "unfinished": 0}, "pass": true'),
}

# square.json's run under an async fairness bound (policy, bound, exit code):
# a step serves one robot, so no adversary keeps a bound below n=4, and some
# shipped policies need more
FAIRNESS_CASES = [(policy, 3, 2) for policy in POLICIES] + [
    ("round-robin", 4, 2), ("round-robin", 19, 2), ("round-robin", 20, 0),
    ("ssync-embedded", 4, 2), ("ssync-embedded", 11, 2), ("ssync-embedded", 12, 0),
]
# the stdout summary of each of those runs that exits 0
FAIRNESS_SUMMARIES = {
    ("round-robin", 20): {"colors_used": ["E", "M", "S"], "final_cc": [["E", "2", "2"]],
                          "gathered": True, "status": "gathered", "time": 61},
    ("ssync-embedded", 12): {"colors_used": ["E", "M", "S"], "final_cc": [["E", "137/64", "137/64"]],
                             "gathered": True, "status": "gathered", "time": 34},
}


def fuzzing(name, algorithm, scheduler, runs, *flags):
    """A row of one ``fuzz`` campaign whose ``runs`` runs all pass, its summary line pinned."""
    summary = {"algorithm": algorithm, "failures": [], "pass": True, "runs": runs,
               "scheduler": scheduler}
    cmd = ("fuzz", "--algorithm", algorithm, "--scheduler", scheduler, "--runs", str(runs), *flags)
    return Row(name, None, None, (cmd,), 0, json.dumps(summary, sort_keys=True), failing=())


ROWS = [
    # -- malformed traces: check and plot exit 2 ---------------------------
    bad("robot-id-out-of-range", SQUARE, put("robot", value=9, kind="MoveEnd"), "robot id 9"),
    *(bad(f"{kind.lower()}-robot-{rid}", THREE, put("robot", value=rid, kind=kind),
          f"robot id {rid!r} outside 0..2")
      for kind, rid in (("MoveEnd", 9), ("Look", -1), ("Compute", "0"))),
    bad("exec-string", SQUARE, exec_flags("true", 7), "exec is not a JSON boolean"),
    bad("exec-integer", SQUARE, exec_flags(1, 7), "exec is not a JSON boolean"),
    *(bad(f"header-without-{key}", SQUARE, put(key, value=GONE),
          f"trace header: scenario lacks {key}")
      for key in ("algorithm", "scheduler", "delta", "n", "robots")),
    bad("first-line-not-header", THREE, lambda ls: ls[1:], "trace does not start with a Header line"),
    bad("config-without-t", SQUARE, put("t", value=GONE, kind="Config"), "trace line 2 lacks t"),
    bad("robot-without-x", SQUARE, put("robots", 1, "x", value=GONE), "trace header: robot 1 lacks x"),
    *(bad(f"non-object-line-{at}", SQUARE, lambda ls, at=at: ls.insert(at, [1, 2]),
          f"trace line {at + 1} is not a JSON object: [1, 2]") for at in (2, 3)),
    bad("no-progress", SQUARE, lambda ls: ls.remove(first(ls, "MoveProgress")),
        "robot 1: move begun at t=4 lacks a MoveProgress line at some instant up to t=8"),
    bad("progress-repeated", SQUARE, repeated("MoveProgress"), "a second MoveProgress line of robot"),
    bad("progress-at-begin", SQUARE, progress_moved("at-begin"), "outside robot"),
    bad("progress-after-end", SQUARE, progress_moved("after-end"), "outside robot"),
    bad("roundstart-repeated", LINE_LU, repeated("RoundStart"), "a second RoundStart line for t=0"),
    *(bad(f"roundstart-after-look-{name}", base, roundstart_after_look,
          "after a robot event of its round")
      for name, base in (("line-lu", LINE_LU), ("rectangle-unfair", RECTANGLE))),
    # a value of the wrong JSON type, in the header or a line of ``kind``
    *(bad(name, base, put(*path, value=value, kind=kind), message)
      for name, base, kind, path, value, message in (
          *((f"{name}-{label}", base, None, path, value, message)
            for label, base in (("square", SQUARE), ("three", THREE))
            for name, path, value, message in (
                ("robots-not-array", ("robots",), 5, "robots is not a JSON array"),
                ("adversary-not-object", ("adversary",), "random", "adversary is not a JSON object"),
                ("adversary-seed-not-integer", ("adversary", "seed"), "x",
                 "adversary seed is not a JSON integer"),
            )),
          ("config-entry-not-array-square", SQUARE, "Config", ("entries", 0), 5,
           "malformed Config entries"),
          ("config-entry-not-array-three", THREE, "Config", ("entries", 1), 7,
           "malformed Config entries"),
          ("n-not-integer", THREE, None, ("n",), [3], "n is not a JSON integer"),
          ("robot-color-not-string", THREE, None, ("robots", 0, "color"), 7,
           "color is not a JSON string"),
          ("config-entry-short", THREE, "Config", ("entries", 1), ["2/1", "3/1"],
           "malformed Config entries"),
          ("config-color-not-string", THREE, "Config", ("entries", 1, 2), ["S"],
           "color is not a JSON string"),
          ("entries-not-array", THREE, "Config", ("entries",), 5, "malformed Config entries"),
          ("t-not-integer", THREE, "Config", ("t",), "0", "t is not a JSON integer"),
          ("compute-color-not-string", THREE, "Compute", ("color",), 1, "color is not a JSON string"),
          ("dest-not-pair", THREE, "Compute", ("dest",), [[1], 2], "malformed coordinate pair"),
          ("coordinate-not-rational", THREE, None, ("robots", 2, "y"), "three", "malformed rational"),
          ("exec-not-boolean", THREE, "Compute", ("exec",), 1, "exec is not a JSON boolean"),
          # a color outside the algorithm's alphabet
          ("config-color-line-lu", LINE_LU, "Config", ("entries", 0, 2), "Z",
           "Config entry color 'Z' outside alphabet of lu-gather"),
          ("compute-color-line-lu", LINE_LU, "Compute", ("color",), "Z",
           "color 'Z' outside alphabet of lu-gather"),
          ("compute-color-square", SQUARE, "Compute", ("color",), "Z",
           "color 'Z' outside alphabet of three-color"),
          ("config-color-three", THREE, "Config", ("entries", 1, 2), "Z",
           "Config entry color 'Z' outside alphabet of three-color"),
          ("compute-color-three", THREE, "Compute", ("color",), "Z",
           "color 'Z' outside alphabet of three-color"),
      )),
    bad("activated-not-array", THREE,
        lambda ls: ls.insert(2, {"kind": "RoundStart", "t": 0, "activated": 1}),
        "activated is not a JSON array"),
    *(bad(f"kind-{name}", SQUARE, put("kind", value=kind, kind="Look"),
          f"trace line 3: kind is not a JSON string: {kind!r}")
      for name, kind in (("array", ["Look"]), ("object", {"Look": 1}), ("null", None))),
    bad("off-line-start", LINE_LU, put("robots", 1, "y", value="1/1"),
        "lu-gather requires a collinear start"),
    bad("header-outside-the-scenario-rules", THREE,
        lambda ls: [dict(ls[0], algorithm="lu-gather",
                         robots=[robot(x, y, "A") for x, y in ((0, 0), (5, 0), (2, 3))])],
        "trace header: lu-gather requires a collinear start"),
    *(bad(f"back-in-time-{name}", base, edit, "comes after a line at t=")
      for name, base, edit in (
          ("line-lu", LINE_LU, back_in_time),
          ("square", SQUARE, back_in_time),
          ("last-config-first", partial(fuzzed, 4105, "three-color"), back_in_time),
          ("looks-swapped", partial(fuzzed, 4105, "three-color"),
           swapped(looks_of_robot_0(2), looks_of_robot_0(14))),
      )),
    bad("no-robots", SQUARE,
        lambda ls: [dict(ls[0], n=0, robots=[]), {"kind": "End", "t": 0, "status": "budget"}],
        "at least one robot"),
    *(bad(f"coordinate-not-rational-{name}", partial(literal, (0, 0, "S"), (4, 0, "S")),
          coordinate(cached), "malformed")
      for name, cached in (("after-equal-int-pair", True), ("alone", False))),
    bad("header-n-off", SQUARE, put("n", value=5), "trace header lists 4 robots, n=5"),
    bad("progress-without-begin", ONE_MOVE, dropping("MoveBegin"), "MoveProgress without MoveBegin"),
    bad("end-without-begin", ONE_MOVE, dropping("MoveBegin", "MoveProgress"),
        "MoveEnd without MoveBegin"),
    # -- replay's rules, each on an input that breaks it alone -------------
    *(replay_only(f"{name}-honest", base, None)
      for name, base in (("square", SQUARE), ("line-lu", LINE_LU), ("three", THREE),
                         ("six-color", SIX_COLOR), ("one-move", ONE_MOVE), ("one-round", ONE_ROUND))),
    violation("not-strictly-ordered", ONE_MOVE, compute_at_look_instant, "events not strictly ordered"),
    violation("ended-before-tb-plus-1", ONE_MOVE, end_at_begin, "move ended before t_b+1"),
    violation("span-over-cap", SQUARE, cap_below_longest_move, "move span exceeds cap"),
    violation("progress-off-segment", lambda: one_move("async", (2, 0), (1, 1)).dumps(), None,
              "progress point off half-open segment"),
    violation("progress-not-increasing", SQUARE, progress_point_repeated,
              "progress distance not increasing"),
    violation("compute-without-look", ONE_MOVE, dropping("Look"), "Compute without Look"),
    violation("zero-distance-move", lambda: one_move("async", (0, 0), (0, 0)).dumps(), None,
              "zero-distance move not omitted"),
    violation("end-off-reach", ONE_MOVE, put("pos", value=["1/1", "0/1"], kind="MoveEnd"),
              "end position differs from reach"),
    violation("round-compute-before-look", ONE_ROUND,
              swapped(partial(index, kind="Look"), partial(index, kind="Compute")),
              "round events CLBE are not Look, Compute and move"),
    violation("end-status-unknown", SQUARE, put("status", value="done", kind="End"),
              "End status 'done' is none of gathered", (CHECK,)),
    violation("exec-cleared", SQUARE, exec_flags(False, 7), COMPUTE_DIFFERS, (CHECK,)),
    violation("exec-cleared-six-color", SIX_COLOR, exec_flags(False, 33), COMPUTE_DIFFERS),
    violation("exec-on-a-non-inner-compute", SIX_COLOR, exec_on_a_non_inner_compute, COMPUTE_DIFFERS),
    violation("exec-outside-all-s", EXEC_OUTSIDE_ALL_S, None,
              "robot 0 ran the inner algorithm outside all-S", (CHECK,)),
    # lifted off the line: lu-gather has no action on the snapshots after it
    violation("lifted-move", LINE_LU, lifted, '"detail": "no action at robot on (0,0): '
              'lu_gather requires a collinear snapshot", "t"', (REPLAY, CHECK)),
    # a round move that goes on into rounds that do not activate its robot
    replay_only("move-over-rounds", ONE_ROUND, move_over_rounds,
                (0, "robot 0: round events LCB are not Look, Compute and move"),
                (1, "robot 0: events in a round that does not activate it"),
                (2, "robot 0: events in a round that does not activate it")),
    # -- Config lines: only where the configuration changes, and true ------
    replay_only("config-deleted", SQUARE, config_deleted,
                (66, "no Config line at t=66, where the configuration changes"), cmd=CHECK),
    replay_only("config-deleted-80", SQUARE, partial(config_deleted, t=80),
                (80, "no Config line at t=80, where the configuration changes")),
    replay_only("config-repeated", SQUARE, config_repeated,
                (83, "Config line at t=83, where the configuration does not change"), cmd=CHECK),
    replay_only("config-after-end", SQUARE, config_after_end, (154, "1 line(s) after the End line"),
                cmd=CHECK),
    replay_only("config-only", SQUARE, config_only, (4, CHANGED), cmd=CHECK),
    replay_only("config-entries-reversed", SQUARE,
                lambda ls: first(ls, "Config", t=4)["entries"].reverse(), (4, CHANGED)),
    # -- the End line claims the first terminal instant --------------------
    Row("end-cut", SQUARE, cut(12, 13), failing=("replay", "onlds-switch", "gathered"),
        violations={"replay": [
            (13, "robot 1 is mid-cycle at End: its last cycle is L"),
            (13, "robot 2 is mid-cycle at End: its last cycle is L"),
            (13, FIXPOINT_ENABLED),
        ]}),
    *(replay_only(f"end-cut-round-{t}", RECTANGLE, cut(t, t), (t, FIXPOINT_ENABLED),
                  cmd=CHECK + ("--check", "replay,monotone"))
      for t in (0, 2, 4)),
    replay_only("end-continued", SQUARE, null_cycle(False),
                (156, "End at t=156, but the first terminal instant is t=154"), cmd=CHECK),
    replay_only("end-continued-lone-robot", partial(literal, (1, 2, "S")), null_cycle(False),
                (3, "End at t=3, but the first terminal instant is t=1"), cmd=CHECK),
    replay_only("null-round-after-fixpoint", LINE_LU, null_cycle(True),
                (24, "round at t=24 starts with no robot enabled")),
    *(replay_only(f"end-moved-{name}-{shift:+d}", base, end_moved(shift),
                  (end + shift, f"End at t={end + shift}, but the first terminal instant is t={end}"))
      for name, base, end, shift in (("square", SQUARE, 154, 1), ("square", SQUARE, 154, -1),
                                     ("line-lu", LINE_LU, 24, 1))),
    replay_only("final-compute-deleted", SQUARE,
                lambda ls: ls.pop(max(i for i, l in enumerate(ls) if l["kind"] == "Compute")),
                (154, "robot 0 is mid-cycle at End: its last cycle is L")),
    replay_only("end-truncated", THREE, lambda ls: ls[:-1], (None, "trace has no End line")),
    replay_only("event-after-end", THREE, lambda ls: ls.append({"kind": "Look", "t": 89, "robot": 0}),
                (89, "1 line(s) after the End line"),
                (89, "robot 0 is mid-cycle at End: its last cycle is L")),
    replay_only("end-time", THREE, lambda ls: ls[0].update(step_budget=196) or end_moved(1)(ls),
                (90, "End at t=90, but the first terminal instant is t=89"),
                (90, "End status gathered after 197 steps of a budget of 196")),
    replay_only("end-status", THREE, put("status", value="fixpoint", kind="End"),
                (89, "End status fixpoint disagrees with the final configuration")),
    # -- the step budget: a budget End spends it exactly, no End overspends it
    *(replay_only(f"{name}-budget-{forged}", partial(bundled, name, budget),
                  put("step_budget", value=forged),
                  (end, f"End status budget after {budget} steps of a budget of {forged}"))
      for name, budget, end, forged in (("square", 60, 23, 5), ("square", 60, 23, 10**6),
                                         ("line-lu", 3, 3, 2), ("line-lu", 3, 3, 4))),
    *(replay_only(f"{name}-budget-{steps - over}", base, put("step_budget", value=steps - over),
                  *[(end, f"End status gathered after {steps} steps of a budget of {steps - 1}")
                    ][:over])
      for name, base, end, steps in (("square", SQUARE, 154, 409), ("line-lu", LINE_LU, 24, 24))
      for over in (0, 1)),
    # -- the header's async fairness bound: three-color runs whose robots
    # wait at most 24, 27 and 24 steps
    *(Row(f"fairness-{seed}-bound-{bound}", partial(fuzzed, seed, "three-color"),
          put("fairness_bound", value=bound), (REPLAY,), code=int(bound <= peak),
          message=f"fairness bound {bound}" * (bound <= peak))
      for seed, peak in ((4105, 24), (4106, 27), (4107, 24))
      for bound in (12, peak, peak + 1)),
    # -- run under an async fairness bound: exit 2 if the adversary cannot keep it
    *(Row(f"run-{policy}-fairness-bound-{bound}", partial(scenario_file, "square"),
          put("adversary", "policy", value=policy), (RUN + ("--fairness-bound", str(bound)),),
          code, json.dumps(FAIRNESS_SUMMARIES[policy, bound], sort_keys=True) if code == 0 else
          f"adversary policy {policy} cannot keep fairness bound {bound}:" if bound >= 4 else
          f"async fairness_bound {bound} is below n=4", failing=() if code == 0 else None,
          whole=code == 0)
      for policy, bound, code in FAIRNESS_CASES
      if (policy, bound) != ("random", 3)),  # that one is run-fairness-bound-below-n
    # -- bad scenario files and command lines: exit 2 ----------------------
    bad("delta-zero-denominator", partial(scenario_file, "square"), put("delta", value="1/0"),
        "scenario error: malformed rational '1/0'", (RUN,)),
    *(bad(f"{key}-bool", partial(scenario_file, "square"), put(*path, value=True),
          "malformed rational True", (RUN,))
      for key, path in (("x", ("robots", 0, "x")), ("delta", ("delta",)))),
    *(bad(f"{field}-{type(value).__name__}", partial(scenario_file, "square"),
          put(*path, value=value), f"{field} is not a JSON integer: {value!r}", (RUN,))
      for field, path in (("seed", ("adversary", "seed")), ("step_budget", ("step_budget",)),
                          ("fairness_bound", ("fairness_bound",)),
                          ("move_span_cap", ("move_span_cap",)))
      for value in (True, 2.5, "16")),
    *(bad(f"{cmd}-adversary-{type(value).__name__}", partial(scenario_file, "triangle-enum"),
          put("adversary", value=value), "scenario error: adversary is not a JSON object",
          ((cmd, "--scenario", "{input}"),))
      for cmd in ("run", "enumerate") for value in ("random", None, ["random", 3])),
    *(bad(f"{cmd}-misspelled-{where}-key", base, put(*path, key, value=4),
          f"unknown {where} {'1 ' * (where == 'robot')}key {key}", ((cmd, flag, "{input}"),))
      for cmd, flag, base in (("run", "--scenario", partial(scenario_file, "triangle-enum")),
                              ("enumerate", "--scenario", partial(scenario_file, "triangle-enum")),
                              ("check", "--trace", partial(bundled, "triangle-enum")))
      for where, path, key in (("scenario", (), "move_span_caps"), ("adversary", ("adversary",), "sed"),
                               ("robot", ("robots", 1), "colour"))),
    bad("run-misspelled-key", partial(scenario_file, "square"), put("move_span_caps", value=4),
        "unknown scenario key move_span_caps", (RUN,)),
    # -- bytes no JSON decoder reads: a UTF-16 byte order mark, and a line of
    # 200,000 nested arrays, deeper than the decoder's recursion limit
    bad("scenario-not-utf-8", lambda: b"\xff\xfe" + scenario_file("square").encode("utf-8"),
        None, "scenario error: scenario is not UTF-8: 'utf-8' codec can't decode byte 0xff",
        (RUN, SCENARIO_ENUMERATE)),
    bad("scenario-nested-too-deeply", DEEP, None,
        "scenario error: invalid scenario JSON: nested too deeply", (RUN, SCENARIO_ENUMERATE)),
    bad("trace-nested-too-deeply", DEEP, None, "trace line 1: nested too deeply"),
    bad("trace-not-utf-8", lambda: b"\xff\xfe" + SQUARE().encode("utf-8"), None,
        "'utf-8' codec can't decode byte 0xff in position 0"),
    *(bad(f"{cmd}-{name}", partial(scenario_file, "triangle-enum"), put(*path, value=value),
          f"scenario error: {message}", ((cmd, "--scenario", "{input}"),))
      for cmd in ("run", "enumerate")
      for name, path, value, message in (
          ("step-budget-0", ("step_budget",), 0, "step_budget must be positive"),
          ("scheduler-bogus", ("scheduler",), "bogus", "unknown scheduler 'bogus'"),
          ("policy-bogus", ("adversary", "policy"), "bogus", "unknown adversary policy 'bogus'"),
          ("move-span-cap-0", ("move_span_cap",), 0, "move_span_cap must be >= 1"),
          ("fairness-bound-negative", ("fairness_bound",), -1,
           "fairness_bound must be >= 1 (0 selects the default)"),
      )),
    *(Row(f"{cmd}-into-a-missing-directory", SQUARE, None, (args,), 2,
          f"{cmd}: cannot write the {what}: "
          "[Errno 2] No such file or directory: '{dir}/missing/out'",
          failing=() if cmd == "check" else None)
      for cmd, what, args in (
          ("run", "trace",
           ("run", "--scenario", "{scenarios}/square.json", "--out", "{dir}/missing/out")),
          ("check", "annotated trace", REPLAY + ("--annotate", "{dir}/missing/out")),
          ("plot", "SVG", ("plot", "--trace", "{input}", "--out", "{dir}/missing/out")),
      )),
    bad("run-fairness-bound-below-n", None, None, "async fairness_bound 3 is below n=4",
        (("run", "--scenario", "{scenarios}/square.json", "--fairness-bound", "3"),)),
    *(bad(f"enumerate-{flag}-{value}", None, None,
          "enumerate: --depth and --node-ceiling must be at least 1",
          (ENUMERATE + (f"--{flag}", value),))
      for flag, value in (("depth", "0"), ("depth", "-1"), ("node-ceiling", "0"))),
    Row("enumerate-node-ceiling-reached", None, None, (ENUMERATE + ("--node-ceiling", "1"),), 3,
        '"aborted": true', failing=()),
    # -- honest verdicts: small campaigns pass --------------------------------
    *(fuzzing(f"fuzz-{algorithm}-{policy}", algorithm, "async", 4, "--seed", "5",
              "--n-min", "2", "--n-max", "4", "--coord-bound", "5", "--policy", policy)
      for algorithm in ("three-color", "six-color", "lu-gather-async") for policy in POLICIES),
    *(fuzzing(f"fuzz-{algorithm}-{scheduler}", algorithm, scheduler, 4, "--seed", "5",
              "--n-min", "2", "--n-max", "5", "--coord-bound", "5")
      for algorithm in ("elect-one-lds", "lu-gather") for scheduler in ("fsync", "ssync", "ssync-unfair")),
    # -- honest verdicts: every bundled scenario end to end; a new scenario
    # file without its entry in ENUMERATED_AT_4 is a KeyError here
    *(Row(f"scenario-{name}", None, None, (
        ("run", "--scenario", f"{{scenarios}}/{name}.json", "--out", "{input}"),
        CHECK,
        CHECK + ("--annotate", "{input}.annotated"),
        ("check", "--trace", "{input}.annotated", "--check", "replay"),
        PLOT,
    ), 0, failing=()) for name in BUNDLED),
    *(Row(f"enumerate-{name}", None, None,
          (("enumerate", "--scenario", f"{{scenarios}}/{name}.json", "--depth", "4"),),
          *ENUMERATED_AT_4[name], failing=() if ENUMERATED_AT_4[name][0] == 0 else None)
      for name in BUNDLED),
    *(Row("run-" + "-".join(args.replace(".json", "").replace("--", "").split()), None, None,
          (("run", "--scenario", "{scenarios}/" + args.split()[0], *args.split()[1:]),),
          code, json.dumps(summary, sort_keys=True), failing=(), whole=True)
      for args, (code, summary) in RUN_SUMMARIES.items()),
    # the trace of a run cut by its step budget passes replay
    replay_only("run-square-steps-60-replay", partial(bundled, "square", 60), None),
]


# --------------------------------------------------------------------------
# The runner
# --------------------------------------------------------------------------


def forged_text(row):
    """The text of ``row``'s input: its base with the edit applied to a fresh
    parse, or the base's bytes as they are."""
    base = row.base()
    if isinstance(base, bytes):
        return base
    lines = [json.loads(l) for l in base.splitlines()]
    if row.edit is not None:
        out = row.edit(lines)  # a new list, or else the lines were changed in place
        lines = out if isinstance(out, list) else lines
    return "".join(json.dumps(l) + "\n" for l in lines)


def run_row(row, call, directory):
    """Mismatches of ``row`` when ``call(argv) -> (code, stdout, stderr)`` runs its commands."""
    path = Path(directory) / f"{row.name}.jsonl"
    if row.base is not None:
        text = forged_text(row)
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    where = {"input": str(path), "dir": str(directory), "scenarios": str(SCENARIOS)}
    message = row.message.replace("{dir}", str(directory))
    problems = []
    for cmd in row.cmds:
        argv = [a.format(**where) for a in cmd]
        code, out, err = call(argv)
        said = f"{row.name}: lumigather {' '.join(argv)} exited {code}"
        if code != row.code:
            problems.append(f"{said}, expected {row.code}: {err.strip()[-300:]}")
        if "Traceback" in err:
            problems.append(f"{said} with a traceback")
        if message not in out + err:
            problems.append(f"{said} without {message!r}")
        if row.whole and out != message + "\n":
            problems.append(f"{said} and printed {out[:200]!r}, not just {message!r}")
        if code == 2 and out and row.failing is None:
            problems.append(f"{said} and printed {out[:200]!r}")
        printed = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        reports = {r["check"]: r for r in printed if "violations" in r}
        for name, r in reports.items():
            pairs = [json.dumps([v["t"], v["detail"]], sort_keys=True) for v in r["violations"]]
            if len(set(pairs)) != len(pairs):
                problems.append(f"{said}, {name} repeats a (t, detail) pair")
        if row.failing is not None and cmd[0] in ("check", "enumerate"):
            failing = tuple(name for name, r in reports.items() if not r["pass"])
            if failing != row.failing:
                problems.append(f"{said}, failing {failing}, expected {row.failing}")
        for name, pinned in (row.violations or {}).items():
            got = [[v["t"], v["detail"]] for v in reports.get(name, {}).get("violations", [])]
            if got != json.loads(json.dumps(pinned)):
                problems.append(f"{said}, {name} violations {got}, expected {list(pinned)}")
    return problems


def in_process(argv):
    """``cli.main(argv)`` with its stdout and stderr captured."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def installed(argv):
    """The installed ``lumigather`` console script run on ``argv``."""
    done = subprocess.run(["lumigather", *argv], capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def main(argv):
    if len(argv) != 1:
        print("usage: python tests/forgeries.py DIR", file=sys.stderr)
        return 2
    directory = Path(argv[0])
    directory.mkdir(parents=True, exist_ok=True)
    problems = [p for row in ROWS for p in run_row(row, installed, directory)]
    for p in problems:
        print(p)
    print(f"{len(ROWS)} rows, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
