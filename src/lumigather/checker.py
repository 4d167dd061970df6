"""Trace-level verification of the protocol guarantees.

Every checker consumes only a trace, and a ``Trace`` is its lines, built
with ``Trace(lines)``.  ``TraceData`` reads them once per trace, the End line
included: a run's status, end time and colors are ``TraceData``'s.
Configurations are re-derived from the event log, and every check reads
those replayed configurations.  Only the replay check reads the logged
Config lines, comparing each with the replayed configuration of its
instant, so an engine bug surfaces as a replay mismatch rather than a
silent pass.  Every parameter of a check comes from the trace header,
which ``Scenario.from_json`` reads.  Each check returns a Report.

The checks build no reference cycles, so every function behind ``CHECKS``
and ``enumerate_unfair`` runs with the cyclic collector paused
(``configuration.collector_paused``); a check called from another, or from
``fuzz.run_with_checks``, which pauses a run and its checks as one unit,
keeps it off until the outermost returns.
"""

import functools
import json
import random
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from .algorithms import ALGORITHMS, get_algorithm, phase_class, phase_of
from .configuration import ConfigInterner, Frame, collector_paused
from .engine import (
    Scenario,
    SyncWorld,
    Trace,
    enabled_ids,
    json_object,
    json_typed,
    memo_action,
    ssync_round,
)
from .geometry import Point, dist_sq, hull_center, on_segment, orientation
from .potentials import (
    Cmp,
    compare_values,
    lex_less,
    potential_f,
    potential_g,
    serialize_potential,
    sqrt_sum,
)
from .rational import Rat, parse_rat


@dataclass
class Report:
    check: str
    violations: list = field(default_factory=list)
    # always empty: every potential comparison is decided; the key stays in
    # ``to_json`` so that report lines keep their format
    undecided: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    # the (t, position, light) snapshots reported outside the algorithm's domain
    outside: set = field(default_factory=set, repr=False, compare=False)

    @property
    def passed(self):
        return not self.violations

    def violate(self, t, detail):
        self.violations.append({"t": t, "detail": detail})

    def to_json(self):
        return {
            "check": self.check,
            "pass": self.passed,
            "violations": self.violations,
            "undecided": self.undecided,
            **({"extras": self.extras} if self.extras else {}),
        }

    def __str__(self):
        return json.dumps(self.to_json(), sort_keys=True)


# the phase events' letters: Look L, Compute C, MoveBegin B, MoveEnd E; a
# robot's events end in an open cycle only when the step budget runs out
_PHASE_RE = re.compile(r"(LC(BE)?)*(?P<open>L|LC|LCB)?")

_ROBOT_EVENTS = frozenset(("Look", "Compute", "MoveBegin", "MoveProgress", "MoveEnd"))
# keys every line after the header needs, by kind; other kinds need kind and t
_LINE_KEYS = {
    kind: frozenset(("kind", "t") + keys)
    for kind, keys in (
        (None, ()),
        ("Config", ("entries",)),
        ("End", ("status",)),
        ("RoundStart", ("activated",)),
        ("Look", ("robot",)),
        ("Compute", ("robot", "color", "dest")),
        ("MoveBegin", ("robot", "reach")),
        ("MoveProgress", ("robot", "pos")),
        ("MoveEnd", ("robot", "pos")),
    )
}

# how a run may end: at a fixpoint, gathered or not, or out of step budget
_END_STATUSES = ("gathered", "fixpoint", "budget")

# the JSON types a rational may take: "p/q" or an integer, never a bool
_RAT_TYPES = (str, int)


class _MoveRec:
    """A move; ``compute`` indexes the robot's latest Compute before it (-1: none)."""

    __slots__ = ("t_b", "t_e", "origin", "reach", "compute", "progress", "end_pos")

    def __init__(self, t_b, origin, reach, compute):
        self.t_b = t_b
        self.t_e = None
        self.origin = origin
        self.reach = reach
        self.compute = compute
        self.progress = {}
        self.end_pos = None


class TraceData:
    """Parsed trace with per-robot timelines and shown-state queries.

    One pass over the lines builds every record, per robot in line order:
    ``looks``, the time of each Look; ``computes``, one ``(t, color, dest,
    exec, t_look)`` per Compute, with the time of the robot's latest Look line
    before it (None: none); ``moves``, one ``_MoveRec`` per MoveBegin;
    ``phases``, one ``(t, letter)`` per Look, Compute, MoveBegin and MoveEnd
    (L, C, B, E), whose number is ``robot_events``.  Lines never go back in
    time, so within one instant line order is the order of the events.
    ``rests`` lists the instant of each robot event after which no robot is
    mid-cycle, a MoveEnd or a Compute whose move is omitted, after a 0 that
    stands for the start.

    The pass also re-derives the asynchronous fairness rule of the header's
    ``fairness_bound``, as the engine counts it: every robot event and every
    clock advance is a step, and a robot waits from the advance that closes
    the instant it acted in (from the start, before it first acts).  Its
    wait is counted at its next event and, for the robots that did not act
    in the last instant, at the End; ``starved`` lists ``(t, robot, trace
    line, steps)`` for each wait that reached the bound.  O(1) per event:
    each robot keeps the step of its latest closing advance.

    The same pass states the asynchronous timing rule once: each event
    records the entry change it causes at the instant that shows it.  A
    Compute's color and a MoveEnd's reach show from the next instant, a
    MoveProgress point at its own; a MoveBegin shows nothing.  A move has
    exactly one MoveProgress line at each instant after its begin up to its
    end (or the last instant), and a round one RoundStart line.  One forward
    sweep then applies the changes in time order, line order within an
    instant, and keeps the robot-order row of each instant at which an entry
    changes in ``shown_times``: ``shown(t)`` is the row of the latest one at
    or before t and ``replayed(t)`` its configuration, derived from the
    events alone and interned as the sweep builds the row; ``observed(t)``
    is both, found by one bisection.  ``last_show`` is the latest instant
    that any event shows at, whether or not it changes an entry.
    ``changes`` lists ``(t,
    cfg)`` for instant 0 and for each instant up to ``last_t`` whose
    configuration is not the previous instant's; it is the one sequence of
    configurations that every check reads.

    Every raw ``(x, y)`` pair is parsed once and mapped to a single Point, so
    equal coordinates share one object.  ``config_times`` lists the instants
    that have a Config line and ``line_entries``, in the same order, the
    ``(Point, color)`` entry tuple of each line as logged; only the replay
    check reads them.
    ``last_t`` is the instant of the last line, End's in a valid trace.
    ``status`` and ``end_time`` are the status and instant of the first End
    line, and ``lines_after_end`` counts the lines after it (all three None:
    the trace has no End line); no other code reads an End line.
    ``scenario`` is the header as ``Scenario.from_json`` reads it.  Malformed
    input raises ValueError, as do lines out of time order, colors outside
    the algorithm's alphabet, a second Config, RoundStart or MoveProgress
    line where one is allowed and a RoundStart line after a robot event of
    its round.  Checks obtain their instance through ``TraceData.of``, which
    builds it once per trace.
    """

    @classmethod
    def of(cls, trace):
        """The TraceData shared by every check of the Trace ``trace``.

        A TraceData passed in is returned as is; one built from a Trace is
        stored on it.  A Trace only ever appends lines, so the stored
        TraceData is rebuilt exactly when the line list was replaced or has
        grown.  An in-place edit of an existing line is not seen: a forged
        copy of a checked trace must be checked on
        ``Trace.parse(tr.dumps())``, never on the edited ``tr`` itself.
        """
        if isinstance(trace, TraceData):
            return trace
        lines = trace.lines
        td = getattr(trace, "_trace_data", None)
        if td is None or td._lines is not lines or td._n_lines != len(lines):
            td = trace._trace_data = cls(trace)
        return td

    def __init__(self, trace):
        self._lines = lines = trace.lines
        self._n_lines = len(lines)
        if not lines or not isinstance(lines[0], dict) or lines[0].get("kind") != "Header":
            raise ValueError("trace does not start with a Header line")
        header = lines[0]
        try:
            self.scenario = Scenario.from_json(
                {k: v for k, v in header.items() if k not in ("kind", "n")}
            )
        except ValueError as exc:
            raise ValueError(f"trace header: {exc}") from exc
        self.n = n = len(self.scenario.robots)
        json_object(header, ("n",), "trace header: scenario")
        if json_typed(header["n"], int, "trace header: n") != n:
            raise ValueError(f"trace header lists {n} robots, n={header['n']}")
        self.algorithm = get_algorithm(self.scenario.algorithm)
        # the header's raw pairs map to the Scenario's own Points
        robots = zip(header["robots"], self.scenario.robots)
        self._points = {(r["x"], r["y"]): p for r, (p, _) in robots}
        self.status = None
        self.end_time = None
        self.lines_after_end = None  # None: the trace has no End line
        self.cache = ConfigInterner()
        self.config_times = config_times = []
        self.line_entries = line_entries = []
        self.rounds = {}
        self.looks = looks = [[] for _ in range(n)]
        self.computes = computes = [[] for _ in range(n)]
        self.moves = moves = [[] for _ in range(n)]
        self.phases = phases = [[] for _ in range(n)]
        # instant -> the (robot, pos, color) entry changes it shows, in line
        # order; None leaves that half of the entry as it was
        shows = defaultdict(list)
        pos = [p for p, _ in self.scenario.robots]  # where each robot's next move starts
        mid = set()  # the robots between a Look and the end of its cycle
        self.rests = rests = [0]
        colors = self.algorithm.colors
        point = self.point
        no_keys = _LINE_KEYS[None]
        last_time = 0
        # the asynchronous fairness rule: a robot's stamp is the step index of
        # the advance that closes the instant it acted in (0 at the start); it
        # waits the steps from there to its next event, or to the End
        bound = self.scenario.bound if self.scenario.scheduler == "async" else None
        stamps = [0] * n  # None: the robot acted at instant last_time
        acted = []  # the robots that acted at instant last_time
        self.starved = starved = []
        step = 0  # the steps before the next robot event: the events so far plus last_time
        # each event's branch records its phase letter (a MoveProgress has
        # none) and its entry change in ``shows``: a new color or the reach
        # from the next instant, a progress point at once
        for i in range(1, len(lines)):
            ln = lines[i]
            if type(ln) is not dict:
                json_typed(ln, dict, f"trace line {i + 1}")
            kind = ln.get("kind")
            if type(kind) is not str:
                json_object(ln, sorted(no_keys), f"trace line {i + 1}")
                json_typed(kind, str, f"trace line {i + 1}: kind")
            need = _LINE_KEYS.get(kind, no_keys)
            if not ln.keys() >= need:
                json_object(ln, sorted(need), f"trace line {i + 1}")
            t = ln["t"]
            if type(t) is not int:
                json_typed(t, int, f"trace line {i + 1}: t")
            if t < last_time:
                raise ValueError(f"trace line {i + 1}: t={t} comes after a line at t={last_time}")
            if t != last_time:
                for rid in acted:
                    stamps[rid] = step  # the advance that closes last_time
                acted.clear()
                step += t - last_time
                last_time = t
            if kind == "Config":
                if config_times and config_times[-1] == t:
                    raise ValueError(f"trace line {i + 1}: a second Config line for t={t}")
                config_times.append(t)
                line_entries.append(self._line_entries(ln["entries"], i))
            elif kind in _ROBOT_EVENTS:
                rid = ln["robot"]
                if type(rid) is not int or not 0 <= rid < n:
                    self._bad_robot(rid, ln)
                if kind != "MoveProgress":
                    stamp = stamps[rid]
                    if stamp is not None:
                        waited = step - 1 - stamp
                        if bound is not None and waited >= bound:
                            starved.append((t, rid, i + 1, waited))
                        stamps[rid] = None
                        acted.append(rid)
                    step += 1
                if kind == "Look":
                    looks[rid].append(t)
                    phases[rid].append((t, "L"))
                    mid.add(rid)
                elif kind == "Compute":
                    color = ln["color"]
                    if color not in colors:
                        self._bad_color(color, f"trace line {i + 1}: color")
                    dest = point(ln["dest"])
                    ex = ln.get("exec", False)
                    if type(ex) is not bool:
                        json_typed(ex, bool, f"trace line {i + 1}: exec")
                    t_look = looks[rid][-1] if looks[rid] else None
                    computes[rid].append((t, color, dest, ex, t_look))
                    phases[rid].append((t, "C"))
                    shows[t + 1].append((rid, None, color))
                    if dest == pos[rid]:  # the move is omitted and the cycle ends
                        mid.discard(rid)
                        if not mid:
                            rests.append(t)
                elif kind == "MoveBegin":
                    reach = point(ln["reach"])
                    moves[rid].append(_MoveRec(t, pos[rid], reach, len(computes[rid]) - 1))
                    phases[rid].append((t, "B"))
                elif not moves[rid]:
                    raise ValueError(f"{kind} without MoveBegin (robot {rid}, t={t})")
                elif kind == "MoveProgress":
                    m = moves[rid][-1]
                    if t in m.progress:
                        raise ValueError(
                            f"trace line {i + 1}: a second MoveProgress line of robot {rid} for t={t}"
                        )
                    if t <= m.t_b or (m.t_e is not None and t > m.t_e):
                        end = "" if m.t_e is None else f" and ended at t={m.t_e}"
                        raise ValueError(
                            f"trace line {i + 1}: MoveProgress at t={t} outside robot {rid}'s "
                            f"move begun at t={m.t_b}{end}"
                        )
                    m.progress[t] = p = point(ln["pos"])
                    shows[t].append((rid, p, None))
                else:
                    m = moves[rid][-1]
                    m.t_e = t
                    m.end_pos = pos[rid] = point(ln["pos"])
                    phases[rid].append((t, "E"))
                    shows[t + 1].append((rid, m.reach, None))
                    mid.discard(rid)
                    if not mid:
                        rests.append(t)
            elif kind == "End":
                if self.lines_after_end is None:
                    self.status = ln["status"]
                    self.end_time = t
                    self.lines_after_end = len(lines) - 1 - i
                    if bound is not None:
                        # the last step a robot that did not act waits through
                        last_step = step - 1 - (self.status != "budget")
                        for rid, stamp in enumerate(stamps):
                            if stamp is not None and last_step - stamp >= bound:
                                starved.append((t, rid, i + 1, last_step - stamp))
            elif kind == "RoundStart":
                if t in self.rounds:
                    raise ValueError(f"trace line {i + 1}: a second RoundStart line for t={t}")
                if acted:
                    raise ValueError(
                        f"trace line {i + 1}: RoundStart line for t={t} "
                        "after a robot event of its round"
                    )
                for rid in json_typed(ln["activated"], list, f"trace line {i + 1}: activated"):
                    if type(rid) is not int or not 0 <= rid < n:
                        self._bad_robot(rid, ln)
                self.rounds[t] = ln["activated"]
        self.robot_events = step - last_time
        self.last_t = last_time
        for rid, ms in enumerate(moves):
            for j, m in enumerate(ms):
                # a move shows a progress point at every instant after its
                # begin up to its end, the robot's next MoveBegin or the last
                # instant of the trace
                stop = last_time if m.t_e is None else m.t_e
                if j + 1 < len(ms):
                    stop = min(stop, ms[j + 1].t_b)
                if len(m.progress) < stop - m.t_b:
                    raise ValueError(
                        f"robot {rid}: move begun at t={m.t_b} lacks a MoveProgress "
                        f"line at some instant up to t={stop}"
                    )
        # the forward pass: the row of every instant at which an entry
        # changes, interned as it is built; an instant whose shows change no
        # entry, such as a Compute that keeps its color, gets no row
        row = list(self.scenario.robots)
        self.shown_times = [0]
        self.last_show = max(shows, default=0)
        self._rows = [tuple(row)]
        self._replayed = [self.cache.get(self._rows[0])]
        self.changes = [(0, self._replayed[0])]
        for s in sorted(shows):
            changed = False
            for rid, p, c in shows[s]:
                old_p, old_c = row[rid]
                if p is None:
                    p = old_p
                if c is None:
                    c = old_c
                if p != old_p or c != old_c:
                    row[rid] = (p, c)
                    changed = True
            if not changed:
                continue
            self.shown_times.append(s)
            self._rows.append(tuple(row))
            cfg = self.cache.get(self._rows[-1])
            self._replayed.append(cfg)
            if s <= last_time and cfg is not self.changes[-1][1]:
                self.changes.append((s, cfg))

    def _bad_robot(self, rid, ln):
        """Raise ValueError: ``rid`` is no robot id of line ``ln``'s trace."""
        raise ValueError(
            f"{ln['kind']} at t={ln.get('t')}: robot id {rid!r} outside 0..{self.n - 1}"
        )

    def point(self, xy):
        """The one Point of a raw ``(x, y)`` pair (extra items are ignored).

        Raises ValueError when ``xy`` is not a pair of rationals.  The raw
        types are checked before the cache lookup: JSON ``0``, ``0.0`` and
        ``false`` are equal keys, and only the first is a rational.
        """
        try:
            x, y = key = (xy[0], xy[1])
        except (TypeError, IndexError, KeyError) as exc:
            raise ValueError(f"malformed coordinate pair {xy!r}") from exc
        if type(x) not in _RAT_TYPES or type(y) not in _RAT_TYPES:
            raise ValueError(f"malformed coordinate pair {xy!r}")
        p = self._points.get(key)
        if p is None:
            p = self._points[key] = Point(parse_rat(x), parse_rat(y))
        return p

    def _line_entries(self, raw, i):
        """The ``(Point, color)`` entry tuple of the raw ``[x, y, color]`` entries of line i."""
        try:
            entries = tuple((self.point(e), e[2]) for e in raw)
        except (TypeError, IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"trace line {i + 1}: malformed Config entries: {exc}") from exc
        for _, c in entries:
            if c not in self.algorithm.colors:
                self._bad_color(c, f"trace line {i + 1}: Config entry color")
        return entries

    def _bad_color(self, c, what):
        """Raise ValueError: ``c`` is no color of the algorithm's alphabet."""
        json_typed(c, str, what)
        raise ValueError(f"{what} {c!r} outside alphabet of {self.algorithm.id}")

    # -- shown state (asynchronous timing rules; a round is one instant) -----

    def shown(self, t):
        """Robot-order ``(pos, color)`` entries the robots show at instant t >= 0.

        The row of the latest change instant at or before t, found by
        bisection.  A change at exactly t is a progress point; a color or
        reach written at t is not seen before t+1.
        """
        return self._rows[bisect_right(self.shown_times, t) - 1]

    def replayed(self, t):
        """Interned configuration every robot observes at instant t >= 0.

        Derived from the header and the robot events alone, never from the
        Config lines: ``shown(t)`` as an interned configuration.  A round is
        one instant, so a round-based trace replays through the same timing
        rules.
        """
        return self._replayed[bisect_right(self.shown_times, t) - 1]

    def observed(self, t):
        """``(replayed(t), shown(t))``, found by one bisection."""
        k = bisect_right(self.shown_times, t) - 1
        return self._replayed[k], self._rows[k]

    def pending_state(self, rid, t):
        """Leftover asynchronous state of the robot just after instant t.

        ``("move", dest)``: a Compute at or before t whose movement to
        ``dest`` has not ended by t.  ``("color", next_color)``: a Look
        strictly before t with the matching Compute still to come, whose
        color is ``next_color`` (None when the log ends first); a Look
        exactly at t reads the instant's own configuration and is not a
        leftover.  None: neither.
        """
        cs = self.computes[rid]
        i = bisect_right(cs, t, key=lambda c: c[0])
        if i:
            t_c, color, dest, _, _ = cs[i - 1]
            ms = [m for m in self.moves[rid] if m.t_b >= t_c]
            ended = ms and ms[0].t_e is not None and ms[0].t_e <= t
            origin = ms[0].origin if ms else self.shown(t_c)[rid][0]
            if dest != origin and not ended:
                return ("move", dest)
        j = bisect_left(self.looks[rid], t)
        if j:
            t_l = self.looks[rid][j - 1]
            if i == 0 or cs[i - 1][0] < t_l:
                return ("color", cs[i][1] if i < len(cs) else None)
        return None


# --------------------------------------------------------------------------
# Replay validation
# --------------------------------------------------------------------------


def _action(td, rep, t, cfg, pos, light):
    """``memo_action`` of ``td``'s algorithm, or None and a violation at t.

    The violation is a snapshot outside the algorithm's domain, where the
    algorithm raises ValueError.  ``rep`` lists each such ``(t, pos, light)``
    once, however many robots show it and however many rules evaluate it.
    """
    try:
        return memo_action(td.algorithm, cfg, pos, light)
    except ValueError as exc:
        if (t, pos, light) not in rep.outside:
            rep.outside.add((t, pos, light))
            rep.violate(t, f"no action at robot on {pos}: {exc}")
        return None


def _any_acts(td, rep, t, cfg, seen=None):
    """Whether any ``(pos, light)`` of ``seen`` acts on ``cfg`` (``Action.changes``).

    ``seen`` defaults to every entry of ``cfg``.
    """
    for p, c in cfg.entries if seen is None else seen:
        act = _action(td, rep, t, cfg, p, c)
        if act is not None and act.changes(p, c):
            return True
    return False


@collector_paused
def validate_trace(trace):
    """Replay the event log and flag any divergence from the Config lines.

    Round-based and asynchronous traces replay alike, a round being one
    instant.  Every instant from 0 to End has a Config line exactly when
    its replayed configuration differs from the previous instant's (instant
    0 always has one), and each line's entries equal the replayed
    configuration's, in its canonical order.  Every Compute equals the
    algorithm's output on its Look's snapshot and every move is true to its
    Compute.  The phase rules differ: a round holds a robot's whole cycle,
    while an asynchronous robot keeps its phase order and the timing rules.
    One End line closes the trace with a status that agrees with the final
    configuration.  No asynchronous robot waits as many steps as the header's
    fairness bound (``TraceData.starved``).

    Only the instants of a change or a line are visited: at any other
    instant the replayed configuration is the previous instant's and no line
    is there.  This is the one place that reads the Config lines.
    """
    td = TraceData.of(trace)
    rep = Report("replay")
    logged = dict(zip(td.config_times, td.line_entries))
    changed = dict(td.changes)
    end = td.last_t if td.end_time is None else td.end_time
    for t in sorted(changed.keys() | logged.keys()):
        if t > end:
            break
        line = logged.get(t)
        if line is None:
            rep.violate(t, f"no Config line at t={t}, where the configuration changes")
            continue
        if t not in changed:
            rep.violate(t, f"Config line at t={t}, where the configuration does not change")
        if line != td.replayed(t).entries:
            rep.violate(t, "replayed configuration differs from logged Config")
    for rid in range(td.n):
        if td.scenario.scheduler == "async":
            _validate_timing(td, rid, rep)
        else:
            _validate_round_phases(td, rid, rep)
        _validate_computes(td, rid, rep)
        _validate_moves(td, rid, rep)
    bound = td.scenario.bound
    for t, rid, line, waited in td.starved:
        detail = f"trace line {line}: robot {rid} waited {waited} steps, fairness bound {bound}"
        rep.violate(t, detail)
    _validate_end(td, rep)
    return rep


def _validate_end(td, rep):
    """One End line closes the trace, and a gathered or fixpoint one claims
    the first terminal instant: no robot mid-cycle or enabled.

    In an asynchronous trace that instant comes right after the first robot
    event after which no robot is mid-cycle and none is enabled on the
    configuration shown next (the start counts as such an event at 0), or,
    failing one, right after the last robot event.  In a round trace it
    comes right after the last round, each round having started with a
    robot enabled.
    """
    if td.lines_after_end is None:
        rep.violate(None, "trace has no End line")
        return
    t = td.end_time
    if td.lines_after_end:
        rep.violate(t, f"{td.lines_after_end} line(s) after the End line")
    if td.status not in _END_STATUSES:
        rep.violate(t, f"End status {td.status!r} is none of {', '.join(_END_STATUSES)}")
    final = td.replayed(t)
    if td.status in ("gathered", "fixpoint"):
        if (len(final.occupied) == 1) != (td.status == "gathered"):
            rep.violate(t, f"End status {td.status} disagrees with the final configuration")
        for rid, events in enumerate(td.phases):
            m = _PHASE_RE.fullmatch("".join(k for _, k in events))
            if m and m["open"]:
                rep.violate(t, f"robot {rid} is mid-cycle at End: its last cycle is {m['open']}")
        if _any_acts(td, rep, t, final):
            rep.violate(t, f"End status {td.status} while a robot is enabled")
        if td.scenario.scheduler == "async":
            first = next(
                (s + 1 for s in td.rests if not _any_acts(td, rep, s + 1, td.replayed(s + 1))),
                1 + max((events[-1][0] for events in td.phases if events), default=0),
            )
        else:
            first = 1 + max(td.rounds, default=-1)
            for s in td.rounds:
                if not _any_acts(td, rep, s, td.replayed(s)):
                    rep.violate(s, f"round at t={s} starts with no robot enabled")
        if t != first:
            rep.violate(t, f"End at t={t}, but the first terminal instant is t={first}")
    # a step is a round, or an asynchronous robot event or clock advance; the
    # advance that closes a run that did not run out is no step
    steps = t
    if td.scenario.scheduler == "async":
        steps += td.robot_events - (td.status != "budget")
    budget = td.scenario.step_budget
    if steps > budget or (td.status == "budget" and steps != budget):
        rep.violate(t, f"End status {td.status} after {steps} steps of a budget of {budget}")


def _validate_round_phases(td, rid, rep):
    """A round that activates the robot holds its Look, its Compute and, if it
    moves, MoveBegin and MoveEnd; any other round holds none of its events."""
    acted = {t for t, ids in td.rounds.items() if rid in ids}
    by_t = dict.fromkeys(acted, "")
    for t, k in td.phases[rid]:
        by_t[t] = by_t.get(t, "") + k
    for m in td.moves[rid]:
        for t in m.progress:
            by_t[t] = by_t.get(t, "") + "P"
    for t in sorted(by_t):
        if t not in acted:
            rep.violate(t, f"robot {rid}: events in a round that does not activate it")
        elif by_t[t] not in ("LC", "LCBE"):
            rep.violate(t, f"robot {rid}: round events {by_t[t] or 'none'} are not Look, Compute and move")


def _validate_timing(td, rid, rep):
    """Phase order, strict event order, move spans and progress points."""
    events = td.phases[rid]
    seq = "".join(k for _, k in events)
    if not _PHASE_RE.fullmatch(seq):
        rep.violate(None, f"robot {rid}: phase order broken: {seq}")
    last_t = -1
    for t, _ in events:
        if t <= last_t:
            rep.violate(t, f"robot {rid}: events not strictly ordered")
        last_t = t
    for m in td.moves[rid]:
        if m.t_e is not None:
            if m.t_e < m.t_b + 1:
                rep.violate(m.t_e, f"robot {rid}: move ended before t_b+1")
            if m.t_e - m.t_b > td.scenario.move_span_cap:
                rep.violate(m.t_e, f"robot {rid}: move span exceeds cap")
        prev = Rat(0)
        for t in m.progress:  # in time order, as the lines are
            p = m.progress[t]
            if not on_segment(p, m.origin, m.reach) or p == m.reach:
                rep.violate(t, f"robot {rid}: progress point off half-open segment")
            d = dist_sq(m.origin, p)
            if d <= prev and d != 0:
                rep.violate(t, f"robot {rid}: progress distance not increasing")
            prev = d


def _validate_computes(td, rid, rep):
    """Every Compute reproduces the algorithm on its Look's snapshot.

    Its color, its destination and its ``exec`` flag, which marks a run of
    the wrapper's inner algorithm, must all be the algorithm's.  The
    checker's own actions are kept in the ``memo`` of the TraceData's
    configurations, never the engine's.
    """
    for tc, color, dest, ex, tl in td.computes[rid]:
        if tl is None:
            rep.violate(tc, f"robot {rid}: Compute without Look")
            continue
        cfg, row = td.observed(tl)
        act = _action(td, rep, tl, cfg, *row[rid])
        if act is not None and (
            act.color != color or act.dest != dest or bool(act.inner_exec) != ex
        ):
            rep.violate(tc, f"robot {rid}: Compute differs from algorithm output")


def _validate_moves(td, rid, rep):
    """Each move follows its Compute: on its segment, long enough, ended at reach.

    The phase checks make the robot's latest Compute before its MoveBegin
    the move's own one.  A Compute that sends the robot elsewhere must get its
    move, unless it is an asynchronous robot's last event before the trace
    stops.
    """
    dd = td.scenario.delta * td.scenario.delta
    cs = td.computes[rid]
    for m in td.moves[rid]:
        if m.compute < 0:
            rep.violate(m.t_b, f"robot {rid}: move without Compute")
            continue
        dest = cs[m.compute][2]
        granted = dist_sq(m.origin, m.reach)
        if granted == 0:
            rep.violate(m.t_b, f"robot {rid}: zero-distance move not omitted")
        elif not on_segment(m.reach, m.origin, dest):
            rep.violate(m.t_b, f"robot {rid}: reach off the segment to the Compute's destination")
        elif granted < dd and granted < dist_sq(m.origin, dest):
            rep.violate(m.t_b, f"robot {rid}: move shorter than min(delta, full distance)")
        if m.t_e is not None and m.end_pos != m.reach:
            rep.violate(m.t_e, f"robot {rid}: end position differs from reach")
    looks = td.looks[rid]
    moved = {m.compute for m in td.moves[rid]}
    for ci, (tc, _, dest, _, _) in enumerate(cs):
        if ci in moved or dest == td.shown(tc)[rid][0]:
            continue
        if td.scenario.scheduler != "async" or (looks and looks[-1] > tc):
            rep.violate(tc, f"robot {rid}: Compute's move left out")


# --------------------------------------------------------------------------
# Potential monotonicity
# --------------------------------------------------------------------------


def _cc_family(cc):
    pure_a = all(f == frozenset("A") for f in cc.factors)
    pure_b = all(f == frozenset("B") for f in cc.factors)
    k = len(cc.stations)
    if pure_a:
        return "A" if k == 1 else ("AA" if k == 2 else "AA+A")
    if pure_b:
        return "B" if k == 1 else "BB*B"
    n_a = cc.counts.get("A", 0)
    if n_a == 1:
        return "AB*B"
    if cc.has_exact_midpoint and cc.factors == (
        frozenset("A"),
        frozenset("B"),
        frozenset("A"),
    ):
        return "AB_mA"
    if n_a == 2:
        return "AB+A"
    return "mixed"


def _potential(spec, which=None):
    """``which`` and its potential function; None picks ``spec``'s own, else f."""
    if which is None:
        which = spec.potential or "f"
    return which, potential_f if which == "f" else potential_g


_OFF_LINE = "configuration off the line: potential g undefined"


@collector_paused
def check_monotone(trace, which=None):
    """Strict lexicographic decrease of the potential across effective rounds.

    A round is effective when it activates at least one enabled robot; other
    rounds must leave the configuration unchanged.  ``lex_less`` decides
    every comparison exactly, so an effective round either decreases the
    potential or is a violation.  Potential g is defined on collinear
    configurations only, so with g a round that starts off the line, or an
    effective one that ends off it, is a violation.
    """
    td = TraceData.of(trace)
    which, potential = _potential(td.algorithm, which)
    rep = Report(f"monotone-{which}")
    if td.scenario.scheduler not in ("ssync", "ssync-unfair", "fsync"):
        rep.violate(None, "monotone check expects a round-based trace")
        return rep
    rounds = 0
    for t in td.rounds:  # in time order, as the lines are
        if t >= td.last_t:
            break
        cfg, row = td.observed(t)
        nxt = td.replayed(t + 1)
        if which == "g" and not cfg.on_lds:
            rep.violate(t, _OFF_LINE)
            continue
        seen = (row[r] for r in td.rounds[t])
        if _any_acts(td, rep, t, cfg, seen):
            rounds += 1
            if which == "g" and not nxt.on_lds:
                rep.violate(t, _OFF_LINE)
                continue
            before = potential(cfg)
            after = potential(nxt)
            c = lex_less(after, before)
            if c is not Cmp.LESS:
                row = cfg.classification.value if which == "f" else _cc_family(cfg.cc)
                rep.violate(
                    t,
                    {
                        "row": row,
                        "before": serialize_potential(before),
                        "after": serialize_potential(after),
                        "cmp": c.name,
                    },
                )
        elif cfg.entries != nxt.entries:
            rep.violate(t, "round with no enabled robot changed the configuration")
    rep.extras["effective_rounds"] = rounds
    return rep


def annotate_potentials(trace):
    """Copy of the trace with its algorithm's potential after every Config line.

    The potential is that of the replayed configuration of the line's
    instant.  Annotation lines look like {"kind": "Potential", "t": n, "f":
    [...5...]} with entries "inf", "p/q" or ["lo", "hi"] enclosures.
    Potential g, which is undefined off the line, skips those configurations.
    """
    td = TraceData.of(trace)
    which, potential = _potential(td.algorithm)
    lines = []
    for ln in trace.lines:
        lines.append(ln)
        if ln.get("kind") == "Config":
            cfg = td.replayed(ln["t"])
            if which == "g" and not cfg.on_lds:
                continue
            vec = serialize_potential(potential(cfg))
            lines.append({"kind": "Potential", "t": ln["t"], which: vec})
    return Trace(lines)


def snapshot_has_convention_ties(cfg):
    """True when an action on ``cfg`` may depend on a global tie-break convention.

    A robot exactly at the hull centroid, or a collinear interior robot
    exactly at the endpoint midpoint, is resolved by fixed conventions that
    are deliberately not frame-equivariant (measure-zero situations).
    """
    if cfg.on_lds:
        cc = cfg.cc
        mid = cc.midpoint
        ends = (cc.endpoint_left, cc.endpoint_right)
        return any(p == mid for p in cfg.points if p not in ends)
    center = hull_center(cfg.hull)
    return any(p == center for p in cfg.points)


@collector_paused
def check_equivariance_trace(trace):
    """Equivariance of the trace's algorithm over the Looks drawn from it.

    Five random frames per robot on the configuration of each instant from
    0 to 9 that the trace reaches; a configuration whose actions may rest on
    a tie-break convention is skipped, with all its robots.
    """
    td = TraceData.of(trace)
    rng = random.Random(td.scenario.seed ^ 0xE9)
    triples = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
    rep = Report("equivariance")
    checked = 0
    skipped = 0
    for t in range(min(10, td.last_t + 1)):
        cfg = td.replayed(t)
        if snapshot_has_convention_ties(cfg):
            skipped += len(cfg.entries)
            continue
        for p, c in cfg.entries:
            frames = []
            for _ in range(5):
                a, b, cc_ = triples[rng.randrange(len(triples))]
                if rng.random() < 0.5:
                    a, b = b, a
                frames.append(
                    Frame.from_triple(
                        a,
                        b if rng.random() < 0.5 else -b,
                        cc_,
                        scale=Rat(rng.randint(1, 9), rng.randint(1, 3)),
                        tx=rng.randint(-20, 20),
                        ty=rng.randint(-20, 20),
                    )
                )
            checked += len(frames)
            try:
                found = check_equivariance(td.algorithm, cfg, p, c, frames).violations
            except ValueError as exc:  # a Look outside the algorithm's domain
                rep.violate(t, f"no action at robot on {p}: {exc}")
                continue
            for _ in found:
                rep.violate(t, f"output not equivariant at robot on {p}")
    rep.extras["checked"] = checked
    rep.extras["skipped_tie_conventions"] = skipped
    return rep


# --------------------------------------------------------------------------
# Simulation color-cycle checks
# --------------------------------------------------------------------------

_PHASE_DFA = {
    frozenset("S"): (frozenset("S"), frozenset("SM"), frozenset("M")),
    frozenset("SM"): (frozenset("SM"), frozenset("M")),
    frozenset("M"): (frozenset("M"), frozenset("ME"), frozenset("E")),
    frozenset("ME"): (frozenset("ME"), frozenset("E")),
    frozenset("E"): (frozenset("E"), frozenset("ES"), frozenset("S")),
    frozenset("ES"): (frozenset("ES"), frozenset("S")),
}


def _first_collinear(td):
    """Index in ``td.changes`` of the first collinear configuration, or None."""
    return next((k for k, (_, cfg) in enumerate(td.changes) if cfg.on_lds), None)


@collector_paused
def check_cycle_snapshot(trace):
    """Within each color cycle, all inner executions saw one configuration.

    Also verifies the phase rotation allS -> allM -> allE -> allS (with the
    two-color transitions in between) over the wrapper-governed segment.  A
    cycle runs from one entry into the all-S class to the next; each inner
    execution whose Look lies in the segment falls into the cycle of its
    Look, found by bisection.  Every inner execution must have looked at an
    all-S configuration, so one whose Look comes before the first entry into
    all-S is a violation.
    """
    td = TraceData.of(trace)
    rep = Report("cycle-snapshot")
    # the wrapper governs the configurations up to the first collinear one,
    # and all of them under a simulation (a spec with an ``inner`` one)
    k = None if td.algorithm.inner is not None else _first_collinear(td)
    seg = [t for t, _ in td.changes[:k]]
    stop = None if k is None else td.changes[k][0]
    if not seg:
        rep.extras["cycles"] = 0
        return rep
    classes = [phase_class(cfg) for _, cfg in td.changes[:k]]
    prev = None
    for t, cls in zip(seg, classes):
        if cls not in _PHASE_DFA:
            rep.violate(t, f"illegal phase class {sorted(cls)}")
        elif prev is not None and cls != prev and cls not in _PHASE_DFA.get(prev, ()):
            rep.violate(t, f"illegal phase transition {sorted(prev)} -> {sorted(cls)}")
        prev = cls
    # cycle boundaries: entries into the all-S class
    starts = [
        t
        for i, t in enumerate(seg)
        if classes[i] == frozenset("S") and (i == 0 or classes[i - 1] != frozenset("S"))
    ]
    # per cycle, its inner executions by robot, each robot's in line order
    execs = [[] for _ in starts]
    for rid in range(td.n):
        for _, _, _, ex, tl in td.computes[rid]:
            if ex and tl is not None and (stop is None or tl < stop):
                ci = bisect_right(starts, tl) - 1
                if ci < 0:
                    # before the first entry into all-S: no cycle is open
                    rep.violate(tl, f"robot {rid} ran the inner algorithm outside all-S")
                else:
                    execs[ci].append((rid, tl))
    cycles = 0
    for cycle in execs:
        snaps = []
        for rid, tl in cycle:
            seen = td.replayed(tl)
            if phase_class(seen) != frozenset("S"):
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


# --------------------------------------------------------------------------
# Switch-shape check
# --------------------------------------------------------------------------

_SHAPE_COMBOS = {
    2: {("S", "none"), ("S", "pc:M"), ("M", "none"), ("M", "move")},
    3: {("M", "none"), ("M", "move"), ("M", "pc:E"), ("E", "none")},
    4: {("S", "none"), ("S", "pc:M"), ("M", "none")},
    5: {("M", "none"), ("M", "pc:E"), ("E", "none")},
}


@collector_paused
def check_onlds_switch(trace):
    """Shape of the first collinear configuration and its pending moves.

    At the first collinear instant every pending destination must lie on the
    configuration's line, the per-robot (color, pending) combinations must
    fit one of the five admissible shapes, and collinearity must persist to
    the end of the trace: each later instant that is not collinear is a
    violation.
    """
    td = TraceData.of(trace)
    rep = Report("onlds-switch")
    k = _first_collinear(td)
    if k is None:
        rep.violate(None, "trace never reaches a collinear configuration")
        return rep
    changes = td.changes
    t_star, cfg = changes[k]
    for j in range(k + 1, len(changes)):
        if not changes[j][1].on_lds:
            # every instant it lasts, up to the next change or the last
            stop = changes[j + 1][0] if j + 1 < len(changes) else td.last_t + 1
            for s in range(changes[j][0], stop):
                rep.violate(s, "collinearity lost after the switch")
    occupied = cfg.occupied
    distinct = list(occupied)

    def on_line(q):
        if len(distinct) < 2:
            return True
        return orientation(distinct[0], distinct[1], q) == 0

    states = []
    for rid in range(td.n):
        color = phase_of(td.shown(t_star + 1)[rid][1])
        pending, value = td.pending_state(rid, t_star) or (None, None)
        if pending == "move":
            if not on_line(value):
                rep.violate(t_star, f"robot {rid} pending destination off the line")
            states.append((color, "move"))
        elif pending == "color":
            nxt = phase_of(value) if value else "?"
            # an upcoming Compute keeping the color is no annotation at all
            states.append((color, "none") if nxt == color else (color, f"pc:{nxt}"))
        else:
            states.append((color, "none"))
    single = len(occupied) == 1
    has_m = any(c == "M" for c, _ in states)
    matched = None
    if all(s == ("S", "none") for s in states):
        matched = 1
    for shape, combos in _SHAPE_COMBOS.items():
        if matched:
            break
        if shape in (4, 5) and not single:
            continue
        if all(s in combos for s in states) and has_m:
            matched = shape
    if matched is None:
        rep.violate(t_star, {"shape": "unmatched", "states": sorted(set(states))})
    rep.extras["t_switch"] = t_star
    rep.extras["shape"] = matched
    return rep


# --------------------------------------------------------------------------
# Per-loop shrink check
# --------------------------------------------------------------------------


@collector_paused
def check_shrink(trace):
    """Endpoint distance drops by at least 2*delta between loop entries.

    Loop entries are the first instants of maximal runs where the visible
    configuration is exactly two all-S stations.
    """
    td = TraceData.of(trace)
    rep = Report("shrink")
    entries = []
    prev_ss = False
    for t, cfg in td.changes:
        is_ss = (
            cfg.on_lds
            and len(cfg.occupied) == 2
            and all(c == "S" for _, c in cfg.entries)
        )
        if is_ss and not prev_ss:
            entries.append((t, cfg.cc.span_sq()))
        prev_ss = is_ss
    rep.extras["loops"] = len(entries)
    two_delta = 2 * td.scenario.delta
    for (t0, d0), (t1, d1) in zip(entries, entries[1:]):
        lhs = sqrt_sum([d0])
        rhs = sqrt_sum([d1], exact=two_delta)
        if compare_values(lhs, rhs) is Cmp.LESS:
            rep.violate(t1, f"loop entered at {t1} shrank less than 2*delta")
    return rep


# --------------------------------------------------------------------------
# Gathering detection
# --------------------------------------------------------------------------


@collector_paused
def check_gathered(trace):
    """First time all robots share one point, stable to the end of the trace."""
    td = TraceData.of(trace)
    rep = Report("gathered")
    t_g = None
    for t, cfg in td.changes:
        single = len(cfg.occupied) == 1
        if single and t_g is None:
            t_g = t
        elif not single and t_g is not None:
            rep.violate(t, f"gathered at {t_g} but spread again at {t}")
            t_g = None
    final_t, final = td.last_t, td.changes[-1][1]
    stable = not _any_acts(td, rep, final_t, final)
    if not stable:
        rep.violate(final_t, "a robot is still enabled in the final configuration")
    gathered = t_g is not None and stable and rep.passed
    rep.extras["gathered"] = gathered
    rep.extras["time"] = t_g if gathered else None
    if not gathered and rep.passed:
        rep.violate(None, "no stable gathering in trace")
    return rep


# --------------------------------------------------------------------------
# Equivariance
# --------------------------------------------------------------------------


def check_equivariance(algorithm, cfg, pos, light, frames):
    """Algorithm output on a Look commutes with orientation-preserving similarities."""
    spec = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    rep = Report("equivariance")
    base = spec(cfg, pos, light)
    for i, frame in enumerate(frames):
        act = spec(frame.apply_config(cfg), frame.apply(pos), light)
        if act.color != base.color or frame.inverse_apply(act.dest) != base.dest:
            rep.violate(i, "transformed output does not map back to the original")
    rep.extras["frames"] = len(frames)
    return rep


# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

# fn(trace or TraceData) per name; "monotone" takes the algorithm's own potential
CHECKS = {
    "replay": validate_trace,
    "monotone": check_monotone,
    "monotone-f": functools.partial(check_monotone, which="f"),
    "monotone-g": functools.partial(check_monotone, which="g"),
    "cycle": check_cycle_snapshot,
    "switch": check_onlds_switch,
    "shrink": check_shrink,
    "gather": check_gathered,
    "equivariance": check_equivariance_trace,
}


def default_checks(algorithm, scheduler):
    """Names of the trace checks that apply to ``algorithm`` under ``scheduler``.

    ``replay``, ``monotone`` for a spec with a potential under a round-based
    scheduler, the spec's ``checks``, and ``gather`` if its goal is to gather.
    Equivariance is left out: it costs several times a run plus these checks.
    """
    spec = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    names = ["replay"]
    if spec.potential is not None and scheduler in ("fsync", "ssync", "ssync-unfair"):
        names.append("monotone")
    names += spec.checks
    if spec.goal == "gather":
        names.append("gather")
    return names


def check_names(spec):
    """Check names from a comma-separated string or a sequence of names.

    Raises ValueError on a name that is not in CHECKS.
    """
    names = [s.strip() for s in spec.split(",")] if isinstance(spec, str) else list(spec)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return names


# --------------------------------------------------------------------------
# Exhaustive small-instance exploration
# --------------------------------------------------------------------------


@collector_paused
def enumerate_unfair(
    entries,
    algorithm,
    depth,
    fractions=(Rat(1),),
    delta=Rat(1),
    node_ceiling=100000,
):
    """Explore every activation subset per round to a depth bound.

    Asserts strict decrease of the spec's potential on every edge (f for
    line election, g for two-color gathering) and records whether each
    fixpoint reached meets the spec's goal, a line or a gathering.  One
    fraction from the set applies to all movers of a round.  Aborts with a
    partial report above the node ceiling.

    A node is a SyncWorld over its canonical entries and an edge is the
    engine's ``ssync_round``, so the enumeration runs the engine's round
    semantics.  Its configurations come from its own interner, and each
    distinct (configuration, position, light) is evaluated once.

    Raises ValueError for a spec with no potential: none of them has one
    that every effective round decreases (f is zero on every collinear
    configuration, and a round that only changes colors leaves it equal).
    """
    spec = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    if spec.potential is None:
        judged = " and ".join(s.id for s in ALGORITHMS.values() if s.potential is not None)
        raise ValueError(f"enumeration judges {judged} only, not {spec.id!r}")
    _, potential = _potential(spec)
    goal = (lambda cfg: cfg.gathered()) if spec.goal == "gather" else (lambda cfg: cfg.on_lds)
    rep = Report(f"enumerate-{spec.id}")
    rep.extras.update(nodes=0, edges=0, fixpoints=0, unfinished=0, aborted=False)
    if depth <= 0:
        return rep
    cache = ConfigInterner()
    root = cache.get(tuple(entries))
    best_depth = {root: 0}
    stack = [(root, 0)]
    fractions = tuple(Rat(f) for f in fractions)
    while stack:
        cfg, d = stack.pop()
        rep.extras["nodes"] += 1
        if rep.extras["nodes"] > node_ceiling:
            rep.extras["aborted"] = True
            break
        ents = cfg.entries
        world = SyncWorld([p for p, _ in ents], [c for _, c in ents], cache)
        enab = enabled_ids(world, spec)
        if not enab:
            rep.extras["fixpoints"] += 1
            if not goal(cfg):
                rep.violate(d, {"detail": "fixpoint misses the goal", "state": _fmt(ents)})
            continue
        if d >= depth:
            rep.extras["unfinished"] += 1
            continue
        before = potential(cfg)
        for mask in range(1, 1 << len(enab)):
            subset = [enab[i] for i in range(len(enab)) if mask >> i & 1]
            for frac in fractions:
                nxt = ssync_round(world, spec, subset, dict.fromkeys(subset, frac), delta)
                child = nxt.config()
                rep.extras["edges"] += 1
                c = lex_less(potential(child), before)
                if c is not Cmp.LESS:
                    rep.violate(
                        d,
                        {
                            "detail": f"potential not decreasing ({c.name})",
                            "state": _fmt(ents),
                            "subset": subset,
                        },
                    )
                known = best_depth.get(child)
                if known is None or known > d + 1:
                    best_depth[child] = d + 1
                    stack.append((child, d + 1))
    return rep


def _fmt(entries):
    return [[str(p.x), str(p.y), c] for p, c in entries]
