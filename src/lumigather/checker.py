"""Trace-level verification of the protocol guarantees.

Every checker consumes only a trace: configurations are re-derived from the
event log and compared against the logged Config lines, so an engine bug
surfaces as a replay mismatch rather than a silent pass.  Every parameter of
a check comes from the trace header, which ``Scenario.from_json`` reads.
Each check returns a Report.
"""

import functools
import json
import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .algorithms import get_algorithm, phase_of
from .configuration import ConfigInterner, Frame, Snapshot
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
    passed: bool = True
    violations: list = field(default_factory=list)
    # always empty: every potential comparison is decided; the key stays in
    # ``to_json`` so that report lines keep their format
    undecided: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def violate(self, t, detail):
        self.passed = False
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


_PHASE_RE = re.compile(r"(LC(BE)?)*(L|LC|LCB)?")

# the letter of each phase event; a MoveProgress is none
_PHASES = {"Look": "L", "Compute": "C", "MoveBegin": "B", "MoveEnd": "E"}
_ROBOT_EVENTS = frozenset((*_PHASES, "MoveProgress"))
# instants after an event at which its robot shows it: a new color, the leaving
# of the origin or the reach from the next instant, a progress point at once
_SHOWN_AFTER = {"Compute": 1, "MoveBegin": 1, "MoveProgress": 0, "MoveEnd": 1}
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
    """Parsed trace with per-robot timelines and visible-state queries.

    One pass over the lines builds every record, per robot in line order:
    ``looks``, the time of each Look; ``computes``, one ``(t, color, dest,
    exec, t_look)`` per Compute, with the time of the robot's latest Look line
    before it (None: none); ``moves``, one ``_MoveRec`` per MoveBegin;
    ``phases``, one ``(t, letter)`` per Look, Compute, MoveBegin and MoveEnd
    (L, C, B, E), whose number is ``robot_events``.  Lines never go back in
    time, so within one instant line order is the order of the events.

    Every raw ``(x, y)`` pair is parsed once and mapped to a single Point, so
    equal coordinates share one object.  A Config line whose raw entries
    equal the previous Config line's shares that line's decoded entries.
    ``replayed(t)`` derives instant t from t-1 where it can, recomputing
    only the robots whose visible state an event may have changed.
    ``scenario`` is the header as ``Scenario.from_json`` reads it.  Malformed
    input raises ValueError, as do lines out of time order and colors
    outside the algorithm's alphabet.  Checks obtain their instance through
    ``TraceData.of``, which builds it once per trace.
    """

    @classmethod
    def of(cls, trace):
        """The TraceData shared by every check of ``trace``.

        A TraceData passed in is returned as is; one built from a Trace is
        stored on it.  A Trace only ever appends lines, so the stored
        TraceData is rebuilt exactly when the line list was replaced or has
        grown.  An in-place edit of an existing line is not seen: a forged
        copy of a checked trace must be checked on
        ``Trace.parse(tr.dumps())``, never on the edited ``tr`` itself.
        """
        if isinstance(trace, TraceData):
            return trace
        lines = getattr(trace, "lines", None)
        if lines is None:
            return cls(trace)
        td = getattr(trace, "_trace_data", None)
        if td is None or td._lines is not lines or td._n_lines != len(lines):
            td = cls(trace)
            trace._trace_data = td
        return td

    def __init__(self, trace):
        lines = trace.lines if hasattr(trace, "lines") else list(trace)
        self._lines = lines
        self._n_lines = len(lines)
        if not lines or not isinstance(lines[0], dict) or lines[0].get("kind") != "Header":
            raise ValueError("trace does not start with a Header line")
        try:
            self.scenario = Scenario.from_json(
                {k: v for k, v in lines[0].items() if k not in ("kind", "n")}
            )
        except ValueError as exc:
            raise ValueError(f"trace header: {exc}") from exc
        self.n = n = len(self.scenario.robots)
        if json_typed(lines[0].get("n"), int, "trace header: n") != n:
            raise ValueError(f"trace header lists {n} robots, n={lines[0]['n']}")
        self.algorithm = get_algorithm(self.scenario.algorithm)
        # the header's raw pairs map to the Scenario's own Points
        robots = zip(lines[0]["robots"], self.scenario.robots)
        self._points = {(r["x"], r["y"]): p for r, (p, _) in robots}
        self.status = None
        self.end_time = None
        self.lines_after_end = None  # None: the trace has no End line
        self.configs = {}
        self.rounds = {}
        self.looks = looks = [[] for _ in range(n)]
        self.computes = computes = [[] for _ in range(n)]
        self.moves = moves = [[] for _ in range(n)]
        self.phases = phases = [[] for _ in range(n)]
        self._comp_times = comp_times = [[] for _ in range(n)]
        self._move_tbs = move_tbs = [[] for _ in range(n)]
        # instant t -> the robots whose visible state may differ from t-1's
        self._changes = changes = {}
        pos = [p for p, _ in self.scenario.robots]  # where each robot's next move starts
        last_time = 0
        raw = entries = None  # the latest Config line's raw and decoded entries
        for i, ln in enumerate(lines[1:], 1):
            if type(ln) is not dict:
                json_typed(ln, dict, f"trace line {i + 1}")
            kind = ln.get("kind")
            need = _LINE_KEYS.get(kind, _LINE_KEYS[None])
            if not ln.keys() >= need:
                json_object(ln, sorted(need), f"trace line {i + 1}")
            t = ln["t"]
            if type(t) is not int:
                json_typed(t, int, f"trace line {i + 1}: t")
            if t < last_time:
                raise ValueError(f"trace line {i + 1}: t={t} comes after a line at t={last_time}")
            last_time = t
            if kind == "Config":
                if t in self.configs:
                    raise ValueError(f"trace line {i + 1}: a second Config line for t={t}")
                # an equal list decodes and validates the same way
                if entries is None or ln["entries"] != raw:
                    raw = ln["entries"]
                    entries = self._config_entries(raw, i)
                self.configs[t] = entries
            elif kind == "End":
                if self.lines_after_end is None:
                    self.status = ln["status"]
                    self.end_time = t
                    self.lines_after_end = len(lines) - 1 - i
            elif kind == "RoundStart":
                for rid in json_typed(ln["activated"], list, f"trace line {i + 1}: activated"):
                    self._check_robot(rid, ln)
                self.rounds[t] = ln["activated"]
            elif kind in _ROBOT_EVENTS:
                rid = ln["robot"]
                self._check_robot(rid, ln)
                if kind == "Look":
                    looks[rid].append(t)
                elif kind == "Compute":
                    color = ln["color"]
                    if color not in self.algorithm.colors:
                        self._bad_color(color, f"trace line {i + 1}: color")
                    t_look = looks[rid][-1] if looks[rid] else None
                    dest = self.point(ln["dest"])
                    computes[rid].append((t, color, dest, bool(ln.get("exec")), t_look))
                    comp_times[rid].append(t)
                elif kind == "MoveBegin":
                    reach = self.point(ln["reach"])
                    moves[rid].append(_MoveRec(t, pos[rid], reach, len(computes[rid]) - 1))
                    move_tbs[rid].append(t)
                elif not moves[rid]:
                    raise ValueError(f"{kind} without MoveBegin (robot {rid}, t={t})")
                elif kind == "MoveProgress":
                    moves[rid][-1].progress[t] = self.point(ln["pos"])
                else:
                    m = moves[rid][-1]
                    m.t_e = t
                    m.end_pos = pos[rid] = self.point(ln["pos"])
                if kind in _PHASES:
                    phases[rid].append((t, _PHASES[kind]))
                if kind in _SHOWN_AFTER:
                    changes.setdefault(t + _SHOWN_AFTER[kind], set()).add(rid)
        self.robot_events = sum(map(len, phases))
        self.config_times = list(self.configs)  # sorted, as the lines are in time order
        self.cache = ConfigInterner()
        self._at = {}
        self._replayed = {}
        self._row = [None] * n  # robot-order entries of instant _row_t
        self._row_t = None
        for rid, ms in enumerate(moves):
            for j, m in enumerate(ms):
                # visible_pos reads this move's progress up to its end, the
                # robot's next MoveBegin or the last instant of the trace
                stop = last_time if m.t_e is None else m.t_e
                if j + 1 < len(ms):
                    stop = min(stop, ms[j + 1].t_b)
                if sum(m.t_b < t <= stop for t in m.progress) < stop - m.t_b:
                    raise ValueError(
                        f"robot {rid}: move begun at t={m.t_b} lacks a MoveProgress "
                        f"line at some instant up to t={stop}"
                    )

    def _check_robot(self, rid, ln):
        if type(rid) is not int or not 0 <= rid < self.n:
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

    def _config_entries(self, raw, i):
        """``(Point, color)`` pairs of the raw ``[x, y, color]`` entries of line i."""
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

    def config_at(self, t):
        cfg = self._at.get(t)
        if cfg is None:
            cfg = self._at[t] = self.cache.get(self.configs[t])
        return cfg

    # -- visible state (asynchronous timing rules; a round is one instant) ---

    def visible_color(self, rid, t):
        """Color observed at time t: a change at exactly t is not yet seen."""
        i = bisect_left(self._comp_times[rid], t)
        if i == 0:
            return self.scenario.robots[rid][1]
        return self.computes[rid][i - 1][1]

    def visible_pos(self, rid, t):
        i = bisect_left(self._move_tbs[rid], t)  # moves with t_b < t
        if i == 0:
            return self.scenario.robots[rid][0]
        m = self.moves[rid][i - 1]
        if m.t_e is not None and t >= m.t_e + 1:
            return m.reach
        return m.progress[t]

    def replayed(self, t):
        """Interned configuration every robot observes at instant t.

        Derived from the header and the robot events alone, never from the
        Config lines.  A round is one instant, so a round-based trace
        replays through the same timing rules.  Right after instant t-1,
        only the robots that ``_changes`` lists for t are recomputed.
        """
        cfg = self._replayed.get(t)
        if cfg is not None:
            return cfg
        row = self._row
        if self._row_t == t - 1:
            changed = self._changes.get(t, ())
            for i in changed:
                row[i] = (self.visible_pos(i, t), self.visible_color(i, t))
            if not changed:
                cfg = self._replayed[t - 1]
        else:
            row[:] = [(self.visible_pos(i, t), self.visible_color(i, t)) for i in range(self.n)]
        if cfg is None:
            cfg = self.cache.get(tuple(row))
        self._replayed[t] = cfg
        self._row_t = t
        return cfg

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
        i = bisect_right(self._comp_times[rid], t)
        if i:
            t_c, color, dest, _, _ = cs[i - 1]
            ms = [m for m in self.moves[rid] if m.t_b >= t_c]
            ended = ms and ms[0].t_e is not None and ms[0].t_e <= t
            origin = ms[0].origin if ms else self.visible_pos(rid, t_c)
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
    algorithm raises ValueError.
    """
    try:
        return memo_action(td.algorithm, cfg, pos, light)
    except ValueError as exc:
        rep.violate(t, f"no action at robot on {pos}: {exc}")
        return None


def _any_acts(td, rep, t, cfg, seen):
    """Whether any ``(pos, light)`` of ``seen`` acts on ``cfg`` (``Action.changes``)."""
    for p, c in seen:
        act = _action(td, rep, t, cfg, p, c)
        if act is not None and act.changes(p, c):
            return True
    return False


def validate_trace(trace):
    """Replay the event log and flag any divergence from the Config lines.

    Round-based and asynchronous traces replay alike, a round being one
    instant: one Config line per instant from 0 to End, each equal to the
    replayed configuration; every Compute equal to the algorithm's output on
    its Look's snapshot; every move true to its Compute.  The phase rules
    differ: a round holds a robot's whole cycle, while an asynchronous robot
    keeps its phase order and the timing rules.  One End line closes the
    trace with a status that agrees with the final configuration.
    """
    td = TraceData.of(trace)
    rep = Report("replay")
    expected = 0
    for t in td.config_times:
        if t != expected:
            rep.violate(t, f"Config line at t={t} where t={expected} was expected")
        expected = t + 1
        if td.replayed(t).entries != td.configs[t]:
            rep.violate(t, "replayed configuration differs from logged Config")
    for rid in range(td.n):
        if td.scenario.scheduler == "async":
            _validate_timing(td, rid, rep)
        else:
            _validate_round_phases(td, rid, rep)
        _validate_computes(td, rid, rep)
        _validate_moves(td, rid, rep)
    _validate_end(td, rep)
    return rep


def _validate_end(td, rep):
    if td.lines_after_end is None:
        rep.violate(None, "trace has no End line")
        return
    t = td.end_time
    if td.lines_after_end:
        rep.violate(t, f"{td.lines_after_end} line(s) after the End line")
    last = td.config_times[-1] if td.config_times else None
    if t != last:
        rep.violate(t, f"End at t={t} but the last Config is at t={last}")
    if td.status not in _END_STATUSES:
        rep.violate(t, f"End status {td.status!r} is none of {', '.join(_END_STATUSES)}")
    if last is not None and td.status in ("gathered", "fixpoint"):
        single = len({p for p, _ in td.configs[last]}) == 1
        if single != (td.status == "gathered"):
            rep.violate(t, f"End status {td.status} disagrees with the final configuration")
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

    The checker's own actions are kept in the ``memo`` of the TraceData's
    configurations, never the engine's.
    """
    for tc, color, dest, _, tl in td.computes[rid]:
        if tl is None:
            rep.violate(tc, f"robot {rid}: Compute without Look")
            continue
        act = _action(
            td, rep, tl, td.replayed(tl), td.visible_pos(rid, tl), td.visible_color(rid, tl)
        )
        if act is not None and (act.color != color or act.dest != dest):
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
        if ci in moved or dest == td.visible_pos(rid, tc):
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


def _potential(algorithm_id, which=None):
    """``which`` and its potential function; None picks the algorithm's own.

    ``lu-gather`` decreases g, every other algorithm f.
    """
    if which is None:
        which = "g" if algorithm_id == "lu-gather" else "f"
    return which, potential_f if which == "f" else potential_g


_OFF_LINE = "configuration off the line: potential g undefined"


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
    which, potential = _potential(td.algorithm.id, which)
    rep = Report(f"monotone-{which}")
    if td.scenario.scheduler not in ("ssync", "ssync-unfair", "fsync"):
        rep.violate(None, "monotone check expects a round-based trace")
        return rep
    rounds = 0
    for t in td.rounds:  # in time order, as the lines are
        if t + 1 not in td.configs:
            break
        cfg = td.config_at(t)
        nxt = td.config_at(t + 1)
        if which == "g" and not cfg.on_lds:
            rep.violate(t, _OFF_LINE)
            continue
        seen = ((td.visible_pos(r, t), td.visible_color(r, t)) for r in td.rounds[t])
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

    Annotation lines look like {"kind": "Potential", "t": n, "f": [...5...]}
    with entries "inf", "p/q" or ["lo", "hi"] enclosures.  Potential g, which
    is undefined off the line, skips those configurations.
    """
    td = TraceData.of(trace)
    which, potential = _potential(td.algorithm.id)
    out = Trace.__new__(Trace)
    out.lines = []
    out.status = trace.status
    out.end_time = trace.end_time
    for ln in trace.lines:
        out.lines.append(ln)
        if ln.get("kind") == "Config":
            cfg = td.config_at(ln["t"])
            if which == "g" and not cfg.on_lds:
                continue
            vec = serialize_potential(potential(cfg))
            out.lines.append({"kind": "Potential", "t": ln["t"], which: vec})
    return out


def snapshot_has_convention_ties(snap):
    """True when the action depends on a global tie-break convention.

    A robot exactly at the hull centroid, or a collinear interior robot
    exactly at the endpoint midpoint, is resolved by fixed conventions that
    are deliberately not frame-equivariant (measure-zero situations).
    """
    cfg = snap.config
    if cfg.on_lds:
        cc = cfg.cc
        mid = cc.midpoint
        ends = (cc.endpoint_left, cc.endpoint_right)
        return any(p == mid for p in cfg.points if p not in ends)
    center = hull_center(cfg.hull)
    return any(p == center for p in cfg.points)


def check_equivariance_trace(trace):
    """Equivariance of the trace's algorithm over snapshots drawn from it.

    Five random frames per robot on each of the first ten configurations;
    snapshots whose action rests on a tie-break convention are skipped.
    """
    td = TraceData.of(trace)
    rng = random.Random(td.scenario.seed ^ 0xE9)
    triples = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
    rep = Report("equivariance")
    checked = 0
    skipped = 0
    for t in td.config_times[:10]:
        cfg = td.config_at(t)
        for p, c in cfg.entries:
            snap = Snapshot(cfg, p, c)
            if snapshot_has_convention_ties(snap):
                skipped += 1
                continue
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
                found = check_equivariance(td.algorithm, snap, frames).violations
            except ValueError as exc:  # a snapshot outside the algorithm's domain
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


def _phase_class(cfg):
    """The phases (S, M, E) that ``cfg``'s colors show, kept in ``cfg.memo``."""
    cls = cfg.memo.get("phase_class")
    if cls is None:
        cls = cfg.memo["phase_class"] = frozenset(phase_of(c) for c in cfg.colors_present)
    return cls


def _wrapped_segment(td):
    """Config times governed by the simulation wrapper."""
    ts = td.config_times
    if td.algorithm.id == "six-color":
        return ts
    out = []
    for t in ts:
        if td.config_at(t).on_lds:
            break
        out.append(t)
    return out


def check_cycle_snapshot(trace):
    """Within each color cycle, all inner executions saw one configuration.

    Also verifies the phase rotation allS -> allM -> allE -> allS (with the
    two-color transitions in between) over the wrapper-governed segment.
    """
    td = TraceData.of(trace)
    rep = Report("cycle-snapshot")
    seg = _wrapped_segment(td)
    if not seg:
        rep.extras["cycles"] = 0
        return rep
    classes = {t: _phase_class(td.config_at(t)) for t in seg}
    prev = None
    for t in seg:
        cls = classes[t]
        if cls not in _PHASE_DFA:
            rep.violate(t, f"illegal phase class {sorted(cls)}")
        elif prev is not None and cls != prev and cls not in _PHASE_DFA.get(prev, ()):
            rep.violate(t, f"illegal phase transition {sorted(prev)} -> {sorted(cls)}")
        prev = cls
    # cycle boundaries: entries into the all-S class
    starts = [
        t
        for i, t in enumerate(seg)
        if classes[t] == frozenset("S") and (i == 0 or classes[seg[i - 1]] != frozenset("S"))
    ]
    cycles = 0
    seg_set = set(seg)
    for ci, start in enumerate(starts):
        end = starts[ci + 1] if ci + 1 < len(starts) else (seg[-1] + 1)
        snaps = []
        for rid in range(td.n):
            for _, _, _, ex, tl in td.computes[rid]:
                if ex and tl is not None and start <= tl < end and tl in seg_set:
                    seen = td.replayed(tl)
                    if _phase_class(seen) != frozenset("S"):
                        rep.violate(
                            tl, f"robot {rid} ran the inner algorithm outside all-S"
                        )
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


def check_onlds_switch(trace):
    """Shape of the first collinear configuration and its pending moves.

    At the first collinear instant every pending destination must lie on the
    configuration's line, the per-robot (color, pending) combinations must
    fit one of the five admissible shapes, and collinearity must persist to
    the end of the trace.
    """
    td = TraceData.of(trace)
    rep = Report("onlds-switch")
    t_star = None
    for t in td.config_times:
        if td.config_at(t).on_lds:
            t_star = t
            break
    if t_star is None:
        rep.violate(None, "trace never reaches a collinear configuration")
        return rep
    for t in td.config_times:
        if t > t_star and not td.config_at(t).on_lds:
            rep.violate(t, "collinearity lost after the switch")
    cfg = td.config_at(t_star)
    occupied = cfg.occupied
    distinct = list(occupied)

    def on_line(q):
        if len(distinct) < 2:
            return True
        return orientation(distinct[0], distinct[1], q) == 0

    states = []
    for rid in range(td.n):
        color = phase_of(td.visible_color(rid, t_star + 1))
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


def check_shrink(trace):
    """Endpoint distance drops by at least 2*delta between loop entries.

    Loop entries are the first instants of maximal runs where the visible
    configuration is exactly two all-S stations.
    """
    td = TraceData.of(trace)
    rep = Report("shrink")
    entries = []
    prev_ss = False
    for t in td.config_times:
        cfg = td.config_at(t)
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


def check_gathered(trace):
    """First time all robots share one point, stable to the end of the trace."""
    td = TraceData.of(trace)
    rep = Report("gathered")
    if not td.config_times:
        rep.violate(None, "trace has no Config line")
        rep.extras["gathered"] = False
        rep.extras["time"] = None
        return rep
    t_g = None
    for t in td.config_times:
        single = len(td.config_at(t).occupied) == 1
        if single and t_g is None:
            t_g = t
        elif not single and t_g is not None:
            rep.violate(t, f"gathered at {t_g} but spread again at {t}")
            t_g = None
    final_t = td.config_times[-1]
    final = td.config_at(final_t)
    stable = not _any_acts(td, rep, final_t, final, final.entries)
    if not stable:
        rep.violate(final_t, "a robot is still enabled in the final configuration")
    gathered = t_g is not None and stable and rep.passed
    rep.extras["gathered"] = gathered
    rep.extras["time"] = t_g if gathered else None
    if not gathered and rep.passed:
        rep.passed = False
        rep.violations.append({"t": None, "detail": "no stable gathering in trace"})
    return rep


# --------------------------------------------------------------------------
# Equivariance
# --------------------------------------------------------------------------


def check_equivariance(algorithm, snapshot, frames):
    """Algorithm output commutes with orientation-preserving similarities."""
    spec = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    rep = Report("equivariance")
    base = spec(snapshot)
    for i, frame in enumerate(frames):
        moved = frame.apply_snapshot(snapshot)
        act = spec(moved)
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

    Equivariance is left out: it costs several times a run plus these checks.
    """
    names = ["replay"]
    if algorithm in ("elect-one-lds", "lu-gather"):
        if scheduler in ("fsync", "ssync", "ssync-unfair"):
            names.append("monotone")
        if algorithm == "lu-gather":
            names.append("gather")
    elif algorithm == "lu-gather-async":
        names += ["shrink", "gather"]
    else:  # simulation-wrapped gatherers
        names += ["cycle", "switch", "gather"]
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


def enumerate_unfair(
    entries,
    algorithm,
    depth,
    fractions=(Rat(1),),
    delta=Rat(1),
    node_ceiling=100000,
):
    """Explore every activation subset per round to a depth bound.

    Asserts strict potential decrease on every edge (f for line election, g
    for two-color gathering) and records whether each fixpoint reached is
    collinear respectively gathered.  One fraction from the set applies to
    all movers of a round.  Aborts with a partial report above the node
    ceiling.

    A node is a SyncWorld over its canonical entries and an edge is the
    engine's ``ssync_round``, so the enumeration runs the engine's round
    semantics.  Its configurations come from its own interner, and each
    distinct (configuration, position, light) is evaluated once.

    Raises ValueError for any other algorithm: none of them has a potential
    that every effective round decreases (f is zero on every collinear
    configuration, and a round that only changes colors leaves it equal).
    """
    spec = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    if spec.id not in ("elect-one-lds", "lu-gather"):
        raise ValueError(f"enumeration judges elect-one-lds and lu-gather only, not {spec.id!r}")
    _, potential = _potential(spec.id)
    goal = (
        (lambda cfg: cfg.gathered())
        if spec.id == "lu-gather"
        else (lambda cfg: cfg.on_lds)
    )
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
