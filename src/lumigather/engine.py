"""Execution engine: FSYNC/SSYNC (fair and unfair) rounds and ASYNC events.

Timing model for ASYNC runs: all phase starts happen at integer times.  A
Compute at time t is observable from t+1 (a Look at t still reads the former
color).  A movement begun at t_B and ended at t_E >= t_B + 1 is observed at
the origin up to t_B, at adversary-chosen strictly advancing interior points
during [t_B+1, t_E], and at the reached point from t_E + 1.  Within one run
everything is a deterministic function of (scenario, seed).

The engine keeps only the current instant.  ``AsyncWorld.shown`` holds what
the others observe of each robot now, and only the clock's advance sets it:
to the new progress point for a robot that is moving, to its position for
any other robot, and to its light for every robot.  No event of an instant
touches it, which is exactly the rule above: a Compute at t shows from t+1, a
MoveBegin at t shows the origin, and a MoveEnd at t shows the progress point
of t until t+1.  The checker re-derives the same rule from the logged events
independently.

A robot performs at most one phase event (Look, Compute, MoveBegin or
MoveEnd) per instant: each event's timing guard fails at the instant of the
robot's own previous event and holds at every later one.  So a robot that has
not acted at the current instant has exactly one legal event, the one its
phase allows next, and one that has acted has none: ``AsyncWorld.next_event``
returns it.  ``async_step`` decides a robot event's legality from the same
two facts, the robot's ``event_t`` and ``NEXT[phase]``, and decides fairness
inline from ``stamps``: the choice is starving only if the first entry that
is not the robot it serves is at the bound.  The adversary policies share
one base, ``_Policy``: each only picks a robot or advances the clock, and
``_Policy.event`` builds the robot's choice, with the truncation of a
MoveBegin.  The random policy serves only ready robots, so it reads each
one's event off ``NEXT`` without asking the world.

A Look keeps the ``(configuration, position, light)`` triple it observed,
and its Compute evaluates that triple through ``memo_action``, which calls
the algorithm on it only when the action is not memoized yet.

``AsyncWorld`` updates its bookkeeping at the event that changes it, and
after every step these hold:

* ``ready`` lists the robots that have not acted at the current instant, in
  index order;
* ``movers`` lists the ``MOVING`` robots, in index order;
* ``busy`` counts the robots that are not ``IDLE``;
* ``stamps`` maps each ready robot to its stamp, a count of ``steps`` (every
  robot event and every advance is one), and lists them oldest stamp first,
  ties in index order.  A ready robot's starvation, the steps since it was
  last served, is ``steps`` minus its stamp; a robot that acted at this
  instant has none, and the advance that closes the instant gives it a new
  stamp, behind every other robot.  So the first entry is the most starved
  robot, the first in index order among equals.

The random policies draw among the ready robots and the round-robin policy
serves one robot at a time; ``SsyncEmbeddedPolicy.step`` scans every robot
at every step to group them by phase.

A trace has a Config line at instant 0 and at each instant whose observed
configuration differs from the previous instant's, and at no other instant.
Configurations are interned, so two are equal exactly when they are one
object, and both writers compare objects: a round run logs the configuration
interned from the round's new row when it is not the one the round started
from, and an advance logs ``visible`` when it is a new object.  An advance
re-reads only the robots that acted in the closing instant, the ones without
a stamp, and the movers, since no other robot can show anything new.  When
none of them changes what it shows, the configuration is not interned again
and the instant has no Config line.

A round acts on a row, like ``AsyncWorld.shown`` each robot's ``(position,
light)`` entry in robot order, and on the configuration interned from it.
``is_enabled`` is the one test of whether an entry would act, for the round
engine, ``enabled_ids`` and ``AsyncWorld.is_terminal``.

A ``Trace`` is its lines: a run starts from ``Trace([header])`` and appends
to them, and ``checker.TraceData`` is their one reader, the End line's
status and instant included.

The engine and the trace format build no reference cycles, so ``run``,
``Trace.dumps`` and ``Trace.parse`` run with the cyclic collector paused
(``configuration.collector_paused``).
"""

import json
import random
from bisect import insort
from dataclasses import dataclass
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii

from .algorithms import get_algorithm
from .configuration import ConfigInterner, collector_paused
from .geometry import Point, dist_sq_ints, is_on_lds, toward
from .rational import Rat, format_rat, min_rat_ge_sqrt, parse_rat

SCHEDULERS = ("fsync", "ssync", "ssync-unfair", "async")


class ScenarioError(ValueError):
    pass


class EmptyActivation(ValueError):
    pass


class IllegalChoice(ValueError):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class Starved(IllegalChoice):
    """A choice that leaves a robot starved beyond the fairness bound."""


class BudgetExhausted(RuntimeError):
    def __init__(self, trace):
        super().__init__("step budget exhausted")
        self.trace = trace


_JSON_TYPES = {bool: "boolean", int: "integer", str: "string", list: "array", dict: "object"}


def json_typed(value, kind, what):
    """``value`` if its JSON type is ``kind`` (a bool is no integer); else ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{what} is not a JSON {_JSON_TYPES[kind]}: {value!r}")
    return value


def _known_keys(value, keys, what):
    """``value``'s keys all lie in ``keys``; else ScenarioError naming the others."""
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown {what} key {', '.join(unknown)}")


def json_object(value, keys, what):
    """``value`` if it is a JSON object holding every key in ``keys``."""
    missing = [k for k in keys if k not in json_typed(value, dict, what)]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    return value


# the keys Scenario.to_json writes; a scenario file may omit the optional ones
_SCENARIO_KEYS = (
    "robots",
    "delta",
    "scheduler",
    "algorithm",
    "adversary",
    "step_budget",
    "fairness_bound",
    "move_span_cap",
)
_ROBOT_KEYS = ("x", "y", "color")


@dataclass(frozen=True)
class Scenario:
    robots: tuple  # ((Point, color), ...)
    delta: object
    scheduler: str
    algorithm: str
    policy: str = "random"
    seed: int = 0
    step_budget: int = 100000
    fairness_bound: int = 0  # 0 means default 8*n
    move_span_cap: int = 16

    def __post_init__(self):
        if not self.robots:
            raise ScenarioError("scenario needs at least one robot")
        if self.delta <= 0:
            raise ScenarioError("delta must be positive")
        if self.step_budget <= 0:
            raise ScenarioError("step_budget must be positive")
        if self.scheduler not in SCHEDULERS:
            raise ScenarioError(f"unknown scheduler {self.scheduler!r}")
        if self.policy not in POLICIES:
            raise ScenarioError(f"unknown adversary policy {self.policy!r}")
        if self.move_span_cap < 1:
            raise ScenarioError("move_span_cap must be >= 1")
        if self.fairness_bound < 0:
            raise ScenarioError("fairness_bound must be >= 1 (0 selects the default)")
        n = len(self.robots)
        if self.scheduler == "async" and 0 < self.fairness_bound < n:
            # an asynchronous step serves at most one robot
            raise ScenarioError(f"async fairness_bound {self.fairness_bound} is below n={n}")
        spec = get_algorithm(self.algorithm)
        for _, c in self.robots:
            if c not in spec.colors:
                raise ScenarioError(f"color {c!r} outside alphabet of {self.algorithm}")
        if spec.needs_onlds_start and not is_on_lds([p for p, _ in self.robots]):
            raise ScenarioError(f"{self.algorithm} requires a collinear start")

    @property
    def bound(self):
        return self.fairness_bound if self.fairness_bound else 8 * len(self.robots)

    @staticmethod
    def from_json(data):
        """The Scenario of a decoded JSON object; ScenarioError if malformed.

        The one reader of scenario files and trace headers (whose own keys
        ``kind`` and ``n`` the trace reader takes off first).  Every field
        must have its JSON type (``json_typed``): a rational is ``"p/q"`` or
        an integer, and nothing is coerced.  A key outside the schema, which
        is a misspelled field, is an error, never a silent default.
        """
        try:
            json_object(data, ("robots", "delta", "scheduler", "algorithm"), "scenario")
            _known_keys(data, _SCENARIO_KEYS, "scenario")
            robots = []
            for i, r in enumerate(json_typed(data["robots"], list, "robots")):
                json_object(r, _ROBOT_KEYS, f"robot {i}")
                _known_keys(r, _ROBOT_KEYS, f"robot {i}")
                color = json_typed(r["color"], str, f"robot {i} color")
                robots.append((Point(parse_rat(r["x"]), parse_rat(r["y"])), color))
            adversary = json_typed(data.get("adversary", {}), dict, "adversary")
            _known_keys(adversary, ("policy", "seed"), "adversary")
            return Scenario(
                robots=tuple(robots),
                delta=parse_rat(data["delta"]),
                scheduler=json_typed(data["scheduler"], str, "scheduler"),
                algorithm=json_typed(data["algorithm"], str, "algorithm"),
                policy=json_typed(adversary.get("policy", "random"), str, "adversary policy"),
                seed=json_typed(adversary.get("seed", 0), int, "adversary seed"),
                step_budget=json_typed(data.get("step_budget", 100000), int, "step_budget"),
                fairness_bound=json_typed(data.get("fairness_bound", 0), int, "fairness_bound"),
                move_span_cap=json_typed(data.get("move_span_cap", 16), int, "move_span_cap"),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def to_json(self):
        return {
            "robots": [
                {"x": format_rat(p.x), "y": format_rat(p.y), "color": c}
                for p, c in self.robots
            ],
            "delta": format_rat(self.delta),
            "scheduler": self.scheduler,
            "algorithm": self.algorithm,
            "adversary": {"policy": self.policy, "seed": self.seed},
            "step_budget": self.step_budget,
            "fairness_bound": self.fairness_bound,
            "move_span_cap": self.move_span_cap,
        }

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ScenarioError(f"scenario is not UTF-8: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
            except RecursionError:
                raise ScenarioError("invalid scenario JSON: nested too deeply") from None
        return Scenario.from_json(data)


# a trace line is compact JSON with sorted keys
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


_esc = encode_basestring_ascii


def _pair(v):
    """A list of two strings as JSON text, or None for anything else."""
    if type(v) is list and len(v) == 2:
        x, y = v
        if type(x) is str and type(y) is str:
            return f"[{_esc(x)},{_esc(y)}]"
    return None


def _look(line):
    robot, t = line.get("robot"), line.get("t")
    if len(line) == 3 and type(robot) is int and type(t) is int:
        return f'{{"kind":"Look","robot":{robot},"t":{t}}}\n'
    return None


def _compute(line):
    color, dest, ex = line.get("color"), _pair(line.get("dest")), line.get("exec")
    robot, t = line.get("robot"), line.get("t")
    if (
        len(line) == 6
        and type(color) is str
        and dest is not None
        and type(ex) is bool
        and type(robot) is int
        and type(t) is int
    ):
        ex = "true" if ex else "false"
        return (
            f'{{"color":{_esc(color)},"dest":{dest},"exec":{ex},'
            f'"kind":"Compute","robot":{robot},"t":{t}}}\n'
        )
    return None


def _move(kind, key):
    """The formatter of a move line: ``kind`` with the point ``key``."""
    head = f'{{"kind":"{kind}","{key}":'

    def move(line):
        xy, robot, t = _pair(line.get(key)), line.get("robot"), line.get("t")
        if len(line) == 4 and xy is not None and type(robot) is int and type(t) is int:
            return f'{head}{xy},"robot":{robot},"t":{t}}}\n'
        return None

    return move


def _config(line):
    entries, t = line.get("entries"), line.get("t")
    if len(line) != 3 or type(entries) is not list or type(t) is not int:
        return None
    rows = []
    for entry in entries:
        if type(entry) is not list or len(entry) != 3:
            return None
        x, y, color = entry
        if type(x) is not str or type(y) is not str or type(color) is not str:
            return None
        rows.append(f"[{_esc(x)},{_esc(y)},{_esc(color)}]")
    rows = ",".join(rows)
    return f'{{"entries":[{rows}],"kind":"Config","t":{t}}}\n'


def _round_start(line):
    activated, t = line.get("activated"), line.get("t")
    if len(line) != 3 or type(activated) is not list or type(t) is not int:
        return None
    for i in activated:
        if type(i) is not int:
            return None
    activated = ",".join(map(str, activated))
    return f'{{"activated":[{activated}],"kind":"RoundStart","t":{t}}}\n'


# the lines the engine writes, by kind: each formatter returns the line's
# text, or None when the line's keys or value types are not the engine's
_FORMATS = {
    "Look": _look,
    "Compute": _compute,
    "MoveBegin": _move("MoveBegin", "reach"),
    "MoveProgress": _move("MoveProgress", "pos"),
    "MoveEnd": _move("MoveEnd", "pos"),
    "Config": _config,
    "RoundStart": _round_start,
}


def _line_text(line):
    """``line`` as one line of trace text, its newline included.

    A line of a kind the engine writes, with the engine's keys and value
    types, is formatted directly; any other goes through ``_ENCODER``.  The
    text is the same either way.
    """
    if type(line) is dict:
        kind = line.get("kind")
        if type(kind) is str:
            fmt = _FORMATS.get(kind)
            if fmt is not None:
                text = fmt(line)
                if text is not None:
                    return text
    return _ENCODER.encode(line) + "\n"


def _line_no(text, i):
    return text.count("\n", 0, i) + 1


class Trace:
    """Ordered JSONL event log plus configuration snapshots: its ``lines``.

    ``Trace(lines)`` is the one constructor.  One line is one JSON object.
    ``dumps`` formats a line of the seven kinds the engine writes directly
    and sends any other line through ``json``, and ``parse`` decodes the
    whole text in one pass; either way the bytes are those of
    ``json.dumps(line, sort_keys=True, separators=(",", ":"))`` per line.
    """

    def __init__(self, lines):
        self.lines = lines
        self._formatted = {}  # Point -> its (x, y) strings

    def log(self, **kw):
        self.lines.append(kw)

    def _xy(self, p):
        """``p``'s (x, y) strings, formatted once per trace.

        Each line gets a fresh list of them: a caller may edit a logged line
        in place.
        """
        cache = self._formatted
        xy = cache.get(p)
        if xy is None:
            xy = cache[p] = (format_rat(p.x), format_rat(p.y))
        return xy

    def config_line(self, t, cfg):
        """Log the Config line of the Configuration ``cfg`` at instant t."""
        xy = self._xy
        entries = [[*xy(p), c] for p, c in cfg.entries]
        self.lines.append({"kind": "Config", "t": t, "entries": entries})

    def look(self, t, robot):
        self.lines.append({"kind": "Look", "t": t, "robot": robot})

    def compute(self, t, robot, act):
        self.lines.append(
            {
                "kind": "Compute",
                "t": t,
                "robot": robot,
                "color": act.color,
                "dest": [*self._xy(act.dest)],
                "exec": bool(act.inner_exec),
            }
        )

    def move_begin(self, t, robot, reach):
        self.lines.append(
            {"kind": "MoveBegin", "t": t, "robot": robot, "reach": [*self._xy(reach)]}
        )

    def move_progress(self, t, robot, pos):
        self.lines.append(
            {"kind": "MoveProgress", "t": t, "robot": robot, "pos": [*self._xy(pos)]}
        )

    def move_end(self, t, robot, pos):
        self.lines.append({"kind": "MoveEnd", "t": t, "robot": robot, "pos": [*self._xy(pos)]})

    def end(self, t, status):
        self.log(kind="End", t=t, status=status)

    def __getstate__(self):
        # a copy may be edited in place, so it re-parses rather than inherit
        # the TraceData the checkers stored on this trace
        state = dict(self.__dict__)
        state.pop("_trace_data", None)
        return state

    @collector_paused
    def dumps(self):
        return "".join([_line_text(line) for line in self.lines])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    @collector_paused
    def parse(text):
        """The Trace of JSONL ``text``, decoded in one pass.

        Each line holds one JSON object; blank lines, whitespace around a
        value and CRLF line ends are accepted.  Raises ValueError on anything
        else: a line that is not an object, two values on one line, one
        value spread over two lines, a truncated value, or one nested too
        deeply for the decoder.
        """
        scan = _DECODER.scan_once
        lines = []
        i, n = 0, len(text)
        while i < n:
            try:
                line, end = scan(text, i)
            except RecursionError:
                raise ValueError(f"trace line {_line_no(text, i)}: nested too deeply") from None
            except StopIteration:
                # a blank line or leading whitespace: skip to the next value
                j = WHITESPACE.match(text, i).end()
                if j == i:
                    raise json.JSONDecodeError("Expecting value", text, i) from None
                i = j
                continue
            nl = text.find("\n", i)
            if nl < 0:
                nl = n
            if end > nl:
                raise ValueError(f"trace line {_line_no(text, i)}: a value spans two lines")
            if end < nl and text[end:nl].strip(" \t\r"):
                raise ValueError(f"trace line {_line_no(text, i)}: more than one value")
            if type(line) is not dict:
                json_typed(line, dict, f"trace line {_line_no(text, i)}")
            lines.append(line)
            i = nl + 1
        if not lines or lines[0].get("kind") != "Header":
            raise ValueError("trace does not start with a Header line")
        return Trace(lines)

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"trace is not UTF-8: {exc}") from exc
        return Trace.parse(text)


def _header(scenario):
    h = scenario.to_json()
    h["kind"] = "Header"
    h["n"] = len(scenario.robots)
    h["fairness_bound"] = scenario.bound
    return h


def apply_move(origin, dest, fraction, delta):
    """Reached point of a non-rigid move truncated at ``fraction``.

    The adversary must grant at least min(delta, full distance); a fraction
    falling short is clamped up, exactly to distance delta when that point is
    rational and to the next 1/64 fraction above otherwise.
    """
    f, g = fraction.numerator, fraction.denominator
    if not 0 < f <= g:
        raise ValueError("fraction must be in (0, 1]")
    if dest == origin:
        return origin
    # with |dest - origin|**2 = n / d, delta**2 over it is rn / rd: the move
    # is within delta when rn / rd >= 1 and falls short when lam**2 < rn / rd,
    # each decided by cross-multiplying positive ints
    n, d = dist_sq_ints(origin, dest)
    a, b = delta.numerator, delta.denominator
    rn, rd = a * a * d, b * b * n
    if rd <= rn or f == g:
        return dest
    lam = fraction
    if f * f * rd < g * g * rn:
        lam = min_rat_ge_sqrt(Rat(rn, rd))
        if lam >= 1:
            return dest
    return toward(origin, dest, lam)


def memo_action(algorithm, cfg, pos, light):
    """``algorithm``'s action for the robot at ``pos`` with ``light`` on ``cfg``.

    Kept in ``cfg.memo``: robots that share a configuration, a position and a
    light compute the same action, so it is evaluated once.  The engine, each
    TraceData and each enumeration intern their own configurations and
    Shapes, so the checker re-derives every action and every hull
    independently of the engine, and each of them evaluates once per
    distinct (configuration, position, light) and computes the geometry
    once per distinct point set.
    """
    key = ("act", algorithm.id, pos, light)
    act = cfg.memo.get(key)
    if act is None:
        act = cfg.memo[key] = algorithm(cfg, pos, light)
    return act


# --------------------------------------------------------------------------
# Synchronous rounds
# --------------------------------------------------------------------------


def is_enabled(algorithm, cfg, entry):
    """Whether the robot with ``entry``, its (position, light) in ``cfg``, would act now.

    A robot is enabled when its action on ``cfg`` changes its light or its
    position (``Action.changes``); activating only robots that are not
    enabled leaves the configuration as it is.
    """
    p, c = entry
    return memo_action(algorithm, cfg, p, c).changes(p, c)


def enabled_ids(algorithm, cfg, row):
    """The robots of ``row`` that are enabled on its configuration ``cfg``, in index order."""
    return [i for i, entry in enumerate(row) if is_enabled(algorithm, cfg, entry)]


# the truncation of a move the adversary does not cut short
_WHOLE = Rat(1)


def ssync_round(algorithm, cfg, row, activated, fractions, delta, trace=None, t=0):
    """One atomic synchronous round over the activated set.

    ``row`` lists each robot's (position, light) entry in robot order and
    ``cfg`` is its configuration: all activated robots look at it, compute,
    and move together.  ``fractions`` maps robot index to the adversary
    truncation, a whole move for a robot it leaves out.  Returns the new
    row, or ``row`` itself when no activated robot changes its light or
    position.  An activated id that is not an int in 0..n-1 raises
    IllegalChoice, as in ``AsyncWorld.async_step``, before anything is
    logged or evaluated.
    """
    activated = list(activated)
    n = len(row)
    for i in activated:
        if type(i) is not int or not 0 <= i < n:
            raise IllegalChoice(f"round: robot id {i!r} outside 0..{n - 1}")
    activated = sorted(set(activated))
    if not activated:
        raise EmptyActivation("a round must activate at least one robot")
    new = list(row)
    if trace is not None:
        trace.log(kind="RoundStart", t=t, activated=activated)
    for i in activated:
        pos, light = row[i]
        act = memo_action(algorithm, cfg, pos, light)
        if trace is not None:
            trace.look(t, i)
            trace.compute(t, i, act)
        if act.dest != pos:
            pos = apply_move(pos, act.dest, fractions.get(i, _WHOLE), delta)
            if trace is not None:
                trace.move_begin(t, i, pos)
                trace.move_end(t, i, pos)
        new[i] = (pos, act.color)
    new = tuple(new)
    return row if new == row else new


def _run_sync(scenario, rng):
    """Round loop: a run ends at the first row where no robot is enabled.

    Each round draws its activated set first and evaluates only those
    robots; the others are scanned, up to the first enabled one, only when
    none of the activated robots is enabled, and all of them only for the
    forced activation of ``ssync-unfair``.  The draws made before an End
    change no trace, since nothing follows the End.
    """
    algorithm = get_algorithm(scenario.algorithm)
    cache = ConfigInterner()
    row = scenario.robots
    cfg = cache.get(row)
    trace = Trace([_header(scenario)])
    n = len(row)
    bound = scenario.bound
    fair = scenario.scheduler == "ssync"
    unfair = scenario.scheduler == "ssync-unfair"
    last_act = [0] * n
    ineffective_streak = 0
    t = 0
    trace.config_line(0, cfg)
    while True:
        if scenario.scheduler == "fsync":
            activated = list(range(n))
        else:
            # one draw per robot, in index order; a fair round adds the overdue
            activated = [
                i for i in range(n) if rng.random() < 0.5 or (fair and t - last_act[i] >= bound)
            ]
            if not activated:
                activated = [rng.randrange(n)]
        effective = any(is_enabled(algorithm, cfg, row[i]) for i in activated)
        if not effective and not any(
            is_enabled(algorithm, cfg, row[i]) for i in range(n) if i not in activated
        ):
            status = "gathered" if cfg.gathered() else "fixpoint"
            trace.end(t, status)
            return trace
        if t >= scenario.step_budget:
            trace.end(t, "budget")
            raise BudgetExhausted(trace)
        if unfair and not effective and ineffective_streak >= bound - 1:
            enab = enabled_ids(algorithm, cfg, row)
            activated = sorted({*activated, enab[rng.randrange(len(enab))]})
            effective = True
        fractions = {i: _pick_fraction(scenario.policy, rng) for i in activated}
        row = ssync_round(algorithm, cfg, row, activated, fractions, scenario.delta, trace, t)
        ineffective_streak = 0 if effective else ineffective_streak + 1
        for i in activated:
            last_act[i] = t
        t += 1
        before, cfg = cfg, cache.get(row)
        if cfg is not before:
            trace.config_line(t, cfg)


_FRACTIONS = (_WHOLE, Rat(3, 4), Rat(1, 2), Rat(1, 4))


def _pick_fraction(policy, rng):
    """Truncation the adversary grants a move under ``policy``.

    The policy's constant truncation in ``POLICIES``, or one drawn from
    ``_FRACTIONS`` for a policy that has none: only those draw a random
    number.
    """
    truncation = POLICIES[policy][1]
    if truncation is not None:
        return truncation
    return _FRACTIONS[rng.randrange(len(_FRACTIONS))]


# --------------------------------------------------------------------------
# Asynchronous event machine
# --------------------------------------------------------------------------

IDLE, OBSERVED, COMPUTED, MOVING = "idle", "observed", "computed", "moving"

# the one event each phase allows next
NEXT = {IDLE: "look", OBSERVED: "compute", COMPUTED: "move_begin", MOVING: "move_end"}


class _Robot:
    """One robot's settled state.

    ``pos`` and ``light`` are settled: ``pos`` stays the origin of a move
    until its MoveEnd, and ``light`` changes at the Compute; what the others
    observe of the robot is its entry in ``AsyncWorld.shown``.  ``dest`` is
    where a ``COMPUTED`` robot means to go and, from its MoveBegin, the point
    the adversary lets it reach; a ``MOVING`` robot was last shown at fraction
    ``mu`` of the way there, and its move began at ``event_t``.  An
    ``OBSERVED`` robot keeps in ``seen`` what its Look observed, the
    ``memo_action`` arguments of its Compute.
    """

    __slots__ = ("pos", "light", "phase", "event_t", "seen", "dest", "mu")

    def __init__(self, pos, light):
        self.pos = pos
        self.light = light
        self.phase = IDLE
        self.event_t = -1  # instant of the robot's latest phase event
        self.seen = None
        self.dest = None
        self.mu = None


class AsyncWorld:
    """Event-level asynchronous world driven by explicit adversary choices.

    ``shown`` holds each robot's shown ``(position, light)`` entry and
    ``visible`` is the configuration interned from them, which every robot
    observes at the current instant.  The bookkeeping the adversary and the
    legality checks read is kept up to date at the event that changes it; see
    the module docstring for its invariants.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.algorithm = get_algorithm(scenario.algorithm)
        self.delta = scenario.delta
        self.bound = scenario.bound
        self.cap = scenario.move_span_cap
        self.robots = [_Robot(p, c) for p, c in scenario.robots]
        n = len(self.robots)
        self.t = 0
        self.steps = 0
        self.ready = list(range(n))
        self.movers = []
        self.busy = 0
        self.stamps = dict.fromkeys(range(n), 0)
        self.shown = list(scenario.robots)
        self.cache = ConfigInterner()
        self.trace = Trace([_header(scenario)])
        self.visible = self.cache.get(tuple(self.shown))
        self.trace.config_line(0, self.visible)

    # -- legality ----------------------------------------------------------

    def next_event(self, rid):
        """The robot's one legal event, or None if it acted at this instant."""
        r = self.robots[rid]
        return None if r.event_t == self.t else NEXT[r.phase]

    # -- the single-step transition ---------------------------------------

    def async_step(self, choice):
        """Apply one adversary choice; raises IllegalChoice on a bad one.

        Every condition that can reject the choice is checked before anything
        changes, so a rejected choice leaves the clock, the step count, the
        robots, the bookkeeping and the trace as they were.  A choice starves
        a robot only if the most starved ready robot it does not serve is at
        the bound, and ``stamps`` lists that one first or, behind the robot
        served, second: each fairness scan stops at it.
        """
        if type(choice) is not tuple or not choice:
            raise IllegalChoice(f"choice {choice!r} is not a non-empty tuple")
        kind = choice[0]
        # an advance may carry progress and a MoveBegin a truncation; no
        # other choice has more than a kind and a robot
        if len(choice) > (3 if kind == "move_begin" else 2):
            raise IllegalChoice(f"{kind}: choice {choice!r} has trailing elements")
        steps = self.steps
        if steps >= self.scenario.step_budget:
            self.trace.end(self.t, "budget")
            raise BudgetExhausted(self.trace)
        t = self.t
        stamps = self.stamps
        if kind == "advance":
            for i in self.movers:
                if t - self.robots[i].event_t >= self.cap:
                    raise IllegalChoice("move span cap reached; move must end before advancing")
            for i, stamp in stamps.items():
                if steps - stamp >= self.bound:
                    raise Starved(f"fairness: robot {i} starved beyond bound")
                break
            progress = self._progress(choice[1] if len(choice) > 1 else None)
            self.steps = steps + 1
            self._advance(progress)
            return
        if len(choice) < 2:
            raise IllegalChoice(f"{kind}: the choice names no robot")
        rid = choice[1]
        if type(rid) is not int or not 0 <= rid < len(self.robots):
            raise IllegalChoice(f"{kind}: robot id {rid!r} outside 0..{len(self.robots) - 1}")
        r = self.robots[rid]
        if r.event_t == t or kind != NEXT[r.phase]:  # next_event(rid), read off r
            raise IllegalChoice(f"{kind} not legal for robot {rid} (phase {r.phase})")
        for i, stamp in stamps.items():
            if i != rid:
                if steps - stamp >= self.bound:
                    raise Starved(f"fairness: robot {i} starved beyond bound")
                break
        # each branch checks what is left of its choice, then applies it
        if kind == "look":
            r.seen = (self.visible, *self.shown[rid])
            r.phase = OBSERVED
            self.busy += 1
            self.trace.look(t, rid)
        elif kind == "compute":
            act = memo_action(self.algorithm, *r.seen)
            r.light = act.color
            r.seen = None
            self.trace.compute(t, rid, act)
            if act.dest == r.pos:
                r.phase = IDLE  # zero-distance cycle: Move omitted
                self.busy -= 1
            else:
                r.dest = act.dest
                r.phase = COMPUTED
        elif kind == "move_begin":
            frac = choice[2] if len(choice) > 2 else _WHOLE
            if not isinstance(frac, Rat) or not 0 < frac <= 1:
                raise IllegalChoice(f"move_begin: truncation {frac!r} is not a rational in (0,1]")
            r.dest = apply_move(r.pos, r.dest, frac, self.delta)
            r.mu = Rat(0)
            r.phase = MOVING
            insort(self.movers, rid)
            self.trace.move_begin(t, rid, r.dest)
        else:  # move_end
            r.pos = r.dest
            r.phase = IDLE
            self.busy -= 1
            self.movers.remove(rid)
            self.trace.move_end(t, rid, r.pos)
        self.steps = steps + 1
        r.event_t = t
        self.ready.remove(rid)
        del stamps[rid]

    def _progress(self, mus):
        """Checked progress fraction of every moving robot at the next instant.

        ``mus`` is None or maps ids of moving robots to chosen fractions; a
        moving robot without one goes half of its remaining way.
        """
        if mus is None:
            mus = {}
        elif type(mus) is not dict:
            raise IllegalChoice(f"progress {mus!r} is not a map of moving robots to fractions")
        progress = {}
        for i in self.movers:
            r = self.robots[i]
            mu = mus.get(i)
            if mu is None:
                mu = r.mu + (1 - r.mu) / 2
            if not isinstance(mu, Rat) or not r.mu < mu < 1:
                raise IllegalChoice(f"progress {mu!r} is not a rational in ({r.mu},1)")
            progress[i] = mu
        if mus and not mus.keys() <= progress.keys():
            idle = [i for i in mus if i not in progress]
            raise IllegalChoice(f"progress for robots {idle!r}, which are not moving")
        return progress

    def _advance(self, progress):
        """Start the next instant; ``progress`` is ``_progress``'s checked result.

        Only a robot that acted in the closing instant or is moving can show
        something new, so only those are visited, and the robots are scanned
        for the ones that acted only when some did.  Each robot that acted
        gets the stamp of the advance, the step counted last, which puts it
        behind every robot that did not.
        """
        self.t += 1
        robots, shown, stamps = self.robots, self.shown, self.stamps
        n = len(robots)
        changed = False
        if len(stamps) < n:
            stamp = self.steps - 1
            for i in [i for i in range(n) if i not in stamps]:
                stamps[i] = stamp
                r = robots[i]
                if r.phase != MOVING:  # a mover's light was shown before its MoveBegin
                    entry = (r.pos, r.light)
                    if entry != shown[i]:
                        shown[i] = entry
                        changed = True
            self.ready = list(range(n))
        # a mover's progress point advances strictly, so it always shows anew
        for i in self.movers:
            r = robots[i]
            r.mu = progress[i]
            pos = toward(r.pos, r.dest, r.mu)
            shown[i] = (pos, r.light)
            changed = True
            self.trace.move_progress(self.t, i, pos)
        if changed:
            visible = self.cache.get(tuple(shown))
            if visible is not self.visible:
                self.visible = visible
                self.trace.config_line(self.t, visible)

    # -- termination -------------------------------------------------------

    def is_terminal(self):
        """All robots idle and none enabled on the settled configuration."""
        if self.busy:
            return False
        row = tuple((r.pos, r.light) for r in self.robots)
        cfg = self.cache.get(row)
        return not any(is_enabled(self.algorithm, cfg, entry) for entry in row)


class _Policy:
    """An adversary: ``step(world)`` returns its next choice for ``world``.

    A policy only picks a robot or advances the clock; ``event`` builds the
    robot's choice.  ``policy`` is the scenario's policy name, which sets the
    truncation of every move (``_pick_fraction``).
    """

    def __init__(self, rng, policy):
        self.rng = rng
        self.policy = policy

    def event(self, world, i):
        """Robot ``i``'s choice for its one legal event, or None if it has none."""
        kind = world.next_event(i)
        return None if kind is None else self._choice(kind, i)

    def _choice(self, kind, i):
        """Robot ``i``'s choice of the event ``kind``, a MoveBegin with its truncation."""
        if kind == "move_begin":
            return (kind, i, _pick_fraction(self.policy, self.rng))
        return (kind, i)


class RandomAsyncPolicy(_Policy):
    """Seeded uniform adversary over legal choices with forced fairness.

    Every robot it serves is ready, so its event is the one ``NEXT`` allows
    the robot's phase.
    """

    MUS = tuple(Rat(j, 8) for j in (1, 2, 3, 5, 7))

    def step(self, world):
        rs = world.robots
        # serve the most starved ready robot, the first in ``stamps``, once it
        # nears the fairness bound; the margin covers a full drain of
        # simultaneously starved ones
        for oldest, stamp in world.stamps.items():
            if world.steps - stamp >= world.bound - 2 * len(rs) - 2:
                return self._choice(NEXT[rs[oldest].phase], oldest)
            break
        # movers at the span cap must end before the clock advances again
        t = world.t
        movers = world.movers
        for i in movers:
            r = rs[i]
            if r.event_t != t and t - r.event_t >= world.cap - 1:
                return ("move_end", i)
        rng = self.rng
        if not world.ready or rng.random() < 0.3:
            if not movers:
                return ("advance", None)
            # every mover goes a random share of the rest of its way
            mus = {i: rs[i].mu + (1 - rs[i].mu) * rng.choice(self.MUS) for i in movers}
            return ("advance", mus)
        i = rng.choice(world.ready)
        return self._choice(NEXT[rs[i].phase], i)


class RoundRobinAsyncPolicy(_Policy):
    """One robot completes a full rigid cycle at a time, in index order."""

    current = 0  # the robot whose cycle runs; every other robot is idle
    started = False  # whether it has made the Look of that cycle

    def step(self, world):
        if self.started and world.robots[self.current].phase == IDLE:
            self.current = (self.current + 1) % len(world.robots)
            self.started = False
        choice = self.event(world, self.current)
        if choice is None:
            return ("advance", None)
        self.started = True
        return choice


class SsyncEmbeddedPolicy(_Policy):
    """Lockstep batches: everyone looks, then computes, then moves."""

    def step(self, world):
        rs = world.robots
        by_phase = {IDLE: [], OBSERVED: [], COMPUTED: [], MOVING: []}
        for i, r in enumerate(rs):
            by_phase[r.phase].append(i)
        idle, observed = by_phase[IDLE], by_phase[OBSERVED]
        # robots join the Look batch only at the instant it began
        batch_open = not observed or rs[observed[0]].event_t == world.t
        if idle and not by_phase[COMPUTED] and not by_phase[MOVING] and batch_open:
            if all(world.next_event(i) for i in idle):
                return self.event(world, idle[0])
            if not observed:
                return ("advance", None)
        # with every robot idle the branch above returned: some robot is busy
        busy = observed or by_phase[COMPUTED] or by_phase[MOVING]
        return self.event(world, busy[0]) or ("advance", None)


# adversary policy name -> (asynchronous adversary class, the truncation it
# grants every move, or None for a policy that draws one per move)
POLICIES = {
    "random": (RandomAsyncPolicy, None),
    "rigid": (RandomAsyncPolicy, Rat(1)),
    "stingy": (RandomAsyncPolicy, Rat(1, 1024)),
    "round-robin": (RoundRobinAsyncPolicy, Rat(1)),
    "ssync-embedded": (SsyncEmbeddedPolicy, None),
    "ssync-stingy": (SsyncEmbeddedPolicy, Rat(1, 1024)),
}


def _make_policy(scenario, rng):
    return POLICIES[scenario.policy][0](rng, scenario.policy)


def _run_async(scenario, rng):
    world = AsyncWorld(scenario)
    step = _make_policy(scenario, rng).step
    apply = world.async_step
    # only a Compute or a MoveEnd can make the world terminal: an advance
    # changes no phase and no settled entry, a Look leaves its robot OBSERVED
    # and a MoveBegin leaves it MOVING; and no world with a busy robot is
    done = world.is_terminal()
    try:
        while not done:
            choice = step(world)
            apply(choice)
            done = not world.busy and choice[0] in ("compute", "move_end") and world.is_terminal()
    except Starved as exc:
        raise ScenarioError(
            f"adversary policy {scenario.policy} cannot keep fairness bound {world.bound}: {exc}"
        ) from exc
    world._advance({})
    status = "gathered" if world.visible.gathered() else "fixpoint"
    world.trace.end(world.t, status)
    return world.trace


@collector_paused
def run(scenario):
    """Execute a scenario to a deterministic trace.

    Terminates at a fixpoint (gathered or otherwise) or raises
    BudgetExhausted carrying the partial trace, or
    ScenarioError when the scenario's adversary policy cannot keep its
    asynchronous fairness bound.  Runs with the cyclic collector paused.
    """
    rng = random.Random(scenario.seed)
    if scenario.scheduler == "async":
        return _run_async(scenario, rng)
    return _run_sync(scenario, rng)
