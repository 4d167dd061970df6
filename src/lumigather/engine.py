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
returns it, and ``async_step`` checks every choice against it.  The adversary
policies share one base, ``_Policy``: each only picks a robot or advances the
clock, and ``_Policy.event`` builds the robot's choice, with the truncation of
a MoveBegin.

No adversary step scans every robot.  ``AsyncWorld`` updates its bookkeeping
at the event that changes it, and after every step these hold:

* ``ready`` lists the robots that have not acted at the current instant, in
  index order;
* ``movers`` lists the ``MOVING`` robots, in index order;
* ``busy`` counts the robots that are not ``IDLE``;
* ``stamps`` maps each ready robot to its stamp against ``tick``, a counter
  that every robot event and every advance bumps, and lists them oldest stamp
  first, ties in index order.  A ready robot's starvation, the steps since it
  was last served, is ``tick`` minus its stamp; a robot that acted at this
  instant has none, and the advance that closes the instant gives it a new
  stamp, behind every other robot.  So the first entry is the most starved
  robot, the first in index order among equals.

An advance visits only the robots that acted in the closing instant, which
``acted`` lists, and the movers, since no other robot can show anything new.
When none of them changes what it shows, the new instant's Config line is
that of the current ``visible`` configuration, which is not interned again.
"""

import json
import random
from bisect import insort
from dataclasses import dataclass
from json.decoder import WHITESPACE
from json.encoder import c_make_encoder, encode_basestring_ascii

from .algorithms import get_algorithm
from .configuration import ConfigInterner, Snapshot
from .geometry import Point, dist_sq_ints, is_on_lds, toward
from .rational import Rat, format_rat, min_rat_ge_sqrt, parse_rat

SCHEDULERS = ("fsync", "ssync", "ssync-unfair", "async")
POLICIES = ("random", "rigid", "stingy", "round-robin", "ssync-embedded", "ssync-stingy")


class ScenarioError(ValueError):
    pass


class EmptyActivation(ValueError):
    pass


class IllegalChoice(ValueError):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class BudgetExhausted(RuntimeError):
    def __init__(self, final_config, trace):
        super().__init__("step budget exhausted")
        self.final_config = final_config
        self.trace = trace


_JSON_TYPES = {int: "integer", str: "string", list: "array", dict: "object"}


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
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return Scenario.from_json(data)


# a trace line is compact JSON with sorted keys
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


def _line_encoder():
    """``_ENCODER.encode`` for many lines, as a function of a line.

    ``JSONEncoder.encode`` builds a new C encoder for every call; this builds
    the one ``encode`` would build and reuses it, with fresh circular
    reference markers per trace.  Without the C accelerator it is
    ``_ENCODER.encode`` itself, as in ``json``.
    """
    if c_make_encoder is None:
        return _ENCODER.encode
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan: what ``_ENCODER.iterencode`` passes
    encode = c_make_encoder(
        {}, _ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, True
    )
    return lambda line: "".join(encode(line, 0))


def _line_no(text, i):
    return text.count("\n", 0, i) + 1


class Trace:
    """Ordered JSONL event log plus configuration snapshots.

    One line is one JSON object.  ``dumps`` encodes every line of a trace
    with one encoder and ``parse`` decodes the whole text in one pass; the
    bytes are those of ``json.dumps(line, sort_keys=True,
    separators=(",", ":"))`` per line.
    """

    # Point -> its (x, y) strings; made on first use, so that traces built
    # with ``Trace.__new__`` (parsed traces, checker copies) can log too
    _formatted = None

    def __init__(self, header):
        self.lines = [dict(header, kind="Header")]
        self.status = None
        self.end_time = None

    def log(self, **kw):
        self.lines.append(kw)

    def _xy(self, p):
        """``p``'s (x, y) strings, formatted once per trace.

        Each line gets a fresh list of them: a caller may edit a logged line
        in place.
        """
        cache = self._formatted
        if cache is None:
            cache = self._formatted = {}
        xy = cache.get(p)
        if xy is None:
            xy = cache[p] = (format_rat(p.x), format_rat(p.y))
        return xy

    def config_line(self, t, cfg):
        """Log the Config line of the Configuration ``cfg`` at instant t.

        Its rows are formatted once per distinct configuration and kept in
        ``cfg.memo``; each line gets fresh lists of them.
        """
        rows = cfg.memo.get("rows")
        if rows is None:
            xy = self._xy
            rows = cfg.memo["rows"] = tuple((*xy(p), c) for p, c in cfg.entries)
        self.log(kind="Config", t=t, entries=[[*r] for r in rows])

    def compute(self, t, robot, act):
        self.log(
            kind="Compute",
            t=t,
            robot=robot,
            color=act.color,
            dest=[*self._xy(act.dest)],
            exec=bool(act.inner_exec),
        )

    def move_begin(self, t, robot, reach):
        self.log(kind="MoveBegin", t=t, robot=robot, reach=[*self._xy(reach)])

    def move_progress(self, t, robot, pos):
        self.log(kind="MoveProgress", t=t, robot=robot, pos=[*self._xy(pos)])

    def move_end(self, t, robot, pos):
        self.log(kind="MoveEnd", t=t, robot=robot, pos=[*self._xy(pos)])

    def end(self, t, status):
        self.status = status
        self.end_time = t
        self.log(kind="End", t=t, status=status)

    def __getstate__(self):
        # a copy may be edited in place, so it re-parses rather than inherit
        # the TraceData the checkers stored on this trace
        state = dict(self.__dict__)
        state.pop("_trace_data", None)
        return state

    def dumps(self):
        encode = _line_encoder()
        return "".join([encode(line) + "\n" for line in self.lines])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def parse(text):
        """The Trace of JSONL ``text``, decoded in one pass.

        Each line holds one JSON object; blank lines, whitespace around a
        value and CRLF line ends are accepted.  Raises ValueError on anything
        else: a line that is not an object, two values on one line, one
        value spread over two lines, or a truncated value.  ``status`` and
        ``end_time`` are read from the first End line, as ``TraceData`` and
        ``replay`` read them.
        """
        scan = _DECODER.scan_once
        lines = []
        i, n = 0, len(text)
        while i < n:
            try:
                line, end = scan(text, i)
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
        tr = Trace.__new__(Trace)
        tr.lines = lines
        tr.status = None
        tr.end_time = None
        for ln in lines:
            if ln.get("kind") == "End":
                tr.status = ln.get("status")
                tr.end_time = ln.get("t")
                break
        return tr

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return Trace.parse(fh.read())


def _header(scenario):
    h = scenario.to_json()
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
    TraceData and each enumeration intern their own configurations, so the
    checker re-derives every action independently of the engine, and each of
    them evaluates once per distinct (configuration, position, light).
    """
    key = ("act", algorithm.id, pos, light)
    act = cfg.memo.get(key)
    if act is None:
        act = cfg.memo[key] = algorithm(Snapshot(cfg, pos, light))
    return act


# --------------------------------------------------------------------------
# Synchronous rounds
# --------------------------------------------------------------------------


class SyncWorld:
    """Round-based world: per-robot positions and lights, atomic rounds.

    A round builds a new world, so a world is never changed after it is
    built and its configuration is computed once.
    """

    def __init__(self, positions, lights, cache=None):
        self.positions = list(positions)
        self.lights = list(lights)
        self.cache = cache or ConfigInterner()
        self._config = None

    def config(self):
        if self._config is None:
            self._config = self.cache.get(tuple(zip(self.positions, self.lights)))
        return self._config


def enabled_ids(world, algorithm):
    """The robots of ``world`` that would act if activated now, in index order.

    A robot is enabled when its action on the world's configuration changes
    its light or its position (``Action.changes``); activating only robots
    that are not enabled leaves the world as it is.
    """
    cfg = world.config()
    return [
        i
        for i, (p, c) in enumerate(zip(world.positions, world.lights))
        if memo_action(algorithm, cfg, p, c).changes(p, c)
    ]


def ssync_round(world, algorithm, activated, fractions, delta, trace=None, t=0):
    """One atomic synchronous round over the activated set.

    All activated robots look at the same configuration, compute, and move
    together; ``fractions`` maps robot index to the adversary truncation.
    Returns the new SyncWorld.
    """
    activated = sorted(set(activated))
    if not activated:
        raise EmptyActivation("a round must activate at least one robot")
    cfg = world.config()
    acts = {i: memo_action(algorithm, cfg, world.positions[i], world.lights[i]) for i in activated}
    positions = list(world.positions)
    lights = list(world.lights)
    if trace is not None:
        trace.log(kind="RoundStart", t=t, activated=list(activated))
    for i in activated:
        act = acts[i]
        origin = world.positions[i]
        if trace is not None:
            trace.log(kind="Look", t=t, robot=i)
            trace.compute(t, i, act)
        lights[i] = act.color
        if act.dest != origin:
            reached = apply_move(origin, act.dest, fractions.get(i, Rat(1)), delta)
            positions[i] = reached
            if trace is not None:
                trace.move_begin(t, i, reached)
                trace.move_end(t, i, reached)
    return SyncWorld(positions, lights, world.cache)


def _run_sync(scenario, rng):
    algorithm = get_algorithm(scenario.algorithm)
    world = SyncWorld([p for p, _ in scenario.robots], [c for _, c in scenario.robots])
    trace = Trace(_header(scenario))
    n = len(scenario.robots)
    bound = scenario.bound
    last_act = [0] * n
    ineffective_streak = 0
    t = 0
    trace.config_line(0, world.config())
    while True:
        enab = enabled_ids(world, algorithm)
        if not enab:
            status = "gathered" if world.config().gathered() else "fixpoint"
            trace.end(t, status)
            return trace
        if t >= scenario.step_budget:
            trace.end(t, "budget")
            raise BudgetExhausted(world.config(), trace)
        if scenario.scheduler == "fsync":
            activated = list(range(n))
        elif scenario.scheduler == "ssync":
            activated = [i for i in range(n) if rng.random() < 0.5]
            for i in range(n):
                if t - last_act[i] >= bound and i not in activated:
                    activated.append(i)
            if not activated:
                activated = [rng.randrange(n)]
        else:  # ssync-unfair
            activated = [i for i in range(n) if rng.random() < 0.5]
            if not activated:
                activated = [rng.randrange(n)]
            if ineffective_streak >= bound - 1 and not (set(activated) & set(enab)):
                activated.append(enab[rng.randrange(len(enab))])
        activated = sorted(set(activated))
        fractions = {i: _pick_fraction(scenario.policy, rng) for i in activated}
        world = ssync_round(world, algorithm, activated, fractions, scenario.delta, trace, t)
        if set(activated) & set(enab):
            ineffective_streak = 0
        else:
            ineffective_streak += 1
        for i in activated:
            last_act[i] = t
        t += 1
        trace.config_line(t, world.config())


_FRACTIONS = (Rat(1), Rat(3, 4), Rat(1, 2), Rat(1, 4))


def _pick_fraction(policy, rng):
    """Truncation the adversary grants a move under ``policy``.

    Only the drawing policies (``random``, ``ssync-embedded``) consume a
    random number; the others are constant.
    """
    if policy in ("stingy", "ssync-stingy"):
        return Rat(1, 1024)
    if policy in ("rigid", "round-robin"):
        return Rat(1)
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
    ``mu`` of the way there, and its move began at ``acted_t``.
    """

    __slots__ = ("pos", "light", "phase", "acted_t", "snapshot", "dest", "mu")

    def __init__(self, pos, light):
        self.pos = pos
        self.light = light
        self.phase = IDLE
        self.acted_t = -1  # instant of the robot's latest phase event
        self.snapshot = None
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
        self.acted = []  # the robots that acted at this instant, in event order
        self.movers = []
        self.busy = 0
        self.tick = 0
        self.stamps = dict.fromkeys(range(n), 0)
        self.shown = list(scenario.robots)
        self.cache = ConfigInterner()
        self.trace = Trace(_header(scenario))
        self.visible = self.cache.get(tuple(self.shown))
        self.trace.config_line(0, self.visible)

    def observe(self, rid):
        """Snapshot robot ``rid`` would take now (own light included)."""
        return Snapshot(self.visible, *self.shown[rid])

    def starve(self, rid):
        """Robot events and advances since ``rid`` was last served; 0 once it acted now."""
        stamp = self.stamps.get(rid)
        return 0 if stamp is None else self.tick - stamp

    # -- legality ----------------------------------------------------------

    def next_event(self, rid):
        """The robot's one legal event, or None if it acted at this instant."""
        r = self.robots[rid]
        return None if r.acted_t == self.t else NEXT[r.phase]

    def _fairness_violation(self, serving):
        """The most starved ready robot other than ``serving``, if at the bound.

        ``stamps`` lists the ready robots most starved first, so only its
        first two entries can be that robot.
        """
        for i, stamp in self.stamps.items():
            if i != serving:
                return i if self.tick - stamp >= self.bound else None
        return None

    # -- the single-step transition ---------------------------------------

    def async_step(self, choice):
        """Apply one adversary choice; raises IllegalChoice on a bad one.

        Every condition that can reject the choice is checked before anything
        changes, so a rejected choice leaves the clock, the step count, the
        robots, the bookkeeping and the trace as they were.
        """
        if type(choice) is not tuple or not choice:
            raise IllegalChoice(f"choice {choice!r} is not a non-empty tuple")
        kind = choice[0]
        if self.steps >= self.scenario.step_budget:
            self.trace.end(self.t, "budget")
            raise BudgetExhausted(self.visible, self.trace)
        if kind == "advance":
            t = self.t
            for i in self.movers:
                if t - self.robots[i].acted_t >= self.cap:
                    raise IllegalChoice("move span cap reached; move must end before advancing")
            starved = self._fairness_violation(None)
            if starved is not None:
                raise IllegalChoice(f"fairness: robot {starved} starved beyond bound")
            progress = self._progress(choice[1] if len(choice) > 1 else None)
            self.steps += 1
            self._advance(progress)
            return
        if len(choice) < 2:
            raise IllegalChoice(f"{kind}: the choice names no robot")
        rid = choice[1]
        if type(rid) is not int or not 0 <= rid < len(self.robots):
            raise IllegalChoice(f"{kind}: robot id {rid!r} outside 0..{len(self.robots) - 1}")
        r = self.robots[rid]
        t = self.t
        event = self.next_event(rid)
        if event is None or kind != event:
            raise IllegalChoice(f"{kind} not legal for robot {rid} (phase {r.phase})")
        starved = self._fairness_violation(rid)
        if starved is not None:
            raise IllegalChoice(f"fairness: robot {starved} starved beyond bound")
        if kind == "compute":
            snap = r.snapshot
            act = memo_action(self.algorithm, snap.config, snap.own_pos, snap.own_light)
        elif kind == "move_begin":
            frac = choice[2] if len(choice) > 2 else Rat(1)
            if not isinstance(frac, Rat) or not 0 < frac <= 1:
                raise IllegalChoice(f"move_begin: truncation {frac!r} is not a rational in (0,1]")
            reach = apply_move(r.pos, r.dest, frac, self.delta)
        self.steps += 1
        if kind == "look":
            r.snapshot = self.observe(rid)
            r.phase = OBSERVED
            self.busy += 1
            self.trace.log(kind="Look", t=t, robot=rid)
        elif kind == "compute":
            r.light = act.color
            r.snapshot = None
            self.trace.compute(t, rid, act)
            if act.dest == r.pos:
                r.phase = IDLE  # zero-distance cycle: Move omitted
                self.busy -= 1
            else:
                r.dest = act.dest
                r.phase = COMPUTED
        elif kind == "move_begin":
            r.dest = reach
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
        r.acted_t = t
        self.ready.remove(rid)
        del self.stamps[rid]
        self.acted.append(rid)
        self.tick += 1

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
        something new, so only those are visited.  Each robot that acted gets
        the new stamp, behind every robot that did not.
        """
        self.t += 1
        stamp = self.tick
        self.tick += 1
        robots, shown, stamps = self.robots, self.shown, self.stamps
        changed = False
        self.acted.sort()
        for i in self.acted:
            stamps[i] = stamp
            r = robots[i]
            if r.phase != MOVING:  # a mover's light was shown before its MoveBegin
                entry = (r.pos, r.light)
                if entry != shown[i]:
                    shown[i] = entry
                    changed = True
        # a mover's progress point advances strictly, so it always shows anew
        for i in self.movers:
            r = robots[i]
            r.mu = progress[i]
            pos = toward(r.pos, r.dest, r.mu)
            shown[i] = (pos, r.light)
            changed = True
            self.trace.move_progress(self.t, i, pos)
        self.acted = []
        self.ready = list(range(len(robots)))
        if changed:
            self.visible = self.cache.get(tuple(shown))
        self.trace.config_line(self.t, self.visible)

    # -- termination -------------------------------------------------------

    def is_terminal(self):
        """All robots idle and none enabled on the settled configuration."""
        if self.busy:
            return False
        cfg = self.cache.get(tuple((r.pos, r.light) for r in self.robots))
        alg = self.algorithm
        return not any(
            memo_action(alg, cfg, r.pos, r.light).changes(r.pos, r.light) for r in self.robots
        )


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
        if kind == "move_begin":
            return (kind, i, _pick_fraction(self.policy, self.rng))
        return None if kind is None else (kind, i)


class RandomAsyncPolicy(_Policy):
    """Seeded uniform adversary over legal choices with forced fairness."""

    MUS = tuple(Rat(j, 8) for j in (1, 2, 3, 5, 7))

    def step(self, world):
        rs = world.robots
        # serve the most starved ready robot, the first in ``stamps``, once it
        # nears the fairness bound; the margin covers a full drain of
        # simultaneously starved ones
        oldest = next(iter(world.stamps), None)
        if oldest is not None and world.starve(oldest) >= world.bound - 2 * len(rs) - 2:
            return self.event(world, oldest)
        # movers at the span cap must end before the clock advances again
        t = world.t
        for i in world.movers:
            r = rs[i]
            if r.acted_t != t and t - r.acted_t >= world.cap - 1:
                return self.event(world, i)
        rng = self.rng
        if not world.ready or rng.random() < 0.3:
            # every mover goes a random share of the rest of its way
            mus = {i: rs[i].mu + (1 - rs[i].mu) * rng.choice(self.MUS) for i in world.movers}
            return ("advance", mus)
        return self.event(world, rng.choice(world.ready))


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
        batch_open = not observed or rs[observed[0]].acted_t == world.t
        if idle and not by_phase[COMPUTED] and not by_phase[MOVING] and batch_open:
            if all(world.next_event(i) for i in idle):
                return self.event(world, idle[0])
            if not observed:
                return ("advance", None)
        for phase in (OBSERVED, COMPUTED, MOVING):
            if by_phase[phase]:
                return self.event(world, by_phase[phase][0]) or ("advance", None)
        return ("advance", None)


_POLICY_CLASSES = {
    "random": RandomAsyncPolicy,
    "stingy": RandomAsyncPolicy,
    "rigid": RandomAsyncPolicy,
    "round-robin": RoundRobinAsyncPolicy,
    "ssync-embedded": SsyncEmbeddedPolicy,
    "ssync-stingy": SsyncEmbeddedPolicy,
}


def _make_policy(scenario, rng):
    return _POLICY_CLASSES[scenario.policy](rng, scenario.policy)


def _run_async(scenario, rng):
    world = AsyncWorld(scenario)
    policy = _make_policy(scenario, rng)
    # only a Compute or a MoveEnd can make the world terminal: an advance
    # changes no phase and no settled entry, a Look leaves its robot OBSERVED
    # and a MoveBegin leaves it MOVING
    done = world.is_terminal()
    while not done:
        choice = policy.step(world)
        world.async_step(choice)
        done = choice[0] in ("compute", "move_end") and world.is_terminal()
    world._advance({})
    status = "gathered" if world.visible.gathered() else "fixpoint"
    world.trace.end(world.t, status)
    return world.trace


def run(scenario):
    """Execute a scenario to a deterministic trace.

    Terminates at a fixpoint (gathered or otherwise) or raises
    BudgetExhausted carrying the final configuration and partial trace.
    """
    rng = random.Random(scenario.seed)
    if scenario.scheduler == "async":
        return _run_async(scenario, rng)
    return _run_sync(scenario, rng)
