"""Execution engine: FSYNC/SSYNC (fair and unfair) rounds and ASYNC events.

Timing model for ASYNC runs: all phase starts happen at integer times.  A
Compute at time t is observable from t+1 (a Look at t still reads the former
color).  A movement begun at t_B and ended at t_E >= t_B + 1 is observed at
the origin up to t_B, at adversary-chosen strictly advancing interior points
during [t_B+1, t_E], and at the reached point from t_E + 1.  Within one run
everything is a deterministic function of (scenario, seed).

The engine keeps only the current instant.  Each robot stores what the others
observe of it now, ``shown_pos`` and ``shown_light``, and only the clock's
advance sets them: to the new progress point for a robot that is moving, to
its position for any other robot, and to its light for every robot.  No event
of an instant touches them, which is exactly the rule above: a Compute at t
shows from t+1, a MoveBegin at t shows the origin, and a MoveEnd at t shows
the progress point of t until t+1.  The checker re-derives the same rule from
the logged events independently.

A robot performs at most one phase event (Look, Compute, MoveBegin or
MoveEnd) per instant: each event's timing guard fails at the instant of the
robot's own previous event and holds at every later one.  So a robot that has
not acted at the current instant has exactly one legal action, the one its
phase allows next, and one that has acted has none.
"""

import json
import random
from dataclasses import dataclass

from .algorithms import get_algorithm
from .configuration import ConfigInterner, Snapshot
from .geometry import Point, dist_sq, is_on_lds
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
        try:
            robots = tuple(
                (Point(parse_rat(r["x"]), parse_rat(r["y"])), str(r["color"]))
                for r in data["robots"]
            )
            adversary = data.get("adversary", {})
            if not isinstance(adversary, dict):
                raise ScenarioError(f"adversary must be an object, not {adversary!r}")
            return Scenario(
                robots=robots,
                delta=parse_rat(data["delta"]),
                scheduler=str(data["scheduler"]),
                algorithm=str(data["algorithm"]),
                policy=str(adversary.get("policy", "random")),
                seed=int(adversary.get("seed", 0)),
                step_budget=int(data.get("step_budget", 100000)),
                fairness_bound=int(data.get("fairness_bound", 0)),
                move_span_cap=int(data.get("move_span_cap", 16)),
            )
        except ScenarioError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc

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


# one encoder for every line: json.dumps with non-default arguments builds a
# new one per call
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Trace:
    """Ordered JSONL event log plus configuration snapshots."""

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

    def config_line(self, t, entries):
        xy = self._xy
        self.log(kind="Config", t=t, entries=[[*xy(p), c] for p, c in entries])

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

    @property
    def header(self):
        return self.lines[0]

    def __getstate__(self):
        # a copy may be edited in place, so it re-parses rather than inherit
        # the TraceData the checkers stored on this trace
        state = dict(self.__dict__)
        state.pop("_trace_data", None)
        return state

    def dumps(self):
        return "".join(_dump(line) + "\n" for line in self.lines)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def parse(text):
        lines = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
        for i, ln in enumerate(lines):
            if not isinstance(ln, dict):
                raise ValueError(f"trace line {i + 1} is not a JSON object")
        if not lines or lines[0].get("kind") != "Header":
            raise ValueError("trace does not start with a Header line")
        tr = Trace.__new__(Trace)
        tr.lines = lines
        tr.status = None
        tr.end_time = None
        for ln in reversed(lines):
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
    if not (0 < fraction <= 1):
        raise ValueError("fraction must be in (0, 1]")
    if dest == origin:
        return origin
    d2 = dist_sq(origin, dest)
    dd = delta * delta
    if d2 <= dd or fraction == 1:
        return dest
    lam = fraction
    if lam * lam * d2 < dd:
        lam = min_rat_ge_sqrt(dd / d2)
        if lam >= 1:
            return dest
    return Point(origin.x + lam * (dest.x - origin.x), origin.y + lam * (dest.y - origin.y))


def memo_action(algorithm, cfg, pos, light):
    """``algorithm``'s action for the robot at ``pos`` with ``light`` on ``cfg``.

    Kept in ``cfg.memo``: robots that share a configuration, a position and a
    light compute the same action, so it is evaluated once.  Only the engine's
    own interned configurations carry these entries; the checker builds its
    own and re-derives every action.
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

    @staticmethod
    def from_scenario(scenario):
        return SyncWorld([p for p, _ in scenario.robots], [c for _, c in scenario.robots])

    def entries(self):
        """The (position, light) entries in robot order."""
        return tuple(zip(self.positions, self.lights))

    def config(self):
        if self._config is None:
            self._config = self.cache.get(self.entries())
        return self._config

    def action(self, algorithm, i):
        return memo_action(algorithm, self.config(), self.positions[i], self.lights[i])


def enabled(world, algorithm, i):
    """Whether activating robot i now would change its color or position."""
    act = world.action(algorithm, i)
    return act.color != world.lights[i] or act.dest != world.positions[i]


def enabled_ids(world, algorithm):
    return [i for i in range(len(world.positions)) if enabled(world, algorithm, i)]


def ssync_round(world, algorithm, activated, fractions, delta, trace=None, t=0):
    """One atomic synchronous round over the activated set.

    All activated robots look at the same configuration, compute, and move
    together; ``fractions`` maps robot index to the adversary truncation.
    Returns the new SyncWorld.
    """
    activated = sorted(set(activated))
    if not activated:
        raise EmptyActivation("a round must activate at least one robot")
    acts = {i: world.action(algorithm, i) for i in activated}
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
    world = SyncWorld.from_scenario(scenario)
    trace = Trace(_header(scenario))
    n = len(scenario.robots)
    bound = scenario.bound
    last_act = [0] * n
    ineffective_streak = 0
    t = 0
    trace.config_line(0, world.config().entries)
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
        trace.config_line(t, world.config().entries)


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
    """One robot: its settled state and what the others observe of it now.

    ``pos`` and ``light`` are settled: ``pos`` stays the origin of a move
    until its MoveEnd, and ``light`` changes at the Compute.  ``shown_pos``
    and ``shown_light`` are what every Look reads; only ``AsyncWorld._advance``
    sets them (see the module docstring).  ``dest`` is where a ``COMPUTED``
    robot means to go and, from its MoveBegin, the point the adversary lets it
    reach; a ``MOVING`` robot was last shown at fraction ``mu`` of the way
    there, and its move began at ``acted_t``.
    """

    __slots__ = (
        "pos",
        "light",
        "shown_pos",
        "shown_light",
        "phase",
        "acted_t",
        "snapshot",
        "dest",
        "mu",
        "starve",
    )

    def __init__(self, pos, light):
        self.pos = self.shown_pos = pos
        self.light = self.shown_light = light
        self.phase = IDLE
        self.acted_t = -1  # instant of the robot's latest phase event
        self.snapshot = None
        self.dest = None
        self.mu = None
        self.starve = 0


class AsyncWorld:
    """Event-level asynchronous world driven by explicit adversary choices.

    ``visible`` is the configuration every robot observes at the current
    instant, interned from the robots' shown entries.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.algorithm = get_algorithm(scenario.algorithm)
        self.delta = scenario.delta
        self.bound = scenario.bound
        self.cap = scenario.move_span_cap
        self.robots = [_Robot(p, c) for p, c in scenario.robots]
        self.t = 0
        self.steps = 0
        self.cache = ConfigInterner()
        self.trace = Trace(_header(scenario))
        self._show()

    def _show(self):
        """Intern what the robots show now and log it as the instant's Config line."""
        self.visible = self.cache.get(tuple((r.shown_pos, r.shown_light) for r in self.robots))
        self.trace.config_line(self.t, self.visible.entries)

    def observe(self, rid):
        """Snapshot robot ``rid`` would take now (own light included)."""
        r = self.robots[rid]
        return Snapshot(self.visible, r.shown_pos, r.shown_light)

    # -- legality ----------------------------------------------------------

    def legal_actions(self, rid):
        """The robot's next phase event, or nothing if it acted at this instant."""
        r = self.robots[rid]
        return [] if r.acted_t == self.t else [NEXT[r.phase]]

    def _fairness_violation(self, serving):
        t = self.t
        bound = self.bound
        for i, r in enumerate(self.robots):
            if r.starve >= bound and r.acted_t != t and i != serving:
                return i
        return None

    # -- the single-step transition ---------------------------------------

    def async_step(self, choice):
        """Apply one adversary choice; raises IllegalChoice on a bad one.

        Every condition that can reject the choice is checked before anything
        changes, so a rejected choice leaves the clock, the step count, the
        robots and the trace as they were.
        """
        kind = choice[0]
        if self.steps >= self.scenario.step_budget:
            self.trace.end(self.t, "budget")
            raise BudgetExhausted(self.visible, self.trace)
        if kind == "advance":
            for r in self.robots:
                if r.phase == MOVING and self.t - r.acted_t >= self.cap:
                    raise IllegalChoice("move span cap reached; move must end before advancing")
            starved = self._fairness_violation(None)
            if starved is not None:
                raise IllegalChoice(f"fairness: robot {starved} starved beyond bound")
            progress = self._progress(choice[1] if len(choice) > 1 else None)
            self.steps += 1
            self._advance(progress)
            return
        rid = choice[1]
        r = self.robots[rid]
        t = self.t
        if r.acted_t == t or kind != NEXT[r.phase]:
            raise IllegalChoice(f"{kind} not legal for robot {rid} (phase {r.phase})")
        starved = self._fairness_violation(rid)
        if starved is not None:
            raise IllegalChoice(f"fairness: robot {starved} starved beyond bound")
        if kind == "compute":
            snap = r.snapshot
            act = memo_action(self.algorithm, snap.config, snap.own_pos, snap.own_light)
        elif kind == "move_begin":
            frac = choice[2] if len(choice) > 2 else Rat(1)
            reach = apply_move(r.pos, r.dest, frac, self.delta)
        self.steps += 1
        if kind == "look":
            r.snapshot = self.observe(rid)
            r.phase = OBSERVED
            self.trace.log(kind="Look", t=t, robot=rid)
        elif kind == "compute":
            r.light = act.color
            r.snapshot = None
            self.trace.compute(t, rid, act)
            if act.dest == r.pos:
                r.phase = IDLE  # zero-distance cycle: Move omitted
            else:
                r.dest = act.dest
                r.phase = COMPUTED
        elif kind == "move_begin":
            r.dest = reach
            r.mu = Rat(0)
            r.phase = MOVING
            self.trace.move_begin(t, rid, r.dest)
        else:  # move_end
            r.pos = r.dest
            r.phase = IDLE
            self.trace.move_end(t, rid, r.pos)
        r.acted_t = t
        for other in self.robots:
            if other.acted_t != t:
                other.starve += 1
        r.starve = 0

    def _progress(self, mus):
        """Checked progress fraction of every moving robot at the next instant.

        ``mus`` maps robot ids to chosen fractions; a moving robot without
        one goes half of its remaining way.
        """
        progress = {}
        for i, r in enumerate(self.robots):
            if r.phase == MOVING:
                mu = None if mus is None else mus.get(i)
                if mu is None:
                    mu = r.mu + (1 - r.mu) / 2
                if not (r.mu < mu < 1):
                    raise IllegalChoice("progress fraction must strictly advance within (0,1)")
                progress[i] = mu
        return progress

    def _advance(self, progress):
        """Start the next instant; ``progress`` is ``_progress``'s checked result."""
        self.t += 1
        for i, r in enumerate(self.robots):
            if r.phase == MOVING:
                mu = r.mu = progress[i]
                o, d = r.pos, r.dest
                r.shown_pos = Point(o.x + mu * (d.x - o.x), o.y + mu * (d.y - o.y))
                self.trace.move_progress(self.t, i, r.shown_pos)
            else:
                r.shown_pos = r.pos
            r.shown_light = r.light
            r.starve += 1  # no robot has acted yet at the new instant
        self._show()

    # -- termination -------------------------------------------------------

    def is_terminal(self):
        """All robots idle and none enabled on the settled configuration."""
        if any(r.phase != IDLE for r in self.robots):
            return False
        cfg = self.cache.get(tuple((r.pos, r.light) for r in self.robots))
        key = ("terminal", self.algorithm.id)
        done = cfg.memo.get(key)
        if done is None:
            done = True
            for r in self.robots:
                act = memo_action(self.algorithm, cfg, r.pos, r.light)
                if act.color != r.light or act.dest != r.pos:
                    done = False
                    break
            cfg.memo[key] = done
        return done


class RandomAsyncPolicy:
    """Seeded uniform adversary over legal choices with forced fairness.

    ``policy`` (``random``, ``stingy`` or ``rigid``) sets the truncation of
    every move.
    """

    MUS = tuple(Rat(j, 8) for j in (1, 2, 3, 5, 7))

    def __init__(self, rng, policy="random"):
        self.rng = rng
        self.policy = policy

    def _mus(self, world):
        out = {}
        for i, r in enumerate(world.robots):
            if r.phase == MOVING:
                step = self.MUS[self.rng.randrange(len(self.MUS))]
                out[i] = r.mu + (1 - r.mu) * step
        return out

    def step(self, world):
        t = world.t
        legal = [(NEXT[r.phase], i) for i, r in enumerate(world.robots) if r.acted_t != t]
        # serve robots approaching the fairness bound first, worst starvation
        # first; the margin covers a full drain of simultaneously starved ones
        margin = 2 * len(world.robots) + 2
        worst = None
        for kind, i in legal:
            if world.robots[i].starve >= world.bound - margin:
                if worst is None or world.robots[i].starve > world.robots[worst[1]].starve:
                    worst = (kind, i)
        if worst is not None:
            return self._fill(worst)
        # movers at the span cap must end before the clock advances again
        for kind, i in legal:
            if kind == "move_end" and world.t - world.robots[i].acted_t >= world.cap - 1:
                return self._fill((kind, i))
        if not legal or self.rng.random() < 0.3:
            return ("advance", self._mus(world))
        return self._fill(legal[self.rng.randrange(len(legal))])

    def _fill(self, choice):
        kind, i = choice
        if kind == "move_begin":
            return (kind, i, _pick_fraction(self.policy, self.rng))
        return (kind, i)


class RoundRobinAsyncPolicy:
    """One robot completes a full rigid cycle at a time, in index order."""

    def __init__(self, rng):
        self.rng = rng
        self.current = 0
        self.started = False

    def step(self, world):
        n = len(world.robots)
        r = world.robots[self.current]
        if self.started and r.phase == IDLE:
            self.current = (self.current + 1) % n
            self.started = False
        legal = world.legal_actions(self.current)
        if not legal:
            return ("advance", None)
        kind = legal[0]
        if kind == "look":
            self.started = True
        if kind == "move_begin":
            return (kind, self.current, _pick_fraction("round-robin", self.rng))
        return (kind, self.current)


class SsyncEmbeddedPolicy:
    """Lockstep batches: everyone looks, then computes, then moves.

    ``policy`` (``ssync-embedded`` or ``ssync-stingy``) sets the truncation
    of every move.
    """

    def __init__(self, rng, policy="ssync-embedded"):
        self.rng = rng
        self.policy = policy

    def step(self, world):
        rs = world.robots
        t = world.t
        idle = [i for i, r in enumerate(rs) if r.phase == IDLE]
        observed = [i for i, r in enumerate(rs) if r.phase == OBSERVED]
        computed = [i for i, r in enumerate(rs) if r.phase == COMPUTED]
        moving = [i for i, r in enumerate(rs) if r.phase == MOVING]
        batch_open = not observed or rs[observed[0]].acted_t == t
        if idle and not computed and not moving and batch_open:
            if all("look" in world.legal_actions(i) for i in idle):
                return ("look", idle[0])
            if not observed:
                return ("advance", None)
        if observed:
            i = observed[0]
            if "compute" in world.legal_actions(i):
                return ("compute", i)
            return ("advance", None)
        if computed:
            i = computed[0]
            if "move_begin" in world.legal_actions(i):
                return ("move_begin", i, _pick_fraction(self.policy, self.rng))
            return ("advance", None)
        if moving:
            i = moving[0]
            if "move_end" in world.legal_actions(i):
                return ("move_end", i)
            return ("advance", None)
        return ("advance", None)


def _make_policy(scenario, rng):
    if scenario.policy in ("random", "stingy", "rigid"):
        return RandomAsyncPolicy(rng, scenario.policy)
    if scenario.policy == "round-robin":
        return RoundRobinAsyncPolicy(rng)
    return SsyncEmbeddedPolicy(rng, scenario.policy)


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
