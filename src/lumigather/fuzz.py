"""Randomized scenario generation and per-run checking.

Everything is reproducible from a master seed: scenario coordinates, the
per-run engine seed and the adversary's choices all derive from it.  The
command-line ``fuzz`` subcommand and the acceptance suite both drive this
module.
"""

import random
from dataclasses import dataclass, field

from .algorithms import get_algorithm
from .checker import CHECKS, check_names, default_checks
from .configuration import collector_paused
from .engine import POLICIES, BudgetExhausted, Scenario, run
from .geometry import Point
from .rational import Rat


def _rand_rat(rng, bound):
    den = rng.randint(1, 4)
    num = rng.randint(-bound * den, bound * den)
    return Rat(num, den)


def random_points(rng, n, bound):
    return [Point(_rand_rat(rng, bound), _rand_rat(rng, bound)) for _ in range(n)]


def random_collinear_points(rng, n, bound):
    """n points on a random rational segment, both endpoints occupied."""
    while True:
        a, b = random_points(rng, 2, bound)
        if a != b:
            break
    pts = [a, b]
    for _ in range(n - 2):
        lam = Rat(rng.randint(0, 16), 16)
        pts.append(Point(a.x + lam * (b.x - a.x), a.y + lam * (b.y - a.y)))
    return pts


def random_scenario(
    rng,
    algorithm,
    scheduler,
    n,
    bound=100,
    delta=Rat(1),
    policy="random",
    step_budget=50000,
):
    spec = get_algorithm(algorithm)
    if spec.needs_onlds_start:
        pts = random_collinear_points(rng, n, bound)
    else:
        pts = random_points(rng, n, bound)
    return Scenario(
        robots=tuple((p, spec.initial) for p in pts),
        delta=delta,
        scheduler=scheduler,
        algorithm=algorithm,
        policy=policy,
        seed=rng.randrange(2**31),
        step_budget=step_budget,
    )


@dataclass
class RunOutcome:
    scenario: Scenario
    trace: object = None
    budget_exhausted: bool = False
    reports: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.budget_exhausted and all(r.passed for r in self.reports)


@collector_paused
def run_with_checks(scenario, checks=None):
    """Run the scenario and apply the named checks (``default_checks`` if None).

    The run and its checks are one paused unit: the collector stays off
    from the run to the last check, rather than waking between them to walk
    the trace they share.
    """
    out = RunOutcome(scenario)
    try:
        out.trace = run(scenario)
    except BudgetExhausted as exc:
        out.trace = exc.trace
        out.budget_exhausted = True
        return out
    if checks is None:
        checks = default_checks(scenario.algorithm, scenario.scheduler)
    for name in checks:
        out.reports.append(CHECKS[name](out.trace))
    return out


@dataclass
class FuzzSummary:
    algorithm: str
    scheduler: str
    runs: int = 0
    failures: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "algorithm": self.algorithm,
            "scheduler": self.scheduler,
            "runs": self.runs,
            "failures": self.failures,
            "pass": self.ok,
        }


def fuzz(
    algorithm,
    scheduler,
    runs,
    seed,
    n_range=(3, 6),
    bound=20,
    deltas=(Rat(1),),
    policy="random",
    step_budget=50000,
    checks=None,
    keep_traces=False,
):
    """Run many random scenarios through ``checks`` (None: ``default_checks``).

    Raises ValueError before any run on an argument no run could use: runs,
    robot counts, coordinate bound or step budget below 1, n_range out of
    order, a delta that is not positive, an unknown policy or check name.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not 1 <= n_range[0] <= n_range[1]:
        raise ValueError(f"robot counts must satisfy 1 <= n-min <= n-max, got {n_range}")
    if bound < 1:
        raise ValueError("coordinate bound must be >= 1")
    if step_budget < 1:
        raise ValueError("step budget must be >= 1")
    if any(d <= 0 for d in deltas):
        raise ValueError("delta must be positive")
    if policy not in POLICIES:
        raise ValueError(f"unknown adversary policy {policy!r}")
    if checks is not None:
        checks = check_names(checks)
    rng = random.Random(seed)
    summary = FuzzSummary(algorithm, scheduler)
    for k in range(runs):
        n = rng.randint(*n_range)
        delta = deltas[k % len(deltas)]
        sc = random_scenario(
            rng,
            algorithm,
            scheduler,
            n,
            bound=bound,
            delta=delta,
            policy=policy,
            step_budget=step_budget,
        )
        out = run_with_checks(sc, checks)
        summary.runs += 1
        if not out.ok:
            summary.failures.append(
                {
                    "run": k,
                    "scenario": sc.to_json(),
                    "budget_exhausted": out.budget_exhausted,
                    "reports": [r.to_json() for r in out.reports if not r.passed],
                }
            )
        if keep_traces:
            summary.outcomes.append(out)
    return summary
