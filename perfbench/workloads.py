"""Workload definitions and the verified item each one runs.

A verified item is the unit of evidence users produce.  For the campaign
workloads it is one generated scenario that is simulated, serialized, parsed
back and run through its checks; for ``enumerate`` it is one exhaustive
``enumerate_unfair`` instance.  Inputs depend only on the seed: a workload's
strata (algorithm, robot count, delta, ...) are cycled in a fixed order and
one ``random.Random(seed)`` draws every coordinate and engine seed, so the
same seed always gives the same items, and every run of a workload covers the
strata in the same proportions whatever the seed.

Library functions are looked up through their modules at call time
(``engine.run``, ``checker.validate_trace``), so the tracer's wrappers apply.
"""

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

from lumigather import checker, engine, fuzz
from lumigather.rational import Rat

CHECKS = {
    "replay": lambda tr: checker.validate_trace(tr),
    "cycle": lambda tr: checker.check_cycle_snapshot(tr),
    "switch": lambda tr: checker.check_onlds_switch(tr),
    "gather": lambda tr: checker.check_gathered(tr),
    "monotone-f": lambda tr: checker.check_monotone(tr, "f"),
    "monotone-g": lambda tr: checker.check_monotone(tr, "g"),
}

ENUM_FRACTIONS = (Rat(1), Rat(1, 2))
ENUM_NODE_CEILING = 20000


@dataclass(frozen=True)
class Item:
    """One verified item: a scenario with its checks, or an enumeration."""

    index: int
    scenario: object = None
    checks: tuple = ()
    entries: tuple = ()
    algorithm: str = ""
    depth: int = 0


@dataclass
class ItemResult:
    seconds: float = 0.0
    ok: bool = False
    budget_exhausted: bool = False
    digest: bytes = b""
    run_s: float = 0.0
    events: int = 0
    config_lines: int = 0
    post_gather_events: int = 0
    trace_bytes: int = 0
    enum_nodes: int = 0
    enum_edges: int = 0
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple  # one argument tuple per stratum, cycled in order
    make: object  # make(rng, index, *stratum) -> Item
    corpus_cycles: int  # stratum cycles in the fixed corpus (digest, traced run)
    pool_cycles: int  # stratum cycles generated at set-up for timed runs
    # percentile reported as item_tail_s: the highest of p50/p90/p95/p99 that
    # leaves ten items beyond it even at half this host's speed; fixed, because
    # one chosen from each run's own item count would flip between runs
    tail_pct: int = 90

    @property
    def corpus_size(self):
        return self.corpus_cycles * len(self.strata)

    def items(self, seed, cycles):
        rng = random.Random(seed)
        return [
            self.make(rng, k, *self.strata[k % len(self.strata)])
            for k in range(cycles * len(self.strata))
        ]


def _async_item(checks, bound, step_budget):
    def make(rng, index, algorithm, n):
        sc = fuzz.random_scenario(
            rng,
            algorithm,
            "async",
            n,
            bound=bound,
            delta=Rat(1),
            policy="random",
            step_budget=step_budget,
        )
        return Item(index, scenario=sc, checks=checks)

    return make


def _unfair_item(rng, index, algorithm, n, delta, bound, checks):
    sc = fuzz.random_scenario(
        rng, algorithm, "ssync-unfair", n, bound=bound, delta=delta, step_budget=10000
    )
    return Item(index, scenario=sc, checks=checks)


def _enum_item(rng, index, algorithm, n, depth):
    if algorithm == "lu-gather":
        entries = tuple((p, "A") for p in fuzz.random_collinear_points(rng, n, 8))
    else:
        entries = tuple((p, "O") for p in fuzz.random_points(rng, n, 8))
    return Item(index, entries=entries, algorithm=algorithm, depth=depth)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "async-campaign",
            "three-color and six-color async campaigns (acceptance 3-5): async "
            "engine, simulation wrapper and four checkers that each rebuild TraceData",
            tuple((alg, n) for n in range(2, 7) for alg in ("three-color", "six-color")),
            _async_item(("replay", "cycle", "switch", "gather"), 8, 50000),
            corpus_cycles=6,
            pool_cycles=40,
        ),
        Workload(
            "unfair-potentials",
            "elect-one-lds and lu-gather under ssync-unfair (acceptance 1-2): "
            "round engine, hulls and certified potential comparison, no wrapper",
            tuple(
                ("elect-one-lds", n, d, 100, ("monotone-f",))
                for n in range(3, 9)
                for d in (Rat(1, 4), Rat(1))
            )
            + tuple(
                ("lu-gather", n, d, 12, ("monotone-g", "gather"))
                for n in range(2, 9)
                for d in (Rat(1, 4), Rat(1))
            ),
            _unfair_item,
            corpus_cycles=12,
            pool_cycles=80,
            tail_pct=95,
        ),
        Workload(
            "enumerate",
            "exhaustive enumerate_unfair instances: potentials and configuration "
            "interning dominate, no trace is written or parsed",
            # two lu-gather instances per elect-one-lds instance: the median
            # item then falls inside the lu-gather cluster instead of on the
            # gap between the cheap and the expensive family
            (("lu-gather", 4, 5), ("lu-gather", 5, 4)) * 3
            + tuple(("elect-one-lds", n, 8) for n in (4, 5, 6)),
            _enum_item,
            corpus_cycles=4,
            pool_cycles=30,
        ),
        Workload(
            "async-scale",
            "three-color async at n=10: large traces, O(n^2) legal-action scans "
            "and the long tail after gathering",
            (("three-color", 10),),
            _async_item(("replay", "gather"), 8, 200000),
            corpus_cycles=4,
            pool_cycles=32,
            tail_pct=50,
        ),
    )
}


def _report_bytes(rep):
    return json.dumps(rep.to_json(), sort_keys=True, default=str).encode()


def _trace_counts(res, lines):
    """Events, Config lines and events after the first gathered Config line."""
    events = configs = after = 0
    gathered = False
    for ln in lines:
        kind = ln.get("kind")
        if kind == "Config":
            configs += 1
            if not gathered:
                gathered = len({(e[0], e[1]) for e in ln["entries"]}) == 1
        elif kind not in ("Header", "End"):
            events += 1
            after += gathered
    res.events, res.config_lines, res.post_gather_events = events, configs, after


def _run_campaign(item, res):
    clock = time.perf_counter
    t0 = clock()
    try:
        trace = engine.run(item.scenario)
    except engine.BudgetExhausted as exc:
        trace, res.budget_exhausted = exc.trace, True
    t1 = clock()
    text = trace.dumps()
    parsed = engine.Trace.parse(text)
    reports = [] if res.budget_exhausted else [CHECKS[c](parsed) for c in item.checks]
    res.seconds = clock() - t0
    res.run_s = t1 - t0
    data = text.encode()
    res.trace_bytes = len(data)
    _trace_counts(res, trace.lines)
    return [data] + [_report_bytes(r) for r in reports], reports


def _run_enumerate(item, res):
    t0 = time.perf_counter()
    rep = checker.enumerate_unfair(
        item.entries,
        item.algorithm,
        item.depth,
        fractions=ENUM_FRACTIONS,
        delta=Rat(1),
        node_ceiling=ENUM_NODE_CEILING,
    )
    res.seconds = time.perf_counter() - t0
    res.budget_exhausted = bool(rep.extras["aborted"])
    res.enum_nodes = rep.extras["nodes"]
    res.enum_edges = rep.extras["edges"]
    return [_report_bytes(rep)], [rep]


def run_item(item):
    """Run and verify one item; any exception makes it a failed item."""
    res = ItemResult()
    runner = _run_enumerate if item.scenario is None else _run_campaign
    t0 = time.perf_counter()
    try:
        blobs, reports = runner(item, res)
    except Exception:  # an item that raises is a failed item, not a crash
        res.seconds = time.perf_counter() - t0
        res.problems.append(traceback.format_exc())
        print(res.problems[-1], file=sys.stderr)
        return res
    if res.budget_exhausted:
        res.problems.append("budget exhausted")
    for rep in reports:
        if not rep.passed:
            res.problems.append(f"{rep.check}: violated")
        if rep.undecided:
            res.problems.append(f"{rep.check}: {len(rep.undecided)} undecided")
    res.ok = not res.problems
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    res.digest = h.digest()
    return res


def corpus_digest(results):
    """sha256 over the per-item digests (trace bytes and report JSON) in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest)
    return h.hexdigest()
