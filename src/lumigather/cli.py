"""Command-line harness: run scenarios, fuzz, check traces, plot, enumerate.

Exit codes: 0 success, 1 check violations, 2 bad input/usage, 3 step budget
or enumeration node ceiling exhausted.
"""

import argparse
import json
import sys

from .algorithms import ALGORITHMS, phase_of
from .checker import (
    CHECKS,
    TraceData,
    annotate_potentials,
    check_names,
    default_checks,
    enumerate_unfair,
)
from .engine import (
    SCHEDULERS,
    BudgetExhausted,
    Scenario,
    ScenarioError,
    Trace,
    run,
)
from .fuzz import fuzz
from .rational import Rat, parse_rat


def _apply_overrides(scenario, args):
    data = scenario.to_json()
    if args.seed is not None:
        data["adversary"]["seed"] = args.seed
    if args.steps is not None:
        data["step_budget"] = args.steps
    if args.delta is not None:
        data["delta"] = args.delta
    if args.scheduler is not None:
        data["scheduler"] = args.scheduler
    if args.algorithm is not None:
        data["algorithm"] = args.algorithm
    if args.fairness_bound is not None:
        data["fairness_bound"] = args.fairness_bound
    if args.move_span_cap is not None:
        data["move_span_cap"] = args.move_span_cap
    return Scenario.from_json(data)


def cmd_run(args):
    try:
        scenario = _apply_overrides(Scenario.load(args.scenario), args)
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    code = 0
    try:
        trace = run(scenario)
    except BudgetExhausted as exc:
        trace = exc.trace
        code = 3
    except ScenarioError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            trace.write(args.out)
        except OSError as exc:
            print(f"run: cannot write the trace: {exc}", file=sys.stderr)
            return 2
    td = TraceData.of(trace)
    summary = {
        "status": td.status,
        "gathered": td.status == "gathered",
        "time": td.end_time,
        "colors_used": sorted({c for cs in td.computes for _, c, *_ in cs}),
        "final_cc": _final_cc(td.changes[-1][1]),
    }
    print(json.dumps(summary, sort_keys=True))
    return code


def _final_cc(config):
    if not config.on_lds:
        return None
    return [
        ["".join(sorted(f)), str(p.x), str(p.y)] for p, f in config.cc.stations
    ]


def cmd_fuzz(args):
    # fuzz() rejects every bad argument before its first run
    try:
        deltas = (Rat(1),)
        if args.delta is not None:
            deltas = tuple(parse_rat(d) for d in args.delta.split(","))
        checks = None if args.check == "all" else check_names(args.check)
        summary = fuzz(
            args.algorithm,
            args.scheduler,
            runs=args.runs,
            seed=args.seed if args.seed is not None else 0,
            n_range=(args.n_min, args.n_max),
            bound=args.coord_bound,
            deltas=deltas,
            policy=args.policy,
            step_budget=args.steps if args.steps is not None else 50000,
            checks=checks,
        )
    except ValueError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary.to_json(), sort_keys=True))
    return 0 if summary.ok else 1


def cmd_check(args):
    try:
        names = None if args.check == "all" else check_names(args.check)
        trace = Trace.load(args.trace)
        td = TraceData.of(trace)
    except (OSError, ValueError) as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    if names is None:
        names = default_checks(td.algorithm.id, td.scenario.scheduler) + ["equivariance"]
    ok = True
    for name in names:
        rep = CHECKS[name](td)
        ok = ok and rep.passed
        print(rep)
    if args.annotate:
        annotated = annotate_potentials(trace)
        try:
            annotated.write(args.annotate)
        except OSError as exc:
            print(f"check: cannot write the annotated trace: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


_COLOR_KEYS = {
    "S": "#1f77b4",
    "M": "#d62728",
    "E": "#2ca02c",
    "A": "#9467bd",
    "B": "#ff7f0e",
    "O": "#7f7f7f",
}


def _stroke(color):
    return _COLOR_KEYS.get(phase_of(color), "#000000")


def cmd_plot(args):
    try:
        trace = Trace.load(args.trace)
        td = TraceData.of(trace)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    svg = render_svg(td)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"plot: cannot write the SVG: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def render_svg(td):
    """Deterministic SVG of robot trajectories colored by light, one point per instant.

    The instants run from 0 to the last one that an event shows at
    (``TraceData.last_show``), or to End if that comes first: a later End
    adds no point.
    """
    size = 640  # width and height in pixels
    last = td.last_show
    times = range(1 + (last if td.end_time is None else min(last, td.end_time)))
    rows = [td.shown(t) for t in times]
    paths = []
    xs, ys = [], []
    for rid in range(td.n):
        pts = []
        for t, row in enumerate(rows):
            p, c = row[rid]
            pts.append((float(p.x), float(p.y), c, t))
            xs.append(float(p.x))
            ys.append(float(p.y))
        paths.append(pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span

    def sx(x):
        return (x - x0 + pad) / (span + 2 * pad) * size

    def sy(y):
        return size - (y - y0 + pad) / (span + 2 * pad) * size

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for rid, pts in enumerate(paths):
        for (xa, ya, ca, _), (xb, yb, _, _) in zip(pts, pts[1:]):
            if (xa, ya) != (xb, yb):
                out.append(
                    f'<line x1="{sx(xa):.2f}" y1="{sy(ya):.2f}" x2="{sx(xb):.2f}" '
                    f'y2="{sy(yb):.2f}" stroke="{_stroke(ca)}" stroke-width="1.2"/>'
                )
        for xa, ya, ca, t in pts:
            out.append(
                f'<circle cx="{sx(xa):.2f}" cy="{sy(ya):.2f}" r="1.6" '
                f'fill="{_stroke(ca)}"><title>robot {rid} t={t}</title></circle>'
            )
        xa, ya, ca, _ = pts[0]
        out.append(
            f'<circle cx="{sx(xa):.2f}" cy="{sy(ya):.2f}" r="3.5" fill="none" '
            f'stroke="{_stroke(ca)}" stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_enumerate(args):
    if args.depth < 1 or args.node_ceiling < 1:
        print("enumerate: --depth and --node-ceiling must be at least 1", file=sys.stderr)
        return 2
    try:
        scenario = Scenario.load(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        rep = enumerate_unfair(
            scenario.robots,
            scenario.algorithm,
            args.depth,
            delta=scenario.delta,
            node_ceiling=args.node_ceiling,
        )
    except ValueError as exc:
        print(f"enumerate: {exc}", file=sys.stderr)
        return 2
    print(rep)
    if not rep.passed:
        return 1
    return 3 if rep.extras["aborted"] else 0


def build_parser():
    p = argparse.ArgumentParser(prog="lumigather")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("run", help="execute a scenario file to a trace")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--delta", default=None)
    sp.add_argument("--scheduler", choices=SCHEDULERS, default=None)
    sp.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=None)
    sp.add_argument("--fairness-bound", type=int, default=None)
    sp.add_argument("--move-span-cap", type=int, default=None)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("fuzz", help="randomized runs with checkers")
    sp.add_argument("--algorithm", choices=sorted(ALGORITHMS), required=True)
    sp.add_argument("--scheduler", choices=SCHEDULERS, default="async")
    sp.add_argument("--runs", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--delta", default=None)
    sp.add_argument("--n-min", type=int, default=3)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--coord-bound", type=int, default=20)
    sp.add_argument("--policy", default="random")
    sp.add_argument("--check", default="all")
    sp.set_defaults(fn=cmd_fuzz)

    sp = sub.add_parser("check", help="run checkers over a trace file")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--check", default="all")
    sp.add_argument("--annotate", default=None, help="write a potential-annotated copy")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("plot", help="render robot trajectories to SVG")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_plot)

    sp = sub.add_parser("enumerate", help="exhaustive small-instance exploration")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--node-ceiling", type=int, default=100000)
    sp.set_defaults(fn=cmd_enumerate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
