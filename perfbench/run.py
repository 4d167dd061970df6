"""Layered benchmark of lumigather: verified items per second, per workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload async-campaign --seed 1 --seconds 55 --trace 0

One process runs one workload as a closed loop: a single client, no threads,
running verified items back to back until ``--seconds`` have passed (and at
least the fixed corpus is done), stopping only at the end of a stratum cycle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the fixed
corpus twice, untraced and then traced, and prints the per-layer metrics; the
two passes must produce the same output digest.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A fuller report, including metadata, exact counters and the span
table, is printed before it and written to ``.perfbench/`` in the checkout.

Exit codes: 0 when the run completed (``correct`` says whether outputs
verified), 2 when the program cannot be found or a requested rational backend
is not importable.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
# Inputs never used while writing a change: confirm a claimed gain here too.
HELD_OUT_SEED = 7919
SETUP_PROBES = 5
# reference_s() on an uncontended core of the machine the bounds were set on
# (2-CPU KVM guest, Xeon at 2.1 GHz, CPython 3.11)
REFERENCE_S = 0.002
REF_WINDOW = 5  # kernel samples on each side of an item that set its correction


def reference_s():
    """Seconds taken by a fixed exact-arithmetic kernel that uses no lumigather code.

    Other tenants of a shared host slow this process down by up to about 40%
    in phases lasting seconds to minutes.  Timing the kernel next to every
    item measures the speed the machine had just then; scaling the item's
    time by ``REFERENCE_S / kernel time`` removes that drift while keeping any
    change in lumigather's own cost.
    """
    from fractions import Fraction  # not at module level: setup_s times this import

    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(1, i % 97 + 1) * Fraction(i, 7)
        seen[(i % 50, acc.denominator % 11)] = acc
    return time.perf_counter() - t0


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--backend",
        choices=("auto", "fractions", "gmpy2"),
        default="auto",
        help="rational backend to require; 'auto' takes what the package selects",
    )
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _setup_probe(workload, seed):
    """Corrected seconds to import lumigather and generate the workload's inputs."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].items(seed, workloads.WORKLOADS[workload].pool_cycles)
    raw = time.perf_counter() - t0
    # the kernel runs after the set-up, whose imports it would otherwise exclude
    return raw * REFERENCE_S / statistics.median(reference_s() for _ in range(3))


def _setup_seconds(args):
    """Median set-up time over fresh processes, so imports are not cached."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--backend",
        args.backend,
    ]
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


def _timed_run(wl, seed, seconds, run_item):
    """Closed loop over the pool until time is up and the corpus is done.

    Returns the results and, per item, its time corrected by the reference
    kernel: the median of the kernel times measured around the neighbouring
    items, so that the correction follows the machine's speed phases without
    adding the kernel's own jitter to every item.
    """
    pool = wl.items(seed, wl.pool_cycles)
    cycle = len(wl.strata)
    results = []
    refs = [reference_s()]
    digests = {}
    mismatches = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        item = pool[k % len(pool)]
        res = run_item(item)
        refs.append(reference_s())
        results.append(res)
        # the pool wraps on fast machines: a repeated item must repeat its output
        if res.ok:
            prior = digests.setdefault(item.index, res.digest)
            mismatches += prior != res.digest
        k += 1
        if k % cycle == 0 and k >= wl.corpus_size and time.perf_counter() >= deadline:
            break
    corrected = [
        r.seconds * REFERENCE_S / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 2])
        for i, r in enumerate(results)
    ]
    return results, corrected, refs, mismatches


def _tail(times, pct):
    """Nearest-rank ``pct`` percentile of ``times`` and the items beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _corpus_counts(results):
    return {
        "items": len(results),
        "events": sum(r.events for r in results),
        "config_lines": sum(r.config_lines for r in results),
        "post_gather_events": sum(r.post_gather_events for r in results),
        "trace_bytes": sum(r.trace_bytes for r in results),
        "budget_exhausted": sum(r.budget_exhausted for r in results),
        "enum_nodes": sum(r.enum_nodes for r in results),
        "enum_edges": sum(r.enum_edges for r in results),
    }


def _time_metrics(times, tail_pct):
    tail, beyond = _tail(times, tail_pct)
    return len(times) / sum(times), statistics.median(times), tail, beyond


def _end_to_end(args, wl, workloads):
    setup_s, setup_values = _setup_seconds(args)
    results, times, refs, mismatches = _timed_run(wl, args.seed, args.seconds, workloads.run_item)
    failed = sum(not r.ok for r in results)
    rate, p50, tail, beyond = _time_metrics(times, wl.tail_pct)
    raw_rate, raw_p50, raw_tail, _ = _time_metrics([r.seconds for r in results], wl.tail_pct)
    corpus = results[: wl.corpus_size]
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_p50_s": (p50, "s"),
        "item_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "fail_ratio": failed / len(results),
        "item_tail_percentile": wl.tail_pct,
        "items": len(results),
        "items_beyond_tail": beyond,
        "uncorrected": {"items_per_s": raw_rate, "item_p50_s": raw_p50, "item_tail_s": raw_tail},
        "setup_probes_s": setup_values,
        "repeat_digest_mismatches": mismatches,
        "corpus_digest": workloads.corpus_digest(corpus),
        "corpus_counts": _corpus_counts(corpus),
        "failures": [r.problems for r in results if not r.ok][:5],
        "item_seconds": [r.seconds for r in results],
        "reference_seconds": refs,
    }
    correct = failed == 0 and mismatches == 0
    return correct, len(results), failed, metrics, report


def _per_layer(args, wl, workloads):
    import tracer

    untraced, u_wall = _corpus_pass(wl, args.seed, workloads.run_item)
    tr = tracer.Tracer()
    before = tracer.attribute_snapshot()
    try:
        tr.install()
        traced, t_wall = _corpus_pass(wl, args.seed, workloads.run_item, tr.end_item)
    finally:
        tr.remove()
    leftovers = tracer.verify_removed(before)
    digest_u = workloads.corpus_digest(untraced)
    digest_t = workloads.corpus_digest(traced)
    counts = _corpus_counts(traced)
    run_s = sum(r.run_s for r in untraced)
    bits = tr.interval_bits
    builds = tr.calls("configuration.build")
    layer = {
        "checker.tracedata_builds": (tr.calls("checker.tracedata"), "count"),
        "checker.tracedata_s": (tr.self_s("checker.tracedata"), "s"),
        "checker.replay_s": (tr.self_s("checker.replay"), "s"),
        "checker.cycle_s": (tr.self_s("checker.cycle"), "s"),
        "checker.switch_s": (tr.self_s("checker.switch"), "s"),
        "checker.gather_s": (tr.self_s("checker.gather"), "s"),
        "checker.monotone_s": (tr.self_s("checker.monotone"), "s"),
        "checker.enumerate_s": (tr.self_s("checker.enumerate"), "s"),
        "checker.enum_nodes": (counts["enum_nodes"], "count"),
        "checker.enum_edges": (counts["enum_edges"], "count"),
        "checker.self_s": (tr.self_s("checker"), "s"),
        "algorithms.eval_calls_engine": (tr.eval_calls["engine"], "count"),
        "algorithms.eval_calls_checker": (tr.eval_calls["checker"], "count"),
        "algorithms.eval_s": (tr.self_s("algorithms.eval"), "s"),
        "configuration.builds": (builds, "count"),
        "configuration.distinct_ratio": (tr.config_distinct / builds if builds else 0.0, "ratio"),
        "configuration.self_s": (tr.self_s("configuration"), "s"),
        "geometry.hull_calls": (tr.calls("geometry.hull"), "count"),
        "geometry.hull_s": (tr.self_s("geometry.hull"), "s"),
        "geometry.self_s": (tr.self_s("geometry"), "s"),
        "patterns.classify_line_s": (tr.self_s("patterns.classify_line"), "s"),
        "potentials.potential_calls": (tr.calls("potentials.potential"), "count"),
        "potentials.potential_s": (tr.self_s("potentials.potential"), "s"),
        "potentials.compare_calls": (tr.calls("potentials.compare"), "count"),
        "potentials.compare_s": (tr.self_s("potentials.compare"), "s"),
        "potentials.interval_calls": (tr.counts["potentials.interval"], "count"),
        "potentials.max_bits": (max(bits, default=0), "bits"),
        "potentials.undecided": (tr.undecided, "count"),
        "potentials.self_s": (tr.self_s("potentials"), "s"),
        "engine.run_self_s": (tr.self_s("engine.run"), "s"),
        "engine.events": (counts["events"], "count"),
        "engine.config_lines": (counts["config_lines"], "count"),
        "engine.events_per_s": (counts["events"] / run_s if run_s else 0.0, "1/s"),
        "engine.post_gather_share": (
            counts["post_gather_events"] / counts["events"] if counts["events"] else 0.0,
            "ratio",
        ),
        "engine.budget_exhausted": (counts["budget_exhausted"], "count"),
        "engine.trace_dumps_s": (tr.self_s("engine.trace_dumps"), "s"),
        "engine.trace_parse_s": (tr.self_s("engine.trace_parse"), "s"),
        "engine.trace_bytes": (counts["trace_bytes"], "bytes"),
        "engine.self_s": (tr.self_s("engine"), "s"),
        "rational.format_rat_calls": (tr.counts["rational.format_rat"], "count"),
        "rational.parse_rat_calls": (tr.counts["rational.parse_rat"], "count"),
        "fuzz.scenario_gen_s": (tr.self_s("fuzz"), "s"),
        "bench.trace_overhead": (t_wall / u_wall, "ratio"),
        "bench.unattributed_share": ((t_wall - tr.root_s) / t_wall, "ratio"),
    }
    for b in (64, 256, 1024, 4096, 16384):
        layer[f"potentials.interval_bits_{b}"] = (bits[b], "count")
    exact = {k: v for k, (v, unit) in layer.items() if unit in ("count", "bytes", "bits")}
    exact.update({f"spans.{n}.calls": s[0] for n, s in sorted(tr.stats.items())})
    exact["potentials.interval_bits"] = {str(b): c for b, c in sorted(bits.items())}
    results = untraced + traced
    failed = sum(not r.ok for r in results)
    report = {
        "untraced_wall_s": u_wall,
        "traced_wall_s": t_wall,
        "digest_untraced": digest_u,
        "digest_traced": digest_t,
        "wrappers_left": leftovers,
        "exact_counters": exact,
        "spans": {
            n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for n, s in sorted(tr.stats.items())
        },
        "failures": [r.problems for r in results if not r.ok][:5],
    }
    correct = failed == 0 and digest_u == digest_t and not leftovers
    return correct, len(results), failed, layer, report


def _corpus_pass(wl, seed, run_item, after_item=None):
    """Generate the fixed corpus from the seed and run it once, in order."""
    start = time.perf_counter()
    results = []
    for item in wl.items(seed, wl.corpus_cycles):
        results.append(run_item(item))
        if after_item is not None:
            after_item()
    return results, time.perf_counter() - start


BULKY = ("spans", "metrics", "item_seconds", "reference_seconds")


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lumigather", "__init__.py")):
        return _fail(f"no lumigather sources under {SRC}; run from a source checkout")
    if args.backend == "fractions":
        os.environ["LUMIGATHER_PURE_RATIONAL"] = "1"
    elif args.backend == "gmpy2":
        os.environ.pop("LUMIGATHER_PURE_RATIONAL", None)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed)))
        return 0

    import workloads
    from lumigather import rational

    if args.backend != "auto" and rational.BACKEND != args.backend:
        return _fail(f"backend {args.backend!r} requested but {rational.BACKEND!r} loaded")
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    run = _per_layer if args.trace else _end_to_end
    correct, attempted, failed, metrics, report = run(args, wl, workloads)
    report = {
        "meta": {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "trace": args.trace,
            "seconds": args.seconds,
            "backend": rational.BACKEND,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "corpus_items": wl.corpus_size,
            "load": "closed loop, 1 client, 1 process, no threads",
        },
        **report,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:18s} {name:32s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{wl.name:18s} {'fail_ratio':32s} {report['fail_ratio']:>16.6g} ratio")
    print(json.dumps({k: v for k, v in report.items() if k not in BULKY}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
