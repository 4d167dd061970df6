"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
import zlib

import pytest

from lumigather.algorithms import get_algorithm
from lumigather.checker import (
    TraceData,
    check_equivariance,
    check_gathered,
    check_shrink,
    enumerate_unfair,
    snapshot_has_convention_ties,
)
from lumigather.cli import main as cli_main
from lumigather.engine import Scenario, SyncWorld, enabled_ids, run, ssync_round
from lumigather.fuzz import fuzz, run_with_checks
from lumigather.geometry import is_on_lds, pt
from lumigather.potentials import Cmp, compare_values, lex_less, potential_f, potential_g
from lumigather.rational import Rat

from conftest import random_frame
from test_algorithms import _random_view


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE criterion-{criterion}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# -- criterion 1: potential-f monotone over unfair SSYNC ----------------------


def test_criterion_1_potential_f_monotone():
    t0 = time.time()
    summary = fuzz(
        "elect-one-lds",
        "ssync-unfair",
        runs=500,
        seed=101,
        n_range=(3, 8),
        bound=100,
        deltas=(Rat(1, 4), Rat(1)),
        step_budget=10000,
        checks=("monotone-f",),
        keep_traces=True,
    )
    ok = summary.ok
    lines_ok = True
    for out in summary.outcomes:
        td = TraceData.of(out.trace)
        if td.status != "fixpoint" or td.end_time > 10000:
            lines_ok = False
            break
        points = [p for p, _ in td.changes[-1][1].entries]
        if not is_on_lds(points):
            lines_ok = False
            break
    report(
        1,
        ok and lines_ok,
        f"500 runs, 0 violations, all reached a line "
        f"({time.time() - t0:.1f}s)",
    )


# -- criterion 2: potential-g monotone, all runs gather ------------------------


def test_criterion_2_potential_g_monotone():
    t0 = time.time()
    summary = fuzz(
        "lu-gather",
        "ssync-unfair",
        runs=500,
        seed=202,
        n_range=(2, 8),
        bound=12,
        deltas=(Rat(1, 4), Rat(1)),
        step_budget=10000,
        checks=("monotone-g", "gather"),
    )
    report(
        2,
        summary.ok,
        f"500 runs, 0 violations, all gathered ({time.time() - t0:.1f}s)",
    )


# -- criteria 3-5 share one fuzz campaign --------------------------------------


@pytest.fixture(scope="module")
def async_campaign():
    results = {}
    for alg in ("three-color", "six-color"):
        results[alg] = fuzz(
            alg,
            "async",
            runs=200,
            seed=303,
            n_range=(2, 6),
            bound=8,
            deltas=(Rat(1),),
            step_budget=50000,
            checks=("replay", "cycle", "switch", "gather"),
            keep_traces=True,
        )
    return results


def _reports(summary, name):
    for out in summary.outcomes:
        for rep in out.reports:
            if rep.check == name:
                yield out, rep


def test_criterion_3_async_gathering(async_campaign):
    t0 = time.time()
    ok = True
    for alg, alphabet in (
        ("three-color", {"S", "M", "E"}),
        ("six-color", {f"{p}.{i}" for p in "SME" for i in "AB"}),
    ):
        s = async_campaign[alg]
        if s.failures:
            ok = False
        for out in s.outcomes:
            td = TraceData.of(out.trace)
            if out.budget_exhausted or td.status != "gathered":
                ok = False
            if not {c for cs in td.computes for _, c, *_ in cs} <= alphabet:
                ok = False
        for out, rep in _reports(s, "gathered"):
            if not rep.extras.get("gathered"):
                ok = False
    report(3, ok, "200 three-color + 200 six-color runs all gathered in budget")


def test_criterion_4_cycle_snapshots(async_campaign):
    ok = True
    cycles = 0
    for alg in ("three-color", "six-color"):
        for out, rep in _reports(async_campaign[alg], "cycle-snapshot"):
            if not rep.passed:
                ok = False
            cycles += rep.extras.get("cycles", 0)
    report(4, ok and cycles > 0, f"phase order and shared inner snapshots ({cycles} cycles)")


def test_criterion_5_switch_shapes(async_campaign):
    ok = True
    shapes = set()
    for alg in ("three-color", "six-color"):
        for out, rep in _reports(async_campaign[alg], "onlds-switch"):
            if not rep.passed:
                ok = False
            shapes.add(rep.extras.get("shape"))
    report(5, ok and shapes <= {1, 2, 3, 4, 5}, f"shapes seen: {sorted(map(str, shapes))}")


# -- criterion 6: per-loop 2-delta shrink --------------------------------------


def test_criterion_6_shrink():
    sc = Scenario(
        robots=(
            (pt(0, 0), "S"),
            (pt(0, 0), "S"),
            (pt(100, 0), "S"),
            (pt(100, 0), "S"),
        ),
        delta=Rat(1),
        scheduler="async",
        algorithm="lu-gather-async",
        policy="ssync-stingy",
        seed=77,
        step_budget=500000,
    )
    trace = run(sc)
    rep = check_shrink(trace)
    loops = rep.extras["loops"]
    gathered = check_gathered(trace).extras["gathered"]
    random_ok = fuzz(
        "lu-gather-async",
        "async",
        runs=100,
        seed=606,
        n_range=(2, 6),
        bound=10,
        checks=("shrink", "gather"),
    ).ok
    report(
        6,
        rep.passed and loops <= 50 and gathered and random_ok,
        f"segment 100, delta 1: {loops} loops (max 50), plus 100 random runs",
    )


# -- criterion 7: exhaustive oracle vs randomized ------------------------------


def test_criterion_7_enumeration_agrees_with_randomized():
    elect_init = [(pt(0, 0), "O"), (pt(10, 0), "O"), (pt(9, 3), "O")]
    lu_init = [(pt(0, 0), "A"), (pt(4, 0), "A"), (pt(6, 0), "A")]
    r1 = enumerate_unfair(elect_init, "elect-one-lds", 6, node_ceiling=100000)
    r2 = enumerate_unfair(lu_init, "lu-gather", 8, node_ceiling=100000)
    agree = True
    for init, alg in ((elect_init, "elect-one-lds"), (lu_init, "lu-gather")):
        for seed in range(40):
            sc = Scenario(
                robots=tuple(init),
                delta=Rat(1),
                scheduler="ssync-unfair",
                algorithm=alg,
                seed=900 + seed,
                step_budget=10000,
                policy="rigid",
            )
            out = run_with_checks(sc, ("monotone",))
            if not out.ok:
                agree = False
            points = [p for p, _ in TraceData.of(out.trace).changes[-1][1].entries]
            if alg == "elect-one-lds" and not is_on_lds(points):
                agree = False
            if alg == "lu-gather" and len(set(points)) != 1:
                agree = False
    ok = (
        r1.passed
        and r2.passed
        and not r1.extras["aborted"]
        and not r2.extras["aborted"]
        and r1.extras["unfinished"] == 0
        and r2.extras["unfinished"] == 0
        and agree
    )
    report(
        7,
        ok,
        f"elect: {r1.extras['nodes']} nodes/{r1.extras['edges']} edges, "
        f"lu: {r2.extras['nodes']}/{r2.extras['edges']}, randomized agrees",
    )


# -- criterion 8: table conformance --------------------------------------------


def _transition(algorithm, entries, activated, fractions, delta):
    spec = get_algorithm(algorithm)
    w = SyncWorld([pt(*p) for p, _ in entries], [c for _, c in entries])
    before = w.config()
    enab = enabled_ids(w, spec)
    assert set(activated) <= set(enab), f"activated {activated} not all enabled {enab}"
    w2 = ssync_round(w, spec, activated, {i: Rat(*f) if isinstance(f, tuple) else Rat(f) for i, f in fractions.items()}, delta)
    return before, w2.config()


def _assert_row(name, potential, before, after, dec, inc):
    pb, pa = potential(before), potential(after)
    assert lex_less(pa, pb) is Cmp.LESS, f"{name}: no lexicographic decrease"
    first = dec[0]
    assert compare_values(pa[first], pb[first]) is Cmp.LESS, f"{name}: f{first+1} not strictly down"
    for i in dec:
        assert compare_values(pa[i], pb[i]) in (Cmp.LESS, Cmp.EQUAL), f"{name}: f{i+1} went up"
    strict_inc = False
    for i in inc:
        c = compare_values(pa[i], pb[i])
        assert c in (Cmp.GREATER, Cmp.EQUAL), f"{name}: listed increase f{i+1} went down"
        strict_inc = strict_inc or c is Cmp.GREATER
    assert not inc or strict_inc, f"{name}: no listed component increased"
    for i in range(first):
        assert compare_values(pa[i], pb[i]) is Cmp.EQUAL, f"{name}: f{i+1} changed before the lead"


# Table 1: line-election transitions, one synthesized instance per row.
SQ = [((0, 0), "O"), ((2, 0), "O"), ((2, 2), "O"), ((0, 2), "O")]
RECT = [((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O")]
TABLE_1 = [
    # (name, entries, activated, fractions, dec, inc)
    ("s&nc (f2,none)", SQ + [((1, 0), "O")], [4], {4: (1, 2)}, [1], []),
    ("a&nc (f3&f5,f4)", RECT + [((1, (1, 4)), "O")], [4], {4: 1}, [2, 4], [3]),
    ("a&nc (f5,none)", RECT + [((1, (1, 4)), "O")], [4], {4: (1, 2)}, [4], []),
    ("s&c (f1,none)", SQ, [0, 1, 2, 3], {i: (1, 2) for i in range(4)}, [0], []),
    ("s&c (f2,none)", SQ + [((0, 0), "O")], [4], {4: (1, 2)}, [1], []),
    (
        "s&c (f1&f2,f3-5)",
        SQ + [((1, 1), "O")],
        [0],
        {0: (1, 2)},
        [0, 1],
        [2, 3, 4],
    ),
    ("s&c (f1&f2,none) onLDS", SQ, [0, 1, 2, 3], {i: 1 for i in range(4)}, [0, 1], []),
    (
        "a&c (f1&f3-5,f2)",
        [
            (((-1, 2), 1), "O"),
            ((0, 0), "O"),
            ((2, 0), "O"),
            ((2, 2), "O"),
            ((0, 2), "O"),
            ((1, 0), "O"),
        ],
        [0],
        {0: 1},
        [0, 2, 3, 4],
        [1],
    ),
    (
        "a&c (f1&f4,none)",
        [((0, 0), "O"), ((10, 0), "O"), ((9, 3), "O"), ((0, 3), "O")],
        [0],
        {0: 1},
        [0, 3],
        [],
    ),
    (
        "a&c (f4,none)",
        RECT + [((4, 1), "O")],
        [4],
        {4: (1, 2)},
        [3],
        [],
    ),
    ("a&c (f1&f3-5,none) onLDS", RECT, [0, 2], {0: 1, 2: 1}, [0, 2, 3, 4], []),
]


def test_criterion_8_table_1_rows():
    for name, entries, activated, fracs, dec, inc in TABLE_1:
        before, after = _transition("elect-one-lds", entries, activated, fracs, Rat(1, 4))
        _assert_row(name, potential_f, before, after, dec, inc)
    report(8.1, True, f"all {len(TABLE_1)} line-election rows verified")


# Table 2: two-color gathering transitions.
TABLE_2 = [
    (
        "AA+A -> AA+A (g5,none)",
        [((0, 0), "A"), ((2, 0), "A"), ((8, 0), "A")],
        [1],
        {1: (1, 2)},
        [4],
        [],
    ),
    (
        "AA+A -> AA (g2-5,none)",
        [((0, 0), "A"), ((2, 0), "A"), ((8, 0), "A")],
        [1],
        {1: 1},
        [1, 2, 3, 4],
        [],
    ),
    (
        "AA -> AB+A (g3,g4)",
        [((0, 0), "A"), ((0, 0), "A"), ((8, 0), "A"), ((8, 0), "A")],
        [0],
        {0: (1, 2)},
        [2],
        [3],
    ),
    (
        "AA -> AB_mA (g3,g4)",
        [((0, 0), "A"), ((0, 0), "A"), ((8, 0), "A"), ((8, 0), "A")],
        [0],
        {0: 1},
        [2],
        [3],
    ),
    (
        "AA -> AB*B (g1-4,none)",
        [((0, 0), "A"), ((8, 0), "A"), ((8, 0), "A")],
        [0],
        {0: (1, 2)},
        [0, 1, 2, 3],
        [],
    ),
    (
        "AA -> BB*B (g2,g4)",
        [((0, 0), "A"), ((8, 0), "A")],
        [0, 1],
        {0: (1, 2), 1: (1, 2)},
        [1],
        [3],
    ),
    (
        "AA -> Gather (g2&g3,g4)",
        [((0, 0), "A"), ((8, 0), "A")],
        [0, 1],
        {0: 1, 1: 1},
        [1, 2],
        [3],
    ),
    (
        "BB*B -> (A|B)..(A|B) (g4,none)",
        [((0, 0), "B"), ((0, 0), "B"), ((8, 0), "B"), ((8, 0), "B")],
        [0, 2],
        {},
        [3],
        [],
    ),
    (
        "BB*B -> AB*B (g1-4,none)",
        [((0, 0), "B"), ((0, 0), "B"), ((8, 0), "B"), ((8, 0), "B")],
        [0],
        {},
        [0, 1, 2, 3],
        [],
    ),
    (
        "AB+A -> AB+A (g3,none)",
        [((0, 0), "A"), ((2, 0), "B"), ((8, 0), "A")],
        [1],
        {1: (1, 2)},
        [2],
        [],
    ),
    (
        "AB_mA -> AB+A-ish (g3,g4)",
        [((0, 0), "A"), ((0, 0), "A"), ((4, 0), "B"), ((8, 0), "A"), ((8, 0), "A")],
        [0],
        {0: (1, 2)},
        [2],
        [3],
    ),
    (
        "AB_mA -> AB*B (g1-4,none)",
        [((0, 0), "A"), ((4, 0), "B"), ((8, 0), "A"), ((8, 0), "A")],
        [0],
        {0: (1, 2)},
        [0, 1, 2, 3],
        [],
    ),
    (
        "AB_mA -> BB*B (g2,g4)",
        [((0, 0), "A"), ((4, 0), "B"), ((8, 0), "A")],
        [0, 2],
        {0: (1, 2), 2: (1, 2)},
        [1],
        [3],
    ),
    (
        "AB_mA -> Gather (g2&g3,g4)",
        [((0, 0), "A"), ((4, 0), "B"), ((8, 0), "A")],
        [0, 2],
        {0: 1, 2: 1},
        [1, 2],
        [3],
    ),
    (
        "AB*B -> AB*B (g1,none)",
        [((0, 0), "A"), ((2, 0), "B"), ((8, 0), "B")],
        [2],
        {2: (1, 2)},
        [0],
        [],
    ),
    (
        "AB*B -> Gather (g1,none)",
        [((0, 0), "A"), ((2, 0), "B")],
        [1],
        {1: 1},
        [0],
        [],
    ),
]


def test_criterion_8_table_2_rows():
    for name, entries, activated, fracs, dec, inc in TABLE_2:
        before, after = _transition("lu-gather", entries, activated, fracs, Rat(1))
        _assert_row(name, potential_g, before, after, dec, inc)
    report(8.2, True, f"all {len(TABLE_2)} two-color gathering rows verified")


# -- criterion 9: equivariance --------------------------------------------------


def test_criterion_9_equivariance():
    mismatches = 0
    total = 0
    for alg in ("elect-one-lds", "lu-gather", "six-color", "lu-gather-async", "three-color"):
        spec = get_algorithm(alg)
        rng = random.Random(0x5EED ^ zlib.crc32(alg.encode()) % 65536)
        done = 0
        while done < 50:
            cfg, pos, light = _random_view(rng, alg)
            if snapshot_has_convention_ties(cfg):
                continue
            done += 1
            frames = [random_frame(rng) for _ in range(20)]
            rep = check_equivariance(spec, cfg, pos, light, frames)
            total += rep.extras["frames"]
            mismatches += len(rep.violations)
    report(9, mismatches == 0, f"{total} frame checks, 0 mismatches")


# -- criterion 10: determinism ---------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    import pathlib

    scen_dir = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    ok = True
    for scen in ("square.json", "rectangle-unfair.json"):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cli_main(["run", "--scenario", str(scen_dir / scen), "--out", str(a)])
        cli_main(["run", "--scenario", str(scen_dir / scen), "--out", str(b)])
        ok = ok and a.read_bytes() == b.read_bytes()
    report(10, ok, "byte-identical traces for repeated runs")
