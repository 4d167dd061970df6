"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lumigather import engine  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def _tiny(name):
    """The workload cut to its first and last stratum, one cycle of each."""
    wl = workloads.WORKLOADS[name]
    strata = tuple(dict.fromkeys((wl.strata[0], wl.strata[-1])))
    return dataclasses.replace(wl, strata=strata, corpus_cycles=1, pool_cycles=1)


def _args(name, trace):
    return argparse.Namespace(workload=name, seed=3, seconds=0.01, trace=trace, backend="auto")


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    correct, attempted, failed, metrics, report = run._end_to_end(
        _args(name, 0), _tiny(name), workloads
    )
    assert correct and failed == 0 and attempted >= 1
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert report["fail_ratio"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_digest_and_unwraps(name):
    original_run = engine.run
    correct, attempted, failed, metrics, report = run._per_layer(
        _args(name, 1), _tiny(name), workloads
    )
    assert report["digest_untraced"] == report["digest_traced"]
    assert report["wrappers_left"] == []
    assert engine.run is original_run
    assert correct and failed == 0
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert metrics["bench.trace_overhead"][0] > 0


def test_wrappers_removed_after_a_call_raises():
    before = tracer.attribute_snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(ValueError):
            engine.Trace.parse("")
    finally:
        tr.remove()
    assert tracer.verify_removed(before) == []
    assert tr.calls("engine.trace_parse") == 1
    assert tr.root_s > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        DECLARED["command"]
        + ["--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_missing_backend_fails_loudly():
    from lumigather import rational

    if rational.BACKEND == "gmpy2":
        pytest.skip("gmpy2 is importable here")
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "enumerate", "--backend", "gmpy2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert "backend" in out.stderr and out.stdout == ""
