import hashlib
import json
from pathlib import Path

import pytest

from lumigather import fuzz as fuzz_module
from lumigather.checker import CHECKS, TraceData, validate_trace
from lumigather.cli import main, render_svg
from lumigather.engine import Scenario, Trace, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# sha256 of ``render_svg`` on the trace of each bundled scenario
SVG_DIGESTS = {
    "line-lu": "a150f9ebbacff842df2766f18c6ae2af0f77fc7d75cf0062ba79dbcc3b283dd0",
    "rectangle-unfair": "84ff2136ff6afe3412e8b209683a2a2c90069b8c4e1c60b7cf1412c60bb52533",
    "segment100": "474f34a489d852c191b11992c4407707d4dbcb2954f2dbbba7550cd68a914a8a",
    "square": "ee9815ef3c44d7c411b365223eb261bd222e08e8750130562a7d68a55fa587e2",
    "triangle-enum": "31bc9a0f2270be592fd60ca77a8f85451e00a9ea135384a0db41025c6a4682f2",
}

class TestRun:
    @pytest.mark.parametrize("cmd", ["run", "enumerate"])
    def test_scenario_that_is_not_json_exits_2(self, tmp_path, capsys, cmd):
        path = tmp_path / "s.json"
        path.write_text("{")
        assert main([cmd, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario error: invalid scenario JSON: ")

    def test_budget_exhaustion_exits_3(self, tmp_path, capsys):
        short = tmp_path / "short.json"
        data = json.loads((SCENARIOS / "square.json").read_text())
        data["step_budget"] = 5
        short.write_text(json.dumps(data))
        out = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", str(short), "--out", str(out)]) == 3
        assert out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["run", "--scenario", str(SCENARIOS / "square.json")]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_overrides(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            [
                "run",
                "--scenario", str(SCENARIOS / "square.json"),
                "--seed", "123",
                "--out", str(out),
            ]
        )
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["adversary"]["seed"] == 123

    @pytest.mark.parametrize(
        "scenario,flag,value,key,written,code",
        [
            ("square.json", "--steps", "60", "step_budget", 60, 3),
            ("square.json", "--delta", "1/2", "delta", "1/2", 0),
            ("rectangle-unfair.json", "--scheduler", "fsync", "scheduler", "fsync", 0),
            ("segment100.json", "--algorithm", "three-color", "algorithm", "three-color", 0),
            ("square.json", "--fairness-bound", "5", "fairness_bound", 5, 0),
            ("square.json", "--move-span-cap", "2", "move_span_cap", 2, 0),
        ],
    )
    def test_each_override_reaches_the_header(
        self, tmp_path, capsys, scenario, flag, value, key, written, code
    ):
        out = tmp_path / "t.jsonl"
        args = ["run", "--scenario", str(SCENARIOS / scenario), flag, value, "--out", str(out)]
        assert main(args) == code
        header = json.loads(out.read_text().splitlines()[0])
        assert header[key] == written
        assert validate_trace(Trace.load(out)).passed


class TestFuzz:
    @pytest.mark.parametrize(
        "bad",
        [
            ["--policy", "bogus"],
            ["--n-min", "0", "--n-max", "0"],
            ["--n-min", "5", "--n-max", "3"],
            ["--coord-bound", "-1"],
            ["--steps", "0"],
            ["--delta", "0"],
        ],
    )
    def test_bad_argument_exits_2_before_any_run(self, monkeypatch, capsys, bad):
        def no_run(scenario):
            raise AssertionError("a run started")

        monkeypatch.setattr(fuzz_module, "run", no_run)
        assert main(["fuzz", "--algorithm", "three-color", "--runs", "2", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("fuzz: ")

    @pytest.mark.parametrize("algorithm", ["elect-one-lds", "lu-gather"])
    def test_default_checks_pass_under_async(self, capsys, algorithm):
        # round-based monotonicity is not a default check of an async run
        code = main(
            [
                "fuzz", "--algorithm", algorithm, "--scheduler", "async",
                "--runs", "3", "--seed", "1",
            ]
        )
        summary = json.loads(capsys.readouterr().out)
        assert code == 0 and summary["pass"] is True

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_every_check_name_accepted(self, capsys, name):
        code = main(
            [
                "fuzz", "--algorithm", "three-color", "--scheduler", "async",
                "--runs", "1", "--seed", "5", "--n-min", "2", "--n-max", "2",
                "--coord-bound", "5", "--check", name,
            ]
        )
        assert code in (0, 1)
        assert json.loads(capsys.readouterr().out)["runs"] == 1

    def test_unknown_check_exits_2_before_any_run(self, monkeypatch, capsys):
        def no_run(scenario):
            raise AssertionError("a run started")

        monkeypatch.setattr(fuzz_module, "run", no_run)
        args = ["fuzz", "--algorithm", "three-color", "--runs", "2", "--check", "replay,bogus"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err and captured.out == ""
        with pytest.raises(ValueError, match="bogus"):
            fuzz_module.fuzz("three-color", "async", runs=2, seed=0, checks=("bogus",))


class TestCheck:
    def test_unknown_check_exits_2_before_any_report(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / "square.json"), "--out", str(out)])
        capsys.readouterr()
        assert main(["check", "--trace", str(out), "--check", "replay,bogus"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err and captured.out == ""

    def _trace_lines(self, tmp_path, capsys, scenario="square.json"):
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / scenario), "--out", str(out)])
        capsys.readouterr()
        return [json.loads(l) for l in out.read_text().splitlines()]

    def _write(self, path, lines):
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        return str(path)

    @staticmethod
    def _lift(lines):
        """Lift robot 1's move in the round at t=1 of line-lu.json off the line.

        The robot shows (9/4, 1) at t=2 and leaves it at t=3, so only the
        configuration of t=2 is off the line; the Config lines are kept.
        """
        begin = next(l for l in lines if l["kind"] == "MoveBegin" and l["t"] == 1)
        end = next(l for l in lines if l["kind"] == "MoveEnd" and l["t"] == 1)
        assert begin["robot"] == end["robot"] == 1 and begin["reach"] == ["9/4", "0/1"]
        begin["reach"][1] = end["pos"][1] = "1/1"

    @pytest.mark.parametrize("args", [["--check", "monotone-g"]])
    @pytest.mark.parametrize("scenario", ["rectangle-unfair.json", "line-lu.json"])
    def test_potential_g_off_the_line_is_reported(self, tmp_path, capsys, scenario, args):
        lines = self._trace_lines(tmp_path, capsys, scenario)
        if scenario == "line-lu.json":
            # an honest line-lu trace stays on the line: lift a robot off it
            self._lift(lines)
        path = self._write(tmp_path / "off.jsonl", lines)
        assert main(["check", "--trace", path] + args) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        reports = [json.loads(l) for l in captured.out.splitlines()]
        (g,) = [r for r in reports if r["check"] == "monotone-g"]
        assert not g["pass"] and g["violations"]
        assert all("off the line" in v["detail"] for v in g["violations"])

    def test_trace_without_config_lines(self, tmp_path, capsys):
        # replay alone reads the Config lines: it reports each missing one,
        # and every other check passes on the events
        lines = self._trace_lines(tmp_path, capsys)
        bare = self._write(
            tmp_path / "bare.jsonl", [l for l in lines if l["kind"] != "Config"]
        )
        assert main(["check", "--trace", bare]) == 1
        reports = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["check"] for r in reports if not r["pass"]] == ["replay"]
        times = [l["t"] for l in lines if l["kind"] == "Config"]
        assert reports[0]["violations"] == [
            {"t": t, "detail": f"no Config line at t={t}, where the configuration changes"}
            for t in times
        ]
        svg = tmp_path / "bare.svg"
        assert main(["plot", "--trace", bare, "--out", str(svg)]) == 0
        assert "<circle" in svg.read_text()

    def test_annotated_copy_has_potential_lines(self, tmp_path, capsys):
        # the annotation is the algorithm's own potential: f for elect-one-lds
        # scores every configuration, g for lu-gather only those on the line
        for scenario, which in (("rectangle-unfair.json", "f"), ("line-lu.json", "g")):
            lines = self._trace_lines(tmp_path, capsys, scenario)
            if which == "g":
                # an honest line-lu trace stays on the line: lift a robot off it
                self._lift(lines)
            path = self._write(tmp_path / f"{which}.jsonl", lines)
            annotated = tmp_path / f"annot-{which}.jsonl"
            args = ["check", "--trace", path, "--check", "replay", "--annotate", str(annotated)]
            assert main(args) == (0 if which == "f" else 1)
            out = [json.loads(l) for l in annotated.read_text().splitlines()]
            assert [l for l in out if l["kind"] != "Potential"] == lines
            scored = []
            for prev, line in zip(out, out[1:]):
                if line["kind"] == "Potential":
                    assert prev["kind"] == "Config" and prev["t"] == line["t"]
                    assert len(line[which]) == 5
                    scored.append(line["t"])
            config_times = [l["t"] for l in lines if l["kind"] == "Config"]
            assert scored == [t for t in config_times if which == "f" or t != 2]
            capsys.readouterr()
        annotated = str(tmp_path / "annot-f.jsonl")
        assert main(["check", "--trace", annotated, "--check", "replay,monotone"]) == 0


class TestPlot:
    def test_svg_deterministic(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / "square.json"), "--out", str(trace)])
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--trace", str(trace), "--out", str(s1)]) == 0
        assert main(["plot", "--trace", str(trace), "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        body = s1.read_text()
        assert body.startswith("<svg") and "polyline" in body or "line" in body

    def test_single_config_trace_plots(self, tmp_path):
        # single robot gathers immediately: minimal SVG with start position
        sc = {
            "robots": [{"x": "1/1", "y": "2/1", "color": "S"}],
            "delta": "1/1", "scheduler": "async", "algorithm": "three-color",
            "adversary": {"policy": "random", "seed": 0}, "step_budget": 100,
        }
        sp = tmp_path / "one.json"
        sp.write_text(json.dumps(sc))
        trace = tmp_path / "one.jsonl"
        main(["run", "--scenario", str(sp), "--out", str(trace)])
        svg = tmp_path / "one.svg"
        assert main(["plot", "--trace", str(trace), "--out", str(svg)]) == 0
        assert "<circle" in svg.read_text()

    def test_a_later_end_adds_no_point(self):
        # End moved from t=154 to t=40000: replay fails the trace, and its plot
        # stops at the last instant at which a robot shows a change
        tr = run(Scenario.load(SCENARIOS / "square.json"))
        assert TraceData.of(tr).end_time == 154
        forged = Trace(tr.lines[:-1] + [dict(tr.lines[-1], t=40000)])
        assert render_svg(TraceData(forged)) == render_svg(TraceData(tr))

    @pytest.mark.parametrize("name", sorted(SVG_DIGESTS))
    def test_svg_of_each_bundled_scenario_is_pinned(self, name):
        svg = render_svg(TraceData.of(run(Scenario.load(SCENARIOS / f"{name}.json"))))
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == SVG_DIGESTS[name]


class TestEnumerate:
    @pytest.mark.parametrize("scenario", ["segment100.json", "square.json"])
    def test_algorithm_without_a_decreasing_potential_exits_2(self, capsys, scenario):
        code = main(["enumerate", "--scenario", str(SCENARIOS / scenario), "--depth", "4"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("enumerate: enumeration judges elect-one-lds and lu-gather")
