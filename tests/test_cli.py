import json
from pathlib import Path

import pytest

from lumigather import fuzz as fuzz_module
from lumigather.checker import CHECKS, TraceData
from lumigather.cli import main
from lumigather.engine import Trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestRun:
    def test_bundled_square_gathers(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(["run", "--scenario", str(SCENARIOS / "square.json"), "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["gathered"] is True
        assert set("".join(summary["colors_used"])) <= {"S", "M", "E"}
        assert out.exists()

    def test_unfair_elect_reaches_line(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["run", "--scenario", str(SCENARIOS / "rectangle-unfair.json"), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "fixpoint"
        assert summary["final_cc"] is not None  # collinear at the end

    def test_malformed_rational_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads((SCENARIOS / "square.json").read_text())
        data["delta"] = "1/0"
        bad.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(bad)]) == 2

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

    @pytest.mark.parametrize("cmd", ["run", "enumerate"])
    @pytest.mark.parametrize("adversary", ["random", None, ["random", 3]])
    def test_non_object_adversary_exits_2(self, tmp_path, capsys, cmd, adversary):
        bad = tmp_path / "bad.json"
        data = json.loads((SCENARIOS / "triangle-enum.json").read_text())
        data["adversary"] = adversary
        bad.write_text(json.dumps(data))
        assert main([cmd, "--scenario", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario error: adversary must be an object")


class TestFuzz:
    def test_small_fuzz_clean(self, capsys):
        code = main(
            [
                "fuzz", "--algorithm", "three-color", "--scheduler", "async",
                "--runs", "3", "--seed", "5", "--n-min", "2", "--n-max", "3",
                "--coord-bound", "5",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pass"] is True and summary["runs"] == 3

    def test_zero_runs_usage_error(self):
        assert main(["fuzz", "--algorithm", "three-color", "--runs", "0"]) == 2

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
    def test_check_all_on_trace(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / "square.json"), "--out", str(out)])
        capsys.readouterr()
        code = main(["check", "--trace", str(out), "--check", "replay,cycle,switch,gather"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert all(l["pass"] for l in lines)

    def test_unreadable_trace_exits_2(self, tmp_path):
        assert main(["check", "--trace", str(tmp_path / "nope.jsonl")]) == 2

    def test_unknown_check_exits_2_before_any_report(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / "square.json"), "--out", str(out)])
        capsys.readouterr()
        assert main(["check", "--trace", str(out), "--check", "replay,bogus"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err and captured.out == ""

    def test_monotone_f_accepted(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / "rectangle-unfair.json"), "--out", str(out)])
        capsys.readouterr()
        assert main(["check", "--trace", str(out), "--check", "monotone-f"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["check"] == "monotone-f"

    @pytest.mark.parametrize(
        "scenario", ["square.json", "rectangle-unfair.json", "line-lu.json", "segment100.json"]
    )
    def test_check_all_selects_applicable_set(self, tmp_path, capsys, scenario):
        # "all" must not apply checks that are meaningless for the trace's
        # algorithm/scheduler (e.g. round-based monotonicity on async runs)
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / scenario), "--out", str(out)])
        capsys.readouterr()
        assert main(["check", "--trace", str(out), "--check", "all"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert all(l["pass"] for l in lines)

    def _trace_lines(self, tmp_path, capsys, scenario="square.json"):
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / scenario), "--out", str(out)])
        capsys.readouterr()
        return [json.loads(l) for l in out.read_text().splitlines()]

    def _write(self, path, lines):
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        return str(path)

    @pytest.mark.parametrize("args", [["--check", "monotone-g"], ["--which", "g"]])
    @pytest.mark.parametrize("scenario", ["rectangle-unfair.json", "line-lu.json"])
    def test_potential_g_off_the_line_is_reported(self, tmp_path, capsys, scenario, args):
        lines = self._trace_lines(tmp_path, capsys, scenario)
        if scenario == "line-lu.json":
            # an honest line-lu trace stays on the line: lift a robot off it
            cfg = next(l for l in lines if l["kind"] == "Config" and l["t"] == 1)
            cfg["entries"][0][1] = "1/1"
        path = self._write(tmp_path / "off.jsonl", lines)
        assert main(["check", "--trace", path] + args) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        reports = [json.loads(l) for l in captured.out.splitlines()]
        (g,) = [r for r in reports if r["check"] == "monotone-g"]
        assert not g["pass"] and g["violations"]
        assert all("off the line" in v["detail"] for v in g["violations"])

    def test_robot_id_out_of_range_exits_2(self, tmp_path, capsys):
        lines = self._trace_lines(tmp_path, capsys)
        i = next(k for k, l in enumerate(lines) if l["kind"] == "MoveEnd")
        lines[i]["robot"] = 9  # square.json has four robots
        bad = self._write(tmp_path / "bad.jsonl", lines)
        assert main(["check", "--trace", bad]) == 2
        err = capsys.readouterr().err
        assert "robot id 9" in err and "Traceback" not in err
        assert main(["plot", "--trace", bad, "--out", str(tmp_path / "p.svg")]) == 2

    @pytest.mark.parametrize("key", ["algorithm", "scheduler", "delta", "n", "robots"])
    def test_header_key_missing_exits_2(self, tmp_path, capsys, key):
        lines = self._trace_lines(tmp_path, capsys)
        del lines[0][key]
        bad = self._write(tmp_path / "bad.jsonl", lines)
        assert main(["check", "--trace", bad]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage", ["config-without-t", "robot-without-x", "non-object-line", "no-progress"]
    )
    def test_malformed_line_exits_2(self, tmp_path, capsys, damage):
        lines = self._trace_lines(tmp_path, capsys)
        if damage == "config-without-t":
            del next(l for l in lines if l["kind"] == "Config")["t"]
        elif damage == "robot-without-x":
            del lines[0]["robots"][1]["x"]
        elif damage == "no-progress":
            lines.remove(next(l for l in lines if l["kind"] == "MoveProgress"))
        else:
            lines.insert(3, [1, 2])
        bad = self._write(tmp_path / "bad.jsonl", lines)
        assert main(["check", "--trace", bad]) == 2
        assert main(["plot", "--trace", bad, "--out", str(tmp_path / "p.svg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "damage,message",
        [
            ("robots-not-array", "robots is not a JSON array"),
            ("config-entry-not-array", "malformed Config entries"),
        ],
    )
    def test_value_of_wrong_type_exits_2(self, tmp_path, capsys, damage, message):
        lines = self._trace_lines(tmp_path, capsys)
        if damage == "robots-not-array":
            lines[0]["robots"] = 5
        else:
            next(l for l in lines if l["kind"] == "Config")["entries"][0] = 5
        bad = self._write(tmp_path / "bad.jsonl", lines)
        assert main(["check", "--trace", bad]) == 2
        assert main(["plot", "--trace", bad, "--out", str(tmp_path / "p.svg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count(message) == 2

    def test_no_robots_exits_2(self, tmp_path, capsys):
        header = dict(self._trace_lines(tmp_path, capsys)[0], n=0, robots=[])
        bad = self._write(tmp_path / "bad.jsonl", [header, {"kind": "End", "t": 0, "status": "budget"}])
        assert main(["check", "--trace", bad]) == 2
        assert main(["plot", "--trace", bad, "--out", str(tmp_path / "p.svg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("at least one robot") == 2

    def test_trace_without_config_lines(self, tmp_path, capsys):
        lines = self._trace_lines(tmp_path, capsys)
        bare = self._write(
            tmp_path / "bare.jsonl", [l for l in lines if l["kind"] != "Config"]
        )
        assert main(["check", "--trace", bare, "--check", "gather"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["violations"][0]["detail"] == "trace has no Config line"
        svg = tmp_path / "bare.svg"
        assert main(["plot", "--trace", bare, "--out", str(svg)]) == 0
        assert "<circle" in svg.read_text()

    def test_annotated_copy_has_potential_lines(self, tmp_path, capsys):
        # rectangle-unfair starts off the line and ends on it: f scores every
        # configuration, g only the on-LDS ones
        out = tmp_path / "t.jsonl"
        main(["run", "--scenario", str(SCENARIOS / "rectangle-unfair.json"), "--out", str(out)])
        trace = Trace.load(out)
        td = TraceData.of(trace)
        for which in ("f", "g"):
            annotated = tmp_path / f"annot-{which}.jsonl"
            args = ["check", "--trace", str(out), "--check", "replay", "--which", which]
            assert main(args + ["--annotate", str(annotated)]) == 0
            lines = [json.loads(l) for l in annotated.read_text().splitlines()]
            assert [l for l in lines if l["kind"] != "Potential"] == trace.lines
            scored = []
            for prev, line in zip(lines, lines[1:]):
                if line["kind"] == "Potential":
                    assert prev["kind"] == "Config" and prev["t"] == line["t"]
                    assert len(line[which]) == 5
                    scored.append(line["t"])
            expected = [t for t in td.config_times if which == "f" or td.config_at(t).on_lds]
            assert scored == expected
            capsys.readouterr()
            assert main(["check", "--trace", str(annotated), "--check", "replay,monotone"]) == 0
        assert 0 < len(expected) < len(td.config_times)  # g skipped some configurations


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

    def test_unreadable_exits_2(self, tmp_path):
        assert main(["plot", "--trace", str(tmp_path / "x"), "--out", str(tmp_path / "y")]) == 2


class TestEnumerate:
    def test_triangle_scenario(self, capsys):
        code = main(
            ["enumerate", "--scenario", str(SCENARIOS / "triangle-enum.json"), "--depth", "6"]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["pass"] is True

    @pytest.mark.parametrize("scenario", ["segment100.json", "square.json"])
    def test_algorithm_without_a_decreasing_potential_exits_2(self, capsys, scenario):
        code = main(["enumerate", "--scenario", str(SCENARIOS / scenario), "--depth", "4"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("enumerate: enumeration judges elect-one-lds and lu-gather")
