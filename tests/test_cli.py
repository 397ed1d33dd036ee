"""CLI: dispatch, CSV/JSON round-trips, batch semantics, exit codes."""

import argparse
import json
import math
import os
import re
import shlex
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kickedrotor import cli
from kickedrotor import quantum2d as q2
from kickedrotor import quantum3d as q3
from kickedrotor.cli import ConfigError, ScenarioConfig, batch, run, write_envelope


_COOKBOOK = os.path.join(os.path.dirname(__file__), os.pardir, "cookbook", "figures.jsonl")


def cookbook_lines():
    with open(_COOKBOOK, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip() and not line.startswith("#")]


def cfg_2d(tmp_path, **kw):
    base = dict(command="quantum2d", P=50.0, s=1.0, grid_points=64,
                output_path=str(tmp_path / "out.csv"))
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfig:
    def test_tau_from_s(self):
        c = ScenarioConfig(command="quantum2d", P=50.0, s=2.0, output_path="x.csv")
        assert c.resolved_tau() == pytest.approx(0.04)

    def test_missing_time_rejected(self):
        c = ScenarioConfig(command="quantum2d", P=50.0, output_path="x.csv")
        with pytest.raises(ConfigError, match="tau"):
            c.validate()

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="field 'command'"):
            ScenarioConfig(command="zap", output_path="x.csv").validate()

    def test_grid_minimum(self):
        with pytest.raises(ConfigError, match="grid_points"):
            ScenarioConfig(command="quantum2d", P=1.0, s=1.0, grid_points=1,
                           output_path="x.csv").validate()

    def test_round_trip_dict(self):
        c = ScenarioConfig(command="compare", P=50.0, s=1.0,
                           methods=("exact", "pearcey"), window=(0.0, 0.3),
                           output_path="x.csv")
        d = c.to_dict()
        c2 = ScenarioConfig.from_dict(json.loads(json.dumps(d)))
        assert c2 == c

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioConfig.from_dict({"command": "quantum2d", "zap": 1})

    @pytest.mark.parametrize("field,value", [
        ("P", "10"), ("P", True), ("P", math.nan), ("P", math.inf), ("s", "1"),
        ("tau", -math.inf), ("u0", None), ("radius", [2.0]), ("P_prime", -math.inf),
        ("P_prime", math.nan), ("grid_points", 8.5), ("grid_points", True),
        ("grid_points", "16"), ("dim", 2.0), ("seed", None), ("kicks", 1.5),
        ("command", 3), ("coupling", None), ("method", ["airy"]), ("output_path", 7)])
    def test_mistyped_field_rejected(self, field, value):
        c = ScenarioConfig(command="quantum2d", P=10.0, s=1.0, output_path="x.csv")
        setattr(c, field, value)
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            c.validate()

    def test_numbers_of_either_type_accepted(self):
        c = ScenarioConfig(command="squeeze", P_prime=math.inf, u0=2, w0=3,
                           kicks=np.int64(16), output_path="x.csv")
        assert c.validate() is c

    @pytest.mark.parametrize("dim", [0, 1, 4])
    def test_dim_must_be_two_or_three(self, dim):
        c = ScenarioConfig(command="classical", P=10.0, s=1.0, dim=dim, output_path="x.csv")
        with pytest.raises(ConfigError, match="field 'dim'"):
            c.validate()

    @pytest.mark.parametrize("field,value", [("methods", None), ("methods", 5), ("window", None)])
    def test_list_fields_must_be_lists(self, field, value):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            ScenarioConfig.from_dict({"command": "compare", field: value})

    @pytest.mark.parametrize("window", [["0", True], ["0", 1.0], [0.0, "1"], [False, 1.0],
                                        [0.0, None]])
    def test_window_elements_must_be_numbers(self, window):
        # float() would read ["0", true] as the window [0, 1]
        c = ScenarioConfig.from_dict({"command": "quantum2d", "P": 10.0, "s": 1.0,
                                      "window": window, "output_path": "x.csv"})
        with pytest.raises(ConfigError, match="field 'window'"):
            c.validate()

    def test_compare_method_must_be_a_name(self):
        c = ScenarioConfig(command="compare", P=10.0, s=1.0, methods=("exact", ["airy"]),
                           output_path="x.csv")
        with pytest.raises(ConfigError, match="field 'methods'"):
            c.validate()


class TestRegistry:
    def test_subparsers_are_the_table_and_batch(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._COMMANDS) | {"batch"}

    def test_every_cookbook_line_validates(self):
        # parse and check only, no physics: guards the table and the config
        # fields against a rename that the cookbook would trip over
        lines = cookbook_lines()
        assert lines
        for d in lines:
            assert ScenarioConfig.from_dict(d).validate().command in cli._COMMANDS


# one scenario per command with only the fields it cannot do without: a
# command-line run of these flags and the batch line of these fields must
# be the same scenario
_REQUIRED = {
    "quantum2d": {"P": 20.0, "s": 1.0},
    "quantum3d": {"P": 20.0, "s": 1.2},
    "classical": {"P": 20.0, "s": 1.5},
    "thermal": {"P_prime": 5.0, "t_prime": 1.0},
    "semiclassical": {"P": 20.0, "s": 1.5},
    "squeeze": {},
    "compare": {"P": 20.0, "s": 1.0, "methods": ["exact", "classical"]},
}


_SPELLINGS = {"grid_points": "--grid", "P_prime": "--Pprime", "t_prime": "--st"}


def _argv(command, fields):
    return [command] + [f"{_SPELLINGS.get(k, '--' + k)}={','.join(v) if isinstance(v, list) else v}"
                        for k, v in fields.items()]


def _exit_code(argv):
    # argparse ends a command line it cannot parse with SystemExit(2)
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestOneSchema:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_command_line_run_is_the_batch_line(self, tmp_path, command):
        fields = _REQUIRED[command]
        assert cli.main(_argv(command, fields) + ["--out", str(tmp_path / "cli.csv")]) == 0
        f = tmp_path / "b.jsonl"
        f.write_text(json.dumps({"command": command, **fields, "output_path": "batch.csv"}) + "\n")
        _, index = batch(str(f), str(tmp_path))
        assert index[0]["status"] == "ok"
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "batch.csv").read_bytes()
        configs = [json.loads((tmp_path / n).read_text())["config"] for n in ("cli.json", "batch.json")]
        for c in configs:
            # a sidecar's full config loads: the fields the command does not
            # take hold their defaults
            assert ScenarioConfig.from_dict(c).validate().command == command
            del c["output_path"]
        assert configs[0] == configs[1]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_flags_are_the_fields(self, command):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        dests = [a.dest for a in sub._actions if a.dest != "help"]
        assert sorted(dests) == sorted([*cli._COMMANDS[command][1], "output_path"])

    @pytest.mark.parametrize("command,fields,named", [
        ("quantum2d", {"P": 20.0, "s": 1.0, "tau": 0.05}, "s"),
        ("quantum2d", {"P": 20.0, "s": 1.0, "particles": 500}, "particles"),
        ("thermal", {"P_prime": 5.0, "t_prime": 1.0, "tau": 0.05}, "tau"),
        # --P is no abbreviation of --Pprime
        ("thermal", {"P_prime": 5.0, "t_prime": 1.0, "P": 5.0}, "P")])
    def test_both_front_ends_refuse_the_same_fields(self, tmp_path, capsys, command, fields, named):
        fields = dict(fields, grid_points=8)
        assert _exit_code(_argv(command, fields) + ["--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert (f"--{named}=" in err or f"field '{named}'" in err) and "Traceback" not in err
        f = tmp_path / "b.jsonl"
        f.write_text(json.dumps({"command": command, **fields, "output_path": "b.csv"}) + "\n")
        assert cli.main(["batch", str(f), "--outdir", str(tmp_path)]) == 2
        index = json.loads((tmp_path / "b.index.json").read_text())
        assert index[0]["failure"] == "config" and f"field '{named}'" in index[0]["error"]
        assert not any((tmp_path / n).exists() for n in ("c.csv", "b.csv"))

    def test_readme_examples_parse(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            blocks = re.findall(r"```sh\n(.*?)```", fh.read(), flags=re.S)
        examples = []
        for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and "=" in words[0]:
                words.pop(0)  # an environment setting
            if words[:1] == ["kickedrotor"]:
                examples.append(words[1:])
        assert len(examples) >= 6
        for argv in examples:
            args = cli.build_parser().parse_args(argv)
            if args.command != "batch":
                ScenarioConfig(**{k: v for k, v in vars(args).items() if v is not None}).validate()


class TestRun:
    def test_peak_is_the_first_point_near_the_max(self):
        grid = np.arange(5.0)
        top = 1.0 + 4e-16
        summary = cli._peak_summary(grid, np.array([0.0, 1.0, 0.5, top, 0.0]))
        assert summary == {"peak_theta": 1.0, "peak_value": top}
        # infinite and NaN values are passed over: the peak is a finite value
        for bad in (math.inf, math.nan):
            summary = cli._peak_summary(grid, np.array([0.0, 1.0, bad, bad, 0.0]))
            assert summary == {"peak_theta": 1.0, "peak_value": 1.0}
        with pytest.raises(ValueError, match="no finite"):
            cli._peak_summary(grid[:2], np.array([math.nan, math.inf]))

    @pytest.mark.parametrize("name", ["fig06h", "fig10a"])
    def test_mirror_peak_reported_below_pi(self, tmp_path, name):
        # both 2D densities are symmetric about theta = pi, so their twin
        # maxima differ by rounding only; the one below pi is reported
        d = next(d for d in cookbook_lines() if d["output_path"].startswith(name))
        env = run(ScenarioConfig.from_dict(dict(d, output_path=str(tmp_path / "p.csv"))))
        vals = env.columns["density" if d["command"] == "quantum2d" else "density_exact"]
        assert env.summary["peak_theta"] <= math.pi
        assert env.summary["peak_value"] == np.max(vals)

    def test_quantum2d_focal_summary(self, tmp_path):
        env = run(cfg_2d(tmp_path, P=85.0))
        assert env.summary["peak_theta"] == pytest.approx(0.0)
        assert env.summary["peak_value"] == pytest.approx(0.4078 * math.sqrt(85), rel=0.05)
        assert env.summary["norm"] == pytest.approx(1.0, abs=1e-10)

    def test_compare_exact_pearcey(self, tmp_path):
        env = run(ScenarioConfig(
            command="compare", P=50.0, s=1.0, methods=("exact", "pearcey"),
            window=(0.0, 0.3), grid_points=40,
            output_path=str(tmp_path / "cmp.csv")))
        assert env.summary["max_rel_gap_exact_pearcey"] < 0.10
        assert set(env.columns) == {"theta", "density_exact", "density_pearcey"}

    def test_squeeze_slope_summary(self, tmp_path):
        env = run(ScenarioConfig(command="squeeze", kicks=1000,
                                 output_path=str(tmp_path / "sq.csv")))
        assert env.summary["loglog_slope"] == pytest.approx(-0.5, abs=0.05)

    def test_thermal_summary(self, tmp_path):
        env = run(ScenarioConfig(command="thermal", P_prime=10.0, t_prime=1.0,
                                 particles=20000, seed=1, grid_points=100,
                                 output_path=str(tmp_path / "th.csv")))
        assert 0 < env.summary["orientation"] < 1.0

    def test_semiclassical_validity_annotation(self, tmp_path):
        env = run(ScenarioConfig(command="semiclassical", P=50.0, s=1.0,
                                 method="pearcey", window=(0.0, 0.3),
                                 grid_points=16,
                                 output_path=str(tmp_path / "sc.csv")))
        assert env.summary["validity"] == "inside"


class TestOutputFiles:
    def test_csv_and_sidecar(self, tmp_path):
        env = run(cfg_2d(tmp_path))
        write_envelope(env)
        csv_path = tmp_path / "out.csv"
        text = csv_path.read_bytes().decode("utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "theta,density"
        assert len(lines) == 1 + 64
        side = json.loads((tmp_path / "out.json").read_text())
        assert side["summary"]["norm"] == pytest.approx(1.0)
        # sidecar round-trips to a config reproducing the run
        c2 = ScenarioConfig.from_dict(side["config"])
        env2 = run(c2)
        assert env2.csv_text() == env.csv_text()

    @pytest.mark.parametrize("argv", [["classical"],
                                      ["semiclassical", "--method", "classical"],
                                      ["compare", "--methods", "classical,exact"],
                                      ["compare", "--methods", "exact,classical"]])
    def test_singular_classical_angle_is_nan_and_sidecar_strict_json(self, tmp_path, argv):
        # at s = 2 the forward glory focuses on theta = 0, where the
        # classical density is singular: every command writes NaN there
        out = tmp_path / "r.csv"
        assert cli.main(argv + ["--dim", "3", "--P", "50", "--s", "2", "--grid", "9",
                                "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"sidecar holds {name}")

        summary = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)["summary"]
        header, first = [line.split(",") for line in out.read_text().splitlines()[:2]]
        assert first[header.index("density_classical" if argv[0] == "compare" else "density")] == "nan"
        assert argv[0] == "classical" or math.isfinite(summary["peak_value"])

    def test_byte_identical_reruns(self, tmp_path):
        a = run(cfg_2d(tmp_path)).csv_text()
        b = run(cfg_2d(tmp_path)).csv_text()
        assert a == b

    def test_fifteen_significant_digits(self, tmp_path):
        env = run(cfg_2d(tmp_path))
        first_value = env.csv_text().split("\n")[1].split(",")[1]
        assert len(first_value.replace(".", "").replace("-", "").lstrip("0")) >= 14

    def test_columns_formatted_as_cell_by_cell(self, tmp_path):
        # one format pass per column gives the text of formatting each cell
        columns = {"k": np.arange(4), "x": np.array([-0.0, 1e-300, np.nan, 1.0 / 3.0]),
                   "y": [math.inf, -2.5, 7, 1e16]}
        env = cli.ResultEnvelope(config=cfg_2d(tmp_path), columns=columns, summary={})
        rows = [",".join(f"{float(c[i]):.15g}" for c in columns.values()) for i in range(4)]
        assert env.csv_text() == "\n".join(["k,x,y"] + rows) + "\n"
        ragged = cli.ResultEnvelope(config=cfg_2d(tmp_path), summary={},
                                    columns={"a": np.zeros(3), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="column lengths differ"):
            ragged.csv_text()


class TestBatch:
    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.jsonl"
        f.write_text("")
        envs, index = batch(str(f))
        assert envs == [] and index == []
        assert (tmp_path / "empty.index.json").exists()

    def test_mixed_success_and_failure(self, tmp_path):
        good = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                "output_path": str(tmp_path / "a.csv")}
        bad = {"command": "quantum2d", "P": -5.0, "s": 1.0,
               "output_path": str(tmp_path / "b.csv")}
        f = tmp_path / "batch.jsonl"
        f.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        envs, index = batch(str(f))
        assert len(envs) == 1
        assert [e["status"] for e in index] == ["ok", "failed"]
        assert index[0]["runtime_ms"] == round(envs[0].runtime_ms, 3)
        assert all(e["runtime_ms"] >= 0.0 for e in index)
        assert (tmp_path / "a.csv").exists()
        assert not (tmp_path / "b.csv").exists()

    def test_malformed_window_fails_its_line_only(self, tmp_path):
        short = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                 "window": [0.5], "output_path": "short.csv"}
        good = dict(short, window=[0.5, 1.0], output_path="good.csv")
        f = tmp_path / "w.jsonl"
        f.write_text(json.dumps(short) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config"
        assert "field 'window'" in index[0]["error"]
        assert (tmp_path / "out" / "good.csv").exists()

    def test_repeated_compare_method_fails_its_line_only(self, tmp_path):
        # "exact,exact" would pass the two-method count and report a zero gap
        twice = {"command": "compare", "P": 10.0, "s": 1.0, "methods": ["exact", "exact"],
                 "grid_points": 8, "output_path": "twice.csv"}
        good = dict(twice, methods=["exact", "classical"], output_path="good.csv")
        f = tmp_path / "m.jsonl"
        f.write_text(json.dumps(twice) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config"
        assert "'exact' is repeated" in index[0]["error"]
        assert not (tmp_path / "out" / "twice.csv").exists()

    def test_thermal_infinite_kick_fails_its_line_only(self, tmp_path):
        hot = {"command": "thermal", "P_prime": math.inf, "t_prime": 1.0, "particles": 500,
               "grid_points": 8, "output_path": "hot.csv"}
        good = dict(hot, P_prime=5.0, output_path="good.csv")
        f = tmp_path / "t.jsonl"
        f.write_text(json.dumps(hot) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config"
        assert "field 'P_prime'" in index[0]["error"]
        assert (tmp_path / "out" / "good.csv").exists()

    def test_thermal_huge_finite_kick_fails_its_line_only(self, tmp_path):
        huge = {"command": "thermal", "P_prime": 1e300, "t_prime": 1.0, "particles": 500,
                "grid_points": 8, "output_path": "huge.csv"}
        good = dict(huge, P_prime=5.0, output_path="good.csv")
        f = tmp_path / "h.jsonl"
        f.write_text(json.dumps(huge) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config"
        assert index[0]["error"].startswith("DomainError")
        assert not (tmp_path / "out" / "huge.csv").exists()
        assert (tmp_path / "out" / "good.csv").exists()

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_radius_fails_its_line_only(self, tmp_path, radius):
        bad = {"command": "semiclassical", "method": "planar", "dim": 3, "P": 50.0, "s": 2.0,
               "grid_points": 8, "radius": radius, "output_path": "bad.csv"}
        good = dict(bad, radius=2.0, output_path="good.csv")
        f = tmp_path / "r.jsonl"
        f.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config"
        assert "field 'radius'" in index[0]["error"]
        assert not (tmp_path / "out" / "bad.csv").exists()

    def test_allocation_too_large_fails_its_line_only(self, tmp_path, capsys):
        # numpy refuses 10**15 grid points or particles before it touches memory
        lines = [{"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 10**15,
                  "output_path": "grid.csv"},
                 {"command": "thermal", "P_prime": 5.0, "t_prime": 1.0, "particles": 10**15,
                  "output_path": "ensemble.csv"},
                 {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                  "output_path": "good.csv"}]
        f = tmp_path / "m.jsonl"
        f.write_text("\n".join(map(json.dumps, lines)) + "\n")
        out = tmp_path / "out"
        assert cli.main(["batch", str(f), "--outdir", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        index = json.loads((out / "m.index.json").read_text())
        assert [e["status"] for e in index] == ["failed", "failed", "ok"]
        assert all(e["failure"] == "config" and "MemoryError" in e["error"] for e in index[:2])
        assert (out / "good.csv").exists()

    def test_squeeze_stall_does_not_stop_the_batch(self, tmp_path):
        stall = {"command": "squeeze", "u0": 1e-20, "w0": 1.0, "kicks": 3,
                 "output_path": "stall.csv"}
        good = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                "output_path": "good.csv"}
        f = tmp_path / "b.jsonl"
        f.write_text(json.dumps(stall) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["error"].startswith("ValueError")
        assert (tmp_path / "out" / "good.csv").exists()
        assert (tmp_path / "out" / "b.index.json").exists()

    def test_duplicate_outputs_rejected(self, tmp_path):
        # the later line naming an output path fails; the earlier one runs
        row = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
               "output_path": str(tmp_path / "same.csv")}
        f = tmp_path / "dup.jsonl"
        f.write_text(json.dumps(row) + "\n" + json.dumps(dict(row, P=30.0)) + "\n")
        envs, index = batch(str(f))
        assert [e["status"] for e in index] == ["ok", "failed"]
        assert index[1]["failure"] == "config"
        assert "field 'output_path'" in index[1]["error"]
        assert [env.config.P for env in envs] == [20.0]
        assert (tmp_path / "dup.index.json").exists()

    def test_malformed_and_mistyped_lines_fail_alone(self, tmp_path, capsys):
        good = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                "output_path": "a.csv"}
        lines = [json.dumps(good),
                 json.dumps(dict(good, P="10", output_path="b.csv")),
                 json.dumps(dict(good, grid_points=8.5, output_path="c.csv")),
                 json.dumps(dict(good, window=None, output_path="d.csv")),
                 json.dumps(dict(good, colour=1, output_path="e.csv")),
                 json.dumps(good),
                 json.dumps(dict(good, output_path="g.csv"))]
        f = tmp_path / "seven.jsonl"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert cli.main(["batch", str(f), "--outdir", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        index = json.loads((out / "seven.index.json").read_text())
        assert [e["line"] for e in index] == list(range(1, 8))
        assert [e["status"] for e in index] == ["ok"] + ["failed"] * 5 + ["ok"]
        assert all(e["failure"] == "config" for e in index[1:6])
        for e, field in zip(index[1:6], ("P", "grid_points", "window", "colour", "output_path")):
            assert field in e["error"]
        assert (out / "a.csv").exists() and (out / "g.csv").exists()
        assert not any((out / n).exists() for n in ("b.csv", "c.csv", "d.csv", "e.csv"))

    def test_unwritable_output_fails_its_line_only(self, tmp_path):
        good = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                "output_path": "good.csv"}
        f = tmp_path / "b.jsonl"
        f.write_text(json.dumps(dict(good, output_path="sub/")) + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config"
        assert (tmp_path / "out" / "good.csv").exists()

    @pytest.mark.parametrize("line", ["{not json", "[1, 2]", "5", '"text"'])
    def test_line_that_is_not_an_object_fails_alone(self, tmp_path, line):
        good = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                "output_path": "good.csv"}
        f = tmp_path / "b.jsonl"
        f.write_text(line + "\n" + json.dumps(good) + "\n")
        envs, index = batch(str(f), str(tmp_path / "out"))
        assert [e["status"] for e in index] == ["failed", "ok"]
        assert index[0]["failure"] == "config" and index[0]["error"].startswith("ConfigError")
        assert (tmp_path / "out" / "good.csv").exists()


class TestMain:
    def test_exit_zero(self, tmp_path):
        rc = cli.main(["quantum2d", "--P", "20", "--s", "1", "--grid", "16",
                       "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        assert (tmp_path / "m.csv").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        rc = cli.main(["quantum2d", "--P", "-3", "--s", "1",
                       "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "field 'P'" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["nan,1", "1,1", "0,inf", "0.5", "a,b", "1,0.5,2"])
    def test_malformed_window_exit_two(self, tmp_path, capsys, window):
        rc = cli.main(["quantum2d", "--P", "10", "--s", "1", "--grid", "4",
                       "--window", window, "--out", str(tmp_path / "w.csv")])
        assert rc == 2
        assert "field 'window'" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_nonpositive_radius_exit_two(self, tmp_path, capsys, radius):
        # the disc [0, L] needs L > 0: 0 would give an all-zero column and
        # -1 an integral run backwards
        rc = cli.main(["semiclassical", "--method", "planar", "--dim", "3", "--P", "50", "--s", "2",
                       f"--radius={radius}", "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field 'radius'" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("methods", ["exact,exact", "exact,classical,exact"])
    def test_repeated_compare_method_exit_two(self, tmp_path, capsys, methods):
        rc = cli.main(["compare", "--P", "10", "--s", "1", "--grid", "8",
                       "--methods", methods, "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field 'methods': 'exact' is repeated" in err and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv", [["quantum2d", "--P", "20", "--s", "1", "--grid", str(10**15)],
                                      ["thermal", "--Pprime", "5", "--st", "1", "--particles", str(10**15)]])
    def test_allocation_too_large_exit_two(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "Traceback" not in err

    def test_missing_batch_file_exit_two(self, tmp_path, capsys):
        assert cli.main(["batch", str(tmp_path / "missing.jsonl")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_squeeze_stall_exit_two(self, tmp_path, capsys):
        rc = cli.main(["squeeze", "--u0", "1e-20", "--w0", "1", "--kicks", "3",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "double precision" in err and "Traceback" not in err

    def test_squeeze_negative_moment_exit_two(self, tmp_path, capsys):
        # u0 + w0 = 0 would divide by zero in the first cycle
        rc = cli.main(["squeeze", "--u0", "1", "--w0", "-1", "--kicks", "3",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "moments u, w must be positive" in err and "Traceback" not in err

    def test_tiny_kick_is_the_uniform_density(self, tmp_path):
        # J_k at P = 1e-200 once overflowed to an all-NaN CSV with exit 0
        for coupling in ("dipole", "polarization"):
            out = tmp_path / f"{coupling}.csv"
            rc = cli.main(["quantum2d", "--P", "1e-200", "--s", "1e-200", "--grid", "4",
                           "--coupling", coupling, "--out", str(out)])
            assert rc == 0
            dens = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
            assert dens == pytest.approx(np.full(4, 1.0 / (2.0 * math.pi)), rel=1e-14)

    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_cusp_window_beyond_domain_exit_two(self, tmp_path, capsys, dim):
        # theta = 50 at P = 50, s = 1 is beta = 2,080, beyond the Pearcey
        # domain: a DomainError before any contour is sampled
        rc = cli.main(["semiclassical", "--method", "pearcey", "--dim", dim, "--P", "50",
                       "--s", "1", "--grid", "5", "--window", "0,50",
                       "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "beyond supported range" in err and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()

    def test_runtime_error_exit_three(self, tmp_path, monkeypatch, capsys):
        def truncated(cfg):
            raise q2.TruncationError("edge coefficient above tolerance")
        monkeypatch.setattr(cli, "run", truncated)
        rc = cli.main(["quantum2d", "--P", "20", "--s", "1",
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert "TruncationError" in capsys.readouterr().err

    def test_untruncated_exact_packet_exit_three(self, tmp_path, monkeypatch, capsys):
        # a kick that leaves 1e-6 on its top coefficient, or one whose packet
        # has norm 1.0201, fails the packet's own check: exit 3 alone, a
        # "numerical" failure in a batch
        for top, norm, fault in ((1e-6, math.sqrt(1.0 - 1e-12), "truncation floor"),
                                 (0.0, 1.01, "norm 1.0201")):
            def leaky(P):
                c = np.zeros(41, dtype=complex)
                c[0], c[-1] = norm, top
                return q3.LegendrePacket3D(c)
            monkeypatch.setattr(q3, "dipole_kick_ground", leaky)
            rc = cli.main(["quantum3d", "--P", "20", "--s", "1", "--grid", "8",
                           "--out", str(tmp_path / "q.csv")])
            assert rc == 3
            err = capsys.readouterr().err
            assert "TruncationError" in err and fault in err
            assert not (tmp_path / "q.csv").exists()
            f = tmp_path / "b.jsonl"
            f.write_text(json.dumps({"command": "quantum3d", "P": 20.0, "s": 1.0, "grid_points": 8,
                                     "output_path": "q.csv"}) + "\n")
            _, index = batch(str(f), str(tmp_path / fault))
            assert index[0]["failure"] == "numerical" and "TruncationError" in index[0]["error"]

    def test_batch_exit_codes(self, tmp_path, monkeypatch):
        good = {"command": "quantum2d", "P": 20.0, "s": 1.0, "grid_points": 16,
                "output_path": str(tmp_path / "g.csv")}
        f = tmp_path / "b.jsonl"
        f.write_text(json.dumps(good) + "\n")
        assert cli.main(["batch", str(f)]) == 0
        # configuration failures only: exit 2
        bad = dict(good, P=-1.0, output_path=str(tmp_path / "h.csv"))
        f.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert cli.main(["batch", str(f)]) == 2
        index = json.loads((tmp_path / "b.index.json").read_text())
        assert [e.get("failure") for e in index] == [None, "config"]
        # any numerical failure: exit 3
        trunc = dict(good, P=30.0, output_path=str(tmp_path / "t.csv"))
        f.write_text("\n".join(json.dumps(d) for d in (good, bad, trunc)) + "\n")
        run = cli.run

        def truncated(cfg):
            if cfg.P == 30.0:
                raise q2.TruncationError("edge coefficient above tolerance")
            return run(cfg)
        monkeypatch.setattr(cli, "run", truncated)
        assert cli.main(["batch", str(f)]) == 3
        index = json.loads((tmp_path / "b.index.json").read_text())
        assert [e.get("failure") for e in index] == [None, "config", "numerical"]

    def test_default_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KICKEDROTOR_OUTDIR", str(tmp_path))
        rc = cli.main(["quantum2d", "--P", "20", "--s", "1", "--grid", "16"])
        assert rc == 0
        assert (tmp_path / "quantum2d_P20_s1_grid_points16.csv").exists()

    @pytest.mark.parametrize("command,options", [
        ("quantum2d", ["--P", "85", "--grid", "8"]),
        ("semiclassical", ["--P", "75", "--s", "4", "--grid", "8"]),
        ("thermal", ["--Pprime", "5", "--st", "1", "--particles", "500", "--grid", "8"]),
        ("squeeze", ["--kicks", "3"])])
    def test_default_outputs_differ_in_one_field(self, tmp_path, monkeypatch, command, options):
        # a default name lists every field set away from its default, so
        # runs that differ in one field write two files
        other = {"quantum2d": (["--tau", "3.15"], ["--tau", "4.2"]),
                 "semiclassical": (["--method", "airy"], ["--method", "classical"]),
                 "thermal": (["--seed", "2"], ["--seed", "3"]),
                 "squeeze": (["--u0", "2"], ["--u0", "3"])}[command]
        monkeypatch.setenv("KICKEDROTOR_OUTDIR", str(tmp_path))
        for extra in other:
            assert cli.main([command, *options, *extra]) == 0
        assert len(list(tmp_path.glob("*.csv"))) == 2

    def test_squeeze_driver_inf(self, tmp_path):
        rc = cli.main(["squeeze", "--kicks", "3", "--Pprime", "inf",
                       "--particles", "2000", "--seed", "1",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 0
        side = json.loads((tmp_path / "d.json").read_text())
        assert side["summary"]["monotone_decreasing"] is True
        for key in ("scan_steps_per_kick", "newton_iters_per_kick"):
            counts = side["summary"][key]
            assert len(counts) == 3 and all(isinstance(c, int) and c >= 1 for c in counts)
        assert (tmp_path / "d.csv").read_text().splitlines()[0] == "k,u,w,dtau,observable"

    def test_thermal_infinite_kick_exit_two(self, tmp_path, capsys):
        # t' = (P't')/P' would be 0: the unkicked ensemble, not a T = 0 run
        rc = cli.main(["thermal", "--Pprime", "inf", "--st", "1", "--particles", "500",
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field 'P_prime'" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["thermal", "--Pprime", "1e300", "--st", "1", "--particles", "1000", "--grid", "8"],
        ["squeeze", "--Pprime", "1e300", "--particles", "1000", "--kicks", "1"]])
    def test_huge_finite_kick_exit_two(self, tmp_path, capsys, argv):
        # the kicked p_theta' would overflow the shared free flight: both
        # commands stop there, before any numpy warning or scan step
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "free flight would overflow" in err and "Traceback" not in err
        assert not (tmp_path / "h.csv").exists()

    def test_window_option_read_as_numbers(self, tmp_path):
        rc = cli.main(["quantum2d", "--P", "10", "--s", "1", "--grid", "4",
                       "--window", "0,0.3", "--out", str(tmp_path / "w.csv")])
        assert rc == 0
        side = json.loads((tmp_path / "w.json").read_text())
        assert side["config"]["window"] == [0.0, 0.3]

    def test_window_option_of_words_exit_two(self, tmp_path, capsys):
        rc = cli.main(["quantum2d", "--P", "10", "--s", "1", "--grid", "4",
                       "--window", "a,b", "--out", str(tmp_path / "w.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field 'window'" in err and "Traceback" not in err


# Per-field pools for the batch property test: valid values first, then
# wrong types, None, NaN, +-inf and out-of-range values.  Grids have at
# most 16 points, ensembles at most 1,000 particles, trains at most 3 kicks.
_NAN, _INF = math.nan, math.inf
_POOLS = {
    "command": ["quantum2d", "quantum3d", "classical", "thermal", "semiclassical",
                "squeeze", "compare", "zap", 3, None],
    "P": [10.0, 25, 0.0, -1.0, 1e4, None, "10", True, _NAN, _INF, -_INF],
    "s": [1.0, 1.5, 4.0, 0.0, -2.0, None, "1", _NAN, _INF],
    "tau": [0.05, 0.0, -0.1, None, _NAN, -_INF],
    "coupling": ["dipole", "polarization", "quadrupole", None, 1],
    "method": ["exact", "pearcey", "airy", "uniform-airy", "uniform-bessel", "ford-wheeler",
               "planar", "classical", "nope", None, 3, ["airy"]],
    "methods": [["exact", "classical"], ["exact", "pearcey"], ["airy", "uniform-airy"],
                ["exact"], [], ["exact", "nope"], [["exact"], "airy"], "exact,airy", None, 5],
    "dim": [2, 3, 4, 0, 2.0, "3", None, True],
    "grid_points": [8, 16, 2, 1, 0, -3, 8.5, "16", None, True],
    "window": [[0.1, 0.5], [0.5, 3.0], [-1.0, 1.0], [0.0, 10.0], [0.5], [1, 1],
               [0.0, _INF], [_NAN, 1.0], "ab", None, 3],
    "particles": [500, 1000, 1, 0, -5, 100.5, "500", None],
    "seed": [1, 7, 0, -1, 1.5, "1", None],
    "kicks": [1, 3, 0, -2, 2.5, None],
    "P_prime": [5.0, 1, _INF, 0.0, -1.0, -_INF, _NAN, "5", None],
    "t_prime": [1.0, 0.0, -1.0, _NAN, _INF, None],
    "u0": [1.0, 1e-20, 0.0, -1.0, _NAN, _INF, None],
    "w0": [1.0, 0.0, -1.0, _NAN, None],
    "radius": [2.0, 3.0, 0.0, -1.0, _NAN, _INF, None],
    "output_path": ["a.csv", "b.csv", "sub/c.csv", "sub/", "", None, 5],
}
# one valid line per command; a drawn line overrides a few of its fields
_BASES = [
    {"command": "quantum2d", "P": 10.0, "s": 1.0, "grid_points": 8},
    {"command": "quantum3d", "P": 10.0, "s": 1.2, "grid_points": 8},
    {"command": "classical", "P": 10.0, "s": 1.5, "dim": 3, "grid_points": 8},
    {"command": "semiclassical", "P": 20.0, "s": 1.5, "method": "airy", "grid_points": 8},
    {"command": "semiclassical", "P": 20.0, "s": 1.1, "method": "pearcey", "grid_points": 4,
     "window": [0.0, 0.3]},
    {"command": "semiclassical", "P": 20.0, "s": 1.2, "method": "pearcey", "dim": 3,
     "grid_points": 4, "window": [0.0, 0.3]},
    {"command": "semiclassical", "P": 20.0, "s": 4.0, "method": "uniform-airy", "dim": 3,
     "grid_points": 8},
    {"command": "semiclassical", "P": 20.0, "s": 1.5, "method": "uniform-bessel", "dim": 3,
     "grid_points": 8, "window": [0.0, 0.1]},
    {"command": "semiclassical", "P": 20.0, "s": 1.5, "method": "planar", "dim": 3,
     "grid_points": 8, "window": [0.0, 0.5]},
    {"command": "compare", "P": 10.0, "s": 1.0, "methods": ["exact", "classical"],
     "grid_points": 8},
    {"command": "thermal", "P_prime": 5.0, "t_prime": 1.0, "particles": 500, "grid_points": 8},
    {"command": "squeeze", "u0": 1.0, "w0": 1.0, "kicks": 3},
    {"command": "squeeze", "P_prime": 5.0, "particles": 500, "kicks": 2},
]
for _i, _base in enumerate(_BASES):
    _base["output_path"] = f"base{_i}.csv"
_RAW_LINES = ["{not json", "[1, 2]", "5", '"text"', '{"command": "quantum2d", "colour": 1}']


def _batch_lines():
    overrides = st.lists(st.sampled_from(sorted(_POOLS)), max_size=3, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({n: st.sampled_from(_POOLS[n]) for n in names}))
    drawn = st.builds(lambda base, over: json.dumps(dict(base, **over)),
                      st.sampled_from(_BASES), overrides)
    # about one line in ten is one of the raw malformed lines
    line = st.tuples(st.integers(0, 9), drawn, st.sampled_from(_RAW_LINES))
    return st.lists(line.map(lambda t: t[2] if t[0] == 9 else t[1]), min_size=1, max_size=4)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_batch_lines())
def test_no_batch_run_ends_in_a_traceback(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "out")
        assert cli.main(["batch", path, "--outdir", out]) in (0, 2, 3)
        with open(os.path.join(out, "b.index.json"), encoding="utf-8") as fh:
            index = json.load(fh)
        assert [e["line"] for e in index] == list(range(1, len(lines) + 1))
        assert all(e["status"] == "ok" or e["failure"] in ("config", "numerical")
                   for e in index)


# Single-command property test: one valid argv per command; a drawn run
# replaces up to three of its option values from per-option pools of valid,
# zero, negative, NaN, inf and huge values.  Grids have at most 16 points,
# ensembles at most 1,000 particles, trains at most 3 kicks.
_ARGV_POOLS = {
    "--P": ["10", "20", "0", "-1", "nan", "inf"],
    "--s": ["1", "1.5", "4", "0", "-2", "nan", "inf"],
    "--grid": ["8", "16", "2", "1", "0"],
    "--window": ["0.1,0.5", "0.5,3", "-1,1", "0,10", "1,1", "nan,1", "0,inf"],
    "--coupling": ["dipole", "polarization"],
    "--dim": ["2", "3"],
    "--method": ["airy", "uniform-airy", "uniform-bessel", "ford-wheeler", "planar",
                 "classical", "exact"],
    "--methods": ["exact,classical", "airy,uniform-airy", "exact", "exact,nope"],
    "--radius": ["2", "3", "0", "-1", "nan", "inf"],
    "--Pprime": ["5", "1", "1e300", "inf", "0", "-1", "nan", "1e-300", "-inf"],
    "--st": ["1", "0", "-1", "nan", "inf", "1e300"],
    "--particles": ["500", "1000", "1", "0"],
    "--seed": ["1", "7", "0", "-1"],
    "--kicks": ["1", "3", "0"],
    "--u0": ["1", "1e-20", "0", "-1", "nan", "inf"],
    "--w0": ["1", "0", "-1", "nan"],
}
_ARGV_BASES = [
    ("quantum2d", {"--P": "10", "--s": "1", "--grid": "8", "--coupling": "dipole"}),
    ("quantum3d", {"--P": "10", "--s": "1.5", "--grid": "8", "--window": "0.1,0.5"}),
    ("classical", {"--P": "10", "--s": "1.5", "--grid": "8", "--dim": "3",
                   "--coupling": "dipole"}),
    ("semiclassical", {"--P": "20", "--s": "1.5", "--grid": "8", "--method": "airy",
                       "--dim": "2", "--window": "0.5,3"}),
    ("semiclassical", {"--P": "20", "--s": "4", "--grid": "8", "--method": "uniform-airy",
                       "--dim": "3", "--radius": "2"}),
    ("compare", {"--P": "10", "--s": "1", "--grid": "8", "--methods": "exact,classical"}),
    ("thermal", {"--Pprime": "5", "--st": "1", "--particles": "500", "--grid": "8",
                 "--seed": "1", "--coupling": "dipole"}),
    ("squeeze", {"--u0": "1", "--w0": "1", "--kicks": "3"}),
    ("squeeze", {"--Pprime": "5", "--particles": "500", "--kicks": "2", "--seed": "1",
                 "--coupling": "dipole"}),
]


def _single_argvs():
    def drawn(base):
        command, opts = base
        names = st.lists(st.sampled_from(sorted(opts)), max_size=3, unique=True)
        over = names.flatmap(lambda ns: st.fixed_dictionaries(
            {n: st.sampled_from(_ARGV_POOLS[n]) for n in ns}))
        # --opt=value, so that argparse reads a value like -inf as a value
        return over.map(lambda o: [command] + [f"{k}={v}" for k, v in {**opts, **o}.items()])
    return st.sampled_from(_ARGV_BASES).flatmap(drawn)


def _nan_free(v):
    if isinstance(v, list):
        return all(_nan_free(x) for x in v)
    return not (isinstance(v, float) and math.isnan(v))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_single_argvs())
@example(["thermal", "--Pprime=1e300", "--st=1", "--particles=1000", "--grid=16"])
@example(["squeeze", "--Pprime=1e300", "--particles=1000", "--kicks=3"])
@example(["squeeze", "--Pprime=inf", "--particles=1000", "--kicks=3"])
def test_no_single_command_ends_in_a_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.csv")
        rc = cli.main(argv + ["--out", out])
        assert rc in (0, 2, 3)
        if rc == 0:
            with open(os.path.join(tmp, "r.json"), encoding="utf-8") as fh:
                summary = json.load(fh)["summary"]
            assert summary and all(_nan_free(v) for v in summary.values()), summary
