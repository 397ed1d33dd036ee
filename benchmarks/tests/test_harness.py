"""Tests of the benchmark harness itself (not of the physics).

    python3 -m pytest benchmarks/tests -q

from the root of a checkout.
"""

import json
import math
import os
import shutil
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402

import kickedrotor  # noqa: E402
from kickedrotor import cli  # noqa: E402

COOKBOOK = os.path.join(ROOT, "cookbook", "figures.jsonl")


def _lines(workload, seed):
    return [json.loads(x) for x in scenarios.generate(COOKBOOK, workload, seed).splitlines()]


# -- scenario generation -----------------------------------------------------

@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_gives_identical_file(workload):
    assert scenarios.generate(COOKBOOK, workload, 7) == scenarios.generate(COOKBOOK, workload, 7)


def test_workloads_partition_the_cookbook():
    book = scenarios.cookbook_lines(COOKBOOK)
    counts = {w: len(scenarios.select(book, w)) for w in scenarios.WORKLOADS}
    assert counts == {"cusp": 8, "figures": 35}
    assert sum(counts.values()) == len(book)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_other_seed_changes_parameters_within_cookbook_ranges(workload):
    base = scenarios.select(scenarios.cookbook_lines(COOKBOOK), workload)
    a, b = _lines(workload, 1), _lines(workload, 2)
    assert a != b
    s_vals = [d["s"] for d in base if "s" in d]
    for orig, x in zip(base, b):
        assert x["output_path"] == orig["output_path"]
        assert x["command"] == orig["command"]
        if "s" in orig:
            if workload == "cusp":
                assert min(s_vals) <= x["s"] <= max(s_vals)
                assert abs(x["s"] - orig["s"]) <= scenarios.CUSP_S_JITTER
            else:
                assert orig["s"] <= x["s"] <= orig["s"] * (1 + scenarios.FIGURES_S_JITTER)
        if "window" in x:
            lo, hi = orig.get("window") or scenarios._default_window(orig)
            n = x["grid_points"]
            assert lo < x["window"][0] < x["window"][1] < hi
            # the offset grid keeps the spacing (hi - lo)/n
            assert math.isclose((x["window"][1] - x["window"][0]) / (n - 1), (hi - lo) / n)
        if "seed" in orig:
            assert x["seed"] != orig["seed"]
        for key in ("P", "tau", "P_prime", "t_prime", "particles", "kicks", "methods", "dim"):
            assert x.get(key) == orig.get(key)


def test_cusp_grid_is_coarse():
    assert {d["grid_points"] for d in _lines("cusp", 3)} == {scenarios.CUSP_GRID_POINTS}


# -- output checks -----------------------------------------------------------

_SMALL = [
    {"command": "quantum2d", "P": 10.0, "s": 1.0, "grid_points": 16, "output_path": "q2.csv"},
    {"command": "thermal", "P_prime": 5.0, "t_prime": 1.0, "particles": 2000, "seed": 3,
     "grid_points": 20, "output_path": "th.csv"},
    {"command": "squeeze", "P_prime": math.inf, "particles": 300, "kicks": 3, "seed": 4,
     "output_path": "sq.csv"},
]


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    d = tmp_path_factory.mktemp("pass")
    scen_path = d / "scenarios.jsonl"
    scen_path.write_text("".join(json.dumps(x) + "\n" for x in _SMALL))
    outdir = d / "out"
    _, index = cli.batch(str(scen_path), str(outdir))
    return str(outdir), index


def _copy(small_pass, tmp_path):
    outdir, index = small_pass
    dst = tmp_path / "out"
    shutil.copytree(outdir, dst)
    return str(dst), index


def test_clean_pass_has_no_failures(small_pass):
    outdir, index = small_pass
    checked = check.check_pass(_SMALL, outdir, index)
    assert check.failures(checked) == []
    ref = check.record_reference(_SMALL, outdir)
    assert check.failures(check.check_pass(_SMALL, outdir, index, ref)) == []


def _corrupt(path, column, row, value):
    cols = check.read_csv(path)
    cols[column][row] = value
    names = list(cols)
    lines = [",".join(names)] + [",".join(repr(float(cols[n][i])) for n in names)
                                 for i in range(len(cols[names[0]]))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("column,value", [("density", -1e-3), ("density", math.nan)])
def test_corrupted_output_counts_as_failed(small_pass, tmp_path, column, value):
    outdir, index = _copy(small_pass, tmp_path)
    _corrupt(os.path.join(outdir, "q2.csv"), column, 5, value)
    bad = check.failures(check.check_pass(_SMALL, outdir, index))
    assert [f["output"] for f in bad] == ["q2.csv"]
    assert len(bad) / len(_SMALL) == pytest.approx(1 / 3)


def test_reference_catches_a_small_change(small_pass, tmp_path):
    outdir, index = _copy(small_pass, tmp_path)
    ref = check.record_reference(_SMALL, outdir)
    path = os.path.join(outdir, "th.csv")
    row = 7
    value = check.read_csv(path)["density"][row]
    _corrupt(path, "density", row, value * (1 + 1e-6))
    bad = check.failures(check.check_pass(_SMALL, outdir, index, ref))
    assert [f["output"] for f in bad] == ["th.csv"]


def test_unfinished_scenarios_count_as_failed(small_pass, tmp_path):
    # a batch that raised after the first scenario: no index, later outputs missing
    outdir, _ = _copy(small_pass, tmp_path)
    for name in ("th", "sq"):
        os.remove(os.path.join(outdir, name + ".csv"))
    bad = check.failures(check.check_pass(_SMALL, outdir, None), "AssertionError: boom")
    assert [f["output"] for f in bad] == ["th.csv", "sq.csv"]
    assert all("AssertionError: boom" in p for f in bad for p in f["problems"][-1:])


def test_failed_index_entry_counts_as_failed(small_pass, tmp_path):
    outdir, index = _copy(small_pass, tmp_path)
    index = [dict(e) for e in index]
    index[2].update(status="failed", error="RuntimeError: no minimum")
    bad = check.failures(check.check_pass(_SMALL, outdir, index))
    assert [f["output"] for f in bad] == ["sq.csv"]


# -- tracer ------------------------------------------------------------------

def _snapshot():
    t = Tracer(kickedrotor)
    return {(m.__name__, a): v for m in t.modules() for a, v in vars(m).items()}


def test_tracer_restores_module_attributes():
    before = _snapshot()
    tracer = Tracer(kickedrotor).install()
    try:
        sc = kickedrotor.semiclassical
        assert sc.pearcey is not before[("kickedrotor.semiclassical", "pearcey")]
        assert cli.density_classical is not before[("kickedrotor.cli", "density_classical")]
        # beta > 12: the fast contour branch
        sc.pearcey_focus_2d(0.4, 1.0 / 50.0, 50.0)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    fns = tracer.per_function()
    # the by-value import in semiclassical is traced under specfun.pearcey
    assert fns["specfun.pearcey"]["calls"] == 1
    assert fns["semiclassical.pearcey_focus_2d"]["calls"] == 1


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ValueError):
        with Tracer(kickedrotor) as tracer:
            kickedrotor.semiclassical.pearcey_focus_2d(0.1, -1.0, 50.0)
    assert all(_snapshot()[k] is v for k, v in before.items())
    assert tracer.per_function()["semiclassical.pearcey_focus_2d"]["errors"] == 1


def _fake_package():
    """A package with the traced module names and a three-level call chain."""
    pkg = types.SimpleNamespace()
    for name in ("specfun", "quantum2d", "quantum3d", "classical", "semiclassical",
                 "thermal", "squeeze", "cli"):
        mod = types.ModuleType(f"fake.{name}")
        mod.__all__ = []
        setattr(pkg, name, mod)
    exec("__all__ = ['leaf']\ndef leaf():\n    return 1\n", vars(pkg.specfun))
    vars(pkg.semiclassical)["leaf"] = pkg.specfun.leaf  # imported by value
    exec("__all__ = ['outer']\ndef outer():\n    return leaf() + leaf()\n",
         vars(pkg.semiclassical))
    return pkg


def test_self_time_excludes_children():
    pkg = _fake_package()
    ticks = iter(range(100))
    tracer = Tracer(pkg, clock=lambda: float(next(ticks)))
    with tracer:
        # outer opens at t=0, leaf spans t=1..2 and t=3..4, outer closes at t=5
        assert pkg.semiclassical.outer() == 2
    fns = tracer.per_function()
    assert fns["semiclassical.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0,
                                          "errors": 0, "durations": [5.0]}
    assert fns["specfun.leaf"]["calls"] == 2
    assert fns["specfun.leaf"]["self_s"] == 2.0
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]  # both leaves are children of outer
    assert pkg.semiclassical.leaf is pkg.specfun.leaf


def test_traced_batch_reports_every_per_layer_metric(small_pass, tmp_path):
    scen_path = tmp_path / "s.jsonl"
    scen_path.write_text("".join(json.dumps(x) + "\n" for x in _SMALL))
    with Tracer(kickedrotor) as tracer:
        cli.batch(str(scen_path), str(tmp_path / "out"))
    lay = layers.summarize(tracer)
    m = lay["metrics"]
    missing = [n for n, _ in layers.PER_LAYER
               if n not in m and not n.startswith(("trace.wall_s", "trace.overhead",
                                                   "trace.span_cost", "cli.scenario_ms"))]
    assert missing == []
    assert m["specfun.pearcey.calls"] == 0
    assert m["cli.run.calls"] == 3
    assert m["squeeze.evolve_calls_per_kick"] > 1
    # squeeze passes count every O(N) thermal call inside classical_accumulative_3d
    assert m["squeeze.particle_passes_per_kick"] >= m["squeeze.evolve_calls_per_kick"]
    assert {s[4] for s in tracer.spans} == {-1, 0, 1, 2}


# -- benchmark contract --------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert len(layers.PER_LAYER) <= 128


def test_percentiles():
    assert layers.tail_percentile(19) == 50.0
    assert layers.tail_percentile(100) == 90.0
    assert layers.tail_percentile(1000) == 99.0
    assert layers.percentile([3, 1, 2], 50.0) == 2
