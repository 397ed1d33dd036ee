"""Figure-regeneration benchmark for kickedrotor.

    python3 benchmarks/run.py --workload cusp|figures
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it needs `src/kickedrotor` and
`cookbook/figures.jsonl`; without them it exits with code 2).

1. Generates the workload's scenario file from the cookbook and the seed
   (`scenarios.py`).
2. Measures set-up: fresh interpreters that import `kickedrotor.cli` and
   make one small first call.
3. Runs passes until --seconds is spent (at least two): each pass is one
   fresh single-threaded interpreter (OpenBLAS/OpenMP threads = 1) running
   the file once through `cli.batch`, closed loop with one client, as
   `kickedrotor batch` does.
4. Checks every output of every pass (`check.py`).
5. Prints the metrics by name and unit, then one JSON line:
   --trace 0: the end-to-end metrics, medians over passes and set-up
   samples;
   --trace 1: the per-layer metrics of a traced pass (`tracer.py`,
   `layers.py`) and the tracing overhead against the untraced passes.

Working files go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402

WORK_DIR = ".bench_out"
MIN_PASSES = 2
SETUP_PROBES_FIRST = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every run ends well inside 180 s: a pass is never started after this
# much time, and a worker that hangs is killed
HARD_LIMIT_S = 150.0
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(root, result_path, deadline, extra=()):
    """Run worker.py once and return its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--result", result_path, *extra]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    pkg = os.path.join(root, "src", "kickedrotor")
    if not res["package_file"].startswith(pkg + os.sep):
        raise BenchError(f"imported {res['package_file']}, not the checkout's package")
    return res


def environment(versions, loadavg):
    """Machine and library facts recorded with every result."""
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(versions, nproc=os.cpu_count(), cpu_model=cpu,
                loadavg_at_start=[round(x, 2) for x in loadavg],
                threads={var: "1" for var in THREAD_VARS})


def run_benchmark(root, workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    cookbook = os.path.join(root, "cookbook", "figures.jsonl")
    if not (os.path.isfile(os.path.join(root, "src", "kickedrotor", "cli.py"))
            and os.path.isfile(cookbook)):
        raise BenchError("run from a kickedrotor checkout: src/kickedrotor and "
                         "cookbook/figures.jsonl are required")
    loadavg = os.getloadavg()
    work = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scen_path = os.path.join(work, "scenarios.jsonl")
    text = scenarios.generate(cookbook, workload, seed)
    with open(scen_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    scen = [json.loads(line) for line in text.splitlines()]
    reference = check.load_reference(HERE, workload) if seed == check.DEFAULT_SEED else None

    # set-up: one unmeasured import compiles the bytecode; then fresh
    # imports, a few now, and every pass process's own import, so that the
    # median spans the whole run: the machine's speed drifts over seconds
    # and minutes
    setup_path = os.path.join(work, "setup.json")
    env_info = environment(run_worker(root, setup_path, deadline)["versions"], loadavg)
    setup = [run_worker(root, setup_path, deadline)["setup_s"]
             for _ in range(SETUP_PROBES_FIRST)]

    passes, failures, scenario_ms = [], [], []
    traced = None
    kinds = ("plain", "traced") if trace else ("plain",)
    measure_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - measure_start
        durations = [p["duration"] for p in passes]
        typical = statistics.median(durations) if durations else 0.0
        if len(passes) >= MIN_PASSES and (elapsed + typical > seconds
                                          or time.monotonic() + typical > deadline):
            break
        kind = kinds[len(passes) % len(kinds)]
        k = len(passes)
        outdir = os.path.join(work, f"pass{k}")
        extra = ["--scenarios", scen_path, "--outdir", outdir]
        if kind == "traced":
            extra += ["--trace", "1", "--spans", os.path.join(work, f"spans{k}.csv")]
        t0 = time.monotonic()
        res = run_worker(root, os.path.join(work, f"pass{k}.json"), deadline, extra)
        res["duration"] = time.monotonic() - t0
        res["kind"] = kind
        setup.append(res["setup_s"])
        checked = check.check_pass(scen, outdir, res["index"], reference)
        failures += [dict(f, **{"pass": k}) for f in check.failures(checked, res["escaped"])]
        if kind == "plain":
            res["runtime_s"] = scenario_runtimes(scen, outdir)
            scenario_ms += [r * 1e3 for r in res["runtime_s"].values()]
        elif traced is None:
            traced = res
        passes.append(res)
        if k > 0:  # the first pass's outputs stay for inspection
            shutil.rmtree(outdir, ignore_errors=True)

    attempted = len(scen) * len(passes)
    failed = len(failures)
    plain = [p for p in passes if p["kind"] == "plain"]
    e2e = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_frac": (attempted - failed) / attempted,
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_info, "scenarios": len(scen), "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "setup_samples_s": setup, "failed_frac": failed / attempted,
        "failures": failures, "end_to_end": e2e,
        "reference_checked": reference is not None,
    }
    if trace:
        report["layers"] = layer_metrics(
            traced, statistics.median(report["pass_wall_s"]), scenario_ms)
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report, attempted, failed


def scenario_runtimes(scen, outdir):
    """{output: seconds} from the `runtime_ms` each sidecar records."""
    out = {}
    for sc in scen:
        side = check.sidecar_path(os.path.join(outdir, sc["output_path"]))
        if os.path.exists(side):
            with open(side, encoding="utf-8") as fh:
                out[sc["output_path"]] = json.load(fh)["runtime_ms"] * 1e-3
    return out


def layer_metrics(traced, plain_wall, scenario_ms):
    if not traced["restored"]:
        raise BenchError("tracer left wrapped functions behind")
    lay = traced["layers"]
    m = lay["metrics"]
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain_wall
    m["trace.overhead_frac"] = m["trace.overhead_s"] / plain_wall
    lay["tail_pct"]["cli.scenario_ms"] = layers.distribution(
        "cli.scenario_ms", scenario_ms, 1.0, m)
    return lay


def print_report(report, attempted, failed):
    env = report["environment"]
    print(f"# kickedrotor benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} passes={report['passes']} scenarios={report['scenarios']}")
    print(f"# machine: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"loadavg_at_start={env['loadavg_at_start']}")
    print(f"# python {env.get('python')} numpy {env.get('numpy')} mpmath {env.get('mpmath')} "
          f"blas {env.get('blas')} threads={','.join(f'{k}=1' for k in THREAD_VARS)}")
    print(f"# outputs: {attempted} attempted, {failed} failed, failed_frac = "
          f"{report['failed_frac']:.4g}; reference values "
          f"{'checked' if report['reference_checked'] else 'not recorded for this seed'}")
    for f in report["failures"][:20]:
        print(f"#   FAILED pass {f['pass']} {f['output']}: {'; '.join(f['problems'])}")
    for name, value in report["end_to_end"].items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]}")
    if "layers" in report:
        lay = report["layers"]
        print("# per-function totals of the traced pass (calls, self s, errors):")
        for name, r in lay["functions"].items():
            if r["calls"]:
                print(f"#   {name:45s} {r['calls']:9d} {r['self_s']:10.4f} {r['errors']:4d}")
        print("# ROADMAP baseline rows:")
        for label, text in lay["baseline"]:
            print(f"#   {label}: {text}")
        m = lay["metrics"]
        print(f"# tracing overhead: measured {m['trace.overhead_s']:.3f} s; "
              f"{m['trace.spans']} spans x {m['trace.span_cost_us']:.2f} us = "
              f"{m['trace.spans'] * m['trace.span_cost_us'] * 1e-6:.3f} s expected")
        for name, unit in layers.PER_LAYER:
            print(f"{name} = {lay['metrics'][name]:.6g} {unit}")


def result_line(report, attempted, failed):
    if report["trace"]:
        m = report["layers"]["metrics"]
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]}
                   for name, v in report["end_to_end"].items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description="kickedrotor figure-regeneration benchmark")
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report, attempted, failed = run_benchmark(os.getcwd(), args.workload, args.seed,
                                                  args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_report(report, attempted, failed)
    print(result_line(report, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
