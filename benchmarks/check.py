"""Output checks for one benchmark pass.

Every scenario's CSV and JSON sidecar is checked for invariants that hold
for any seed:

- the sidecar's config is the scenario that was asked for;
- the CSV has one row per grid point (or kick), and every value is finite;
- densities are non-negative, theta stays inside the requested window;
- a quantum packet's `norm` is within 1e-10 of 1;
- a thermal histogram integrates to 1;
- a squeezing trace counts kicks 1..K with positive moments and waits;
- the summary's peak agrees with the CSV column it was taken from.

For the default seed the columns are also compared with reference values
recorded at the commit that defined the benchmark (`reference/`).  The
comparison uses sampled rows plus three sums over all rows, so a change in
any single row beyond the tolerance is caught.  Tolerances:

- deterministic columns: 1e-9 relative plus 1e-12 of the column's largest
  magnitude.  That admits the ~7e-15 gap between the Pearcey series and
  contour evaluators and any reordering of floating-point sums, and still
  catches a wrong branch, which moves values at O(1).
- squeezing-trace columns: 1e-5 relative plus 1e-5 absolute.  The squeeze run
  locates each minimum only to refine_tol = 1e-6 in P't, so a different
  (equally valid) minimum search moves the recorded waits and moments at
  that level; the Philox ensembles themselves are identical.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

DEFAULT_SEED = 1
NORM_TOL = 1e-10
HIST_TOL = 1e-9
SAMPLE_ROWS = 32
RTOL = 1e-9
ATOL_OF_MAX = 1e-12
SQUEEZE_TOL = 1e-5
_PROJ_SEED = 12345
# fields of the scenario that the sidecar must echo unchanged
_ECHO_FIELDS = ("command", "P", "s", "tau", "dim", "grid_points", "window",
                "methods", "particles", "seed", "kicks", "P_prime", "t_prime",
                "coupling", "radius")


def sidecar_path(csv_path):
    return os.path.splitext(csv_path)[0] + ".json"


def read_csv(path):
    """{column: float array} from a kickedrotor CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh.read().splitlines() if line]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _same(a, b):
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return list(a) == list(b)
    return a == b


def invariants(scenario, columns, sidecar):
    """List of problems found in one scenario's output (empty when fine)."""
    bad = []
    cfg = sidecar.get("config", {})
    for key in _ECHO_FIELDS:
        if key in scenario and not _same(cfg.get(key), scenario[key]):
            bad.append(f"sidecar config {key}={cfg.get(key)!r}, asked {scenario[key]!r}")
    if not columns:
        return bad + ["empty CSV"]
    n = len(next(iter(columns.values())))
    cmd = scenario["command"]
    # ScenarioConfig defaults: kicks=10, grid_points=400
    expect = scenario.get("kicks", 10) if cmd == "squeeze" else scenario.get("grid_points", 400)
    if n != expect:
        bad.append(f"{n} rows, expected {expect}")
    for name, col in columns.items():
        if not np.all(np.isfinite(col)):
            bad.append(f"column {name}: non-finite values")
        elif "density" in name and np.any(col < 0):
            bad.append(f"column {name}: negative density")
    summary = sidecar.get("summary", {})
    theta = columns.get("theta")
    if theta is not None and scenario.get("window"):
        lo, hi = scenario["window"]
        if np.any(theta < lo - 1e-12) or np.any(theta > hi + 1e-12):
            bad.append("theta outside the requested window")
    if cmd in ("quantum2d", "quantum3d"):
        norm = summary.get("norm")
        if norm is None or not abs(norm - 1.0) <= NORM_TOL:
            bad.append(f"packet norm {norm} not within {NORM_TOL} of 1")
    if cmd == "thermal" and theta is not None and n > 1:
        integral = float(np.sum(columns["density"]) * (theta[1] - theta[0]))
        if not abs(integral - 1.0) <= HIST_TOL:
            bad.append(f"histogram integrates to {integral}")
    if cmd == "squeeze":
        if not np.array_equal(columns.get("k"), np.arange(1, n + 1, dtype=float)):
            bad.append("kick counter is not 1..K")
        for name in ("u", "w", "dtau"):
            if name in columns and np.any(columns[name] <= 0):
                bad.append(f"column {name}: non-positive")
    if "peak_value" in summary:
        ref = [v for k, v in columns.items() if k.startswith("density")]
        if ref:
            peak = float(np.max(ref[0]))
            if not math.isclose(peak, summary["peak_value"], rel_tol=1e-12):
                bad.append(f"summary peak {summary['peak_value']} != CSV max {peak}")
    return bad


def _signs(n):
    return np.random.default_rng(_PROJ_SEED).choice([-1.0, 1.0], size=n)


def fingerprint(columns):
    """Sampled rows plus whole-column sums, for the reference file."""
    out = {}
    for name, col in columns.items():
        n = len(col)
        idx = sorted(set(np.linspace(0, n - 1, min(n, SAMPLE_ROWS)).round().astype(int).tolist()))
        out[name] = {
            "rows": n,
            "idx": idx,
            "values": [float(col[i]) for i in idx],
            "sum": float(np.sum(col)),
            "abs_sum": float(np.sum(np.abs(col))),
            "proj": float(np.dot(_signs(n), col)),
            "max_abs": float(np.max(np.abs(col))),
        }
    return out


def _tolerance(command):
    if command == "squeeze":
        return SQUEEZE_TOL, SQUEEZE_TOL, 0.0
    return RTOL, 0.0, ATOL_OF_MAX


def compare(command, columns, ref):
    """Problems found comparing columns with a recorded fingerprint."""
    bad = []
    rtol, atol, atol_of_max = _tolerance(command)
    if sorted(columns) != sorted(ref):
        return [f"columns {sorted(columns)} differ from reference {sorted(ref)}"]
    for name, r in ref.items():
        col = columns[name]
        if len(col) != r["rows"]:
            bad.append(f"column {name}: {len(col)} rows, reference {r['rows']}")
            continue
        scale = atol + atol_of_max * r["max_abs"]
        got = col[r["idx"]]
        want = np.array(r["values"])
        err = np.abs(got - want) - (rtol * np.abs(want) + scale)
        if np.any(err > 0):
            i = int(np.argmax(err))
            bad.append(f"column {name} row {r['idx'][i]}: {got[i]!r} vs reference {want[i]!r}")
        sums = {"sum": float(np.sum(col)), "proj": float(np.dot(_signs(len(col)), col))}
        for key, val in sums.items():
            if abs(val - r[key]) > rtol * r["abs_sum"] + scale * len(col):
                bad.append(f"column {name} {key}: {val!r} vs reference {r[key]!r}")
    return bad


def load_reference(bench_dir, workload):
    path = os.path.join(bench_dir, "reference", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(scenarios, outdir, index, reference=None):
    """Check every scenario of one pass.

    Returns a list with one entry per scenario: (output name, problems).
    A scenario that the batch index does not mark ok, or whose outputs are
    missing (the batch may have stopped early), is reported as failed.
    """
    status = {}
    if index is not None:
        for entry in index:
            status[os.path.basename(entry["output_path"])] = entry
    results = []
    for sc in scenarios:
        name = os.path.basename(sc["output_path"])
        path = os.path.join(outdir, sc["output_path"])
        problems = []
        entry = status.get(name)
        if index is not None and (entry is None or entry.get("status") != "ok"):
            problems.append(f"batch status: {entry.get('error') if entry else 'missing'}")
        if not (os.path.exists(path) and os.path.exists(sidecar_path(path))):
            problems.append("output not written")
        else:
            try:
                columns = read_csv(path)
                with open(sidecar_path(path), encoding="utf-8") as fh:
                    sidecar = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
            else:
                problems += invariants(sc, columns, sidecar)
                if reference is not None:
                    ref = reference.get(name)
                    if ref is None:
                        problems.append("no reference recorded")
                    else:
                        problems += compare(sc["command"], columns, ref)
        results.append((name, problems))
    return results


def failures(checked, escaped=None):
    """The failed scenarios of a `check_pass` result, one dict each.

    `escaped` is an exception that left `cli.batch` early; it is noted on
    every scenario it left unfinished, which fail for missing output.
    """
    out = []
    for name, problems in checked:
        if problems:
            if escaped:
                problems = problems + [f"batch raised {escaped}"]
            out.append({"output": name, "problems": problems})
    return out


def record_reference(scenarios, outdir):
    """Fingerprints of every output of a pass, keyed by output name."""
    return {os.path.basename(sc["output_path"]):
            fingerprint(read_csv(os.path.join(outdir, sc["output_path"])))
            for sc in scenarios}
