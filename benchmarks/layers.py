"""Per-layer metrics reduced from a traced pass.

`PER_LAYER` is the list of per-layer metrics the benchmark prints with
--trace 1 (it matches `per_layer` in BENCHMARK.json).  Every metric is
printed on every workload; one whose layer the workload never reaches
reads 0, so a layer predicted unchanged on a workload shows as 0 calls.
The full per-function table (calls, self time, errors of every public
function) goes to the run's trace report.
"""

from __future__ import annotations

import math
from fractions import Fraction

from tracer import BASELINE_NMAX, EVOLVE_ARRAYS

# (name, unit); the prefix before the last dot(s) names the module.function
PER_LAYER = [
    ("specfun.pearcey.calls", "count"),
    ("specfun.pearcey.self_s", "s"),
    ("specfun.pearcey.errors", "count"),
    ("specfun.pearcey.ms_per_call.p50", "ms"),
    ("specfun.pearcey.ms_per_call.tail", "ms"),
    ("specfun.pearcey.ms_per_call.n", "count"),
    ("semiclassical.pearcey_cusp_3d.calls", "count"),
    ("semiclassical.pearcey_cusp_3d.self_s", "s"),
    ("semiclassical.pearcey_cusp_3d.errors", "count"),
    ("semiclassical.pearcey_cusp_3d.ms_per_call.p50", "ms"),
    ("semiclassical.pearcey_cusp_3d.ms_per_call.tail", "ms"),
    ("semiclassical.pearcey_cusp_3d.ms_per_call.n", "count"),
    ("specfun.gauss_segment.calls", "count"),
    ("specfun.gauss_segment.self_s", "s"),
    ("specfun.gauss_segment.nodes", "count"),
    ("specfun.bessel_j0.calls", "count"),
    ("specfun.bessel_j0.self_s", "s"),
    ("specfun.bessel_j0.elements", "count"),
    ("specfun.bessel_jn_array.self_s", "s"),
    ("specfun.spherical_jn_array.self_s", "s"),
    ("specfun.airy.calls", "count"),
    ("specfun.airy.self_s", "s"),
    ("semiclassical.planar_psi.calls", "count"),
    ("semiclassical.planar_psi.self_s", "s"),
    ("semiclassical.uniform_bessel_glory.self_s", "s"),
    ("semiclassical.uniform_airy_3d.self_s", "s"),
    ("semiclassical.airy_rainbow_2d.self_s", "s"),
    ("classical.invert_map.calls", "count"),
    ("classical.invert_map.self_s", "s"),
    ("classical.invert_map.branches_per_point", "count"),
    ("classical.density_classical.calls", "count"),
    ("classical.density_classical.self_s", "s"),
    ("classical.density_classical.us_per_point", "us"),
    ("classical.density_classical_2d.us_per_point", "us"),
    ("quantum2d.density.calls", "count"),
    ("quantum2d.density.self_s", "s"),
    ("quantum2d.density.terms", "count"),
    ("quantum2d.density_nmax141.us_per_point", "us"),
    ("quantum2d.apply_kick.self_s", "s"),
    ("quantum2d.wavefunction.self_s", "s"),
    ("quantum3d.density_3d.self_s", "s"),
    ("quantum3d.dipole_kick_ground.self_s", "s"),
    ("quantum3d.polarization_kick_ground.self_s", "s"),
    ("quantum3d.build_recurrence.calls", "count"),
    ("quantum3d.build_recurrence.hit_ratio", "ratio"),
    ("thermal.evolve.calls", "count"),
    ("thermal.evolve.self_s", "s"),
    ("thermal.evolve.particles", "count"),
    ("thermal.evolve.ns_per_particle", "ns"),
    ("thermal.evolve.bytes_computed", "B"),
    ("thermal.evolve.ms_per_call_1e6", "ms"),
    ("thermal.sample_ensemble.self_s", "s"),
    ("thermal.kick.self_s", "s"),
    ("thermal.angular_histogram.self_s", "s"),
    ("thermal.orientation_alignment.calls", "count"),
    ("thermal.orientation_alignment.self_s", "s"),
    ("squeeze.classical_accumulative_3d.self_s", "s"),
    ("squeeze.evolve_calls_per_kick", "count"),
    ("squeeze.particle_passes_per_kick", "count"),
    ("cli.batch.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.write_envelope.self_s", "s"),
    ("cli.write_envelope.us_per_row", "us"),
    ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "B"),
    ("cli.scenario_ms.p50", "ms"),
    ("cli.scenario_ms.tail", "ms"),
    ("cli.scenario_ms.n", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.span_cost_us", "us"),
    ("trace.errors", "count"),
]
UNITS = dict(PER_LAYER)

# ROADMAP baseline rows that no cookbook scenario reaches
NOT_IN_COOKBOOK = ("specfun.hyp1f1_focus", "specfun.pearcey_half_dy")
_TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
_TAIL_MIN_BEYOND = 10


def _rank(n, pct):
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(n):
    """Highest candidate percentile with at least 10 samples beyond it
    (the median when there are fewer than 20 samples)."""
    for pct in _TAIL_CANDIDATES:
        if n - _rank(n, pct) >= _TAIL_MIN_BEYOND:
            return pct
    return 50.0


def distribution(prefix, values, scale, out):
    """Fill <prefix>.p50, .tail and .n; returns the tail percentile used."""
    n = len(values)
    pct = tail_percentile(n)
    out[prefix + ".p50"] = percentile(values, 50.0) * scale if n else 0.0
    out[prefix + ".tail"] = percentile(values, pct) * scale if n else 0.0
    out[prefix + ".n"] = n
    return pct


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer):
    """Reduce a finished traced pass to per-layer metrics and a report."""
    fns = tracer.per_function()
    c = tracer.counts
    m = {}

    def rec(name):
        return fns.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                              "errors": 0, "durations": []})

    for metric in UNITS:
        fn, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "errors") and fn in fns:
            m[metric] = rec(fn)[field]
    tails = {}
    for fn in ("specfun.pearcey", "semiclassical.pearcey_cusp_3d"):
        tails[fn] = distribution(fn + ".ms_per_call", rec(fn)["durations"], 1e3, m)

    m["specfun.gauss_segment.nodes"] = c["specfun.gauss_segment.nodes"]
    m["specfun.bessel_j0.elements"] = c["specfun.bessel_j0.elements"]
    inv = rec("classical.invert_map")
    m["classical.invert_map.branches_per_point"] = _ratio(
        c["classical.invert_map.branches"], inv["calls"])
    dc = rec("classical.density_classical")
    m["classical.density_classical.us_per_point"] = _ratio(dc["total_s"], dc["calls"]) * 1e6
    d2 = tracer.samples["classical.density_classical_2d.s"]
    m["classical.density_classical_2d.us_per_point"] = _ratio(sum(d2), len(d2)) * 1e6
    m["quantum2d.density.terms"] = c["quantum2d.density.terms"]
    m["quantum2d.density_nmax141.us_per_point"] = _ratio(
        c["quantum2d.density_nmax141.s"], c["quantum2d.density_nmax141.points"]) * 1e6
    m["quantum3d.build_recurrence.hit_ratio"] = _ratio(
        c["quantum3d.build_recurrence.hits"], rec("quantum3d.build_recurrence")["calls"])

    ev = rec("thermal.evolve")
    particles = c["thermal.evolve.particles"]
    m["thermal.evolve.particles"] = particles
    m["thermal.evolve.ns_per_particle"] = _ratio(ev["self_s"], particles) * 1e9
    m["thermal.evolve.bytes_computed"] = particles * EVOLVE_ARRAYS * 8
    e6 = tracer.samples["thermal.evolve_1e6.s"]
    m["thermal.evolve.ms_per_call_1e6"] = percentile(e6, 50.0) * 1e3 if e6 else 0.0

    m["squeeze.evolve_calls_per_kick"] = _ratio(c["squeeze.evolve_calls"], c["squeeze.kicks"])
    m["squeeze.particle_passes_per_kick"] = _ratio(
        c["squeeze.particle_passes"], c["squeeze.particles"])

    m["cli.csv_rows"] = c["cli.csv_rows"]
    m["cli.csv_bytes"] = c["cli.csv_bytes"]
    m["cli.write_envelope.us_per_row"] = _ratio(
        rec("cli.write_envelope")["total_s"], c["cli.csv_rows"]) * 1e6
    m["trace.spans"] = len(tracer.spans)
    m["trace.errors"] = sum(r["errors"] for r in fns.values())

    # fill every remaining per-layer metric of a layer this pass never reached
    for metric in UNITS:
        if not metric.startswith(("trace.wall_s", "trace.overhead", "trace.span_cost",
                                  "cli.scenario_ms")):
            m.setdefault(metric, 0)

    functions = {name: {k: r[k] for k in ("calls", "self_s", "total_s", "errors")}
                 for name, r in sorted(fns.items())}
    return {"metrics": m, "functions": functions, "tail_pct": tails,
            "baseline": baseline_rows(m, functions)}


def baseline_rows(m, functions):
    """The ROADMAP baseline-table rows this traffic exercises, as text."""
    def row(label, value, unit, calls):
        return [label, f"{value:.4g} {unit}" if calls else "not exercised by this workload"]

    rows = [
        row("pearcey(x, beta) per call (median)", m["specfun.pearcey.ms_per_call.p50"],
            "ms", m["specfun.pearcey.calls"]),
        row("pearcey_cusp_3d per point (median)",
            m["semiclassical.pearcey_cusp_3d.ms_per_call.p50"], "ms",
            m["semiclassical.pearcey_cusp_3d.calls"]),
        row("thermal.evolve at 1e6 particles (median)", m["thermal.evolve.ms_per_call_1e6"],
            "ms", m["thermal.evolve.ms_per_call_1e6"]),
        row("squeeze evolve passes per kick", m["squeeze.evolve_calls_per_kick"], "",
            m["squeeze.evolve_calls_per_kick"]),
        row("2D classical density per 800 points",
            m["classical.density_classical_2d.us_per_point"] * 800e-3, "ms",
            m["classical.density_classical_2d.us_per_point"]),
        row(f"2D quantum density per 800 points at n_max = {BASELINE_NMAX}",
            m["quantum2d.density_nmax141.us_per_point"] * 800e-3, "ms",
            m["quantum2d.density_nmax141.us_per_point"]),
    ]
    for name in NOT_IN_COOKBOOK:
        calls = functions.get(name, {}).get("calls", 0)
        rows.append([name, f"{calls} calls; no cookbook scenario calls it"])
    return rows
