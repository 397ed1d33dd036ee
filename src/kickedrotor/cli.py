"""Command-line front end: scenario configs, dispatch, CSV/JSON output.

Every run writes a CSV (header row, 15 significant digits, UTF-8, LF) and
a JSON sidecar holding the exact config, version, runtime and summary
scalars, so any output file can be reproduced from its sidecar alone.
`batch` executes a JSON-lines file of scenarios, isolating failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .classical import Coupling, Geometry, MapParams, density_classical, focal_times, glory_angles, rainbow_angle
from . import quantum2d as q2
from . import quantum3d as q3
from . import semiclassical as sc
from . import squeeze as sq
from . import thermal as th

__all__ = ["ScenarioConfig", "ResultEnvelope", "ConfigError", "run", "batch", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_COMMANDS = ("quantum2d", "quantum3d", "classical", "thermal", "semiclassical",
             "squeeze", "compare")
_METHODS = ("exact", "pearcey", "airy", "uniform-airy", "uniform-bessel",
            "ford-wheeler", "planar", "classical")


class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""


@dataclass
class ScenarioConfig:
    command: str
    P: float | None = None
    s: float | None = None           # s = P * tau
    tau: float | None = None
    coupling: str = "dipole"
    method: str = "exact"
    methods: tuple = ()              # for compare
    dim: int = 2
    grid_points: int = 400
    window: tuple = ()               # (theta_min, theta_max) override
    particles: int = 100000
    seed: int = 1
    kicks: int = 10
    P_prime: float | None = None
    t_prime: float | None = None     # thermal time, as P't'
    u0: float = 1.0
    w0: float = 1.0
    radius: float = sc.DISC_RADIUS
    output_path: str = ""

    def resolved_tau(self):
        if self.tau is not None:
            return self.tau
        if self.s is not None and self.P:
            return self.s / self.P
        raise ConfigError("field 'tau' (or 's' with 'P') is required")

    def validate(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"field 'command': unknown command {self.command!r}")
        if self.grid_points < 2:
            raise ConfigError("field 'grid_points': must be >= 2")
        if self.coupling not in ("dipole", "polarization"):
            raise ConfigError(f"field 'coupling': {self.coupling!r}")
        if self.command in ("quantum2d", "quantum3d", "classical", "semiclassical", "compare"):
            if self.P is None or self.P <= 0:
                raise ConfigError("field 'P': positive kick strength required")
            self.resolved_tau()
        if self.command == "semiclassical" and self.method not in _METHODS:
            raise ConfigError(f"field 'method': {self.method!r}")
        if self.command == "compare":
            if len(self.methods) < 2:
                raise ConfigError("field 'methods': compare needs at least two")
            for m in self.methods:
                if m not in _METHODS:
                    raise ConfigError(f"field 'methods': {m!r}")
        if self.command == "thermal":
            if self.P_prime is None or self.P_prime <= 0:
                raise ConfigError("field 'P_prime': positive kick strength required")
            if self.t_prime is None or self.t_prime < 0:
                raise ConfigError("field 't_prime': nonnegative time required")
        if self.window:
            try:
                lo, hi = (float(v) for v in self.window)
            except (TypeError, ValueError):
                raise ConfigError(f"field 'window': expected [lo, hi], got {list(self.window)!r}") from None
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"field 'window': expected finite lo < hi, got {list(self.window)!r}")
            self.window = (lo, hi)
        if self.command == "squeeze" and self.kicks < 1:
            raise ConfigError("field 'kicks': must be >= 1")
        if not self.output_path:
            raise ConfigError("field 'output_path': required")
        return self

    def to_dict(self):
        d = asdict(self)
        d["methods"] = list(self.methods)
        d["window"] = list(self.window)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["methods"] = tuple(d.get("methods", ()))
        d["window"] = tuple(d.get("window", ()))
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class ResultEnvelope:
    config: ScenarioConfig
    columns: dict            # name -> 1D array, equal lengths
    summary: dict
    runtime_ms: float = 0.0

    def csv_text(self):
        names = list(self.columns)
        arrays = [np.asarray(self.columns[n]) for n in names]
        n_rows = len(arrays[0])
        for a in arrays:
            if len(a) != n_rows:
                raise ValueError("column lengths differ")
        lines = [",".join(names)]
        for i in range(n_rows):
            lines.append(",".join(f"{float(a[i]):.15g}" for a in arrays))
        return "\n".join(lines) + "\n"

    def sidecar(self):
        return {
            "config": self.config.to_dict(),
            "version": __version__,
            "runtime_ms": round(self.runtime_ms, 3),
            "summary": self.summary,
        }


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_envelope(env):
    path = env.config.output_path
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    _atomic_write(path, env.csv_text())
    _atomic_write(os.path.splitext(path)[0] + ".json",
                  json.dumps(env.sidecar(), indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def _coupling(cfg):
    return Coupling.DIPOLE if cfg.coupling == "dipole" else Coupling.POLARIZATION


def _grid(cfg, three_d):
    if cfg.window:
        lo, hi = cfg.window
    else:
        lo, hi = (0.0, math.pi) if three_d else (0.0, 2.0 * math.pi)
    if three_d or cfg.window:
        return np.linspace(lo, hi, cfg.grid_points)
    return np.linspace(lo, hi, cfg.grid_points, endpoint=False)


def _exact_density_2d(cfg, grid):
    packet = q2.apply_kick(q2.ground_packet(0), q2.KickSpec(cfg.P, _coupling(cfg)))
    packet = q2.free_evolve(packet, cfg.resolved_tau())
    return q2.density(packet, grid).values, packet


def _exact_density_3d(cfg, grid):
    if _coupling(cfg) is Coupling.DIPOLE:
        packet = q3.dipole_kick_ground(cfg.P)
    else:
        packet = q3.polarization_kick_ground(cfg.P)
    packet = q3.free_evolve_3d(packet, cfg.resolved_tau())
    return q3.density_3d(packet, grid).values, packet


def _per_point(psi, grid, tau, P):
    # the Pearcey forms size one contour per point: one contour sized by a
    # column's largest |beta| would cost more
    return np.array([psi(t, tau, P) for t in grid])


# psi(cfg, grid, tau, P) for each semiclassical method, keyed as
# sc.annotate_validity names them; each evaluator is looked up on `sc` when
# called, so a wrapper later installed on the module sees every call
_SEMICLASSICAL = {
    "pearcey": lambda cfg, g, tau, P: _per_point(sc.pearcey_focus_2d, g, tau, P),
    "pearcey3d": lambda cfg, g, tau, P: _per_point(sc.pearcey_cusp_3d, g, tau, P),
    "airy": lambda cfg, g, tau, P: sc.airy_rainbow_2d_full(g, tau, P),
    "uniform-airy": lambda cfg, g, tau, P: sc.uniform_airy_3d(np.maximum(g, 1e-9), tau, P),
    "uniform-bessel": lambda cfg, g, tau, P: sc.uniform_bessel_glory(g, tau, P),
    "ford-wheeler": lambda cfg, g, tau, P: sc.ford_wheeler_glory(g, tau, P),
    "planar": lambda cfg, g, tau, P: sc.planar_psi(g, tau, P, radius=cfg.radius),
}


def _semiclassical_key(method, three_d):
    # "pearcey" is the 2D cusp or, with dim 3, the 3D one
    return "pearcey3d" if method == "pearcey" and three_d else method


def _method_density(cfg, method, grid):
    tau, P = cfg.resolved_tau(), cfg.P
    three_d = cfg.dim == 3
    if method == "exact":
        vals, _ = (_exact_density_3d if three_d else _exact_density_2d)(cfg, grid)
        return vals
    if method == "classical":
        geom = Geometry.SPHERE_3D if three_d else Geometry.PLANAR_2D
        params = MapParams(P * tau, _coupling(cfg), geom)
        return np.array([density_classical(t, params) for t in grid])
    psi = _SEMICLASSICAL.get(_semiclassical_key(method, three_d))
    if psi is None:
        raise ConfigError(f"field 'method': {method!r}")
    return np.abs(psi(cfg, grid, tau, P)) ** 2


def _peak_summary(grid, vals):
    i = int(np.argmax(vals))
    return {"peak_theta": float(grid[i]), "peak_value": float(vals[i])}


def run(config):
    """Execute one scenario and return its ResultEnvelope (not yet written)."""
    cfg = config.validate()
    t0 = time.perf_counter()
    summary = {}

    if cfg.command in ("quantum2d", "quantum3d"):
        three_d = cfg.command == "quantum3d"
        grid = _grid(cfg, three_d)
        vals, packet = (_exact_density_3d if three_d else _exact_density_2d)(cfg, grid)
        columns = {"theta": grid, "density": vals}
        if three_d:
            columns["weighted_density"] = 2.0 * math.pi * np.sin(grid) * vals
        summary.update(_peak_summary(grid, vals))
        summary["norm"] = packet.norm()

    elif cfg.command == "classical":
        three_d = cfg.dim == 3
        grid = _grid(cfg, three_d)
        vals = _method_density(cfg, "classical", grid)
        finite = np.where(np.isfinite(vals), vals, np.nan)
        columns = {"theta": grid, "density": finite}
        s = cfg.P * cfg.resolved_tau()
        summary["s"] = s
        if s >= 1:
            summary["rainbow_angle"] = rainbow_angle(s)
            g = glory_angles(s)
            if g.forward is not None:
                summary["glory_angle"] = g.forward
        summary["focal_time"] = focal_times(cfg.P, _coupling(cfg))

    elif cfg.command == "thermal":
        ens = th.sample_ensemble(cfg.particles, cfg.seed, kick_strength=cfg.P_prime)
        ens = th.kick(ens, _coupling(cfg))
        ens = th.evolve(ens, cfg.t_prime / cfg.P_prime)
        prof = th.angular_histogram(ens, cfg.grid_points)
        columns = {"theta": prof.grid, "density": prof.values}
        O, A = th.orientation_alignment(ens)
        summary.update({"orientation": O, "alignment": A})

    elif cfg.command == "semiclassical":
        three_d = cfg.dim == 3
        grid = _grid(cfg, three_d)
        vals = _method_density(cfg, cfg.method, grid)
        columns = {"theta": grid, "density": vals}
        summary.update(_peak_summary(grid, vals))
        if cfg.method not in ("exact", "classical", "planar"):
            tau = cfg.resolved_tau()
            mid = 0.5 * (grid[0] + grid[-1])
            key = _semiclassical_key(cfg.method, three_d)
            summary["validity"] = sc.annotate_validity(key, mid, tau, cfg.P).value

    elif cfg.command == "squeeze":
        if cfg.P_prime is not None:
            trace = sq.classical_accumulative_3d(
                cfg.particles, cfg.P_prime, cfg.kicks, cfg.seed, _coupling(cfg))
            columns = {
                "k": trace.column("k"), "u": trace.column("u"),
                "w": trace.column("w"), "dtau": trace.column("dtau"),
                "observable": trace.column("observable"),
            }
            obs = trace.column("observable")
            summary["final_observable"] = float(obs[-1])
            summary["monotone_decreasing"] = bool(np.all(np.diff(obs) < 0))
        else:
            trace = sq.run_accumulative(cfg.u0, cfg.w0, cfg.kicks)
            columns = {
                "k": trace.column("k"), "u": trace.column("u"),
                "w": trace.column("w"), "dtau": trace.column("dtau"),
            }
            k, u = trace.column("k"), trace.column("u")
            m = k >= max(100, cfg.kicks // 10)
            if np.count_nonzero(m) >= 2:
                summary["loglog_slope"] = float(np.polyfit(np.log(k[m]), np.log(u[m]), 1)[0])
            summary["final_u"] = float(u[-1])

    elif cfg.command == "compare":
        three_d = cfg.dim == 3
        grid = _grid(cfg, three_d)
        columns = {"theta": grid}
        vals = {}
        for m in cfg.methods:
            v = _method_density(cfg, m, grid)
            columns[f"density_{m.replace('-', '_')}"] = v
            vals[m] = v
        ref = cfg.methods[0]
        for m in cfg.methods[1:]:
            denom = np.maximum(np.abs(vals[ref]), 1e-300)
            ok = np.isfinite(vals[ref]) & np.isfinite(vals[m])
            gap = np.max(np.abs(vals[m][ok] - vals[ref][ok]) / denom[ok])
            summary[f"max_rel_gap_{ref}_{m}"] = float(gap)
        summary.update(_peak_summary(grid, vals[ref]))

    else:  # pragma: no cover - guarded by validate
        raise ConfigError(f"field 'command': {cfg.command!r}")

    return ResultEnvelope(config=cfg, columns=columns, summary=summary,
                          runtime_ms=(time.perf_counter() - t0) * 1e3)


def batch(config_path, out_dir=None):
    """Run a JSON-lines scenario file; one failure does not stop the rest.

    Returns (envelopes, index) where the index records per-scenario status
    and `runtime_ms` (the envelope's run time, or for a failed entry the
    time until the exception); a failed entry also records its class,
    "config" (ValueError) or "numerical" (RuntimeError).  Duplicate output
    paths are a config error.
    """
    scenarios = []
    with open(config_path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                scenarios.append((ln, ScenarioConfig.from_dict(json.loads(line))))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ConfigError(f"line {ln}: {exc}") from exc
    if out_dir:
        for _, cfg in scenarios:
            cfg.output_path = os.path.join(out_dir, cfg.output_path)
    paths = [cfg.output_path for _, cfg in scenarios]
    dupes = {p for p in paths if paths.count(p) > 1}
    if dupes:
        raise ConfigError(f"field 'output_path': duplicated in batch: {sorted(dupes)}")

    envelopes, index = [], []
    for ln, cfg in scenarios:
        entry = {"line": ln, "output_path": cfg.output_path}
        t0 = time.perf_counter()
        try:
            env = run(cfg)
            write_envelope(env)
            envelopes.append(env)
            entry["status"] = "ok"
            entry["runtime_ms"] = round(env.runtime_ms, 3)
            entry["summary"] = env.summary
        except (ValueError, RuntimeError) as exc:  # ConfigError is a ValueError
            entry["status"] = "failed"
            entry["runtime_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
            entry["failure"] = "config" if isinstance(exc, ValueError) else "numerical"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        index.append(entry)
    index_path = os.path.splitext(config_path)[0] + ".index.json"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        index_path = os.path.join(out_dir, os.path.basename(index_path))
    _atomic_write(index_path, json.dumps(index, indent=2) + "\n")
    return envelopes, index


# ----------------------------------------------------------------------
# argparse front end
# ----------------------------------------------------------------------

def _add_common(p, need_P=True):
    if need_P:
        p.add_argument("--P", type=float, required=True, help="kick strength")
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--s", type=float, help="map strength s = P*tau")
        g.add_argument("--tau", type=float, help="delay after the kick")
    p.add_argument("--coupling", choices=("dipole", "polarization"), default="dipole")
    p.add_argument("--grid", type=int, default=400, dest="grid_points")
    p.add_argument("--window", type=str, default=None,
                   help="theta window 'lo,hi' (default: full domain)")
    p.add_argument("--out", type=str, default=None, dest="output_path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kickedrotor",
        description="Kicked-rotor catastrophe simulations: exact quantum, "
                    "classical, semiclassical, thermal and squeezing runs.")
    sub = ap.add_subparsers(dest="command", required=True)

    for cmd in ("quantum2d", "quantum3d"):
        p = sub.add_parser(cmd, help=f"exact {cmd[-2:]} quantum density")
        _add_common(p)

    p = sub.add_parser("classical", help="classical ensemble density")
    _add_common(p)
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)

    p = sub.add_parser("semiclassical", help="asymptotic approximations")
    _add_common(p)
    p.add_argument("--method", choices=_METHODS, default="pearcey")
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--radius", type=float, default=sc.DISC_RADIUS,
                   help="planar-model disc radius")

    p = sub.add_parser("thermal", help="thermal Monte Carlo histogram")
    p.add_argument("--Pprime", type=float, required=True, dest="P_prime")
    p.add_argument("--st", type=float, required=True, dest="t_prime",
                   help="elapsed time as P'*t'")
    p.add_argument("--particles", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--coupling", choices=("dipole", "polarization"), default="dipole")
    p.add_argument("--grid", type=int, default=200, dest="grid_points")
    p.add_argument("--out", type=str, default=None, dest="output_path")

    p = sub.add_parser("squeeze", help="accumulative squeezing traces")
    p.add_argument("--kicks", type=int, default=1000)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--Pprime", type=float, default=None, dest="P_prime",
                   help="run the classical Monte Carlo driver (inf = T=0)")
    p.add_argument("--particles", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--coupling", choices=("dipole", "polarization"), default="dipole")
    p.add_argument("--out", type=str, default=None, dest="output_path")

    p = sub.add_parser("compare", help="overlay several methods on one grid")
    _add_common(p)
    p.add_argument("--methods", type=str, required=True,
                   help="comma-separated, e.g. exact,pearcey")
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--radius", type=float, default=sc.DISC_RADIUS)

    p = sub.add_parser("batch", help="run a JSON-lines scenario file")
    p.add_argument("config_file")
    p.add_argument("--outdir", type=str, default=None)
    return ap


def _default_out(cfg):
    base = os.environ.get("KICKEDROTOR_OUTDIR", ".")
    tag = cfg.command
    if cfg.P is not None:
        tag += f"_P{cfg.P:g}"
    if cfg.s is not None:
        tag += f"_s{cfg.s:g}"
    return os.path.join(base, tag + ".csv")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "batch":
            _, index = batch(args.config_file, args.outdir)
            failed = [e for e in index if e["status"] != "ok"]
            for e in index:
                print(f"[{e['status']}] {e['output_path']}"
                      + (f" ({e.get('error', '')})" if e["status"] != "ok" else ""))
            if any(e["failure"] == "numerical" for e in failed):
                return EXIT_NUMERICAL
            return EXIT_CONFIG if failed else EXIT_OK

        kwargs = {k: v for k, v in vars(args).items() if v is not None}
        kwargs.pop("command")
        if "methods" in kwargs:
            kwargs["methods"] = tuple(kwargs["methods"].split(","))
        if "window" in kwargs:
            kwargs["window"] = tuple(kwargs["window"].split(","))
        cfg = ScenarioConfig(command=args.command, **kwargs)
        if not cfg.output_path:
            cfg.output_path = _default_out(cfg)
        env = run(cfg)
        write_envelope(env)
        print(f"wrote {cfg.output_path}")
        for k, v in env.summary.items():
            print(f"  {k} = {v}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # out-of-domain windows/parameters surface as argument errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # ConvergenceError, TruncationError and other numerical failures
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
