"""Command-line front end: scenario configs, dispatch, CSV/JSON output.

One table, `_COMMANDS`, maps each command to its runner, which turns a
validated config into CSV columns and summary scalars, and to the
`ScenarioConfig` fields the command takes.  `validate`, `run` and
`build_parser` all read it: each subparser has one flag per field, with
the field's default, and `validate` is the one rule set for a command-line
run and a batch line alike, so the same fields give the same scenario.
Every run writes a CSV (header row, 15 significant digits, UTF-8, LF) and
a JSON sidecar holding the exact config, version, runtime and summary
scalars, so any output file can be reproduced from its sidecar alone.
`batch` executes a JSON-lines file of scenarios, isolating failures.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields

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

class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""


def _check_type(field, value):
    # a value against its field's annotation: "str", "int" or "float" (a
    # finite real; P_prime may also be +inf, zero temperature), with
    # "| None" where None is allowed; the tuple fields have their own rules
    kind = field.type.split(" |")[0]
    if kind == "tuple" or (value is None and field.type.endswith("| None")):
        return
    if kind == "str":
        ok, expected = isinstance(value, str), "a string"
    elif kind == "int":
        ok, expected = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
    else:
        inf_ok = field.name == "P_prime"
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and (math.isfinite(value) or (inf_ok and value == math.inf)))
        expected = "a finite number or inf" if inf_ok else "a finite number"
    if not ok:
        raise ConfigError(f"field '{field.name}': expected {expected}, got {value!r}")


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
        for f in fields(self):
            _check_type(f, getattr(self, f.name))
        if self.command not in _COMMANDS:
            raise ConfigError(f"field 'command': unknown command {self.command!r}")
        taken = _COMMANDS[self.command][1]
        for f in fields(self):
            # checked on the value, so that a sidecar's full config still loads
            if f.name not in (*taken, "command", "output_path") and getattr(self, f.name) != f.default:
                raise ConfigError(f"field '{f.name}': {self.command} does not take it")
        if self.s is not None and self.tau is not None:
            raise ConfigError("field 's': give 's' or 'tau', not both")
        if self.grid_points < 2:
            raise ConfigError("field 'grid_points': must be >= 2")
        if self.dim not in (2, 3):
            raise ConfigError(f"field 'dim': must be 2 or 3, got {self.dim}")
        if self.coupling not in ("dipole", "polarization"):
            raise ConfigError(f"field 'coupling': {self.coupling!r}")
        if "P" in taken:
            if self.P is None or self.P <= 0:
                raise ConfigError("field 'P': positive kick strength required")
            self.resolved_tau()
        if self.method not in _METHODS:
            raise ConfigError(f"field 'method': {self.method!r}")
        if self.command == "compare":
            if len(self.methods) < 2:
                raise ConfigError("field 'methods': compare needs at least two")
            for i, m in enumerate(self.methods):
                if not isinstance(m, str) or m not in _METHODS:
                    raise ConfigError(f"field 'methods': {m!r}")
                if m in self.methods[:i]:
                    raise ConfigError(f"field 'methods': {m!r} is repeated")
        if self.command == "thermal":
            # squeeze reads P_prime = inf as zero temperature; here the time
            # t' = (P't')/P' would be 0, the unkicked ensemble
            if self.P_prime is None or not 0 < self.P_prime < math.inf:
                raise ConfigError("field 'P_prime': finite positive kick strength required")
            if self.t_prime is None or self.t_prime < 0:
                raise ConfigError("field 't_prime': nonnegative time required")
        if self.window:
            lo, hi = self.window if len(self.window) == 2 else (None, None)
            if not (all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                        for v in (lo, hi)) and lo < hi):
                raise ConfigError(f"field 'window': expected finite [lo, hi], lo < hi, got {list(self.window)!r}")
            self.window = (float(lo), float(hi))
        if self.radius <= 0:
            raise ConfigError("field 'radius': positive disc radius required")
        if self.kicks < 1:
            raise ConfigError("field 'kicks': must be >= 1")
        if not self.output_path:
            raise ConfigError("field 'output_path': required")
        return self

    def to_dict(self):
        return {**vars(self), "methods": list(self.methods), "window": list(self.window)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"expected a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        d = dict(d)
        for name in ("methods", "window"):
            try:
                d[name] = tuple(d.get(name, ()))
            except TypeError:
                raise ConfigError(f"field '{name}': expected a list, got {d[name]!r}") from None
        return cls(**d)


@dataclass
class ResultEnvelope:
    config: ScenarioConfig
    columns: dict            # name -> 1D array, equal lengths
    summary: dict
    runtime_ms: float = 0.0

    def csv_text(self):
        names = list(self.columns)
        cells = [list(map("{:.15g}".format, np.asarray(self.columns[n], dtype=float).tolist()))
                 for n in names]
        if any(len(col) != len(cells[0]) for col in cells):
            raise ValueError("column lengths differ")
        return "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n"

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


def _grid(cfg, three_d):
    # the window, or the sphere's [0, pi] or the circle's [0, 2 pi) (no endpoint)
    lo, hi = cfg.window or (0.0, math.pi if three_d else 2.0 * math.pi)
    return np.linspace(lo, hi, cfg.grid_points, endpoint=three_d or bool(cfg.window))


def _exact_density(cfg, grid, three_d):
    # the exact density on the grid, and the kicked and evolved packet,
    # whose norm and edge coefficients are checked
    if not three_d:
        packet = q2.apply_kick(q2.ground_packet(), cfg.P, Coupling(cfg.coupling))
        packet = q2.free_evolve(packet, cfg.resolved_tau()).check()
        return q2.density(packet, grid), packet
    kick = q3.dipole_kick_ground if cfg.coupling == "dipole" else q3.polarization_kick_ground
    packet = q3.free_evolve_3d(kick(cfg.P), cfg.resolved_tau()).check()
    return q3.density_3d(packet, grid), packet


def _classical_density(cfg, grid, tau, P):
    # NaN, not inf, at a singular angle (a fold or a glory), in every output
    vals = density_classical(grid, MapParams(
        P * tau, Coupling(cfg.coupling), Geometry.SPHERE_3D if cfg.dim == 3 else Geometry.PLANAR_2D))
    return np.where(np.isfinite(vals), vals, np.nan)


# method -> (density(cfg, grid, tau, P), whether `semiclassical` tags the
# run with its sc.annotate_validity window); the keys are the valid
# methods.  Each evaluator is looked up on its module when called, so a
# wrapper later installed there sees every call.
_METHODS = {
    "exact": (lambda cfg, g, tau, P: _exact_density(cfg, g, cfg.dim == 3)[0], False),
    "pearcey": (lambda cfg, g, tau, P: np.abs(
        (sc.pearcey_cusp_3d if cfg.dim == 3 else sc.pearcey_focus_2d)(g, tau, P)) ** 2, True),
    "airy": (lambda cfg, g, tau, P: np.abs(sc.airy_rainbow_2d_full(g, tau, P)) ** 2, True),
    "uniform-airy": (lambda cfg, g, tau, P:
                     np.abs(sc.uniform_airy_3d(np.maximum(g, 1e-9), tau, P)) ** 2, True),
    "uniform-bessel": (lambda cfg, g, tau, P: np.abs(sc.uniform_bessel_glory(g, tau, P)) ** 2, True),
    "ford-wheeler": (lambda cfg, g, tau, P: np.abs(sc.ford_wheeler_glory(g, tau, P)) ** 2, True),
    "planar": (lambda cfg, g, tau, P:
               np.abs(sc.planar_psi(g, tau, P, radius=cfg.radius)) ** 2, False),
    "classical": (_classical_density, False),
}


def _method_density(cfg, method, grid):
    return _METHODS[method][0](cfg, grid, cfg.resolved_tau(), cfg.P)


def _peak_summary(grid, vals):
    # the first angle within 1e-12 of the largest finite value, so that
    # rounding does not choose between the mirror peaks of a symmetric density
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("no finite density value on the grid")
    top = vals[finite].max()
    i = int(np.argmax(np.isclose(vals, top, rtol=1e-12, atol=0.0)))
    return {"peak_theta": float(grid[i]), "peak_value": float(top)}


def _quantum(cfg):
    three_d = cfg.command == "quantum3d"
    grid = _grid(cfg, three_d)
    vals, packet = _exact_density(cfg, grid, three_d)
    columns = {"theta": grid, "density": vals}
    if three_d:
        # the solid-angle density, whose theta-integral is 1
        columns["weighted_density"] = 2.0 * math.pi * np.sin(grid) * vals
    return columns, {**_peak_summary(grid, vals), "norm": packet.norm()}


def _classical(cfg):
    grid = _grid(cfg, cfg.dim == 3)
    vals = _method_density(cfg, "classical", grid)
    s = cfg.P * cfg.resolved_tau()
    summary = {"s": s}
    if s >= 1:
        summary["rainbow_angle"] = rainbow_angle(s)
        forward, _ = glory_angles(s)
        if forward is not None:
            summary["glory_angle"] = forward
    summary["focal_time"] = focal_times(cfg.P, Coupling(cfg.coupling))
    return {"theta": grid, "density": vals}, summary


def _thermal(cfg):
    grid, dens, O, A = th.kicked_profile(th.sample_blocks(cfg.particles, cfg.seed), cfg.P_prime,
                                         cfg.t_prime / cfg.P_prime, cfg.grid_points,
                                         Coupling(cfg.coupling))
    return {"theta": grid, "density": dens}, {"orientation": O, "alignment": A}


def _semiclassical(cfg):
    three_d = cfg.dim == 3
    grid = _grid(cfg, three_d)
    vals = _method_density(cfg, cfg.method, grid)
    summary = _peak_summary(grid, vals)
    if _METHODS[cfg.method][1]:
        mid = 0.5 * (grid[0] + grid[-1])
        # sc.annotate_validity names the 3D cusp "pearcey3d"
        key = "pearcey3d" if cfg.method == "pearcey" and three_d else cfg.method
        summary["validity"] = sc.annotate_validity(key, mid, cfg.resolved_tau(), cfg.P)
    return {"theta": grid, "density": vals}, summary


def _squeeze(cfg):
    if cfg.P_prime is None:
        columns = sq.run_accumulative(cfg.u0, cfg.w0, cfg.kicks)
        k, u = columns["k"], columns["u"]
        m = k >= max(100, cfg.kicks // 10)
        summary = {}
        if np.count_nonzero(m) >= 2:
            summary["loglog_slope"] = float(np.polyfit(np.log(k[m]), np.log(u[m]), 1)[0])
        summary["final_u"] = float(u[-1])
        return columns, summary
    columns = sq.classical_accumulative_3d(
        cfg.particles, cfg.P_prime, cfg.kicks, cfg.seed, Coupling(cfg.coupling))
    steps, iters = columns.pop("scan_steps"), columns.pop("newton_iters")
    obs = columns["observable"]
    return columns, {"final_observable": float(obs[-1]),
                     "monotone_decreasing": bool(np.all(np.diff(obs) < 0)),
                     "scan_steps_per_kick": steps.tolist(),
                     "newton_iters_per_kick": iters.tolist()}


def _compare(cfg):
    grid = _grid(cfg, cfg.dim == 3)
    vals = {m: _method_density(cfg, m, grid) for m in cfg.methods}
    columns = {"theta": grid, **{f"density_{m.replace('-', '_')}": v for m, v in vals.items()}}
    ref, summary = cfg.methods[0], {}
    for m in cfg.methods[1:]:
        denom = np.maximum(np.abs(vals[ref]), 1e-300)
        ok = np.isfinite(vals[ref]) & np.isfinite(vals[m])
        gap = np.max(np.abs(vals[m][ok] - vals[ref][ok]) / denom[ok])
        summary[f"max_rel_gap_{ref}_{m}"] = float(gap)
    return columns, {**summary, **_peak_summary(grid, vals[ref])}


# the fields of a density on a theta grid, and of a Monte Carlo ensemble
_GRID_FIELDS = ("P", "s", "tau", "coupling", "grid_points", "window")
_ENSEMBLE_FIELDS = ("coupling", "particles", "seed", "P_prime")

# command -> (runner, the ScenarioConfig fields it takes besides
# `output_path`, help); a runner takes a validated config and returns
# (columns, summary).  The keys are the valid commands; `validate` holds
# every other field to its default; `build_parser` gives each field a flag.
_COMMANDS = {
    "quantum2d": (_quantum, _GRID_FIELDS, "exact 2D quantum density"),
    "quantum3d": (_quantum, _GRID_FIELDS, "exact 3D quantum density"),
    "classical": (_classical, _GRID_FIELDS + ("dim",), "classical ensemble density"),
    "thermal": (_thermal, _ENSEMBLE_FIELDS + ("grid_points", "t_prime"), "thermal Monte Carlo histogram"),
    "semiclassical": (_semiclassical, _GRID_FIELDS + ("method", "dim", "radius"), "asymptotic approximations"),
    "squeeze": (_squeeze, _ENSEMBLE_FIELDS + ("kicks", "u0", "w0"), "accumulative squeezing traces"),
    "compare": (_compare, _GRID_FIELDS + ("methods", "dim", "radius"), "overlay several methods on one grid"),
}


def run(config):
    """Execute one scenario and return its ResultEnvelope (not yet written)."""
    cfg = config.validate()
    t0 = time.perf_counter()
    columns, summary = _COMMANDS[cfg.command][0](cfg)
    return ResultEnvelope(config=cfg, columns=columns, summary=summary,
                          runtime_ms=(time.perf_counter() - t0) * 1e3)


def _parse_line(line, out_dir):
    # one batch line as a validated config, its output path under out_dir
    try:
        d = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    cfg = ScenarioConfig.from_dict(d).validate()
    if out_dir:
        cfg.output_path = os.path.join(out_dir, cfg.output_path)
    return cfg


def batch(config_path, out_dir=None):
    """Run a JSON-lines scenario file; one failure does not stop the rest.

    Each line is parsed, validated and run in turn.  Returns (envelopes,
    index) where the index records per-line status and `runtime_ms` (the
    envelope's run time, or for a failed entry the time until the
    exception); a failed entry also records its class, "config"
    (ValueError: a malformed line, an invalid field, an output path an
    earlier line already named; OSError: an output path that cannot be
    written; MemoryError: a grid or ensemble larger than can be allocated)
    or "numerical" (RuntimeError).
    """
    with open(config_path, encoding="utf-8") as fh:
        lines = [(ln, line.strip()) for ln, line in enumerate(fh, 1)]
    envelopes, index, seen = [], [], set()
    for ln, line in lines:
        if not line or line.startswith("#"):
            continue
        entry = {"line": ln, "output_path": ""}
        t0 = time.perf_counter()
        try:
            cfg = _parse_line(line, out_dir)
            entry["output_path"] = cfg.output_path
            if cfg.output_path in seen:
                raise ConfigError("field 'output_path': already named by an earlier line")
            seen.add(cfg.output_path)
            env = run(cfg)
            write_envelope(env)
            envelopes.append(env)
            entry["status"] = "ok"
            entry["runtime_ms"] = round(env.runtime_ms, 3)
            entry["summary"] = env.summary
        except (ValueError, OSError, MemoryError, RuntimeError) as exc:  # ConfigError is a ValueError
            entry["status"] = "failed"
            entry["runtime_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
            entry["failure"] = "numerical" if isinstance(exc, RuntimeError) else "config"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        index.append(entry)
    index_path = os.path.splitext(config_path)[0] + ".index.json"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        index_path = os.path.join(out_dir, os.path.basename(index_path))
    _atomic_write(index_path, json.dumps(index, indent=2) + "\n")
    return envelopes, index


# flag spellings other than --<field>
_FLAGS = {"grid_points": "--grid", "P_prime": "--Pprime", "t_prime": "--st", "output_path": "--out"}
# help for the flags whose meaning the name does not give
_HELP = {
    "P": "kick strength",
    "s": "map strength s = P*tau (give s or tau)",
    "tau": "delay after the kick",
    "method": "one of " + ", ".join(_METHODS),
    "methods": "comma-separated, e.g. exact,pearcey",
    "window": "theta window 'lo,hi' (default: the full domain)",
    "P_prime": "kick strength in thermal units; squeeze runs the classical driver (inf = T=0)",
    "t_prime": "elapsed time as P'*t'",
    "radius": "planar-model disc radius",
    "output_path": "output CSV (default: named from the command and the fields set)",
}


def _items(text):
    # a comma-separated list, numbers where every item reads as one, as on a batch line
    try:
        return tuple(map(float, text.split(",")))
    except ValueError:
        return tuple(text.split(","))


_TYPES = {"str": str, "int": int, "float": float, "tuple": _items}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kickedrotor",
        description="Kicked-rotor catastrophe simulations: exact quantum, "
                    "classical, semiclassical, thermal and squeezing runs.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, taken, help_text) in _COMMANDS.items():
        # no abbreviations: --P on thermal must not read as --Pprime
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for f in fields(ScenarioConfig):
            if f.name in taken or f.name == "output_path":
                default = "" if f.default in (None, (), "") else f" (default {f.default})"
                p.add_argument(_FLAGS.get(f.name, "--" + f.name), dest=f.name,
                               type=_TYPES[f.type.split(" |")[0]],
                               help=(_HELP.get(f.name, "") + default).strip())
    p = sub.add_parser("batch", help="run a JSON-lines scenario file")
    p.add_argument("config_file")
    p.add_argument("--outdir", type=str, default=None)
    return ap


def _tag(value):
    if isinstance(value, tuple):
        return ",".join(map(_tag, value))
    return f"{value:.15g}" if isinstance(value, float) else str(value)


def _default_out(cfg):
    # the command, then each field the run set away from its default, as
    # name and value: runs that differ in any field write different files
    tag = cfg.command + "".join(
        f"_{f.name}{_tag(getattr(cfg, f.name))}" for f in fields(cfg)
        if f.name in _COMMANDS[cfg.command][1] and getattr(cfg, f.name) != f.default)
    return os.path.join(os.environ.get("KICKEDROTOR_OUTDIR", "."), tag + ".csv")


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

        cfg = ScenarioConfig(**{k: v for k, v in vars(args).items() if v is not None})
        if not cfg.output_path:
            cfg.output_path = _default_out(cfg)
        env = run(cfg)
        write_envelope(env)
        print(f"wrote {cfg.output_path}")
        for k, v in env.summary.items():
            print(f"  {k} = {v}")
        return EXIT_OK
    except (ValueError, OSError, MemoryError) as exc:
        # ConfigError, out-of-domain windows/parameters in the evaluators,
        # files that cannot be read or written, allocations too large to make
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # ConvergenceError, TruncationError and other numerical failures
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
