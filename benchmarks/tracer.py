"""In-memory span tracer that wraps the package's public functions.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end, parent
span and scenario id.  Names imported by value (`from .specfun import
pearcey` in `semiclassical`, `density_classical` in `cli`, ...) are
rebound in every module that holds them, otherwise those calls would
escape their spans.  `uninstall()` puts every original attribute back.

Spans stay in memory; `write_spans()` dumps them once the traced pass is
over.  Self time is a span's duration minus the time its child spans
cover (calls are strictly nested in this single-threaded program, so the
children of a span never overlap).  Work counts (Gauss nodes, Bessel
elements, particles, branches, CSV rows) are taken at the same call
boundaries from the arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("specfun", "quantum2d", "quantum3d", "classical", "semiclassical",
           "thermal", "squeeze", "cli")
# public functions outside the modules' __all__ that the benchmark reports
EXTRA_PUBLIC = {"cli": ("write_envelope",)}
# Gauss-Legendre nodes per panel of specfun.gauss_segment
GAUSS_NODES_PER_PANEL = 24
# float64 arrays thermal.evolve reads (theta, p_theta, p_phi) and writes
# (theta, p_theta); bytes are computed from array sizes, not measured
EVOLVE_ARRAYS = 5
BASELINE_NMAX = 141
BASELINE_PARTICLES = 1_000_000


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Span recorder for one traced pass of a single-threaded program."""

    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names = []
        self._name_ids = {}
        # span: [name_id, start, end, parent, scenario, failed]
        self.spans = []
        self._stack = []
        self.scenario = -1
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._saved = []
        self._squeeze_depth = 0

    # -- installation ---------------------------------------------------

    def modules(self):
        return [getattr(self.package, m) for m in MODULES]

    def public_functions(self):
        """{id(original): (qualified name, original)} for every public function."""
        out = {}
        for mod in self.modules():
            short = mod.__name__.rsplit(".", 1)[-1]
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_PUBLIC.get(short, ()))
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out[id(fn)] = (f"{short}.{name}", fn)
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in self.public_functions().items()}
        for mod in self.modules():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)
        return self

    def uninstall(self):
        while self._saved:
            mod, attr, val = self._saved.pop()
            setattr(mod, attr, val)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        before = getattr(self, "_before_" + name.replace(".", "__"), None)
        after = getattr(self, "_after_" + name.replace(".", "__"), None)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.scenario, False]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[5] = True
                stack.pop()
                if after:
                    after(args, kwargs, None, span[2] - span[1], token)
                raise
            span[2] = clock()
            stack.pop()
            if after:
                after(args, kwargs, result, span[2] - span[1], token)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def span_cost_s(self, calls=20000):
        """Time one traced call adds: a wrapped no-op against a bare one."""
        def noop():
            return None

        times = []
        for fn in (noop, self._wrap("calibration.noop", noop)):
            t0 = self.clock()
            for _ in range(calls):
                fn()
            times.append(self.clock() - t0)
        return (times[1] - times[0]) / calls

    # per-function hooks: _before_<module>__<function> runs before the span
    # opens, _after_<module>__<function> after it closes

    def _before_cli__run(self, args, kwargs):
        self.scenario += 1

    def _after_specfun__gauss_segment(self, args, kwargs, result, dt, token):
        self.counts["specfun.gauss_segment.nodes"] += (
            _arg(args, kwargs, 3, "n_panels") * GAUSS_NODES_PER_PANEL)

    def _after_specfun__bessel_j0(self, args, kwargs, result, dt, token):
        self.counts["specfun.bessel_j0.elements"] += np.size(_arg(args, kwargs, 0, "x"))

    def _after_classical__invert_map(self, args, kwargs, result, dt, token):
        if result is not None:
            self.counts["classical.invert_map.branches"] += len(result.roots)

    def _after_classical__density_classical(self, args, kwargs, result, dt, token):
        params = _arg(args, kwargs, 1, "params")
        if params.geometry.name == "PLANAR_2D":
            self.samples["classical.density_classical_2d.s"].append(dt)

    def _after_quantum2d__density(self, args, kwargs, result, dt, token):
        packet = _arg(args, kwargs, 0, "packet")
        points = len(_arg(args, kwargs, 1, "grid"))
        self.counts["quantum2d.density.terms"] += points * (2 * packet.n_max + 1)
        if packet.n_max == BASELINE_NMAX:
            self.counts["quantum2d.density_nmax141.points"] += points
            self.counts["quantum2d.density_nmax141.s"] += dt

    def _before_quantum3d__build_recurrence(self, args, kwargs):
        cache = getattr(self.package.quantum3d, "_TABLE_CACHE", None)
        return cache is not None and _arg(args, kwargs, 0, "L_max") in cache

    def _after_quantum3d__build_recurrence(self, args, kwargs, result, dt, token):
        self.counts["quantum3d.build_recurrence.hits"] += bool(token)

    def _thermal_pass(self, args, kwargs):
        n = len(_arg(args, kwargs, 0, "ensemble").theta)
        if self._squeeze_depth:
            self.counts["squeeze.particle_passes"] += n
        return n

    def _after_thermal__evolve(self, args, kwargs, result, dt, token):
        n = self._thermal_pass(args, kwargs)
        self.counts["thermal.evolve.particles"] += n
        if self._squeeze_depth:
            self.counts["squeeze.evolve_calls"] += 1
        if n == BASELINE_PARTICLES:
            self.samples["thermal.evolve_1e6.s"].append(dt)

    def _after_thermal__kick(self, args, kwargs, result, dt, token):
        self._thermal_pass(args, kwargs)

    def _after_thermal__orientation_alignment(self, args, kwargs, result, dt, token):
        self._thermal_pass(args, kwargs)

    def _before_squeeze__classical_accumulative_3d(self, args, kwargs):
        self._squeeze_depth += 1

    def _after_squeeze__classical_accumulative_3d(self, args, kwargs, result, dt, token):
        self._squeeze_depth -= 1
        self.counts["squeeze.kicks"] += _arg(args, kwargs, 2, "kicks")
        self.counts["squeeze.particles"] += (
            _arg(args, kwargs, 0, "n_particles") * _arg(args, kwargs, 2, "kicks"))

    def _after_cli__write_envelope(self, args, kwargs, result, dt, token):
        env = _arg(args, kwargs, 0, "env")
        if result is None and env.columns:
            first = next(iter(env.columns.values()))
            self.counts["cli.csv_rows"] += len(first)
            path = env.config.output_path
            if os.path.exists(path):
                self.counts["cli.csv_bytes"] += os.path.getsize(path)

    # -- reduction ------------------------------------------------------

    def per_function(self):
        """{name: {"calls", "self_s", "total_s", "errors", "durations"}}.

        Every public function appears, called or not; total_s sums the
        inclusive durations of outermost calls only, so recursion is not
        counted twice.
        """
        n = len(self.spans)
        child = [0.0] * n
        for nid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0,
                      "durations": []}
               for name in self.names}
        for i, (nid, t0, t1, parent, _, failed) in enumerate(self.spans):
            rec = out[self.names[nid]]
            dur = t1 - t0
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            rec["errors"] += int(failed)
            rec["durations"].append(dur)
            if parent < 0 or self.spans[parent][0] != nid:
                rec["total_s"] += dur
        return out

    def write_spans(self, path):
        """One CSV line per span: name,start_s,end_s,parent,scenario,failed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,scenario,failed\n")
            for nid, t0, t1, parent, scen, failed in self.spans:
                fh.write(f"{self.names[nid]},{t0!r},{t1!r},{parent},{scen},{int(failed)}\n")
