"""One benchmark pass in a fresh interpreter.

    python3 benchmarks/worker.py --result R.json [--scenarios F --outdir D]
                                 [--trace 0|1] [--spans S.csv]

Imports `kickedrotor.cli` and makes one small first call (the set-up that
every `kickedrotor` process pays), then, when a scenario file is given,
runs it once through `cli.batch`, the path `kickedrotor batch` takes.
Wall and CPU time cover `cli.batch` only.  With --trace 1 the package's
public functions are wrapped in spans for the pass and put back after it.
The result, including an exception that escaped `cli.batch`, is written as
JSON to R; the parent process checks the outputs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _first_call(cli):
    cfg = cli.ScenarioConfig(command="quantum2d", P=10.0, s=1.0, grid_points=4,
                             output_path="unused.csv")
    cli.run(cfg)


def _versions():
    import mpmath
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--result", required=True)
    ap.add_argument("--scenarios")
    ap.add_argument("--outdir")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import kickedrotor
    from kickedrotor import cli
    _first_call(cli)
    res = {"setup_s": time.perf_counter() - _T0,
           "package_file": os.path.abspath(kickedrotor.__file__),
           "versions": _versions()}

    if args.scenarios:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer(kickedrotor).install()
        index, escaped = None, None
        c0, w0 = _cpu_s(), time.perf_counter()
        try:
            _, index = cli.batch(args.scenarios, args.outdir)
        except Exception as exc:  # counted as failed scenarios by the parent
            escaped = f"{type(exc).__name__}: {exc}"
        res["wall_s"] = time.perf_counter() - w0
        res["cpu_s"] = _cpu_s() - c0
        if tracer is not None:
            tracer.uninstall()
            import layers
            res["layers"] = layers.summarize(tracer)
            res["layers"]["metrics"]["trace.span_cost_us"] = (
                Tracer(kickedrotor).span_cost_s() * 1e6)
            res["restored"] = not any(
                getattr(getattr(m, a), "__wrapped_by_tracer__", False)
                for m in tracer.modules() for a in vars(m))
            if args.spans:
                tracer.write_spans(args.spans)
        res["index"] = index
        res["escaped"] = escaped

    # ru_maxrss is in KiB on Linux
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
