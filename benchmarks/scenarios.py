"""Workload scenario files generated from the figure cookbook and a seed.

Each workload takes a fixed subset of `cookbook/figures.jsonl` (chosen by the
figure prefix of the output path) and perturbs it with a seed:

- map strength `s`: a small jitter that stays inside the range the cookbook
  uses for that workload, so the cost mix and the physics regime are kept;
- grid offset: the grid keeps its spacing h over the same theta window but
  starts at lo + u*h for a seeded u, so every seed samples the window at
  different points;
- Monte Carlo seeds (thermal, squeeze): replaced by a seeded Philox key.

Grid-point counts are set per workload (the cusp grid is coarse so the
workload can be repeated).  The same seed gives a byte-identical file.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cusp", "figures")

# figure prefixes of the cookbook output paths that make up each workload:
# `cusp` is the Pearcey compares, `figures` every other cookbook scenario
# (the grid-producing profiles and thermal histograms, then the fig14
# squeeze pulse trains)
_PREFIXES = {
    "cusp": ("fig08", "fig09"),
    "figures": ("fig02", "fig04", "fig05", "fig06", "fig07", "fig10", "fig11",
                "fig12", "fig13", "fig14"),
}

# cusp grid: 5 points per scenario over the cookbook window.  The per-point
# Pearcey cost runs from 1 ms to 900 ms with (x, beta), so a coarse grid
# over the full window keeps that mix at a size that repeats several times
# in a run.  With 4 points the last 2D point at s = 1.2 would straddle the
# series/contour switch at beta = 12 as the offset moves; with 5 no point
# comes within 0.1 of it.
CUSP_GRID_POINTS = 5
# jitter of s: absolute for the cusp compares, reflected at the ends of
# their range s = 1.0-1.4 (the Pearcey cost doubles between s = 1.00 and
# 1.01, where x leaves 0, so the jitter is kept small); relative and upward
# for the other figures, so s = 1 never drops below the focusing threshold
CUSP_S_JITTER = 0.003
FIGURES_S_JITTER = 0.005
# u is drawn near 1/2: the Pearcey cost per point grows steeply with theta,
# so a wide offset range would move the cusp workload's cost by +-15% with
# the seed; near 1/2 no cusp grid point crosses the series/contour switch
# at beta = 12, and no grid point lands on a window edge where a classical
# density can be singular
_OFFSET_RANGE = (0.45, 0.55)
_MC_SEED_MAX = 2**31 - 1


def cookbook_lines(cookbook_path):
    """The cookbook scenarios as dicts, in file order."""
    out = []
    with open(cookbook_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(json.loads(line))
    return out


def select(lines, workload):
    prefixes = _PREFIXES[workload]
    return [d for d in lines if d["output_path"].startswith(prefixes)]


def _default_window(d):
    three_d = d["command"] == "quantum3d" or d.get("dim") == 3
    return (0.0, math.pi) if three_d else (0.0, 2.0 * math.pi)


def _offset_window(d, n, u):
    """Window of n points with spacing h = (hi - lo)/n starting at lo + u*h.

    `cli._grid` uses linspace(lo', hi', n) with both ends included when a
    window is given, so lo' = lo + u*h and hi' = hi - (1 - u)*h reproduce
    spacing h exactly.
    """
    lo, hi = d.get("window") or _default_window(d)
    h = (hi - lo) / n
    return [lo + u * h, hi - (1.0 - u) * h]


def _perturb(d, workload, s_range, rng):
    d = dict(d)
    if workload == "cusp":
        d["grid_points"] = CUSP_GRID_POINTS
        lo, hi = s_range
        s = d["s"] + rng.uniform(-CUSP_S_JITTER, CUSP_S_JITTER)
        d["s"] = 2 * lo - s if s < lo else 2 * hi - s if s > hi else s
    elif "s" in d:
        d["s"] = d["s"] * (1.0 + rng.uniform(0.0, FIGURES_S_JITTER))
    if "grid_points" in d and d["command"] in ("quantum2d", "quantum3d", "classical", "compare"):
        d["window"] = _offset_window(d, d["grid_points"], rng.uniform(*_OFFSET_RANGE))
    if "seed" in d:
        d["seed"] = rng.randrange(1, _MC_SEED_MAX)
    return d


def generate(cookbook_path, workload, seed):
    """Return the workload's scenario file text for `seed`."""
    if workload not in _PREFIXES:
        raise ValueError(f"unknown workload {workload!r}")
    chosen = select(cookbook_lines(cookbook_path), workload)
    if not chosen:
        raise ValueError(f"cookbook has no scenarios for workload {workload!r}")
    s_vals = [d["s"] for d in chosen if "s" in d]
    s_range = (min(s_vals), max(s_vals)) if s_vals else None
    out = []
    for i, d in enumerate(chosen):
        # one stream per scenario, so a scenario's draw does not depend on
        # how many numbers the scenarios before it consumed
        rng = random.Random(f"{workload}:{seed}:{i}")
        out.append(json.dumps(_perturb(d, workload, s_range, rng)))
    return "\n".join(out) + "\n"
