"""Record the reference outputs of the default seed.

    python3 benchmarks/record_reference.py [workload ...]

Run from the root of a checkout.  Runs each workload's default-seed file
once through `cli.batch` (as a benchmark pass does), checks the seed-free
invariants and writes `benchmarks/reference/<workload>.json`.  Re-record
only for a change that is meant to alter the physics output, and say so
in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import check
import run
import scenarios


def record(root, workload):
    work = os.path.join(root, run.WORK_DIR, f"reference-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scen_path = os.path.join(work, "scenarios.jsonl")
    text = scenarios.generate(os.path.join(root, "cookbook", "figures.jsonl"),
                              workload, check.DEFAULT_SEED)
    with open(scen_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    scen = [json.loads(line) for line in text.splitlines()]
    outdir = os.path.join(work, "out")
    res = run.run_worker(root, os.path.join(work, "result.json"),
                         time.monotonic() + 600.0,
                         ["--scenarios", scen_path, "--outdir", outdir])
    bad = check.failures(check.check_pass(scen, outdir, res["index"]), res["escaped"])
    if bad:
        raise SystemExit(f"{workload}: outputs fail their invariants: {bad}")
    path = os.path.join(run.HERE, "reference", f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(check.record_reference(scen, outdir), fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv):
    for workload in argv or scenarios.WORKLOADS:
        record(os.getcwd(), workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
