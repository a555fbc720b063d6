#!/usr/bin/env python3
"""Record perfbench/baseline.json from the current source tree.

    python3 perfbench/record.py [--seconds 30]

First one traced pass per workload, not gated, pins what the gate checks
later: each input's instance_hash, each design's exact optimum, and the
size, node count and LP digest of every solved model. Then it runs the
benchmark itself once per workload and mode at seed 0 and stores the
metrics, with their unit and direction, next to the machine they came from.
Only re-record when the inputs or the optima are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import run
import scipy
import tracing
from mplsotn.model import instance_hash

BENCHMARK = run.ROOT / "BENCHMARK.json"


def pin(workdir: Path) -> dict:
    instances, optima, models = {}, {}, {}
    table = dict(run.workloads(), smoke=run.smoke_workload())
    for name, wl in table.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            done = run.timed_pass(wl, list(wl.instances), workdir)
        for inst in wl.instances:
            instances[inst.name] = instance_hash(inst)
        for o in done.outcomes:
            if (o.problems or o.cost is None
                    or any(st != "optimal" for st in o.stage_statuses)):
                raise SystemExit(f"cannot pin {o.label}: {o.problems}")
            optima[o.label] = str(o.cost)
        models[name] = {
            r["sha256"]: {k: r[k] for k in ("stage", "vars", "rows", "nnz",
                                            "nodes")}
            for r in tracing.model_records(tracer.spans)
        }
    return {"instances": instances, "optima": optima, "models": models}


def bench_metrics(seconds: int) -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for wl in spec["workloads"]:
        merged = {}
        for trace in ("0", "1"):
            proc = subprocess.run(
                spec["command"] + ["--workload", wl["name"], "--seed", "0",
                                   "--seconds", str(seconds), "--trace", trace],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            merged.update(result["metrics"])
        out[wl["name"]] = {
            name: dict(m, better=better[name]) for name, m in merged.items()}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir()
    try:
        doc = {
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "scipy": scipy.__version__, "solver": "HiGHS"},
            **pin(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    doc["metrics"] = bench_metrics(args.seconds)
    run.BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.BASELINE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
