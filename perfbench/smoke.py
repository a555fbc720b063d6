#!/usr/bin/env python3
"""Smoke test of the benchmark itself on a tiny roster (ring4, no protection).

    python3 perfbench/smoke.py

Checks that both modes print every metric BENCHMARK.json names, each with its
unit, that the design passes the gate, that traced spans nest inside their
parents, and that no layer's self time is negative. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = run.load_baseline()
    wl = run.smoke_workload()
    errors = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, doc = run.measure(wl, seed=0, seconds=0, trace=trace,
                                  baseline=baseline, setup_runs=1)
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errors.append(f"{key}: gate failed: {doc['misses']}")
        printed = result["metrics"]
        for m in spec[key]:
            got = printed.get(m["name"])
            if got is None:
                errors.append(f"{key}: {m['name']} not printed")
            elif got["unit"] != m["unit"]:
                errors.append(f"{key}: {m['name']} unit {got['unit']!r} "
                              f"!= {m['unit']!r}")
        extra = set(printed) - {m["name"] for m in spec[key]}
        if extra:
            errors.append(f"{key}: metrics missing from BENCHMARK.json: "
                          f"{sorted(extra)}")
        if trace:
            if not doc["spans"]:
                errors.append("traced pass recorded no spans")
            errors += doc["nesting_errors"]
            errors += [f"layer {layer} self time {t} < 0"
                       for layer, t in doc["layer_self_s"].items() if t < 0]
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
