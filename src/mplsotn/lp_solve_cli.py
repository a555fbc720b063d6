"""Subprocess MILP solver over LP files.

Lets the external-solver path work on machines without a system solver:
reads an LP file, solves it with HiGHS in process, writes a plain
variable-value solution file. Also usable standalone for debugging kept
artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .milp import ModelError, parse_lp, write_solution
from .solvers import BUNDLED_SOLVER_NAME, solve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog=BUNDLED_SOLVER_NAME,
        description="Solve an LP-format MILP file and write a solution file.",
    )
    parser.add_argument("model", type=Path, help="LP-format input file")
    parser.add_argument("-o", "--output", type=Path, required=True,
                        help="solution file to write")
    parser.add_argument("--gap", type=float, default=0.0,
                        help="relative optimality gap (default 0)")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="seconds before returning the incumbent")
    args = parser.parse_args(argv)

    try:
        text = args.model.read_text()
    except OSError as exc:
        print(f"cannot read {args.model}: {exc}", file=sys.stderr)
        return 2
    try:
        model = parse_lp(text)
    except ModelError as exc:
        print(f"cannot parse {args.model}: {exc}", file=sys.stderr)
        return 2

    time_limit = args.time_limit
    if time_limit is not None and time_limit == float("inf"):
        time_limit = None
    sol = solve(model, gap=args.gap, time_limit=time_limit)
    args.output.write_text(write_solution(sol))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
