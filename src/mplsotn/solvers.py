"""Two MILP solvers behind one contract.

``solve`` takes a model plus gap/time limits and returns a ``Solution``. With
no command configured it runs HiGHS in process through scipy, which needs no
external binaries. With a command template it writes the model to an LP file,
runs the command, and reads the solver's variable-value output back. The
default external command runs the bundled LP-file solver as
``python -m mplsotn.lp_solve_cli`` with the current interpreter, so the
external path works in a plain checkout with no install and no system solver.
After ``pip install`` the same solver is also available standalone as the
``mplsotn-lp-solve`` console script.

Every incumbent returned by either solver is feasibility-checked against the
model (1e-6 absolute) before being handed to callers.
"""

from __future__ import annotations

import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

from .milp import (
    MilpModel,
    Solution,
    SolveStatus,
    VarKind,
    check_solution,
    read_solution,
    snap_values,
    write_metadata,
    write_model,
    write_solution,
)

ENV_SOLVER_COMMAND = "MPLSOTN_SOLVER_CMD"

# The bundled LP-file solver's name: its console script, its argparse prog,
# and the solver name stages report when they run the default template.
BUNDLED_SOLVER_NAME = "mplsotn-lp-solve"

# Template placeholders: {lp} input model, {sol} output file, plus the
# requested {gap} and {time_limit}. The default runs the bundled solver with
# this interpreter, so it needs no install; the child imports mplsotn from the
# inherited PYTHONPATH or from site-packages, as the parent does.
DEFAULT_EXTERNAL_TEMPLATE = (
    f"{shlex.quote(sys.executable)} -m mplsotn.lp_solve_cli "
    "{lp} -o {sol} --gap {gap} --time-limit {time_limit}"
)

# Solvers may overshoot their deadline while wrapping up; this is the slack
# the driver (and the tests) allow on top of a stage's time budget.
TIME_LIMIT_SLACK_FRACTION = 0.10
TIME_LIMIT_SLACK_FLOOR_SECONDS = 1.0

OPTIMAL_GAP_EPSILON = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """``command`` None solves with HiGHS in process; a template runs it."""
    command: Optional[str] = None
    keep_artifacts_dir: Optional[Path] = None


def hard_deadline(time_limit: Optional[float]) -> Optional[float]:
    if time_limit is None:
        return None
    return time_limit * (1 + TIME_LIMIT_SLACK_FRACTION) + TIME_LIMIT_SLACK_FLOOR_SECONDS


def solve(model: MilpModel, *, gap: float = 0.0,
          time_limit: Optional[float] = None,
          solver: Optional[SolverConfig] = None,
          stage: str = "model") -> Solution:
    solver = solver or SolverConfig()
    start = time.perf_counter()

    if not model.variables:
        # nothing to decide; the objective is its constant
        sol = Solution(SolveStatus.OPTIMAL, float(model.objective_constant),
                       gap=0.0, solver_name="trivial")
        keep_artifacts(model, sol, solver, stage)
        return sol

    if solver.command is None:
        sol = _solve_embedded(model, gap=gap, time_limit=time_limit)
    else:
        sol = _solve_external(model, solver.command, gap=gap,
                              time_limit=time_limit, stage=stage)

    wall = time.perf_counter() - start
    sol = replace(sol, wall_seconds=wall)

    if sol.status.has_solution:
        bad = check_solution(model, sol.values)
        if bad:
            sol = replace(
                sol, status=SolveStatus.ERROR, objective=None, values={}, gap=None,
                message="solver returned an infeasible point: " + "; ".join(bad[:5]),
            )
    keep_artifacts(model, sol, solver, stage)
    return sol


def keep_artifacts(model: MilpModel, sol: Solution, solver: SolverConfig,
                   stage: str) -> None:
    if solver.keep_artifacts_dir is None:
        return
    d = Path(solver.keep_artifacts_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{stage}.lp").write_text(write_model(model))
    (d / f"{stage}.meta.json").write_text(write_metadata(model))
    (d / f"{stage}.sol").write_text(write_solution(sol))


def _solve_embedded(model: MilpModel, *, gap: float,
                    time_limit: Optional[float]) -> Solution:
    variables = model.variables
    model_rows = model.constraints
    names = [v.name for v in variables]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)

    c = np.zeros(n)
    for var, coeff in model.objective_terms:
        c[index[var]] = float(coeff)

    integrality = np.array(
        [0 if v.kind is VarKind.CONTINUOUS else 1 for v in variables]
    )
    lower = np.array([float(v.lower) for v in variables])
    upper = np.array([float(v.upper) for v in variables])

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    lo: list[float] = []
    hi: list[float] = []
    for r, con in enumerate(model_rows):
        for var, coeff in con.terms:
            rows.append(r)
            cols.append(index[var])
            data.append(float(coeff))
        rhs = float(con.rhs)
        if con.sense == "<=":
            lo.append(-np.inf)
            hi.append(rhs)
        elif con.sense == ">=":
            lo.append(rhs)
            hi.append(np.inf)
        else:
            lo.append(rhs)
            hi.append(rhs)

    n_rows = len(model_rows)
    matrix = scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(n_rows, n)
    )
    constraints = LinearConstraint(matrix, np.array(lo), np.array(hi)) \
        if n_rows else []

    options: dict = {"mip_rel_gap": float(gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    res = scipy_milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options=options,
    )

    # search statistics ride on every outcome, the failed ones included;
    # the dual bound is shifted by the objective constant HiGHS never saw
    nodes = getattr(res, "mip_node_count", None)
    bound = getattr(res, "mip_dual_bound", None)
    stats = {
        "solver_name": f"highs(scipy-{scipy.__version__})",
        "node_count": int(nodes) if nodes is not None else None,
        "dual_bound": (float(bound) + float(model.objective_constant)
                       if bound is not None and np.isfinite(bound) else None),
    }
    if res.status == 2:
        return Solution(SolveStatus.INFEASIBLE, message=res.message, **stats)
    if res.status == 3:
        return Solution(SolveStatus.UNBOUNDED, message=res.message, **stats)
    if res.x is None:
        return Solution(SolveStatus.ERROR, message=f"no incumbent: {res.message}",
                        **stats)

    raw = {name: float(x) for name, x in zip(names, res.x)}
    snapped, problems = snap_values(model, raw)
    if problems:
        return Solution(SolveStatus.ERROR, message="; ".join(problems[:5]), **stats)

    achieved = getattr(res, "mip_gap", None)
    achieved = float(achieved) if achieved is not None and np.isfinite(achieved) else None
    if res.status == 0:
        status = (
            SolveStatus.OPTIMAL
            if achieved is None or achieved <= OPTIMAL_GAP_EPSILON
            else SolveStatus.FEASIBLE_WITHIN_GAP
        )
    elif res.status == 1:
        status = SolveStatus.TIME_LIMIT_FEASIBLE
    else:
        return Solution(SolveStatus.ERROR, message=res.message, **stats)

    return Solution(status, float(model.objective_value(snapped)), snapped,
                    achieved, **stats)


def _render_command(template: str, *, lp: Path, sol: Path, gap: float,
                    time_limit: Optional[float]) -> list[str]:
    fields = {
        "lp": str(lp),
        "sol": str(sol),
        "gap": repr(float(gap)),
        "time_limit": repr(float(time_limit)) if time_limit is not None else "inf",
    }
    argv = []
    for token in shlex.split(template):
        try:
            argv.append(token.format(**fields))
        except (KeyError, IndexError) as exc:
            raise ValueError(f"bad solver command token {token!r}: {exc}") from exc
    return argv


def _solve_external(model: MilpModel, command: str, *, gap: float,
                    time_limit: Optional[float], stage: str) -> Solution:
    if "{lp}" not in command or "{sol}" not in command:
        return Solution(
            SolveStatus.NO_SOLVER,
            message="solver command template must use {lp} and {sol} placeholders",
        )

    # kept artifacts need no copy from here: solve() writes them afterwards
    with tempfile.TemporaryDirectory(prefix="mplsotn-") as tmp:
        workdir = Path(tmp)
        lp_path = workdir / f"{stage}.lp"
        sol_path = workdir / f"{stage}.sol"
        lp_path.write_text(write_model(model))
        argv = _render_command(command, lp=lp_path, sol=sol_path, gap=gap,
                               time_limit=time_limit)
        sol = _run_external(model, argv, sol_path, time_limit)
    return replace(sol, solver_name=(BUNDLED_SOLVER_NAME
                                     if command == DEFAULT_EXTERNAL_TEMPLATE
                                     else Path(argv[0]).name))


def _run_external(model: MilpModel, argv: list[str], sol_path: Path,
                  time_limit: Optional[float]) -> Solution:
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=hard_deadline(time_limit),
        )
    except FileNotFoundError:
        return Solution(SolveStatus.NO_SOLVER,
                        message=f"solver executable {argv[0]!r} not found on PATH")
    except subprocess.TimeoutExpired:
        if sol_path.exists():
            sol = read_solution(sol_path.read_text(), model)
            if sol.status.has_solution:
                return replace(sol, status=SolveStatus.TIME_LIMIT_FEASIBLE)
        return Solution(SolveStatus.ERROR,
                        message="external solver exceeded the hard deadline")

    if not sol_path.exists():
        detail = (proc.stderr or proc.stdout or "").strip()[:300]
        if proc.returncode != 0:
            return Solution(SolveStatus.ERROR,
                            message=f"solver exited {proc.returncode}: {detail}")
        return Solution(SolveStatus.ERROR,
                        message=f"solver wrote no solution file: {detail}")
    # read_solution recomputes the objective exactly, constant included
    return read_solution(sol_path.read_text(), model)
