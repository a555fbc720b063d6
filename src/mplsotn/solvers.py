"""One MILP solver behind one contract: HiGHS in process, through scipy.

``solve`` takes a model plus gap/time limits and returns a ``Solution``.
Every incumbent HiGHS returns is feasibility-checked against the model
(1e-6 absolute) before being handed to callers. ``keep_artifacts`` writes a
stage's LP text, metadata and solution, so a model can still be run through
another solver by hand.

scipy is imported when this module loads. Without it no solve can run, and
every solve reports ``NO_SOLVER`` instead of the import failing.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

_NO_SCIPY = "HiGHS needs scipy, which could not be imported"
try:
    import numpy as np
    import scipy
    import scipy.sparse
    from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp
except ImportError as exc:
    scipy_milp = None
    _NO_SCIPY += f" ({exc})"

from .milp import (
    MilpModel,
    Solution,
    SolveStatus,
    VarKind,
    check_solution,
    snap_values,
    write_metadata,
    write_model,
    write_solution,
)

OPTIMAL_GAP_EPSILON = 1e-9


def solve(model: MilpModel, *, gap: float = 0.0,
          time_limit: Optional[float] = None,
          keep_dir: Optional[Path] = None,
          stage: str = "model") -> Solution:
    """Solve ``model``; with ``keep_dir``, keep its files there under ``stage``."""
    start = time.perf_counter()
    if not model.variables:
        # nothing to decide; the objective is its constant
        sol = Solution(SolveStatus.OPTIMAL, float(model.objective_constant),
                       gap=0.0, solver_name="trivial")
    else:
        sol = (Solution(SolveStatus.NO_SOLVER, message=_NO_SCIPY)
               if scipy_milp is None
               else _solve_embedded(model, gap=gap, time_limit=time_limit))
        sol = replace(sol, wall_seconds=time.perf_counter() - start)
        bad = check_solution(model, sol.values) if sol.status.has_solution else []
        if bad:
            sol = replace(
                sol, status=SolveStatus.ERROR, objective=None, values={}, gap=None,
                message="solver returned an infeasible point: " + "; ".join(bad[:5]),
            )
    keep_artifacts(model, sol, keep_dir, stage)
    return sol


def keep_artifacts(model: MilpModel, sol: Solution, directory: Optional[Path],
                   stage: str) -> None:
    if directory is None:
        return
    d = Path(directory)
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
        lo.append(-np.inf if con.sense == "<=" else rhs)
        hi.append(np.inf if con.sense == ">=" else rhs)

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

