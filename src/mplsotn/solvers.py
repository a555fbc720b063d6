"""One MILP solver behind one contract: HiGHS in process, through scipy.

``solve`` takes a model plus gap/time limits and returns a ``Solution``.
Every incumbent HiGHS returns is feasibility-checked against the model
(1e-6 absolute) before being handed to callers. ``keep_artifacts`` writes a
stage's LP text, metadata and solution, so a model can still be run through
another solver by hand.

HiGHS comes from the pybind11 binding scipy bundles at
``scipy/optimize/_highspy/_core*``, the one ``scipy.optimize.milp`` drives.
It is loaded from its file rather than imported by name: importing it by
name first runs ``scipy.optimize``'s ``__init__``, which pulls in
``scipy.sparse`` and most of scipy and took a ring4 cold start from 0.3 s to
0.9 s on a 2-core VM, while loading the file takes under 10 ms. The module
is registered under its own name, so a later ``import scipy.optimize``
shares it. ``scipy_milp`` fills the binding's model in as ``milp`` would and
reads the result back in ``milp``'s terms.

The binding is loaded when this module loads. Without scipy or the binding
no solve can run, and every solve reports ``NO_SOLVER`` instead of the
import failing.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

_CORE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, without importing ``scipy.optimize``."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    path = next((folder / f"_core{suffix}"
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if (folder / f"_core{suffix}").is_file()), None)
    if path is None:
        raise ImportError(f"no HiGHS binding _core* under {folder}")
    spec = importlib.util.spec_from_file_location(_CORE, path)
    module = importlib.util.module_from_spec(spec)
    # registered under its own name before it runs, as an import would: a
    # later import of scipy.optimize then finds this module instead of
    # loading the file a second time, and pybind11 registers its types once
    sys.modules[_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return module


_NO_SCIPY = "HiGHS needs scipy and the HiGHS binding it bundles"
try:
    import numpy as np
    import scipy
    _highs = _load_highs()
except ImportError as exc:
    _highs = None
    _NO_SCIPY += f", which could not be loaded ({exc})"

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

    # column-wise, rows ascending within a column: terms arrive row by row,
    # so a stable sort by column gives the matrix milp's CSR->CSC hands HiGHS
    cols_arr = np.array(cols, dtype=np.int32)
    order = np.argsort(cols_arr, kind="stable")
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols_arr, minlength=n), out=start[1:])

    res = scipy_milp(
        c=c,
        integrality=integrality,
        col_lower=lower,
        col_upper=upper,
        start=start,
        index=np.array(rows, dtype=np.int32)[order],
        value=np.array(data)[order],
        row_lower=np.array(lo),
        row_upper=np.array(hi),
        gap=float(gap),
        time_limit=None if time_limit is None else float(time_limit),
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


@dataclass(frozen=True)
class HighsResult:
    """The fields of ``scipy.optimize.milp``'s result that ``solve`` reads."""

    status: int  # 0 optimal, 1 limit reached, 2 infeasible, 3 unbounded, 4 other
    message: str
    x: Optional[np.ndarray] = None
    mip_node_count: Optional[int] = None
    mip_dual_bound: Optional[float] = None
    mip_gap: Optional[float] = None


# HiGHS model status -> milp's status code; every other status is 4
_MILP_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
                "kInfeasible": 2, "kModelError": 2, "kUnbounded": 3}
_LIMITS = ("kTimeLimit", "kIterationLimit", "kSolutionLimit")


def scipy_milp(*, c, integrality, col_lower, col_upper, start, index, value,
               row_lower, row_upper, gap: float,
               time_limit: Optional[float] = None) -> HighsResult:
    """Solve min c.x s.t. row bounds on the CSC matrix, as ``milp`` would.

    The model, the options (``log_to_console`` off, ``mip_rel_gap`` and the
    time limit) and the reading of the result are those of
    ``scipy.optimize.milp``, so HiGHS runs the same search and every answer
    matches ``milp``'s bit for bit. ``x`` is None wherever ``milp`` returns
    none, and the search statistics ride only on a MILP with a point.
    """
    h = _highs
    n_cols, n_rows = len(c), len(row_lower)
    lp = h.HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    matrix = lp.a_matrix_
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.format_ = h.MatrixFormat.kColwise
    matrix.start_ = start
    matrix.index_ = index
    matrix.value_ = value
    lp.col_cost_ = c
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    kinds = (h.HighsVarType.kContinuous, h.HighsVarType.kInteger)
    lp.integrality_ = [kinds[k] for k in integrality]

    highs = h._Highs()
    options = {"log_to_console": False, "mip_rel_gap": gap}
    if time_limit is not None:
        options["time_limit"] = time_limit
    for key, val in options.items():
        if highs.setOptionValue(key, val) != h.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={val!r}")

    if highs.passModel(lp) == h.HighsStatus.kError:
        status = h.HighsModelStatus.kModelError
        return HighsResult(_MILP_STATUS[status.name],
                           highs.modelStatusToString(status))
    # HiGHS 1.12 prints some MIP notes from C to fd 1 whatever its output
    # options say; they go to fd 2, so a report on stdout stays clean
    sys.stdout.flush()
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        ran = highs.run()
    finally:
        os.dup2(stdout, 1)
        os.close(stdout)
    status = highs.getModelStatus()
    result = HighsResult(_MILP_STATUS.get(status.name, 4),
                         highs.modelStatusToString(status))
    if ran == h.HighsStatus.kError:
        return result
    info = highs.getInfo()
    is_mip = any(integrality)
    has_point = status.name == "kOptimal" or (
        is_mip and status.name in _LIMITS
        and info.objective_function_value != h.kHighsInf)
    if not has_point:
        return result
    x = np.array(highs.getSolution().col_value)
    if not is_mip:
        return replace(result, x=x)
    return replace(result, x=x, mip_node_count=info.mip_node_count,
                   mip_dual_bound=info.mip_dual_bound, mip_gap=info.mip_gap)


if _highs is None:
    # the one call into HiGHS is missing, and every solve says why
    scipy_milp = None
