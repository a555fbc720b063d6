"""One MILP solver behind one contract: HiGHS in process, through scipy's binding.

``solve`` takes a model plus gap/time limits and returns a ``Solution``.
Every incumbent HiGHS returns is feasibility-checked against the model
(1e-6 absolute) before being handed to callers. ``keep_artifacts`` writes a
stage's model text, metadata and solution: the ``<stage>.mps`` file holds
the very bytes HiGHS read, so a model can still be run through another
solver by hand.

HiGHS comes from the pybind11 binding scipy bundles at
``scipy/optimize/_highspy/_core*``, the one ``scipy.optimize.milp`` drives.
It is loaded from its file, which ``importlib.util.find_spec`` locates
without running scipy's ``__init__``. Importing scipy would load its array
library, 9 to 14 MB of peak memory and 60 to 100 ms of a cold start on a
2-core VM, and importing the binding by name first runs
``scipy.optimize``'s ``__init__``, which pulls in ``scipy.sparse`` and most
of scipy (a ring4 cold start went from 0.3 s to 0.9 s). Loading the file
takes under 10 ms. The module is registered under its own name, so a later
``import scipy.optimize`` shares it.

The model reaches HiGHS as free-format MPS text, which the binding's
``readModel`` reads from a temporary file; the one other way in, the
binding's ``HighsLp``, takes its costs only as an array of that library.
The text is ``milp.write_model``'s, which keeps the
model's names and its column and row order and prints every number with
``format_coefficient``, whose text parses to the float
``scipy.optimize.milp`` would hand HiGHS, so HiGHS holds the same LP and
runs the same search. ``scipy_milp`` sets ``milp``'s options and reads the
result back in ``milp``'s terms. The one exception is the integrated
relaxation, which HiGHS solves without its feasibility-jump heuristic: the
design reads that model only through a certificate whose value is the
relaxation's optimum, the same whichever optimal point the search returns
(see ``scipy_milp``).

The binding is loaded when this module loads. Without scipy or the binding
no solve can run, and every solve reports ``NO_SOLVER`` instead of the
import failing.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

_CORE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, without importing scipy or ``scipy.optimize``."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    # find_spec runs no __init__
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("no module named 'scipy'")
    folder = Path(spec.submodule_search_locations[0]) / "optimize" / "_highspy"
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
    _highs = _load_highs()
except ImportError as exc:
    _highs = None
    _NO_SCIPY += f", which could not be loaded ({exc})"
else:
    # the HiGHS build whose search gives the answers, e.g. highs-1.12.0 (4f96ee8)
    _SOLVER_NAME = (f"highs-{_highs.HIGHS_VERSION_MAJOR}.{_highs.HIGHS_VERSION_MINOR}"
                    f".{_highs.HIGHS_VERSION_PATCH} ({_highs._Highs().githash()})")

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
          stage: str = "model",
          feasibility_jump: bool = True) -> Solution:
    """Solve ``model``; with ``keep_dir``, keep its files there under ``stage``.

    ``feasibility_jump=False`` turns off the primal heuristic HiGHS runs
    before the root LP (see ``scipy_milp``).
    """
    start = time.perf_counter()
    if not model.variables:
        # nothing to decide; the objective is its constant
        sol = Solution(SolveStatus.OPTIMAL, float(model.objective_constant),
                       gap=0.0, solver_name="trivial")
    else:
        sol = (Solution(SolveStatus.NO_SOLVER, message=_NO_SCIPY)
               if scipy_milp is None
               else _solve_embedded(model, gap=gap, time_limit=time_limit,
                                    feasibility_jump=feasibility_jump))
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
    """Write ``<stage>.mps``, ``.meta.json`` and ``.sol`` to ``directory``, if any."""
    if directory is None:
        return
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{stage}.mps").write_text(write_model(model))
    (d / f"{stage}.meta.json").write_text(write_metadata(model))
    (d / f"{stage}.sol").write_text(write_solution(sol))


def _solve_embedded(model: MilpModel, *, gap: float,
                    time_limit: Optional[float],
                    feasibility_jump: bool) -> Solution:
    variables = model.variables
    res = scipy_milp(
        mps=write_model(model),
        shape=_shape(model),
        integral=any(v.kind is not VarKind.CONTINUOUS for v in variables),
        gap=float(gap),
        time_limit=None if time_limit is None else float(time_limit),
        feasibility_jump=feasibility_jump,
    )

    # search statistics ride on every outcome, the failed ones included;
    # the dual bound is shifted by the objective constant HiGHS never saw
    nodes = getattr(res, "mip_node_count", None)
    bound = getattr(res, "mip_dual_bound", None)
    stats = {
        "solver_name": _SOLVER_NAME,
        "node_count": int(nodes) if nodes is not None else None,
        "dual_bound": (float(bound) + float(model.objective_constant)
                       if bound is not None and math.isfinite(bound) else None),
    }
    if res.status == 2:
        return Solution(SolveStatus.INFEASIBLE, message=res.message, **stats)
    if res.status == 3:
        return Solution(SolveStatus.UNBOUNDED, message=res.message, **stats)
    if res.x is None:
        return Solution(SolveStatus.ERROR, message=f"no incumbent: {res.message}",
                        **stats)

    raw = {v.name: float(x) for v, x in zip(variables, res.x)}
    snapped, problems = snap_values(model, raw)
    if problems:
        return Solution(SolveStatus.ERROR, message="; ".join(problems[:5]), **stats)

    achieved = getattr(res, "mip_gap", None)
    achieved = (float(achieved) if achieved is not None and math.isfinite(achieved)
                else None)
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


def _shape(model: MilpModel) -> tuple[int, int, int]:
    """The columns, rows and row entries ``write_model`` writes for ``model``."""
    rows = model.constraints
    return len(model.variables), len(rows), sum(len(con.terms) for con in rows)


@dataclass(frozen=True)
class HighsResult:
    """The fields of ``scipy.optimize.milp``'s result that ``solve`` reads."""

    status: int  # 0 optimal, 1 limit reached, 2 infeasible, 3 unbounded, 4 other
    message: str
    x: Optional[list[float]] = None
    mip_node_count: Optional[int] = None
    mip_dual_bound: Optional[float] = None
    mip_gap: Optional[float] = None


# HiGHS model status -> milp's status code; every other status is 4
_MILP_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
                "kInfeasible": 2, "kUnbounded": 3}
_LIMITS = ("kTimeLimit", "kIterationLimit", "kSolutionLimit")


def scipy_milp(*, mps: str, shape: tuple[int, int, int], integral: bool,
               gap: float, time_limit: Optional[float] = None,
               feasibility_jump: bool = True) -> HighsResult:
    """Solve the MPS text ``write_model`` wrote, as ``scipy.optimize.milp`` would.

    HiGHS reads the text from a file in a ``mplsotn-*`` temporary directory,
    which is gone before the search starts. The options (``log_to_console``
    off, ``mip_rel_gap`` and the time limit) and the reading of the result
    are those of ``milp``, so HiGHS runs the same search and every answer
    matches ``milp``'s bit for bit. ``integral`` says whether some column is
    integer. ``x`` is None wherever ``milp`` returns none, and the search
    statistics ride only on a MILP with a point. One status differs on
    purpose: ``milp`` reports HiGHS's ``kModelError`` as infeasible (2),
    but a model HiGHS cannot read is a fault of ours, not a stage without a
    design, so it is 4 and the solve ends ``ERROR``.

    ``shape`` is the columns, rows and row entries the text holds. The
    reader drops an entry for a row the text never declared without an
    error, so a read that does not return ``kOk``, or that holds other
    counts, is a model HiGHS could not read.

    The one exception to ``milp``'s search is ``feasibility_jump=False``,
    which turns off the heuristic HiGHS runs before the root LP. Only the
    integrated relaxation sets it: the design reads that model only through
    its certificate (the LSPs pack and the shortest routes fit), whose value,
    the relaxation's optimum, belongs to the instance. Which optimum HiGHS
    returns decides only whether the run falls back to the full model, never
    the total.
    """
    h = _highs
    highs = h._Highs()
    options = {"log_to_console": False, "mip_rel_gap": gap}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if not feasibility_jump:
        options["mip_heuristic_run_feasibility_jump"] = False
    for key, val in options.items():
        if highs.setOptionValue(key, val) != h.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={val!r}")

    with tempfile.TemporaryDirectory(prefix="mplsotn-") as folder:
        path = Path(folder) / "model.mps"
        path.write_text(mps)
        read = highs.readModel(str(path))
    held = (highs.getNumCol(), highs.getNumRow(), highs.getNumNz())
    if read != h.HighsStatus.kOk or held != shape:
        return HighsResult(4, f"model error: HiGHS read it with status {read.name}"
                              f" as {held} columns, rows and entries, not {shape}")
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
    has_point = status.name == "kOptimal" or (
        integral and status.name in _LIMITS
        and info.objective_function_value != h.kHighsInf)
    if not has_point:
        return result
    x = highs.getSolution().col_value  # a list of floats
    if not integral:
        return replace(result, x=x)
    return replace(result, x=x, mip_node_count=info.mip_node_count,
                   mip_dual_bound=info.mip_dual_bound, mip_gap=info.mip_gap)


if _highs is None:
    # the one call into HiGHS is missing, and every solve says why
    scipy_milp = None
