"""In-process HiGHS behind the solve() contract."""

import json
import numbers
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy._core import _Highs

from mplsotn import Approach, Survivability, pipeline, solvers
from mplsotn.milp import (MilpModel, SolveStatus, VarKind, format_coefficient,
                          write_model)
from mplsotn.solvers import solve

from highs_lp import assert_highs_reads_the_model, model_view
from support import desk, exact_config, highs_calls, mesh_family


def knapsack() -> MilpModel:
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 4  ->  min form, optimum -8 (a, c)
    m = MilpModel("knap")
    for name in ("a", "b", "c"):
        m.add_variable(name, VarKind.BINARY)
    m.add_objective_term("a", -5)
    m.add_objective_term("b", -4)
    m.add_objective_term("c", -3)
    m.add_constraint("cap", [("a", 2), ("b", 3), ("c", 1)], "<=", 4)
    return m


def test_empty_model_is_trivially_optimal():
    m = MilpModel("empty")
    m.add_objective_constant(Fraction(5, 2))
    sol = solve(m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.solver_name == "trivial"
    assert sol.objective == 2.5
    assert sol.values == {}


def test_embedded_solves_to_optimality():
    sol = solve(knapsack(), gap=0.0)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == -8.0
    assert sol.values["a"] == 1 and sol.values["b"] == 0 and sol.values["c"] == 1
    # exact, never a float
    assert all(isinstance(v, numbers.Rational) for v in sol.values.values())
    assert sol.wall_seconds > 0
    assert sol.node_count >= 0
    assert sol.dual_bound == -8.0


def test_embedded_dual_bound_includes_objective_constant():
    m = knapsack()
    m.add_objective_constant(Fraction(21, 2))
    sol = solve(m, gap=0.0)
    assert sol.objective == 2.5
    assert sol.dual_bound == 2.5


def infeasible_model() -> MilpModel:
    m = MilpModel("bad")
    m.add_variable("x", VarKind.BINARY)
    m.add_constraint("lo", [("x", 1)], ">=", 2)
    return m


def unbounded_model() -> MilpModel:
    # HiGHS reads a bound of 1e20 or more as infinite
    m = MilpModel("up")
    m.add_variable("x", VarKind.INTEGER, upper=10**21)
    m.add_variable("y", VarKind.INTEGER, upper=10**21)
    m.add_objective_term("x", -1)
    m.add_objective_term("y", 1)
    m.add_constraint("ray", [("x", 1), ("y", -2)], "<=", 3)
    m.add_constraint("floor", [("x", 1), ("y", 1)], ">=", 2)
    return m


def test_embedded_reports_infeasible():
    assert solve(infeasible_model()).status is SolveStatus.INFEASIBLE


def test_embedded_reports_unbounded():
    assert solve(unbounded_model()).status is SolveStatus.UNBOUNDED


def mixed_coefficient_model() -> MilpModel:
    """Shared small ints, ints beyond +-256, and non-terminating fractions."""
    m = MilpModel("mixed")
    m.add_variable("b", VarKind.BINARY)
    m.add_variable("n", VarKind.INTEGER, lower=-300, upper=257)
    m.add_variable("y", VarKind.CONTINUOUS, lower=Fraction(1, 3), upper=1000)
    m.add_variable("z", VarKind.CONTINUOUS, lower=-2, upper=Fraction(22, 7))
    for var, coeff in (("b", 3), ("n", -1), ("y", Fraction(2, 3)), ("z", -257)):
        m.add_objective_term(var, coeff)
    m.add_constraint("r1", [("b", 1), ("n", 1), ("y", 1)], "<=", 1)
    m.add_constraint("r2", [("n", 300), ("y", Fraction(-1, 7))], ">=", -90000)
    m.add_constraint("r3", [("b", -1), ("z", Fraction(5, 3))], "=", Fraction(10, 3))
    m.add_constraint("r4", [("y", 1), ("z", 1), ("n", -1)], "<=", 1000)
    return m


def fine_decimal_model() -> MilpModel:
    """Terminating fractions whose exact decimal is not their float's repr."""
    a, b = Fraction(3, 2**20), Fraction(1, 5**20)
    m = MilpModel("fine")
    m.add_variable("u", VarKind.BINARY)
    m.add_variable("x", VarKind.CONTINUOUS, lower=b, upper=a)
    m.add_objective_term("u", a)
    m.add_objective_term("x", b)
    # HiGHS drops a matrix entry below 1e-9, so b is a bound and a right-hand side
    m.add_constraint("r1", [("u", a), ("x", a)], "<=", a)
    m.add_constraint("r2", [("x", 1)], ">=", b)
    return m


def test_highs_reads_the_mps_text_as_per_term_floats(ring4_brs_models):
    mixed = mixed_coefficient_model()
    mixed.add_variable("idle", VarKind.CONTINUOUS, upper=5)  # no cost, no row
    # real stage models: INTEGER x columns with upper bounds above 1, and
    # continuous brsy columns among the binaries
    integrated = brs_stage_models(mesh_family(5, 0), Approach.INTEGRATED)
    # write_model prints these as exact decimals, not as the repr of a float
    assert all(format_coefficient(c) != repr(float(c))
               for c in (Fraction(3, 2**20), Fraction(1, 5**20)))
    for m in (mixed, fine_decimal_model(), ring4_brs_models["lightpath-protection"],
              integrated["integrated-protection"]):
        assert_highs_reads_the_model(m)


def test_the_kept_model_is_the_text_highs_read(ring4_brs_models, monkeypatch,
                                               tmp_path):
    calls = highs_calls(monkeypatch)
    pipeline.run_design(desk("ring4"), exact_config(
        Survivability.MULTI_INTERLAYER_BRS), keep_artifacts_dir=tmp_path)
    read = [kwargs["mps"] for kwargs, _ in calls]
    assert read == [write_model(ring4_brs_models[stage]) for stage in RING4_STAGES]
    assert [t.encode() for t in read] == [
        (tmp_path / f"{stage}.mps").read_bytes() for stage in RING4_STAGES]


@pytest.mark.parametrize("outcome", ["optimal", "infeasible", "read-error"])
def test_no_temporary_directory_outlives_a_solve(outcome, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    if outcome == "read-error":
        res = solvers.scipy_milp(mps="not an MPS file\n", shape=(0, 0, 0),
                                 integral=False, gap=0.0)
        assert res.status == 4 and res.x is None
    else:
        m = knapsack() if outcome == "optimal" else infeasible_model()
        assert solve(m).status.value == outcome
    assert list(tmp_path.iterdir()) == []


def test_a_row_entry_the_reader_drops_ends_the_solve():
    # HiGHS drops the entry for r9, a row ROWS never declared, and reads
    # the model without an error
    text = "NAME x\nROWS\n N obj\nCOLUMNS\n c0 r9 1\nENDATA\n"
    res = solvers.scipy_milp(mps=text, shape=(1, 0, 1), integral=False, gap=0.0)
    assert res.status == 4 and res.x is None
    assert "(1, 0, 0)" in res.message


def test_a_matrix_entry_below_the_reader_threshold_is_refused():
    # HiGHS drops an entry below its small_matrix_value (1e-9) on reading;
    # scipy.optimize.milp would solve the LP without it, solve refuses it
    m = MilpModel("tiny")
    m.add_variable("x", VarKind.CONTINUOUS)
    m.add_variable("y", VarKind.CONTINUOUS)
    m.add_constraint("r", [("x", 1), ("y", Fraction(1, 10**10))], "<=", 1)
    m.add_objective_term("x", -1)
    sol = solve(m)
    assert sol.status is SolveStatus.ERROR
    assert sol.values == {} and sol.objective is None
    assert "no incumbent" in sol.message
    assert "(2, 1, 1)" in sol.message and "not (2, 1, 2)" in sol.message


def test_every_column_row_and_entry_of_a_stage_model_reaches_highs(
        ring4_brs_models, monkeypatch):
    m = ring4_brs_models["lightpath-routing"]
    calls = highs_calls(monkeypatch)
    sol = solve(m)
    (kwargs, result), = calls
    assert kwargs["shape"] == (len(m.variables), len(m.constraints),
                               sum(len(c.terms) for c in m.constraints))
    assert result.status == 0 and sol.status is SolveStatus.OPTIMAL


def milp_reference(m: MilpModel, gap: float = 0.0):
    """``m`` through ``scipy.optimize.milp``, the reference HiGHS route."""
    view = model_view(m)
    integral, lower, upper, cost = zip(*view["columns"].values())
    rows = view["rows"].values()
    matrix = [[terms.get(name, 0.0) for name in view["columns"]]
              for _lo, _hi, terms in rows]
    constraints = (LinearConstraint(matrix, [r[0] for r in rows], [r[1] for r in rows])
                   if rows else [])
    return milp(c=cost, integrality=[int(i) for i in integral],
                bounds=Bounds(lower, upper), constraints=constraints,
                options={"mip_rel_gap": gap})


def brs_stage_models(instance, approach=Approach.SEQUENTIAL) -> dict[str, MilpModel]:
    """Each stage model a gap-0 ``brs`` run solves, by stage name.

    A run whose design fails to decode has still solved its models.
    """
    models = {}
    real = pipeline.solve

    def capture(model, **kwargs):
        models[kwargs["stage"]] = model
        return real(model, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "solve", capture)
        try:
            pipeline.run_design(instance, exact_config(
                Survivability.MULTI_INTERLAYER_BRS, approach))
        except pipeline.DecodeError:
            pass
    return models


@pytest.fixture(scope="module")
def ring4_brs_models() -> dict[str, MilpModel]:
    models = brs_stage_models(desk("ring4"))
    assert not models["protection-mpls"].variables
    return models


PARITY_MODELS = {
    "mixed": mixed_coefficient_model,
    "fine": fine_decimal_model,
    "knapsack": knapsack,
    "infeasible": infeasible_model,
    "unbounded": unbounded_model,
}
# ring4's protection-mpls model has no variables and never reaches HiGHS
RING4_STAGES = ("working-mpls", "lightpath-routing", "lightpath-protection")


@pytest.mark.parametrize("name", [*PARITY_MODELS, *RING4_STAGES])
def test_highs_answers_as_scipy_milp_does(name, ring4_brs_models, monkeypatch):
    m = (PARITY_MODELS[name]() if name in PARITY_MODELS
         else ring4_brs_models[name])
    calls = highs_calls(monkeypatch)
    sol = solve(m)
    (_, got), = calls
    want = milp_reference(m)
    assert want.status == {"infeasible": 2, "unbounded": 3}.get(name, 0)

    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert isinstance(got.x, list)
        assert np.array(got.x).tobytes() == want.x.tobytes()
    assert got.mip_node_count == want.mip_node_count
    assert repr(got.mip_dual_bound) == repr(want.mip_dual_bound)
    assert repr(got.mip_gap) == repr(want.mip_gap)
    assert sol.node_count == want.mip_node_count


# each order loads the binding once and both sides solve through it
IMPORT_ORDERS = {
    "mplsotn-first": ("from mplsotn import solvers\n"
                      "assert 'scipy.optimize' not in sys.modules\n"
                      "import scipy.optimize\n"),
    "scipy-first": "import scipy.optimize\nfrom mplsotn import solvers\n",
}
BOTH_SOLVE = """
from scipy.optimize import milp
from scipy.optimize._highspy import _highs_wrapper
from test_solvers import knapsack
core = sys.modules["scipy.optimize._highspy._core"]
assert solvers._highs is core and _highs_wrapper._h is core
res = milp(c=[-5, -4, -3], integrality=1, bounds=(0, 1),
           constraints=([[2, 3, 1]], -float("inf"), 4))
assert res.status == 0 and list(res.x) == [1, 0, 1], res
assert solvers.solve(knapsack()).objective == -8.0
"""


@pytest.mark.parametrize("order", sorted(IMPORT_ORDERS))
def test_binding_is_shared_with_scipy_optimize(order):
    tests = Path(__file__).resolve().parent
    code = "import sys\n" + IMPORT_ORDERS[order] + BOTH_SOLVE
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_solver_name_is_the_highs_build_that_ran():
    # the binding's own version and git hash, not the scipy that bundles it
    core = solvers._highs
    want = (f"highs-{core.HIGHS_VERSION_MAJOR}.{core.HIGHS_VERSION_MINOR}"
            f".{core.HIGHS_VERSION_PATCH} ({_Highs().githash()})")
    assert want == f"highs-{_Highs().version()} ({_Highs().githash()})"
    assert solvers._SOLVER_NAME == want
    design = pipeline.run_design(desk("ring4"), exact_config(Survivability.NONE))
    assert [t.solver for t in design.traces] == [want] * len(design.traces)


def test_incumbents_are_feasibility_checked(monkeypatch):
    # a "solver" that always answers x=1 against a model that forbids it
    def liar(**kwargs):
        return SimpleNamespace(status=0, x=[1.0], message="stub", mip_gap=0.0)

    monkeypatch.setattr(solvers, "scipy_milp", liar)
    m = MilpModel("guarded")
    m.add_variable("x", VarKind.BINARY)
    m.add_objective_term("x", -1)
    m.add_constraint("ban", [("x", 1)], "<=", 0)
    sol = solve(m)
    assert sol.status is SolveStatus.ERROR
    assert "infeasible point" in sol.message
    assert sol.objective is None and sol.values == {}


@pytest.mark.parametrize("status,x,want,says", [
    pytest.param(1, [1.0, 0.0, 1.0], SolveStatus.TIME_LIMIT_FEASIBLE, None,
                 id="limit-with-point"),
    pytest.param(1, None, SolveStatus.ERROR, "no incumbent", id="limit-no-point"),
    pytest.param(0, [1.0, 0.5, 1.0], SolveStatus.ERROR, "b=0.5 is not integral",
                 id="non-integral"),
    pytest.param(4, [1.0, 0.0, 1.0], SolveStatus.ERROR, "stub", id="other"),
])
def test_embedded_maps_each_highs_outcome(monkeypatch, status, x, want, says):
    def stub(**kwargs):
        return solvers.HighsResult(status=status, message="stub", x=x,
                                   mip_gap=0.0)

    monkeypatch.setattr(solvers, "scipy_milp", stub)
    sol = solve(knapsack())
    assert sol.status is want
    if want is SolveStatus.ERROR:
        assert says in sol.message
        assert sol.objective is None and sol.values == {}
    else:
        assert sol.objective == -8.0 and sol.values["b"] == 0


def test_missing_scipy_is_no_solver(monkeypatch, tmp_path):
    # an import that failed leaves scipy_milp unset
    monkeypatch.setattr(solvers, "scipy_milp", None)
    sol = solve(knapsack(), keep_dir=tmp_path, stage="s1")
    assert sol.status is SolveStatus.NO_SOLVER
    assert "scipy" in sol.message
    assert (tmp_path / "s1.sol").read_text().startswith("# status no-solver\n")
    # a model with nothing to decide needs no solver
    assert solve(MilpModel("empty")).status is SolveStatus.OPTIMAL


def test_keep_artifacts_writes_stage_files(tmp_path):
    sol = solve(knapsack(), keep_dir=tmp_path / "art", stage="working-mpls")
    assert sol.status is SolveStatus.OPTIMAL

    base = tmp_path / "art"
    assert (base / "working-mpls.mps").read_text() == write_model(knapsack())
    meta = json.loads((base / "working-mpls.meta.json").read_text())
    assert meta["variables"] == {"a": "binary", "b": "binary", "c": "binary"}
    body = (base / "working-mpls.sol").read_text()
    assert "# status optimal" in body and "a 1" in body

