"""In-process HiGHS behind the solve() contract."""

import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from mplsotn import solvers
from mplsotn.milp import MilpModel, SolveStatus, VarKind
from mplsotn.solvers import solve


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
    assert all(isinstance(v, Fraction) for v in sol.values.values())
    assert sol.wall_seconds > 0
    assert sol.node_count >= 0
    assert sol.dual_bound == -8.0


def test_embedded_dual_bound_includes_objective_constant():
    m = knapsack()
    m.add_objective_constant(Fraction(21, 2))
    sol = solve(m, gap=0.0)
    assert sol.objective == 2.5
    assert sol.dual_bound == 2.5


def test_embedded_reports_infeasible():
    m = MilpModel("bad")
    m.add_variable("x", VarKind.BINARY)
    m.add_constraint("lo", [("x", 1)], ">=", 2)
    assert solve(m).status is SolveStatus.INFEASIBLE


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


def test_embedded_assembly_matches_per_term_floats(monkeypatch):
    m = mixed_coefficient_model()
    seen = {}

    def capture(**kwargs):
        seen.update(kwargs)
        return real(**kwargs)

    real = solvers.scipy_milp
    monkeypatch.setattr(solvers, "scipy_milp", capture)
    assert solve(m, gap=0.0).status is SolveStatus.OPTIMAL

    names = [v.name for v in m.variables]
    col = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for var, coeff in m.objective_terms:
        c[col[var]] = float(coeff)
    matrix = np.zeros((len(m.constraints), len(names)))
    lo, hi = [], []
    for r, con in enumerate(m.constraints):
        for var, coeff in con.terms:
            matrix[r, col[var]] = float(coeff)
        lo.append(-np.inf if con.sense == "<=" else float(con.rhs))
        hi.append(np.inf if con.sense == ">=" else float(con.rhs))

    def same(got, want):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    assert same(seen["c"], c)
    assert same(seen["bounds"].lb, [float(v.lower) for v in m.variables])
    assert same(seen["bounds"].ub, [float(v.upper) for v in m.variables])
    assert same(seen["constraints"].A.toarray(), matrix)
    assert same(seen["constraints"].lb, lo)
    assert same(seen["constraints"].ub, hi)


def test_incumbents_are_feasibility_checked(monkeypatch):
    # a "solver" that always answers x=1 against a model that forbids it
    def liar(**kwargs):
        return SimpleNamespace(status=0, x=np.ones(len(kwargs["c"])),
                               message="stub", mip_gap=0.0)

    monkeypatch.setattr(solvers, "scipy_milp", liar)
    m = MilpModel("guarded")
    m.add_variable("x", VarKind.BINARY)
    m.add_objective_term("x", -1)
    m.add_constraint("ban", [("x", 1)], "<=", 0)
    sol = solve(m)
    assert sol.status is SolveStatus.ERROR
    assert "infeasible point" in sol.message
    assert sol.objective is None and sol.values == {}


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
    lp = (base / "working-mpls.lp").read_text()
    assert lp.startswith("\\ model: knap")
    meta = json.loads((base / "working-mpls.meta.json").read_text())
    assert meta["variables"] == {"a": "binary", "b": "binary", "c": "binary"}
    body = (base / "working-mpls.sol").read_text()
    assert "# status optimal" in body and "a 1" in body

