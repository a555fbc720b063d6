"""HiGHS in process and external LP-file solvers behind the one solve() contract."""

import json
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mplsotn import solvers
from mplsotn.milp import MilpModel, SolveStatus, VarKind
from mplsotn.solvers import (
    DEFAULT_EXTERNAL_TEMPLATE,
    SolverConfig,
    hard_deadline,
    solve,
)


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


def test_hard_deadline_adds_slack():
    assert hard_deadline(None) is None
    assert hard_deadline(10.0) == pytest.approx(10.0 * 1.1 + 1.0)


def test_external_via_bundled_script():
    cfg = SolverConfig(command=DEFAULT_EXTERNAL_TEMPLATE)
    sol = solve(knapsack(), gap=0.0, solver=cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == -8.0
    assert sol.solver_name == "mplsotn-lp-solve"
    # the solution file format carries no search statistics
    assert sol.node_count is None and sol.dual_bound is None


def test_external_solver_missing_or_misconfigured():
    missing = SolverConfig(command="definitely-not-a-solver {lp} -o {sol}")
    sol = solve(knapsack(), solver=missing)
    assert sol.status is SolveStatus.NO_SOLVER
    assert "not found" in sol.message

    bad_template = SolverConfig(command="solver-without-slots")
    sol = solve(knapsack(), solver=bad_template)
    assert sol.status is SolveStatus.NO_SOLVER
    assert "{lp}" in sol.message


def test_external_incumbents_are_feasibility_checked(tmp_path):
    # a "solver" that always answers x=1 against a model that forbids it
    script = tmp_path / "liar.py"
    script.write_text(
        "import sys\n"
        "out = sys.argv[2]\n"
        "open(out, 'w').write('# status optimal\\nx 1\\n')\n"
    )
    m = MilpModel("guarded")
    m.add_variable("x", VarKind.BINARY)
    m.add_objective_term("x", -1)
    m.add_constraint("ban", [("x", 1)], "<=", 0)
    cfg = SolverConfig(command=f"{sys.executable} {script} {{lp}} {{sol}}")
    sol = solve(m, solver=cfg)
    assert sol.status is SolveStatus.ERROR
    assert "infeasible point" in sol.message


@pytest.mark.parametrize("stated", ["error", "no-solver"])
def test_external_error_status_is_an_error(tmp_path, stated):
    # the bundled solver writes only this header when its own solve fails;
    # the file has no point, so it is no all-zero incumbent
    script = tmp_path / "failing.py"
    script.write_text(
        "import sys\n"
        f"open(sys.argv[2], 'w').write('# status {stated}\\n')\n"
    )
    cfg = SolverConfig(command=f"{sys.executable} {script} {{lp}} {{sol}}")
    sol = solve(knapsack(), solver=cfg)
    assert sol.status is SolveStatus.ERROR
    assert stated in sol.message
    assert sol.objective is None and sol.values == {}


def test_keep_artifacts_writes_stage_files(tmp_path):
    cfg = SolverConfig(keep_artifacts_dir=tmp_path / "art")
    sol = solve(knapsack(), solver=cfg, stage="working-mpls")
    assert sol.status is SolveStatus.OPTIMAL

    base = tmp_path / "art"
    lp = (base / "working-mpls.lp").read_text()
    assert lp.startswith("\\ model: knap")
    meta = json.loads((base / "working-mpls.meta.json").read_text())
    assert meta["variables"] == {"a": "binary", "b": "binary", "c": "binary"}
    body = (base / "working-mpls.sol").read_text()
    assert "# status optimal" in body and "a 1" in body


def test_keep_artifacts_on_external_backend(tmp_path):
    cfg = SolverConfig(command=DEFAULT_EXTERNAL_TEMPLATE,
                       keep_artifacts_dir=tmp_path)
    sol = solve(knapsack(), solver=cfg, stage="s2")
    assert sol.status is SolveStatus.OPTIMAL
    for suffix in (".lp", ".meta.json", ".sol"):
        assert (tmp_path / f"s2{suffix}").exists()


def test_external_failure_message_reaches_the_solution():
    write = ("import sys; open(sys.argv[1], 'w')"
             ".write('# status error\\n# message boom\\n')")
    python = shlex.quote(sys.executable)
    command = f"{python} -c {shlex.quote(write)} {{sol}} {{lp}}"
    sol = solve(knapsack(), solver=SolverConfig(command=command))
    assert sol.status is SolveStatus.ERROR
    assert sol.message == "solver reported status error: boom"


def test_external_solves_leave_no_temp_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    python = shlex.quote(sys.executable)
    cases = [
        (DEFAULT_EXTERNAL_TEMPLATE, SolveStatus.OPTIMAL),
        ("definitely-not-a-solver {lp} -o {sol}", SolveStatus.NO_SOLVER),
        (f"{python} -c pass {{lp}} {{sol}}", SolveStatus.ERROR),  # writes no file
    ]
    for command, status in cases:
        cfg = SolverConfig(command=command)
        assert solve(knapsack(), solver=cfg).status is status, command
        assert list(tmp_path.glob("mplsotn-*")) == [], command
