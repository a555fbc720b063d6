"""Model container, LP text round trips, and solution file parsing."""

from fractions import Fraction

import pytest

from mplsotn.milp import (
    FEASIBILITY_TOLERANCE,
    MilpModel,
    ModelError,
    Solution,
    SolveStatus,
    VarKind,
    as_fraction,
    check_solution,
    format_coefficient,
    parse_lp,
    read_solution,
    snap_values,
    write_model,
    write_solution,
)


def small_model() -> MilpModel:
    m = MilpModel("toy")
    m.add_variable("x", VarKind.BINARY)
    m.add_variable("y", VarKind.INTEGER, 0, 7)
    m.add_variable("z", VarKind.CONTINUOUS, Fraction(-1, 2), Fraction(5, 2))
    m.add_objective_term("x", Fraction(-3, 2))
    m.add_objective_term("y", 2)
    m.add_objective_term("z", Fraction(4, 5))
    m.add_objective_constant(Fraction(7, 10))
    m.add_constraint("r1", [("x", 1), ("y", -2)], "<=", 3, tag="cap")
    m.add_constraint("r2", [("y", Fraction(3, 8)), ("z", 1)], ">=", Fraction(-1, 4))
    m.add_constraint("r3", [("x", 1), ("z", -1)], "=", 0, tag="cap")
    return m


def test_as_fraction_coercions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("0.8") == Fraction(4, 5)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction(0.5) == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_fraction(object())


def test_model_guardrails():
    m = MilpModel("g")
    m.add_variable("a", VarKind.BINARY)
    with pytest.raises(ModelError):
        m.add_variable("a", VarKind.BINARY)
    with pytest.raises(ModelError):
        m.add_variable("bad name", VarKind.BINARY)
    with pytest.raises(ModelError):
        m.add_variable("b", VarKind.CONTINUOUS, 2, 1)
    with pytest.raises(ModelError):
        m.add_variable("c", VarKind.BINARY, 0, 2)
    with pytest.raises(ModelError):
        m.add_constraint("r", [("missing", 1)], "<=", 1)
    with pytest.raises(ModelError):
        m.add_constraint("r", [("a", 1)], "<<", 1)
    m.add_constraint("r", [("a", 1)], "<=", 1)
    with pytest.raises(ModelError):
        m.add_constraint("r", [("a", 1)], "<=", 2)
    with pytest.raises(ModelError):
        m.add_objective_term("missing", 1)


def test_constraint_terms_fold_and_drop_zeros():
    m = MilpModel("fold")
    m.add_variable("a", VarKind.BINARY)
    m.add_variable("b", VarKind.BINARY)
    m.add_constraint("r", [("a", 1), ("a", 2), ("b", 1), ("b", -1)], "<=", 5)
    (row,) = m.constraints
    assert row.terms == (("a", Fraction(3)),)


def test_tags_and_metadata():
    m = small_model()
    assert m.tags() == ("cap",)
    assert [c.name for c in m.rows_with_tag("cap")] == ["r1", "r3"]
    meta = m.metadata()
    assert meta["model"] == "toy"
    assert meta["objective_constant"] == "7/10"
    assert meta["variables"]["y"] == "integer"
    assert meta["rows"] == {"r1": "cap", "r2": "", "r3": "cap"}


def test_objective_value_includes_constant():
    m = small_model()
    vals = {"x": Fraction(1), "y": Fraction(2), "z": Fraction(1)}
    assert m.objective_value(vals) == Fraction(-3, 2) + 4 + Fraction(4, 5) + Fraction(7, 10)


def test_format_coefficient_terminating_and_not():
    assert format_coefficient(Fraction(17)) == "17"
    assert format_coefficient(Fraction(4, 5)) == "0.8"
    assert format_coefficient(Fraction(-7, 4)) == "-1.75"
    assert format_coefficient(Fraction(124, 10)) == "12.4"
    assert format_coefficient(Fraction(0)) == "0"
    # non-terminating falls back to float repr
    assert format_coefficient(Fraction(1, 3)) == repr(1 / 3)


def test_write_parse_write_identity_small():
    m = small_model()
    text = write_model(m)
    again = parse_lp(text)
    assert write_model(again) == text
    assert again.name == "toy"
    assert again.objective_constant == Fraction(7, 10)
    assert again.objective_terms == m.objective_terms
    assert [(c.name, c.terms, c.sense, c.rhs) for c in again.constraints] == \
           [(c.name, c.terms, c.sense, c.rhs) for c in m.constraints]
    assert {v.name: (v.kind, v.lower, v.upper) for v in again.variables} == \
           {v.name: (v.kind, v.lower, v.upper) for v in m.variables}


def test_nonterminating_coefficient_survives_textually():
    # 1/3 has no exact decimal; the parsed model differs by < 1e-12 but its
    # LP text is stable, which is what artifact reproducibility needs
    m = MilpModel("third")
    m.add_variable("x", VarKind.CONTINUOUS, 0, 1)
    m.add_objective_term("x", Fraction(1, 3))
    m.add_constraint("r", [("x", 1)], "<=", 1)
    text = write_model(m)
    again = parse_lp(text)
    assert write_model(again) == text
    got = dict(again.objective_terms)["x"]
    assert abs(float(got) - 1 / 3) < 1e-12


def test_negative_leading_objective_term():
    # the first objective term may be negative; the writer must emit a sign
    # the parser reads back, not fold it into the variable name
    m = MilpModel("neg")
    m.add_variable("wd_d1_1_2", VarKind.BINARY)
    m.add_variable("u", VarKind.CONTINUOUS, 0, 10)
    m.add_objective_term("wd_d1_1_2", -1)
    m.add_objective_term("u", Fraction(1, 2))
    m.add_constraint("only", [("wd_d1_1_2", -1), ("u", 1)], ">=", 0)
    text = write_model(m)
    assert " obj: - wd_d1_1_2 + 0.5 u" in text
    again = parse_lp(text)
    assert dict(again.objective_terms)["wd_d1_1_2"] == Fraction(-1)
    assert again.constraints[0].terms[0] == ("wd_d1_1_2", Fraction(-1))


def test_write_parse_write_identity_real(ring4):
    from mplsotn.formulation import build_working_mpls
    from mplsotn.model import DesignConfig
    from mplsotn.pipeline import default_cost_model

    sm = build_working_mpls(ring4, DesignConfig(), default_cost_model(ring4))
    text = write_model(sm.model)
    assert write_model(parse_lp(text)) == text


def test_parse_handles_glued_and_doubled_signs():
    text = "\n".join([
        "Minimize",
        " obj: -3 x + - 2 y - -1 z",
        "Subject To",
        " r: x + -y >= -2",
        "Bounds",
        " 0 <= x <= 1",
        " 0 <= y <= 1",
        " 0 <= z <= 1",
        "End",
    ])
    m = parse_lp(text)
    assert dict(m.objective_terms) == {
        "x": Fraction(-3), "y": Fraction(-2), "z": Fraction(1)}
    (row,) = m.constraints
    assert dict(row.terms) == {"x": Fraction(1), "y": Fraction(-1)}
    assert row.rhs == Fraction(-2)


def test_parse_empty_objective_placeholder():
    m = MilpModel("void")
    m.add_variable("x", VarKind.BINARY)
    m.add_constraint("r", [("x", 1)], "<=", 1)
    text = write_model(m)
    assert "0 __zero__" in text
    again = parse_lp(text)
    assert again.objective_terms == ()
    assert write_model(again) == text


def test_parse_rejects_malformed_text():
    with pytest.raises(ModelError):
        parse_lp("Bounds\n 0 <= x <= 1\nEnd\n")
    base = ["Minimize", " obj: x", "Subject To", " r: x <= 1",
            "Bounds", " 0 <= x <= 1", "End"]
    bad_bounds = list(base)
    bad_bounds[5] = " x free"
    with pytest.raises(ModelError):
        parse_lp("\n".join(bad_bounds))
    nameless = list(base)
    nameless[3] = " x <= 1"
    with pytest.raises(ModelError):
        parse_lp("\n".join(nameless))
    senseless = list(base)
    senseless[3] = " r: x"
    with pytest.raises(ModelError):
        parse_lp("\n".join(senseless))


def test_snap_values_tolerance():
    m = MilpModel("snap")
    m.add_variable("b", VarKind.BINARY)
    m.add_variable("i", VarKind.INTEGER, 0, 9)
    m.add_variable("c", VarKind.CONTINUOUS, 0, 9)
    vals, problems = snap_values(m, {"b": 0.9999999, "i": 3.0000004, "c": 1.25})
    assert problems == []
    assert vals == {"b": Fraction(1), "i": Fraction(3), "c": Fraction(5, 4)}

    _, problems = snap_values(m, {"b": 0.4})
    assert problems and "b" in problems[0]

    vals, _ = snap_values(m, {})  # sparse solvers omit zeros
    assert vals == {"b": Fraction(0), "i": Fraction(0), "c": Fraction(0)}


def test_check_solution_reports_all_failures():
    m = small_model()
    good = {"x": Fraction(0), "y": Fraction(0), "z": Fraction(0)}
    assert check_solution(m, good) == []

    bad = check_solution(m, {"x": Fraction(2), "y": Fraction(-4), "z": Fraction(3)})
    text = "\n".join(bad)
    assert "bound: x=2" in text
    assert "row r1" in text       # 2 + 8 > 3
    assert "row r3" in text       # 2 - 3 != 0
    # within tolerance is fine
    eps = FEASIBILITY_TOLERANCE / 2
    assert check_solution(m, {"x": Fraction(1) + as_fraction(eps),
                              "y": Fraction(0), "z": Fraction(1)}) == []


def test_read_solution_plain_dialect():
    m = small_model()
    sol = read_solution(
        "# status optimal\n# objective 2.0\n# gap 0.0\nx 1\nz 1\n", m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values["x"] == 1 and sol.values["y"] == 0
    # objective recomputed exactly from values, not trusted from the header
    assert sol.objective == float(m.objective_value(sol.values))

    sol = read_solution("# status feasible-within-gap\n# gap 0.01\nx 1\nz 1\n", m)
    assert sol.status is SolveStatus.FEASIBLE_WITHIN_GAP
    assert sol.gap == 0.01

    sol = read_solution("# status time-limit-feasible\nx 1\nz 1\n", m)
    assert sol.status is SolveStatus.TIME_LIMIT_FEASIBLE

    sol = read_solution("# status infeasible\n", m)
    assert sol.status is SolveStatus.INFEASIBLE

    # a file that states no status claims no proof
    assert read_solution("x 1\n", m).status is SolveStatus.TIME_LIMIT_FEASIBLE

    assert read_solution("", m).status is SolveStatus.ERROR
    assert read_solution("x 1 2 3\n", m).status is SolveStatus.ERROR
    assert read_solution("x one\n", m).status is SolveStatus.ERROR
    assert read_solution("x 0.5\n", m).status is SolveStatus.ERROR  # binary off-grid


def test_read_solution_cbc_dialect():
    m = small_model()
    text = ("Optimal - objective value 2.0\n"
            "      0 x        1                0\n"
            "      2 z        1                0\n")
    sol = read_solution(text, m)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values["x"] == 1 and sol.values["z"] == 1

    assert read_solution("Infeasible - objective value 0\n", m).status \
        is SolveStatus.INFEASIBLE
    stopped = read_solution(
        "Stopped on time limit - objective value 2.0\n      0 x  1  0\n"
        "      2 z  1  0\n", m)
    assert stopped.status is SolveStatus.TIME_LIMIT_FEASIBLE


def test_write_solution_round_trip():
    m = small_model()
    first = Solution(status=SolveStatus.OPTIMAL, objective=2.0,
                     values={"x": Fraction(1), "y": Fraction(0), "z": Fraction(1)},
                     gap=0.0)
    text = write_solution(first)
    assert "y " not in text  # sparse: zeros omitted
    again = read_solution(text, m)
    assert again.status is SolveStatus.OPTIMAL
    assert again.values == {"x": Fraction(1), "y": Fraction(0), "z": Fraction(1)}


def test_write_solution_keeps_a_failure_message():
    m = small_model()
    failed = Solution(SolveStatus.ERROR,
                      message="no incumbent: Time limit reached\nby HiGHS")
    text = write_solution(failed)
    assert "# message no incumbent: Time limit reached by HiGHS\n" in text
    again = read_solution(text, m)
    assert again.status is SolveStatus.ERROR
    assert again.message == ("solver reported status error: "
                             "no incumbent: Time limit reached by HiGHS")
    assert read_solution("# status no-solver\n# message boom\n", m).message \
        == "solver reported status no-solver: boom"
    # a stated infeasible keeps its plain message; a solved file ignores one
    assert read_solution("# status infeasible\n# message boom\n", m).message \
        == "solver reported status infeasible"
    assert read_solution("# status optimal\n# message boom\nx 1\nz 1\n",
                         m).status is SolveStatus.OPTIMAL
