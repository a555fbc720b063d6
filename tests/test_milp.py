"""Model container, MPS text as HiGHS reads it, and solution files."""

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
    snap_values,
    write_solution,
)

from highs_lp import assert_highs_reads_the_model, highs_view


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


def test_as_fraction_keeps_whole_numbers_as_ints():
    for whole in (6, Fraction(6, 2), 3.0, "6/2"):
        assert type(as_fraction(whole)) is int
    assert as_fraction(Fraction(6, 2)) == as_fraction("6/2") == 3
    assert as_fraction("1/3") == Fraction(1, 3)
    assert type(as_fraction("1/3")) is Fraction
    assert type(as_fraction(0.5)) is Fraction


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
    assert [c.name for c in m.constraints if c.tag == "cap"] == ["r1", "r3"]
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
    # whole numbers are kept as ints and print as their digits
    assert format_coefficient(-40) == "-40"
    assert format_coefficient(0) == "0"
    # non-terminating falls back to float repr
    assert format_coefficient(Fraction(1, 3)) == repr(1 / 3)


def test_highs_reads_the_written_small_model():
    m = small_model()
    text = assert_highs_reads_the_model(m)
    # the constant HiGHS does not see is kept as a comment
    assert text.startswith("NAME toy\n* objective-constant: 0.7\nROWS\n N obj\n")


def test_nonterminating_coefficient_survives_textually():
    # 1/3 has no exact decimal; its float repr reads back as the same float
    m = MilpModel("third")
    m.add_variable("x", VarKind.CONTINUOUS, 0, 1)
    m.add_objective_term("x", Fraction(1, 3))
    m.add_constraint("r", [("x", 1)], "<=", 1)
    text = assert_highs_reads_the_model(m)
    assert highs_view(text)["columns"]["x"][3] == 1 / 3


def test_negative_leading_objective_term():
    # a negative cost prints with its sign on the column's own line
    m = MilpModel("neg")
    m.add_variable("wd_d1_1_2", VarKind.BINARY)
    m.add_variable("u", VarKind.CONTINUOUS, 0, 10)
    m.add_objective_term("wd_d1_1_2", -1)
    m.add_objective_term("u", Fraction(1, 2))
    m.add_constraint("only", [("wd_d1_1_2", -1), ("u", 1)], ">=", 0)
    text = assert_highs_reads_the_model(m)
    assert " wd_d1_1_2 obj -1\n wd_d1_1_2 only -1\n" in text


def test_highs_reads_the_written_working_mpls_model(ring4):
    from mplsotn.formulation import build_working_mpls
    from mplsotn.model import DesignConfig
    from mplsotn.pipeline import default_cost_model

    sm = build_working_mpls(ring4, DesignConfig(), default_cost_model(ring4))
    assert sm.model.objective_constant != 0
    assert_highs_reads_the_model(sm.model)


def test_parse_empty_objective_placeholder():
    # no objective term, a row that folds to no term, and a column in no row
    m = MilpModel("void")
    m.add_variable("x", VarKind.BINARY)
    m.add_variable("idle", VarKind.CONTINUOUS, upper=5)
    m.add_constraint("r", [("x", 1)], "<=", 1)
    m.add_constraint("nothing", [("x", 2), ("x", -2)], ">=", -1)
    text = assert_highs_reads_the_model(m)
    assert " G nothing\n" in text and " rhs nothing -1\n" in text
    # a column with no cost and no row is declared by a zero cost
    assert " idle obj 0\n" in text


def test_names_the_mps_text_reserves_are_refused():
    m = MilpModel("g")
    m.add_variable("a", VarKind.BINARY)
    for row in ("obj", "OBJ", "rhs"):
        with pytest.raises(ModelError, match="not a valid MPS name"):
            m.add_constraint(row, [("a", 1)], "<=", 1)
    for column in ("bnd", "Name", "OBJSENSE", "qsection", "QCMATRIX", "csection"):
        with pytest.raises(ModelError, match="not a valid MPS name"):
            m.add_variable(column, VarKind.BINARY)
    # a row and a column share no names in MPS
    m.add_variable("obj", VarKind.BINARY)
    m.add_constraint("bnd", [("obj", 1), ("a", 1)], "<=", 1)
    assert_highs_reads_the_model(m)


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


def test_write_solution_lines():
    sol = Solution(status=SolveStatus.OPTIMAL, objective=2.0,
                   values={"x": Fraction(1), "y": Fraction(0),
                           "z": Fraction(-5, 4)},
                   gap=0.0)
    # sparse: zero values are omitted
    assert write_solution(sol) == ("# status optimal\n# objective 2.0\n"
                                   "# gap 0.0\nx 1\nz -1.25\n")
    bare = Solution(SolveStatus.TIME_LIMIT_FEASIBLE, values={"x": Fraction(1, 3)})
    assert write_solution(bare) == f"# status time-limit-feasible\nx {1 / 3!r}\n"


def test_write_solution_keeps_a_failure_message():
    failed = Solution(SolveStatus.ERROR,
                      message="no incumbent: Time limit reached\nby HiGHS")
    # the message is folded onto its one header line
    assert write_solution(failed) == (
        "# status error\n# message no incumbent: Time limit reached by HiGHS\n")
    assert write_solution(Solution(SolveStatus.NO_SOLVER)) == "# status no-solver\n"
