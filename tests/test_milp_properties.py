"""Property tests for the LP text and the exact kernels of ``mplsotn.milp``.

The reference kernels below are the plain definitions of ``check_solution``,
``objective_value`` and ``snap_values``: every term summed, every bound
widened by the tolerance, a fresh ``Fraction`` for every value. The package
kernels skip zero values and share small-int ``Fraction``s; these tests hold
them to the same results, the same messages and the same order. Like
``tests/oracle.py``, the references share no code with the package beyond
its data types.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mplsotn.milp import (
    FEASIBILITY_TOLERANCE,
    INTEGRALITY_TOLERANCE,
    MilpModel,
    VarKind,
    check_solution,
    parse_lp,
    snap_values,
    write_model,
)

PROPERTY = settings(max_examples=200, deadline=None)


# -- reference kernels --------------------------------------------------------


def ref_objective_value(m: MilpModel, values) -> Fraction:
    total = Fraction(m.objective_constant)
    for var, coeff in m.objective_terms:
        total += coeff * values.get(var, Fraction(0))
    return total


def ref_snap_values(m: MilpModel, raw) -> tuple[dict, list[str]]:
    snapped: dict[str, Fraction] = {}
    problems: list[str] = []
    for v in m.variables:
        x = raw.get(v.name, 0.0)
        if v.kind in (VarKind.BINARY, VarKind.INTEGER):
            nearest = round(x)
            if abs(x - nearest) > INTEGRALITY_TOLERANCE:
                problems.append(f"{v.name}={x!r} is not integral")
                continue
            snapped[v.name] = Fraction(int(nearest))
        else:
            snapped[v.name] = Fraction(x).limit_denominator(10**12)
    return snapped, problems


def ref_check_solution(m: MilpModel, values,
                       tolerance: float = FEASIBILITY_TOLERANCE) -> list[str]:
    bad: list[str] = []
    tol = Fraction(tolerance).limit_denominator(10**12)
    for v in m.variables:
        x = values.get(v.name, Fraction(0))
        if x < v.lower - tol or x > v.upper + tol:
            bad.append(f"bound: {v.name}={x} outside [{v.lower}, {v.upper}]")
    for c in m.constraints:
        lhs = sum((coeff * values.get(var, Fraction(0)) for var, coeff in c.terms),
                  Fraction(0))
        if c.sense == "<=" and lhs > c.rhs + tol:
            bad.append(f"row {c.name}: {lhs} > {c.rhs}")
        elif c.sense == ">=" and lhs < c.rhs - tol:
            bad.append(f"row {c.name}: {lhs} < {c.rhs}")
        elif c.sense == "=" and abs(lhs - c.rhs) > tol:
            bad.append(f"row {c.name}: {lhs} != {c.rhs}")
    return bad


# -- strategies -----------------------------------------------------------------

# the first range straddles the edge of milp's shared small-int table
INTS = st.integers(-300, 300) | st.integers(-10**6, 10**6)
TERMINATING = st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b),
                        st.integers(-999, 999), st.integers(0, 3), st.integers(0, 3))
# denominators with a factor other than 2 and 5 print as a float repr; the
# magnitudes stay above 1e-4 so the repr has no exponent
NONTERMINATING = st.builds(Fraction, st.integers(-50, 50).filter(bool),
                           st.sampled_from([3, 7, 9, 11, 12, 13, 21]))
NUMBERS = st.one_of(INTS, TERMINATING, NONTERMINATING)
SENSES = st.sampled_from(["<=", ">=", "="])


@st.composite
def model_specs(draw, numbers=NUMBERS):
    """Plain data for a small model: (vars, objective, constant, rows).

    Every spec has a row that folds to no terms and a row whose leading
    term is negative.
    """
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    variables = []
    for name in names:
        kind = draw(st.sampled_from(list(VarKind)))
        if kind is VarKind.BINARY:
            lo, hi = draw(st.sampled_from([(0, 1), (0, 0), (1, 1)]))
        else:
            lo, hi = sorted(draw(st.lists(numbers, min_size=2, max_size=2)))
        variables.append((name, kind, lo, hi))
    terms = st.lists(st.tuples(st.sampled_from(names), numbers | st.just(0)),
                     max_size=6)
    objective = draw(terms)
    constant = draw(numbers | st.just(0))
    lead = draw(numbers.filter(bool))
    cancel = draw(numbers)
    rows = [
        ("lead", [(names[0], -abs(lead))] + [t for t in draw(terms) if t[0] != names[0]],
         draw(SENSES), draw(numbers)),
        ("empty", [(names[-1], cancel), (names[-1], -cancel)], draw(SENSES),
         draw(numbers)),
    ]
    for r in range(draw(st.integers(0, 4))):
        rows.append((f"r{r}", draw(terms), draw(SENSES), draw(numbers)))
    return variables, objective, constant, rows


def build(spec, conv=lambda x: x) -> MilpModel:
    variables, objective, constant, rows = spec
    m = MilpModel("prop")
    for name, kind, lo, hi in variables:
        m.add_variable(name, kind, conv(lo), conv(hi))
    for var, coeff in objective:
        m.add_objective_term(var, conv(coeff))
    m.add_objective_constant(conv(constant))
    for name, terms, sense, rhs in rows:
        m.add_constraint(name, [(v, conv(c)) for v, c in terms], sense, conv(rhs))
    return m


# -- LP text ----------------------------------------------------------------------


@PROPERTY
@given(model_specs())
def test_write_parse_write_is_identity(spec):
    m = build(spec)
    text = write_model(m)
    assert write_model(parse_lp(text)) == text
    assert " empty: 0 __zero__ " in text
    assert " lead: - " in text


@PROPERTY
@given(model_specs(numbers=INTS))
def test_int_and_equal_fraction_coefficients_write_the_same_text(spec):
    assert write_model(build(spec)) == write_model(build(spec, Fraction))


# -- exact kernels ------------------------------------------------------------------

TOL = Fraction(FEASIBILITY_TOLERANCE).limit_denominator(10**12)
# offsets around a bound or a row's right-hand side: on it, just inside and
# just outside the tolerance, and well beyond it
OFFSETS = st.sampled_from([Fraction(0), TOL / 2, TOL - Fraction(1, 10**12), TOL,
                           TOL + Fraction(1, 10**12), 2 * TOL, Fraction(1, 3)])


@st.composite
def near(draw, anchor: Fraction) -> Fraction:
    offset = draw(OFFSETS)
    return anchor + offset if draw(st.booleans()) else anchor - offset


@st.composite
def checked_points(draw):
    """A model, a value map over it and a tolerance.

    Values sit on, near or far from their bounds; some are missing and one
    name is not in the model. Row right-hand sides sit near the row's exact
    left-hand side at those values, so rows land on both sides of the
    tolerance.
    """
    variables, objective, constant, _ = draw(model_specs())
    values: dict[str, Fraction] = {"ghost": Fraction(7)}
    for name, _kind, lo, hi in variables:
        choice = draw(st.sampled_from(["missing", "zero", "lower", "upper", "any"]))
        if choice == "zero":
            values[name] = Fraction(0)
        elif choice == "lower":
            values[name] = draw(near(Fraction(lo)))
        elif choice == "upper":
            values[name] = draw(near(Fraction(hi)))
        elif choice == "any":
            values[name] = Fraction(draw(NUMBERS))
    names = [v[0] for v in variables]
    rows = []
    for r in range(draw(st.integers(0, 6))):
        terms = draw(st.lists(st.tuples(st.sampled_from(names), NUMBERS), max_size=5))
        lhs = sum((Fraction(c) * values.get(v, Fraction(0)) for v, c in terms),
                  Fraction(0))
        rhs = draw(near(lhs) | NUMBERS.map(Fraction))
        rows.append((f"r{r}", terms, draw(SENSES), rhs))
    m = build((variables, objective, constant, rows))
    tolerance = draw(st.sampled_from([FEASIBILITY_TOLERANCE, 0.0]))
    return m, values, tolerance


@PROPERTY
@given(checked_points())
def test_check_solution_and_objective_value_match_reference(point):
    m, values, tolerance = point
    assert check_solution(m, values, tolerance) == \
        ref_check_solution(m, values, tolerance)
    got = m.objective_value(values)
    assert isinstance(got, Fraction)
    assert got == ref_objective_value(m, values)


NEAR_INTEGRAL = st.builds(
    lambda k, d: k + d,
    st.integers(-5, 5) | st.integers(-10**6, 10**6),
    st.sampled_from([0.0, 5e-7, -5e-7, 9.99e-7, -9.99e-7, 1.01e-6, -1.01e-6,
                     2e-6, 0.4, 0.5]))
RAW = st.one_of(NEAR_INTEGRAL,
                st.sampled_from([0.0, -0.0, 0.25, -1.5]),
                st.floats(-1e3, 1e3, allow_nan=False))


@PROPERTY
@given(model_specs(), st.data())
def test_snap_values_matches_reference(spec, data):
    m = build(spec)
    raw = {}
    for v in m.variables:
        if data.draw(st.booleans()):
            raw[v.name] = data.draw(RAW)
    snapped, problems = snap_values(m, raw)
    ref_snapped, ref_problems = ref_snap_values(m, raw)
    assert problems == ref_problems
    assert list(snapped.items()) == list(ref_snapped.items())
    assert all(isinstance(x, Fraction) for x in snapped.values())
