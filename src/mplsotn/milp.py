"""Solver-agnostic mixed-integer linear models.

A model is an ordered collection of named variables, tagged linear
constraints, and a minimization objective with an affine constant. Every
number in it is exact: an ``int`` where it is whole, a ``Fraction`` otherwise
(``Rational``). ``write_model`` writes a model as free-format MPS text under
its own names, the one text HiGHS reads and ``--keep-artifacts`` keeps; the
writer is deterministic (variables and rows appear in insertion order) so
identical builds yield byte-identical files.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

# Names are plain words of the MPS text. HiGHS's reader takes a few words,
# in any case, for the text's own and misreads or refuses a model using them:
# as row names "obj" (the objective row) and "rhs" (the right-hand-side
# vector); as column names "bnd" (the bound vector) and the section keywords
# it reads at the head of a column's line.
_ROW_NAME_RE = re.compile(r"^(?!(?i:obj|rhs)$)[A-Za-z_][A-Za-z0-9_.]*$")
_COLUMN_NAME_RE = re.compile(
    r"^(?!(?i:bnd|name|objsense|qsection|qcmatrix|csection)$)[A-Za-z_][A-Za-z0-9_.]*$")


class VarKind(enum.Enum):
    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_WITHIN_GAP = "feasible-within-gap"
    TIME_LIMIT_FEASIBLE = "time-limit-feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLVER = "no-solver"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE_WITHIN_GAP,
            SolveStatus.TIME_LIMIT_FEASIBLE,
        )


# An exact number of a model: whole ones are ints, whose arithmetic, hashing
# and comparisons cost a fraction of a Fraction's.
Rational = int | Fraction


def as_fraction(x) -> Rational:
    """``x`` as an exact number: an ``int`` if it is whole, else a ``Fraction``."""
    # exact types first: isinstance(x, Fraction) on another type goes through
    # the numbers ABC machinery, which costs more than the rest of this
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            x = Fraction(x).limit_denominator(10**12)
        elif isinstance(x, (int, str, Fraction)):
            x = Fraction(x)
        else:
            raise TypeError(f"cannot coerce {x!r} to a rational coefficient")
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VarKind
    lower: Rational
    upper: Rational


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, Rational], ...]
    sense: str  # one of "<=", ">=", "="
    rhs: Rational
    tag: str = ""


class ModelError(ValueError):
    pass


class MilpModel:
    """Minimization model with deterministic structure."""

    def __init__(self, name: str):
        self.name = name
        self._vars: dict[str, Variable] = {}
        self._constraints: list[Constraint] = []
        self._constraint_names: set[str] = set()
        self._objective: dict[str, Rational] = {}
        self.objective_constant: Rational = 0

    # -- variables ---------------------------------------------------------

    def add_variable(self, name: str, kind: VarKind,
                     lower=0, upper=1) -> str:
        if not _COLUMN_NAME_RE.match(name):
            raise ModelError(f"variable name {name!r} is not a valid MPS name")
        if name in self._vars:
            raise ModelError(f"variable {name!r} already defined")
        lo, hi = as_fraction(lower), as_fraction(upper)
        if lo > hi:
            raise ModelError(f"variable {name!r}: lower {lo} > upper {hi}")
        if kind is VarKind.BINARY and (lo < 0 or hi > 1):
            raise ModelError(f"binary variable {name!r} must live in [0, 1]")
        self._vars[name] = Variable(name, kind, lo, hi)
        return name

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._vars.values())

    # -- constraints and objective ------------------------------------------

    def add_constraint(self, name: str, terms: Iterable[tuple[str, object]],
                       sense: str, rhs, tag: str = "") -> None:
        if sense not in ("<=", ">=", "="):
            raise ModelError(f"bad sense {sense!r}")
        if name in self._constraint_names:
            raise ModelError(f"constraint {name!r} already defined")
        if not _ROW_NAME_RE.match(name):
            raise ModelError(f"constraint name {name!r} is not a valid MPS name")
        folded: dict[str, Rational] = {}
        repeated = False
        for var, coeff in terms:
            if var not in self._vars:
                raise ModelError(f"constraint {name!r} references unknown variable {var!r}")
            c = as_fraction(coeff)
            if not c:
                continue
            if var in folded:
                folded[var] += c
                repeated = True
            else:
                folded[var] = c
        # only a repeated variable can fold to zero
        tupled = (tuple((v, c) for v, c in folded.items() if c) if repeated
                  else tuple(folded.items()))
        self._constraints.append(Constraint(name, tupled, sense, as_fraction(rhs), tag))
        self._constraint_names.add(name)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def add_objective_term(self, var: str, coeff) -> None:
        if var not in self._vars:
            raise ModelError(f"objective references unknown variable {var!r}")
        c = as_fraction(coeff)
        prev = self._objective.get(var)
        self._objective[var] = c if prev is None else prev + c

    def add_objective_constant(self, value) -> None:
        self.objective_constant += as_fraction(value)

    @property
    def objective_terms(self) -> tuple[tuple[str, Rational], ...]:
        return tuple((v, c) for v, c in self._objective.items() if c != 0)

    def objective_value(self, values: Mapping[str, Rational]) -> Fraction:
        """Exact objective, a ``Fraction`` even where whole.

        Variables missing from ``values`` count as zero.
        """
        total = self.objective_constant
        for var, coeff in self._objective.items():
            x = values.get(var)
            if x:
                total += coeff * x
        return Fraction(total)

    def tags(self) -> tuple[str, ...]:
        return tuple(sorted({c.tag for c in self._constraints if c.tag}))

    def metadata(self) -> dict:
        """Row tags and variable kinds, serialized next to the kept model text."""
        return {
            "model": self.name,
            "objective_constant": str(self.objective_constant),
            "variables": {v.name: v.kind.value for v in self.variables},
            "rows": {c.name: c.tag for c in self._constraints},
        }


# -- model text ---------------------------------------------------------------


def format_coefficient(c: Rational) -> str:
    """Exact decimal if the fraction terminates, else ``repr`` of its float."""
    if type(c) is int:
        return str(c)
    n, d = c.numerator, c.denominator
    if d == 1:
        return str(n)
    # for d = 2^a·5^b the fewest places k with d | 10^k is max(a, b) < bit
    # length of d, and a fraction in lowest terms leaves no trailing zero
    # a loop: a generator here would make d a cell, which every call pays
    # to create, the int path's included
    for k in range(d.bit_length()):
        if 10**k % d == 0:
            break
    else:
        return repr(float(c))
    whole, frac = divmod(abs(n) * 10**k // d, 10**k)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{k}d}"


_ROW_TYPE = {"<=": "L", ">=": "G", "=": "E"}


def write_model(m: MilpModel) -> str:
    """Deterministic free-format MPS text for the model, under its own names.

    Rows and columns keep model order, each column's entries come in row
    order, every column states both bounds, and integer and binary columns
    sit between ``INTORG``/``INTEND`` markers. Every number is printed by
    ``format_coefficient``. A column with no cost and no row is declared by
    a zero cost. MPS cannot state the objective constant: it is recorded on
    a ``*`` comment line, which a reader skips, and ``objective_value`` adds
    it back.
    """
    entries: dict[str, list[str]] = {v.name: [] for v in m.variables}
    for var, coeff in m.objective_terms:
        entries[var].append("obj " + format_coefficient(coeff))
    lines = [f"NAME {m.name}"]
    if m.objective_constant:
        lines.append(f"* objective-constant: {format_coefficient(m.objective_constant)}")
    lines += ["ROWS", " N obj"]
    rhs = ["RHS"]
    for con in m.constraints:
        name = con.name
        lines.append(f" {_ROW_TYPE[con.sense]} {name}")
        for var, coeff in con.terms:
            entries[var].append(f"{name} {format_coefficient(coeff)}")
        if con.rhs:
            rhs.append(f" rhs {name} {format_coefficient(con.rhs)}")
    lines.append("COLUMNS")
    bounds = ["BOUNDS"]
    marked = False
    for v in m.variables:
        integral = v.kind is not VarKind.CONTINUOUS
        if integral is not marked:
            lines.append(f" marker 'MARKER' '{'INTORG' if integral else 'INTEND'}'")
            marked = integral
        # one string per column, every line led by the column's name
        lead = f" {v.name} "
        lines.append(lead + ("\n" + lead).join(entries[v.name] or ["obj 0"]))
        lo, up = format_coefficient(v.lower), format_coefficient(v.upper)
        bounds.append(f" LO bnd{lead}{lo}\n UP bnd{lead}{up}")
    if marked:
        lines.append(" marker 'MARKER' 'INTEND'")
    return "\n".join([*lines, *rhs, *bounds, "ENDATA", ""])


# -- solutions ----------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    status: SolveStatus
    objective: Optional[float] = None
    values: Mapping[str, Rational] = field(default_factory=dict)
    gap: Optional[float] = None
    wall_seconds: float = 0.0
    solver_name: str = ""
    message: str = ""
    # branch-and-bound nodes and the proven lower bound on ``objective``
    # (objective constant included); None where the solver reports neither
    node_count: Optional[int] = None
    dual_bound: Optional[float] = None


INTEGRALITY_TOLERANCE = 1e-6
FEASIBILITY_TOLERANCE = 1e-6


def snap_values(m: MilpModel, raw: Mapping[str, float]) -> tuple[dict, list[str]]:
    """Round integer variables within tolerance; report ones that will not snap.

    An integer or binary variable snaps to an ``int``, a continuous one to
    ``as_fraction`` of its value. Missing variables default to zero.
    """
    snapped: dict[str, Rational] = {}
    problems: list[str] = []
    for v in m.variables:
        x = raw.get(v.name, 0.0)
        if v.kind is not VarKind.CONTINUOUS:
            nearest = round(x)
            if abs(x - nearest) > INTEGRALITY_TOLERANCE:
                problems.append(f"{v.name}={x!r} is not integral")
                continue
            snapped[v.name] = nearest
        elif x == 0:
            snapped[v.name] = 0
        else:
            snapped[v.name] = as_fraction(x)
    return snapped, problems


def check_solution(m: MilpModel, values: Mapping[str, Rational],
                   tolerance: float = FEASIBILITY_TOLERANCE) -> list[str]:
    """All bound and row violations beyond a nonnegative tolerance, in model order.

    Exact: each row sums ``coeff * value`` in rationals over the variables
    whose value is nonzero (a missing variable counts as zero), and the
    tolerance is applied only to a value or row already outside its bounds.
    """
    bad: list[str] = []
    tol = Fraction(tolerance).limit_denominator(10**12)
    for v in m.variables:
        x = values.get(v.name, 0)
        lo, hi = v.lower, v.upper
        if (x < lo and x < lo - tol) or (x > hi and x > hi + tol):
            bad.append(f"bound: {v.name}={x} outside [{lo}, {hi}]")
    nonzero = {var: x for var, x in values.items() if x}
    for c in m.constraints:
        lhs = 0
        for var, coeff in c.terms:
            x = nonzero.get(var)
            if x is not None:
                lhs += coeff * x
        rhs = c.rhs
        if c.sense == "<=":
            if lhs > rhs and lhs > rhs + tol:
                bad.append(f"row {c.name}: {lhs} > {rhs}")
        elif c.sense == ">=":
            if lhs < rhs and lhs < rhs - tol:
                bad.append(f"row {c.name}: {lhs} < {rhs}")
        elif c.sense == "=" and lhs != rhs and abs(lhs - rhs) > tol:
            bad.append(f"row {c.name}: {lhs} != {rhs}")
    return bad


def write_solution(sol: Solution) -> str:
    """Plain solution text (sparse: zero variables are omitted)."""
    lines = [f"# status {sol.status.value}"]
    if sol.message:
        lines.append("# message " + " ".join(sol.message.split()))
    if sol.objective is not None:
        lines.append(f"# objective {sol.objective!r}")
    if sol.gap is not None:
        lines.append(f"# gap {sol.gap!r}")
    for name, value in sol.values.items():
        if value != 0:
            lines.append(f"{name} {format_coefficient(value)}")
    return "\n".join(lines) + "\n"


def write_metadata(m: MilpModel) -> str:
    return json.dumps(m.metadata(), indent=2, sort_keys=True) + "\n"
