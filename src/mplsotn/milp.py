"""Solver-agnostic mixed-integer linear models.

A model is an ordered collection of named variables, tagged linear
constraints, and a minimization objective with an affine constant. Models are
written to LP-format text for external solvers; the writer is deterministic
(variables and rows appear in insertion order) so identical builds yield
byte-identical files. A matching parser reads the files back, which both
round-trip-tests the writer and powers the bundled subprocess solver.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NAME_RE = re.compile(rf"^{_NAME}$")


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


# Fractions are immutable, so every small int coefficient, bound and snapped
# value can share one object instead of allocating its own.
_SMALL_INT_LIMIT = 256
_SMALL_INTS = tuple(Fraction(i) for i in range(-_SMALL_INT_LIMIT, _SMALL_INT_LIMIT + 1))
_ZERO = _SMALL_INTS[_SMALL_INT_LIMIT]


def as_fraction(x) -> Fraction:
    # ints first: isinstance(x, Fraction) on a non-Fraction goes through the
    # numbers ABC machinery, which costs more than the rest of this function
    if isinstance(x, int):
        if -_SMALL_INT_LIMIT <= x <= _SMALL_INT_LIMIT:
            return _SMALL_INTS[x + _SMALL_INT_LIMIT]
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational coefficient")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VarKind
    lower: Fraction
    upper: Fraction


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, Fraction], ...]
    sense: str  # one of "<=", ">=", "="
    rhs: Fraction
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
        self._objective: dict[str, Fraction] = {}
        self.objective_constant: Fraction = _ZERO

    # -- variables ---------------------------------------------------------

    def add_variable(self, name: str, kind: VarKind,
                     lower=0, upper=1) -> str:
        if not _NAME_RE.match(name):
            raise ModelError(f"variable name {name!r} is not LP-safe")
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

    def has_variable(self, name: str) -> bool:
        return name in self._vars

    # -- constraints and objective ------------------------------------------

    def add_constraint(self, name: str, terms: Iterable[tuple[str, object]],
                       sense: str, rhs, tag: str = "") -> None:
        if sense not in ("<=", ">=", "="):
            raise ModelError(f"bad sense {sense!r}")
        if name in self._constraint_names:
            raise ModelError(f"constraint {name!r} already defined")
        if not _NAME_RE.match(name):
            raise ModelError(f"constraint name {name!r} is not LP-safe")
        folded: dict[str, Fraction] = {}
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
    def objective_terms(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((v, c) for v, c in self._objective.items() if c != 0)

    def objective_value(self, values: Mapping[str, Fraction]) -> Fraction:
        """Exact objective; variables missing from ``values`` count as zero."""
        total = self.objective_constant
        for var, coeff in self._objective.items():
            x = values.get(var)
            if x:
                total += coeff * x
        return total

    def tags(self) -> tuple[str, ...]:
        return tuple(sorted({c.tag for c in self._constraints if c.tag}))

    def rows_with_tag(self, tag: str) -> tuple[Constraint, ...]:
        return tuple(c for c in self._constraints if c.tag == tag)

    def metadata(self) -> dict:
        """Row tags and variable kinds, serialized next to LP artifacts."""
        return {
            "model": self.name,
            "objective_constant": str(self.objective_constant),
            "variables": {v.name: v.kind.value for v in self.variables},
            "rows": {c.name: c.tag for c in self._constraints},
        }


# -- LP text ----------------------------------------------------------------


def format_coefficient(c: Fraction) -> str:
    """Exact decimal if the fraction terminates, else a 12-digit rounding."""
    if c.denominator == 1:
        return str(c.numerator)
    den = c.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        # terminating decimal: scale to a power of ten and print exactly
        scale = 1
        value = c
        while value.denominator != 1:
            value *= 10
            scale *= 10
        digits = str(abs(value.numerator)).rjust(len(str(scale)), "0")
        sign = "-" if c < 0 else ""
        whole, frac = digits[: -len(str(scale)) + 1] or "0", digits[-len(str(scale)) + 1:]
        return f"{sign}{whole}.{frac}".rstrip("0").rstrip(".") or "0"
    return repr(float(c))


def _terms_text(terms: Sequence[tuple[str, Fraction]]) -> str:
    if not terms:
        return "0 __zero__"
    chunks: list[str] = []
    for idx, (var, coeff) in enumerate(terms):
        mag = format_coefficient(abs(coeff))
        body = f"{mag} {var}" if mag != "1" else var
        if idx == 0:
            chunks.append(f"- {body}" if coeff < 0 else body)
        else:
            chunks.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(chunks)


def write_model(m: MilpModel) -> str:
    """Deterministic LP-format text for the model.

    The objective constant is not representable in LP files; it is recorded
    as a comment and re-applied when solutions are read back.
    """
    lines: list[str] = [f"\\ model: {m.name}"]
    if m.objective_constant != 0:
        lines.append(f"\\ objective-constant: {format_coefficient(m.objective_constant)}")
    lines.append("Minimize")
    lines.append(f" obj: {_terms_text(m.objective_terms)}")
    lines.append("Subject To")
    for c in m.constraints:
        sense = {"<=": "<=", ">=": ">=", "=": "="}[c.sense]
        lines.append(f" {c.name}: {_terms_text(c.terms)} {sense} {format_coefficient(c.rhs)}")
    lines.append("Bounds")
    for v in m.variables:
        lines.append(f" {format_coefficient(v.lower)} <= {v.name} <= {format_coefficient(v.upper)}")
    generals = [v.name for v in m.variables if v.kind is VarKind.INTEGER]
    binaries = [v.name for v in m.variables if v.kind is VarKind.BINARY]
    if generals:
        lines.append("Generals")
        for name in generals:
            lines.append(f" {name}")
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _number(token: str) -> Fraction:
    # the writer prints an exponent only for a float repr of a non-terminating
    # fraction; reading it back through float keeps that text stable
    try:
        if "e" in token or "E" in token:
            return Fraction(float(token)).limit_denominator(10**15)
        return Fraction(token)
    except ValueError:
        raise ModelError(f"bad number {token!r}") from None


_NUMBER = r"-?[0-9.eE+-]+"
# a run of signs (glued on or spaced, several multiply), a coefficient, a name
_TERM_RE = re.compile(
    rf"\s*((?:[+-]\s*)*)([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)?\s*({_NAME})")
_BOUND_RE = re.compile(rf"({_NUMBER})\s*<=\s*({_NAME})\s*<=\s*({_NUMBER})")
_ROW_RE = re.compile(rf"({_NAME})\s*:(.*?)(<=|>=|=)\s*({_NUMBER})")
_SECTIONS = ("minimize", "subject to", "bounds", "generals", "binaries", "end")


def _terms(text: str) -> list[tuple[str, Fraction]]:
    """The signed terms of an LP expression; ``0 __zero__`` stands for none."""
    terms: list[tuple[str, Fraction]] = []
    text, pos = text.rstrip(), 0
    while pos < len(text):
        mt = _TERM_RE.match(text, pos)
        if not mt:
            raise ModelError(f"unreadable terms: {text!r}")
        signs, coeff, var = mt.groups()
        c = _number(coeff) if coeff else Fraction(1)
        if var != "__zero__":
            terms.append((var, -c if signs.count("-") % 2 else c))
        pos = mt.end()
    return terms


def parse_lp(text: str) -> MilpModel:
    """Parse LP text produced by :func:`write_model` (subset of LP format).

    Each section starts at its header line; every row and bound sits on one
    line, and the objective may span the lines of its section.
    """
    name, constant = "parsed", _ZERO
    sections: dict[str, list[str]] = {}
    current: Optional[list[str]] = None
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("\\"):
            if s.startswith("\\ model:"):
                name = s.split(":", 1)[1].strip()
            elif s.startswith("\\ objective-constant:"):
                constant = _number(s.split(":", 1)[1].strip())
        elif s.lower() in _SECTIONS:
            current = sections.setdefault(s.lower(), [])
        elif s and current is not None:
            current.append(s)
    if "minimize" not in sections or "subject to" not in sections:
        raise ModelError("LP text lacks Minimize / Subject To sections")

    m = MilpModel(name)
    m.objective_constant = constant
    kinds = {var: VarKind.INTEGER for line in sections.get("generals", ())
             for var in line.split()}
    kinds.update((var, VarKind.BINARY) for line in sections.get("binaries", ())
                 for var in line.split())
    for s in sections.get("bounds", ()):
        mt = _BOUND_RE.fullmatch(s)
        if not mt:
            raise ModelError(f"unsupported bounds line: {s!r}")
        lo, var, hi = mt.groups()
        m.add_variable(var, kinds.get(var, VarKind.CONTINUOUS), _number(lo), _number(hi))

    # the objective's label, if any, ends at the first colon
    for var, coeff in _terms(" ".join(sections["minimize"]).split(":", 1)[-1]):
        if not m.has_variable(var):
            m.add_variable(var, VarKind.CONTINUOUS, 0, 0)
        m.add_objective_term(var, coeff)
    for s in sections["subject to"]:
        mt = _ROW_RE.fullmatch(s)
        if not mt:
            raise ModelError(f"unsupported constraint line: {s!r}")
        cname, lhs, sense, rhs = mt.groups()
        m.add_constraint(cname, _terms(lhs), sense, _number(rhs))
    return m


# -- solutions ----------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    status: SolveStatus
    objective: Optional[float] = None
    values: Mapping[str, Fraction] = field(default_factory=dict)
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

    Missing variables default to zero (solvers omit zeros in sparse output).
    """
    snapped: dict[str, Fraction] = {}
    problems: list[str] = []
    for v in m.variables:
        x = raw.get(v.name, 0.0)
        if v.kind is not VarKind.CONTINUOUS:
            nearest = round(x)
            if abs(x - nearest) > INTEGRALITY_TOLERANCE:
                problems.append(f"{v.name}={x!r} is not integral")
                continue
            snapped[v.name] = as_fraction(int(nearest))
        elif x == 0:
            snapped[v.name] = _ZERO
        else:
            snapped[v.name] = Fraction(x).limit_denominator(10**12)
    return snapped, problems


def check_solution(m: MilpModel, values: Mapping[str, Fraction],
                   tolerance: float = FEASIBILITY_TOLERANCE) -> list[str]:
    """All bound and row violations beyond a nonnegative tolerance, in model order.

    Exact: each row sums ``coeff * value`` in rationals over the variables
    whose value is nonzero (a missing variable counts as zero), and the
    tolerance is applied only to a value or row already outside its bounds.
    """
    bad: list[str] = []
    tol = Fraction(tolerance).limit_denominator(10**12)
    for v in m.variables:
        x = values.get(v.name, _ZERO)
        lo, hi = v.lower, v.upper
        if (x < lo and x < lo - tol) or (x > hi and x > hi + tol):
            bad.append(f"bound: {v.name}={x} outside [{lo}, {hi}]")
    nonzero = {var: x for var, x in values.items() if x}
    for c in m.constraints:
        lhs = _ZERO
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


_CBC_STATUS_RE = re.compile(r"(optimal|infeasible|unbounded|stopped)", re.I)
# statuses that carry a proof; any other incumbent is only an incumbent
_PROVEN = {"optimal": SolveStatus.OPTIMAL,
           "feasible-within-gap": SolveStatus.FEASIBLE_WITHIN_GAP}
_NO_POINT = {"infeasible": SolveStatus.INFEASIBLE,
             "unbounded": SolveStatus.UNBOUNDED,
             "error": SolveStatus.ERROR,
             "no-solver": SolveStatus.ERROR}


def read_solution(text: str, m: MilpModel) -> Solution:
    """Parse a solver's variable-value output file.

    Two dialects are recognized: the plain format written by the bundled
    subprocess solver (``# status``/``# gap`` headers plus ``name value``
    lines) and the CBC solution format (status line plus ``index name value
    dual`` rows). A stated infeasible, unbounded, error or no-solver status
    carries no point. Integer variables are snapped within 1e-6; anything
    farther is an error. The objective is always recomputed exactly.
    """
    lines = [s for s in (line.strip() for line in text.splitlines()) if s]
    if not lines:
        return Solution(SolveStatus.ERROR, message="empty solution file")
    raw: dict[str, float] = {}
    status, gap, message = "", None, ""
    cbc = _CBC_STATUS_RE.match(lines[0])
    if cbc and "#" not in lines[0]:
        status = cbc.group(1).lower()
        for line in lines[1:]:
            parts = line.split()
            if len(parts) >= 3 and parts[0].isdigit():
                raw[parts[1]] = float(parts[2])
    else:
        for s in lines:
            if s.startswith("#"):
                key, _, value = s.lstrip("#").strip().partition(" ")
                key, value = key.rstrip(":"), value.strip()
                if key == "status":
                    status = value.lower()
                elif key == "message":
                    message = value
                elif key == "gap":
                    try:
                        gap = float(value)
                    except ValueError:
                        pass
                continue
            parts = s.split()
            if len(parts) != 2:
                return Solution(SolveStatus.ERROR,
                                message=f"unparseable solution line: {s!r}")
            try:
                raw[parts[0]] = float(parts[1])
            except ValueError:
                return Solution(SolveStatus.ERROR, message=f"bad value on line: {s!r}")

    if status in _NO_POINT:
        reason = f": {message}" if message and status in ("error", "no-solver") else ""
        return Solution(_NO_POINT[status],
                        message=f"solver reported status {status}{reason}")
    snapped, problems = snap_values(m, raw)
    if problems:
        return Solution(SolveStatus.ERROR, message="; ".join(problems[:5]))
    return Solution(
        status=_PROVEN.get(status, SolveStatus.TIME_LIMIT_FEASIBLE),
        objective=float(m.objective_value(snapped)),
        values=snapped,
        gap=gap,
    )


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
