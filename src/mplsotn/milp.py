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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


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


_TOKEN_RE = re.compile(
    r"(<=|>=|=|\+|-|[A-Za-z_][A-Za-z0-9_.]*:|[A-Za-z_][A-Za-z0-9_.]*|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)"
)


def _number(token: str) -> Fraction:
    if re.fullmatch(r"[0-9]+", token):
        return Fraction(int(token))
    if "e" in token or "E" in token:
        return Fraction(float(token)).limit_denominator(10**15)
    return Fraction(token)


def parse_lp(text: str) -> MilpModel:
    """Parse LP text produced by :func:`write_model` (subset of LP format)."""
    name = "parsed"
    constant = Fraction(0)
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("\\ model:"):
            name = s.split(":", 1)[1].strip()
        elif s.startswith("\\ objective-constant:"):
            constant = _number(s.split(":", 1)[1].strip())

    # strip comments, join into one token stream per section
    body = "\n".join(l for l in text.splitlines() if not l.strip().startswith("\\"))
    sections: dict[str, str] = {}
    order = ["minimize", "subject to", "bounds", "generals", "binaries", "end"]
    lowered = body.lower()
    marks: list[tuple[int, str]] = []
    for key in order:
        idx = lowered.find(key)
        while idx != -1:
            # section headers sit on their own line
            line_start = lowered.rfind("\n", 0, idx) + 1
            if lowered[line_start:idx].strip() == "" and \
               lowered[idx + len(key):lowered.find("\n", idx) if lowered.find("\n", idx) != -1 else len(lowered)].strip() == "":
                marks.append((idx, key))
                break
            idx = lowered.find(key, idx + 1)
    marks.sort()
    for n, (pos, key) in enumerate(marks):
        end = marks[n + 1][0] if n + 1 < len(marks) else len(body)
        sections[key] = body[pos + len(key):end]

    if "minimize" not in sections or "subject to" not in sections:
        raise ModelError("LP text lacks Minimize / Subject To sections")

    m = MilpModel(name)
    m.objective_constant = constant

    kinds: dict[str, VarKind] = {}
    for key, kind in (("generals", VarKind.INTEGER), ("binaries", VarKind.BINARY)):
        for tok in sections.get(key, "").split():
            kinds[tok] = kind

    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    var_order: list[str] = []
    for line in sections.get("bounds", "").splitlines():
        s = line.strip()
        if not s:
            continue
        mt = re.fullmatch(
            r"(-?[0-9.eE+-]+)\s*<=\s*([A-Za-z_][A-Za-z0-9_.]*)\s*<=\s*(-?[0-9.eE+-]+)", s)
        if not mt:
            raise ModelError(f"unsupported bounds line: {s!r}")
        lo, var, hi = mt.groups()
        bounds[var] = (_number(lo), _number(hi))
        var_order.append(var)
    for var in var_order:
        lo, hi = bounds[var]
        m.add_variable(var, kinds.get(var, VarKind.CONTINUOUS), lo, hi)

    def expand_signs(tokens: list[str]) -> list[str]:
        # some writers glue the sign to the term ("-3 x", "-x"); split it off
        out: list[str] = []
        for tok in tokens:
            while len(tok) > 1 and tok[0] in "+-":
                out.append(tok[0])
                tok = tok[1:]
            if tok:
                out.append(tok)
        return out

    def parse_terms(tokens: list[str]) -> list[tuple[str, Fraction]]:
        terms: list[tuple[str, Fraction]] = []
        sign = Fraction(1)
        coeff: Optional[Fraction] = None
        prev_was_sign = False
        for tok in expand_signs(tokens):
            if tok in ("+", "-"):
                s = Fraction(1) if tok == "+" else Fraction(-1)
                if prev_was_sign:
                    sign *= s
                else:
                    sign, coeff = s, None
                prev_was_sign = True
            elif re.fullmatch(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?", tok):
                coeff = _number(tok)
                prev_was_sign = False
            else:
                if tok == "__zero__":
                    sign, coeff, prev_was_sign = Fraction(1), None, False
                    continue
                c = sign * (coeff if coeff is not None else Fraction(1))
                terms.append((tok, c))
                sign, coeff, prev_was_sign = Fraction(1), None, False
        return terms

    obj_tokens = sections["minimize"].split()
    if obj_tokens and obj_tokens[0].endswith(":"):
        obj_tokens = obj_tokens[1:]
    elif "obj:" in sections["minimize"]:
        obj_tokens = sections["minimize"].split("obj:", 1)[1].split()
    for var, coeff in parse_terms(obj_tokens):
        if not m.has_variable(var):
            m.add_variable(var, VarKind.CONTINUOUS, 0, 0)
        m.add_objective_term(var, coeff)

    for line in sections["subject to"].splitlines():
        s = line.strip()
        if not s:
            continue
        if ":" not in s:
            raise ModelError(f"constraint without name: {s!r}")
        cname, rest = s.split(":", 1)
        mt = re.search(r"(<=|>=|=)\s*(-?[0-9.eE+-]+)\s*$", rest)
        if not mt:
            raise ModelError(f"constraint without comparison: {s!r}")
        sense, rhs = mt.group(1), _number(mt.group(2))
        terms = parse_terms(rest[: mt.start()].split())
        m.add_constraint(cname.strip(), terms, sense, rhs)
    return m


# -- solutions ----------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    status: SolveStatus
    objective: Optional[float]
    values: Mapping[str, Fraction]
    gap: Optional[float]
    wall_seconds: float = 0.0
    solver_name: str = ""
    message: str = ""
    # branch-and-bound nodes and the proven lower bound on ``objective``
    # (objective constant included); None where the backend reports neither
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


def read_solution(text: str, m: MilpModel) -> Solution:
    """Parse a solver's variable-value output file.

    Two dialects are recognized: the plain format written by the bundled
    subprocess solver (comment headers plus ``name value`` lines) and the
    CBC solution format (status line plus ``index name value dual`` rows).
    Integer variables are snapped within 1e-6; anything farther is an error.
    """
    raw: dict[str, float] = {}
    status_hint: Optional[str] = None
    objective_hint: Optional[float] = None
    gap_hint: Optional[float] = None

    lines = [l.rstrip("\n") for l in text.splitlines()]
    non_empty = [l for l in lines if l.strip()]
    if not non_empty:
        return Solution(SolveStatus.ERROR, None, {}, None, message="empty solution file")

    first = non_empty[0].strip()
    cbc_like = bool(re.match(r"^(Optimal|Infeasible|Unbounded|Stopped)", first, re.I)) \
        and "#" not in first
    if cbc_like:
        status_hint = first.split("-")[0].strip().lower()
        mt = re.search(r"objective value\s+(-?[0-9.eE+]+)", first)
        if mt:
            objective_hint = float(mt.group(1))
        if "infeasible" in first.lower():
            return Solution(SolveStatus.INFEASIBLE, None, {}, None, message=first)
        for line in non_empty[1:]:
            parts = line.split()
            if len(parts) >= 3 and re.fullmatch(r"\d+", parts[0]):
                raw[parts[1]] = float(parts[2])
    else:
        for line in lines:
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                body = s.lstrip("#").strip()
                if body.startswith("status"):
                    status_hint = body.split(None, 1)[1].strip() if " " in body else None
                elif body.startswith("objective"):
                    try:
                        objective_hint = float(body.split(None, 1)[1])
                    except (IndexError, ValueError):
                        pass
                elif body.startswith("gap"):
                    try:
                        gap_hint = float(body.split(None, 1)[1])
                    except (IndexError, ValueError):
                        pass
                continue
            parts = s.split()
            if len(parts) != 2:
                return Solution(SolveStatus.ERROR, None, {}, None,
                                message=f"unparseable solution line: {s!r}")
            try:
                raw[parts[0]] = float(parts[1])
            except ValueError:
                return Solution(SolveStatus.ERROR, None, {}, None,
                                message=f"bad value on line: {s!r}")

    if status_hint and status_hint.lower() in ("infeasible",):
        return Solution(SolveStatus.INFEASIBLE, None, {}, None, message=text[:200])

    snapped, problems = snap_values(m, raw)
    if problems:
        return Solution(SolveStatus.ERROR, None, {}, None,
                        message="; ".join(problems[:5]))

    exact = m.objective_value(snapped)
    low = (status_hint or "").lower()
    if low == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, None, {}, None)
    # a point whose file states no proof (no status, CBC's "Stopped", or
    # "time-limit-feasible") is an incumbent, never an optimum
    status = {
        "optimal": SolveStatus.OPTIMAL,
        "feasible-within-gap": SolveStatus.FEASIBLE_WITHIN_GAP,
    }.get(low, SolveStatus.TIME_LIMIT_FEASIBLE)
    return Solution(
        status=status,
        objective=float(exact),
        values=snapped,
        gap=gap_hint,
        message="",
    )


def write_solution(sol: Solution) -> str:
    """Plain solution text (sparse: zero variables are omitted)."""
    lines = [f"# status {sol.status.value}"]
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
