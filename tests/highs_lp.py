"""LP text as HiGHS's own LP reader sees it, next to what the model says.

``write_model`` is checked by a reader it shares no code with: HiGHS, through
scipy's private binding. Both sides come out as plain data keyed by name,
since HiGHS numbers columns in order of first appearance in the file. Two
things the LP text does not carry are left out of the comparison: the
objective constant (only a comment there) and the ``__zero__`` placeholder
column an empty row or objective writes.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

from scipy.optimize._highspy._core import HighsStatus, HighsVarType, _Highs

from mplsotn.milp import MilpModel, VarKind, write_model

PLACEHOLDER = "__zero__"


def _row_bounds(sense: str, rhs: float) -> tuple[float, float]:
    if sense == "<=":
        return -math.inf, rhs
    if sense == ">=":
        return rhs, math.inf
    return rhs, rhs


def model_view(m: MilpModel) -> dict:
    """Columns as (integer, lower, upper, cost) and rows as (lower, upper, terms)."""
    cost = dict(m.objective_terms)
    return {
        "columns": {v.name: (v.kind is not VarKind.CONTINUOUS, float(v.lower),
                             float(v.upper), float(cost.get(v.name, 0)))
                    for v in m.variables},
        "rows": {c.name: (*_row_bounds(c.sense, float(c.rhs)),
                          {var: float(coeff) for var, coeff in c.terms})
                 for c in m.constraints},
        "offset": 0.0,
    }


def highs_view(text: str) -> dict:
    """``model_view`` of the model HiGHS reads from LP text, placeholder dropped."""
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        path.write_text(text)
        assert highs.readModel(str(path)) == HighsStatus.kOk
    lp = highs.getLp()
    names = list(lp.col_names_)
    integrality = list(lp.integrality_) or [HighsVarType.kContinuous] * len(names)
    row_names = list(lp.row_names_)
    rows = {name: (lo, hi, {}) for name, lo, hi
            in zip(row_names, lp.row_lower_, lp.row_upper_)}
    matrix = lp.a_matrix_
    for j, name in enumerate(names):
        for k in range(matrix.start_[j], matrix.start_[j + 1]):
            rows[row_names[matrix.index_[k]]][2][name] = matrix.value_[k]
    columns = {
        name: (kind == HighsVarType.kInteger, lo, hi, float(cost))
        for name, kind, lo, hi, cost in zip(
            names, integrality, lp.col_lower_, lp.col_upper_, lp.col_cost_)
    }
    if PLACEHOLDER in columns:
        # a continuous column in [0, inf) that costs nothing and fills no row
        assert columns.pop(PLACEHOLDER) == (False, 0.0, math.inf, 0.0)
        assert not any(PLACEHOLDER in terms for _lo, _hi, terms in rows.values())
    return {"columns": columns, "rows": rows, "offset": lp.offset_}


def assert_highs_reads_the_model(m: MilpModel) -> str:
    """HiGHS reads ``write_model(m)`` as ``m``, constant aside; returns the text."""
    text = write_model(m)
    assert highs_view(text) == model_view(m)
    return text
