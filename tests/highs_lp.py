"""Model text as HiGHS's own MPS reader sees it, next to what the model says.

``write_model`` is checked by a reader it shares no code with: HiGHS, through
scipy's private binding. Both sides come out as plain data keyed by the
model's own column and row names, in model order, with one ``float()`` per
term. The objective constant is left out: MPS cannot state it, so the text
keeps it on a comment line, and HiGHS must read no offset from that line.
"""

import math
import tempfile
from pathlib import Path

from scipy.optimize._highspy._core import (HighsStatus, HighsVarType,
                                           MatrixFormat, _Highs)

from mplsotn.milp import MilpModel, VarKind, write_model


def model_view(m: MilpModel) -> dict:
    """Columns as (integer, lower, upper, cost) and rows as (lower, upper, terms)."""
    cost = dict(m.objective_terms)
    rows = {}
    for c in m.constraints:
        rhs = float(c.rhs)
        bounds = {"<=": (-math.inf, rhs), ">=": (rhs, math.inf), "=": (rhs, rhs)}
        rows[c.name] = (*bounds[c.sense],
                        {var: float(coeff) for var, coeff in c.terms})
    columns = {v.name: (v.kind is not VarKind.CONTINUOUS, float(v.lower),
                        float(v.upper), float(cost.get(v.name, 0)))
               for v in m.variables}
    return {"columns": columns, "rows": rows, "offset": 0.0}


def highs_view(text: str) -> dict:
    """``model_view`` of the model HiGHS reads from MPS text."""
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.mps"
        path.write_text(text)
        assert highs.readModel(str(path)) == HighsStatus.kOk
    lp = highs.getLp()
    names = list(lp.col_names_)
    integrality = list(lp.integrality_) or [HighsVarType.kContinuous] * len(names)
    row_names = list(lp.row_names_)
    rows = {name: (lo, hi, {}) for name, lo, hi
            in zip(row_names, lp.row_lower_, lp.row_upper_)}
    matrix = lp.a_matrix_
    assert matrix.format_ == MatrixFormat.kColwise
    for j, name in enumerate(names):
        held = range(matrix.start_[j], matrix.start_[j + 1])
        # each column's entries in row order, no row twice
        index = [matrix.index_[k] for k in held]
        assert index == sorted(set(index))
        for k in held:
            rows[row_names[matrix.index_[k]]][2][name] = matrix.value_[k]
    columns = {
        name: (kind == HighsVarType.kInteger, lo, hi, float(cost))
        for name, kind, lo, hi, cost in zip(
            names, integrality, lp.col_lower_, lp.col_upper_, lp.col_cost_)
    }
    return {"columns": columns, "rows": rows, "offset": lp.offset_}


def assert_highs_reads_the_model(m: MilpModel) -> str:
    """HiGHS reads ``write_model(m)`` as ``m``, constant aside; returns the text."""
    text = write_model(m)
    got, want = highs_view(text), model_view(m)
    assert got == want
    # HiGHS searches columns and rows in the order it holds them
    assert list(got["columns"]) == list(want["columns"])
    assert list(got["rows"]) == list(want["rows"])
    return text
