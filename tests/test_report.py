"""Reporting: percent/money formatting, comparison tables, run summaries."""

import csv
import io
from fractions import Fraction

import pytest

from mplsotn.evaluate import failure_drill
from mplsotn.model import Approach, Survivability
from mplsotn.report import (
    design_summary,
    format_money,
    format_percent,
    option_rows,
    option_table,
)

from support import OPTIONS, cached_design, exact_config


@pytest.mark.parametrize("ratio,expected", [
    (Fraction(15, 108), "14 %"),
    (0.015, "1.5 %"),
    (0.03, "3 %"),
    (0.025, "3 %"),          # half up, not banker's rounding
    (Fraction(1, 3), "33 %"),
    (0, "0.0 %"),
    (0.0194, "1.9 %"),
    (0.0195, "2 %"),         # 1.95 rounds up to the whole-number regime
    (1, "100 %"),
    (Fraction(1, 2), "50 %"),
])
def test_format_percent(ratio, expected):
    assert format_percent(ratio) == expected


def test_format_money():
    assert format_money(Fraction(46)) == "46"
    assert format_money(Fraction(186, 5)) == "37.2"
    assert format_money(Fraction(9, 8)) == "1.125"


def _ring4_entries(ring4):
    return [(o.value, cached_design(ring4, exact_config(o))) for o in OPTIONS]


def test_option_rows_ring4(ring4):
    rows = option_rows(_ring4_entries(ring4))
    assert [r["option"] for r in rows] == [
        "none", "single", "double", "spare-unprotected", "brs"]
    by_option = {r["option"]: r for r in rows}
    assert by_option["none"] == {
        "option": "none", "total_cost": "23", "transit_gbps": "0",
        "lightpaths": "1", "wavelengths": "2", "saving": "50 %"}
    # single layer is the most expensive option here, so it anchors savings
    assert by_option["single"]["saving"] == "-"
    assert by_option["single"]["lightpaths"] == "2 (1)"
    assert by_option["double"]["saving"] == "37 %"
    assert by_option["brs"]["wavelengths"] == "4 (2)"
    assert by_option["double"]["wavelengths"] == "4"


def test_option_rows_empty():
    assert option_rows([]) == []


def test_option_table_text_layout(ring4):
    text = option_table(_ring4_entries(ring4))
    lines = text.splitlines()
    assert len(lines) == 2 + len(OPTIONS)
    assert lines[0].split() == [
        "option", "total", "cost", "transit", "Gbps",
        "lightpaths", "(spare)", "wavelengths", "(extra)", "saving"]
    assert set(lines[1]) <= {"-", " "}
    # columns line up: every row is padded to the same grid
    assert all(line.startswith("none") or True for line in lines)
    assert "4 (2)" in text


def test_option_table_csv_parses(ring4):
    text = option_table(_ring4_entries(ring4), fmt="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["option", "total_cost", "transit_gbps",
                       "lightpaths", "wavelengths", "saving"]
    assert len(rows) == 1 + len(OPTIONS)
    assert rows[2][0] == "single" and rows[2][5] == "-"


def test_design_summary_single_layer(ring4):
    design = cached_design(ring4, exact_config(Survivability.SINGLE_LAYER))
    rep = failure_drill(ring4, design)
    text = design_summary(design, rep.summary())
    assert "total cost      46 (transit 0, mpls 34, optical 12)" in text
    assert "lightpaths      2 (1)" in text
    assert "wavelengths     4" in text
    for stage in ("working-mpls", "protection-mpls", "lightpath-routing"):
        assert f"stage {stage}" in text
    assert "failure drill   12/12 events restorable" in text
    assert "spare reuse" not in text


def test_design_summary_brs(ring4):
    design = cached_design(
        ring4, exact_config(Survivability.MULTI_INTERLAYER_BRS))
    text = design_summary(design)
    assert "wavelengths     4 (2)" in text
    assert "spare reuse     0.0 %" in text
    assert "optical protection" in text
    assert "failure drill" not in text


def test_design_summary_says_a_sequential_total_follows_one_stage_i_optimum(ring4):
    note = "(follows one of possibly several equal-cost stage-I optima)"
    sequential = cached_design(ring4, exact_config(Survivability.NONE))
    lines = design_summary(sequential).splitlines()
    assert lines[lines.index(" " * 16 + note) - 1].startswith("total cost")
    integrated = cached_design(
        ring4, exact_config(Survivability.NONE, approach=Approach.INTEGRATED))
    assert note not in design_summary(integrated)
