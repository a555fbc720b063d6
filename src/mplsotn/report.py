"""Human- and machine-readable summaries of finished designs.

Percentages follow the reporting convention used throughout: one decimal
place while the figure is small (under two percent), whole numbers once the
decimal stops adding information.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction
from typing import Optional, Sequence, Union

from .milp import format_coefficient
from .model import Design, Survivability

Number = Union[int, float, Fraction]


def format_percent(ratio: Number) -> str:
    """A ratio as a percent string: '1.5 %' below two percent, '14 %' above."""
    pct = Decimal(ratio.numerator) / Decimal(ratio.denominator) * 100 \
        if isinstance(ratio, Fraction) else Decimal(str(float(ratio))) * 100
    one_dp = pct.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    if one_dp >= 2:
        return f"{int(pct.quantize(Decimal('1'), rounding=ROUND_HALF_UP))} %"
    return f"{one_dp} %"


def format_money(value: Fraction) -> str:
    return format_coefficient(Fraction(value))


def _counts(design: Design) -> tuple[str, str]:
    m = design.metrics
    lightpaths = str(m.lightpath_count)
    if m.spare_lightpaths:
        lightpaths += f" ({m.spare_lightpaths})"
    wavelengths = str(m.wavelength_total)
    if design.config.survivability is Survivability.MULTI_INTERLAYER_BRS:
        wavelengths += f" ({m.extra_wavelengths})"
    return lightpaths, wavelengths


def option_rows(entries: Sequence[tuple[str, Union[Design, str]]]) -> list[dict]:
    """One row per survivability option.

    Lightpath counts show spare carriers in parentheses; under shared
    restoration the wavelength count shows paid extra wavelengths in
    parentheses. Savings are relative to the most expensive row. An entry
    whose second element is a string is an option that failed for that
    reason: its row reads ``failed: <reason>`` and ``-`` elsewhere.
    """
    worst = max((d.cost.total for _label, d in entries
                 if isinstance(d, Design)), default=0)
    rows = []
    for label, d in entries:
        if not isinstance(d, Design):
            rows.append({"option": label, "total_cost": f"failed: {d}",
                         "transit_gbps": "-", "lightpaths": "-",
                         "wavelengths": "-", "saving": "-"})
            continue
        lightpaths, wavelengths = _counts(d)
        saving = ("-" if d.cost.total == worst or worst == 0
                  else format_percent((worst - d.cost.total) / worst))
        rows.append({
            "option": label,
            "total_cost": format_money(d.cost.total),
            "transit_gbps": format_coefficient(d.metrics.transit_total_gbps),
            "lightpaths": lightpaths,
            "wavelengths": wavelengths,
            "saving": saving,
        })
    return rows


_OPTION_COLUMNS = [
    ("option", "option"),
    ("total_cost", "total cost"),
    ("transit_gbps", "transit Gbps"),
    ("lightpaths", "lightpaths (spare)"),
    ("wavelengths", "wavelengths (extra)"),
    ("saving", "saving"),
]


def _text_table(rows: list[dict], columns) -> str:
    headers = [h for _k, h in columns]
    cells = [[r[k] for k, _h in columns] for r in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines) + "\n"


def _csv_table(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([k for k, _h in columns])
    for r in rows:
        writer.writerow([r[k] for k, _h in columns])
    return buf.getvalue()


def option_table(entries: Sequence[tuple[str, Union[Design, str]]],
                 fmt: str = "text") -> str:
    rows = option_rows(entries)
    if fmt == "csv":
        return _csv_table(rows, _OPTION_COLUMNS)
    return _text_table(rows, _OPTION_COLUMNS)


def design_summary(design: Design, drill_summary: Optional[dict] = None) -> str:
    """A few lines an operator reads after one run."""
    m = design.metrics
    lightpaths, wavelengths = _counts(design)
    lines = [
        f"instance        {design.instance_name}",
        f"survivability   {design.config.survivability.value}",
        f"approach        {design.config.approach.value}",
        f"total cost      {format_money(design.cost.total)}"
        f" (transit {format_money(design.cost.transit)},"
        f" mpls {format_money(design.cost.mpls)},"
        f" optical {format_money(design.cost.optical)})",
        f"transit         {format_coefficient(m.transit_total_gbps)} Gbps",
        f"lightpaths      {lightpaths}"
        + (f" + {m.protection_lightpaths} optical protection"
           if m.protection_lightpaths else ""),
        f"wavelengths     {wavelengths}",
    ]
    if m.reuse_factor is not None:
        lines.append(f"spare reuse     {format_percent(m.reuse_factor)}")
    for t in design.traces:
        gap = "-" if t.gap is None else f"{t.gap:.4%}"
        lines.append(
            f"stage {t.stage:<22} {t.status:<18} vars {t.variables:>5} "
            f"rows {t.constraints:>5} gap {gap:<9} {t.wall_seconds:.2f}s"
        )
    if drill_summary is not None:
        lines.append(
            f"failure drill   {drill_summary['restorable_events']}"
            f"/{drill_summary['events']} events restorable"
        )
    return "\n".join(lines) + "\n"
