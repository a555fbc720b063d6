"""Lossless JSON form of a finished design.

Exact rationals are written as fraction strings ("17/10"), never floats, so a
reloaded design verifies bit-for-bit against the original instance.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .model import (
    Approach,
    CostBreakdown,
    CostModel,
    Design,
    DesignConfig,
    Lightpath,
    LightpathRole,
    LinkWavelengths,
    LogicalTopology,
    LspRoute,
    Metrics,
    StageTrace,
    Survivability,
)

FORMAT = "mplsotn-design/1"


def _frac(f: Optional[Fraction]) -> Optional[str]:
    return None if f is None else str(f)


def _unfrac(s) -> Optional[Fraction]:
    return None if s is None else Fraction(s)


def design_to_dict(design: Design) -> dict:
    cfg = design.config
    cm = design.cost_model
    m = design.metrics
    return {
        "format": FORMAT,
        "instance": {"name": design.instance_name, "hash": design.instance_hash},
        "config": {
            "survivability": cfg.survivability.value,
            "approach": cfg.approach.value,
            "q_max": cfg.q_max,
            "optimality_gap": cfg.optimality_gap,
            "time_limit_seconds": cfg.time_limit_seconds,
            "transit_double_count": cfg.transit_double_count,
            "auto_grow_q": cfg.auto_grow_q,
        },
        "cost_model": {
            "router_port_cost": _frac(Fraction(cm.router_port_cost)),
            "oxc_port_cost": _frac(Fraction(cm.oxc_port_cost)),
            "transponder_cost": _frac(Fraction(cm.transponder_cost)),
            "lightpath_capacity_gbps": _frac(Fraction(cm.lightpath_capacity_gbps)),
        },
        "router_interfaces": design.logical.router_interfaces,
        "lightpaths": [
            {
                "origin": lp.origin,
                "termination": lp.termination,
                "slot": lp.slot,
                "role": lp.role.value,
                "route": list(lp.route),
            }
            for lp in design.logical.lightpaths
        ],
        "lsp_routes": [
            {
                "demand": r.demand_id,
                "working": [list(k) for k in r.working],
                "protection": (None if r.protection is None
                               else [list(k) for k in r.protection]),
            }
            for r in design.lsp_routes
        ],
        "metrics": {
            "transit_mbps_per_node": [list(t) for t in m.transit_mbps_per_node],
            "transit_total_mbps": m.transit_total_mbps,
            "working_lightpaths": m.working_lightpaths,
            "spare_lightpaths": m.spare_lightpaths,
            "protection_lightpaths": m.protection_lightpaths,
            "wavelengths_per_link": [
                {
                    "link": list(lw.link),
                    "work_carrier": lw.work_carrier,
                    "spare_carrier": lw.spare_carrier,
                    "protection": lw.protection,
                    "extra": lw.extra,
                }
                for lw in m.wavelengths_per_link
            ],
            "wavelength_total": m.wavelength_total,
            "extra_wavelengths": m.extra_wavelengths,
            "spare_wavelengths": m.spare_wavelengths,
            "reuse_factor": _frac(m.reuse_factor),
        },
        "cost": {
            "transit": _frac(design.cost.transit),
            "mpls": _frac(design.cost.mpls),
            "optical": _frac(design.cost.optical),
        },
        "traces": [
            {
                "stage": t.stage,
                "variables": t.variables,
                "constraints": t.constraints,
                "status": t.status,
                "objective": t.objective,
                "objective_exact": _frac(t.objective_exact),
                "gap": t.gap,
                "wall_seconds": t.wall_seconds,
                "time_budget_seconds": t.time_budget_seconds,
                "solver": t.solver,
                "node_count": t.node_count,
                "dual_bound": t.dual_bound,
            }
            for t in design.traces
        ],
    }


def design_from_dict(data: dict) -> Design:
    if data.get("format") != FORMAT:
        raise ValueError(f"not a design document (format={data.get('format')!r})")
    cfg = data["config"]
    cm = data["cost_model"]
    m = data["metrics"]
    return Design(
        instance_name=data["instance"]["name"],
        instance_hash=data["instance"]["hash"],
        config=DesignConfig(
            survivability=Survivability(cfg["survivability"]),
            approach=Approach(cfg["approach"]),
            q_max=cfg["q_max"],
            optimality_gap=cfg["optimality_gap"],
            time_limit_seconds=cfg["time_limit_seconds"],
            transit_double_count=cfg["transit_double_count"],
            auto_grow_q=cfg["auto_grow_q"],
        ),
        cost_model=CostModel(
            router_port_cost=_unfrac(cm["router_port_cost"]),
            oxc_port_cost=_unfrac(cm["oxc_port_cost"]),
            transponder_cost=_unfrac(cm["transponder_cost"]),
            lightpath_capacity_gbps=_unfrac(cm["lightpath_capacity_gbps"]),
        ),
        logical=LogicalTopology(
            lightpaths=tuple(
                Lightpath(
                    origin=lp["origin"],
                    termination=lp["termination"],
                    slot=lp["slot"],
                    role=LightpathRole(lp["role"]),
                    route=tuple(lp["route"]),
                )
                for lp in data["lightpaths"]
            ),
            router_interfaces=data["router_interfaces"],
        ),
        lsp_routes=tuple(
            LspRoute(
                demand_id=r["demand"],
                working=tuple(tuple(k) for k in r["working"]),
                protection=(None if r["protection"] is None
                            else tuple(tuple(k) for k in r["protection"])),
            )
            for r in data["lsp_routes"]
        ),
        metrics=Metrics(
            transit_mbps_per_node=tuple(tuple(t) for t in m["transit_mbps_per_node"]),
            transit_total_mbps=m["transit_total_mbps"],
            working_lightpaths=m["working_lightpaths"],
            spare_lightpaths=m["spare_lightpaths"],
            protection_lightpaths=m["protection_lightpaths"],
            wavelengths_per_link=tuple(
                LinkWavelengths(
                    link=tuple(lw["link"]),
                    work_carrier=lw["work_carrier"],
                    spare_carrier=lw["spare_carrier"],
                    protection=lw["protection"],
                    extra=lw["extra"],
                )
                for lw in m["wavelengths_per_link"]
            ),
            wavelength_total=m["wavelength_total"],
            extra_wavelengths=m["extra_wavelengths"],
            spare_wavelengths=m["spare_wavelengths"],
            reuse_factor=_unfrac(m["reuse_factor"]),
        ),
        cost=CostBreakdown(
            transit=_unfrac(data["cost"]["transit"]),
            mpls=_unfrac(data["cost"]["mpls"]),
            optical=_unfrac(data["cost"]["optical"]),
        ),
        traces=tuple(
            StageTrace(
                stage=t["stage"],
                variables=t["variables"],
                constraints=t["constraints"],
                status=t["status"],
                objective=t["objective"],
                objective_exact=_unfrac(t["objective_exact"]),
                gap=t["gap"],
                wall_seconds=t["wall_seconds"],
                time_budget_seconds=t["time_budget_seconds"],
                solver=t.get("solver", ""),
                node_count=t.get("node_count"),
                dual_bound=t.get("dual_bound"),
            )
            for t in data["traces"]
        ),
    )


def save_design(design: Design, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(design_to_dict(design), indent=2) + "\n", encoding="utf-8"
    )


def load_design(path: Union[str, Path]) -> Design:
    return design_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
