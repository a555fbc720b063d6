"""Graphviz views of instances and designs.

Output is deterministic (sorted nodes, links, and lightpaths) so exports can
be diffed across runs.
"""

from __future__ import annotations

from typing import Optional

from .model import Design, Instance, LightpathRole, Survivability

_ROLE_STYLE = {
    LightpathRole.WORK_CARRIER: ("blue", "solid"),
    LightpathRole.SPARE_CARRIER: ("darkgreen", "dashed"),
    LightpathRole.OPTICAL_PROTECTION: ("red", "dotted"),
}


def topology_dot(instance: Instance, design: Optional[Design] = None) -> str:
    """The fiber plant, optionally overlaid with a design's lightpaths.

    Physical links are black and, when a design is given, labeled with their
    wavelength usage. Each lightpath appears as one styled edge between its
    end nodes (blue working, green spare, red optical protection) labeled
    with its slot and physical route.
    """
    name = instance.name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [
        f'graph "{name}" {{',
        "  node [shape=circle fontname=Helvetica];",
        "  edge [fontname=Helvetica fontsize=10];",
    ]
    for n in sorted(instance.topology.nodes):
        lines.append(f"  {n};")

    usage = {}
    if design is not None:
        brs = design.config.survivability is Survivability.MULTI_INTERLAYER_BRS
        usage = {
            lw.link: f"{lw.work_carrier}+{lw.spare_carrier}"
            + (f"+{lw.extra}x" if brs else f"+{lw.protection}")
            for lw in design.metrics.wavelengths_per_link
        }
    for a, b in sorted(instance.topology.links):
        label = f' [label="{usage[(a, b)]}"]' if (a, b) in usage else ""
        lines.append(f"  {a} -- {b}{label};")

    if design is not None:
        for lp in sorted(design.logical.lightpaths,
                         key=lambda l: (l.role.value, l.key)):
            color, style = _ROLE_STYLE[lp.role]
            route = "-".join(str(n) for n in lp.route)
            lines.append(
                f"  {lp.origin} -- {lp.termination} "
                f'[color={color} style={style} constraint=false '
                f'label="q{lp.slot} {route}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
