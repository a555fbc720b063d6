"""Problem instances: JSON schema, canned topologies, and a seeded generator.

The on-disk format is strict JSON: unknown fields are rejected so that typos
fail loudly instead of silently using defaults. Bandwidths are written in
Gbps (string or number) and held internally as integer Mbps.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Optional, Sequence, Union

from .model import (
    Instance,
    InvalidInstanceError,
    LspDemand,
    MBPS_PER_GBPS,
    PhysicalTopology,
    TrafficMatrix,
    Violation,
    canonical_instance_dict,
    validate_instance,
)

_TOP_FIELDS = {
    "name", "nodes", "links", "wavelengths_per_link",
    "lightpath_capacity_gbps", "max_parallel_lightpaths",
    "router_interfaces", "demands",
}
_DEMAND_FIELDS = {"id", "source", "destination", "bandwidth_gbps"}


def _bad(code: str, message: str) -> InvalidInstanceError:
    return InvalidInstanceError([Violation(code, message)])


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad("bad-field", f"{what} must be an integer, got {value!r}")
    return value


def gbps_to_mbps(value, what: str) -> int:
    """Gbps (number or decimal string) to integer Mbps, exactly."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise _bad("bad-field", f"{what} must be a number, got {value!r}")
    try:
        gbps = Decimal(str(value))
    except InvalidOperation:
        raise _bad("bad-field", f"{what}: cannot parse {value!r}") from None
    mbps = gbps * MBPS_PER_GBPS
    if mbps != mbps.to_integral_value():
        raise _bad("bad-field",
                   f"{what}: {value!r} Gbps is finer than 1 Mbps resolution")
    return int(mbps)


def parse_instance(data: dict) -> Instance:
    """Dict (from JSON) to a validated Instance."""
    if not isinstance(data, dict):
        raise _bad("bad-json", "instance document must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise _bad("unknown-field", f"unknown instance field(s): {sorted(unknown)}")
    for req in ("name", "nodes", "links", "demands"):
        if req not in data:
            raise _bad("missing-field", f"instance field {req!r} is required")
    if not isinstance(data["name"], str):
        raise _bad("bad-field", "name must be a string")
    if not isinstance(data["nodes"], list) or not isinstance(data["links"], list):
        raise _bad("bad-field", "nodes and links must be arrays")

    nodes = tuple(_require_int(n, "node id") for n in data["nodes"])
    links = []
    for item in data["links"]:
        if not isinstance(item, list) or len(item) != 2:
            raise _bad("bad-field", f"link {item!r} must be a [a, b] pair")
        a = _require_int(item[0], "link endpoint")
        b = _require_int(item[1], "link endpoint")
        if a == b:
            raise _bad("bad-field", f"link {item!r} is a self-loop")
        links.append((min(a, b), max(a, b)))

    demands = []
    if not isinstance(data["demands"], list):
        raise _bad("bad-field", "demands must be an array")
    for item in data["demands"]:
        if not isinstance(item, dict):
            raise _bad("bad-field", f"demand {item!r} must be an object")
        unknown = set(item) - _DEMAND_FIELDS
        if unknown:
            raise _bad("unknown-field",
                       f"unknown demand field(s): {sorted(unknown)}")
        for req in _DEMAND_FIELDS:
            if req not in item:
                raise _bad("missing-field", f"demand field {req!r} is required")
        if not isinstance(item["id"], str):
            raise _bad("bad-field", "demand id must be a string")
        demands.append(LspDemand(
            id=item["id"],
            source=_require_int(item["source"], "demand source"),
            destination=_require_int(item["destination"], "demand destination"),
            bandwidth_mbps=gbps_to_mbps(item["bandwidth_gbps"],
                                        f"demand {item['id']} bandwidth"),
        ))

    router_interfaces = data.get("router_interfaces")
    if router_interfaces is not None:
        router_interfaces = _require_int(router_interfaces, "router_interfaces")

    instance = Instance(
        name=data["name"],
        topology=PhysicalTopology(
            nodes=nodes,
            links=tuple(links),
            wavelengths_per_link=_require_int(
                data.get("wavelengths_per_link", 32), "wavelengths_per_link"),
        ),
        traffic=TrafficMatrix(demands=tuple(demands)),
        lightpath_capacity_mbps=gbps_to_mbps(
            data.get("lightpath_capacity_gbps", 10), "lightpath capacity"),
        max_parallel_lightpaths=_require_int(
            data.get("max_parallel_lightpaths", 2), "max_parallel_lightpaths"),
        router_interfaces=router_interfaces,
    )
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance


def load_instance(path: Union[str, Path]) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _bad("unreadable", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _bad("bad-json", f"{path}: {exc}") from exc
    return parse_instance(data)


def instance_to_json(instance: Instance) -> str:
    return json.dumps(canonical_instance_dict(instance), indent=2) + "\n"


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(instance_to_json(instance), encoding="utf-8")


# -- canned desk instances -----------------------------------------------------


def four_node_ring() -> Instance:
    """Smallest survivable topology; one demand crossing the ring."""
    return Instance(
        name="ring4",
        topology=PhysicalTopology(
            nodes=(1, 2, 3, 4),
            links=((1, 2), (2, 3), (3, 4), (1, 4)),
        ),
        traffic=TrafficMatrix(demands=(
            LspDemand(id="d1", source=1, destination=3, bandwidth_mbps=10000),
        )),
    )


def four_node_ring_chord() -> Instance:
    """Ring plus a direct fiber between the demand endpoints."""
    base = four_node_ring()
    return Instance(
        name="ring4-chord",
        topology=PhysicalTopology(
            nodes=base.topology.nodes,
            links=base.topology.links + ((1, 3),),
        ),
        traffic=base.traffic,
    )


def five_node_ring_chord() -> Instance:
    """Five-node ring with one chord and two full-capacity demands."""
    return Instance(
        name="ring5-chord",
        topology=PhysicalTopology(
            nodes=(1, 2, 3, 4, 5),
            links=((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)),
        ),
        traffic=TrafficMatrix(demands=(
            LspDemand(id="d1", source=1, destination=3, bandwidth_mbps=10000),
            LspDemand(id="d2", source=1, destination=4, bandwidth_mbps=10000),
        )),
    )


# -- generator -------------------------------------------------------------------

Profile = Union[str, Sequence[float]]


def _bandwidths(rng: random.Random, count: int, profile: Profile) -> list[int]:
    if profile == "uniform":
        return [10 * MBPS_PER_GBPS] * count
    if profile == "mixed":
        choices = [2500, 5000, 7500, 10000]
        return [rng.choice(choices) for _ in range(count)]
    if isinstance(profile, str):
        raise ValueError(f"unknown bandwidth profile {profile!r}")
    values = [gbps_to_mbps(g, "profile bandwidth") for g in profile]
    if not values:
        raise ValueError("bandwidth profile list is empty")
    return [values[i % len(values)] for i in range(count)]


def generate_instance(
    kind: str,
    n: int,
    *,
    seed: int = 0,
    demand_count: Optional[int] = None,
    bandwidth_profile: Profile = "uniform",
    name: Optional[str] = None,
    wavelengths_per_link: int = 32,
) -> Instance:
    """Deterministic instance families for experiments and tests.

    ``ring``: cycle 1..n, demands pair up diametrically opposite nodes.
    ``ring_plus_chords``: cycle plus seeded chords, same demands as ring.
    ``mesh``: cycle plus chords until mean degree reaches 3, demands drawn
    from all ordered pairs. A ``demand_count`` below 1 or above the pairs a
    kind offers (n - n // 2 on a ring, n(n - 1) / 2 on a mesh) raises
    ``ValueError``.
    Identical arguments always produce an identical instance.
    """
    if n < 3:
        raise ValueError("generated topologies need at least 3 nodes")
    if kind not in ("ring", "ring_plus_chords", "mesh"):
        raise ValueError(f"unknown topology kind {kind!r}")
    rng = random.Random(seed)
    nodes = tuple(range(1, n + 1))
    ring = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    links = {(min(a, b), max(a, b)) for a, b in ring}

    non_ring = [
        (a, b)
        for a in nodes
        for b in nodes
        if a < b and (a, b) not in links
    ]
    if kind == "ring_plus_chords":
        extra = min(max(1, n // 3), len(non_ring))
        links.update(rng.sample(non_ring, extra))
    elif kind == "mesh":
        target_edges = -(-3 * n // 2)  # mean degree 3
        candidates = non_ring[:]
        rng.shuffle(candidates)
        while len(links) < target_edges and candidates:
            links.add(candidates.pop())

    if kind in ("ring", "ring_plus_chords"):
        count = demand_count if demand_count is not None else max(1, n // 4)
        half = n // 2
        pairs = [(i, i + half) for i in range(1, count + 1) if i + half <= n]
    else:
        count = demand_count if demand_count is not None else max(2, n // 2)
        all_pairs = [(a, b) for a in nodes for b in nodes if a < b]
        rng.shuffle(all_pairs)
        pairs = sorted(all_pairs[:count])
    if count < 1 or len(pairs) < count:
        most = n * (n - 1) // 2 if kind == "mesh" else n - n // 2
        raise ValueError(f"{kind} with {n} nodes has at most {most} demands; "
                         f"ask for 1 to {most}, not {count}")

    bws = _bandwidths(rng, len(pairs), bandwidth_profile)
    demands = tuple(
        LspDemand(id=f"d{i + 1}", source=s, destination=t, bandwidth_mbps=bw)
        for i, ((s, t), bw) in enumerate(zip(pairs, bws))
    )
    instance = Instance(
        name=name or f"{kind.replace('_', '-')}{n}-s{seed}",
        topology=PhysicalTopology(
            nodes=nodes,
            links=tuple(sorted(links)),
            wavelengths_per_link=wavelengths_per_link,
        ),
        traffic=TrafficMatrix(demands=demands),
    )
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance
