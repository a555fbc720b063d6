"""Core value types for multilayer MPLS-over-OTN design.

The network has two layers. The physical layer is an optical transport mesh
(OXCs joined by fiber links, W wavelengths per link). The logical layer is a
set of lightpaths: optical channels of fixed capacity C that terminate on
router ports and act as single logical hops for MPLS traffic. LSPs are groomed
onto lightpaths; traffic that enters a router mid-path counts as transit and
is penalized because it consumes router forwarding capacity.

Everything here is an immutable value object. Bandwidths are stored as
integer Mbps so capacity arithmetic is exact; money is handled as
``fractions.Fraction`` for the same reason.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

MBPS_PER_GBPS = 1000

# (origin, termination, slot): identifies one lightpath between a router pair.
# Up to q_max parallel lightpaths may join the same pair, one per slot.
LightpathKey = tuple[int, int, int]
Link = tuple[int, int]


class Survivability(enum.Enum):
    """Spare capacity allocation strategy."""

    NONE = "none"
    SINGLE_LAYER = "single"
    MULTI_DOUBLE = "double"
    MULTI_SPARE_UNPROTECTED = "spare-unprotected"
    MULTI_INTERLAYER_BRS = "brs"

    @property
    def multilayer(self) -> bool:
        return self in (
            Survivability.MULTI_DOUBLE,
            Survivability.MULTI_SPARE_UNPROTECTED,
            Survivability.MULTI_INTERLAYER_BRS,
        )


class Approach(enum.Enum):
    """Configuration approach: stage-by-stage or per-layer joint models."""

    SEQUENTIAL = "sequential"
    INTEGRATED = "integrated"


class LightpathRole(enum.Enum):
    WORK_CARRIER = "work-carrier"          # carries working LSPs
    SPARE_CARRIER = "spare-carrier"        # carries protection LSPs
    OPTICAL_PROTECTION = "optical-protection"  # idle backup for one carrier


class FailureKind(enum.Enum):
    LINK = "link"
    NODE = "node"
    INTERFACE = "interface"


def normalized_link(a: int, b: int) -> Link:
    """Physical links are undirected; store them as ordered pairs."""
    if a == b:
        raise ValueError(f"self-loop link {a}-{b}")
    return (a, b) if a < b else (b, a)


def route_links(route: tuple[int, ...]) -> tuple[Link, ...]:
    """The links a node sequence crosses, in order."""
    return tuple(normalized_link(a, b) for a, b in zip(route, route[1:]))


@dataclass(frozen=True)
class PhysicalTopology:
    nodes: tuple[int, ...]
    links: tuple[Link, ...]
    wavelengths_per_link: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "links", tuple(normalized_link(a, b) for a, b in self.links)
        )

    @cached_property
    def link_set(self) -> frozenset[Link]:
        return frozenset(self.links)

    def has_link(self, a: int, b: int) -> bool:
        return normalized_link(a, b) in self.link_set

    def neighbors(self, node: int) -> tuple[int, ...]:
        out = [b if a == node else a for a, b in self.links if node in (a, b)]
        return tuple(sorted(out))

    def directed_arcs(self) -> tuple[tuple[int, int], ...]:
        """Both orientations of every fiber link."""
        arcs: list[tuple[int, int]] = []
        for a, b in self.links:
            arcs.append((a, b))
            arcs.append((b, a))
        return tuple(arcs)


@dataclass(frozen=True)
class LspDemand:
    """One unidirectional LSP request, modeled for the s < d half.

    The reverse direction rides complementary lightpaths and is materialized
    after optimization, so each demand appears once here.
    """

    id: str
    source: int
    destination: int
    bandwidth_mbps: int

    @property
    def bandwidth_gbps(self) -> Fraction:
        return Fraction(self.bandwidth_mbps, MBPS_PER_GBPS)


@dataclass(frozen=True)
class TrafficMatrix:
    demands: tuple[LspDemand, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", tuple(self.demands))


@dataclass(frozen=True)
class Instance:
    """A design problem: physical plant, offered traffic, equipment limits."""

    name: str
    topology: PhysicalTopology
    traffic: TrafficMatrix
    lightpath_capacity_mbps: int = 10 * MBPS_PER_GBPS
    max_parallel_lightpaths: int = 2
    router_interfaces: Optional[int] = None  # None: 2 * q_max * (N - 1)

    @property
    def lightpath_capacity_gbps(self) -> Fraction:
        return Fraction(self.lightpath_capacity_mbps, MBPS_PER_GBPS)


@dataclass(frozen=True)
class CostModel:
    """Per-port equipment prices and the lightpath capacity they imply.

    A lightpath occupies one router port and one OXC port at each end; a
    wavelength on a link occupies an OXC port and a transponder at each end.
    Transit traffic is priced at router-port cost per Gbps of capacity.
    """

    router_port_cost: Fraction = Fraction(8)
    oxc_port_cost: Fraction = Fraction(1, 2)
    transponder_cost: Fraction = Fraction(1)
    lightpath_capacity_gbps: Fraction = Fraction(10)

    def __post_init__(self) -> None:
        for name in ("router_port_cost", "oxc_port_cost", "transponder_cost",
                     "lightpath_capacity_gbps"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        # the stage models rest on non-negative prices (a negative transit
        # price rewards cycles) and divide by the capacity
        for name in ("router_port_cost", "oxc_port_cost", "transponder_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)}")
        if self.lightpath_capacity_gbps <= 0:
            raise ValueError("lightpath_capacity_gbps must be positive, "
                             f"got {self.lightpath_capacity_gbps}")

    @property
    def lightpath_cost(self) -> Fraction:
        return 2 * (self.router_port_cost + self.oxc_port_cost)

    @property
    def wavelength_cost(self) -> Fraction:
        return 2 * (self.oxc_port_cost + self.transponder_cost)

    @property
    def transit_cost_per_gbps(self) -> Fraction:
        return self.router_port_cost / self.lightpath_capacity_gbps

    def transit_cost_per_mbps(self) -> Fraction:
        return self.transit_cost_per_gbps / MBPS_PER_GBPS


@dataclass(frozen=True)
class DesignConfig:
    survivability: Survivability = Survivability.NONE
    approach: Approach = Approach.SEQUENTIAL
    q_max: Optional[int] = None        # None: instance value
    optimality_gap: float = 0.03
    time_limit_seconds: float = 5 * 3600.0
    # False: transit subtracts terminating bandwidth per path, so a protection
    # path contributes only its true transit hops. True: terminating bandwidth
    # is subtracted once per LSP, which books a protected LSP's protection-path
    # arrival at the destination as transit. The optimum is unaffected (the
    # difference is a constant per protected LSP); reported transit shifts.
    transit_double_count: bool = False
    auto_grow_q: bool = False

    def effective_q_max(self, instance: Instance) -> int:
        return self.q_max if self.q_max is not None else instance.max_parallel_lightpaths

    def effective_interfaces(self, instance: Instance) -> int:
        if instance.router_interfaces is not None:
            return instance.router_interfaces
        return 2 * self.effective_q_max(instance) * (len(instance.topology.nodes) - 1)

    def grown(self, instance: "Instance") -> "DesignConfig":
        """Same config with one more parallel slot (used by auto_grow_q)."""
        return replace(self, q_max=self.effective_q_max(instance) + 1)


@dataclass(frozen=True)
class Lightpath:
    origin: int
    termination: int
    slot: int
    role: LightpathRole
    route: tuple[int, ...] = ()  # node sequence origin .. termination

    @property
    def key(self) -> LightpathKey:
        return (self.origin, self.termination, self.slot)

    @property
    def route_links(self) -> tuple[Link, ...]:
        return route_links(self.route)

    @property
    def transit_nodes(self) -> tuple[int, ...]:
        return tuple(self.route[1:-1])


@dataclass(frozen=True)
class LogicalTopology:
    lightpaths: tuple[Lightpath, ...]
    router_interfaces: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "lightpaths", tuple(self.lightpaths))

    def carriers(self) -> tuple[Lightpath, ...]:
        return tuple(
            lp for lp in self.lightpaths
            if lp.role is not LightpathRole.OPTICAL_PROTECTION
        )

    def protection_lightpaths(self) -> tuple[Lightpath, ...]:
        return tuple(
            lp for lp in self.lightpaths
            if lp.role is LightpathRole.OPTICAL_PROTECTION
        )


@dataclass(frozen=True)
class LspRoute:
    """Logical routing of one demand: ordered lightpath hops."""

    demand_id: str
    working: tuple[LightpathKey, ...]
    protection: Optional[tuple[LightpathKey, ...]] = None


@dataclass(frozen=True)
class LinkWavelengths:
    link: Link
    work_carrier: int      # wavelengths of lightpaths carrying working LSPs
    spare_carrier: int     # wavelengths of lightpaths carrying protection LSPs
    protection: int        # wavelengths of optical protection lightpaths
    extra: int             # BRS: protection demand beyond the spare pool

    def total(self, brs: bool) -> int:
        if brs:
            return self.work_carrier + self.spare_carrier + self.extra
        return self.work_carrier + self.spare_carrier + self.protection


@dataclass(frozen=True)
class Metrics:
    transit_mbps_per_node: tuple[tuple[int, int], ...]
    transit_total_mbps: int
    working_lightpaths: int
    spare_lightpaths: int
    protection_lightpaths: int
    wavelengths_per_link: tuple[LinkWavelengths, ...]
    wavelength_total: int
    extra_wavelengths: int
    spare_wavelengths: int          # sum of spare-carrier wavelengths
    reuse_factor: Optional[Fraction]

    @property
    def lightpath_count(self) -> int:
        return self.working_lightpaths + self.spare_lightpaths

    @property
    def transit_total_gbps(self) -> Fraction:
        return Fraction(self.transit_total_mbps, MBPS_PER_GBPS)


@dataclass(frozen=True)
class CostBreakdown:
    transit: Fraction
    mpls: Fraction
    optical: Fraction

    @property
    def total(self) -> Fraction:
        return self.transit + self.mpls + self.optical


@dataclass(frozen=True)
class StageTrace:
    stage: str
    variables: int
    constraints: int
    status: str
    objective: Optional[float]
    objective_exact: Optional[Fraction]
    gap: Optional[float]
    wall_seconds: float
    time_budget_seconds: float
    solver: str = ""
    # branch-and-bound statistics of the stage's solve (see milp.Solution);
    # None where the solver reports none, as in design files that predate them
    node_count: Optional[int] = None
    dual_bound: Optional[float] = None


@dataclass(frozen=True)
class Design:
    instance_name: str
    instance_hash: str
    config: DesignConfig
    cost_model: CostModel
    logical: LogicalTopology
    lsp_routes: tuple[LspRoute, ...]
    metrics: Metrics
    cost: CostBreakdown
    traces: tuple[StageTrace, ...]


@dataclass(frozen=True)
class FailureEvent:
    kind: FailureKind
    node: Optional[int] = None
    link: Optional[Link] = None
    lightpath: Optional[LightpathKey] = None
    end: Optional[int] = None  # which end of the lightpath the interface is on

    def label(self) -> str:
        if self.kind is FailureKind.LINK:
            assert self.link is not None
            return f"link {self.link[0]}-{self.link[1]}"
        if self.kind is FailureKind.NODE:
            return f"node {self.node}"
        assert self.lightpath is not None
        i, j, q = self.lightpath
        return f"interface {self.end} of lightpath {i}->{j}#{q}"


@dataclass(frozen=True)
class Violation:
    """One broken design rule, as data."""

    code: str
    message: str


def canonical_instance_dict(instance: Instance) -> dict:
    """Stable dict form used for serialization and hashing."""
    return {
        "name": instance.name,
        "nodes": list(instance.topology.nodes),
        "links": [list(l) for l in instance.topology.links],
        "wavelengths_per_link": instance.topology.wavelengths_per_link,
        "lightpath_capacity_gbps": _gbps_str(instance.lightpath_capacity_mbps),
        "max_parallel_lightpaths": instance.max_parallel_lightpaths,
        "router_interfaces": instance.router_interfaces,
        "demands": [
            {
                "id": d.id,
                "source": d.source,
                "destination": d.destination,
                "bandwidth_gbps": _gbps_str(d.bandwidth_mbps),
            }
            for d in instance.traffic.demands
        ],
    }


def instance_hash(instance: Instance) -> str:
    payload = json.dumps(canonical_instance_dict(instance), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _gbps_str(mbps: int) -> str:
    whole, frac = divmod(mbps, MBPS_PER_GBPS)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


def _connected(adjacency: dict[int, list[int]], cut: Optional[int] = None) -> bool:
    """Whether the graph stays connected once node ``cut`` is deleted."""
    live = [n for n in adjacency if n != cut]
    seen = {live[0]}
    stack = [live[0]]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt != cut and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(live)


def validate_instance(instance: Instance, cfg: Optional[DesignConfig] = None
                      ) -> tuple[Violation, ...]:
    """Structural checks a problem must pass before any model is built."""
    cfg = cfg or DesignConfig()
    out: list[Violation] = []
    topo = instance.topology
    nodes = topo.nodes

    if len(nodes) < 2:
        out.append(Violation("too-few-nodes", f"need at least 2 nodes, got {len(nodes)}"))
    if len(set(nodes)) != len(nodes):
        out.append(Violation("duplicate-nodes", "node ids must be unique"))
    for n in nodes:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            out.append(Violation("bad-node-id",
                                 f"node ids must be non-negative integers, got {n!r}"))
    node_set = set(nodes)

    seen_links: set[Link] = set()
    for a, b in topo.links:
        if a not in node_set or b not in node_set:
            out.append(Violation("unknown-link-endpoint", f"link {a}-{b} uses undefined node"))
        if (a, b) in seen_links:
            out.append(Violation("duplicate-link", f"link {a}-{b} listed twice"))
        seen_links.add((a, b))

    if topo.wavelengths_per_link < 1:
        out.append(Violation("bad-wavelength-limit",
                             f"wavelengths_per_link must be >= 1, got {topo.wavelengths_per_link}"))
    if instance.lightpath_capacity_mbps < 1:
        out.append(Violation("bad-capacity",
                             f"lightpath capacity must be positive, got {instance.lightpath_capacity_mbps} Mbps"))
    if cfg.effective_q_max(instance) < 1:
        out.append(Violation("bad-slot-limit", "max parallel lightpaths must be >= 1"))
    # the default, 2 * q_max * (N - 1), is positive whenever the checks above pass
    if instance.router_interfaces is not None and instance.router_interfaces < 1:
        out.append(Violation("bad-interface-limit", "router interface count must be >= 1"))

    if not out:
        adjacency: dict[int, list[int]] = {n: [] for n in nodes}
        for a, b in topo.links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        # biconnected: at least 3 nodes, and no single node's removal cuts it
        if not _connected(adjacency):
            out.append(Violation("disconnected", "physical topology is not connected"))
        elif cfg.survivability is not Survivability.NONE:
            if len(nodes) < 3 or not all(_connected(adjacency, n) for n in nodes):
                out.append(Violation(
                    "not-biconnected",
                    "survivable design needs a bi-connected physical topology "
                    "(no articulation points)",
                ))

    seen_ids: set[str] = set()
    for d in instance.traffic.demands:
        if not d.id:
            out.append(Violation("empty-demand-id", "demand id must be non-empty"))
        if d.id in seen_ids:
            out.append(Violation("duplicate-demand-id", f"demand id {d.id!r} repeats"))
        seen_ids.add(d.id)
        if d.source not in node_set or d.destination not in node_set:
            out.append(Violation("unknown-demand-endpoint",
                                 f"demand {d.id}: endpoint not a topology node"))
        if not d.source < d.destination:
            out.append(Violation(
                "demand-not-ordered",
                f"demand {d.id}: traffic is modeled for source < destination only "
                f"(got {d.source} -> {d.destination}); the reverse direction is implied",
            ))
        if d.bandwidth_mbps <= 0:
            out.append(Violation("bad-bandwidth", f"demand {d.id}: bandwidth must be positive"))
        elif d.bandwidth_mbps > instance.lightpath_capacity_mbps:
            out.append(Violation(
                "bandwidth-exceeds-capacity",
                f"demand {d.id}: {d.bandwidth_mbps} Mbps exceeds lightpath capacity "
                f"{instance.lightpath_capacity_mbps} Mbps",
            ))

    if not (0.0 <= cfg.optimality_gap < 1.0):
        out.append(Violation("bad-gap", f"optimality gap must be in [0, 1), got {cfg.optimality_gap}"))
    if not (0 < cfg.time_limit_seconds < math.inf):
        out.append(Violation("bad-time-limit",
                             "time limit must be a positive finite number of seconds, "
                             f"got {cfg.time_limit_seconds}"))

    return tuple(out)


class InvalidInstanceError(ValueError):
    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        super().__init__(f"invalid instance: {lines}")
