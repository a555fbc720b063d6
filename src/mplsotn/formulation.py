"""Stage models for the two-layer design problem.

Each builder emits one MILP over a documented variable family set:

==========  =================================================================
family      meaning
==========  =================================================================
``wb``      lightpath slot (i,j,q) holds a carrier for working LSPs
``pb``      lightpath slot holds a carrier for protection LSPs
``wd``      demand k's working LSP crosses slot (i,j,q)
``pd``      demand k's protection LSP crosses slot (i,j,q)
``wr``      work carrier (i,j,q) routed over physical arc (m,n)
``sr``      spare carrier (i,j,q) routed over physical arc (m,n)
``pr``      optical protection lightpath for carrier (i,j,q) over arc (m,n)
``x``       link's extra wavelengths beyond the spare pool (shared restoration)
``brsy``    link is used by a spare carrier whose protection LSP guards a
            demand transiting a given router (pool-exclusion helper)
==========  =================================================================

The sequential approach solves four of these in order (working MPLS,
protection MPLS, lightpath routing, lightpath protection); the integrated
approach merges each MPLS stage with its optical stage. Constraint rows are
tagged with functional names (``working-flow``, ``grooming-capacity``, ...)
for kept artifacts and tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .milp import MilpModel, VarKind
from .model import (
    CostModel,
    DesignConfig,
    Instance,
    LightpathKey,
    Link,
    LspDemand,
    PhysicalTopology,
    Survivability,
    normalized_link,
)

Slot = LightpathKey
Arc = tuple[int, int]


class VarIndex:
    """family -> index tuple -> variable name.

    Every entry is also filed under ``(family, key[0])`` in insertion order:
    the demand index for ``wd``/``pd``, the slot for the route families. A row
    or a decoder reads only its own group instead of scanning the family.
    """

    def __init__(self) -> None:
        self._families: dict[str, dict[tuple, str]] = {}
        self._groups: dict[tuple[str, object], list[tuple[tuple, str]]] = {}

    def add(self, family: str, key: tuple, name: str) -> str:
        self._families.setdefault(family, {})[key] = name
        self._groups.setdefault((family, key[0]), []).append((key, name))
        return name

    def get(self, family: str, key: tuple) -> Optional[str]:
        return self._families.get(family, {}).get(key)

    def items(self, family: str) -> tuple[tuple[tuple, str], ...]:
        return tuple(self._families.get(family, {}).items())

    def group(self, family: str, head: object) -> Sequence[tuple[tuple, str]]:
        """The family's entries whose key starts with ``head``, in order."""
        return self._groups.get((family, head), ())

    def count(self, family: str) -> int:
        return len(self._families.get(family, {}))


@dataclass(frozen=True)
class StageModel:
    stage: str
    model: MilpModel
    index: VarIndex


@dataclass(frozen=True)
class ProtectionPlan:
    """What the chosen survivability option demands of the design.

    ``protected_demands`` lists LSPs that need a protection LSP.
    ``excluded_routers`` bars each protection LSP from its working path's
    intermediate routers. ``lsp_pair_disjointness`` is the physical
    disjointness owed between a demand's working and protection LSP paths
    ("none", "node", or "node-link"). Carrier-level optical protection and
    wavelength sharing are flagged separately.
    """

    survivability: Survivability
    protected_demands: tuple[str, ...] = ()
    excluded_routers: tuple[tuple[str, tuple[int, ...]], ...] = ()
    lsp_pair_disjointness: str = "none"
    protect_work_carriers: bool = False
    protect_spare_carriers: bool = False
    brs_sharing: bool = False

    def excluded_for(self, demand_id: str) -> tuple[int, ...]:
        for did, routers in self.excluded_routers:
            if did == demand_id:
                return routers
        return ()

    def protected_carriers(
        self, work_slots: Sequence[Slot], spare_slots: Sequence[Slot]
    ) -> tuple[Slot, ...]:
        out: list[Slot] = []
        if self.protect_work_carriers:
            out.extend(work_slots)
        if self.protect_spare_carriers:
            out.extend(spare_slots)
        return tuple(sorted(out))


def compute_protection_plan(
    instance: Instance,
    cfg: DesignConfig,
    working_paths: Mapping[str, tuple[Slot, ...]],
) -> ProtectionPlan:
    """Derive protection requirements from the routed working layer."""
    opt = cfg.survivability
    if opt is Survivability.NONE:
        return ProtectionPlan(survivability=opt)

    def intermediates(path: tuple[Slot, ...]) -> tuple[int, ...]:
        return tuple(j for (_, j, _) in path[:-1])

    if opt is Survivability.SINGLE_LAYER:
        protected = tuple(d.id for d in instance.traffic.demands)
        return ProtectionPlan(
            survivability=opt,
            protected_demands=protected,
            excluded_routers=tuple(
                (did, intermediates(working_paths[did])) for did in protected
            ),
            lsp_pair_disjointness="node-link",
        )

    # multilayer options protect single-hop LSPs optically, so only
    # multi-hop LSPs carry an MPLS-level protection path
    protected = tuple(
        d.id for d in instance.traffic.demands if len(working_paths[d.id]) >= 2
    )
    excluded = tuple((did, intermediates(working_paths[did])) for did in protected)
    if opt is Survivability.MULTI_DOUBLE:
        return ProtectionPlan(
            survivability=opt,
            protected_demands=protected,
            excluded_routers=excluded,
            lsp_pair_disjointness="none",
            protect_work_carriers=True,
            protect_spare_carriers=True,
        )
    if opt is Survivability.MULTI_SPARE_UNPROTECTED:
        return ProtectionPlan(
            survivability=opt,
            protected_demands=protected,
            excluded_routers=excluded,
            lsp_pair_disjointness="node",
            protect_work_carriers=True,
        )
    if opt is Survivability.MULTI_INTERLAYER_BRS:
        return ProtectionPlan(
            survivability=opt,
            protected_demands=protected,
            excluded_routers=excluded,
            lsp_pair_disjointness="node",
            protect_work_carriers=True,
            brs_sharing=True,
        )
    raise ValueError(f"unhandled survivability {opt}")


# -- shared pieces -----------------------------------------------------------


def _slots(instance: Instance, cfg: DesignConfig) -> tuple[Slot, ...]:
    nodes = instance.topology.nodes
    q_max = cfg.effective_q_max(instance)
    return tuple(
        (i, j, q)
        for i in nodes
        for j in nodes
        if i != j
        for q in range(1, q_max + 1)
    )


def _transit_coeff(costs: CostModel, demand: LspDemand) -> Fraction:
    return costs.transit_cost_per_gbps * demand.bandwidth_gbps


def _slot_name(prefix: str, slot: Slot) -> str:
    i, j, q = slot
    return f"{prefix}_{i}_{j}_{q}"


def _route_name(prefix: str, slot: Slot, arc: Arc) -> str:
    i, j, q = slot
    return f"{prefix}_{i}_{j}_{q}__{arc[0]}_{arc[1]}"


def _demand_index(instance: Instance) -> dict[str, int]:
    return {d.id: k for k, d in enumerate(instance.traffic.demands)}


def _add_slot_binaries(
    m: MilpModel,
    index: VarIndex,
    family: str,
    slots: Sequence[Slot],
    cost: Fraction,
    occupied: frozenset[Slot] = frozenset(),
) -> None:
    """One priced binary per lightpath slot; ``occupied`` slots are barred."""
    for slot in slots:
        name = m.add_variable(_slot_name(family, slot), VarKind.BINARY)
        index.add(family, slot, name)
        m.add_objective_term(name, cost)
        if slot in occupied:
            m.add_constraint(
                _slot_name("slotexcl", slot), [(name, 1)], "<=", 0,
                tag="slot-exclusive",
            )


def _add_slot_limits(
    m: MilpModel,
    index: VarIndex,
    family: str,
    slots: Sequence[Slot],
    nodes: Iterable[int],
    t_limit: int,
    occupied: frozenset[Slot] = frozenset(),
) -> None:
    """Interface limit per router and slot symmetry per router pair.

    The fixed working layer's ``occupied`` slots enter both as constants.
    """
    for node in nodes:
        fixed = sum(1 for (i, j, _q) in occupied if node in (i, j))
        terms = [(index.get(family, s), 1) for s in slots if node in (s[0], s[1])]
        m.add_constraint(f"ifaces_n{node}", terms, "<=", t_limit - fixed,
                         tag="interface-limit")

    for (i, j, q) in slots:
        if q == 1:
            continue
        prev_fixed = 1 if (i, j, q - 1) in occupied else 0
        this_fixed = 1 if (i, j, q) in occupied else 0
        m.add_constraint(
            f"slotsym_{i}_{j}_{q}",
            [(index.get(family, (i, j, q)), 1),
             (index.get(family, (i, j, q - 1)), -1)],
            "<=",
            prev_fixed - this_fixed,
            tag="slot-symmetry",
        )


def _add_lsp(
    m: MilpModel,
    index: VarIndex,
    family: str,
    k: int,
    demand: LspDemand,
    slots: Sequence[Slot],
    nodes: Iterable[int],
    coeff: Fraction,
    tag: str,
    row_prefix: str,
    banned: frozenset[int] = frozenset(),
    simple: bool = False,
) -> None:
    """One LSP's slot binaries, priced ``coeff``, and its flow rows.

    Slots touching a ``banned`` router get no variable, and such a router no
    row. With ``simple`` no slot enters the demand's source or leaves its
    destination, as on every cycle-free path.
    """
    # each node's flow-row terms, in variable order: +1 out, -1 in
    by_node: dict[int, list[tuple[str, int]]] = {}
    for slot in slots:
        i, j, q = slot
        if i in banned or j in banned:
            continue
        if simple and (j == demand.source or i == demand.destination):
            continue
        name = m.add_variable(f"{family}_{k}_{i}_{j}_{q}", VarKind.BINARY)
        index.add(family, (k, *slot), name)
        m.add_objective_term(name, coeff)
        by_node.setdefault(i, []).append((name, 1))
        by_node.setdefault(j, []).append((name, -1))

    for n in nodes:
        if n in banned:
            continue
        terms = by_node.get(n, [])
        rhs = 1 if n == demand.source else -1 if n == demand.destination else 0
        if not terms and rhs == 0:
            continue
        m.add_constraint(f"{row_prefix}_k{k}_n{n}", terms, "=", rhs, tag=tag)


def _add_route(
    m: MilpModel,
    index: VarIndex,
    family: str,
    slot: Slot,
    arcs: Iterable[Arc],
    nodes: Iterable[int],
    tag: str,
    row_prefix: str,
    cost: Optional[Fraction] = None,
    slot_var: Optional[str] = None,
    avoid: frozenset[int] = frozenset(),
) -> None:
    """One lightpath's physical route: arc binaries and flow conservation.

    Arcs touching an ``avoid`` node are never created and those nodes get no
    row. Each arc used pays ``cost`` when one is given. With ``slot_var`` (a
    slot-existence binary) the route exists exactly when the slot does;
    otherwise the route is unconditional.
    """
    # each node's flow-row terms, in variable order: +1 out, -1 in
    by_node: dict[int, list[tuple[str, int]]] = {}
    for arc in arcs:
        if arc[0] in avoid or arc[1] in avoid:
            continue
        name = m.add_variable(_route_name(family, slot, arc), VarKind.BINARY)
        index.add(family, (slot, arc), name)
        if cost is not None:
            m.add_objective_term(name, cost)
        by_node.setdefault(arc[0], []).append((name, 1))
        by_node.setdefault(arc[1], []).append((name, -1))

    i, j, q = slot
    for n in nodes:
        if n in avoid:
            continue
        terms = by_node.get(n, [])
        sign = 1 if n == i else -1 if n == j else 0
        if slot_var is not None and sign != 0:
            terms.append((slot_var, -sign))
            rhs = 0
        else:
            rhs = sign
        if not terms and rhs == 0:
            continue
        m.add_constraint(
            f"{row_prefix}_{i}_{j}_{q}_n{n}", terms, "=", rhs, tag=tag
        )


def _route_occupancy_terms(
    index: VarIndex, family: str, slot: Slot, node: int
) -> tuple[Optional[int], list[tuple[str, int]]]:
    """How a carrier's route occupies a physical node.

    Returns (constant, variable terms): endpoints occupy unconditionally
    (constant 1), every other node is occupied exactly when an arc enters it.
    """
    i, j, _q = slot
    if node == i or node == j:
        return 1, []
    terms = [
        (name, 1) for (_s, arc), name in index.group(family, slot) if arc[1] == node
    ]
    return None, terms


def _link_terms(
    index: VarIndex,
    family: str,
    slots: Iterable[Slot],
    link: Link,
    coeff: int = 1,
) -> list[tuple[str, int]]:
    """A route family's use of one fiber link, summed over ``slots``."""
    a, b = link
    out = []
    for slot in slots:
        for arc in ((a, b), (b, a)):
            name = index.get(family, (slot, arc))
            if name:
                out.append((name, coeff))
    return out


def _links_of_route(route: tuple[int, ...]) -> tuple[Link, ...]:
    return tuple(normalized_link(a, b) for a, b in zip(route, route[1:]))


def _link_loads(
    links: Iterable[Link], routes: Iterable[tuple[int, ...]]
) -> dict[Link, int]:
    """How many of ``routes`` cross each link."""
    loads = {link: 0 for link in links}
    for route in routes:
        for link in _links_of_route(route):
            loads[link] += 1
    return loads


def _demands_transiting(
    plan: ProtectionPlan, working_paths: Mapping[str, tuple[Slot, ...]]
) -> dict[int, tuple[str, ...]]:
    """Router -> protected demands whose working LSP transits it."""
    out: dict[int, list[str]] = {}
    for did in plan.protected_demands:
        for (_i, j, _q) in working_paths[did][:-1]:
            out.setdefault(j, []).append(did)
    return {n: tuple(dids) for n, dids in out.items()}


def _add_carrier_protection(
    m: MilpModel,
    index: VarIndex,
    carriers: Sequence[Slot],
    carrier_routes: Mapping[Slot, tuple[int, ...]],
    arcs: Iterable[Arc],
    nodes: Iterable[int],
    cost: Optional[Fraction],
) -> None:
    """An optical protection route ``pr`` for each carrier.

    It keeps off the carrier's transit OXCs and never shares a fiber with
    the carrier it protects.
    """
    for slot in carriers:
        route = carrier_routes[slot]
        _add_route(
            m, index, "pr", slot, arcs, nodes, "protection-lightpath-flow",
            "plproute", cost=cost, avoid=frozenset(route[1:-1]),
        )
        for link in _links_of_route(route):
            terms = _link_terms(index, "pr", (slot,), link)
            if terms:
                m.add_constraint(
                    f"lpdisj_{slot[0]}_{slot[1]}_{slot[2]}_l{link[0]}_{link[1]}",
                    terms, "<=", 0, tag="lightpath-link-disjoint",
                )


def demand_physical_path_nodes(
    demand_path: Sequence[Slot],
    routes: Mapping[Slot, tuple[int, ...]],
) -> tuple[int, ...]:
    """Every physical node an LSP's path touches, in traversal order."""
    out: list[int] = []
    for slot in demand_path:
        for n in routes[slot]:
            if not out or out[-1] != n:
                out.append(n)
    return tuple(out)


def demand_physical_path_links(
    demand_path: Sequence[Slot],
    routes: Mapping[Slot, tuple[int, ...]],
) -> tuple[Link, ...]:
    out: list[Link] = []
    for slot in demand_path:
        route = routes[slot]
        out.extend(normalized_link(a, b) for a, b in zip(route, route[1:]))
    return tuple(out)


def brs_needed_spares(
    demands_transiting: Mapping[int, tuple[str, ...]],
    protection_paths: Mapping[str, tuple[Slot, ...]],
    spare_routes: Mapping[Slot, tuple[int, ...]],
) -> dict[tuple[int, Link], int]:
    """Per (router, link): spare carriers that router's failure activates.

    When router n dies, LSPs transiting it switch to their protection LSPs.
    The spare carriers those ride (the ones surviving n) hold wavelengths
    that the same failure's optical recovery cannot borrow. Each carrier
    counts once no matter how many switched LSPs it picks up.
    """
    out: dict[tuple[int, Link], set[Slot]] = {}
    for node, demand_ids in demands_transiting.items():
        for did in demand_ids:
            for slot in protection_paths.get(did, ()):
                route = spare_routes.get(slot)
                if not route or node in route:
                    continue
                for a, b in zip(route, route[1:]):
                    out.setdefault((node, normalized_link(a, b)), set()).add(slot)
    return {key: len(slots) for key, slots in out.items()}


# -- stage I: working MPLS ----------------------------------------------------


def build_working_mpls(
    instance: Instance, cfg: DesignConfig, costs: CostModel,
    simple_paths: bool = False,
) -> StageModel:
    """Logical topology plus working LSP routing, MPLS-layer cost only.

    With ``simple_paths`` no LSP gets a slot into its source or out of its
    destination. At a non-negative transit price this keeps the optimum
    value: a flow using such a slot is a path plus cycles, and dropping the
    cycles breaks no row and costs nothing.
    """
    m = MilpModel("working-mpls")
    index = VarIndex()
    slots = _slots(instance, cfg)
    nodes = instance.topology.nodes
    demands = instance.traffic.demands

    _add_slot_binaries(m, index, "wb", slots, costs.lightpath_cost)
    for k, d in enumerate(demands):
        coeff = _transit_coeff(costs, d)
        _add_lsp(m, index, "wd", k, d, slots, nodes, coeff,
                 "working-flow", "wflow", simple=simple_paths)
        # arrival at the destination is not transit
        m.add_objective_constant(-coeff)
    for slot in slots:
        terms = [
            (name, d.bandwidth_mbps)
            for k, d in enumerate(demands)
            if (name := index.get("wd", (k, *slot)))
        ]
        terms.append((index.get("wb", slot), -instance.lightpath_capacity_mbps))
        m.add_constraint(
            _slot_name("groom", slot), terms, "<=", 0, tag="grooming-capacity"
        )
    _add_slot_limits(m, index, "wb", slots, nodes,
                     cfg.effective_interfaces(instance))

    return StageModel(stage="working-mpls", model=m, index=index)


# -- stage II: protection MPLS ------------------------------------------------


def build_protection_mpls(
    instance: Instance,
    cfg: DesignConfig,
    costs: CostModel,
    plan: ProtectionPlan,
    work_slots: Sequence[Slot],
    working_paths: Mapping[str, tuple[Slot, ...]],
) -> StageModel:
    """Spare carriers plus protection LSP routing over them.

    The working layer is fixed. Protection LSPs may not reuse any lightpath
    slot of their own working path, keep off their working path's
    intermediate routers, and ride spare carriers only.
    """
    m = MilpModel("protection-mpls")
    index = VarIndex()
    if not plan.protected_demands:
        return StageModel(stage="protection-mpls", model=m, index=index)

    slots = _slots(instance, cfg)
    nodes = instance.topology.nodes
    demand_by_id = {d.id: d for d in instance.traffic.demands}
    kmap = _demand_index(instance)
    occupied = frozenset(work_slots)

    _add_slot_binaries(m, index, "pb", slots, costs.lightpath_cost, occupied)
    for did in plan.protected_demands:
        d = demand_by_id[did]
        k = kmap[did]
        coeff = _transit_coeff(costs, d)
        # barred routers are excluded from both row sides
        _add_lsp(m, index, "pd", k, d, slots, nodes, coeff,
                 "protection-flow", "pflow",
                 banned=frozenset(plan.excluded_for(did)))
        if not cfg.transit_double_count:
            m.add_objective_constant(-coeff)
        # a protected LSP's two paths never share a lightpath slot
        for slot in working_paths[did]:
            name = index.get("pd", (k, *slot))
            if name:
                m.add_constraint(
                    f"arcdisj_k{k}_{slot[0]}_{slot[1]}_{slot[2]}",
                    [(name, 1)], "<=", 0, tag="logical-arc-disjoint",
                )

    for slot in slots:
        terms = [
            (index.get("pd", (kmap[did], *slot)), demand_by_id[did].bandwidth_mbps)
            for did in plan.protected_demands
            if index.get("pd", (kmap[did], *slot))
        ]
        terms.append((index.get("pb", slot), -instance.lightpath_capacity_mbps))
        m.add_constraint(
            _slot_name("pgroom", slot), terms, "<=", 0,
            tag="spare-grooming-capacity",
        )
    _add_slot_limits(m, index, "pb", slots, nodes,
                     cfg.effective_interfaces(instance), occupied)

    return StageModel(stage="protection-mpls", model=m, index=index)


# -- stage III: lightpath routing (sequential) --------------------------------


def _carrier_pairs(
    plan: ProtectionPlan,
    working_paths: Mapping[str, tuple[Slot, ...]],
    protection_paths: Mapping[str, tuple[Slot, ...]],
) -> tuple[tuple[str, Slot, Slot], ...]:
    """(demand, working carrier, protection-side carrier) disjointness pairs."""
    pairs: list[tuple[str, Slot, Slot]] = []
    seen: set[tuple[str, Slot, Slot]] = set()
    for did in plan.protected_demands:
        for a in working_paths.get(did, ()):
            for b in protection_paths.get(did, ()):
                item = (did, a, b)
                if item not in seen:
                    seen.add(item)
                    pairs.append(item)
    return tuple(pairs)


def build_lightpath_routing_seq(
    instance: Instance,
    cfg: DesignConfig,
    costs: CostModel,
    work_slots: Sequence[Slot],
    spare_slots: Sequence[Slot],
    plan: ProtectionPlan,
    working_paths: Mapping[str, tuple[Slot, ...]],
    protection_paths: Mapping[str, tuple[Slot, ...]],
) -> StageModel:
    """Physical routes for every carrier, minimizing wavelength count.

    When the option requires a demand's working and protection LSPs to be
    physically disjoint, pairwise rows keep each working-path carrier and each
    protection-path carrier off shared transit nodes (and shared links for the
    single-layer option). Endpoint nodes of a carrier occupy unconditionally,
    so rows against them pin the partner's route away from those nodes.
    """
    m = MilpModel("lightpath-routing")
    index = VarIndex()
    arcs = instance.topology.directed_arcs()
    nodes = instance.topology.nodes
    w_limit = instance.topology.wavelengths_per_link

    for slot in sorted(work_slots):
        _add_route(m, index, "wr", slot, arcs, nodes, "lightpath-flow",
                   "lproute", cost=costs.wavelength_cost)
    for slot in sorted(spare_slots):
        _add_route(m, index, "sr", slot, arcs, nodes, "lightpath-flow",
                   "sproute", cost=costs.wavelength_cost)

    for link in instance.topology.links:
        terms = (_link_terms(index, "wr", work_slots, link)
                 + _link_terms(index, "sr", spare_slots, link))
        m.add_constraint(
            f"wavecap_{link[0]}_{link[1]}", terms, "<=", w_limit,
            tag="wavelength-capacity",
        )

    if plan.lsp_pair_disjointness != "none":
        demand_by_id = {d.id: d for d in instance.traffic.demands}
        kmap = _demand_index(instance)
        work_set = frozenset(work_slots)

        def family_of(slot: Slot) -> str:
            return "wr" if slot in work_set else "sr"

        for did, a, b in _carrier_pairs(plan, working_paths, protection_paths):
            d = demand_by_id[did]
            fa, fb = family_of(a), family_of(b)
            pair_id = (f"k{kmap[did]}_{a[0]}_{a[1]}_{a[2]}"
                       f"__{b[0]}_{b[1]}_{b[2]}")
            for v in nodes:
                if v in (d.source, d.destination):
                    continue
                const_a, terms_a = _route_occupancy_terms(index, fa, a, v)
                const_b, terms_b = _route_occupancy_terms(index, fb, b, v)
                rhs = 1 - (const_a or 0) - (const_b or 0)
                terms = terms_a + terms_b
                if not terms and rhs >= 0:
                    continue
                m.add_constraint(
                    f"pairnode_{pair_id}_n{v}", terms, "<=", rhs,
                    tag="pair-node-disjoint",
                )
            if plan.lsp_pair_disjointness == "node-link":
                for link in instance.topology.links:
                    terms = (_link_terms(index, fa, (a,), link)
                             + _link_terms(index, fb, (b,), link))
                    if len(terms) < 2:
                        continue
                    m.add_constraint(
                        f"pairlink_{pair_id}_l{link[0]}_{link[1]}",
                        terms, "<=", 1, tag="pair-link-disjoint",
                    )

    return StageModel(stage="lightpath-routing", model=m, index=index)


# -- stage IV: lightpath protection (sequential) -------------------------------


def build_lightpath_protection(
    instance: Instance,
    cfg: DesignConfig,
    costs: CostModel,
    plan: ProtectionPlan,
    carrier_routes: Mapping[Slot, tuple[int, ...]],
    work_slots: Sequence[Slot],
    spare_slots: Sequence[Slot],
    working_paths: Mapping[str, tuple[Slot, ...]],
    protection_paths: Mapping[str, tuple[Slot, ...]],
) -> StageModel:
    """Optical protection routes for carriers the option protects.

    Each protection lightpath keeps off its carrier's transit OXCs (routes
    through them are never created) and its carrier's links (explicit rows).
    Under shared restoration only the shortfall beyond the spare-carrier pool
    is paid, and a protection lightpath may not preempt wavelengths that the
    same failure's MPLS recovery needs.
    """
    m = MilpModel("lightpath-protection")
    index = VarIndex()
    protected = plan.protected_carriers(work_slots, spare_slots)
    if not protected:
        return StageModel(stage="lightpath-protection", model=m, index=index)

    w_limit = instance.topology.wavelengths_per_link
    links = instance.topology.links
    w1 = _link_loads(links, (carrier_routes[s] for s in work_slots))
    w2 = _link_loads(links, (carrier_routes[s] for s in spare_slots))

    _add_carrier_protection(
        m, index, protected, carrier_routes, instance.topology.directed_arcs(),
        instance.topology.nodes,
        None if plan.brs_sharing else costs.wavelength_cost,
    )
    if plan.brs_sharing:
        for link in links:
            name = m.add_variable(f"x_{link[0]}_{link[1]}", VarKind.INTEGER,
                                  0, max(0, w_limit - w1[link] - w2[link]))
            index.add("x", (link,), name)
            m.add_objective_term(name, costs.wavelength_cost)
        for link in links:
            terms = _link_terms(index, "pr", protected, link)
            if not terms:
                continue
            terms.append((index.get("x", (link,)), -1))
            m.add_constraint(
                f"brsextra_l{link[0]}_{link[1]}", terms, "<=", w2[link],
                tag="brs-extra",
            )
        # when router n dies, protection lightpaths of carriers transiting
        # OXC n fire together with n's MPLS recovery; both draw on the spare
        # pool plus the paid extra wavelengths
        needed_spares = brs_needed_spares(
            _demands_transiting(plan, working_paths),
            protection_paths,
            {s: carrier_routes[s] for s in spare_slots},
        )
        for (node, link), needed in sorted(needed_spares.items()):
            firing = [s for s in protected if node in carrier_routes[s][1:-1]]
            terms = _link_terms(index, "pr", firing, link)
            if not terms:
                continue
            terms.append((index.get("x", (link,)), -1))
            m.add_constraint(
                f"brscont_n{node}_l{link[0]}_{link[1]}",
                terms, "<=", w2[link] - needed, tag="brs-pool-exclusion",
            )
    else:
        for link in links:
            terms = _link_terms(index, "pr", protected, link)
            if not terms:
                continue
            m.add_constraint(
                f"wavecap_l{link[0]}_{link[1]}", terms, "<=",
                w_limit - w1[link] - w2[link], tag="wavelength-capacity",
            )

    return StageModel(stage="lightpath-protection", model=m, index=index)


# -- integrated stages ---------------------------------------------------------


def shortest_routes(topology: PhysicalTopology) -> dict[Arc, tuple[int, ...]]:
    """A fewest-hop route for every ordered node pair, the same on every call.

    One breadth-first search from each node, visiting neighbours in sorted
    order; a pair's route is the path to its target in that search tree.
    """
    routes: dict[Arc, tuple[int, ...]] = {}
    for source in topology.nodes:
        found = {source: (source,)}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nb in topology.neighbors(node):
                if nb not in found:
                    found[nb] = found[node] + (nb,)
                    queue.append(nb)
        routes.update(((source, t), r) for t, r in found.items() if t != source)
    return routes


def route_on_shortest_paths(
    topology: PhysicalTopology, slots: Iterable[Slot]
) -> Optional[dict[Slot, tuple[int, ...]]]:
    """Each slot on its ``shortest_routes`` route, or None if a link overflows.

    Routes that fit every link's ``wavelengths_per_link`` are a feasible
    routing for the full ``integrated-working`` model, at the wavelength cost
    its relaxation charged.
    """
    routes = shortest_routes(topology)
    carried = {slot: routes[slot[:2]] for slot in slots}
    loads = _link_loads(topology.links, carried.values())
    if any(load > topology.wavelengths_per_link for load in loads.values()):
        return None
    return carried


def build_integrated_working(
    instance: Instance, cfg: DesignConfig, costs: CostModel,
    relaxed: bool = False,
) -> StageModel:
    """Working MPLS layer and its lightpath routes in one model.

    With ``relaxed`` it builds the route-free relaxation: without the
    wavelength-capacity rows an open slot's cheapest route is a shortest
    path, so the route variables project out and each ``wb`` also pays
    ``wavelength_cost`` per hop of its ``shortest_routes`` route. The
    relaxation also omits every LSP slot into its demand's source or out of
    its destination (see ``build_working_mpls``), which leaves its optimum
    value unchanged; sequential stage I and the full model keep those slots.
    Its optimum is a lower bound on the full model's, and
    ``route_on_shortest_paths`` tells whether those routes attain it.
    """
    base = build_working_mpls(instance, cfg, costs, simple_paths=relaxed)
    m = base.model
    index = base.index
    m.name = "integrated-working"
    slots = _slots(instance, cfg)
    if relaxed:
        routes = shortest_routes(instance.topology)
        for slot in slots:
            hops = len(routes[slot[:2]]) - 1
            m.add_objective_term(index.get("wb", slot),
                                 costs.wavelength_cost * hops)
        return StageModel(stage="integrated-working", model=m, index=index)

    arcs = instance.topology.directed_arcs()
    nodes = instance.topology.nodes

    for slot in slots:
        _add_route(m, index, "wr", slot, arcs, nodes, "lightpath-flow",
                   "lproute", cost=costs.wavelength_cost,
                   slot_var=index.get("wb", slot))

    for link in instance.topology.links:
        m.add_constraint(
            f"wavecap_{link[0]}_{link[1]}", _link_terms(index, "wr", slots, link),
            "<=", instance.topology.wavelengths_per_link,
            tag="wavelength-capacity",
        )

    return StageModel(stage="integrated-working", model=m, index=index)


def build_integrated_protection(
    instance: Instance,
    cfg: DesignConfig,
    costs: CostModel,
    plan: ProtectionPlan,
    work_slots: Sequence[Slot],
    working_paths: Mapping[str, tuple[Slot, ...]],
    carrier_routes: Mapping[Slot, tuple[int, ...]],
) -> StageModel:
    """Protection MPLS layer and all protection-side optical routing jointly.

    Covers spare-carrier placement and routing, protection LSP routing,
    optical protection of fixed work carriers, optical protection of the
    spare carriers themselves (double protection), and shared-restoration
    wavelength accounting. The working layer is fixed throughout.
    """
    base = build_protection_mpls(
        instance, cfg, costs, plan, work_slots, working_paths
    )
    if not plan.protected_demands and not plan.protect_work_carriers:
        return StageModel(stage="integrated-protection", model=base.model,
                          index=base.index)

    # graft the MPLS-layer protection model, then add the optical layer
    m = base.model
    index = base.index
    m.name = "integrated-protection"
    slots = _slots(instance, cfg)
    arcs = instance.topology.directed_arcs()
    nodes = instance.topology.nodes
    links = instance.topology.links
    w_limit = instance.topology.wavelengths_per_link
    kmap = _demand_index(instance)
    demand_by_id = {d.id: d for d in instance.traffic.demands}
    w1 = _link_loads(links, (carrier_routes[s] for s in work_slots))

    spare_capable = [s for s in slots if index.get("pb", s) is not None]

    # spare carriers route iff they exist
    for slot in spare_capable:
        _add_route(m, index, "sr", slot, arcs, nodes, "lightpath-flow",
                   "sproute", cost=costs.wavelength_cost,
                   slot_var=index.get("pb", slot))

    # physical disjointness between each demand's working path and the spare
    # carriers its protection LSP rides, conditioned on the riding decision
    if plan.lsp_pair_disjointness != "none":
        want_links = plan.lsp_pair_disjointness == "node-link"
        for did in plan.protected_demands:
            d = demand_by_id[did]
            k = kmap[did]
            nodes_on_path = set(
                demand_physical_path_nodes(working_paths[did], carrier_routes)
            ) - {d.source, d.destination}
            links_on_path = set(
                demand_physical_path_links(working_paths[did], carrier_routes)
            )
            for slot in spare_capable:
                pd_name = index.get("pd", (k, *slot))
                if pd_name is None:
                    continue
                i, j, _q = slot
                if i in nodes_on_path or j in nodes_on_path:
                    m.add_constraint(
                        f"condend_k{k}_{i}_{j}_{slot[2]}",
                        [(pd_name, 1)], "<=", 0, tag="conditional-node-disjoint",
                    )
                    continue
                for v in sorted(nodes_on_path):
                    _c, terms = _route_occupancy_terms(index, "sr", slot, v)
                    if not terms:
                        continue
                    m.add_constraint(
                        f"condnode_k{k}_{i}_{j}_{slot[2]}_n{v}",
                        terms + [(pd_name, 1)], "<=", 1,
                        tag="conditional-node-disjoint",
                    )
                if want_links:
                    for link in sorted(links_on_path):
                        terms = _link_terms(index, "sr", (slot,), link)
                        if not terms:
                            continue
                        m.add_constraint(
                            f"condlink_k{k}_{i}_{j}_{slot[2]}_l{link[0]}_{link[1]}",
                            terms + [(pd_name, 1)], "<=", 1,
                            tag="conditional-link-disjoint",
                        )

    # optical protection for fixed work carriers
    protected_work = plan.protected_carriers(work_slots, ())
    _add_carrier_protection(
        m, index, protected_work, carrier_routes, arcs, nodes,
        None if plan.brs_sharing else costs.wavelength_cost,
    )

    # optical protection for spare carriers (double protection): exists iff
    # the spare does, and avoids the spare's own links and transit nodes
    if plan.protect_spare_carriers:
        for slot in spare_capable:
            _add_route(m, index, "pr2", slot, arcs, nodes,
                       "protection-lightpath-flow", "plproute2",
                       cost=costs.wavelength_cost, slot_var=index.get("pb", slot))
            for link in links:
                terms = (_link_terms(index, "pr2", (slot,), link)
                         + _link_terms(index, "sr", (slot,), link))
                m.add_constraint(
                    f"lpdisj2_{slot[0]}_{slot[1]}_{slot[2]}_l{link[0]}_{link[1]}",
                    terms, "<=", 1, tag="lightpath-link-disjoint",
                )
            for v in nodes:
                if v in (slot[0], slot[1]):
                    continue
                _ca, terms_a = _route_occupancy_terms(index, "pr2", slot, v)
                _cb, terms_b = _route_occupancy_terms(index, "sr", slot, v)
                if not terms_a or not terms_b:
                    continue
                m.add_constraint(
                    f"pairnode2_{slot[0]}_{slot[1]}_{slot[2]}_n{v}",
                    terms_a + terms_b, "<=", 1, tag="pair-node-disjoint",
                )

    # shared restoration: pay only wavelengths beyond the spare pool, and keep
    # a failure's optical recovery off the links its MPLS recovery rides
    if plan.brs_sharing:
        for link in links:
            name = m.add_variable(f"x_{link[0]}_{link[1]}", VarKind.INTEGER,
                                  0, max(0, w_limit - w1[link]))
            index.add("x", (link,), name)
            m.add_objective_term(name, costs.wavelength_cost)
        for link in links:
            terms = (_link_terms(index, "pr", protected_work, link)
                     + _link_terms(index, "sr", spare_capable, link, -1))
            terms.append((index.get("x", (link,)), -1))
            m.add_constraint(
                f"brsextra_l{link[0]}_{link[1]}", terms, "<=", 0, tag="brs-extra",
            )

        transiting = _demands_transiting(plan, working_paths)
        pool_nodes = sorted(
            n for n in transiting
            if any(n in carrier_routes[s][1:-1] for s in protected_work)
        )
        for n in pool_nodes:
            for link in links:
                yname = m.add_variable(f"brsy_{n}_{link[0]}_{link[1]}",
                                       VarKind.CONTINUOUS, 0, 1)
                index.add("brsy", (n, link), yname)
                for did in transiting[n]:
                    k = kmap[did]
                    for slot in spare_capable:
                        pd_name = index.get("pd", (k, *slot))
                        if pd_name is None:
                            continue
                        terms = _link_terms(index, "sr", (slot,), link)
                        if not terms:
                            continue
                        m.add_constraint(
                            f"brsy_{n}_l{link[0]}_{link[1]}_k{k}"
                            f"_{slot[0]}_{slot[1]}_{slot[2]}",
                            terms + [(pd_name, 1), (yname, -1)], "<=", 1,
                            tag="brs-pool-exclusion",
                        )
                for slot in protected_work:
                    if n not in carrier_routes[slot][1:-1]:
                        continue
                    terms = _link_terms(index, "pr", (slot,), link)
                    if not terms:
                        continue
                    m.add_constraint(
                        f"brsban_{slot[0]}_{slot[1]}_{slot[2]}"
                        f"_n{n}_l{link[0]}_{link[1]}",
                        terms + [(yname, 1)], "<=", 1, tag="brs-pool-exclusion",
                    )

    # wavelength capacity with the fixed working layer folded in
    for link in links:
        terms = _link_terms(index, "sr", spare_capable, link)
        if plan.brs_sharing:
            terms.append((index.get("x", (link,)), 1))
        else:
            terms += _link_terms(index, "pr", protected_work, link)
            if plan.protect_spare_carriers:
                terms += _link_terms(index, "pr2", spare_capable, link)
        if not terms:
            continue
        m.add_constraint(
            f"wavecap_{link[0]}_{link[1]}", terms, "<=", w_limit - w1[link],
            tag="wavelength-capacity",
        )

    return StageModel(stage="integrated-protection", model=m, index=index)
