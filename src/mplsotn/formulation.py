"""Stage models for the two-layer design problem.

Each builder emits one MILP over a documented variable family set:

==========  =================================================================
family      meaning
==========  =================================================================
``wb``      lightpath slot (i,j,q) holds a carrier for working LSPs; in the
            integrated relaxation, how many carriers router pair (i,j)
            holds, keyed by its slot (i,j,1)
``pb``      lightpath slot holds a carrier for protection LSPs
``wd``      demand k's working LSP crosses slot (i,j,q); in the integrated
            relaxation, router pair (i,j), keyed by its slot (i,j,1)
``pd``      demand k's protection LSP crosses slot (i,j,q)
``wr``      work carrier (i,j,q) routed over physical arc (m,n)
``sr``      spare carrier (i,j,q) routed over physical arc (m,n)
``pr``      optical protection lightpath for carrier (i,j,q) over arc (m,n)
``pr2``     under integrated ``double``, optical protection lightpath for
            spare carrier (i,j,q) over arc (m,n)
``x``       link's extra wavelengths beyond the spare pool (shared restoration)
``brsy``    link is used by a spare carrier whose protection LSP guards a
            demand transiting a given router (pool-exclusion helper)
==========  =================================================================

The sequential approach solves four of these in order (working MPLS,
protection MPLS, lightpath routing, lightpath protection); the integrated
approach merges each MPLS stage with its optical stage. One layer builder
writes the MPLS layer of stages I and II and of both integrated models, under
the ``WORKING`` or ``PROTECTION`` names, which travel with the model to its
decoder. Constraint rows are tagged with functional names (``working-flow``,
``grooming-capacity``, ...) for kept artifacts and tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
    route_links,
)

Slot = LightpathKey
Arc = tuple[int, int]


class VarIndex:
    """family -> index tuple -> variable name.

    Every flow family (``wd``, ``pd``, ``wr``, ``sr``, ``pr``, ``pr2``) is
    keyed ``(head, *arc)``: the demand index and slot (k, i, j, q) for an
    LSP, the slot and fiber arc (slot, m, n) for a route, so ``key[1]`` and
    ``key[2]`` are always the nodes the arc leaves and enters. Every entry is
    also filed under ``(family, key[0])`` in insertion order. A row or a
    decoder reads only its own group instead of scanning the family.
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


class LayerNames(NamedTuple):
    """An MPLS layer's slot, LSP and route families, row stems and tags."""

    slot: str
    path: str
    route: str
    flow_row: str
    flow_tag: str
    groom_row: str
    groom_tag: str
    route_row: str


WORKING = LayerNames("wb", "wd", "wr", "wflow", "working-flow", "groom",
                     "grooming-capacity", "lproute")
PROTECTION = LayerNames("pb", "pd", "sr", "pflow", "protection-flow", "pgroom",
                        "spare-grooming-capacity", "sproute")


@dataclass(frozen=True)
class StageModel:
    model: MilpModel
    index: VarIndex
    layer: Optional[LayerNames] = None

    @property
    def stage(self) -> str:
        return self.model.name


# the physical disjointness owed between a demand's working and protection
# LSP paths; options not listed owe none
_PAIR_DISJOINTNESS = {
    Survivability.SINGLE_LAYER: "node-link",
    Survivability.MULTI_SPARE_UNPROTECTED: "node",
    Survivability.MULTI_INTERLAYER_BRS: "node",
}


@dataclass(frozen=True)
class ProtectionPlan:
    """What the chosen survivability option demands of the design.

    ``protected_demands`` lists LSPs that need a protection LSP; each keeps
    off its working path's intermediate routers. Everything else follows
    from the option: ``lsp_pair_disjointness`` is the physical disjointness
    owed between a demand's working and protection LSP paths ("none",
    "node", or "node-link"), ``protect_work_carriers`` and
    ``protect_spare_carriers`` say which carriers get an optical protection
    lightpath, and ``brs_sharing`` that those lightpaths share the spare
    pool.
    """

    survivability: Survivability
    protected_demands: tuple[str, ...] = ()

    @property
    def lsp_pair_disjointness(self) -> str:
        return _PAIR_DISJOINTNESS.get(self.survivability, "none")

    @property
    def protect_work_carriers(self) -> bool:
        return self.survivability.multilayer

    @property
    def protect_spare_carriers(self) -> bool:
        return self.survivability is Survivability.MULTI_DOUBLE

    @property
    def brs_sharing(self) -> bool:
        return self.survivability is Survivability.MULTI_INTERLAYER_BRS

    def indexed_demands(self, instance: Instance) -> tuple[tuple[int, LspDemand], ...]:
        """(demand index, demand) for each protected demand, in plan order."""
        by_id = {d.id: (k, d) for k, d in enumerate(instance.traffic.demands)}
        return tuple(by_id[did] for did in self.protected_demands)

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
    demands = instance.traffic.demands
    if opt is Survivability.NONE:
        protected = ()
    elif opt is Survivability.SINGLE_LAYER:
        protected = tuple(d.id for d in demands)
    else:
        # multilayer options protect single-hop LSPs optically, so only
        # multi-hop LSPs carry an MPLS-level protection path
        protected = tuple(d.id for d in demands if len(working_paths[d.id]) >= 2)
    return ProtectionPlan(opt, protected)


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

    The fixed working layer's ``occupied`` slots, not in ``slots``, use up
    interfaces; the slot after one gets no symmetry row.
    """
    for node in nodes:
        fixed = sum(1 for (i, j, _q) in occupied if node in (i, j))
        terms = [(index.get(family, s), 1) for s in slots if node in (s[0], s[1])]
        m.add_constraint(f"ifaces_n{node}", terms, "<=", t_limit - fixed,
                         tag="interface-limit")

    for (i, j, q) in slots:
        prev = index.get(family, (i, j, q - 1))
        if prev is not None:
            m.add_constraint(f"slotsym_{i}_{j}_{q}",
                             [(index.get(family, (i, j, q)), 1), (prev, -1)],
                             "<=", 0, tag="slot-symmetry")


def _add_node_cut_sets(m: MilpModel, index: VarIndex, instance: Instance) -> None:
    """At least ``⌈Σ b / C⌉`` open ``wb`` lightpaths out of each router that
    sources demand, and as many into each router that sinks it."""
    capacity = instance.lightpath_capacity_mbps
    wb = index.items("wb")
    for node in instance.topology.nodes:
        for prefix, end in (("cutout", 0), ("cutin", 1)):
            mbps = sum(d.bandwidth_mbps for d in instance.traffic.demands
                       if (d.source, d.destination)[end] == node)
            if mbps:
                terms = [(name, 1) for s, name in wb if s[end] == node]
                m.add_constraint(f"{prefix}_n{node}", terms, ">=",
                                 -(-mbps // capacity), tag="node-cut-set")


def _add_flow(
    m: MilpModel, index: VarIndex, family: str, head: object,
    ends: tuple[int, int], arcs: Iterable[tuple], nodes: Iterable[int],
    tag: str, var_stem: str, row_stem: str, cost: Optional[Fraction] = None,
    exists: Optional[str] = None, avoid: frozenset[int] = frozenset(),
    simple: bool = False,
) -> None:
    """One unit flow from ``ends[0]`` to ``ends[1]``: arc binaries and flow rows.

    Each arc is a tuple whose first two entries are the nodes it leaves and
    enters: a lightpath slot (i, j, q) for an LSP, a fiber arc (m, n) for a
    lightpath route. Its binary is filed under ``(head, *arc)`` and named
    ``var_stem`` and the arc's entries joined by ``_``; each node's row is
    ``row_stem`` plus ``_n<node>``. Arcs touching an ``avoid`` node are never
    created and those nodes get no row. With ``simple`` no arc enters the
    source or leaves the sink, as on every cycle-free path. Each arc used pays
    ``cost`` when one is given. With ``exists`` (an existence binary) the flow
    runs exactly when that binary is 1; otherwise it is unconditional.
    """
    source, sink = ends
    # each node's flow-row terms, in variable order: +1 out, -1 in
    by_node: dict[int, list[tuple[str, int]]] = {}
    for arc in arcs:
        a, b = arc[0], arc[1]
        if a in avoid or b in avoid or (simple and (b == source or a == sink)):
            continue
        name = m.add_variable("_".join((var_stem, *map(str, arc))), VarKind.BINARY)
        index.add(family, (head, *arc), name)
        if cost is not None:
            m.add_objective_term(name, cost)
        by_node.setdefault(a, []).append((name, 1))
        by_node.setdefault(b, []).append((name, -1))

    for n in nodes:
        if n in avoid:
            continue
        terms = by_node.get(n, [])
        rhs = 1 if n == source else -1 if n == sink else 0
        if exists is not None and rhs:
            terms.append((exists, -rhs))
            rhs = 0
        if not terms and rhs == 0:
            continue
        m.add_constraint(f"{row_stem}_n{n}", terms, "=", rhs, tag=tag)


def _add_route(
    m: MilpModel, index: VarIndex, family: str, slot: Slot, arcs: Iterable[Arc],
    nodes: Iterable[int], tag: str, row_prefix: str, **flow,
) -> None:
    """One lightpath's physical route, a unit flow keyed ``(slot, m, n)``."""
    _add_flow(m, index, family, slot, slot[:2], arcs, nodes, tag,
              _slot_name(family, slot) + "_", _slot_name(row_prefix, slot), **flow)


def _route_occupancy_terms(
    index: VarIndex, family: str, slot: Slot, node: int
) -> list[tuple[str, int]]:
    """The arcs of a carrier's route that enter a physical node.

    A node other than the carrier's endpoints is occupied exactly when one
    of them is used; the endpoints occupy unconditionally.
    """
    return [(name, 1) for key, name in index.group(family, slot) if key[2] == node]


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
            name = index.get(family, (slot, *arc))
            if name:
                out.append((name, coeff))
    return out


def _link_loads(
    links: Iterable[Link], routes: Iterable[tuple[int, ...]]
) -> dict[Link, int]:
    """How many of ``routes`` cross each link."""
    loads = {link: 0 for link in links}
    for route in routes:
        for link in route_links(route):
            loads[link] += 1
    return loads


def _intermediates(path: Sequence[Slot]) -> tuple[int, ...]:
    """Routers where an LSP path leaves one slot and enters the next."""
    return tuple(j for (_i, j, _q) in path[:-1])


def _demands_transiting(
    plan: ProtectionPlan, working_paths: Mapping[str, tuple[Slot, ...]]
) -> dict[int, tuple[str, ...]]:
    """Router -> protected demands whose working LSP transits it."""
    out: dict[int, list[str]] = {}
    for did in plan.protected_demands:
        for j in _intermediates(working_paths[did]):
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
    the carrier it protects. It has no arc into the carrier's source or out
    of its destination, as on every cycle-free route, so no circulation
    through either end can ride along.
    """
    for slot in carriers:
        route = carrier_routes[slot]
        _add_route(
            m, index, "pr", slot, arcs, nodes, "protection-lightpath-flow",
            "plproute", cost=cost, avoid=frozenset(route[1:-1]), simple=True,
        )
        for link in route_links(route):
            terms = _link_terms(index, "pr", (slot,), link)
            if terms:
                m.add_constraint(
                    f"lpdisj_{slot[0]}_{slot[1]}_{slot[2]}_l{link[0]}_{link[1]}",
                    terms, "<=", 0, tag="lightpath-link-disjoint",
                )


def demand_physical_footprint(
    demand_path: Sequence[Slot],
    routes: Mapping[Slot, tuple[int, ...]],
) -> tuple[set[int], set[Link]]:
    """The physical nodes and links an LSP's path touches."""
    nodes: set[int] = set()
    links: set[Link] = set()
    for slot in demand_path:
        nodes.update(routes[slot])
        links.update(route_links(routes[slot]))
    return nodes, links


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
                for link in route_links(route):
                    out.setdefault((node, link), set()).add(slot)
    return {key: len(slots) for key, slots in out.items()}


# -- stages I and II: one MPLS layer ----------------------------------------


def _build_layer(
    name: str, instance: Instance, cfg: DesignConfig, costs: CostModel,
    riders: Sequence[tuple[int, LspDemand]],
    working_paths: Optional[Mapping[str, tuple[Slot, ...]]] = None,
    occupied: frozenset[Slot] = frozenset(), per_pair: bool = False,
    routed: bool = False,
) -> StageModel:
    """Priced lightpath slots, a priced unit flow per rider, grooming rows.

    Without ``working_paths`` this is the working layer (``WORKING``). With
    them it is the protection layer (``PROTECTION``), empty when it has no
    riders. The fixed working layer's ``occupied`` slots are not modelled,
    and each rider keeps off its working path's intermediate routers. Each
    rider's arrival at its destination, which is not transit, is taken off
    the objective, unless the layer is the protection layer and
    ``cfg.transit_double_count`` books those arrivals as transit. With
    ``routed`` each slot also gets a physical route that runs exactly when
    the slot is open.

    With ``per_pair`` the layer works over router pairs, each keyed by its
    q = 1 slot: the slot variable is an integer in [0, q_max] that counts
    the pair's open lightpaths (a binary when q_max is 1), each LSP gets one
    binary per pair, and each pair one grooming row, its riders' Mbps at
    most ``C`` times its count. The interface rows sum the counts, and no
    slot-symmetry rows are needed. A slot-level design with its open slots
    of each pair first (which the slot-symmetry rows ask for) maps to
    exactly one count per pair, at the same cost, so the optimum value is
    unchanged. No LSP gets a pair into its source or out of its destination
    either. At a non-negative transit price this keeps the optimum value
    too: a flow using such a pair is a path plus cycles, and dropping the
    cycles breaks no row and costs nothing.
    """
    names = WORKING if working_paths is None else PROTECTION
    m = MilpModel(name)
    index = VarIndex()
    if working_paths is not None and not riders:
        return StageModel(m, index, names)
    slots = tuple(s for s in _slots(instance, cfg)
                  if s not in occupied and (s[2] == 1 or not per_pair))
    nodes = instance.topology.nodes
    parallel = cfg.effective_q_max(instance) if per_pair else 1
    lightpath_cost = costs.lightpath_cost

    for slot in slots:
        var = m.add_variable(
            _slot_name(names.slot, slot),
            VarKind.BINARY if parallel == 1 else VarKind.INTEGER, 0, parallel)
        index.add(names.slot, slot, var)
        m.add_objective_term(var, lightpath_cost)
    for k, d in riders:
        coeff = _transit_coeff(costs, d)
        path = working_paths[d.id] if working_paths is not None else ()
        # barred routers are excluded from both row sides
        _add_flow(m, index, names.path, k, (d.source, d.destination), slots,
                  nodes, names.flow_tag, f"{names.path}_{k}",
                  f"{names.flow_row}_k{k}", cost=coeff,
                  avoid=frozenset(_intermediates(path)), simple=per_pair)
        if working_paths is None or not cfg.transit_double_count:
            m.add_objective_constant(-coeff)
    # per slot, the Mbps of the LSPs riding it fit in its open carriers
    for slot in slots:
        terms = [(var, d.bandwidth_mbps) for k, d in riders
                 if (var := index.get(names.path, (k, *slot)))]
        terms.append((index.get(names.slot, slot),
                      -instance.lightpath_capacity_mbps))
        m.add_constraint(_slot_name(names.groom_row, slot), terms, "<=", 0,
                         tag=names.groom_tag)
    _add_slot_limits(m, index, names.slot, slots, nodes,
                     cfg.effective_interfaces(instance), occupied)
    if routed:
        arcs = instance.topology.directed_arcs()
        wavelength_cost = costs.wavelength_cost
        for slot in slots:
            _add_route(m, index, names.route, slot, arcs, nodes,
                       "lightpath-flow", names.route_row, cost=wavelength_cost,
                       exists=index.get(names.slot, slot))
    return StageModel(m, index, names)


def build_working_mpls(
    instance: Instance, cfg: DesignConfig, costs: CostModel
) -> StageModel:
    """Logical topology plus working LSP routing, MPLS-layer cost only."""
    return _build_layer("working-mpls", instance, cfg, costs,
                        tuple(enumerate(instance.traffic.demands)))


def build_protection_mpls(
    instance: Instance,
    cfg: DesignConfig,
    costs: CostModel,
    plan: ProtectionPlan,
    work_slots: Sequence[Slot],
    working_paths: Mapping[str, tuple[Slot, ...]],
) -> StageModel:
    """Spare carriers plus protection LSP routing over them.

    The working layer is fixed, and the slots it holds are not modelled.
    So protection LSPs ride spare carriers only and never reuse a slot of
    their own working path; they also keep off its intermediate routers.
    """
    return _build_layer("protection-mpls", instance, cfg, costs,
                        plan.indexed_demands(instance), working_paths,
                        frozenset(work_slots))


# -- stage III: lightpath routing (sequential) --------------------------------


def build_lightpath_routing_seq(
    instance: Instance,
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
        work_set = frozenset(work_slots)

        def family_of(slot: Slot) -> str:
            return "wr" if slot in work_set else "sr"

        # each working carrier against each protection-side carrier
        pairs = ((k, d, a, b) for k, d in plan.indexed_demands(instance)
                 for a in working_paths.get(d.id, ())
                 for b in protection_paths.get(d.id, ()))
        for k, d, a, b in pairs:
            fa, fb = family_of(a), family_of(b)
            pair_id = (f"k{k}_{a[0]}_{a[1]}_{a[2]}"
                       f"__{b[0]}_{b[1]}_{b[2]}")
            for v in nodes:
                if v in (d.source, d.destination):
                    continue
                # a carrier occupies its own endpoints unconditionally
                rhs = 1 - (v in a[:2]) - (v in b[:2])
                terms = [t for f, s in ((fa, a), (fb, b)) if v not in s[:2]
                         for t in _route_occupancy_terms(index, f, s, v)]
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

    return StageModel(m, index)


# -- stage IV: lightpath protection (sequential) -------------------------------


def build_lightpath_protection(
    instance: Instance,
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
        return StageModel(m, index)

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

    return StageModel(m, index)


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

    With ``relaxed`` it builds a route-free relaxation over router pairs.
    Without the wavelength-capacity rows an open slot's cheapest route is a
    shortest path, so the route variables project out and each open
    lightpath also pays ``wavelength_cost`` per hop of its
    ``shortest_routes`` route. The parallel slots of a pair then differ in
    nothing but their index, so each pair gets one count of open
    lightpaths, ``wb_i_j_1`` in [0, q_max], each LSP one binary per pair
    (``wd_k_i_j_1``: LSP k crosses pair (i, j)), and each pair one grooming
    row: its riders' Mbps fit in ``C`` times its count (see
    ``_build_layer``, which also omits every pair into a demand's source or
    out of its destination without changing the optimum value).
    Every slot-level design maps to a pair-level one at no higher cost, so
    the relaxation's optimum is a lower bound on the full model's, at any
    gap. A pair-level solution only says how much each pair carries: a
    count of n opens slots (i, j, 1..n), and the solution certifies when
    each pair's riders pack into its open slots and
    ``route_on_shortest_paths`` finds the routes fit every link. The packed
    design is then a full design at the relaxation's cost, so it is optimal
    for the full model. With one slot per pair the relaxation is the
    slot-level one.

    The relaxation also carries the network-loading cut-set rows
    (Magnanti, Mirchandani & Vachani 1995), which likewise use one integer
    capacity count per edge: at least ``⌈Σ b / C⌉`` open lightpaths out of
    each router, summed over the demands it sources, and the same into each
    router over the demands it sinks. Every integer design meets them,
    since each Mbps leaving a router rides an open lightpath out of it and
    a lightpath carries at most ``C``. So the rows cut only fractional
    points: the optimum value stays the same, and a certified design is
    still optimal for the full model. Only the LP bound rises.
    """
    base = _build_layer("integrated-working", instance, cfg, costs,
                        tuple(enumerate(instance.traffic.demands)),
                        per_pair=relaxed, routed=not relaxed)
    m = base.model
    index = base.index
    if relaxed:
        routes = shortest_routes(instance.topology)
        wavelength_cost = costs.wavelength_cost
        for slot, name in index.items("wb"):
            hops = len(routes[slot[:2]]) - 1
            m.add_objective_term(name, wavelength_cost * hops)
        _add_node_cut_sets(m, index, instance)
        return base

    slots = [slot for slot, _name in index.items("wb")]
    for link in instance.topology.links:
        m.add_constraint(
            f"wavecap_{link[0]}_{link[1]}", _link_terms(index, "wr", slots, link),
            "<=", instance.topology.wavelengths_per_link,
            tag="wavelength-capacity",
        )

    return base


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
    # the routed protection layer, then the optical protection around it
    protected = plan.indexed_demands(instance)
    base = _build_layer(
        "integrated-protection", instance, cfg, costs, protected, working_paths,
        frozenset(work_slots), routed=True)
    m = base.model
    index = base.index
    if not protected and not plan.protect_work_carriers:
        return base

    arcs = instance.topology.directed_arcs()
    nodes = instance.topology.nodes
    links = instance.topology.links
    w_limit = instance.topology.wavelengths_per_link
    w1 = _link_loads(links, (carrier_routes[s] for s in work_slots))
    spare_capable = [slot for slot, _name in index.items("pb")]

    # physical disjointness between each demand's working path and the spare
    # carriers its protection LSP rides, conditioned on the riding decision
    if plan.lsp_pair_disjointness != "none":
        want_links = plan.lsp_pair_disjointness == "node-link"
        for k, d in protected:
            nodes_on_path, links_on_path = demand_physical_footprint(
                working_paths[d.id], carrier_routes)
            nodes_on_path -= {d.source, d.destination}
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
                    terms = _route_occupancy_terms(index, "sr", slot, v)
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
                       cost=costs.wavelength_cost, exists=index.get("pb", slot))
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
                terms_a = _route_occupancy_terms(index, "pr2", slot, v)
                terms_b = _route_occupancy_terms(index, "sr", slot, v)
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
            riders = [k for k, d in protected if d.id in transiting[n]]
            for link in links:
                yname = m.add_variable(f"brsy_{n}_{link[0]}_{link[1]}",
                                       VarKind.CONTINUOUS, 0, 1)
                index.add("brsy", (n, link), yname)
                for k in riders:
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

    return base
