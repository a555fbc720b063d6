"""Stage model structure: families, rows, tags, and small solved optima.

Solved values here are computed by hand on desk-size inputs and double-checked
against the brute-force reference in oracle.py where one applies.
"""

import math
from fractions import Fraction

import pytest

from mplsotn.formulation import (
    ProtectionPlan,
    brs_needed_spares,
    build_integrated_protection,
    build_integrated_working,
    build_lightpath_protection,
    build_lightpath_routing_seq,
    build_protection_mpls,
    build_working_mpls,
    compute_protection_plan,
    demand_physical_path_links,
    demand_physical_path_nodes,
    route_on_shortest_paths,
    shortest_routes,
)
from mplsotn.instances import four_node_ring_chord, generate_instance
from mplsotn.model import (
    DesignConfig,
    Instance,
    LspDemand,
    PhysicalTopology,
    Survivability,
    TrafficMatrix,
)
from mplsotn.pipeline import default_cost_model
from mplsotn.solvers import solve

from support import desk, mesh_family


def cfg_for(option) -> DesignConfig:
    return DesignConfig(survivability=option)


def solved(sm) -> Fraction:
    sol = solve(sm.model)
    assert sol.status.has_solution, sol.message
    return sm.model.objective_value(sol.values)


def protection_routers(instance, cfg, plan, working_paths):
    """Routers some protection LSP variable of stage II may touch."""
    work = sorted({slot for path in working_paths.values() for slot in path})
    sm = build_protection_mpls(instance, cfg, default_cost_model(instance), plan,
                               work, working_paths)
    return {n for (_k, i, j, _q), _name in sm.index.items("pd") for n in (i, j)}


def test_protection_plan_single_layer_covers_everything(ring4):
    wp = {"d1": ((1, 3, 1),)}
    cfg = cfg_for(Survivability.SINGLE_LAYER)
    plan = compute_protection_plan(ring4, cfg, wp)
    assert plan.protected_demands == ("d1",)
    # a single-hop working path transits no router, so none is barred
    assert protection_routers(ring4, cfg, plan, wp) == {1, 2, 3, 4}
    assert plan.lsp_pair_disjointness == "node-link"
    assert not plan.protect_work_carriers and not plan.protect_spare_carriers
    assert not plan.brs_sharing


def test_protection_plan_multilayer_rules(ring4):
    # a single-hop LSP is recovered optically, a multi-hop one needs MPLS
    wp = {"d1": ((1, 2, 1), (2, 3, 1))}
    for option, pair, spare_side, sharing in (
        (Survivability.MULTI_DOUBLE, "none", True, False),
        (Survivability.MULTI_SPARE_UNPROTECTED, "node", False, False),
        (Survivability.MULTI_INTERLAYER_BRS, "node", False, True),
    ):
        plan = compute_protection_plan(ring4, cfg_for(option), wp)
        assert plan.protected_demands == ("d1",)
        # the protection LSP keeps off the working path's transit router
        assert protection_routers(ring4, cfg_for(option), plan, wp) == {1, 3, 4}
        assert plan.lsp_pair_disjointness == pair
        assert plan.protect_work_carriers
        assert plan.protect_spare_carriers is spare_side
        assert plan.brs_sharing is sharing

    direct = compute_protection_plan(
        ring4, cfg_for(Survivability.MULTI_DOUBLE), {"d1": ((1, 3, 1),)})
    assert direct.protected_demands == ()

    none_plan = compute_protection_plan(ring4, cfg_for(Survivability.NONE), wp)
    assert none_plan.protected_demands == ()
    assert none_plan.lsp_pair_disjointness == "none"


def test_plan_protected_carriers_helper():
    plan = compute_protection_plan(
        four_node_ring_chord(), cfg_for(Survivability.MULTI_DOUBLE),
        {"d1": ((1, 2, 1), (2, 3, 1))})
    assert plan.protected_carriers([(1, 2, 1)], [(1, 3, 2)]) == \
        ((1, 2, 1), (1, 3, 2))
    unprot = compute_protection_plan(
        four_node_ring_chord(), cfg_for(Survivability.MULTI_SPARE_UNPROTECTED),
        {"d1": ((1, 2, 1), (2, 3, 1))})
    assert unprot.protected_carriers([(1, 2, 1)], [(1, 3, 2)]) == ((1, 2, 1),)


def test_working_stage_structure(ring4):
    sm = build_working_mpls(ring4, DesignConfig(), default_cost_model(ring4))
    assert sm.stage == "working-mpls"
    # 12 ordered router pairs, two parallel slots each
    assert len(sm.index.items("wb")) == 24
    assert len(sm.index.items("wd")) == 24  # one demand over every logical arc
    assert sorted(sm.model.tags()) == [
        "grooming-capacity", "interface-limit", "slot-symmetry", "working-flow"]
    row_tags = [c.tag for c in sm.model.constraints]
    assert row_tags.count("interface-limit") == 4  # one per router
    assert row_tags.count("slot-symmetry") == 12


def test_working_stage_optimum_ring4(ring4):
    sm = build_working_mpls(ring4, DesignConfig(), default_cost_model(ring4))
    assert solved(sm) == 17  # one full lightpath, no transit


def test_working_stage_grooms_when_bandwidth_allows():
    # three 4 Gbps demands on a triangle: two lightpaths plus 4 Gbps of
    # transit at node 2 beat three dedicated lightpaths (37.2 < 51)
    inst = Instance(
        name="triangle",
        topology=PhysicalTopology(nodes=(1, 2, 3), links=((1, 2), (2, 3), (1, 3))),
        traffic=TrafficMatrix(demands=(
            LspDemand(id="d1", source=1, destination=2, bandwidth_mbps=4000),
            LspDemand(id="d2", source=2, destination=3, bandwidth_mbps=4000),
            LspDemand(id="d3", source=1, destination=3, bandwidth_mbps=4000),
        )),
    )
    sm = build_working_mpls(inst, DesignConfig(), default_cost_model(inst))
    assert solved(sm) == Fraction(186, 5)


def test_protection_stage_structure_and_optimum(ring4):
    cfg = cfg_for(Survivability.SINGLE_LAYER)
    wp = {"d1": ((1, 3, 1),)}
    plan = compute_protection_plan(ring4, cfg, wp)
    sm = build_protection_mpls(ring4, cfg, default_cost_model(ring4), plan,
                               [(1, 3, 1)], wp)
    assert sm.stage == "protection-mpls"
    tags = set(sm.model.tags())
    assert "protection-flow" in tags
    assert "slot-exclusive" in tags
    assert "logical-arc-disjoint" in tags
    assert "spare-grooming-capacity" in tags
    # disjointness between the pair's physical routes belongs to the next stage
    assert "pair-node-disjoint" not in tags and "pair-link-disjoint" not in tags
    # occupied slot is barred, so the spare lands on (1, 3, 2)
    assert solved(sm) == 17


def test_protection_stage_empty_when_nothing_to_protect(ring4):
    cfg = cfg_for(Survivability.MULTI_DOUBLE)
    wp = {"d1": ((1, 3, 1),)}
    plan = compute_protection_plan(ring4, cfg, wp)
    sm = build_protection_mpls(ring4, cfg, default_cost_model(ring4), plan,
                               [(1, 3, 1)], wp)
    assert sm.model.variables == ()
    sol = solve(sm.model)
    assert sol.solver_name == "trivial" and sol.objective == 0.0


def test_routing_stage_pair_rows_follow_option(ring4):
    cm = default_cost_model(ring4)
    wp = {"d1": ((1, 3, 1),)}
    pp = {"d1": ((1, 3, 2),)}

    cfg = cfg_for(Survivability.NONE)
    plan = compute_protection_plan(ring4, cfg, wp)
    sm = build_lightpath_routing_seq(ring4, cm, [(1, 3, 1)], [], plan, wp, {})
    assert sorted(sm.model.tags()) == ["lightpath-flow", "wavelength-capacity"]
    assert solved(sm) == 6  # route 1-2-3 or 1-4-3, two wavelengths

    cfg = cfg_for(Survivability.SINGLE_LAYER)
    plan = compute_protection_plan(ring4, cfg, wp)
    sm = build_lightpath_routing_seq(ring4, cm, [(1, 3, 1)], [(1, 3, 2)],
                                     plan, wp, pp)
    tags = set(sm.model.tags())
    assert "pair-node-disjoint" in tags and "pair-link-disjoint" in tags
    # the pair must split the ring: 1-2-3 against 1-4-3
    assert solved(sm) == 12

    # multilayer options only owe node disjointness, and only for multi-hop pairs
    wp2 = {"d1": ((1, 2, 1), (2, 3, 1))}
    pp2 = {"d1": ((1, 3, 1),)}
    cfg = cfg_for(Survivability.MULTI_SPARE_UNPROTECTED)
    plan = compute_protection_plan(ring4, cfg, wp2)
    sm = build_lightpath_routing_seq(ring4, cm, [(1, 2, 1), (2, 3, 1)],
                                     [(1, 3, 1)], plan, wp2, pp2)
    tags = set(sm.model.tags())
    assert "pair-node-disjoint" in tags
    assert "pair-link-disjoint" not in tags

    cfg = cfg_for(Survivability.MULTI_DOUBLE)
    plan = compute_protection_plan(ring4, cfg, wp2)
    sm = build_lightpath_routing_seq(ring4, cm, [(1, 2, 1), (2, 3, 1)],
                                     [(1, 3, 1)], plan, wp2, pp2)
    assert "pair-node-disjoint" not in sm.model.tags()


CRAFTED_WORK = [(1, 2, 1), (2, 3, 1), (1, 3, 1)]
CRAFTED_SPARE = [(1, 3, 2)]
CRAFTED_ROUTES = {
    (1, 2, 1): (1, 2),
    (2, 3, 1): (2, 3),
    (1, 3, 1): (1, 2, 3),   # physically transits OXC 2
    (1, 3, 2): (1, 3),      # spare rides the chord
}
CRAFTED_WP = {"d1": ((1, 2, 1), (2, 3, 1)), "d2": ((1, 3, 1),)}
CRAFTED_PP = {"d1": ((1, 3, 2),)}


def crafted_protection_model(option):
    inst = four_node_ring_chord()
    cfg = cfg_for(option)
    plan = compute_protection_plan(inst, cfg, CRAFTED_WP)
    return build_lightpath_protection(
        inst, default_cost_model(inst), plan, CRAFTED_ROUTES,
        CRAFTED_WORK, CRAFTED_SPARE, CRAFTED_WP, CRAFTED_PP)


def crafted_protected_carriers(option, sm):
    """The carriers the plan protects, each of which the builder routed."""
    plan = compute_protection_plan(four_node_ring_chord(), cfg_for(option),
                                   CRAFTED_WP)
    carriers = plan.protected_carriers(CRAFTED_WORK, CRAFTED_SPARE)
    assert {slot for (slot, _arc), _name in sm.index.items("pr")} == set(carriers)
    return carriers


def test_lightpath_protection_dedicated_options():
    # every protection lightpath pays its own wavelengths: work carriers
    # cost 3 + 6 + 6, the spare carrier another 6 when the option covers it
    option = Survivability.MULTI_SPARE_UNPROTECTED
    sm = crafted_protection_model(option)
    assert crafted_protected_carriers(option, sm) == tuple(sorted(CRAFTED_WORK))
    tags = set(sm.model.tags())
    assert "wavelength-capacity" in tags
    assert "brs-extra" not in tags and "brs-pool-exclusion" not in tags
    assert solved(sm) == 15

    option = Survivability.MULTI_DOUBLE
    sm = crafted_protection_model(option)
    assert crafted_protected_carriers(option, sm) == \
        tuple(sorted(CRAFTED_WORK + CRAFTED_SPARE))
    assert solved(sm) == 21


def test_lightpath_protection_shared_restoration():
    sm = crafted_protection_model(Survivability.MULTI_INTERLAYER_BRS)
    tags = set(sm.model.tags())
    assert "brs-extra" in tags and "brs-pool-exclusion" in tags
    # capacity is enforced through the extra variables' upper bounds
    assert "wavelength-capacity" not in tags

    # router 2's failure activates d1's protection LSP on the spare carrier
    # over the chord; the (1,3) carrier's protection lightpath cannot take
    # the pooled wavelength there for the same event
    (row,) = [c for c in sm.model.constraints if c.tag == "brs-pool-exclusion"]
    assert row.name == "brscont_n2_l1_3"
    assert row.rhs == 0  # one pooled wavelength, one needed by MPLS recovery

    # chord carries three protection lightpaths against a pool of one, so
    # two extras there plus one on each of (1,2) and (2,3): four wavelengths
    assert solved(sm) == 12


def test_brs_needed_spares_counting():
    needed = brs_needed_spares(
        {2: ("d1", "d2"), 4: ("d1",)},
        {"d1": ((1, 3, 2),), "d2": ((1, 3, 2), (3, 5, 1))},
        {(1, 3, 2): (1, 3), (3, 5, 1): (3, 4, 5)},
    )
    # the spare on (1,3) counts once per router even though two demands use it;
    # the (3,5) spare transits router 4, so node 4's failure kills it
    assert needed == {
        (2, (1, 3)): 1,
        (2, (3, 4)): 1,
        (2, (4, 5)): 1,
        (4, (1, 3)): 1,
    }
    assert brs_needed_spares({}, {}, {}) == {}


def test_integrated_working_joins_both_layers(ring4):
    sm = build_integrated_working(ring4, DesignConfig(), default_cost_model(ring4))
    assert sm.stage == "integrated-working"
    tags = set(sm.model.tags())
    assert {"working-flow", "grooming-capacity", "lightpath-flow",
            "wavelength-capacity"} <= tags
    assert solved(sm) == 23  # lightpath 17 plus two wavelengths


def test_integrated_protection_with_nothing_to_protect_is_named_for_its_stage(ring4):
    # single-layer protection over no demands leaves the MPLS model bare
    cfg = cfg_for(Survivability.SINGLE_LAYER)
    sm = build_integrated_protection(ring4, cfg, default_cost_model(ring4),
                                     ProtectionPlan(Survivability.SINGLE_LAYER),
                                     [], {}, {})
    assert sm.model.variables == ()
    assert sm.stage == sm.model.name == "integrated-protection"


@pytest.mark.parametrize("name,optimum", [
    ("ring4", 23),
    ("ring4-chord", 20),
    ("ring5-chord", 46),
    ("fam-5-s0", Fraction(971, 5)),
])
def test_route_free_relaxation_attains_the_full_optimum(name, optimum):
    inst = mesh_family(5, 0) if name == "fam-5-s0" else desk(name)
    costs = default_cost_model(inst)
    full = build_integrated_working(inst, DesignConfig(), costs)
    relaxed = build_integrated_working(inst, DesignConfig(), costs, relaxed=True)
    assert relaxed.stage == full.stage == relaxed.model.name == "integrated-working"
    assert len(relaxed.index.items("wr")) == 0
    assert "wavelength-capacity" not in set(relaxed.model.tags())
    assert solved(relaxed) == solved(full) == optimum


@pytest.mark.parametrize("name", ["ring4", "ring5-chord", "fam-5-s0"])
def test_relaxation_omits_lsp_slots_no_simple_path_uses(name):
    inst = mesh_family(5, 0) if name == "fam-5-s0" else desk(name)
    costs = default_cost_model(inst)
    demands = inst.traffic.demands
    sequential = build_working_mpls(inst, DesignConfig(), costs)
    relaxed = build_integrated_working(inst, DesignConfig(), costs, relaxed=True)
    slots = [slot for slot, _name in sequential.index.items("wb")]
    assert len(sequential.index.items("wd")) == len(demands) * len(slots)
    kept = [(k, *slot) for k, d in enumerate(demands) for slot in slots
            if slot[1] != d.source and slot[0] != d.destination]
    assert [key for key, _name in relaxed.index.items("wd")] == kept
    assert len(kept) < len(demands) * len(slots)


@pytest.mark.parametrize("name", ["ring4", "ring5-chord", "fam-5-s0"])
def test_relaxation_has_a_node_cut_set_row_per_router_and_direction_with_demand(name):
    inst = mesh_family(5, 0) if name == "fam-5-s0" else desk(name)
    costs = default_cost_model(inst)
    relaxed = build_integrated_working(inst, DesignConfig(), costs, relaxed=True)
    wb = dict(relaxed.index.items("wb"))
    expected = set()
    for end in (0, 1):  # 0: slots out of the router, 1: slots into it
        mbps = {}
        for d in inst.traffic.demands:
            node = (d.source, d.destination)[end]
            mbps[node] = mbps.get(node, 0) + d.bandwidth_mbps
        for node, total in mbps.items():
            terms = frozenset((var, 1) for s, var in wb.items() if s[end] == node)
            need = math.ceil(Fraction(total, inst.lightpath_capacity_mbps))
            expected.add((terms, ">=", need))
    rows = [c for c in relaxed.model.constraints if c.tag == "node-cut-set"]
    assert len(rows) == len(expected)
    assert {(frozenset(c.terms), c.sense, c.rhs) for c in rows} == expected
    if name == "fam-5-s0":  # the three 9 Gbps copies need more than one slot
        assert max(c.rhs for c in rows) > 1
    full = build_integrated_working(inst, DesignConfig(), costs)
    sequential = build_working_mpls(inst, DesignConfig(), costs)
    assert "node-cut-set" not in set(full.model.tags()) | set(sequential.model.tags())


def _hop_distances(topology) -> dict:
    """All-pairs hop counts by Floyd-Warshall, independent of any search."""
    nodes = topology.nodes
    dist = {(a, b): 0 if a == b else 1 if topology.has_link(a, b) else len(nodes)
            for a in nodes for b in nodes}
    for k in nodes:
        for a in nodes:
            for b in nodes:
                dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
    return dist


def test_shortest_routes_are_shortest_and_deterministic():
    inst = generate_instance("mesh", 8, seed=3, demand_count=4)
    topo = inst.topology
    routes = shortest_routes(topo)
    hops = _hop_distances(topo)
    assert len(routes) == len(topo.nodes) * (len(topo.nodes) - 1)
    for (i, j), route in routes.items():
        assert route[0] == i and route[-1] == j
        assert len(set(route)) == len(route)
        assert all(topo.has_link(a, b) for a, b in zip(route, route[1:]))
        assert len(route) - 1 == hops[i, j]
    # the same routes on every call, whatever order the links are listed in
    shuffled = PhysicalTopology(nodes=topo.nodes[::-1], links=topo.links[::-1],
                                wavelengths_per_link=topo.wavelengths_per_link)
    assert shortest_routes(topo) == routes == shortest_routes(shuffled)


def test_route_on_shortest_paths_checks_every_link(ring4):
    slots = [(1, 3, 1), (1, 3, 2)]
    routes = route_on_shortest_paths(ring4.topology, slots)
    assert routes == {s: shortest_routes(ring4.topology)[(1, 3)] for s in slots}
    tight = PhysicalTopology(nodes=ring4.topology.nodes,
                             links=ring4.topology.links, wavelengths_per_link=1)
    assert route_on_shortest_paths(tight, slots) is None
    assert route_on_shortest_paths(tight, slots[:1]) == {
        slots[0]: routes[slots[0]]}


def test_physical_path_helpers():
    routes = {(1, 2, 1): (1, 4, 2), (2, 3, 1): (2, 3)}
    path = ((1, 2, 1), (2, 3, 1))
    assert demand_physical_path_nodes(path, routes) == (1, 4, 2, 3)
    assert demand_physical_path_links(path, routes) == ((1, 4), (2, 4), (2, 3))
