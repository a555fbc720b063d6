"""Independent accounting, design verification, and failure drills.

Everything here checks designs produced by the pipeline (or crafted by hand)
against rules written without reference to the optimization models.
"""

from dataclasses import replace
from fractions import Fraction

from mplsotn.evaluate import (
    _brs_peak_draw,
    compute_metrics,
    cost_breakdown,
    drill_event,
    failure_drill,
    failure_events,
    logical_intermediates,
    logical_nodes,
    reuse_factor,
    transit_traffic,
    verify_design,
    wavelength_usage,
)
from mplsotn.model import (
    FailureEvent,
    FailureKind,
    Instance,
    Lightpath,
    LightpathRole,
    LinkWavelengths,
    LspDemand,
    LspRoute,
    PhysicalTopology,
    Survivability,
    TrafficMatrix,
)
from mplsotn.pipeline import default_cost_model
from support import cached_design, exact_config


def codes(violations):
    return {v.code for v in violations}


def design_for(instance, option):
    return cached_design(instance, exact_config(option))


def test_logical_path_helpers():
    path = ((1, 2, 1), (2, 5, 1), (5, 3, 2))
    assert logical_intermediates(path) == (2, 5)
    assert logical_nodes(path) == (1, 2, 5, 3)
    assert logical_intermediates(((1, 3, 1),)) == ()
    assert logical_nodes(()) == ()


def test_transit_traffic_counts_intermediate_routers():
    inst = Instance(
        name="t",
        topology=PhysicalTopology(nodes=(1, 2, 3, 4),
                                  links=((1, 2), (2, 3), (3, 4), (1, 4))),
        traffic=TrafficMatrix(demands=(
            LspDemand(id="a", source=1, destination=3, bandwidth_mbps=4000),
            LspDemand(id="b", source=2, destination=4, bandwidth_mbps=2500),
        )),
    )
    routes = [
        LspRoute("a", working=((1, 2, 1), (2, 3, 1)),
                 protection=((1, 4, 1), (4, 3, 1))),
        LspRoute("b", working=((2, 4, 1),)),
    ]
    per_node, total = transit_traffic(inst, routes)
    assert per_node == {1: 0, 2: 4000, 3: 0, 4: 4000}
    assert total == 8000

    # double counting books each protection path's arrival as transit too
    per_node, total = transit_traffic(inst, routes, double_count=True)
    assert per_node[3] == 4000
    assert total == 12000


def test_cost_breakdown_is_exact():
    cb = cost_breakdown(2500, 2, 3, default_cost_model(
        Instance(name="x",
                 topology=PhysicalTopology(nodes=(1, 2), links=((1, 2),)),
                 traffic=TrafficMatrix(()))))
    assert cb.transit == Fraction(2)
    assert cb.mpls == Fraction(34)
    assert cb.optical == Fraction(9)
    assert cb.total == Fraction(45)


def test_reuse_factor_edges():
    def lw(spare, extra):
        return LinkWavelengths((1, 2), 0, spare, 0, extra)

    assert reuse_factor([lw(0, 0)], brs=False) is None
    assert reuse_factor([lw(5, 0)], brs=True) == Fraction(1)
    assert reuse_factor([lw(0, 2)], brs=True) == Fraction(0)
    assert reuse_factor([lw(25, 4)], brs=True) == Fraction(21, 25)
    assert reuse_factor([lw(1, 3)], brs=True) == Fraction(0)  # clamped


def test_brs_peak_draw_joint_worst_case():
    work = Lightpath(1, 3, 1, LightpathRole.WORK_CARRIER, route=(1, 2, 3))
    spare = Lightpath(1, 3, 2, LightpathRole.SPARE_CARRIER, route=(1, 3))
    plp = Lightpath(1, 3, 1, LightpathRole.OPTICAL_PROTECTION, route=(1, 3))
    routes = [
        LspRoute("d1", working=((1, 2, 1), (2, 3, 1)), protection=((1, 3, 2),)),
    ]
    # router 2 fires the (1,3,1) protection lightpath and d1's MPLS recovery
    # rides the spare carrier: both want the chord at once
    peak = _brs_peak_draw([work, spare, plp], routes)
    assert peak[(1, 3)] == 2

    # a protection lightpath through the failing router cannot fire
    plp_through_2 = Lightpath(1, 3, 1, LightpathRole.OPTICAL_PROTECTION,
                              route=(1, 2, 3))
    peak = _brs_peak_draw([work, spare, plp_through_2], routes)
    assert peak.get((1, 3), 0) == 1  # only the spare draw remains

    # orphan protection entries and spare carriers do not crash the count
    assert _brs_peak_draw([plp], []) == {}


def test_compute_metrics_brs_vs_dedicated():
    inst = Instance(
        name="m",
        topology=PhysicalTopology(nodes=(1, 2, 3, 4),
                                  links=((1, 2), (2, 3), (3, 4), (1, 4), (1, 3))),
        traffic=TrafficMatrix(demands=(
            LspDemand(id="d1", source=1, destination=3, bandwidth_mbps=10000),
        )),
    )
    cm = default_cost_model(inst)
    lightpaths = [
        Lightpath(1, 3, 1, LightpathRole.WORK_CARRIER, route=(1, 2, 3)),
        Lightpath(1, 3, 2, LightpathRole.SPARE_CARRIER, route=(1, 3)),
        Lightpath(1, 3, 1, LightpathRole.OPTICAL_PROTECTION, route=(1, 4, 3)),
    ]
    routes = [LspRoute("d1", working=((1, 3, 1),), protection=((1, 3, 2),))]

    metrics, cost = compute_metrics(inst, lightpaths, routes, cm,
                                    Survivability.MULTI_INTERLAYER_BRS)
    assert metrics.lightpath_count == 2
    assert metrics.spare_lightpaths == 1 and metrics.protection_lightpaths == 1
    assert metrics.extra_wavelengths == 2      # (1,4) and (3,4) have no pool
    assert metrics.spare_wavelengths == 1
    assert metrics.wavelength_total == 5       # 2 work + 1 spare + 2 extra
    assert metrics.reuse_factor == Fraction(0)
    assert cost.total == 34 + 15

    metrics, cost = compute_metrics(inst, lightpaths, routes, cm,
                                    Survivability.MULTI_DOUBLE)
    assert metrics.extra_wavelengths == 0
    assert metrics.wavelength_total == 5       # protection pays its own two
    assert metrics.reuse_factor is None
    assert cost.total == 34 + 15


def test_wavelength_usage_matches_design_metrics(ring4):
    design = design_for(ring4, Survivability.MULTI_INTERLAYER_BRS)
    ledger = wavelength_usage(ring4, design)
    assert ledger == design.metrics.wavelengths_per_link
    brs_total = sum(lw.total(True) for lw in ledger)
    assert brs_total == design.metrics.wavelength_total == 4
    assert design.metrics.extra_wavelengths == 2
    assert design.metrics.reuse_factor == Fraction(0)  # no pool on ring4


def test_verify_pristine_designs(ring4, ring4_chord, ring5_chord):
    for inst in (ring4, ring4_chord, ring5_chord):
        for option in (Survivability.NONE, Survivability.SINGLE_LAYER,
                       Survivability.MULTI_INTERLAYER_BRS):
            assert verify_design(inst, design_for(inst, option)) == ()


def test_verify_flags_wrong_instance(ring4, ring4_chord):
    design = design_for(ring4, Survivability.NONE)
    assert "instance-mismatch" in codes(verify_design(ring4_chord, design))


def test_verify_flags_structural_corruption(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    lightpaths = design.logical.lightpaths

    dup = replace(design, logical=replace(
        design.logical, lightpaths=lightpaths + (lightpaths[0],)))
    assert "duplicate-lightpath" in codes(verify_design(ring4, dup))

    orphan = Lightpath(2, 4, 1, LightpathRole.OPTICAL_PROTECTION, route=(2, 3, 4))
    bad = replace(design, logical=replace(
        design.logical, lightpaths=lightpaths + (orphan,)))
    assert "orphan-protection-lightpath" in codes(verify_design(ring4, bad))

    ghost_node = Lightpath(1, 9, 1, LightpathRole.WORK_CARRIER, route=(1, 9))
    bad = replace(design, logical=replace(
        design.logical, lightpaths=lightpaths + (ghost_node,)))
    assert "bad-lightpath-endpoints" in codes(verify_design(ring4, bad))

    too_many = Lightpath(2, 4, 5, LightpathRole.WORK_CARRIER, route=(2, 3, 4))
    bad = replace(design, logical=replace(
        design.logical, lightpaths=lightpaths + (too_many,)))
    assert "slot-overflow" in codes(verify_design(ring4, bad))

    # ring4 has no (1,3) fiber, so a chord route cannot exist
    rerouted = replace(lightpaths[0], route=(1, 3))
    bad = replace(design, logical=replace(
        design.logical, lightpaths=(rerouted,) + lightpaths[1:]))
    assert "bad-route" in codes(verify_design(ring4, bad))


def test_verify_flags_routing_corruption(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    (route,) = design.lsp_routes

    assert "missing-route" in codes(verify_design(
        ring4, replace(design, lsp_routes=())))
    assert "duplicate-route" in codes(verify_design(
        ring4, replace(design, lsp_routes=(route, route))))
    assert "unknown-demand-route" in codes(verify_design(
        ring4, replace(design, lsp_routes=(replace(route, demand_id="zz"),))))
    assert "unknown-lightpath" in codes(verify_design(
        ring4, replace(design, lsp_routes=(replace(route, working=((1, 3, 9),)),))))
    assert "broken-path" in codes(verify_design(
        ring4, replace(design, lsp_routes=(replace(route, working=((1, 2, 1),)),))))
    assert "shared-slot" in codes(verify_design(
        ring4, replace(design, lsp_routes=(replace(route, protection=route.working),))))
    assert "missing-protection" in codes(verify_design(
        ring4, replace(design, lsp_routes=(replace(route, protection=None),))))


def test_verify_flags_protection_policy(ring4):
    unprotected = design_for(ring4, Survivability.NONE)
    (route,) = unprotected.lsp_routes
    bad = replace(unprotected,
                  lsp_routes=(replace(route, protection=route.working),))
    assert "unexpected-protection" in codes(verify_design(ring4, bad))


def test_verify_flags_capacity_corruption(ring4):
    design = design_for(ring4, Survivability.NONE)

    # same design against an instance whose demand outgrew the lightpath
    fat = replace(ring4, traffic=TrafficMatrix((
        replace(ring4.traffic.demands[0], bandwidth_mbps=10500),)))
    got = codes(verify_design(fat, design))
    assert "grooming-overflow" in got and "instance-mismatch" in got

    # and against one with no wavelengths to give
    dark = replace(ring4, topology=replace(ring4.topology, wavelengths_per_link=0))
    assert "wavelength-overflow" in codes(verify_design(dark, design))

    squeezed = replace(design, logical=replace(design.logical, router_interfaces=0))
    assert "interface-overflow" in codes(verify_design(ring4, squeezed))


def test_verify_flags_accounting_corruption(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    off_metrics = replace(design, metrics=replace(
        design.metrics, wavelength_total=design.metrics.wavelength_total + 1))
    assert "metrics-mismatch" in codes(verify_design(ring4, off_metrics))

    off_cost = replace(design, cost=replace(
        design.cost, transit=design.cost.transit + 1))
    assert "cost-mismatch" in codes(verify_design(ring4, off_cost))


def test_verify_flags_brs_pool_conflict(ring4):
    design = design_for(ring4, Survivability.MULTI_INTERLAYER_BRS)
    drained = tuple(replace(lw, extra=0)
                    for lw in design.metrics.wavelengths_per_link)
    bad = replace(design, metrics=replace(
        design.metrics, wavelengths_per_link=drained))
    assert "brs-pool-conflict" in codes(verify_design(ring4, bad))


def test_failure_events_cover_links_nodes_interfaces(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    events = failure_events(ring4, design)
    kinds = [e.kind for e in events]
    assert kinds.count(FailureKind.LINK) == 4
    assert kinds.count(FailureKind.NODE) == 4
    # two carriers, one interface event per termination
    assert kinds.count(FailureKind.INTERFACE) == 4
    assert len(events) == 12


def test_drill_unprotected_design_loses_traffic(ring4):
    design = design_for(ring4, Survivability.NONE)
    report = failure_drill(ring4, design)
    assert not report.all_restorable

    working_link = design.logical.carriers()[0].route_links[0]
    outcome = drill_event(ring4, design,
                          FailureEvent(FailureKind.LINK, link=working_link))
    assert outcome.affected == ("d1",)
    assert outcome.unrestored == ("d1",)
    assert not outcome.restorable

    # an endpoint failure loses the demand by definition, not by design fault
    outcome = drill_event(ring4, design, FailureEvent(FailureKind.NODE, node=1))
    assert outcome.lost_by_definition == ("d1",)
    assert outcome.unrestored == ()
    assert outcome.restorable


def test_drill_single_layer_switches_to_protection_path(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    report = failure_drill(ring4, design)
    assert report.all_restorable
    assert report.failures() == ()
    s = report.summary()
    assert s["events"] == 12 and s["restorable_events"] == 12
    assert s["unrestored_pairs"] == 0 and s["contention_events"] == 0

    (route,) = design.lsp_routes
    first_hop = route.working[0]
    working_link = next(lp for lp in design.logical.carriers()
                        if lp.key == first_hop).route_links[0]
    outcome = drill_event(ring4, design,
                          FailureEvent(FailureKind.LINK, link=working_link))
    assert outcome.mpls_recovered == ("d1",)
    assert outcome.optical_recovered == ()

    iface = FailureEvent(FailureKind.INTERFACE,
                         lightpath=first_hop, end=1)
    outcome = drill_event(ring4, design, iface)
    assert outcome.mpls_recovered == ("d1",)


def test_drill_brs_recovers_optically_without_contention(ring4):
    design = design_for(ring4, Survivability.MULTI_INTERLAYER_BRS)
    report = failure_drill(ring4, design)
    assert report.all_restorable

    carrier = design.logical.carriers()[0]
    outcome = drill_event(ring4, design,
                          FailureEvent(FailureKind.LINK, link=carrier.route_links[0]))
    assert outcome.optical_recovered == (carrier.key,)
    assert outcome.affected == ()  # recovered below the MPLS layer
    assert outcome.contention == ()

    transit_node = carrier.transit_nodes[0]
    outcome = drill_event(ring4, design,
                          FailureEvent(FailureKind.NODE, node=transit_node))
    assert outcome.optical_recovered == (carrier.key,)
    assert outcome.restorable
