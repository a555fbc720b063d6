"""Independent accounting, design verification, and failure drills.

Everything here checks designs produced by the pipeline (or crafted by hand)
against rules written without reference to the optimization models.
"""

import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

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

TESTS = Path(__file__).resolve().parent


def codes(violations):
    return {v.code for v in violations}


def messages(violations, code):
    return [v.message for v in violations if v.code == code]


def design_for(instance, option):
    return cached_design(instance, exact_config(option))


def groomed_ring4():
    """ring4 with three 4 Gbps demands; d3 grooms through router 2."""
    return Instance(
        name="ring4-groomed",
        topology=PhysicalTopology(nodes=(1, 2, 3, 4),
                                  links=((1, 2), (2, 3), (3, 4), (1, 4))),
        traffic=TrafficMatrix(demands=(
            LspDemand(id="d1", source=1, destination=2, bandwidth_mbps=4000),
            LspDemand(id="d2", source=2, destination=3, bandwidth_mbps=4000),
            LspDemand(id="d3", source=1, destination=3, bandwidth_mbps=4000),
        )),
    )


def groomed_design(option):
    """The design of ``groomed_ring4``, whose d3 is the one multi-hop LSP."""
    inst = groomed_ring4()
    design = design_for(inst, option)
    by_id = {r.demand_id: r for r in design.lsp_routes}
    assert by_id["d3"].working == ((1, 2, 1), (2, 3, 1))
    assert by_id["d3"].protection == ((1, 3, 1),)
    return inst, design


def with_lightpaths(design, lightpaths):
    return replace(design, logical=replace(design.logical,
                                           lightpaths=tuple(lightpaths)))


def rerouted(design, key, role, route):
    """``design`` with the ``role`` lightpath in slot ``key`` on ``route``."""
    return with_lightpaths(design, (
        replace(lp, route=route) if (lp.key, lp.role) == (key, role) else lp
        for lp in design.logical.lightpaths))


def with_route(design, demand_id, **change):
    return replace(design, lsp_routes=tuple(
        replace(r, **change) if r.demand_id == demand_id else r
        for r in design.lsp_routes))


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


def test_verify_flags_protection_the_option_does_not_ask_for(ring4):
    single = design_for(ring4, Survivability.SINGLE_LAYER)
    plp = Lightpath(1, 3, 1, LightpathRole.OPTICAL_PROTECTION, route=(1, 4, 3))
    got = verify_design(ring4, with_lightpaths(
        single, single.logical.lightpaths + (plp,)))
    assert messages(got, "unexpected-protection") == [
        "single-layer design carries optical protection"]

    inst, brs = groomed_design(Survivability.MULTI_INTERLAYER_BRS)
    got = verify_design(inst, with_route(brs, "d3", protection=None))
    assert messages(got, "missing-protection") == [
        "multi-hop demand d3 has no protection path"]
    # brs protects work carriers optically, never spare ones
    spare_plp = Lightpath(1, 3, 1, LightpathRole.OPTICAL_PROTECTION, route=(1, 2, 3))
    got = verify_design(inst, with_lightpaths(
        brs, brs.logical.lightpaths + (spare_plp,)))
    assert messages(got, "unexpected-protection") == [
        "carrier (1, 3, 1) must not be optically protected"]


def test_verify_flags_a_spare_carrier_in_an_unprotected_design(ring4):
    unprotected = design_for(ring4, Survivability.NONE)
    spare = Lightpath(1, 3, 2, LightpathRole.SPARE_CARRIER, route=(1, 4, 3))
    got = verify_design(ring4, with_lightpaths(
        unprotected, unprotected.logical.lightpaths + (spare,)))
    assert messages(got, "unexpected-protection") == [
        "unprotected design carries non-working lightpaths"]


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

    # the limit comes from the instance, so a wrong declared one is flagged
    # as such and does not make the verdict
    squeezed = replace(design, logical=replace(design.logical, router_interfaces=0))
    got = verify_design(ring4, squeezed)
    assert messages(got, "interface-limit-mismatch") == [
        "design declares 0 interfaces per router, the instance allows 12"]
    assert "interface-overflow" not in codes(got)


def test_verify_flags_interface_overflow(ring4):
    # two interfaces per router fit a working and a spare carrier at 1 and 3
    tight = replace(ring4, name="ring4-two-ports", router_interfaces=2)
    design = design_for(tight, Survivability.SINGLE_LAYER)
    assert verify_design(tight, design) == ()
    extra = Lightpath(1, 2, 1, LightpathRole.WORK_CARRIER, route=(1, 2))
    got = verify_design(tight, with_lightpaths(
        design, design.logical.lightpaths + (extra,)))
    assert messages(got, "interface-overflow") == [
        "node 1 terminates 3 carriers, limit 2"]
    assert "interface-limit-mismatch" not in codes(got)


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


def test_verify_flags_carriers_of_the_wrong_role(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    work, spare = design.logical.lightpaths
    got = verify_design(ring4, with_lightpaths(
        design, (replace(work, role=LightpathRole.SPARE_CARRIER), spare)))
    assert messages(got, "wrong-carrier-role") == [
        "demand d1 working path rides spare-carrier (1, 3, 1)"]
    got = verify_design(ring4, with_lightpaths(
        design, (work, replace(spare, role=LightpathRole.WORK_CARRIER))))
    assert messages(got, "wrong-carrier-role") == [
        "demand d1 protection path rides work-carrier (1, 3, 2)"]


def test_verify_flags_duplicate_protection_lightpath(ring4):
    design = design_for(ring4, Survivability.MULTI_INTERLAYER_BRS)
    (plp,) = design.logical.protection_lightpaths()
    got = verify_design(ring4, with_lightpaths(
        design, design.logical.lightpaths + (plp,)))
    assert messages(got, "duplicate-lightpath") == [
        "two protection lightpaths share slot (1, 3, 1)"]


def test_verify_names_each_broken_logical_path(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    for working, error in (
        ((), "empty path"),
        (((2, 3, 1),), "starts at 2, demand source is 1"),
        (((1, 2, 1),), "ends at 2, demand destination is 3"),
        (((1, 2, 1), (4, 3, 1)), "hop (1, 2, 1) does not chain into (4, 3, 1)"),
        (((1, 2, 1), (2, 1, 1), (1, 3, 1)), "revisits a router"),
    ):
        got = verify_design(ring4, with_route(design, "d1", working=working))
        assert messages(got, "broken-path") == [
            f"demand d1 working path: {error}"]


def test_verify_flags_a_lightpath_without_a_route(ring4):
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    got = verify_design(ring4, rerouted(
        design, (1, 3, 1), LightpathRole.WORK_CARRIER, (1,)))
    assert messages(got, "bad-route") == ["lightpath (1, 3, 1): route missing"]


def test_verify_flags_an_unprotected_carrier(ring4):
    design = design_for(ring4, Survivability.MULTI_DOUBLE)
    got = verify_design(ring4, with_lightpaths(design, design.logical.carriers()))
    assert messages(got, "missing-protection-lightpath") == [
        "carrier (1, 3, 1) has no protection lightpath"]


def test_verify_flags_protection_sharing_its_carriers_fiber(ring4_chord):
    # the carrier runs on the chord; its protection moves onto it too
    design = design_for(ring4_chord, Survivability.MULTI_DOUBLE)
    got = verify_design(ring4_chord, rerouted(
        design, (1, 3, 1), LightpathRole.OPTICAL_PROTECTION, (1, 3)))
    assert messages(got, "protection-shares-link") == [
        "protection of (1, 3, 1) shares fiber [(1, 3)]"]
    assert "protection-shares-node" not in codes(got)


def test_verify_flags_protection_crossing_its_carriers_oxc(ring4):
    # ring4 reaches router 2 only over the carrier's own links
    design = design_for(ring4, Survivability.MULTI_INTERLAYER_BRS)
    got = verify_design(ring4, rerouted(
        design, (1, 3, 1), LightpathRole.OPTICAL_PROTECTION, (1, 2, 3)))
    assert messages(got, "protection-shares-node") == [
        "protection of (1, 3, 1) crosses its carrier's OXC(s) [2]"]


def test_verify_flags_protection_through_a_working_router():
    inst, design = groomed_design(Survivability.SINGLE_LAYER)
    got = verify_design(inst, with_route(
        design, "d3", protection=((1, 2, 2), (2, 3, 2))))
    assert messages(got, "protection-transits-working-router") == [
        "demand d3 protection path touches router(s) [2] of its working path"]


def test_verify_flags_paths_sharing_a_node():
    # brs owes node disjointness only, so the shared links go unflagged
    inst, design = groomed_design(Survivability.MULTI_INTERLAYER_BRS)
    got = verify_design(inst, rerouted(
        design, (1, 3, 1), LightpathRole.SPARE_CARRIER, (1, 2, 3)))
    assert messages(got, "paths-share-node") == [
        "demand d3 paths share node(s) [2]"]
    assert "paths-share-link" not in codes(got)


def test_verify_flags_paths_sharing_a_link(ring4_chord):
    # both carriers on the chord: one link shared, no router in between
    design = design_for(ring4_chord, Survivability.SINGLE_LAYER)
    got = verify_design(ring4_chord, rerouted(
        design, (1, 3, 1), LightpathRole.WORK_CARRIER, (1, 3)))
    assert messages(got, "paths-share-link") == [
        "demand d1 paths share link(s) [(1, 3)]"]
    assert "paths-share-node" not in codes(got)


def test_every_verifier_code_is_asserted_by_a_test():
    source = (TESTS.parent / "src" / "mplsotn" / "evaluate.py").read_text()
    raised = set(re.findall(r'Violation\(\s*"([a-z-]+)"', source))
    assert raised
    tests = "".join(path.read_text() for path in TESTS.glob("test_*.py"))
    # a code is asserted where a test names it outside the pattern above
    asserted = {code for code in raised
                if re.search(rf'(?<!Violation\()"{code}"', tests)}
    assert sorted(raised - asserted) == []


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


def test_drill_protection_through_the_failed_router_is_unusable():
    inst, design = groomed_design(Survivability.SINGLE_LAYER)
    bad = with_route(design, "d3", protection=((1, 2, 2), (2, 3, 2)))
    outcome = drill_event(inst, bad, FailureEvent(FailureKind.NODE, node=2))
    assert outcome.lost_by_definition == ("d1", "d2")
    assert outcome.affected == ("d3",)
    assert outcome.unrestored == ("d3",)
    assert outcome.mpls_recovered == ()


def test_drill_protection_on_a_dead_carrier_is_unusable(ring4):
    # the spare carrier moved onto the working carrier's fiber dies with it
    design = design_for(ring4, Survivability.SINGLE_LAYER)
    bad = rerouted(design, (1, 3, 2), LightpathRole.SPARE_CARRIER, (1, 2, 3))
    outcome = drill_event(ring4, bad, FailureEvent(FailureKind.LINK, link=(1, 2)))
    assert outcome.affected == ("d1",)
    assert outcome.unrestored == ("d1",)
    assert not outcome.restorable


def drained(design, **zero):
    return replace(design, metrics=replace(design.metrics, wavelengths_per_link=tuple(
        replace(lw, **zero) for lw in design.metrics.wavelengths_per_link)))


def test_drill_brs_contention_from_protection_lightpaths(ring4):
    # the fired protection lightpath finds no spare pool and no booked extra
    design = design_for(ring4, Survivability.MULTI_INTERLAYER_BRS)
    outcome = drill_event(ring4, drained(design, extra=0),
                          FailureEvent(FailureKind.LINK, link=(1, 2)))
    assert outcome.optical_recovered == ((1, 3, 1),)
    assert outcome.unrestored == ()
    assert outcome.contention == ((3, 4), (1, 4))
    assert not outcome.restorable


def test_drill_brs_contention_from_spare_carriers():
    # router 2 failing switches d3 onto its spare carrier, with no optical
    # recovery alongside: the carriers ending at 2 die with their router
    inst, design = groomed_design(Survivability.MULTI_INTERLAYER_BRS)
    event = FailureEvent(FailureKind.NODE, node=2)
    assert drill_event(inst, design, event).restorable
    outcome = drill_event(inst, drained(design, spare_carrier=0, extra=0), event)
    assert outcome.optical_recovered == ()
    assert outcome.mpls_recovered == ("d3",)
    assert outcome.contention == ((3, 4), (1, 4))
