"""Value types, derived quantities, and instance validation."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplsotn.model import (
    Approach,
    CostModel,
    DesignConfig,
    FailureEvent,
    FailureKind,
    Instance,
    Lightpath,
    LightpathRole,
    LinkWavelengths,
    LogicalTopology,
    LspDemand,
    PhysicalTopology,
    Survivability,
    TrafficMatrix,
    canonical_instance_dict,
    instance_hash,
    normalized_link,
    validate_instance,
)


def codes(violations):
    return {v.code for v in violations}


def make_instance(nodes, links, demands, **kwargs):
    return Instance(
        name="t",
        topology=PhysicalTopology(nodes=tuple(nodes), links=tuple(links),
                                  wavelengths_per_link=kwargs.pop("wavelengths", 32)),
        traffic=TrafficMatrix(tuple(
            LspDemand(id=i, source=s, destination=d, bandwidth_mbps=b)
            for i, s, d, b in demands
        )),
        **kwargs,
    )


def test_normalized_link_orders_endpoints():
    assert normalized_link(3, 1) == (1, 3)
    assert normalized_link(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        normalized_link(2, 2)


def test_topology_normalizes_and_navigates():
    topo = PhysicalTopology(nodes=(1, 2, 3), links=((2, 1), (3, 2), (1, 3)))
    assert topo.links == ((1, 2), (2, 3), (1, 3))
    assert topo.has_link(3, 1)
    assert topo.neighbors(2) == (1, 3)
    arcs = topo.directed_arcs()
    assert (1, 2) in arcs and (2, 1) in arcs
    assert len(arcs) == 6


def test_survivability_multilayer_split():
    assert not Survivability.NONE.multilayer
    assert not Survivability.SINGLE_LAYER.multilayer
    assert Survivability.MULTI_DOUBLE.multilayer
    assert Survivability.MULTI_SPARE_UNPROTECTED.multilayer
    assert Survivability.MULTI_INTERLAYER_BRS.multilayer


def test_config_defaults_resolve_against_instance(ring4):
    cfg = DesignConfig()
    assert cfg.effective_q_max(ring4) == ring4.max_parallel_lightpaths == 2
    # derived limit: 2 slots per pair on each of N-1 peers, both directions
    assert cfg.effective_interfaces(ring4) == 2 * 2 * 3

    assert DesignConfig(q_max=1).effective_q_max(ring4) == 1

    fixed = make_instance([1, 2, 3], [(1, 2), (2, 3), (1, 3)], [],
                          router_interfaces=7)
    assert DesignConfig().effective_interfaces(fixed) == 7

    grown = DesignConfig(q_max=3).grown(ring4)
    assert grown.q_max == 4
    assert grown.survivability is DesignConfig().survivability


def test_cost_model_unit_prices_are_exact():
    cm = CostModel()
    assert cm.lightpath_cost == 17
    assert cm.wavelength_cost == 3
    assert cm.transit_cost_per_gbps == Fraction(4, 5)
    assert cm.transit_cost_per_mbps() == Fraction(4, 5000)

    custom = CostModel(router_port_cost=Fraction(9), oxc_port_cost=Fraction(1, 4),
                       transponder_cost=Fraction(3, 2),
                       lightpath_capacity_gbps=Fraction(40))
    assert custom.lightpath_cost == Fraction(37, 2)
    assert custom.wavelength_cost == Fraction(7, 2)
    assert custom.transit_cost_per_gbps == Fraction(9, 40)
    free = CostModel(router_port_cost=0, oxc_port_cost=0, transponder_cost=0)
    assert free.lightpath_cost == free.wavelength_cost == 0


@pytest.mark.parametrize("field,value", [
    ("router_port_cost", -8),
    ("oxc_port_cost", Fraction(-1, 2)),
    ("transponder_cost", -1),
    ("lightpath_capacity_gbps", 0),
    ("lightpath_capacity_gbps", -10),
])
def test_cost_model_rejects_negative_prices_and_empty_capacity(field, value):
    with pytest.raises(ValueError, match=field):
        CostModel(**{field: value})


def test_lightpath_route_accessors():
    lp = Lightpath(origin=1, termination=4, slot=0,
                   role=LightpathRole.WORK_CARRIER, route=(1, 3, 2, 4))
    assert lp.key == (1, 4, 0)
    assert lp.route_links == ((1, 3), (2, 3), (2, 4))
    assert lp.transit_nodes == (3, 2)


def test_logical_topology_role_partition():
    work = Lightpath(1, 2, 0, LightpathRole.WORK_CARRIER, (1, 2))
    spare = Lightpath(1, 2, 1, LightpathRole.SPARE_CARRIER, (1, 3, 2))
    prot = Lightpath(1, 2, 0, LightpathRole.OPTICAL_PROTECTION, (1, 4, 2))
    logical = LogicalTopology(lightpaths=(work, spare, prot), router_interfaces=12)

    assert logical.carriers() == (work, spare)
    assert logical.protection_lightpaths() == (prot,)
    assert logical.protection_by_key((1, 2, 0)) is prot
    assert logical.protection_by_key((1, 2, 1)) is None


def test_link_wavelength_totals_depend_on_sharing():
    lw = LinkWavelengths(link=(1, 2), work_carrier=3, spare_carrier=2,
                         protection=4, extra=1)
    assert lw.total(brs=False) == 3 + 2 + 4
    assert lw.total(brs=True) == 3 + 2 + 1


def test_failure_event_labels():
    assert FailureEvent(FailureKind.LINK, link=(2, 5)).label() == "link 2-5"
    assert FailureEvent(FailureKind.NODE, node=3).label() == "node 3"
    lbl = FailureEvent(FailureKind.INTERFACE, lightpath=(1, 4, 2), end=4).label()
    assert lbl == "interface 4 of lightpath 1->4#2"


def test_canonical_dict_and_hash():
    inst = make_instance([1, 2, 3], [(1, 2), (2, 3), (1, 3)],
                         [("d1", 1, 3, 7500), ("d2", 2, 3, 10000)])
    doc = canonical_instance_dict(inst)
    assert doc["demands"][0]["bandwidth_gbps"] == "7.5"
    assert doc["demands"][1]["bandwidth_gbps"] == "10"
    assert doc["lightpath_capacity_gbps"] == "10"

    again = make_instance([1, 2, 3], [(2, 1), (3, 2), (3, 1)],
                          [("d1", 1, 3, 7500), ("d2", 2, 3, 10000)])
    assert instance_hash(inst) == instance_hash(again)

    other = make_instance([1, 2, 3], [(1, 2), (2, 3), (1, 3)],
                          [("d1", 1, 3, 7500), ("d2", 2, 3, 9999)])
    assert instance_hash(inst) != instance_hash(other)


def test_desks_validate_clean(ring4, ring4_chord, ring5_chord):
    for inst in (ring4, ring4_chord, ring5_chord):
        assert validate_instance(inst) == ()
        assert validate_instance(
            inst, DesignConfig(survivability=Survivability.MULTI_DOUBLE)) == ()


def test_validation_topology_codes():
    assert "too-few-nodes" in codes(validate_instance(make_instance([1], [], [])))
    assert "duplicate-nodes" in codes(
        validate_instance(make_instance([1, 2, 2], [(1, 2)], [])))
    assert "bad-node-id" in codes(
        validate_instance(make_instance([-1, 2], [(-1, 2)], [])))
    assert "bad-node-id" in codes(
        validate_instance(make_instance([True, 2], [(True, 2)], [])))
    assert "unknown-link-endpoint" in codes(
        validate_instance(make_instance([1, 2], [(1, 9)], [])))
    # opposite orientations collapse to the same stored link
    assert "duplicate-link" in codes(
        validate_instance(make_instance([1, 2, 3], [(1, 2), (2, 1), (2, 3), (1, 3)], [])))
    assert "bad-wavelength-limit" in codes(
        validate_instance(make_instance([1, 2], [(1, 2)], [], wavelengths=0)))
    assert "disconnected" in codes(
        validate_instance(make_instance([1, 2, 3, 4], [(1, 2), (3, 4)], [])))


def test_validation_survivable_needs_biconnectivity():
    chain = make_instance([1, 2, 3], [(1, 2), (2, 3)], [])
    assert validate_instance(chain) == ()
    got = validate_instance(
        chain, DesignConfig(survivability=Survivability.SINGLE_LAYER))
    assert codes(got) == {"not-biconnected"}


def test_validation_limit_codes():
    inst = make_instance([1, 2], [(1, 2)], [])
    assert "bad-capacity" in codes(validate_instance(
        make_instance([1, 2], [(1, 2)], [], lightpath_capacity_mbps=0)))
    # one bad value, one violation: the derived interface limit is not re-reported
    assert codes(validate_instance(inst, DesignConfig(q_max=0))) == {"bad-slot-limit"}
    assert "bad-interface-limit" in codes(validate_instance(
        make_instance([1, 2], [(1, 2)], [], router_interfaces=0)))
    assert "bad-gap" in codes(validate_instance(inst, DesignConfig(optimality_gap=1.0)))
    assert "bad-gap" in codes(validate_instance(inst, DesignConfig(optimality_gap=-0.1)))
    for limit in (0.0, float("nan"), float("inf")):
        assert "bad-time-limit" in codes(
            validate_instance(inst, DesignConfig(time_limit_seconds=limit)))


def test_validation_demand_codes():
    got = validate_instance(make_instance(
        [1, 2, 3],
        [(1, 2), (2, 3), (1, 3)],
        [
            ("", 1, 2, 1000),          # empty id
            ("d", 1, 2, 1000),
            ("d", 1, 3, 1000),         # repeated id
            ("e", 1, 9, 1000),         # unknown endpoint
            ("f", 3, 1, 1000),         # reversed
            ("g", 2, 2, 1000),         # degenerate pair
            ("h", 1, 2, 0),            # no bandwidth
            ("i", 1, 2, 10001),        # over lightpath capacity
        ],
    ))
    want = {"empty-demand-id", "duplicate-demand-id", "unknown-demand-endpoint",
            "demand-not-ordered", "bad-bandwidth", "bandwidth-exceeds-capacity"}
    assert want <= codes(got)
    reversed_msgs = [v for v in got if v.code == "demand-not-ordered"]
    assert len(reversed_msgs) == 2  # both f and g


def test_approach_values_round_trip():
    assert Approach("sequential") is Approach.SEQUENTIAL
    assert Approach("integrated") is Approach.INTEGRATED
    assert Survivability("brs") is Survivability.MULTI_INTERLAYER_BRS


# -- the connectivity scan ----------------------------------------------------------


def reference_topology_codes(nodes, links, protected):
    """Brute force: a BFS from one node, then again with each node deleted."""
    def connected_without(gone):
        live = [n for n in nodes if n != gone]
        seen = {live[0]}
        frontier = [live[0]]
        while frontier:
            x = frontier.pop()
            for a, b in links:
                for u, v in ((a, b), (b, a)):
                    if u == x and v != gone and v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return len(seen) == len(live)

    if not connected_without(None):
        return ["disconnected"]
    if protected and (len(nodes) < 3
                      or not all(connected_without(n) for n in nodes)):
        return ["not-biconnected"]
    return []


def topology_codes(nodes, links, protected):
    option = Survivability.SINGLE_LAYER if protected else Survivability.NONE
    return [v.code for v in validate_instance(
        make_instance(nodes, links, []), DesignConfig(survivability=option))]


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    nodes = draw(st.permutations(range(n)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    links = draw(st.permutations([p for p, k in zip(pairs, keep) if k]))
    return tuple(nodes), tuple(links)


@settings(max_examples=200, deadline=None)
@given(simple_graphs(), st.booleans())
def test_scan_matches_brute_force(graph, protected):
    nodes, links = graph
    assert topology_codes(nodes, links, protected) == \
        reference_topology_codes(nodes, links, protected)


SCAN_CASES = {
    # name: (nodes, links, codes unprotected, codes protected)
    "two-node-link": ([1, 2], [(1, 2)], [], ["not-biconnected"]),
    "path": ([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], [], ["not-biconnected"]),
    "cycle": ([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], [], []),
    "triangles-sharing-a-node": (
        [1, 2, 3, 4, 5], [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)],
        [], ["not-biconnected"]),
    "cycles-joined-by-a-bridge": (
        [1, 2, 3, 4, 5, 6, 7, 8],
        [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 7), (7, 8), (8, 5)],
        [], ["not-biconnected"]),
    "isolated-node": (
        [1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)], ["disconnected"], ["disconnected"]),
}


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_fixed_topologies(name):
    nodes, links, unprotected, protected = SCAN_CASES[name]
    assert topology_codes(nodes, links, False) == unprotected
    assert topology_codes(nodes, links, True) == protected
    assert reference_topology_codes(nodes, links, False) == unprotected
    assert reference_topology_codes(nodes, links, True) == protected


def test_imports_need_no_networkx():
    tests = Path(__file__).resolve().parent
    code = ("import sys\n"
            "sys.modules['networkx'] = None\n"
            "import mplsotn, mplsotn.cli, oracle\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
