"""The instance document parser: what it accepts and each way it refuses."""

import copy

import pytest

from mplsotn.instances import four_node_ring, parse_instance
from mplsotn.model import DesignConfig, InvalidInstanceError, canonical_instance_dict

RING4 = canonical_instance_dict(four_node_ring())


def ring4_with(change):
    doc = copy.deepcopy(RING4)
    change(doc)
    return doc


def setting(key, value):
    return lambda doc: doc.__setitem__(key, value)


def setting_demand(key, value):
    return lambda doc: doc["demands"][0].__setitem__(key, value)


def dropping_demand(key):
    return lambda doc: doc["demands"][0].pop(key)


REJECTIONS = [
    pytest.param([], "bad-json", "must be a JSON object", id="not-an-object"),
    pytest.param(setting("colour", "red"), "unknown-field", "['colour']",
                 id="unknown-field"),
    pytest.param(lambda doc: doc.pop("links"), "missing-field", "'links'",
                 id="missing-field"),
    pytest.param(setting("name", 4), "bad-field", "name must be a string",
                 id="non-string-name"),
    pytest.param(setting("nodes", "1,2,3,4"), "bad-field", "must be arrays",
                 id="nodes-not-an-array"),
    pytest.param(setting("nodes", [1, 2, 3, "4"]), "bad-field",
                 "node id must be an integer", id="non-integer-node"),
    pytest.param(setting("nodes", [1, 2, 3, True]), "bad-field",
                 "node id must be an integer", id="boolean-node"),
    pytest.param(setting("links", [[1, 2], [2, 3, 4]]), "bad-field",
                 "must be a [a, b] pair", id="malformed-link"),
    pytest.param(setting("links", [[1, 2], [2.0, 3]]), "bad-field",
                 "link endpoint must be an integer", id="non-integer-link-end"),
    pytest.param(setting("links", [[1, 2], [3, 3]]), "bad-field",
                 "is a self-loop", id="self-loop-link"),
    pytest.param(setting("demands", {}), "bad-field", "demands must be an array",
                 id="demands-not-an-array"),
    pytest.param(setting("demands", ["d1"]), "bad-field", "must be an object",
                 id="demand-not-an-object"),
    pytest.param(setting_demand("priority", 1), "unknown-field", "['priority']",
                 id="unknown-demand-field"),
    pytest.param(dropping_demand("destination"), "missing-field", "'destination'",
                 id="missing-demand-field"),
    pytest.param(setting_demand("id", 1), "bad-field", "demand id must be a string",
                 id="non-string-demand-id"),
    pytest.param(setting_demand("source", "1"), "bad-field",
                 "demand source must be an integer", id="non-integer-source"),
    pytest.param(setting_demand("bandwidth_gbps", [10]), "bad-field",
                 "must be a number", id="bandwidth-not-a-number"),
    pytest.param(setting_demand("bandwidth_gbps", "ten"), "bad-field",
                 "cannot parse 'ten'", id="unparsable-bandwidth"),
    pytest.param(setting_demand("bandwidth_gbps", "Infinity"), "bad-field",
                 "must be finite", id="infinite-bandwidth"),
    pytest.param(setting_demand("bandwidth_gbps", "0.0001"), "bad-field",
                 "finer than 1 Mbps", id="sub-mbps-bandwidth"),
    pytest.param(setting("lightpath_capacity_gbps", True), "bad-field",
                 "lightpath capacity must be a number", id="boolean-capacity"),
    pytest.param(setting("router_interfaces", "8"), "bad-field",
                 "router_interfaces must be an integer",
                 id="non-integer-interfaces"),
    pytest.param(setting("router_interfaces", 0), "bad-interface-limit",
                 "must be >= 1", id="no-interfaces"),
]


@pytest.mark.parametrize("change,code,says", REJECTIONS)
def test_parse_rejects(change, code, says):
    doc = ring4_with(change) if callable(change) else change
    with pytest.raises(InvalidInstanceError) as err:
        parse_instance(doc)
    assert [v.code for v in err.value.violations] == [code]
    assert says in err.value.violations[0].message


def test_parse_keeps_a_declared_interface_limit():
    instance = parse_instance(ring4_with(setting("router_interfaces", 3)))
    assert instance.router_interfaces == 3
    # the declared limit replaces the 2 * q_max * (N - 1) default of 12
    assert DesignConfig().effective_interfaces(instance) == 3
    assert DesignConfig().effective_interfaces(four_node_ring()) == 12
