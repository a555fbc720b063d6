"""Shared instance builders and a memoized design runner for the tests.

Several test modules compare, verify, and drill the same optimized designs.
Solving each configuration once per session keeps the suite fast, and it also
guarantees the failure drills run against exactly the designs whose costs the
comparison tests assert on. Every design shares one session-wide solve memo,
so a stage model that several configurations build alike (stage I under
every option, for one) is solved once, as ``--compare-all`` does.
"""

from __future__ import annotations

from mplsotn.instances import (
    five_node_ring_chord,
    four_node_ring,
    four_node_ring_chord,
    generate_instance,
)
from mplsotn.model import (
    Approach,
    Design,
    DesignConfig,
    Instance,
    LspDemand,
    PhysicalTopology,
    Survivability,
    TrafficMatrix,
    instance_hash,
    normalized_link,
)
from mplsotn import solvers
from mplsotn.pipeline import SolveMemo, run_design


def highs_calls(monkeypatch) -> list[tuple[dict, object]]:
    """Every HiGHS call from now on as (keywords, result); ``mps`` is its text."""
    calls = []
    real = solvers.scipy_milp

    def recording(**kwargs):
        calls.append((kwargs, real(**kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(solvers, "scipy_milp", recording)
    return calls


OPTIONS = (
    Survivability.NONE,
    Survivability.SINGLE_LAYER,
    Survivability.MULTI_DOUBLE,
    Survivability.MULTI_SPARE_UNPROTECTED,
    Survivability.MULTI_INTERLAYER_BRS,
)

PROTECTED_OPTIONS = OPTIONS[1:]

MULTILAYER_OPTIONS = (
    Survivability.MULTI_DOUBLE,
    Survivability.MULTI_SPARE_UNPROTECTED,
    Survivability.MULTI_INTERLAYER_BRS,
)

DESK_BUILDERS = {
    "four_node_ring": four_node_ring,
    "four_node_ring_chord": four_node_ring_chord,
    "five_node_ring_chord": five_node_ring_chord,
    # short aliases matching the instances' own names
    "ring4": four_node_ring,
    "ring4-chord": four_node_ring_chord,
    "ring5-chord": five_node_ring_chord,
}

_instances: dict[str, Instance] = {}
_designs: dict[tuple[str, DesignConfig], tuple[Instance, Design]] = {}
_shared = SolveMemo()


def desk(name: str) -> Instance:
    if name not in _instances:
        _instances[name] = DESK_BUILDERS[name]()
    return _instances[name]


def exact_config(option: Survivability,
                 approach: Approach = Approach.SEQUENTIAL,
                 **kwargs) -> DesignConfig:
    return DesignConfig(survivability=option, approach=approach,
                        optimality_gap=0.0, **kwargs)


def cached_design(instance: Instance, cfg: DesignConfig) -> Design:
    key = (instance_hash(instance), cfg)
    if key not in _designs:
        _designs[key] = (instance, run_design(instance, cfg, shared=_shared))
    return _designs[key][1]


# -- reference instance families -------------------------------------------------

# Small instances whose stage optima the brute-force oracle can confirm. The
# mesh-4 seeds skip 1, 2, 6, 7: those draws are infeasible for the single-layer
# option at one lightpath per slot (pairwise disjointness has nowhere to go),
# which the optimizer correctly reports, but exact agreement on optima needs
# instances that actually have optima.
EXACT_SPECS: tuple[tuple[str, int, int, int, str], ...] = (
    ("ring", 4, 1, 2, "mixed"),
    ("ring", 4, 2, 2, "mixed"),
    ("ring", 4, 3, 2, "mixed"),
    ("ring", 4, 4, 2, "mixed"),
    ("ring", 5, 1, 2, "mixed"),
    ("ring", 5, 2, 2, "mixed"),
    ("ring", 5, 3, 2, "mixed"),
    ("ring", 5, 4, 2, "mixed"),
    ("ring_plus_chords", 4, 1, 2, "mixed"),
    ("ring_plus_chords", 4, 2, 2, "mixed"),
    ("ring_plus_chords", 4, 3, 2, "mixed"),
    ("ring_plus_chords", 4, 4, 2, "mixed"),
    ("ring_plus_chords", 5, 1, 3, "uniform"),
    ("ring_plus_chords", 5, 2, 3, "uniform"),
    ("ring_plus_chords", 5, 3, 3, "uniform"),
    ("ring_plus_chords", 5, 4, 3, "uniform"),
    ("mesh", 4, 3, 3, "mixed"),
    ("mesh", 4, 4, 3, "mixed"),
    ("mesh", 4, 5, 3, "mixed"),
    ("mesh", 4, 8, 3, "mixed"),
    ("mesh", 5, 1, 3, "mixed"),
    ("mesh", 5, 2, 3, "mixed"),
    ("mesh", 5, 3, 3, "mixed"),
    ("mesh", 5, 4, 3, "mixed"),
)


def exact_suite() -> list[Instance]:
    out = []
    for kind, n, seed, count, profile in EXACT_SPECS:
        out.append(generate_instance(kind, n, seed=seed, demand_count=count,
                                     bandwidth_profile=profile))
    return out


# Mid-size meshes where the three multilayer options actually diverge. Three
# copies of the first demand pair at 9 Gbps exceed the two parallel slots a
# router pair offers, so working LSPs are forced onto multi-hop logical paths
# and the options' spare-capacity rules bite.
FAMILY_COMBOS = (
    (6, 1), (6, 2), (6, 3), (6, 4),
    (7, 1), (7, 2), (7, 3),
    (8, 1), (8, 2), (8, 3),
)


def mesh_family(n: int, seed: int) -> Instance:
    base = generate_instance("mesh", n, seed=seed, demand_count=n,
                             bandwidth_profile="mixed")
    first = base.traffic.demands[0]
    extras = tuple(
        LspDemand(id=f"x{k}", source=first.source,
                  destination=first.destination, bandwidth_mbps=9000)
        for k in (1, 2, 3)
    )
    return Instance(
        name=f"fam-{n}-s{seed}",
        topology=base.topology,
        traffic=TrafficMatrix(base.traffic.demands + extras),
        lightpath_capacity_mbps=base.lightpath_capacity_mbps,
        max_parallel_lightpaths=base.max_parallel_lightpaths,
        router_interfaces=base.router_interfaces,
    )


def crossover_instance(bandwidth_mbps: int) -> Instance:
    """Circulant graph C11(1, 2) with five parallel demands on one pair.

    One lightpath slot per router pair. Near-full lightpaths make per-demand
    spare LSPs cheap relative to duplicated optical channels; near-empty ones
    invert the trade, so the option ranking should flip with the bandwidth.
    """
    n = 11
    nodes = tuple(range(1, n + 1))
    links = [normalized_link(i, i % n + 1) for i in nodes]
    links += [normalized_link(i, (i + 1) % n + 1) for i in nodes]
    demands = tuple(
        LspDemand(id=f"d{k}", source=1, destination=4,
                  bandwidth_mbps=bandwidth_mbps)
        for k in range(1, 6)
    )
    return Instance(
        name="crossover-circ11",
        topology=PhysicalTopology(nodes=nodes, links=tuple(sorted(set(links))),
                                  wavelengths_per_link=32),
        traffic=TrafficMatrix(demands),
        max_parallel_lightpaths=1,
    )
