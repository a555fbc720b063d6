"""Brute-force reference optimizer used to cross-check the MILP pipeline.

Everything here is enumeration: logical paths over the complete router
digraph, exact bin packing for grooming, depth-first search with pruning for
physical routing. No code is shared with the package's model builders; the
only imports are data types. Stage results are conditioned on the pipeline's
earlier-stage decisions, so at gap zero each stage objective must match the
oracle exactly (ties may differ, objectives may not).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from mplsotn.model import (
    CostModel,
    Design,
    DesignConfig,
    Instance,
    LightpathKey,
    LightpathRole,
    Link,
    Survivability,
    normalized_link,
)

Arc = tuple[int, int]


# -- helpers --------------------------------------------------------------------


def logical_simple_paths(nodes: Sequence[int], s: int, d: int,
                         banned: frozenset[int] = frozenset()
                         ) -> list[tuple[Arc, ...]]:
    """All simple router sequences s -> d as arc tuples (complete digraph)."""
    out: list[tuple[Arc, ...]] = []
    usable = [n for n in nodes if n not in banned]

    def walk(cur: int, visited: set[int], arcs: list[Arc]) -> None:
        if cur == d:
            out.append(tuple(arcs))
            return
        for nxt in usable:
            if nxt in visited:
                continue
            arcs.append((cur, nxt))
            visited.add(nxt)
            walk(nxt, visited, arcs)
            visited.remove(nxt)
            arcs.pop()

    if s not in banned and d not in banned:
        walk(s, {s}, [])
    return out


def min_slots(bandwidths: Sequence[int], capacity: int) -> Optional[int]:
    """Exact minimum number of bins, or None if any item does not fit."""
    items = sorted(bandwidths, reverse=True)
    if not items:
        return 0
    if items[0] > capacity:
        return None

    def fits(k: int) -> bool:
        bins = [0] * k

        def place(i: int) -> bool:
            if i == len(items):
                return True
            tried: set[int] = set()
            for b in range(k):
                if bins[b] in tried:
                    continue
                tried.add(bins[b])
                if bins[b] + items[i] <= capacity:
                    bins[b] += items[i]
                    if place(i + 1):
                        return True
                    bins[b] -= items[i]
            return False

        return place(0)

    for k in range(1, len(items) + 1):
        if fits(k):
            return k
    return len(items)


def physical_simple_paths(instance: Instance, a: int, b: int,
                          banned_nodes: frozenset[int] = frozenset()
                          ) -> list[tuple[int, ...]]:
    """Every simple fiber path a -> b through no banned node but its ends.

    Depth-first over each node's neighbours in link order.
    """
    topo = instance.topology
    allowed = {n for n in topo.nodes if n not in banned_nodes or n in (a, b)}
    if a not in allowed or b not in allowed:
        return []
    adjacent: dict[int, list[int]] = {n: [] for n in allowed}
    for x, y in topo.links:
        if x in allowed and y in allowed:
            adjacent[x].append(y)
            adjacent[y].append(x)
    out: list[tuple[int, ...]] = []
    path = [a]

    def extend(node: int) -> None:
        for nxt in adjacent[node]:
            if nxt == b:
                out.append((*path, b))
            elif nxt not in path:
                path.append(nxt)
                extend(nxt)
                path.pop()

    if a != b:
        extend(a)
    return out


def _links_of(path: Sequence[int]) -> frozenset[Link]:
    return frozenset(normalized_link(x, y) for x, y in zip(path, path[1:]))


def _transit_cost(cm: CostModel, mbps: int) -> Fraction:
    return cm.transit_cost_per_mbps() * mbps


# -- stage I: working MPLS --------------------------------------------------------


def oracle_working_objective(instance: Instance, cfg: DesignConfig,
                             cm: CostModel) -> Fraction:
    """Exact optimum of the working-layer model by path enumeration."""
    nodes = instance.topology.nodes
    demands = instance.traffic.demands
    q_max = cfg.effective_q_max(instance)
    t_limit = cfg.effective_interfaces(instance)
    cap = instance.lightpath_capacity_mbps
    lp_cost = cm.lightpath_cost

    per_demand = [logical_simple_paths(nodes, d.source, d.destination)
                  for d in demands]
    best: Optional[Fraction] = None
    for combo in itertools.product(*per_demand):
        transit = Fraction(0)
        arc_loads: dict[Arc, list[int]] = {}
        for d, arcs in zip(demands, combo):
            transit += _transit_cost(cm, d.bandwidth_mbps) * (len(arcs) - 1)
            for arc in arcs:
                arc_loads.setdefault(arc, []).append(d.bandwidth_mbps)
        slots: dict[Arc, int] = {}
        ok = True
        for arc, loads in arc_loads.items():
            k = min_slots(loads, cap)
            if k is None or k > q_max:
                ok = False
                break
            slots[arc] = k
        if not ok:
            continue
        for n in nodes:
            incident = sum(c for (i, j), c in slots.items() if n in (i, j))
            if incident > t_limit:
                ok = False
                break
        if not ok:
            continue
        cost = transit + lp_cost * sum(slots.values())
        if best is None or cost < best:
            best = cost
    if best is None:
        raise AssertionError("oracle: working layer infeasible")
    return best


# -- stage II: protection MPLS (conditioned on the pipeline's stage I) -------------


def _option_rules(opt: Survivability) -> tuple[bool, str]:
    """(protect only multi-hop LSPs, physical pair disjointness)."""
    if opt is Survivability.SINGLE_LAYER:
        return False, "node-link"
    if opt is Survivability.MULTI_DOUBLE:
        return True, "none"
    if opt in (Survivability.MULTI_SPARE_UNPROTECTED,
               Survivability.MULTI_INTERLAYER_BRS):
        return True, "node"
    return True, "none"


def oracle_protection_objective(instance: Instance, cfg: DesignConfig,
                                cm: CostModel, design: Design) -> Fraction:
    """Exact optimum of the protection layer given the fixed working layer."""
    opt = cfg.survivability
    nodes = instance.topology.nodes
    q_max = cfg.effective_q_max(instance)
    t_limit = cfg.effective_interfaces(instance)
    cap = instance.lightpath_capacity_mbps
    demands = instance.traffic.demands

    work_arcs: dict[Arc, int] = {}
    for lp in design.logical.carriers():
        if lp.role is LightpathRole.WORK_CARRIER:
            work_arcs[(lp.origin, lp.termination)] = \
                work_arcs.get((lp.origin, lp.termination), 0) + 1

    working = {r.demand_id: r.working for r in design.lsp_routes}
    multi_only, _pair = _option_rules(opt)
    protected = [
        d for d in demands
        if (not multi_only) or len(working[d.id]) >= 2
    ]
    if not protected:
        return Fraction(0)

    per_demand = []
    for d in protected:
        banned = frozenset(j for (_i, j, _q) in working[d.id][:-1])
        per_demand.append(logical_simple_paths(nodes, d.source, d.destination,
                                               banned=banned))

    best: Optional[Fraction] = None
    for combo in itertools.product(*per_demand):
        transit = Fraction(0)
        arc_loads: dict[Arc, list[int]] = {}
        for d, arcs in zip(protected, combo):
            hops = len(arcs) if cfg.transit_double_count else len(arcs) - 1
            transit += _transit_cost(cm, d.bandwidth_mbps) * hops
            for arc in arcs:
                arc_loads.setdefault(arc, []).append(d.bandwidth_mbps)
        spare: dict[Arc, int] = {}
        ok = True
        for arc, loads in arc_loads.items():
            k = min_slots(loads, cap)
            if k is None or k + work_arcs.get(arc, 0) > q_max:
                ok = False
                break
            spare[arc] = k
        if not ok:
            continue
        for n in nodes:
            incident = sum(c for (i, j), c in work_arcs.items() if n in (i, j))
            incident += sum(c for (i, j), c in spare.items() if n in (i, j))
            if incident > t_limit:
                ok = False
                break
        if not ok:
            continue
        cost = transit + cm.lightpath_cost * sum(spare.values())
        if best is None or cost < best:
            best = cost
    if best is None:
        raise AssertionError("oracle: protection layer infeasible")
    return best


# -- stage III: carrier routing (conditioned on stages I-II) -----------------------


def oracle_routing_objective(instance: Instance, cfg: DesignConfig,
                             cm: CostModel, design: Design) -> Fraction:
    """Exact optimum of carrier routing given the fixed logical layer."""
    opt = cfg.survivability
    w_limit = instance.topology.wavelengths_per_link
    _multi_only, pair_strength = _option_rules(opt)

    carriers = sorted(design.logical.carriers(), key=lambda lp: lp.key)
    keys = [lp.key for lp in carriers]
    endpoints = {lp.key: (lp.origin, lp.termination) for lp in carriers}
    candidates = {
        k: physical_simple_paths(instance, endpoints[k][0], endpoints[k][1])
        for k in keys
    }

    pairs: list[tuple[LightpathKey, LightpathKey, frozenset[int]]] = []
    if pair_strength != "none":
        demand_by_id = {d.id: d for d in instance.traffic.demands}
        for r in design.lsp_routes:
            if not r.protection:
                continue
            d = demand_by_id[r.demand_id]
            exempt = frozenset((d.source, d.destination))
            for a in r.working:
                for b in r.protection:
                    pairs.append((a, b, exempt))

    pair_index: dict[LightpathKey, list[tuple[int, LightpathKey, frozenset[int]]]] = {}
    for idx, (a, b, exempt) in enumerate(pairs):
        pair_index.setdefault(a, []).append((idx, b, exempt))
        pair_index.setdefault(b, []).append((idx, a, exempt))

    lam = cm.wavelength_cost
    shortest = {
        k: min(len(p) - 1 for p in candidates[k]) if candidates[k] else None
        for k in keys
    }
    if any(shortest[k] is None for k in keys):
        raise AssertionError("oracle: carrier without any physical route")

    # order pair-constrained carriers first so conflicts prune early
    keys.sort(key=lambda k: (k not in pair_index, k))
    best: list[Optional[Fraction]] = [None]
    chosen: dict[LightpathKey, tuple[int, ...]] = {}
    usage: dict[Link, int] = {}

    def compatible(k: LightpathKey, path: tuple[int, ...]) -> bool:
        for _idx, other, exempt in pair_index.get(k, ()):
            if other not in chosen:
                continue
            q = chosen[other]
            if (set(path) & set(q)) - exempt:
                return False
            if pair_strength == "node-link" and _links_of(path) & _links_of(q):
                return False
        return True

    def lower_bound(pos: int) -> Fraction:
        return lam * sum(shortest[k] for k in keys[pos:])

    def walk(pos: int, cost: Fraction) -> None:
        if best[0] is not None and cost + lower_bound(pos) >= best[0]:
            return
        if pos == len(keys):
            best[0] = cost
            return
        k = keys[pos]
        for path in sorted(candidates[k], key=len):
            links = _links_of(path)
            if any(usage.get(l, 0) + 1 > w_limit for l in links):
                continue
            if not compatible(k, path):
                continue
            chosen[k] = path
            for l in links:
                usage[l] = usage.get(l, 0) + 1
            walk(pos + 1, cost + lam * (len(path) - 1))
            for l in links:
                usage[l] -= 1
            del chosen[k]

    walk(0, Fraction(0))
    if best[0] is None:
        raise AssertionError("oracle: carrier routing infeasible")
    return best[0]


# -- stage IV: optical protection (conditioned on stages I-III) --------------------


def oracle_optical_protection_objective(instance: Instance, cfg: DesignConfig,
                                        cm: CostModel, design: Design
                                        ) -> Fraction:
    """Exact optimum of protection-lightpath routing given fixed carriers."""
    opt = cfg.survivability
    if opt in (Survivability.NONE, Survivability.SINGLE_LAYER):
        return Fraction(0)
    brs = opt is Survivability.MULTI_INTERLAYER_BRS
    w_limit = instance.topology.wavelengths_per_link
    lam = cm.wavelength_cost

    carriers = design.logical.carriers()
    by_key = {lp.key: lp for lp in carriers}
    w1: dict[Link, int] = {}
    w2: dict[Link, int] = {}
    for lp in carriers:
        target = w1 if lp.role is LightpathRole.WORK_CARRIER else w2
        for l in lp.route_links:
            target[l] = target.get(l, 0) + 1

    protect_spares = opt is Survivability.MULTI_DOUBLE
    protected = sorted(
        lp.key for lp in carriers
        if lp.role is LightpathRole.WORK_CARRIER or protect_spares
    )
    transit_of = {key: frozenset(by_key[key].transit_nodes) for key in protected}

    # spare carriers a router failure commits, per (router, link)
    needed_by_link: dict[Link, dict[int, int]] = {}
    if brs:
        needed_sets: dict[tuple[int, Link], set[LightpathKey]] = {}
        for r in design.lsp_routes:
            for (_i, j, _q) in r.working[:-1]:
                for key in r.protection or ():
                    spare = by_key.get(key)
                    if spare is None or j in spare.route:
                        continue
                    for l in spare.route_links:
                        needed_sets.setdefault((j, l), set()).add(key)
        for (n, l), spares in needed_sets.items():
            needed_by_link.setdefault(l, {})[n] = len(spares)

    candidates: dict[LightpathKey, list[tuple[int, ...]]] = {}
    for key in protected:
        lp = by_key[key]
        own = frozenset(lp.route_links)
        opts = [
            p for p in physical_simple_paths(
                instance, lp.origin, lp.termination,
                banned_nodes=transit_of[key])
            if not (_links_of(p) & own)
        ]
        if not opts:
            raise AssertionError(f"oracle: no protection route for {key}")
        candidates[key] = sorted(opts, key=len)

    usage: dict[Link, int] = {}
    act: dict[tuple[int, Link], int] = {}
    best: list[Optional[Fraction]] = [None]

    def paid_extra(l: Link) -> int:
        x = max(0, usage.get(l, 0) - w2.get(l, 0))
        for n, cnt in needed_by_link.get(l, {}).items():
            x = max(x, act.get((n, l), 0) + cnt - w2.get(l, 0))
        return x

    def cost_now() -> Fraction:
        if brs:
            return lam * sum(paid_extra(l) for l in usage)
        return lam * sum(usage.values())

    def place(key: LightpathKey, links: frozenset[Link], sign: int) -> None:
        for l in links:
            usage[l] = usage.get(l, 0) + sign
            for n in transit_of[key]:
                act[(n, l)] = act.get((n, l), 0) + sign

    def capacity_ok(links: frozenset[Link]) -> bool:
        for l in links:
            if brs:
                if w1.get(l, 0) + w2.get(l, 0) + paid_extra(l) > w_limit:
                    return False
            elif w1.get(l, 0) + w2.get(l, 0) + usage.get(l, 0) > w_limit:
                return False
        return True

    def walk(pos: int) -> None:
        here = cost_now()
        # adding routes never reduces the cost, so equal-or-worse prunes
        if best[0] is not None and here >= best[0]:
            return
        if pos == len(protected):
            best[0] = here
            return
        key = protected[pos]
        for path in candidates[key]:
            links = _links_of(path)
            place(key, links, 1)
            if capacity_ok(links):
                walk(pos + 1)
            place(key, links, -1)

    walk(0)
    if best[0] is None:
        raise AssertionError("oracle: optical protection infeasible")
    return best[0]


# -- whole-pipeline check ----------------------------------------------------------


def oracle_stage_objectives(instance: Instance, cfg: DesignConfig,
                            cm: CostModel, design: Design) -> list[Fraction]:
    """Conditional stage optima matching the sequential pipeline's stages."""
    opt = cfg.survivability
    out = [oracle_working_objective(instance, cfg, cm)]
    if opt is not Survivability.NONE:
        out.append(oracle_protection_objective(instance, cfg, cm, design))
    out.append(oracle_routing_objective(instance, cfg, cm, design))
    if opt not in (Survivability.NONE, Survivability.SINGLE_LAYER):
        out.append(oracle_optical_protection_objective(instance, cfg, cm, design))
    return out
