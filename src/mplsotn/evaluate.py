"""Design verification, cost accounting, and failure drills.

Everything here works from the finished design alone (routes, roles,
metrics). Nothing is shared with the stage-model builders, so a bug in the
optimization models cannot hide itself: the verifier recomputes every number
from first principles and the drill replays failures against the routed
topology.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .model import (
    CostBreakdown,
    CostModel,
    Design,
    FailureEvent,
    FailureKind,
    Instance,
    Lightpath,
    LightpathKey,
    LightpathRole,
    LinkWavelengths,
    Link,
    LspRoute,
    Metrics,
    Survivability,
    Violation,
    instance_hash,
    normalized_link,
)


def logical_intermediates(path: Sequence[LightpathKey]) -> tuple[int, ...]:
    """Routers where an LSP leaves one lightpath and enters the next."""
    return tuple(j for (_i, j, _q) in path[:-1])


def logical_nodes(path: Sequence[LightpathKey]) -> tuple[int, ...]:
    if not path:
        return ()
    return (path[0][0],) + tuple(j for (_i, j, _q) in path)


# -- traffic and wavelength accounting ----------------------------------------


def transit_traffic(
    instance: Instance, routes: Sequence[LspRoute], double_count: bool = False
) -> tuple[dict[int, int], int]:
    """Mbps each router forwards between lightpaths, and the total.

    A working path of h lightpaths forwards its bandwidth at h-1 routers.
    Protection paths count the same way; with ``double_count`` set, a
    protection path's arrival at the destination is booked as transit too.
    A router the instance lacks is booked too, so a recount of an unverified
    design reports it instead of failing.
    """
    per_node: dict[int, int] = {n: 0 for n in instance.topology.nodes}
    demand_by_id = {d.id: d for d in instance.traffic.demands}
    for r in routes:
        d = demand_by_id[r.demand_id]
        hops = logical_intermediates(r.working)
        if r.protection:
            hops += logical_intermediates(r.protection)
            if double_count:
                hops += (d.destination,)
        for n in hops:
            per_node[n] = per_node.get(n, 0) + d.bandwidth_mbps
    return per_node, sum(per_node.values())


def _route_link_pairs(route: Sequence[int]) -> tuple[Link, ...]:
    # tolerant counterpart of Lightpath.route_links: accounting over
    # unverified documents must not trip over degenerate hops
    return tuple(normalized_link(a, b)
                 for a, b in zip(route, route[1:]) if a != b)


def _brs_draw(
    lightpaths: Sequence[Lightpath], routes: Sequence[LspRoute]
) -> dict[tuple[int, Link], int]:
    """Per (router, link), what one router failure pulls on spare-side capacity.

    A router failure fires the protection lightpaths of carriers transiting
    its OXC and, for LSPs transiting the router itself, the spare carriers
    under their protection paths. Both draws land on the same wavelengths,
    so the booked extra must cover their joint count.
    """
    carriers = {
        lp.key: lp for lp in lightpaths
        if lp.role is not LightpathRole.OPTICAL_PROTECTION
    }
    draw: dict[tuple[int, Link], int] = {}
    for plp in lightpaths:
        if plp.role is not LightpathRole.OPTICAL_PROTECTION:
            continue
        carrier = carriers.get(plp.key)
        if carrier is None:
            continue
        for n in carrier.route[1:-1]:
            if n in plp.route:
                continue
            for link in _route_link_pairs(plp.route):
                draw[(n, link)] = draw.get((n, link), 0) + 1
    needed: dict[tuple[int, Link], set[LightpathKey]] = {}
    for r in routes:
        if not r.protection:
            continue
        for n in logical_intermediates(r.working):
            for key in r.protection:
                spare = carriers.get(key)
                if spare is None or n in spare.route:
                    continue
                for link in _route_link_pairs(spare.route):
                    needed.setdefault((n, link), set()).add(key)
    for (n, link), spares in needed.items():
        draw[(n, link)] = draw.get((n, link), 0) + len(spares)
    return draw


def _brs_peak_draw(
    lightpaths: Sequence[Lightpath], routes: Sequence[LspRoute]
) -> dict[Link, int]:
    """Per link, the worst single-router-failure draw of ``_brs_draw``."""
    peak: dict[Link, int] = {}
    for (_n, link), count in _brs_draw(lightpaths, routes).items():
        peak[link] = max(peak.get(link, 0), count)
    return peak


def _link_ledger(
    instance: Instance,
    lightpaths: Sequence[Lightpath],
    routes: Sequence[LspRoute],
    brs: bool,
) -> tuple[LinkWavelengths, ...]:
    """Per link: work carriers, spare carriers, protection demand, paid extra."""
    counts: dict[Link, list[int]] = {
        link: [0, 0, 0] for link in instance.topology.links
    }
    column = {LightpathRole.WORK_CARRIER: 0, LightpathRole.SPARE_CARRIER: 1}
    for lp in lightpaths:
        for link in _route_link_pairs(lp.route):
            if link in counts:
                counts[link][column.get(lp.role, 2)] += 1
    peak = _brs_peak_draw(lightpaths, routes) if brs else {}
    out = []
    for link in instance.topology.links:
        w1, w2, p = counts[link]
        extra = max(0, p - w2, peak.get(link, 0) - w2) if brs else 0
        out.append(LinkWavelengths(link, w1, w2, p, extra))
    return tuple(out)


def wavelength_usage(instance: Instance, design: Design) -> tuple[LinkWavelengths, ...]:
    """Per-link wavelength ledger: carriers, protection demand, paid extra."""
    brs = design.config.survivability is Survivability.MULTI_INTERLAYER_BRS
    return _link_ledger(instance, design.logical.lightpaths, design.lsp_routes, brs)


def reuse_factor(per_link: Sequence[LinkWavelengths], brs: bool) -> Optional[Fraction]:
    """Fraction of optical-protection demand served from the spare pool."""
    if not brs:
        return None
    extra = sum(lw.extra for lw in per_link)
    pool = sum(lw.spare_carrier for lw in per_link)
    if extra == 0:
        return Fraction(1)
    if pool == 0:
        return Fraction(0)
    return max(Fraction(0), 1 - Fraction(extra, pool))


def cost_breakdown(
    transit_mbps: int,
    lightpath_count: int,
    wavelength_total: int,
    cost_model: CostModel,
) -> CostBreakdown:
    return CostBreakdown(
        transit=cost_model.transit_cost_per_mbps() * transit_mbps,
        mpls=cost_model.lightpath_cost * lightpath_count,
        optical=cost_model.wavelength_cost * wavelength_total,
    )


def compute_metrics(
    instance: Instance,
    logical_lightpaths: Sequence[Lightpath],
    routes: Sequence[LspRoute],
    cost_model: CostModel,
    survivability: Survivability,
    double_count: bool = False,
) -> tuple[Metrics, CostBreakdown]:
    """Full accounting for a routed design (used to materialize designs)."""
    brs = survivability is Survivability.MULTI_INTERLAYER_BRS
    per_node, total_transit = transit_traffic(instance, routes, double_count)

    per_link = _link_ledger(instance, logical_lightpaths, routes, brs)
    roles = [lp.role for lp in logical_lightpaths]
    n_work = roles.count(LightpathRole.WORK_CARRIER)
    n_spare = roles.count(LightpathRole.SPARE_CARRIER)

    metrics = Metrics(
        transit_mbps_per_node=tuple(sorted(per_node.items())),
        transit_total_mbps=total_transit,
        working_lightpaths=n_work,
        spare_lightpaths=n_spare,
        protection_lightpaths=len(roles) - n_work - n_spare,
        wavelengths_per_link=per_link,
        wavelength_total=sum(lw.total(brs) for lw in per_link),
        extra_wavelengths=sum(lw.extra for lw in per_link),
        spare_wavelengths=sum(lw.spare_carrier for lw in per_link),
        reuse_factor=reuse_factor(per_link, brs),
    )
    cost = cost_breakdown(
        total_transit, metrics.lightpath_count, metrics.wavelength_total, cost_model
    )
    return metrics, cost


# -- verification --------------------------------------------------------------


def _check_logical_path(
    path: Sequence[LightpathKey], source: int, destination: int
) -> Optional[str]:
    """None if the slot sequence is a simple logical source->dest path."""
    if not path:
        return "empty path"
    if path[0][0] != source:
        return f"starts at {path[0][0]}, demand source is {source}"
    if path[-1][1] != destination:
        return f"ends at {path[-1][1]}, demand destination is {destination}"
    for (a, b) in zip(path, path[1:]):
        if a[1] != b[0]:
            return f"hop {a} does not chain into {b}"
    nodes = logical_nodes(path)
    if len(set(nodes)) != len(nodes):
        return "revisits a router"
    return None


def _check_physical_route(
    instance: Instance, lp: Lightpath
) -> Optional[str]:
    if len(lp.route) < 2:
        return "route missing"
    if lp.route[0] != lp.origin or lp.route[-1] != lp.termination:
        return f"route endpoints {lp.route[0]}..{lp.route[-1]} do not match {lp.origin}->{lp.termination}"
    if len(set(lp.route)) != len(lp.route):
        return "route revisits a node"
    for a, b in zip(lp.route, lp.route[1:]):
        if not instance.topology.has_link(a, b):
            return f"no physical link {a}-{b}"
    return None


def _demand_footprint(
    path: Sequence[LightpathKey], by_key: Mapping[LightpathKey, Lightpath]
) -> tuple[set[int], set[Link]]:
    """Physical nodes and links under the known lightpaths of a logical path."""
    nodes: set[int] = set()
    links: set[Link] = set()
    for key in path:
        lp = by_key.get(key)
        if lp:
            nodes.update(lp.route)
            links.update(_route_link_pairs(lp.route))
    return nodes, links


def verify_design(instance: Instance, design: Design) -> tuple[Violation, ...]:
    """Every structural, capacity, protection, and accounting rule, rechecked.

    Returns all violations found, each with a stable code. An empty result
    means the design is internally consistent and satisfies its survivability
    option's rules against this instance.
    """
    v: list[Violation] = []
    opt = design.config.survivability
    brs = opt is Survivability.MULTI_INTERLAYER_BRS
    topo = instance.topology
    demands = instance.traffic.demands
    demand_by_id = {d.id: d for d in demands}
    cap = instance.lightpath_capacity_mbps
    q_max = design.config.effective_q_max(instance)
    t_limit = design.config.effective_interfaces(instance)

    if design.instance_hash != instance_hash(instance):
        v.append(Violation("instance-mismatch",
                           "design was built for a different instance"))
    if design.instance_name != instance.name:
        v.append(Violation("instance-mismatch",
                           f"design names instance {design.instance_name!r}, "
                           f"not {instance.name!r}"))
    if design.logical.router_interfaces != t_limit:
        v.append(Violation("interface-limit-mismatch",
                           f"design declares {design.logical.router_interfaces} "
                           f"interfaces per router, the instance allows {t_limit}"))

    carriers = design.logical.carriers()
    protections = design.logical.protection_lightpaths()
    by_key: dict[LightpathKey, Lightpath] = {}
    for lp in carriers:
        if lp.key in by_key:
            v.append(Violation("duplicate-lightpath",
                               f"two carriers share slot {lp.key}"))
        by_key[lp.key] = lp
    prot_by_key: dict[LightpathKey, Lightpath] = {}
    for lp in protections:
        if lp.key in prot_by_key:
            v.append(Violation("duplicate-lightpath",
                               f"two protection lightpaths share slot {lp.key}"))
        prot_by_key[lp.key] = lp
        if lp.key not in by_key:
            v.append(Violation("orphan-protection-lightpath",
                               f"protection lightpath {lp.key} protects nothing"))

    for lp in design.logical.lightpaths:
        i, j, q = lp.key
        if i == j or i not in topo.nodes or j not in topo.nodes:
            v.append(Violation("bad-lightpath-endpoints",
                               f"lightpath {lp.key} endpoints invalid"))
            continue
        if not (1 <= q <= q_max):
            v.append(Violation("slot-overflow",
                               f"lightpath {lp.key} exceeds {q_max} parallel slots"))
        err = _check_physical_route(instance, lp)
        if err:
            v.append(Violation("bad-route", f"lightpath {lp.key}: {err}"))

    # logical routing of every demand
    seen_ids = set()
    for r in design.lsp_routes:
        if r.demand_id in seen_ids:
            v.append(Violation("duplicate-route",
                               f"demand {r.demand_id} routed twice"))
        seen_ids.add(r.demand_id)
        if r.demand_id not in demand_by_id:
            v.append(Violation("unknown-demand-route",
                               f"route for unknown demand {r.demand_id}"))
            continue
        d = demand_by_id[r.demand_id]
        for label, rider, path, role in (
            ("working", "", r.working, LightpathRole.WORK_CARRIER),
            ("protection", " protection", r.protection, LightpathRole.SPARE_CARRIER),
        ):
            if path is None:
                continue
            err = _check_logical_path(path, d.source, d.destination)
            if err:
                v.append(Violation("broken-path",
                                   f"demand {d.id} {label} path: {err}"))
            for key in path:
                lp = by_key.get(key)
                if lp is None:
                    v.append(Violation("unknown-lightpath",
                                       f"demand {d.id}{rider} rides missing lightpath {key}"))
                elif lp.role is not role:
                    v.append(Violation("wrong-carrier-role",
                                       f"demand {d.id} {label} path rides {lp.role.value} {key}"))
        if r.protection is not None:
            if set(r.working) & set(r.protection):
                v.append(Violation("shared-slot",
                                   f"demand {d.id} uses a slot on both paths"))
            shared = set(logical_intermediates(r.working)) & set(
                logical_nodes(r.protection))
            if shared:
                v.append(Violation(
                    "protection-transits-working-router",
                    f"demand {d.id} protection path touches router(s) {sorted(shared)} "
                    f"of its working path",
                ))
    for d in demands:
        if d.id not in seen_ids:
            v.append(Violation("missing-route", f"demand {d.id} is not routed"))

    # option coverage
    multi_hop = {
        r.demand_id for r in design.lsp_routes if len(r.working) >= 2
    }
    if opt is Survivability.NONE:
        if any(r.protection for r in design.lsp_routes):
            v.append(Violation("unexpected-protection",
                               "unprotected design carries protection paths"))
        if any(lp.role is not LightpathRole.WORK_CARRIER
               for lp in design.logical.lightpaths):
            v.append(Violation("unexpected-protection",
                               "unprotected design carries non-working lightpaths"))
    elif opt is Survivability.SINGLE_LAYER:
        for r in design.lsp_routes:
            if not r.protection:
                v.append(Violation("missing-protection",
                                   f"demand {r.demand_id} has no protection path"))
        if protections:
            v.append(Violation("unexpected-protection",
                               "single-layer design carries optical protection"))
    else:
        for r in design.lsp_routes:
            if r.demand_id in multi_hop and not r.protection:
                v.append(Violation("missing-protection",
                                   f"multi-hop demand {r.demand_id} has no protection path"))
            if r.demand_id not in multi_hop and r.protection:
                v.append(Violation("unexpected-protection",
                                   f"single-hop demand {r.demand_id} has a protection path"))
        protect_spares = opt is Survivability.MULTI_DOUBLE
        for lp in carriers:
            needs = (lp.role is LightpathRole.WORK_CARRIER) or protect_spares
            has = lp.key in prot_by_key
            if needs and not has:
                v.append(Violation("missing-protection-lightpath",
                                   f"carrier {lp.key} has no protection lightpath"))
            if has and not needs:
                v.append(Violation("unexpected-protection",
                                   f"carrier {lp.key} must not be optically protected"))

    # grooming capacity, per carrier
    load: dict[LightpathKey, int] = {lp.key: 0 for lp in carriers}
    for r in design.lsp_routes:
        if r.demand_id not in demand_by_id:
            continue
        b = demand_by_id[r.demand_id].bandwidth_mbps
        for key in (*r.working, *(r.protection or ())):
            if key in load:
                load[key] += b
    for key, used in load.items():
        if used > cap:
            v.append(Violation("grooming-overflow",
                               f"carrier {key} carries {used} of {cap} Mbps"))

    # interface limit, both directions together
    for node in topo.nodes:
        incident = sum(1 for lp in carriers if node in (lp.origin, lp.termination))
        if incident > t_limit:
            v.append(Violation("interface-overflow",
                               f"node {node} terminates {incident} carriers, limit {t_limit}"))

    # optical protection geometry
    for lp in protections:
        carrier = by_key.get(lp.key)
        if carrier is None:
            continue
        shared_links = (set(_route_link_pairs(lp.route))
                        & set(_route_link_pairs(carrier.route)))
        if shared_links:
            v.append(Violation("protection-shares-link",
                               f"protection of {lp.key} shares fiber {sorted(shared_links)}"))
        shared_nodes = set(lp.route) & set(carrier.transit_nodes)
        if shared_nodes:
            v.append(Violation("protection-shares-node",
                               f"protection of {lp.key} crosses its carrier's OXC(s) {sorted(shared_nodes)}"))

    # physical disjointness between each demand's two paths
    pairwise = ("node-link" if opt is Survivability.SINGLE_LAYER
                else "node" if opt in (Survivability.MULTI_SPARE_UNPROTECTED,
                                       Survivability.MULTI_INTERLAYER_BRS)
                else "none")
    if pairwise != "none":
        for r in design.lsp_routes:
            if not r.protection or r.demand_id not in demand_by_id:
                continue
            d = demand_by_id[r.demand_id]
            wn, wl = _demand_footprint(r.working, by_key)
            pn, pl = _demand_footprint(r.protection, by_key)
            shared = (wn & pn) - {d.source, d.destination}
            if shared:
                v.append(Violation("paths-share-node",
                                   f"demand {d.id} paths share node(s) {sorted(shared)}"))
            if pairwise == "node-link" and wl & pl:
                v.append(Violation("paths-share-link",
                                   f"demand {d.id} paths share link(s) {sorted(wl & pl)}"))

    # the ledger recounted from the lightpaths and routes; routes for demands
    # the instance does not know are already flagged above and cannot be priced
    known_routes = tuple(r for r in design.lsp_routes if r.demand_id in demand_by_id)
    metrics, cost = compute_metrics(
        instance, design.logical.lightpaths, known_routes,
        design.cost_model, opt, design.config.transit_double_count,
    )

    # shared restoration: a router failure fires protection lightpaths and
    # MPLS recovery together; their joint wavelength draw has to fit the
    # spare carriers the design has plus the extra it pays for on every link.
    # The extra is the declared one: a recounted extra covers every draw by
    # construction, so only the declared one can fall short
    if brs:
        pool = {lw.link: lw.spare_carrier for lw in metrics.wavelengths_per_link}
        paid = {lw.link: lw.extra for lw in design.metrics.wavelengths_per_link}
        draw = _brs_draw(design.logical.lightpaths, design.lsp_routes)
        for (n, link), count in sorted(draw.items()):
            covered = pool.get(link, 0) + paid.get(link, 0)
            if count > covered:
                v.append(Violation(
                    "brs-pool-conflict",
                    f"node {n} failing draws {count} wavelengths on link "
                    f"{link} but the pool plus extra covers {covered}",
                ))

    # wavelength capacity, and declared metrics and cost, against the recount
    for lw in metrics.wavelengths_per_link:
        if lw.total(brs) > topo.wavelengths_per_link:
            v.append(Violation("wavelength-overflow",
                               f"link {lw.link} needs {lw.total(brs)} of "
                               f"{topo.wavelengths_per_link} wavelengths"))
    for field in fields(Metrics):
        declared = getattr(design.metrics, field.name)
        recount = getattr(metrics, field.name)
        if declared != recount:
            v.append(Violation("metrics-mismatch",
                               f"{field.name}: declared {declared!r}, "
                               f"recomputed {recount!r}"))
    for field in fields(CostBreakdown):
        declared = getattr(design.cost, field.name)
        recount = getattr(cost, field.name)
        if declared != recount:
            v.append(Violation("cost-mismatch",
                               f"{field.name} cost: declared {declared}, "
                               f"recomputed {recount}"))
    return tuple(v)


# -- failure drill --------------------------------------------------------------


@dataclass(frozen=True)
class EventOutcome:
    event: FailureEvent
    affected: tuple[str, ...]
    lost_by_definition: tuple[str, ...]
    optical_recovered: tuple[LightpathKey, ...]
    mpls_recovered: tuple[str, ...]
    unrestored: tuple[str, ...]
    contention: tuple[Link, ...]

    @property
    def restorable(self) -> bool:
        return not self.unrestored and not self.contention


@dataclass(frozen=True)
class DrillReport:
    outcomes: tuple[EventOutcome, ...]

    @property
    def all_restorable(self) -> bool:
        return all(o.restorable for o in self.outcomes)

    def failures(self) -> tuple[EventOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.restorable)

    def summary(self) -> dict:
        return {
            "events": len(self.outcomes),
            "restorable_events": sum(1 for o in self.outcomes if o.restorable),
            "unrestored_pairs": sum(len(o.unrestored) for o in self.outcomes),
            "contention_events": sum(1 for o in self.outcomes if o.contention),
        }


def failure_events(instance: Instance, design: Design) -> tuple[FailureEvent, ...]:
    """One event per fiber link, per node site, per carrier termination."""
    events: list[FailureEvent] = []
    for link in instance.topology.links:
        events.append(FailureEvent(kind=FailureKind.LINK, link=link))
    for node in instance.topology.nodes:
        events.append(FailureEvent(kind=FailureKind.NODE, node=node))
    for lp in design.logical.carriers():
        for end in (lp.origin, lp.termination):
            events.append(FailureEvent(kind=FailureKind.INTERFACE,
                                       lightpath=lp.key, end=end))
    return tuple(events)


def _carrier_dead(lp: Lightpath, event: FailureEvent) -> bool:
    if event.kind is FailureKind.LINK:
        return event.link in _route_link_pairs(lp.route)
    if event.kind is FailureKind.NODE:
        return event.node in lp.route
    return event.lightpath == lp.key


def _endpoint_dead(lp: Lightpath, event: FailureEvent) -> bool:
    # a site failure takes the termination equipment with it; an interface
    # failure only kills the transponder, which optical recovery replaces
    return event.kind is FailureKind.NODE and event.node in (lp.origin, lp.termination)


def drill_event(
    instance: Instance,
    design: Design,
    event: FailureEvent,
    ledger: Optional[Sequence[LinkWavelengths]] = None,
) -> EventOutcome:
    """One failure replayed against the design.

    Under shared restoration the spare pool and paid extra of each link come
    from ``ledger``, by default ``wavelength_usage``'s recount of the
    design's routes, never from its declared metrics.
    """
    brs = design.config.survivability is Survivability.MULTI_INTERLAYER_BRS
    demand_by_id = {d.id: d for d in instance.traffic.demands}
    carriers = design.logical.carriers()
    by_key = {lp.key: lp for lp in carriers}
    # the first protection lightpath of a slot wins; the verifier flags the rest
    protection = {lp.key: lp for lp in reversed(design.logical.protection_lightpaths())}

    dead = {lp.key for lp in carriers if _carrier_dead(lp, event)}
    recovered: set[LightpathKey] = set()
    activated_plps: list[Lightpath] = []
    for key in sorted(dead):
        lp = by_key[key]
        if _endpoint_dead(lp, event):
            continue
        plp = protection.get(key)
        # an interface failure leaves the protection lightpath's route intact
        if plp is not None and (event.kind is FailureKind.INTERFACE
                                or not _carrier_dead(plp, event)):
            recovered.add(key)
            activated_plps.append(plp)

    def alive(key: LightpathKey) -> bool:
        return key not in dead or key in recovered

    affected: list[str] = []
    lost: list[str] = []
    mpls_recovered: list[str] = []
    unrestored: list[str] = []
    needed_spares: set[LightpathKey] = set()
    failed_node = event.node if event.kind is FailureKind.NODE else None

    for r in design.lsp_routes:
        d = demand_by_id.get(r.demand_id)
        if d is None:  # the verifier reports a route for an unknown demand
            continue
        if failed_node is not None and failed_node in (d.source, d.destination):
            lost.append(d.id)
            continue
        # failed_node is None unless a site failed, and no route visits None
        if (all(alive(key) for key in r.working)
                and failed_node not in logical_intermediates(r.working)):
            continue
        affected.append(d.id)
        if (r.protection and failed_node not in logical_nodes(r.protection)
                and all(alive(key) for key in r.protection)):
            mpls_recovered.append(d.id)
            needed_spares.update(r.protection)
        else:
            unrestored.append(d.id)

    contention: list[Link] = []
    if brs and (activated_plps or needed_spares):
        if ledger is None:
            ledger = wavelength_usage(instance, design)
        usage = {lw.link: lw for lw in ledger}
        for link in instance.topology.links:
            n_plp = sum(1 for plp in activated_plps
                        if link in _route_link_pairs(plp.route))
            n_spare = sum(
                1 for key in needed_spares
                if key in by_key and link in _route_link_pairs(by_key[key].route)
            )
            lw = usage.get(link)
            available = (lw.spare_carrier + lw.extra) if lw else 0
            if n_plp + n_spare > available:
                contention.append(link)

    return EventOutcome(
        event=event,
        affected=tuple(affected),
        lost_by_definition=tuple(lost),
        optical_recovered=tuple(sorted(recovered)),
        mpls_recovered=tuple(mpls_recovered),
        unrestored=tuple(unrestored),
        contention=tuple(contention),
    )


def failure_drill(instance: Instance, design: Design) -> DrillReport:
    """Replay every single-failure event against the design."""
    ledger = wavelength_usage(instance, design)
    return DrillReport(
        outcomes=tuple(
            drill_event(instance, design, ev, ledger)
            for ev in failure_events(instance, design)
        )
    )
