"""Runs the staged optimization and turns solver output into designs.

The sequential approach chains two to four models, each consuming the decoded
results of the previous one. The integrated approach merges each MPLS stage
with its optical counterpart. Decoding is strict: a solution that does not
describe simple paths is reported as an error, never patched up. The one
exception is optical protection routes (``pr`` under every multilayer option,
``pr2`` under integrated ``double``), which decode leniently: arcs left over
once a route reaches its end are discarded. Dropping them can only relax
wavelength usage, and ``_check_accounting`` still bounds the design's total
by the stage objectives.
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from . import evaluate
from .formulation import (
    StageModel,
    build_integrated_protection,
    build_integrated_working,
    build_lightpath_protection,
    build_lightpath_routing_seq,
    build_protection_mpls,
    build_working_mpls,
    compute_protection_plan,
    route_on_shortest_paths,
)
from .milp import MilpModel, Rational, SolveStatus, Solution
from .model import (
    Approach,
    CostModel,
    Design,
    DesignConfig,
    Instance,
    InvalidInstanceError,
    Lightpath,
    LightpathKey,
    LightpathRole,
    LogicalTopology,
    LspDemand,
    LspRoute,
    StageTrace,
    Survivability,
    instance_hash,
    validate_instance,
)
from .solvers import keep_artifacts, solve

S_WORK = "working-mpls"
S_PROT = "protection-mpls"
S_ROUTE = "lightpath-routing"
S_OPROT = "lightpath-protection"
S_IWORK = "integrated-working"
S_IPROT = "integrated-protection"

MIN_BUDGET_SHARE = 0.10


class PipelineError(RuntimeError):
    pass


class SolverUnavailableError(PipelineError):
    pass


class DecodeError(PipelineError):
    pass


class StageInfeasibleError(PipelineError):
    def __init__(self, stage: str, status: str, traces: Sequence[StageTrace],
                 message: str = ""):
        self.stage = stage
        self.status = status
        self.traces = tuple(traces)
        detail = f" ({message})" if message else ""
        super().__init__(f"stage {stage!r} ended {status}{detail}")


def default_cost_model(instance: Instance) -> CostModel:
    return CostModel(lightpath_capacity_gbps=instance.lightpath_capacity_gbps)


def stage_names(cfg: DesignConfig) -> tuple[str, ...]:
    opt = cfg.survivability
    if cfg.approach.value == "integrated":
        if opt is Survivability.NONE:
            return (S_IWORK,)
        return (S_IWORK, S_IPROT)
    if opt is Survivability.NONE:
        return (S_WORK, S_ROUTE)
    if opt is Survivability.SINGLE_LAYER:
        return (S_WORK, S_PROT, S_ROUTE)
    return (S_WORK, S_PROT, S_ROUTE, S_OPROT)


def allocate_budgets(instance: Instance, cfg: DesignConfig) -> dict[str, float]:
    """Split the wall-clock limit across stages by estimated model size.

    Weights come from closed-form variable-count estimates; every stage keeps
    at least a 10% share so a cheap stage cannot be starved into timeout by a
    noisy estimate.
    """
    n = len(instance.topology.nodes)
    arcs = n * (n - 1)
    edges = len(instance.topology.links)
    k = max(1, len(instance.traffic.demands))
    q = max(1, cfg.effective_q_max(instance))
    mpls = q * arcs * (k + 1)
    optical = q * arcs * 2 * edges
    weight = {
        S_WORK: mpls,
        S_PROT: mpls,
        S_ROUTE: optical,
        S_OPROT: optical,
        S_IWORK: mpls + optical,
        S_IPROT: mpls + 3 * optical,
    }
    names = stage_names(cfg)
    total = sum(weight[s] for s in names)
    shares = {s: max(weight[s] / total, MIN_BUDGET_SHARE) for s in names}
    norm = sum(shares.values())
    return {s: cfg.time_limit_seconds * shares[s] / norm for s in names}


# -- decoding -------------------------------------------------------------------


def _is_one(values: Mapping[str, Rational], name: Optional[str]) -> bool:
    return name is not None and values.get(name, 0) == 1


def _walk(sol: Solution, sm: StageModel, family: str, head: object, start: int,
          end: int, what: str, lenient: bool = False) -> list[tuple]:
    """One flow's selected arcs, in path order from ``start`` to ``end``.

    The flow's arcs are the ``(head, *arc)`` entries of ``family`` set to 1,
    each arc a tuple whose first two entries are the nodes it leaves and
    enters. The path must be simple; arcs left over once ``end`` is reached
    are an error unless ``lenient``.
    """
    outgoing: dict[int, list[tuple]] = {}
    for key, name in sm.index.group(family, head):
        if _is_one(sol.values, name):
            outgoing.setdefault(key[1], []).append(key[1:])
    arcs = []
    visited = {start}
    cur = start
    while cur != end:
        nxt = outgoing.pop(cur, [])
        if len(nxt) != 1:
            raise DecodeError(f"{sm.stage}: {what} branches at node {cur}: "
                              f"{len(nxt)} outgoing arcs, expected 1")
        arc = nxt[0]
        cur = arc[1]
        if cur in visited:
            raise DecodeError(f"{sm.stage}: {what} revisits node {cur}")
        visited.add(cur)
        arcs.append(arc)
    if outgoing and not lenient:
        raise DecodeError(f"{sm.stage}: {what} has disconnected flow")
    return arcs


def decode_slot_path(
    sol: Solution,
    sm: StageModel,
    family: str,
    k: int,
    source: int,
    destination: int,
) -> tuple[LightpathKey, ...]:
    """Selected slot arcs of one LSP -> its ordered logical path."""
    return tuple(_walk(sol, sm, family, k, source, destination, f"LSP {k}"))


def decode_route(
    sol: Solution,
    sm: StageModel,
    family: str,
    slot: LightpathKey,
    lenient: bool = False,
) -> tuple[int, ...]:
    """Selected physical arcs of one lightpath -> its node route."""
    arcs = _walk(sol, sm, family, slot, slot[0], slot[1], f"lightpath {slot}",
                 lenient)
    return (slot[0], *(b for _a, b in arcs))


def _decode_routes(
    sol: Solution,
    sm: StageModel,
    family: str,
    slots: Sequence[LightpathKey],
    lenient: bool = False,
) -> dict[LightpathKey, tuple[int, ...]]:
    return {slot: decode_route(sol, sm, family, slot, lenient=lenient)
            for slot in slots}


def _decode_layer(
    sol: Solution, sm: StageModel, demands: Sequence[tuple[int, LspDemand]],
) -> tuple[tuple[LightpathKey, ...], dict[str, tuple[LightpathKey, ...]]]:
    """A solved MPLS layer -> its open slots and each demand's path.

    A slot variable of value n opens slots (i, j, q), ..., (i, j, q + n - 1):
    a binary opens its own slot, and a router pair's count of n opens
    (i, j, 1..n). A closed slot that holds an arc of the layer's route
    family is an error; a layer without routes has no such arcs.
    """
    layer = sm.layer
    open_slots = []
    for slot, name in sm.index.items(layer.slot):
        i, j, q = slot
        count = int(sol.values.get(name, 0))
        open_slots.extend((i, j, q + p) for p in range(count))
        if not count:
            for key, route_name in sm.index.group(layer.route, slot):
                if _is_one(sol.values, route_name):
                    raise DecodeError(
                        f"{sm.stage}: closed slot {slot} occupies fiber arc {key[1:]}"
                    )
    paths = {
        d.id: decode_slot_path(sol, sm, layer.path, k, d.source, d.destination)
        for k, d in demands
    }
    return tuple(sorted(open_slots)), paths


def _pack_pairs(
    demands: Sequence[tuple[int, LspDemand]],
    open_slots: Sequence[LightpathKey],
    pair_paths: Mapping[str, tuple[LightpathKey, ...]],
    capacity: int,
) -> Optional[dict[str, tuple[LightpathKey, ...]]]:
    """Pair-level LSP paths on the open slots of each pair, or None.

    Each router pair's riders go first-fit decreasing by bandwidth, ties by
    demand index, into the pair's open slots in slot order. None when some
    rider fits in none of them.
    """
    room: dict[tuple[int, int], list[list]] = {}
    for slot in sorted(open_slots):
        room.setdefault(slot[:2], []).append([slot, capacity])
    packed: dict[str, list[LightpathKey]] = {d.id: [] for _k, d in demands}
    for _k, d in sorted(demands, key=lambda kd: (-kd[1].bandwidth_mbps, kd[0])):
        for hop in pair_paths[d.id]:
            bin_ = next((b for b in room.get(hop[:2], ())
                         if b[1] >= d.bandwidth_mbps), None)
            if bin_ is None:
                return None
            bin_[1] -= d.bandwidth_mbps
            packed[d.id].append(bin_[0])
    return {did: tuple(path) for did, path in packed.items()}


# -- stage execution ------------------------------------------------------------

# Outcomes that do not depend on the time limit a solve ran under.
_SETTLED = frozenset({
    SolveStatus.OPTIMAL,
    SolveStatus.FEASIBLE_WITHIN_GAP,
    SolveStatus.INFEASIBLE,
    SolveStatus.UNBOUNDED,
    SolveStatus.NO_SOLVER,
})


class SolveMemo:
    """Stage solutions by model content, for runs that build the same models.

    ``solve`` takes ``solvers.solve``'s arguments and stands in for it:
    ``run_design(..., shared=memo)`` solves every stage through the memo.
    The key is the whole model (name, variables, rows, objective) plus the
    gap and the feasibility-jump switch, so a hit is an equal model solved
    the same way. A stored solution is reused only when its status does not
    depend on the time limit and its solve fits the caller's time limit;
    otherwise the caller solves the model itself and the first solution
    stays stored. A hit still writes the caller's kept artifacts.
    """

    def __init__(self) -> None:
        self._solutions: dict[tuple, Solution] = {}

    def solve(self, model: MilpModel, *, gap: float = 0.0,
              time_limit: Optional[float] = None,
              keep_dir: Optional[Path] = None,
              stage: str = "model",
              feasibility_jump: bool = True) -> Solution:
        key = (model.name, model.variables, model.constraints, model.objective_terms,
               model.objective_constant, gap, feasibility_jump)
        sol = self._solutions.get(key)
        if (sol is not None and sol.status in _SETTLED
                and (time_limit is None or sol.wall_seconds <= time_limit)):
            keep_artifacts(model, sol, keep_dir, stage)
            return sol
        sol = solve(model, gap=gap, time_limit=time_limit, keep_dir=keep_dir,
                    stage=stage, feasibility_jump=feasibility_jump)
        self._solutions.setdefault(key, sol)
        return sol


# -- materialization --------------------------------------------------------------


def _materialize(
    instance: Instance,
    cfg: DesignConfig,
    cost_model: CostModel,
    work_slots: Sequence[LightpathKey],
    spare_slots: Sequence[LightpathKey],
    working_paths: Mapping[str, tuple[LightpathKey, ...]],
    protection_paths: Mapping[str, tuple[LightpathKey, ...]],
    carrier_routes: Mapping[LightpathKey, tuple[int, ...]],
    protection_routes: Mapping[LightpathKey, tuple[int, ...]],
    traces: Sequence[StageTrace],
) -> Design:
    lightpaths = tuple(
        Lightpath(*slot, role, routes[slot])
        for role, slots, routes in (
            (LightpathRole.WORK_CARRIER, work_slots, carrier_routes),
            (LightpathRole.SPARE_CARRIER, spare_slots, carrier_routes),
            (LightpathRole.OPTICAL_PROTECTION, protection_routes,
             protection_routes),
        )
        for slot in sorted(slots)
    )
    routes = tuple(
        LspRoute(
            demand_id=d.id,
            working=working_paths[d.id],
            protection=protection_paths.get(d.id),
        )
        for d in instance.traffic.demands
    )
    logical = LogicalTopology(
        lightpaths=lightpaths,
        router_interfaces=cfg.effective_interfaces(instance),
    )
    metrics, cost = evaluate.compute_metrics(
        instance, logical.lightpaths, routes, cost_model,
        cfg.survivability, cfg.transit_double_count,
    )
    design = Design(
        instance_name=instance.name,
        instance_hash=instance_hash(instance),
        config=cfg,
        cost_model=cost_model,
        logical=logical,
        lsp_routes=routes,
        metrics=metrics,
        cost=cost,
        traces=tuple(traces),
    )
    _check_accounting(design)
    return design


def _check_accounting(design: Design) -> None:
    """Decoded-design cost must reproduce the stage objectives.

    The stage models and the design accounting are written independently; at
    gap zero their totals must agree exactly, and at any gap the decoded
    design can never cost more than what the solver reported.
    """
    exact = [t.objective_exact for t in design.traces]
    if any(e is None for e in exact):
        return
    stage_total = sum(exact, Fraction(0))
    total = design.cost.total
    if total > stage_total:
        raise PipelineError(
            f"accounting mismatch: design costs {float(total):.6g} but stages "
            f"reported {float(stage_total):.6g}"
        )
    all_optimal = all(t.status == SolveStatus.OPTIMAL.value for t in design.traces)
    if design.config.optimality_gap == 0 and all_optimal and total != stage_total:
        raise PipelineError(
            f"accounting mismatch at optimality: design {float(total):.6g} "
            f"!= stages {float(stage_total):.6g}"
        )


# -- the two approaches -----------------------------------------------------------


def _run_sequential(
    instance: Instance,
    cfg: DesignConfig,
    cost_model: CostModel,
    stage: Callable[[StageModel], Solution],
    traces: Sequence[StageTrace],
) -> Design:
    demands = tuple(enumerate(instance.traffic.demands))
    sm = build_working_mpls(instance, cfg, cost_model)
    work_slots, working_paths = _decode_layer(stage(sm), sm, demands)

    plan = compute_protection_plan(instance, cfg, working_paths)
    spare_slots: tuple[LightpathKey, ...] = ()
    protection_paths: dict[str, tuple[LightpathKey, ...]] = {}
    if cfg.survivability is not Survivability.NONE:
        sm = build_protection_mpls(
            instance, cfg, cost_model, plan, work_slots, working_paths
        )
        spare_slots, protection_paths = _decode_layer(
            stage(sm), sm, plan.indexed_demands(instance))

    sm = build_lightpath_routing_seq(
        instance, cost_model, work_slots, spare_slots,
        plan, working_paths, protection_paths,
    )
    sol = stage(sm)
    carrier_routes = _decode_routes(sol, sm, "wr", work_slots)
    carrier_routes.update(_decode_routes(sol, sm, "sr", spare_slots))

    protection_routes: dict[LightpathKey, tuple[int, ...]] = {}
    if cfg.survivability.multilayer:
        sm = build_lightpath_protection(
            instance, cost_model, plan, carrier_routes,
            work_slots, spare_slots, working_paths, protection_paths,
        )
        sol = stage(sm)
        protection_routes = _decode_routes(
            sol, sm, "pr", plan.protected_carriers(work_slots, spare_slots),
            lenient=True,
        )

    return _materialize(
        instance, cfg, cost_model, work_slots, spare_slots,
        working_paths, protection_paths, carrier_routes, protection_routes,
        traces,
    )


def _run_integrated(
    instance: Instance,
    cfg: DesignConfig,
    cost_model: CostModel,
    stage: Callable[..., Solution],
    traces: list[StageTrace],
) -> Design:
    """Stage I with its routes, then, if the option asks, stage II.

    Without protection no later stage reads the routes, so stage I first
    solves the route-free relaxation of ``integrated-working`` over router
    pairs, packs each pair's LSPs into its open slots and routes every open
    slot on its shortest path. If the LSPs pack and the routes fit every
    link, the design attains the relaxation's bound and is optimal for the
    full model; at a nonzero gap the reported gap is against that bound, so
    it overstates the true gap. Otherwise the full model is solved with what
    is left of the stage budget, and its trace replaces the relaxation's.

    HiGHS solves the relaxation without its feasibility-jump heuristic, whose
    incumbents on these models are far above the optimum and which costs
    about a third of the solve. Which optimal point the search returns
    decides only whether the certificate holds, never the total: the bound
    is the relaxation's optimum either way, and a miss falls back to the
    full model. Every other model is solved with ``milp``'s options.
    """
    demands = tuple(enumerate(instance.traffic.demands))
    carrier_routes = None
    budget = None
    if cfg.survivability is Survivability.NONE:
        sm = build_integrated_working(instance, cfg, cost_model, relaxed=True)
        sol = stage(sm, feasibility_jump=False)
        work_slots, pair_paths = _decode_layer(sol, sm, demands)
        working_paths = _pack_pairs(demands, work_slots, pair_paths,
                                    instance.lightpath_capacity_mbps)
        if working_paths is not None:
            carrier_routes = route_on_shortest_paths(instance.topology,
                                                     work_slots)
        if carrier_routes is None:
            relaxation = traces.pop()
            budget = max(0.0, relaxation.time_budget_seconds
                         - relaxation.wall_seconds)
    if carrier_routes is None:
        sm = build_integrated_working(instance, cfg, cost_model)
        sol = stage(sm, budget)
        work_slots, working_paths = _decode_layer(sol, sm, demands)
        carrier_routes = _decode_routes(sol, sm, "wr", work_slots)

    spare_slots: tuple[LightpathKey, ...] = ()
    protection_paths: dict[str, tuple[LightpathKey, ...]] = {}
    protection_routes: dict[LightpathKey, tuple[int, ...]] = {}
    if cfg.survivability is not Survivability.NONE:
        plan = compute_protection_plan(instance, cfg, working_paths)
        sm = build_integrated_protection(
            instance, cfg, cost_model, plan, work_slots, working_paths,
            carrier_routes,
        )
        sol = stage(sm)
        spare_slots, protection_paths = _decode_layer(
            sol, sm, plan.indexed_demands(instance))
        carrier_routes.update(_decode_routes(sol, sm, "sr", spare_slots))
        protection_routes = _decode_routes(
            sol, sm, "pr", plan.protected_carriers(work_slots, ()), lenient=True
        )
        if plan.protect_spare_carriers:
            protection_routes.update(
                _decode_routes(sol, sm, "pr2", spare_slots, lenient=True)
            )

    return _materialize(
        instance, cfg, cost_model, work_slots, spare_slots,
        working_paths, protection_paths, carrier_routes, protection_routes,
        traces,
    )


def _run(
    instance: Instance,
    cfg: DesignConfig,
    cost_model: CostModel,
    keep_dir: Optional[Path],
    shared: Optional[SolveMemo],
    budgets: Mapping[str, float],
) -> Design:
    traces: list[StageTrace] = []
    solver = solve if shared is None else shared.solve

    def stage(sm: StageModel, budget: Optional[float] = None,
              feasibility_jump: bool = True) -> Solution:
        if budget is None:
            budget = budgets[sm.stage]
        m = sm.model
        sol = solver(m, gap=cfg.optimality_gap, time_limit=budget,
                     keep_dir=keep_dir, stage=sm.stage,
                     feasibility_jump=feasibility_jump)
        exact = m.objective_value(sol.values) if sol.status.has_solution else None
        traces.append(StageTrace(
            stage=sm.stage,
            variables=len(m.variables),
            constraints=len(m.constraints),
            status=sol.status.value,
            objective=sol.objective,
            objective_exact=exact,
            gap=sol.gap,
            wall_seconds=sol.wall_seconds,
            time_budget_seconds=budget,
            solver=sol.solver_name,
            node_count=sol.node_count,
            dual_bound=sol.dual_bound,
        ))
        if sol.status is SolveStatus.NO_SOLVER:
            raise SolverUnavailableError(sol.message or "no MILP solver available")
        if not sol.status.has_solution:
            raise StageInfeasibleError(sm.stage, sol.status.value, traces,
                                       sol.message)
        return sol

    runner = (_run_integrated if cfg.approach is Approach.INTEGRATED
              else _run_sequential)
    return runner(instance, cfg, cost_model, stage, traces)


def run_design(
    instance: Instance,
    cfg: DesignConfig,
    cost_model: Optional[CostModel] = None,
    keep_artifacts_dir: Optional[Path] = None,
    shared: Optional[SolveMemo] = None,
) -> Design:
    """Validate, optimize stage by stage, decode, and account.

    With ``keep_artifacts_dir``, each stage's model text (``<stage>.mps``,
    the MPS text HiGHS read), metadata and solution are written there under
    the stage's name.

    With ``shared``, a stage model already solved through the same memo,
    by this run or another, is not solved again (see ``SolveMemo``).

    With ``auto_grow_q`` set, an infeasible stage is retried once with one
    more parallel lightpath slot per node pair. The retry's stages share only
    the time left of the limit.
    """
    start = time.perf_counter()
    violations = validate_instance(instance, cfg)
    if violations:
        raise InvalidInstanceError(violations)
    cm = cost_model if cost_model is not None else default_cost_model(instance)
    try:
        return _run(instance, cfg, cm, keep_artifacts_dir, shared,
                    allocate_budgets(instance, cfg))
    except StageInfeasibleError:
        remaining = cfg.time_limit_seconds - (time.perf_counter() - start)
        if not cfg.auto_grow_q or remaining <= 0:
            raise
    grown = cfg.grown(instance)
    budgets = allocate_budgets(
        instance, replace(grown, time_limit_seconds=remaining))
    return _run(instance, grown, cm, keep_artifacts_dir, shared, budgets)
