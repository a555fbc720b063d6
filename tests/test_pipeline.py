"""Pipeline tests: staged runs, budgets, decoding, manifests, serialization.

Every pinned total in here was reproduced by tests/oracle.py enumeration
before being written down.
"""

import dataclasses
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from mplsotn import pipeline, solvers
from mplsotn.evaluate import verify_design
from mplsotn.formulation import (
    WORKING,
    StageModel,
    VarIndex,
    build_integrated_working,
)
from mplsotn.instances import generate_instance
from mplsotn.milp import MilpModel, Solution, SolveStatus, VarKind
from mplsotn.model import (
    Approach,
    DesignConfig,
    Instance,
    LspDemand,
    PhysicalTopology,
    Survivability,
    TrafficMatrix,
)
from mplsotn.pipeline import (
    DecodeError,
    SolveMemo,
    SolverUnavailableError,
    StageInfeasibleError,
    allocate_budgets,
    decode_route,
    decode_slot_path,
    default_cost_model,
    run_design,
    stage_names,
)
from mplsotn.model import InvalidInstanceError, instance_hash
from mplsotn.serialize import (
    design_from_dict,
    design_to_dict,
    load_design,
    manifest_dict,
    save_design,
)

import support
from support import OPTIONS, cached_design, exact_config


# (instance fixture name, option) -> (total, per-stage optima)
PINNED = {
    ("ring4", Survivability.NONE): (23, [17, 6]),
    ("ring4", Survivability.SINGLE_LAYER): (46, [17, 17, 12]),
    ("ring4", Survivability.MULTI_DOUBLE): (29, [17, 0, 6, 6]),
    ("ring4", Survivability.MULTI_SPARE_UNPROTECTED): (29, [17, 0, 6, 6]),
    ("ring4", Survivability.MULTI_INTERLAYER_BRS): (29, [17, 0, 6, 6]),
    ("ring4-chord", Survivability.NONE): (20, [17, 3]),
    ("ring4-chord", Survivability.SINGLE_LAYER): (43, [17, 17, 9]),
    ("ring4-chord", Survivability.MULTI_DOUBLE): (26, [17, 0, 3, 6]),
    ("ring4-chord", Survivability.MULTI_SPARE_UNPROTECTED): (26, [17, 0, 3, 6]),
    ("ring4-chord", Survivability.MULTI_INTERLAYER_BRS): (26, [17, 0, 3, 6]),
    ("ring5-chord", Survivability.NONE): (46, [34, 12]),
    ("ring5-chord", Survivability.SINGLE_LAYER): (98, [34, 34, 30]),
    ("ring5-chord", Survivability.MULTI_DOUBLE): (64, [34, 0, 12, 18]),
    ("ring5-chord", Survivability.MULTI_SPARE_UNPROTECTED): (64, [34, 0, 12, 18]),
    ("ring5-chord", Survivability.MULTI_INTERLAYER_BRS): (64, [34, 0, 12, 18]),
}


@pytest.mark.parametrize("name,option", sorted(PINNED, key=str))
def test_desk_totals_and_stage_objectives(name, option):
    total, stages = PINNED[(name, option)]
    design = cached_design(support.desk(name), exact_config(option))
    assert design.cost.total == Fraction(total)
    assert [t.objective_exact for t in design.traces] == [Fraction(s) for s in stages]


@pytest.mark.parametrize("name,option", sorted(PINNED, key=str))
def test_accounting_equality_at_gap_zero(name, option):
    # design-side pricing and stage objectives are computed independently;
    # at gap zero they must agree to the last fraction
    design = cached_design(support.desk(name), exact_config(option))
    assert design.cost.total == sum(t.objective_exact for t in design.traces)
    assert all(t.status == "optimal" for t in design.traces)


def _with_first_stage_off_by(design, delta, **config):
    first, *rest = design.traces
    return dataclasses.replace(
        design,
        config=dataclasses.replace(design.config, **config),
        traces=(dataclasses.replace(
            first, objective_exact=first.objective_exact + delta), *rest),
    )


def test_accounting_check_refuses_mismatched_stage_totals(ring4):
    design = cached_design(ring4, exact_config(Survivability.SINGLE_LAYER))
    pipeline._check_accounting(design)

    # a design never costs more than its stages reported, at any gap
    with pytest.raises(pipeline.PipelineError,
                       match="design costs 46 but stages reported 45"):
        pipeline._check_accounting(_with_first_stage_off_by(
            design, -1, optimality_gap=0.05))

    # a cheaper design is a mismatch only when every stage was proved optimal
    with pytest.raises(pipeline.PipelineError,
                       match="at optimality: design 46 != stages 47"):
        pipeline._check_accounting(_with_first_stage_off_by(design, 1))
    pipeline._check_accounting(_with_first_stage_off_by(
        design, 1, optimality_gap=0.05))

    # a stage without an exact objective leaves nothing to compare
    first, *rest = design.traces
    pipeline._check_accounting(dataclasses.replace(design, traces=(
        dataclasses.replace(first, objective_exact=None), *rest)))


def test_stage_names_per_option():
    def names(option, approach=Approach.SEQUENTIAL):
        return stage_names(exact_config(option, approach=approach))

    assert names(Survivability.NONE) == ("working-mpls", "lightpath-routing")
    assert names(Survivability.SINGLE_LAYER) == (
        "working-mpls", "protection-mpls", "lightpath-routing")
    for option in (Survivability.MULTI_DOUBLE,
                   Survivability.MULTI_SPARE_UNPROTECTED,
                   Survivability.MULTI_INTERLAYER_BRS):
        assert names(option) == (
            "working-mpls", "protection-mpls", "lightpath-routing",
            "lightpath-protection")
    assert names(Survivability.NONE, Approach.INTEGRATED) == (
        "integrated-working",)
    assert names(Survivability.MULTI_DOUBLE, Approach.INTEGRATED) == (
        "integrated-working", "integrated-protection")


def test_allocate_budgets_sums_to_limit(ring4):
    cfg = DesignConfig(survivability=Survivability.SINGLE_LAYER,
                       time_limit_seconds=100.0)
    budgets = allocate_budgets(ring4, cfg)
    assert set(budgets) == set(stage_names(cfg))
    assert sum(budgets.values()) == pytest.approx(100.0)
    # routing works on a model with more arcs per variable family than the
    # grooming stages, so it gets the larger slice
    assert budgets["lightpath-routing"] > budgets["working-mpls"]
    assert budgets["working-mpls"] == pytest.approx(budgets["protection-mpls"])


def test_allocate_budgets_floor_share():
    # a 12-node ring makes the optical stage dwarf the MPLS stage; the
    # floor still guarantees roughly a tenth of the wall clock
    ring12 = generate_instance("ring", 12, seed=1, demand_count=1)
    cfg = DesignConfig(survivability=Survivability.NONE, time_limit_seconds=60.0)
    budgets = allocate_budgets(ring12, cfg)
    assert sum(budgets.values()) == pytest.approx(60.0)
    assert budgets["working-mpls"] >= 0.09 * 60.0


def test_integrated_ring4_matches_sequential_total(ring4):
    cfg = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    design = cached_design(ring4, cfg)
    assert design.cost.total == Fraction(23)
    assert [t.stage for t in design.traces] == ["integrated-working"]
    assert design.cost.total == sum(t.objective_exact for t in design.traces)


def test_integrated_protected_ring4(ring4):
    cfg = exact_config(Survivability.MULTI_DOUBLE, approach=Approach.INTEGRATED)
    design = cached_design(ring4, cfg)
    assert [t.stage for t in design.traces] == [
        "integrated-working", "integrated-protection"]
    # can never beat separate optima of the two integrated stages, and never
    # lose to the sequential pipeline
    sequential = cached_design(ring4, exact_config(Survivability.MULTI_DOUBLE))
    assert design.cost.total <= sequential.cost.total


# (instance, option, approach) -> design totals without and with
# ``transit_double_count``
DOUBLE_COUNT_TOTALS = {
    ("ring4", Survivability.SINGLE_LAYER, Approach.SEQUENTIAL): (46, 54),
    ("ring4", Survivability.SINGLE_LAYER, Approach.INTEGRATED): (46, 54),
    ("fam-5-s0", Survivability.MULTI_SPARE_UNPROTECTED, Approach.SEQUENTIAL):
        (Fraction(1757, 5), Fraction(1813, 5)),
    ("fam-5-s0", Survivability.MULTI_SPARE_UNPROTECTED, Approach.INTEGRATED):
        (Fraction(1727, 5), Fraction(1783, 5)),
}


@pytest.mark.parametrize("name,option,approach", sorted(
    DOUBLE_COUNT_TOTALS, key=lambda c: (c[0], c[1].value, c[2].value)))
def test_double_counted_transit_adds_stage_two_arrivals(name, option, approach):
    inst = (support.desk(name) if name == "ring4"
            else support.mesh_family(5, 0))
    base = cached_design(inst, exact_config(option, approach))
    counted = cached_design(
        inst, exact_config(option, approach, transit_double_count=True))
    assert (base.cost.total, counted.cost.total) == DOUBLE_COUNT_TOTALS[
        (name, option, approach)]
    assert counted.lsp_routes == base.lsp_routes
    assert counted.logical == base.logical
    # each protected LSP's arrival at its destination now pays transit once
    by_id = {d.id: d for d in inst.traffic.demands}
    price = default_cost_model(inst).transit_cost_per_gbps
    arrivals = sum(price * by_id[r.demand_id].bandwidth_gbps
                   for r in counted.lsp_routes if r.protection)
    assert arrivals > 0
    stage_one, stage_two = base.traces[:2]
    assert counted.traces[0].objective_exact == stage_one.objective_exact
    assert (counted.traces[1].objective_exact
            == stage_two.objective_exact + arrivals)
    assert counted.cost.transit == base.cost.transit + arrivals
    assert verify_design(inst, base) == verify_design(inst, counted) == ()


def _with_wavelengths(inst, count):
    return dataclasses.replace(inst, topology=dataclasses.replace(
        inst.topology, wavelengths_per_link=count))


def test_integrated_none_falls_back_to_the_full_model_when_a_link_overflows():
    cfg = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    fam = support.mesh_family(5, 3)
    certified = run_design(fam, cfg)
    # two wavelengths a link cannot carry the shortest routes of stage I's
    # relaxed optimum, so the full model routes the slots instead
    tight = _with_wavelengths(fam, 2)
    design = run_design(tight, cfg)
    assert design.cost.total == certified.cost.total == Fraction(1087, 5)
    assert not verify_design(tight, design)
    [relaxed], [full] = certified.traces, design.traces
    assert relaxed.stage == full.stage == "integrated-working"
    assert relaxed.variables < full.variables
    assert full.objective_exact == design.cost.total
    assert full.time_budget_seconds < cfg.time_limit_seconds
    # on fam-6-s0 HiGHS returns a relaxed optimum whose shortest routes fit
    # two wavelengths a link, so it certifies
    tight0 = _with_wavelengths(support.mesh_family(6, 0), 2)
    certified0 = run_design(tight0, cfg)
    [trace] = certified0.traces
    assert relaxed.variables == 124 and trace.variables == 219
    assert certified0.cost.total == trace.objective_exact == Fraction(996, 5)
    assert not verify_design(tight0, certified0)


def _three_sixes() -> Instance:
    """Ring4 with three 6 Gbps LSPs 1 -> 2, whose pair relaxation cannot pack."""
    return Instance(
        name="ring4-three-sixes",
        topology=PhysicalTopology(nodes=(1, 2, 3, 4),
                                  links=((1, 2), (2, 3), (3, 4), (1, 4))),
        traffic=TrafficMatrix(demands=tuple(
            LspDemand(id=f"d{k}", source=1, destination=2, bandwidth_mbps=6000)
            for k in (1, 2, 3))),
        max_parallel_lightpaths=2,
    )


def test_integrated_none_falls_back_when_a_pair_does_not_pack():
    # three 6 Gbps LSPs fill two 10 Gbps slots of pair (1, 2) in the pair
    # relaxation, but no two of them share a slot: the pair bound lies below
    # the full optimum, and the full model runs
    inst = _three_sixes()
    cfg = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    costs = default_cost_model(inst)
    relaxed = build_integrated_working(inst, cfg, costs, relaxed=True)
    sol = solvers.solve(relaxed.model)
    assert relaxed.model.objective_value(sol.values) < Fraction(439, 5)
    design = run_design(inst, cfg)
    [trace] = design.traces
    full = build_integrated_working(inst, cfg, costs)
    assert trace.variables == len(full.model.variables)
    assert design.cost.total == trace.objective_exact == Fraction(439, 5)
    assert not verify_design(inst, design)


def test_pair_packing_is_first_fit_decreasing_by_bandwidth_then_index():
    demands = tuple(enumerate(
        LspDemand(id=f"d{k}", source=1, destination=2, bandwidth_mbps=mbps)
        for k, mbps in enumerate((3000, 6000, 4000, 4000))))
    pair_paths = {d.id: ((1, 2, 1),) for _k, d in demands}
    packed = pipeline._pack_pairs(demands, ((1, 2, 2), (1, 2, 1)), pair_paths,
                                  10000)
    # d1 (6) and d2 (4) fill slot 1; d3 (4) and d0 (3) go to slot 2
    assert packed == {"d0": ((1, 2, 2),), "d1": ((1, 2, 1),),
                      "d2": ((1, 2, 1),), "d3": ((1, 2, 2),)}
    assert pipeline._pack_pairs(demands, ((1, 2, 1),), pair_paths, 10000) is None


def test_integrated_none_certifies_the_relaxation_on_a_ladder_mesh():
    # both meshes of perfbench's ladder-integrated workload: the pruned
    # relaxation's shortest routes fit, so the full model is never solved
    cfg = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    for n, variables, total in ((10, 820, 218), (12, 1464, 266)):
        inst = generate_instance("mesh", n, seed=1, demand_count=n,
                                 bandwidth_profile="mixed")
        design = run_design(inst, cfg)
        [trace] = design.traces
        assert trace.stage == "integrated-working"
        assert trace.variables == variables
        assert design.cost.total == trace.objective_exact == total
        assert not verify_design(inst, design)


def test_integrated_none_fallback_reports_an_infeasible_full_model():
    # the relaxation has no wavelength rows, so it is feasible here: the
    # infeasible stage is the full model, and its trace replaced the
    # relaxation's
    cfg = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    with pytest.raises(StageInfeasibleError) as err:
        run_design(_with_wavelengths(support.mesh_family(5, 0), 1), cfg)
    assert err.value.stage == "integrated-working"
    assert err.value.status == "infeasible"
    assert [t.stage for t in err.value.traces] == ["integrated-working"]


@pytest.mark.xfail(
    raises=DecodeError,
    strict=True,
    reason="brs-extra rows credit spare-carrier arcs at -1 and the spare"
           " route rows tied to pb = 0 still admit a circulation, so HiGHS"
           " may set a closed slot's arcs (pb_2_5_2 = 0 over 2-3-5-2)",
)
def test_integrated_brs_decodes_on_mesh_family():
    cfg = exact_config(Survivability.MULTI_INTERLAYER_BRS,
                       approach=Approach.INTEGRATED)
    inst = support.mesh_family(5, 0)
    design = run_design(inst, cfg)
    assert not verify_design(inst, design)


class _SeededHighs:
    """scipy's HiGHS binding, with every solver started at one random seed."""

    def __init__(self, core, seed):
        self._core, self._seed = core, seed

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        highs = self._core._Highs()
        highs.setOptionValue("random_seed", self._seed)
        return highs


class _RecordingHighs:
    """scipy's HiGHS binding, recording the options each solver is given."""

    def __init__(self, core):
        self._core = core
        self.options: list[dict] = []

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        highs, options = self._core._Highs(), {}
        self.options.append(options)

        class Recorded:
            def __getattr__(self, name):
                return getattr(highs, name)

            def setOptionValue(self, key, value):
                options[key] = value
                return highs.setOptionValue(key, value)

        return Recorded()


JUMP = "mip_heuristic_run_feasibility_jump"


def test_only_the_integrated_relaxation_runs_without_feasibility_jump(
        monkeypatch):
    recording = _RecordingHighs(solvers._highs)
    monkeypatch.setattr(solvers, "_highs", recording)
    integrated = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    # ring4 certifies its relaxation, the one solve; three 6 Gbps LSPs do
    # not, and the full model follows; sequential brs solves three models
    run_design(support.desk("ring4"), integrated)
    run_design(_three_sixes(), integrated)
    run_design(support.desk("ring4"),
               exact_config(Survivability.MULTI_INTERLAYER_BRS))
    assert [o.get(JUMP, True) for o in recording.options] == [
        False, False, True, True, True, True]


def test_sequential_brs_decodes_at_another_highs_seed(monkeypatch):
    # at seed 1 a protection route once circled back through its carrier's
    # source: "lightpath (1, 3, 1) branches at node 1"
    monkeypatch.setattr(solvers, "_highs", _SeededHighs(solvers._highs, 1))
    inst = support.mesh_family(7, 2)
    design = run_design(inst, exact_config(Survivability.MULTI_INTERLAYER_BRS))
    assert not verify_design(inst, design)


def test_infeasible_stage_raises_with_context():
    inst = generate_instance("mesh", 4, seed=1, demand_count=3,
                             bandwidth_profile="mixed")
    cfg = DesignConfig(survivability=Survivability.SINGLE_LAYER, q_max=1,
                       optimality_gap=0.0)
    with pytest.raises(StageInfeasibleError) as err:
        run_design(inst, cfg)
    assert err.value.stage == "protection-mpls"
    assert err.value.status == "infeasible"
    # the stages run so far are preserved for reporting, failed one included
    assert [t.stage for t in err.value.traces] == [
        "working-mpls", "protection-mpls"]
    assert err.value.traces[-1].status == "infeasible"
    assert "protection-mpls" in str(err.value)


def test_auto_grow_q_recovers_from_infeasibility():
    inst = generate_instance("mesh", 4, seed=1, demand_count=3,
                             bandwidth_profile="mixed")
    cfg = DesignConfig(survivability=Survivability.SINGLE_LAYER, q_max=1,
                       optimality_gap=0.0, auto_grow_q=True)
    design = run_design(inst, cfg)
    assert design.config.q_max == 2
    assert design.cost.total == Fraction(129)


def test_auto_grow_q_never_reuses_a_given_working_layer(monkeypatch):
    inst = generate_instance("mesh", 4, seed=1, demand_count=3,
                             bandwidth_profile="mixed")
    cfg = DesignConfig(survivability=Survivability.SINGLE_LAYER, q_max=1,
                       optimality_gap=0.0, auto_grow_q=True)
    memo = SolveMemo()
    plain = run_design(inst, dataclasses.replace(
        cfg, survivability=Survivability.NONE), shared=memo)
    solved = []
    solve = pipeline.solve

    def counting_solve(model, **kwargs):
        solved.append(kwargs["stage"])
        return solve(model, **kwargs)

    monkeypatch.setattr(pipeline, "solve", counting_solve)
    design = run_design(inst, cfg, shared=memo)
    assert design.config.q_max == 2
    assert design.cost.total == Fraction(129)
    # the first attempt takes stage I from the memo; the retry's grown
    # models are new to it, so each is solved
    assert solved == ["protection-mpls", "working-mpls", "protection-mpls",
                      "lightpath-routing"]
    assert design.traces[0].variables > plain.traces[0].variables


def test_missing_external_solver_raises(ring4, monkeypatch):
    # HiGHS comes from scipy; without scipy there is no solver at all
    monkeypatch.setattr(solvers, "scipy_milp", None)
    cfg = DesignConfig(survivability=Survivability.NONE)
    with pytest.raises(SolverUnavailableError, match="scipy"):
        run_design(ring4, cfg)


def test_run_design_validates_instance(ring4):
    import dataclasses
    bad = dataclasses.replace(ring4, max_parallel_lightpaths=0)
    with pytest.raises(InvalidInstanceError) as err:
        run_design(bad, DesignConfig(survivability=Survivability.NONE))
    assert any(v.code == "bad-slot-limit" for v in err.value.violations)


def test_default_cost_model_lightpath_capacity(ring4):
    cm = default_cost_model(ring4)
    assert cm.lightpath_capacity_gbps == 10
    assert cm.lightpath_cost == Fraction(17)
    assert cm.wavelength_cost == Fraction(3)
    assert cm.transit_cost_per_gbps == Fraction(4, 5)


# -- the solve memo ------------------------------------------------------------


def _knapsack(b_weight=3) -> MilpModel:
    m = MilpModel("knap")
    m.add_variable("a", VarKind.BINARY)
    m.add_variable("b", VarKind.BINARY)
    m.add_constraint("cap", [("a", 2), ("b", b_weight)], "<=", 4)
    m.add_objective_term("a", -5)
    m.add_objective_term("b", -4)
    return m


class _StubSolve:
    """Stands in for ``pipeline.solve``: records calls, returns ``result``."""

    def __init__(self, status=SolveStatus.OPTIMAL, wall=1.0):
        self.calls = []
        self.result = Solution(status, None, {}, None, wall_seconds=wall)

    def __call__(self, model, **kwargs):
        self.calls.append(kwargs)
        return self.result


def test_solve_memo_solves_an_equal_model_once(monkeypatch):
    stub = _StubSolve()
    monkeypatch.setattr(pipeline, "solve", stub)
    memo = SolveMemo()
    first = memo.solve(_knapsack(), gap=0.0, time_limit=10.0, keep_dir=None,
                       stage="knap")
    # a separately built model with the same content is a hit
    assert memo.solve(_knapsack(), gap=0.0, time_limit=10.0, keep_dir=None,
                      stage="knap") is first
    assert len(stub.calls) == 1


@pytest.mark.parametrize("change,solves", [
    ({"b_weight": 4}, 2),
    ({"gap": 0.01}, 2),
    ({"keep_dir": "kept"}, 1),
    ({"feasibility_jump": False}, 2),
], ids=["model", "gap", "keep-directory", "feasibility-jump"])
def test_solve_memo_keys_on_model_gap_and_solver(monkeypatch, tmp_path, change,
                                                 solves):
    stub = _StubSolve()
    monkeypatch.setattr(pipeline, "solve", stub)
    memo = SolveMemo()
    memo.solve(_knapsack(), gap=0.0, time_limit=10.0, keep_dir=None,
               stage="knap")
    keep = tmp_path / change["keep_dir"] if "keep_dir" in change else None
    memo.solve(_knapsack(change.get("b_weight", 3)),
               gap=change.get("gap", 0.0), time_limit=10.0, keep_dir=keep,
               stage="knap",
               feasibility_jump=change.get("feasibility_jump", True))
    assert len(stub.calls) == solves


@pytest.mark.parametrize("status,wall,solves", [
    (SolveStatus.OPTIMAL, 1.0, 1),
    (SolveStatus.INFEASIBLE, 1.0, 1),
    (SolveStatus.NO_SOLVER, 0.0, 1),
    (SolveStatus.OPTIMAL, 20.0, 2),
    (SolveStatus.TIME_LIMIT_FEASIBLE, 1.0, 2),
    (SolveStatus.ERROR, 1.0, 2),
], ids=["optimal", "infeasible", "no-solver", "over-budget",
        "time-limit-feasible", "error"])
def test_solve_memo_reuses_only_what_the_time_limit_cannot_change(
        monkeypatch, status, wall, solves):
    stub = _StubSolve(status, wall)
    monkeypatch.setattr(pipeline, "solve", stub)
    memo = SolveMemo()
    memo.solve(_knapsack(), gap=0.0, time_limit=30.0, keep_dir=None,
               stage="knap")
    memo.solve(_knapsack(), gap=0.0, time_limit=10.0, keep_dir=None,
               stage="knap")
    assert len(stub.calls) == solves
    assert stub.calls[-1]["time_limit"] == (30.0 if solves == 1 else 10.0)


def test_solve_memo_keeps_artifacts_on_a_hit(tmp_path):
    memo = SolveMemo()
    first = memo.solve(_knapsack(), gap=0.0, time_limit=10.0,
                       keep_dir=tmp_path / "first", stage="knap")
    assert first.status is SolveStatus.OPTIMAL
    assert memo.solve(_knapsack(), gap=0.0, time_limit=10.0,
                      keep_dir=tmp_path / "second", stage="knap") is first
    for name in ("knap.mps", "knap.meta.json", "knap.sol"):
        assert (tmp_path / "second" / name).read_bytes() == \
            (tmp_path / "first" / name).read_bytes()


def test_solve_memo_takes_the_arguments_of_solve(monkeypatch):
    # run_design calls either one the same way
    def shape(fn):
        return [(p.name, p.kind) for p in inspect.signature(fn).parameters.values()]

    assert shape(SolveMemo().solve) == shape(solvers.solve)
    # with solve's defaults there is no time limit, so a settled solve fits
    stub = _StubSolve()
    monkeypatch.setattr(pipeline, "solve", stub)
    memo = SolveMemo()
    first = memo.solve(_knapsack())
    assert memo.solve(_knapsack()) is first
    assert stub.calls == [{"gap": 0.0, "time_limit": None, "keep_dir": None,
                           "stage": "model", "feasibility_jump": True}]


# -- decoding crafted solutions --------------------------------------------------


def _stage_model_with(family, entries):
    index = VarIndex()
    for key in entries:
        flat = "_".join(str(part) for part in key)
        index.add(family, key, f"{family}_{flat}")
    return StageModel(MilpModel("crafted"), index)


def _solution_selecting(family, keys):
    values = {}
    for key in keys:
        flat = "_".join(str(part) for part in key)
        values[f"{family}_{flat}"] = Fraction(1)
    return Solution(status=SolveStatus.OPTIMAL, objective=0.0,
                    values=values, gap=0.0)


def test_decode_slot_path_happy():
    arcs = [(0, 1, 2, 1), (0, 2, 3, 1), (0, 1, 4, 1), (1, 1, 4, 1)]
    sm = _stage_model_with("wd", arcs)
    sol = _solution_selecting("wd", [(0, 1, 2, 1), (0, 2, 3, 1), (1, 1, 4, 1)])
    assert decode_slot_path(sol, sm, "wd", 0, 1, 3) == ((1, 2, 1), (2, 3, 1))
    # the other LSP's arcs never leak in
    assert decode_slot_path(sol, sm, "wd", 1, 1, 4) == ((1, 4, 1),)


def test_decode_slot_path_branch():
    arcs = [(0, 1, 2, 1), (0, 1, 4, 1), (0, 2, 3, 1)]
    sm = _stage_model_with("wd", arcs)
    sol = _solution_selecting("wd", arcs)
    with pytest.raises(DecodeError, match="2 outgoing arcs"):
        decode_slot_path(sol, sm, "wd", 0, 1, 3)


def test_decode_slot_path_revisit():
    arcs = [(0, 1, 2, 1), (0, 2, 1, 1)]
    sm = _stage_model_with("wd", arcs)
    sol = _solution_selecting("wd", arcs)
    with pytest.raises(DecodeError, match="revisits"):
        decode_slot_path(sol, sm, "wd", 0, 1, 3)


def test_decode_slot_path_disconnected():
    arcs = [(0, 1, 3, 1), (0, 2, 4, 1)]
    sm = _stage_model_with("wd", arcs)
    sol = _solution_selecting("wd", arcs)
    with pytest.raises(DecodeError, match="disconnected"):
        decode_slot_path(sol, sm, "wd", 0, 1, 3)


def test_decode_route_happy_and_branch():
    slot = (1, 3, 1)
    arcs = [(slot, 1, 2), (slot, 2, 3), (slot, 1, 4)]
    sm = _stage_model_with("wr", arcs)
    good = _solution_selecting("wr", arcs[:2])
    assert decode_route(good, sm, "wr", slot) == (1, 2, 3)
    branchy = _solution_selecting("wr", arcs)
    with pytest.raises(DecodeError, match="branches"):
        decode_route(branchy, sm, "wr", slot)


def test_decode_route_lenient_tolerates_strays():
    slot = (1, 3, 1)
    arcs = [(slot, 1, 3), (slot, 2, 4)]
    sm = _stage_model_with("pr", arcs)
    sol = _solution_selecting("pr", arcs)
    with pytest.raises(DecodeError, match="disconnected"):
        decode_route(sol, sm, "pr", slot)
    # BRS booking rows can leave harmless slack arcs behind
    assert decode_route(sol, sm, "pr", slot, lenient=True) == (1, 3)


def _layer(families, values):
    """A crafted working layer over ``families`` and a solution of ``values``.

    ``families`` maps a family to its keys; ``values`` maps (family, key) to
    the value the solution gives that variable.
    """
    index = VarIndex()
    for family, keys in families.items():
        for key in keys:
            index.add(family, key, f"{family}{len(index.items(family))}")
    sol = Solution(status=SolveStatus.OPTIMAL, objective=0.0, gap=0.0,
                   values={index.get(*fk): Fraction(v) for fk, v in values.items()})
    return StageModel(MilpModel("crafted"), index, WORKING), sol


def test_decode_layer_opens_as_many_slots_as_a_pair_counts():
    demands = ((0, LspDemand(id="d0", source=1, destination=2,
                             bandwidth_mbps=1000)),)
    sm, sol = _layer(
        {"wb": [(1, 2, 1), (1, 3, 1), (2, 1, 1)], "wd": [(0, 1, 2, 1)]},
        {("wb", (1, 2, 1)): 2, ("wb", (2, 1, 1)): 1, ("wd", (0, 1, 2, 1)): 1},
    )
    slots, paths = pipeline._decode_layer(sol, sm, demands)
    assert slots == ((1, 2, 1), (1, 2, 2), (2, 1, 1))
    assert paths == {"d0": ((1, 2, 1),)}


def test_decode_layer_rejects_a_closed_slot_that_holds_a_fiber_arc():
    demands = ((0, LspDemand(id="d0", source=1, destination=3,
                             bandwidth_mbps=1000)),)
    families = {"wb": [(1, 3, 1), (1, 3, 2)], "wd": [(0, 1, 3, 1)],
                "wr": [((1, 3, 1), 1, 3), ((1, 3, 2), 1, 3)]}
    chosen = {("wb", (1, 3, 1)): 1, ("wd", (0, 1, 3, 1)): 1,
              ("wr", ((1, 3, 1), 1, 3)): 1}
    sm, sol = _layer(families, chosen)
    assert pipeline._decode_layer(sol, sm, demands) == (
        ((1, 3, 1),), {"d0": ((1, 3, 1),)})
    sm, sol = _layer(families, {**chosen, ("wr", ((1, 3, 2), 1, 3)): 1})
    with pytest.raises(DecodeError,
                       match=r"closed slot \(1, 3, 2\) occupies fiber arc \(1, 3\)"):
        pipeline._decode_layer(sol, sm, demands)


# -- manifests and serialization --------------------------------------------------


def test_manifest_dict_fields(ring4):
    design = cached_design(ring4, exact_config(Survivability.SINGLE_LAYER))
    man = manifest_dict(design)
    assert man["instance"]["name"] == "ring4"
    assert man["instance"]["hash"] == instance_hash(ring4)
    assert man["configuration"]["survivability"] == "single"
    assert man["configuration"]["approach"] == "sequential"
    assert man["cost_model"]["router_port_cost"] == "8"
    assert man["cost"]["total"] == "46"
    # the blocks are the design file's, exact values included
    doc = design_to_dict(design)
    for block, key in [("configuration", "config"), ("cost_model", "cost_model"),
                       ("metrics", "metrics"), ("stages", "traces")]:
        assert man[block] == doc[key]
    assert {k: v for k, v in man["cost"].items() if k != "total"} == doc["cost"]
    # the working LSP and its protection LSP ride separate lightpaths
    assert man["metrics"]["working_lightpaths"] == 1
    assert man["metrics"]["spare_lightpaths"] == 1
    assert man["metrics"]["protection_lightpaths"] == 0
    assert man["metrics"]["wavelength_total"] == 4
    stages = man["stages"]
    assert [s["stage"] for s in stages] == [
        "working-mpls", "protection-mpls", "lightpath-routing"]
    for s in stages:
        assert s["status"] == "optimal"
        assert s["gap"] == pytest.approx(0.0)
        assert s["wall_seconds"] >= 0.0
        assert s["time_budget_seconds"] > 0.0
        assert s["variables"] > 0 and s["constraints"] > 0
        assert s["solver"]
        assert s["node_count"] >= 0
        assert s["dual_bound"] == pytest.approx(s["objective"])
    assert man["wall_seconds_total"] == sum(s["wall_seconds"] for s in stages)


@pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o.value)
def test_serialize_round_trip(option, ring4):
    design = cached_design(ring4, exact_config(option))
    doc = design_to_dict(design)
    assert design_from_dict(doc) == design
    # the document must survive a JSON round trip unchanged
    assert design_from_dict(json.loads(json.dumps(doc))) == design
    # HiGHS search statistics ride along per stage; a trivial stage has none
    for t, written in zip(design.traces, doc["traces"]):
        assert (written["node_count"], written["dual_bound"]) == \
            (t.node_count, t.dual_bound)
        if t.solver == "trivial":
            assert t.node_count is None and t.dual_bound is None
        else:
            assert t.node_count >= 0
            assert t.dual_bound == pytest.approx(t.objective)


def test_load_design_without_search_statistics(tmp_path, ring4):
    # design files written before node counts and dual bounds still load
    design = cached_design(ring4, exact_config(Survivability.SINGLE_LAYER))
    doc = design_to_dict(design)
    for t in doc["traces"]:
        del t["node_count"], t["dual_bound"]
    path = tmp_path / "old-design.json"
    path.write_text(json.dumps(doc))
    loaded = load_design(path)
    assert all(t.node_count is None and t.dual_bound is None
               for t in loaded.traces)
    assert loaded == dataclasses.replace(design, traces=tuple(
        dataclasses.replace(t, node_count=None, dual_bound=None)
        for t in design.traces))


def test_load_design_with_a_config_interface_limit(tmp_path, ring4):
    # design files written while the config had its own interface limit
    # still load; the limit the design used is kept on its logical topology
    design = cached_design(ring4, exact_config(Survivability.SINGLE_LAYER))
    doc = design_to_dict(design)
    assert "router_interfaces" not in doc["config"]
    for limit in (None, design.logical.router_interfaces):
        doc["config"]["router_interfaces"] = limit
        path = tmp_path / "old-design.json"
        path.write_text(json.dumps(doc))
        assert load_design(path) == design


def test_serialize_round_trip_integrated(ring5_chord):
    cfg = exact_config(Survivability.MULTI_INTERLAYER_BRS,
                       approach=Approach.INTEGRATED)
    design = cached_design(ring5_chord, cfg)
    assert design_from_dict(design_to_dict(design)) == design


def test_save_and_load_design(tmp_path, ring4):
    design = cached_design(
        ring4, exact_config(Survivability.MULTI_INTERLAYER_BRS))
    path = tmp_path / "design.json"
    save_design(design, path)
    loaded = load_design(path)
    assert loaded == design
    assert loaded.metrics.extra_wavelengths == 2
    assert loaded.metrics.reuse_factor == 0


def test_design_from_dict_rejects_foreign_documents(ring4):
    with pytest.raises(ValueError, match="format"):
        design_from_dict({"format": "something-else"})
    doc = design_to_dict(cached_design(ring4, exact_config(Survivability.NONE)))
    del doc["cost"]
    with pytest.raises((KeyError, ValueError)):
        design_from_dict(doc)


# ring4 design files written by the serializer that listed every key by
# hand; they pin format 1 byte for byte
DATA = Path(__file__).parent / "data"
DESIGN_FILES = sorted(DATA.glob("*.json"))


@pytest.mark.parametrize("path", DESIGN_FILES, ids=lambda p: p.stem)
def test_committed_design_files_load_and_save_byte_for_byte(path, tmp_path):
    design = load_design(path)
    assert design.instance_name == "ring4"
    assert verify_design(support.desk("ring4"), design) == ()
    again = tmp_path / path.name
    save_design(design, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("drop", ["survivability", "route"])
def test_missing_keys_are_rejected_even_where_fields_have_defaults(drop):
    # DesignConfig.survivability and Lightpath.route have defaults, but only
    # the stage trace fields added after format 1 may be missing
    doc = json.loads((DATA / "ring4-brs-sequential.json").read_text())
    if drop == "survivability":
        del doc["config"]["survivability"]
    else:
        del doc["lightpaths"][0]["route"]
    with pytest.raises(KeyError, match=drop):
        design_from_dict(doc)
