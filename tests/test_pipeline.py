"""Pipeline tests: staged runs, budgets, decoding, manifests, serialization.

Every pinned total in here was reproduced by tests/oracle.py enumeration
before being written down.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from mplsotn import pipeline
from mplsotn.evaluate import verify_design
from mplsotn.formulation import StageModel, VarIndex
from mplsotn.instances import generate_instance
from mplsotn.milp import MilpModel, Solution, SolveStatus, VarKind
from mplsotn.model import Approach, DesignConfig, Survivability
from mplsotn.pipeline import (
    DecodeError,
    SolveMemo,
    SolverUnavailableError,
    StageInfeasibleError,
    allocate_budgets,
    decode_route,
    decode_slot_path,
    default_cost_model,
    manifest_dict,
    run_design,
    stage_names,
)
from mplsotn.model import InvalidInstanceError, instance_hash
from mplsotn.serialize import (
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
)
from mplsotn.solvers import SolverConfig

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


def test_stage_names_per_option(ring4):
    def names(option, approach=Approach.SEQUENTIAL):
        return stage_names(ring4, exact_config(option, approach=approach))

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
    assert set(budgets) == set(stage_names(ring4, cfg))
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


def _with_wavelengths(inst, count):
    return dataclasses.replace(inst, topology=dataclasses.replace(
        inst.topology, wavelengths_per_link=count))


def test_integrated_none_falls_back_to_the_full_model_when_a_link_overflows():
    cfg = exact_config(Survivability.NONE, approach=Approach.INTEGRATED)
    fam = support.mesh_family(5, 0)
    certified = run_design(fam, cfg)
    # two wavelengths a link cannot carry the shortest routes of stage I's
    # relaxed optimum, so the full model routes the slots instead
    tight = _with_wavelengths(fam, 2)
    design = run_design(tight, cfg)
    assert design.cost.total == certified.cost.total == Fraction(971, 5)
    assert not verify_design(tight, design)
    [relaxed], [full] = certified.traces, design.traces
    assert relaxed.stage == full.stage == "integrated-working"
    assert relaxed.variables < full.variables
    assert full.objective_exact == design.cost.total
    assert full.time_budget_seconds < cfg.time_limit_seconds


def test_integrated_none_certifies_the_relaxation_on_a_ladder_mesh():
    # the 10-node mesh of perfbench's ladder-integrated workload: the pruned
    # relaxation's shortest routes fit, so the full model is never solved
    inst = generate_instance("mesh", 10, seed=1, demand_count=10,
                             bandwidth_profile="mixed")
    design = run_design(
        inst, exact_config(Survivability.NONE, approach=Approach.INTEGRATED))
    [trace] = design.traces
    assert trace.stage == "integrated-working"
    assert trace.variables == 1640
    assert design.cost.total == trace.objective_exact == 218
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


def test_missing_external_solver_raises(ring4):
    cfg = DesignConfig(survivability=Survivability.NONE)
    solver = SolverConfig(command="no-such-milp-binary {lp} {sol}")
    with pytest.raises(SolverUnavailableError):
        run_design(ring4, cfg, solver=solver)


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


def _knapsack_stage(b_weight=3) -> StageModel:
    m = MilpModel("knap")
    m.add_variable("a", VarKind.BINARY)
    m.add_variable("b", VarKind.BINARY)
    m.add_constraint("cap", [("a", 2), ("b", b_weight)], "<=", 4)
    m.add_objective_term("a", -5)
    m.add_objective_term("b", -4)
    return StageModel(stage="knap", model=m, index=VarIndex())


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
    first = memo.solve(_knapsack_stage(), 0.0, 10.0, None)
    # a separately built model with the same content is a hit
    assert memo.solve(_knapsack_stage(), 0.0, 10.0, None) is first
    assert len(stub.calls) == 1


@pytest.mark.parametrize("change,solves", [
    ({"b_weight": 4}, 2),
    ({"gap": 0.01}, 2),
    ({"solver": SolverConfig(command="b {lp} {sol}")}, 2),
    ({"solver": SolverConfig(keep_artifacts_dir=None)}, 1),
], ids=["model", "gap", "command", "default-config"])
def test_solve_memo_keys_on_model_gap_and_solver(monkeypatch, change, solves):
    stub = _StubSolve()
    monkeypatch.setattr(pipeline, "solve", stub)
    memo = SolveMemo()
    memo.solve(_knapsack_stage(), 0.0, 10.0, None)
    memo.solve(_knapsack_stage(change.get("b_weight", 3)),
               change.get("gap", 0.0), 10.0, change.get("solver"))
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
    memo.solve(_knapsack_stage(), 0.0, 30.0, None)
    memo.solve(_knapsack_stage(), 0.0, 10.0, None)
    assert len(stub.calls) == solves
    assert stub.calls[-1]["time_limit"] == (30.0 if solves == 1 else 10.0)


def test_solve_memo_keeps_artifacts_on_a_hit(tmp_path):
    memo = SolveMemo()
    first = memo.solve(_knapsack_stage(), 0.0, 10.0, SolverConfig(
        keep_artifacts_dir=tmp_path / "first"))
    assert first.status is SolveStatus.OPTIMAL
    assert memo.solve(_knapsack_stage(), 0.0, 10.0, SolverConfig(
        keep_artifacts_dir=tmp_path / "second")) is first
    for name in ("knap.lp", "knap.meta.json", "knap.sol"):
        assert (tmp_path / "second" / name).read_bytes() == \
            (tmp_path / "first" / name).read_bytes()


# -- decoding crafted solutions --------------------------------------------------


def _stage_model_with(family, entries):
    index = VarIndex()
    for key in entries:
        flat = "_".join(str(part) for part in key)
        index.add(family, key, f"{family}_{flat}")
    return StageModel(stage="crafted", model=MilpModel("crafted"), index=index)


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
    arcs = [(slot, (1, 2)), (slot, (2, 3)), (slot, (1, 4))]
    sm = _stage_model_with("wr", arcs)
    good = _solution_selecting("wr", arcs[:2])
    assert decode_route(good, sm, "wr", slot) == (1, 2, 3)
    branchy = _solution_selecting("wr", arcs)
    with pytest.raises(DecodeError, match="branches"):
        decode_route(branchy, sm, "wr", slot)


def test_decode_route_lenient_tolerates_strays():
    slot = (1, 3, 1)
    arcs = [(slot, (1, 3)), (slot, (2, 4))]
    sm = _stage_model_with("pr", arcs)
    sol = _solution_selecting("pr", arcs)
    with pytest.raises(DecodeError, match="disconnected"):
        decode_route(sol, sm, "pr", slot)
    # BRS booking rows can leave harmless slack arcs behind
    assert decode_route(sol, sm, "pr", slot, lenient=True) == (1, 3)


# -- manifests and serialization --------------------------------------------------


def test_manifest_dict_fields(ring4):
    design = cached_design(ring4, exact_config(Survivability.SINGLE_LAYER))
    man = manifest_dict(design)
    assert man["instance"]["name"] == "ring4"
    assert man["instance"]["hash"] == instance_hash(ring4)
    assert man["configuration"]["survivability"] == "single"
    assert man["configuration"]["approach"] == "sequential"
    assert man["cost"]["total"] == "46"
    assert man["cost"]["total_float"] == pytest.approx(46.0)
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
        assert s["achieved_gap"] == pytest.approx(0.0)
        assert s["wall_seconds"] >= 0.0
        assert s["budget_seconds"] > 0.0
        assert s["variables"] > 0 and s["constraints"] > 0
        assert s["solver"]
        assert s["node_count"] >= 0
        assert s["dual_bound"] == pytest.approx(s["objective"])
    # total and per-stage times are rounded separately, hence the slack
    assert man["wall_seconds_total"] == pytest.approx(
        sum(s["wall_seconds"] for s in stages), abs=5e-6)


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
