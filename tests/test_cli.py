"""Command line behaviour, driven in-process through main(argv)."""

import csv
import io
import json
import threading
import time

import pytest

from mplsotn import cli, evaluate, pipeline
from mplsotn.cli import (
    EXIT_DRILL_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_INVALID_INSTANCE,
    EXIT_NO_SOLVER,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from mplsotn.evaluate import DrillReport, EventOutcome
from mplsotn.instances import generate_instance, load_instance, save_instance
from mplsotn.milp import write_model
from mplsotn.model import Approach, FailureEvent, FailureKind, Violation
from mplsotn.pipeline import StageInfeasibleError, run_design
from mplsotn.serialize import load_design
from mplsotn.solvers import ENV_SOLVER_COMMAND

from support import OPTIONS, desk, exact_config, mesh_family


@pytest.fixture(scope="module")
def ring4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ring4.json"
    save_instance(desk("ring4"), path)
    return str(path)


@pytest.fixture(scope="module")
def infeasible_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mesh4s1.json"
    code = main(["generate", "--kind", "mesh", "--nodes", "4", "--seed", "1",
                 "--demands", "3", "--profile", "mixed", "-o", str(path)])
    assert code == EXIT_OK
    return str(path)


def test_generate_is_deterministic(tmp_path):
    args = ["generate", "--kind", "ring_plus_chords", "--nodes", "5",
            "--seed", "7", "--demands", "3", "--profile", "mixed"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == EXIT_OK
    assert main(args + ["-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    inst = load_instance(a)
    assert inst.name == "ring-plus-chords5-s7"
    assert len(inst.traffic.demands) == 3


@pytest.mark.parametrize("kind,n,most,asked", [
    *(pytest.param(kind, n, most, most + 1, id=f"{kind}-{n}-{most}")
      for kind, n, most in [("ring", 4, 2), ("ring", 5, 3),
                            ("ring_plus_chords", 4, 2), ("mesh", 4, 6)]),
    # a count below 1 is refused too, not read as a slice bound
    pytest.param("mesh", 4, 6, -1, id="mesh-4-asks-minus-1"),
    pytest.param("ring", 4, 2, -1, id="ring-4-asks-minus-1"),
    pytest.param("ring", 4, 2, 0, id="ring-4-asks-0"),
    pytest.param("ring_plus_chords", 4, 2, 0, id="ring_plus_chords-4-asks-0"),
])
def test_generate_refuses_more_demands_than_the_kind_has(kind, n, most, asked):
    assert len(generate_instance(kind, n, demand_count=most)
               .traffic.demands) == most
    with pytest.raises(ValueError, match=f"at most {most} demands; "
                                         f"ask for 1 to {most}, not {asked}"):
        generate_instance(kind, n, demand_count=asked)


def test_generate_to_stdout(capsys):
    assert main(["generate", "--nodes", "4", "--seed", "2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 4


def test_run_writes_design_and_manifest(ring4_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", ring4_file, "--survivability", "single",
                 "-o", str(out)])
    assert code == EXIT_OK
    design = load_design(out / "design.json")
    assert design.cost.total == 46
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cost"]["total"] == "46"
    stdout = capsys.readouterr().out
    assert "total cost      46" in stdout
    assert "failure drill   12/12 events restorable" in stdout


def test_run_keep_artifacts(ring4_file, tmp_path):
    art = tmp_path / "artifacts"
    code = main(["run", ring4_file, "--survivability", "none",
                 "--keep-artifacts", str(art)])
    assert code == EXIT_OK
    for stage in ("working-mpls", "lightpath-routing"):
        for ext in (".lp", ".sol", ".meta.json"):
            assert (art / f"{stage}{ext}").exists(), f"{stage}{ext}"


def test_missing_instance_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == EXIT_INVALID_INSTANCE
    assert "unreadable" in capsys.readouterr().err


def test_corrupt_instance_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_INVALID_INSTANCE
    assert "bad-json" in capsys.readouterr().err


@pytest.fixture
def chain_file(tmp_path):
    # a two-node chain cannot offer disjoint paths
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "name": "chain2",
        "nodes": [1, 2],
        "links": [[1, 2]],
        "wavelengths_per_link": 32,
        "demands": [{"id": "d1", "source": 1, "destination": 2,
                     "bandwidth_gbps": "1"}],
    }), encoding="utf-8")
    return str(path)


def test_unsurvivable_instance_rejected(chain_file, capsys):
    code = main(["run", chain_file, "--survivability", "single"])
    assert code == EXIT_INVALID_INSTANCE
    assert "not-biconnected" in capsys.readouterr().err


def test_bogus_external_solver(ring4_file, capsys):
    code = main(["run", ring4_file,
                 "--solver-cmd", "no-such-milp-binary {lp} {sol}"])
    assert code == EXIT_NO_SOLVER
    assert "solver unavailable" in capsys.readouterr().err


def test_bad_solver_command_token_is_internal_error(ring4_file, capsys):
    code = main(["run", ring4_file,
                 "--solver-cmd", "python3 {lp} {sol} {bogus}"])
    assert code == EXIT_INTERNAL
    assert "bad solver command token '{bogus}'" in capsys.readouterr().err


def test_solver_variable_alone_selects_the_external_solver(
        ring4_file, monkeypatch, capsys):
    monkeypatch.setenv(ENV_SOLVER_COMMAND, "no-such-milp-binary {lp} {sol}")
    assert main(["run", ring4_file]) == EXIT_NO_SOLVER
    assert "no-such-milp-binary" in capsys.readouterr().err


def test_backend_embedded_ignores_the_variable_and_refuses_a_command(
        ring4_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_SOLVER_COMMAND, "no-such-milp-binary {lp} {sol}")
    out = tmp_path / "out"
    assert main(["run", ring4_file, "--backend", "embedded",
                 "-o", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(s["solver"].startswith("highs") for s in manifest["stages"])

    # a usage error: argparse's exit code 2, not the internal-fault code 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        main(["run", ring4_file, "--backend", "embedded",
              "--solver-cmd", "my-solver {lp} {sol}"])
    assert exited.value.code == 2
    assert "--backend embedded runs no --solver-cmd" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--nodes", "4", "--demands", "-1"], "at most 2 demands"),
    (["--nodes", "2"], "at least 3 nodes"),
    (["--nodes", "4", "--profile", "1,x"], "could not convert"),
])
def test_generate_refuses_bad_arguments_as_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["generate", *argv])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mplsotn: error: generate: " in captured.err and message in captured.err


def test_external_backend_defaults_to_bundled_solver(ring4_file, tmp_path,
                                                     monkeypatch):
    monkeypatch.delenv(ENV_SOLVER_COMMAND, raising=False)
    out = tmp_path / "out"
    code = main(["run", ring4_file, "--backend", "external",
                 "--survivability", "none", "-o", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert [s["solver"] for s in manifest["stages"]] == ["mplsotn-lp-solve"] * 2


def test_infeasible_instance_exit_code(infeasible_file, capsys):
    code = main(["run", infeasible_file, "--survivability", "single",
                 "--q-max", "1"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_auto_grow_q_flag_rescues(infeasible_file):
    code = main(["run", infeasible_file, "--survivability", "single",
                 "--q-max", "1", "--auto-grow-q"])
    assert code == EXIT_OK


def test_auto_grow_q_retry_gets_the_time_left(infeasible_file, tmp_path,
                                             monkeypatch):
    calls = []  # (stage, time limit, status, start, end) per solve
    solve = pipeline.solve

    def timed_solve(model, **kwargs):
        start = time.perf_counter()
        sol = solve(model, **kwargs)
        calls.append((kwargs["stage"], kwargs["time_limit"],
                      sol.status.value, start, time.perf_counter()))
        return sol

    monkeypatch.setattr(pipeline, "solve", timed_solve)
    out = tmp_path / "out"
    code = main(["run", infeasible_file, "--survivability", "single",
                 "--q-max", "1", "--auto-grow-q", "--time-limit", "60",
                 "-o", str(out)])
    assert code == EXIT_OK
    failed = [c[2] for c in calls].index("infeasible")
    first, retry = calls[:failed + 1], calls[failed + 1:]
    assert [c[0] for c in first] == ["working-mpls", "protection-mpls"]
    assert [c[0] for c in retry] == [
        "working-mpls", "protection-mpls", "lightpath-routing"]
    # the first attempt lasted at least from its first solve to its last
    first_wall = first[-1][4] - first[0][3]
    assert sum(c[1] for c in retry) <= 60 - first_wall
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["configuration"]["time_limit_seconds"] == 60
    assert sum(s["budget_seconds"] for s in manifest["stages"]) < 60


def test_verification_failure_exit_code(ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(
        evaluate, "verify_design",
        lambda instance, design: (Violation("planted", "planted failure"),),
    )
    code = main(["run", ring4_file, "--survivability", "none"])
    assert code == EXIT_VERIFY_FAILED
    assert "verification: planted" in capsys.readouterr().err


def _failed_drill(instance, design):
    outcome = EventOutcome(
        event=FailureEvent(kind=FailureKind.LINK, link=(1, 2)),
        affected=("d1",), lost_by_definition=(), optical_recovered=(),
        mpls_recovered=(), unrestored=("d1",), contention=(),
    )
    return DrillReport(outcomes=(outcome,))


def test_drill_failure_exit_code(ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(evaluate, "failure_drill", _failed_drill)
    code = main(["run", ring4_file, "--survivability", "single"])
    assert code == EXIT_DRILL_FAILED
    assert "drill: link 1-2: unrestored ['d1']" in capsys.readouterr().err


def test_drill_not_enforced_without_survivability(ring4_file, monkeypatch):
    # a best-effort design is allowed to lose traffic under failures
    monkeypatch.setattr(evaluate, "failure_drill", _failed_drill)
    assert main(["run", ring4_file, "--survivability", "none"]) == EXIT_OK


def test_compare_all(ring4_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["run", ring4_file, "--compare-all", "--format", "csv",
                 "-o", str(out)])
    assert code == EXIT_OK
    for option in ("none", "single", "double", "spare-unprotected", "brs"):
        assert (out / f"design-{option}.json").exists()
        assert (out / f"manifest-{option}.json").exists()
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    assert rows[0][0] == "option"
    by_option = {r[0]: r for r in rows[1:]}
    assert by_option["none"][1] == "23"
    assert by_option["brs"][1] == "29"


def _csv_rows_of(text: str) -> dict[str, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "option"
    return {r[0]: r for r in rows[1:]}


def test_compare_all_keeps_the_rows_of_options_that_succeed(infeasible_file,
                                                            capsys):
    code = main(["run", infeasible_file, "--compare-all", "--q-max", "1",
                 "--format", "csv"])
    assert code == EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    by_option = _csv_rows_of(out)
    assert list(by_option) == [o.value for o in OPTIONS]
    assert by_option["single"][1:] == ["failed: infeasible"] + ["-"] * 4
    assert "failed[single]: infeasible: stage 'protection-mpls'" in err
    for option in ("none", "double", "spare-unprotected", "brs"):
        assert not by_option[option][1].startswith("failed")


def test_compare_all_validates_each_option(chain_file, capsys):
    code = main(["run", chain_file, "--compare-all", "--format", "csv"])
    assert code == EXIT_INVALID_INSTANCE
    out, err = capsys.readouterr()
    by_option = _csv_rows_of(out)
    assert not by_option["none"][1].startswith("failed")
    for option in ("single", "double", "spare-unprotected", "brs"):
        assert by_option[option][1] == "failed: invalid instance"
        assert f"failed[{option}]: invalid instance: not-biconnected" in err


def test_compare_all_reports_a_failed_shared_stage_on_every_row(ring4_file,
                                                                capsys):
    code = main(["run", ring4_file, "--compare-all", "--format", "csv",
                 "--solver-cmd", "no-such-milp-binary {lp} {sol}"])
    assert code == EXIT_NO_SOLVER
    out, err = capsys.readouterr()
    assert {r[1] for r in _csv_rows_of(out).values()} == {
        "failed: solver unavailable"}
    assert err.count("solver unavailable: solver executable") == len(OPTIONS)


@pytest.fixture
def ring3_hot_file(tmp_path):
    # router 1 sends 27 Gbps, but one slot to each of its two peers carries 20
    path = tmp_path / "ring3.json"
    path.write_text(json.dumps({
        "name": "ring3-hot",
        "nodes": [1, 2, 3],
        "links": [[1, 2], [2, 3], [1, 3]],
        "wavelengths_per_link": 32,
        "max_parallel_lightpaths": 1,
        "demands": [
            {"id": "a", "source": 1, "destination": 2, "bandwidth_gbps": "9"},
            {"id": "b", "source": 1, "destination": 2, "bandwidth_gbps": "9"},
            {"id": "c", "source": 1, "destination": 3, "bandwidth_gbps": "9"},
        ],
    }), encoding="utf-8")
    return str(path)


def test_compare_all_grows_q_per_option_after_a_shared_infeasibility(
        ring3_hot_file, capsys):
    args = ["run", ring3_hot_file, "--compare-all", "--format", "csv"]
    assert main(args) == EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert {r[1] for r in _csv_rows_of(out).values()} == {"failed: infeasible"}
    assert err.count("stage 'working-mpls' ended infeasible") == len(OPTIONS)

    main(args + ["--auto-grow-q"])
    by_option = _csv_rows_of(capsys.readouterr().out)
    assert not by_option["none"][1].startswith("failed")


def test_compare_all_retries_get_the_time_left_after_a_shared_stage(
        ring3_hot_file, tmp_path, monkeypatch):
    starts = {}  # option -> when its first attempt began
    failed = []  # when the shared stage I came back infeasible
    run, solve = cli.run_design, pipeline.solve

    def timed_run(instance, cfg, **kwargs):
        starts[cfg.survivability.value] = time.perf_counter()
        return run(instance, cfg, **kwargs)

    def timed_solve(model, **kwargs):
        sol = solve(model, **kwargs)
        if kwargs["stage"] == "working-mpls" and sol.status.value == "infeasible":
            failed.append(time.perf_counter())
        return sol

    monkeypatch.setattr(cli, "run_design", timed_run)
    monkeypatch.setattr(pipeline, "solve", timed_solve)
    out = tmp_path / "out"
    main(["run", ring3_hot_file, "--compare-all", "--auto-grow-q",
          "--time-limit", "60", "-o", str(out)])
    (shared_end,) = failed  # one solve serves every option's stage I
    # single-layer protection stays infeasible at two slots per pair
    retried = [o.value for o in OPTIONS if o.value != "single"]
    for option in retried:
        manifest = json.loads((out / f"manifest-{option}.json").read_text())
        # an option that began before the shared stage came back spent
        # that time on its first attempt
        first = max(0.0, shared_end - starts[option])
        assert sum(s["budget_seconds"] for s in manifest["stages"]) <= \
            60 - first


def test_compare_all_solves_the_working_stage_once(ring4_file, monkeypatch):
    solved = []  # (stage, LP text, gap) per solve
    solve = pipeline.solve

    def counting_solve(model, **kwargs):
        solved.append((kwargs["stage"], write_model(model), kwargs["gap"]))
        return solve(model, **kwargs)

    monkeypatch.setattr(pipeline, "solve", counting_solve)
    # lone runs of the five options solve 17 and 9 models; under the
    # integrated approach `none` solves stage I's route-free relaxation, a
    # model of its own, and the four protected options share the full one
    for approach, distinct in (("sequential", 7), ("integrated", 5)):
        solved.clear()
        assert main(["run", ring4_file, "--compare-all",
                     "--approach", approach]) == EXIT_OK
        assert len(solved) == len(set(solved)) == distinct


def test_compare_all_runs_every_option_on_the_calling_thread(ring4_file,
                                                             monkeypatch):
    threads = {}  # option -> the thread that designed it
    run = cli.run_design

    def recording_run(instance, cfg, **kwargs):
        threads[cfg.survivability.value] = threading.get_ident()
        return run(instance, cfg, **kwargs)

    monkeypatch.setattr(cli, "run_design", recording_run)
    assert main(["run", ring4_file, "--compare-all"]) == EXIT_OK
    assert list(threads) == [o.value for o in OPTIONS]
    assert set(threads.values()) == {threading.get_ident()}


@pytest.mark.parametrize("name,approach", [
    ("ring4", Approach.SEQUENTIAL),
    ("ring4", Approach.INTEGRATED),
    ("fam-5-s0", Approach.SEQUENTIAL),
])
def test_compare_all_matches_lone_runs(name, approach, tmp_path, capsys):
    instance = desk("ring4") if name == "ring4" else mesh_family(5, 0)
    path = tmp_path / f"{name}.json"
    save_instance(instance, path)
    out = tmp_path / "out"
    code = main(["run", str(path), "--compare-all", "--approach",
                 approach.value, "-o", str(out)])
    infeasible = []
    for option in OPTIONS:
        design_file = out / f"design-{option.value}.json"
        try:
            alone = run_design(instance, exact_config(option, approach))
        except StageInfeasibleError:
            infeasible.append(option)
            assert not design_file.exists()
            continue
        shared = load_design(design_file)
        assert shared.config == alone.config
        assert shared.cost == alone.cost
        assert shared.lsp_routes == alone.lsp_routes
        assert shared.logical.lightpaths == alone.logical.lightpaths
    assert code == (EXIT_INFEASIBLE if infeasible else EXIT_OK)


def test_compare_all_keeps_every_options_artifacts(ring4_file, tmp_path):
    shared = tmp_path / "shared"
    assert main(["run", ring4_file, "--compare-all",
                 "--keep-artifacts", str(shared)]) == EXIT_OK
    # every option keeps its whole chain, shared solves included
    assert sorted(p.name for p in shared.iterdir()) == sorted(
        option.value for option in OPTIONS)

    def contents(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    for option in OPTIONS:
        alone = tmp_path / "alone" / option.value
        assert main(["run", ring4_file, "--survivability", option.value,
                     "--keep-artifacts", str(alone)]) == EXIT_OK
        assert contents(shared / option.value) == contents(alone)


def test_export_dot(ring4_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", ring4_file, "--survivability", "brs",
                 "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    dot_path = tmp_path / "ring4.dot"
    code = main(["export-dot", ring4_file,
                 "--design", str(out / "design.json"), "-o", str(dot_path)])
    assert code == EXIT_OK
    text = dot_path.read_text()
    assert text.startswith("graph")
    assert "1 -- 2" in text.replace('"', "")
    # plain topology export goes to stdout
    assert main(["export-dot", ring4_file]) == EXIT_OK
    assert capsys.readouterr().out.startswith("graph")


@pytest.mark.parametrize("case", ["missing", "envelope-only", "wrong-field",
                                  "instance-file"])
def test_export_dot_rejects_an_unreadable_design(case, ring4_file, tmp_path,
                                                  capsys):
    design = tmp_path / "design.json"
    if case == "envelope-only":
        design.write_text('{"format": "mplsotn-design/1"}')
    elif case == "wrong-field":
        design.write_text('{"format": "mplsotn-design/1", "instance": 3}')
    elif case == "instance-file":
        design = ring4_file
    code = main(["export-dot", ring4_file, "--design", str(design)])
    assert code == EXIT_INVALID_INSTANCE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read design {design}: ")
    assert "Traceback" not in err
