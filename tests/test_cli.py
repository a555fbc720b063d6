"""Command line behaviour, driven in-process through main(argv)."""

import csv
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from mplsotn import cli, evaluate, pipeline, solvers
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
from mplsotn.model import (
    Approach,
    FailureEvent,
    FailureKind,
    Survivability,
    Violation,
)
from mplsotn.pipeline import PipelineError, StageInfeasibleError, run_design
from mplsotn.serialize import load_design

from support import OPTIONS, desk, exact_config, highs_calls, mesh_family


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


def test_generate_cycles_a_listed_profile(tmp_path):
    path = tmp_path / "mesh6.json"
    assert main(["generate", "--kind", "mesh", "--nodes", "6", "--demands", "4",
                 "--profile", "2.5,10", "-o", str(path)]) == EXIT_OK
    demands = load_instance(path).traffic.demands
    assert [d.bandwidth_mbps for d in demands] == [2500, 10000, 2500, 10000]


@pytest.mark.parametrize("profile, message", [
    ("heavy", "unknown bandwidth profile 'heavy'"),
    ([], "bandwidth profile list is empty"),
])
def test_generate_instance_refuses_a_bad_profile(profile, message):
    with pytest.raises(ValueError, match=message):
        generate_instance("mesh", 6, demand_count=4, bandwidth_profile=profile)


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


MANIFEST_KEYS = [
    "instance", "instance.name", "instance.hash",
    "configuration", "configuration.survivability", "configuration.approach",
    "configuration.q_max", "configuration.optimality_gap",
    "configuration.time_limit_seconds", "configuration.transit_double_count",
    "configuration.auto_grow_q",
    "cost_model", "cost_model.router_port_cost", "cost_model.oxc_port_cost",
    "cost_model.transponder_cost", "cost_model.lightpath_capacity_gbps",
    "cost", "cost.transit", "cost.mpls", "cost.optical", "cost.total",
    "metrics", "metrics.transit_mbps_per_node", "metrics.transit_total_mbps",
    "metrics.working_lightpaths", "metrics.spare_lightpaths",
    "metrics.protection_lightpaths", "metrics.wavelengths_per_link",
    "metrics.wavelength_total", "metrics.extra_wavelengths",
    "metrics.spare_wavelengths", "metrics.reuse_factor",
    "stages", "stages[].stage", "stages[].variables", "stages[].constraints",
    "stages[].status", "stages[].objective", "stages[].objective_exact",
    "stages[].gap", "stages[].wall_seconds", "stages[].time_budget_seconds",
    "stages[].solver", "stages[].node_count", "stages[].dual_bound",
    "wall_seconds_total",
]


def test_manifest_key_paths(ring4_file, tmp_path):
    # keys only: the values include wall times
    out = tmp_path / "out"
    assert main(["run", ring4_file, "--survivability", "brs",
                 "-o", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    paths = []
    for key, block in manifest.items():
        paths.append(key)
        if isinstance(block, list):
            key, block = f"{key}[]", block[0]
        if isinstance(block, dict):
            paths.extend(f"{key}.{sub}" for sub in block)
    assert paths == MANIFEST_KEYS


def test_run_keep_artifacts(ring4_file, tmp_path):
    art = tmp_path / "artifacts"
    code = main(["run", ring4_file, "--survivability", "none",
                 "--keep-artifacts", str(art)])
    assert code == EXIT_OK
    for stage in ("working-mpls", "lightpath-routing"):
        for ext in (".mps", ".sol", ".meta.json"):
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


def test_instance_the_parser_refuses_exits_2(ring4_file, tmp_path, capsys):
    doc = json.loads(Path(ring4_file).read_text())
    doc["links"].append([2, 2])
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_INVALID_INSTANCE
    assert capsys.readouterr().err == (
        "invalid instance: bad-field: link [2, 2] is a self-loop\n")


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


def test_run_without_scipy_exits_3(ring4_file):
    tests = Path(__file__).resolve().parent
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mplsotn.cli import main\n"
            "sys.exit(main(['run', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code, ring4_file], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_NO_SOLVER, done.stderr
    assert "solver unavailable: HiGHS needs scipy" in done.stderr


def test_run_without_the_highs_binding_exits_3(ring4_file, tmp_path):
    # a scipy that imports but bundles no HiGHS binding
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0"\n')
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    done = subprocess.run([sys.executable, "-m", "mplsotn.cli", "run", ring4_file],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_NO_SOLVER, done.stderr
    assert "solver unavailable: HiGHS needs scipy" in done.stderr
    assert "no HiGHS binding _core*" in done.stderr
    assert "Traceback" not in done.stderr


def test_run_starts_without_scipy_optimize(ring4_file):
    # HiGHS is loaded from its file, found without running scipy's
    # __init__: neither scipy nor numpy is imported, let alone
    # scipy.optimize and scipy.sparse, which kept 0.6 s off a cold start
    code = ("import sys\n"
            "from mplsotn.cli import main\n"
            "code = main(['run', sys.argv[1], '--gap', '0'])\n"
            "print('loaded:', sorted({'numpy', 'scipy', 'scipy.optimize',"
            " 'scipy.sparse'} & set(sys.modules)))\n"
            "sys.exit(code)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, ring4_file], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded: []"


def test_highs_prints_on_fd_1_stay_off_a_csv_report(ring4_file):
    # HiGHS 1.12 writes some MIP notes from C straight to fd 1; the stub's
    # run does the same before every solve
    code = ("import os, sys\n"
            "from mplsotn import solvers\n"
            "from mplsotn.cli import main\n"
            "class Loud:\n"
            "    def __init__(self, highs): self._highs = highs\n"
            "    def __getattr__(self, name): return getattr(self._highs, name)\n"
            "    def run(self):\n"
            "        os.write(1, b'tmpSolver.run();\\n')\n"
            "        return self._highs.run()\n"
            "class Core:\n"
            "    def __getattr__(self, name): return getattr(solvers._core, name)\n"
            "    def _Highs(self): return Loud(solvers._core._Highs())\n"
            "solvers._core = solvers._highs\n"
            "solvers._highs = Core()\n"
            "sys.exit(main(['run', sys.argv[1], '--compare-all', '--approach',"
            " 'integrated', '--format', 'csv', '--gap', '0']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, ring4_file], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert "tmpSolver.run();" in done.stderr
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0][:2] == ["option", "total_cost"]
    assert [row[0] for row in rows[1:]] == [s.value for s in Survivability]
    assert {len(row) for row in rows} == {len(rows[0])}


def test_pipeline_fault_is_internal_error(ring4_file, monkeypatch, capsys):
    def broken(instance, cfg, **kwargs):
        raise PipelineError("decoder lost a lightpath")

    monkeypatch.setattr(cli, "run_design", broken)
    assert main(["run", ring4_file]) == EXIT_INTERNAL
    assert "error: decoder lost a lightpath" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["nan", "inf"])
@pytest.mark.parametrize("extra", [[], ["--compare-all"]], ids=["run", "compare"])
def test_non_finite_time_limit_is_rejected(ring4_file, tmp_path, capsys,
                                           limit, extra):
    out = tmp_path / "out"
    code = main(["run", ring4_file, f"--time-limit={limit}", "-o", str(out),
                 *extra])
    assert code == EXIT_INVALID_INSTANCE
    assert "bad-time-limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "NaN"])
@pytest.mark.parametrize("field", ["demand", "lightpath_capacity_gbps"])
def test_run_refuses_a_non_finite_bandwidth(field, value, tmp_path, capsys):
    path = tmp_path / "ring4.json"
    save_instance(desk("ring4"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if field == "demand":
        doc["demands"][0]["bandwidth_gbps"] = value
    else:
        doc["lightpath_capacity_gbps"] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_INVALID_INSTANCE
    err = capsys.readouterr().err
    assert "bad-field" in err and "must be finite" in err


@pytest.mark.parametrize("argv, message", [
    (["--nodes", "4", "--demands", "-1"], "at most 2 demands"),
    (["--nodes", "2"], "at least 3 nodes"),
    (["--nodes", "4", "--profile", "1,x"], "could not convert"),
    *((["--nodes", "4", f"--profile={value}"], "profile bandwidth must be finite")
      for value in ("inf", "-inf", "NaN")),
    (["--nodes", "4", "--profile", "heavy"], "could not convert"),
])
def test_generate_refuses_bad_arguments_as_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["generate", *argv])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mplsotn: error: generate: " in captured.err and message in captured.err


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
    assert sum(s["time_budget_seconds"] for s in manifest["stages"]) < 60


def test_verification_failure_exit_code(ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(
        evaluate, "verify_design",
        lambda instance, design: (Violation("planted", "planted failure"),),
    )
    code = main(["run", ring4_file, "--survivability", "none"])
    assert code == EXIT_VERIFY_FAILED
    assert "verification: planted" in capsys.readouterr().err


def _failed_drill(instance, design, contention=()):
    outcome = EventOutcome(
        event=FailureEvent(kind=FailureKind.LINK, link=(1, 2)),
        affected=("d1",), lost_by_definition=(), optical_recovered=(),
        mpls_recovered=(), unrestored=("d1",), contention=contention,
    )
    return DrillReport(outcomes=(outcome,))


def test_drill_failure_exit_code(ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(evaluate, "failure_drill", _failed_drill)
    code = main(["run", ring4_file, "--survivability", "single"])
    assert code == EXIT_DRILL_FAILED
    assert "drill: link 1-2: unrestored ['d1']" in capsys.readouterr().err


def test_drill_contention_is_reported(ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(
        evaluate, "failure_drill",
        lambda instance, design: _failed_drill(instance, design, ((1, 4),)))
    code = main(["run", ring4_file, "--survivability", "brs"])
    assert code == EXIT_DRILL_FAILED
    assert ("drill: link 1-2: unrestored ['d1']; contention on [(1, 4)]"
            in capsys.readouterr().err)


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


def test_compare_all_exits_5_when_an_option_fails_verification(
        ring4_file, monkeypatch, capsys):
    verify = evaluate.verify_design

    def planted(instance, design):
        if design.config.survivability is Survivability.MULTI_DOUBLE:
            return (Violation("planted", "planted failure"),)
        return verify(instance, design)

    monkeypatch.setattr(evaluate, "verify_design", planted)
    code = main(["run", ring4_file, "--compare-all", "--format", "csv"])
    assert code == EXIT_VERIFY_FAILED
    out, err = capsys.readouterr()
    assert err.splitlines() == ["verification[double]: planted: planted failure"]
    # the failing option keeps its row
    assert _csv_rows_of(out)["double"][1] == "29"


def test_compare_all_exits_6_when_a_protected_option_fails_its_drill(
        ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(evaluate, "failure_drill", _failed_drill)
    code = main(["run", ring4_file, "--compare-all", "--format", "csv"])
    assert code == EXIT_DRILL_FAILED
    out, err = capsys.readouterr()
    # an unprotected design may lose traffic, so "none" is not reported
    assert err.splitlines() == [
        f"drill[{o.value}]: 1 non-restorable event(s)" for o in OPTIONS[1:]]
    assert len(_csv_rows_of(out)) == len(OPTIONS)


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


def test_compare_all_reports_a_failed_shared_stage_on_every_row(
        ring4_file, monkeypatch, capsys):
    monkeypatch.setattr(solvers, "scipy_milp", None)  # as if scipy were missing
    code = main(["run", ring4_file, "--compare-all", "--format", "csv"])
    assert code == EXIT_NO_SOLVER
    out, err = capsys.readouterr()
    assert {r[1] for r in _csv_rows_of(out).values()} == {
        "failed: solver unavailable"}
    assert err.count("solver unavailable: HiGHS needs scipy") == len(OPTIONS)


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
    validate, solve = pipeline.validate_instance, pipeline.solve

    def timed_validate(instance, cfg):
        # run_design reads its clock just before it validates, and reaches
        # its retry only after the shared solve returns: both marks fall on
        # the side of the bound that holds
        starts[cfg.survivability.value] = time.perf_counter()
        return validate(instance, cfg)

    def timed_solve(model, **kwargs):
        sol = solve(model, **kwargs)
        if kwargs["stage"] == "working-mpls" and sol.status.value == "infeasible":
            failed.append(time.perf_counter())
        return sol

    monkeypatch.setattr(pipeline, "validate_instance", timed_validate)
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
        assert sum(s["time_budget_seconds"] for s in manifest["stages"]) <= \
            60 - first


def test_compare_all_solves_the_working_stage_once(ring4_file, monkeypatch):
    solved = []  # (stage, model text, gap) per solve
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


def test_compare_all_keeps_every_options_artifacts(ring4_file, tmp_path,
                                                   monkeypatch):
    calls = highs_calls(monkeypatch)
    shared = tmp_path / "shared"
    assert main(["run", ring4_file, "--compare-all",
                 "--keep-artifacts", str(shared)]) == EXIT_OK
    # every option keeps its whole chain, shared solves included
    assert sorted(p.name for p in shared.iterdir()) == sorted(
        option.value for option in OPTIONS)
    # a memo hit keeps the very text of the solve it reuses, as stage I does
    # under every option; a model without columns is never read
    kept = [p.read_bytes() for p in shared.glob("*/*.mps")]
    assert {t for t in kept if b"\nCOLUMNS\nRHS\n" not in t} == {
        kwargs["mps"].encode() for kwargs, _ in calls}

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
                                  "instance-file", "array"])
def test_export_dot_rejects_an_unreadable_design(case, ring4_file, tmp_path,
                                                  capsys):
    design = tmp_path / "design.json"
    if case == "array":
        design.write_text('[{"format": "mplsotn-design/1"}]')
    elif case == "envelope-only":
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


def test_export_dot_rejects_a_design_for_another_instance(ring4_file, tmp_path,
                                                          capsys):
    out, ring6 = tmp_path / "run", tmp_path / "ring6.json"
    assert main(["run", ring4_file, "-o", str(out)]) == EXIT_OK
    assert main(["generate", "--nodes", "6", "-o", str(ring6)]) == EXIT_OK
    capsys.readouterr()
    code = main(["export-dot", str(ring6), "--design", str(out / "design.json")])
    assert code == EXIT_INVALID_INSTANCE
    captured = capsys.readouterr()
    assert "was built for a different instance" in captured.err
    assert captured.out == ""


def test_export_dot_escapes_the_graph_name(tmp_path, capsys):
    path = tmp_path / "named.json"
    save_instance(replace(desk("ring4"), name='lab "A" net\\'), path)
    assert main(["export-dot", str(path)]) == EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert first == 'graph "lab \\"A\\" net\\\\" {'
