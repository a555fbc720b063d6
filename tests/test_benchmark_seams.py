"""The module attributes the benchmark's tracer wraps must exist and be used.

``perfbench/tracing.py`` replaces attributes such as ``mplsotn.pipeline.solve``
from outside the package. A rename inside ``src/`` would only show up as a
crash of a traced benchmark run, and a call that goes around a wrapped
attribute, or drops the ``stage=`` keyword the tracer reads, would only show
up as per-layer metrics that read 0. These tests load the tracer and fail
instead.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from mplsotn import Approach, Survivability, pipeline

from support import desk, exact_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(tracing):
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_a_traced_run_solves_and_decodes_through_the_wrapped_seams(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        design = pipeline.run_design(
            desk("ring4"), exact_config(Survivability.MULTI_INTERLAYER_BRS))
    solves = [s for s in tracer.spans if s.name == "solvers.solve"]
    assert [s.stage for s in solves] == [
        "working-mpls", "protection-mpls", "lightpath-routing",
        "lightpath-protection"]
    assert any(s.name == "pipeline.decode" for s in tracer.spans)
    # one HiGHS call for each model with variables (protection-mpls has
    # none), carrying the node count the stage reports, which is not all 0
    nodes = [s.attrs["nodes"] for s in tracer.spans if s.name == "solvers.highs"]
    assert nodes == [t.node_count for t in design.traces
                     if t.stage != "protection-mpls"]
    assert sum(nodes) > 0
    # the tracer digests each solved model through milp.write_model
    records = tracing.model_records(tracer.spans)
    assert [(r["stage"], r["vars"], r["rows"], r["nnz"]) for r in records] == [
        (s.stage, len(m.variables), len(m.constraints),
         sum(len(c.terms) for c in m.constraints))
        for s in solves for m in [s.attrs["model"]]]
    assert all(re.fullmatch("[0-9a-f]{64}", r["sha256"]) for r in records)


def test_a_traced_integrated_run_files_each_layer_under_its_stage(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        pipeline.run_design(desk("ring4"), exact_config(
            Survivability.MULTI_DOUBLE, Approach.INTEGRATED))
    # a model built under another stage's name would misfile its metrics
    for span_name in ("formulation.build", "solvers.solve"):
        assert [s.stage for s in tracer.spans if s.name == span_name] == [
            "integrated-working", "integrated-protection"]
