"""Spans around the package's public calls, installed from outside.

``Tracer.installed()`` replaces module attributes such as
``mplsotn.pipeline.solve`` with wrappers that record one span per call
(name, start, end, parent, thread) and restores them on exit. Nothing under
``src/`` knows about it. Spans stay in memory; the caller writes them out
when the run ends.

A span's name is ``<layer>.<call>``, with the layer named after the module
that owns the work. ``layer_metrics`` turns the spans of one traced pass into
the per-layer numbers listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

STAGES = (
    "working-mpls",
    "protection-mpls",
    "lightpath-routing",
    "lightpath-protection",
    "integrated-working",
    "integrated-protection",
)

BUILDERS = (
    "build_working_mpls",
    "build_protection_mpls",
    "build_lightpath_routing_seq",
    "build_lightpath_protection",
    "build_integrated_working",
    "build_integrated_protection",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    thread: int
    stage: Optional[str] = None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {"id": self.id, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "thread": self.thread,
               "stage": self.stage}
        out.update((k, v) for k, v in self.attrs.items() if k != "model")
        return out


def _finish_build(span: Span, args, kwargs, result) -> None:
    span.stage = result.stage


def _finish_solve(span: Span, args, kwargs, result) -> None:
    # the digest is taken after the pass, so it never lands inside a span
    span.attrs["model"] = args[0] if args else kwargs["model"]
    span.attrs["gap"] = float(kwargs.get("gap", 0.0))
    span.attrs["status"] = result.status.value


def _finish_highs(span: Span, args, kwargs, result) -> None:
    nodes = getattr(result, "mip_node_count", None)
    span.attrs["nodes"] = int(nodes) if nodes is not None else 0


def _finish_drill(span: Span, args, kwargs, result) -> None:
    span.attrs["events"] = len(result.outcomes)


# (module, attribute, span name, hook run on the result)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("mplsotn.cli", "main", "cli.main", None),
    ("mplsotn.cli", "run_design", "pipeline.run_design", None),
    ("mplsotn.cli", "save_design", "serialize.save", None),
    ("mplsotn.pipeline", "run_design", "pipeline.run_design", None),
    ("mplsotn.pipeline", "validate_instance", "model.validate", None),
    ("mplsotn.instances", "validate_instance", "model.validate", None),
    ("mplsotn.pipeline", "compute_protection_plan", "formulation.plan", None),
    *(("mplsotn.pipeline", b, "formulation.build", _finish_build)
      for b in BUILDERS),
    ("mplsotn.pipeline", "solve", "solvers.solve", _finish_solve),
    ("mplsotn.solvers", "scipy_milp", "solvers.highs", _finish_highs),
    ("mplsotn.solvers", "snap_values", "milp.snap", None),
    ("mplsotn.solvers", "check_solution", "milp.check", None),
    ("mplsotn.pipeline", "decode_slot_path", "pipeline.decode", None),
    ("mplsotn.pipeline", "decode_route", "pipeline.decode", None),
    ("mplsotn.evaluate", "compute_metrics", "evaluate.metrics", None),
    ("mplsotn.evaluate", "verify_design", "evaluate.verify", None),
    ("mplsotn.evaluate", "failure_drill", "evaluate.drill", _finish_drill),
)


class Tracer:
    """Collects spans from wrapped module attributes while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stage: Optional[str]) -> Span:
        stack = self._stack()
        # a pool worker's first call hangs under the span the main thread
        # has open, which is waiting on the pool
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(
                id=self._next_id,
                name=name,
                start=time.perf_counter(),
                parent=parent.id if parent else None,
                thread=threading.get_ident(),
                stage=stage or (parent.stage if parent else None),
            )
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def _wrap(self, fn: Callable, name: str, finish: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stage = kwargs.get("stage") if name == "solvers.solve" else None
            span = tracer._open(name, stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack().pop()
            if finish is not None:
                finish(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = []
        self._main_stack = self._stack()
        try:
            for module_name, attr, name, finish in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, finish))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


# -- analysis ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration - _covered([
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if c.end > s.start and c.start < s.end
        ])
        for s in spans
    }


def nesting_errors(spans: list[Span]) -> list[str]:
    """Children that start before or end after their parent span."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"span {s.id} {s.name}: parent {s.parent} missing")
        elif s.start < p.start or s.end > p.end:
            errors.append(f"span {s.id} {s.name} is not inside {p.id} {p.name}")
    return errors


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".", 1)[0]] += selfs[s.id]
    return dict(out)


def model_records(spans: list[Span]) -> list[dict]:
    """One record per solve call: stage, size, HiGHS nodes, LP digest."""
    from mplsotn.milp import write_model

    nodes: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == "solvers.highs" and s.parent is not None:
            nodes[s.parent] += s.attrs.get("nodes", 0)
    records = []
    for s in spans:
        if s.name != "solvers.solve":
            continue
        model = s.attrs["model"]
        text = write_model(model) + f"\\ gap: {s.attrs['gap']!r}\n"
        records.append({
            "stage": s.stage,
            "vars": len(model.variables),
            "rows": len(model.constraints),
            "nnz": sum(len(c.terms) for c in model.constraints),
            "nodes": nodes[s.id],
            "status": s.attrs["status"],
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        })
    return records


def layer_metrics(spans: list[Span], records: list[dict], pass_s: float,
                  untraced_pass_s: float, known_models: dict) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    selfs = self_times(spans)

    def seconds(name: str, stage: Optional[str] = None, own: bool = False):
        return sum(selfs[s.id] if own else s.duration for s in spans
                   if s.name == name and (stage is None or s.stage == stage))

    m: dict[str, tuple] = {}
    for st in STAGES:
        m[f"formulation.build_s.{st}"] = (seconds("formulation.build", st), "s")
    m["formulation.plan_s"] = (seconds("formulation.plan"), "s")
    for key in ("vars", "rows", "nnz"):
        for st in STAGES:
            m[f"formulation.{key}.{st}"] = (
                sum(r[key] for r in records if r["stage"] == st), "count")
    for st in STAGES:
        m[f"solvers.solve_s.{st}"] = (seconds("solvers.solve", st), "s")
        m[f"solvers.highs_s.{st}"] = (seconds("solvers.highs", st), "s")
        m[f"solvers.nodes.{st}"] = (
            sum(r["nodes"] for r in records if r["stage"] == st), "count")
    m["solvers.assemble_s"] = (seconds("solvers.solve", own=True), "s")
    calls = len(records)
    distinct = len({r["sha256"] for r in records})
    m["solvers.calls"] = (calls, "count")
    m["solvers.distinct_models"] = (distinct, "count")
    m["solvers.repeat_share"] = ((calls - distinct) / calls if calls else 0.0,
                                 "share")
    # solved models whose LP text or node count differs from the recorded
    # baseline: 0 means every model is byte-identical to the baseline's
    m["solvers.unmatched_models"] = (sum(
        1 for r in records
        if known_models.get(r["sha256"], {}).get("nodes") != r["nodes"]),
        "count")
    m["milp.check_s"] = (seconds("milp.check"), "s")
    m["milp.snap_s"] = (seconds("milp.snap"), "s")
    m["model.validate_s"] = (seconds("model.validate"), "s")
    m["pipeline.decode_s"] = (seconds("pipeline.decode"), "s")
    m["pipeline.self_s"] = (seconds("pipeline.run_design", own=True), "s")
    m["evaluate.metrics_s"] = (seconds("evaluate.metrics"), "s")
    m["evaluate.verify_s"] = (seconds("evaluate.verify"), "s")
    m["evaluate.drill_s"] = (seconds("evaluate.drill"), "s")
    m["evaluate.drill_events"] = (sum(
        s.attrs.get("events", 0) for s in spans if s.name == "evaluate.drill"),
        "count")
    m["serialize.save_s"] = (seconds("serialize.save"), "s")
    m["cli.self_s"] = (seconds("cli.main", own=True), "s")
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.outside_s"] = (pass_s - _covered(roots), "s")
    m["trace.overhead_s"] = (pass_s - untraced_pass_s, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
