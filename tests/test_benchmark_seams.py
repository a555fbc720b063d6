"""The module attributes the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` replaces attributes such as ``mplsotn.pipeline.solve``
from outside the package. A rename inside ``src/`` would only show up as a
crash of a traced benchmark run; this test reads the tracer's target list and
fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
