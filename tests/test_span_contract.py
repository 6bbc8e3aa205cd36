"""The benchmark's traced run finds layer functions by module, name and leading
parameters (perfbench/spans.py). A rename or a changed signature there leaves a
layer silently unmeasured, so every required target must still resolve."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_required_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up while building
    spec.loader.exec_module(spans)
    required = [t for t in spans.TARGETS if not t.optional]
    assert required
    for target in required:
        fn = getattr(importlib.import_module(target.module), target.attr, None)
        assert callable(fn), f"{target.module}.{target.attr} is missing ({target.layer})"
        params = list(inspect.signature(fn).parameters)[: len(target.params)]
        assert params == list(target.params), f"{target.module}.{target.attr}{params} ({target.layer})"
