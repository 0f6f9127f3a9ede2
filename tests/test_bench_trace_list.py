"""The benchmark's tracer wraps qrdr functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module}.{name}" for _, module, name in spans.TRACED
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert not missing, f"traced but not defined: {missing}"
