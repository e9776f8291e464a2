"""The benchmark's layer hooks must all resolve against the package.

``perfbench/spans.py`` patches named functions to time each layer; a hook
whose target was renamed or deleted is skipped and its per-layer metrics
silently read zero.  This guard turns that into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_hook_resolves():
    spans = _load_spans()
    with spans.Tracer() as tracer:
        assert tracer.missing == []
