"""The benchmark traces lcplab functions by name: every traced layer
named in ``lcpbench/tracing.py`` must exist in lcplab, or a traced run
breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "lcpbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("lcpbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.span_names():
        mod, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"lcplab.{mod}"), fn, None)):
            missing.append(name)
    assert tracing.LAYERS and missing == []
