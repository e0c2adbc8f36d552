"""The benchmark's tracer finds every function it wraps.

``perfbench/spans.py`` wraps factorlab functions at the names their callers
look them up by; a refactor that renames or drops one of them breaks the
traced benchmark, which tier-1 would not otherwise notice.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.PATCHES


def test_every_traced_name_resolves():
    patches = _patches()
    assert patches
    missing = [
        f"factorlab.{module}.{attr}"
        for module, attr, _ in patches
        if not callable(getattr(importlib.import_module(f"factorlab.{module}"), attr, None))
    ]
    assert not missing
