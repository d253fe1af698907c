"""Every entry point the benchmark's tracer patches still exists.

``perfbench/run.py --trace 1`` wraps each layer's public entry points
from outside the package (``perfbench/tracing.py``).  A refactor that
moves or renames one of them would break the traced run without
failing anything under ``src/``; this test catches it.  It resolves
each target exactly the way ``Tracer.install`` does: a method must be
in its class's own ``__dict__``, a function must be a module attribute.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_entry_point_resolves():
    tracing = _tracing_module()
    unresolved = []
    for module_name, path, layer in tracing.SPANS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            target = getattr(module, cls_name, None)
            found = target is not None and attr in vars(target)
        else:
            found = callable(getattr(module, path, None))
        if not found:
            unresolved.append(f"{module_name}.{path} ({layer})")
    assert tracing.SPANS
    assert not unresolved, unresolved
