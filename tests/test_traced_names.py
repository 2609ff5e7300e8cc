"""Every function that the traced benchmark patches exists in the package.

``benchmarks/tracing.py`` wraps ``<module>.<function>`` for each name in its
``LAYERS`` table.  The table is read with ``ast``, so the benchmark is not
imported, and a renamed or deleted function fails here rather than only in the
traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _layers():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYERS table")


def test_every_traced_function_exists():
    layers = _layers()
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nbdistill.{module}"), name, None))
    ]
    assert layers and not missing
