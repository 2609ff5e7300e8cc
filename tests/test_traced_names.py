"""Every function that the traced benchmark patches exists in the package,
and takes the arguments its wrapper passes.

``benchmarks/tracing.py`` wraps ``<module>.<function>`` for each name in its
``LAYERS`` table, and three of its wrappers call the function with parameters
of their own.  The file is read with ``ast``, so the benchmark is not imported,
and a renamed or deleted function, or a changed signature, fails here rather
than only in the traced benchmark run.
"""

import ast
import inspect
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


def _special_wrappers():
    """The ``def wrapper`` of each ``if func == "NAME":`` branch of ``Tracer.wrap``."""
    wrap = next(node for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef) and node.name == "wrap")
    return {
        node.test.comparators[0].value: next(d for d in node.body if isinstance(d, ast.FunctionDef))
        for node in ast.walk(wrap)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", None) == "func"
    }


def test_special_cased_wrappers_match_the_signatures():
    """The tracer passes ``mbr_utility`` and ``tune_mira`` its own parameters by
    position, fills a missing default from ``fn.__defaults__[0]``, and reads the
    ``refs`` keyword of ``rerank``; each function must still take them so."""
    layer = {name: module for module, names in _layers().items() for name in names}
    wrappers = _special_wrappers()
    assert set(wrappers) == {"mbr_utility", "tune_mira", "rerank"}
    for func, wrapper in wrappers.items():
        module = importlib.import_module(f"nbdistill.{layer[func]}")
        params = list(inspect.signature(getattr(module, func)).parameters.values())
        args = wrapper.args
        names = [arg.arg for arg in args.args]
        assert [p.name for p in params[:len(names)]] == names, func
        # the first default of each is for the same parameter, with the same literal
        first = next((i for i, p in enumerate(params) if p.default is not p.empty), None)
        if args.defaults:
            assert first == len(names) - len(args.defaults), func
        for param, default in zip(params[first or 0:], args.defaults):
            assert default.value in (None, param.default), func
        read = [node.args[0].value for node in ast.walk(wrapper)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"]
        assert {p.name for p in params if p.kind is not p.POSITIONAL_ONLY} >= set(read), func
