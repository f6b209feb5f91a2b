"""The benchmark's tracer wraps library names from outside (perfbench/tracing.py,
``WRAPPED``); a name that moves is reported missing and its per-layer metrics
drop out.  This test reads that list without importing the benchmark and checks
that every name still resolves on the library."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED list in {TRACING}")


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module_name, path, _span in wrapped:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path} is not callable"
