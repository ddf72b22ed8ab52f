"""The names that perfbench/trace_child.py wraps must stay callable in faceq.

The harness's SPAN_NAMES tuple is read from its source with ast, without
importing or executing the harness, so a rename or removal in faceq fails
here and not only in the benchmark's self-check.
"""

import ast
import importlib
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def span_names():
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_NAMES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("SPAN_NAMES not found in trace_child.py")


def test_span_names_resolve_to_callables():
    names = span_names()
    assert names
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"faceq.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name
