"""Every function, class and method that src/faceq defines is used there.

A definition counts as used when its name appears somewhere in the
package's source as an ast.Name or the attr of an ast.Attribute.  The
exceptions are dunders, the entry points cli.main and cli.script, and the
callables perfbench/trace_child.py wraps by name (its SPAN_NAMES, read with
ast as test_trace_names reads them), which the benchmark reaches from
outside.  Code that only tests reach fails here.
"""

import ast
from pathlib import Path

from test_trace_names import span_names

SRC = Path(__file__).resolve().parent.parent / "src" / "faceq"
ENTRY_POINTS = {("cli", "main"), ("cli", "script")}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_in_src_is_referenced_in_src():
    defined = []
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, DEFINITIONS):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    spans = {name.rsplit(".", 1)[-1] for name in span_names()}
    unused = [f"{module}.{name}" for module, name in defined
              if name not in referenced and name not in spans
              and (module, name) not in ENTRY_POINTS
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
