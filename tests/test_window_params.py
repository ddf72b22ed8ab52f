"""A window is stated once: by the input it is read from.

A presentation knows its window (GradedAlgebra.max_degree, from its
labels), so a function handed presentations reads the window there and
takes no max_degree of its own.  Only the three functions that build a
presentation from a quiver, with no presentation to read it from, take
one.  A parameter that restates a window its arguments already carry can
disagree with them, and fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "faceq"
WINDOW_READERS = {"path_algebra_presentation", "quadratic_data", "build_uqsgd"}


def test_only_the_builders_from_a_quiver_take_a_max_degree():
    takers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "max_degree" in names:
                    takers.add(getattr(node, "name", "<lambda>"))
    assert takers == WINDOW_READERS
