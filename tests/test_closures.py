"""No function in faceq is a closure that calls itself.

A nested function that names itself among its free variables holds the
cell that holds it: each call of the enclosing function leaves a
reference cycle, which only the cycle collector frees, and cli.main runs
with the collector off.  The check compiles every faceq module and reads
its code objects, so it covers code that no test runs.  It reads co_name,
not co_qualname, which Python 3.10 does not have.
"""

import types
from pathlib import Path

import faceq

MODULES = sorted(Path(faceq.__file__).parent.glob("*.py"))


def nested_code(code, path):
    """(dotted path, code object) for every function compiled inside code."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            inner = f"{path}.{const.co_name}"
            yield inner, const
            yield from nested_code(const, inner)


def self_calling(code, path):
    """Dotted paths of the functions inside code that name themselves as free variables."""
    return [p for p, inner in nested_code(code, path) if inner.co_name in inner.co_freevars]


def test_every_module_is_read():
    assert {"cli", "coaction", "linalg", "quiver", "wba"} <= {m.stem for m in MODULES}


def test_no_closure_calls_itself():
    found = []
    for module in MODULES:
        found += self_calling(compile(module.read_text(encoding="utf-8"), str(module), "exec"),
                              module.stem)
    assert found == []


def test_the_check_finds_a_self_calling_closure():
    source = "def outer():\n    def walk(n):\n        return walk(n - 1) if n else 0\n"
    assert self_calling(compile(source, "<example>", "exec"), "example") == ["example.outer.walk"]
