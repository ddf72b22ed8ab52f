"""README's Library example runs as written and gives the values its comments state.

Each expression statement of the block ends in a comment holding the value
it evaluates to; the test runs the block statement by statement and
compares.  It imports only what the block imports, so it also runs against
an installed package.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_gives_the_commented_values():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1]
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment.strip()), ast.unparse(node)
            values.append(value)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values == [True, True, [1, 4, 10, 20], True]
    assert (namespace["xy"], namespace["yx"]) == (1, 2)
