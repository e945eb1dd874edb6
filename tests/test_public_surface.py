"""The public surface is what the library, the demos and the benchmark use.

A name in ``levyup.__all__`` stays only if a library module other than
``__init__``, a demo or ``perfbench`` refers to it; a helper that only tests
call belongs in the tests.
"""

import ast
from pathlib import Path

import levyup

ROOT = Path(__file__).parents[1]


def referenced_names(paths):
    """Names read (``ast.Name`` in load context), attributes and imported
    names in the files; a name's own definition is none of these."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    paths = [p for p in (ROOT / "src" / "levyup").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert sorted(set(levyup.__all__) - referenced_names(paths)) == []
