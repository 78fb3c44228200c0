"""Every module of the package uses each name it imports.

A removal that leaves its import behind keeps the removed concept in the
module's namespace, so this scan fails on it.  It reads the source with
the standard library's ``ast``: a name counts as used when it appears
as an identifier anywhere in the module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "infsup"


def unused_imports(source):
    """The names a module's source imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport math\nimport os.path\nfrom a import b as c, d\n"
    assert unused_imports(src + "x = d + os.path.sep\n") == ["math", "c"]
    assert unused_imports(src + "math.pi, os, c, d\n") == []


def test_package_modules_use_every_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: u for name, u in unused.items() if u} == {}
