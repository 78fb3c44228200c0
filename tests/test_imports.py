"""Source scans of the package, read with the standard library's ``ast``.

Every module uses each name it imports.  A removal that leaves its
import behind keeps the removed concept in the module's namespace, so
this scan fails on it; a name counts as used when it appears as an
identifier anywhere in the module.

Every private function, class and method (a name with a leading
underscore, dunders excluded) is referenced somewhere in the package.
A helper whose last caller went away is dead code, and the scan fails
on it; a reference is a name or an attribute with the helper's name in
any module, so an import alone does not count.  Every public function,
class and method of the package is referenced, in the same sense,
somewhere in the package or the bench: a public name that only tests
call has no consumer, and is deleted or moved into the tests.  The
paper statements listed in ``AWAITING_CLI`` are the exception.

No module holds an ``assert`` statement or reads ``__debug__``.
``python -O`` strips both, so a library check resting on either would
vanish there; the scan proves their absence for every line, reached by
a test or not.
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


def debug_only_lines(source):
    """Line numbers of the ``assert`` statements and ``__debug__`` reads in a module's source."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Assert) or (isinstance(n, ast.Name) and n.id == "__debug__")
    )


def test_scan_finds_debug_only_checks():
    src = "x = 1\nassert x, 'gone under -O'\nif __debug__:\n    y = 2\nz = 'assert'  # assert\n"
    assert debug_only_lines(src) == [2, 3]
    assert debug_only_lines("def f(x):\n    if x < 0:\n        raise ValueError(x)\n") == []


def test_package_has_no_debug_only_checks():
    found = {p.name: debug_only_lines(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _referenced(trees):
    """Every name and attribute name read in the trees; an import alone adds none."""
    used = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return used


def _defs(trees):
    """(module, name) of every function, class and method in ``trees`` (module -> tree)."""
    return sorted(
        (module, n.name)
        for module, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )


def unreferenced_private_defs(sources):
    """(module, name) of each private def or class in ``sources`` (name -> source) that no module references."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = _referenced(trees.values())
    return [
        (module, name)
        for module, name in _defs(trees)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")) and name not in used
    ]


def unreferenced_public_defs(sources, users):
    """(module, name) of each public def or class in ``sources`` that neither ``sources`` nor ``users`` references.

    Both map a module name to its source.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = _referenced([*trees.values(), *map(ast.parse, users.values())])
    return [(module, name) for module, name in _defs(trees) if not name.startswith("_") and name not in used]


def test_scan_finds_an_unreferenced_private_def():
    a = "def _used(x):\n    return x\n\ndef _dead():\n    pass\n\nclass _Gone:\n    def __init__(self):\n        pass\n"
    b = "from a import _used, _dead\n\nclass C:\n    def _m(self):\n        return _used(self._n())\n\n    def _n(self):\n        pass\n"
    assert unreferenced_private_defs({"a": a, "b": b}) == [("a", "_Gone"), ("a", "_dead"), ("b", "_m")]
    assert unreferenced_private_defs({"a": a + "_dead, _Gone\n", "b": b + "C()._m()\n"}) == []


def test_package_has_no_unreferenced_private_defs():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_scan_finds_an_unreferenced_public_def():
    a = "def used(x):\n    return x\n\ndef dead():\n    pass\n\nclass Gone:\n    def method(self):\n        pass\n"
    b = "from a import used, dead, Gone\n\nclass C:\n    def m(self):\n        return used(self._n())\n"
    assert unreferenced_public_defs({"a": a}, {"b": b}) == [("a", "Gone"), ("a", "dead"), ("a", "method")]
    assert unreferenced_public_defs({"a": a, "b": b}, {}) == [("a", "Gone"), ("a", "dead"), ("a", "method"), ("b", "C"), ("b", "m")]
    assert unreferenced_public_defs({"a": a}, {"b": b + "Gone().method(), dead\n"}) == []


# Statements of the paper that only the tests run so far: the split laws,
# the inf-dual's conlinear structure, the difference quotient that defines
# the directional derivative, the hat minorant witness, the equivalence of
# conditions A-D, the sup of G(R^2, C) and the inf and sup of finite sets of
# extended reals.  Their consumer is the planned ``infsup laws`` command,
# whose law suites will run them; each leaves this list when it gets a
# caller in the package or the bench.
AWAITING_CLI = [
    ("calculus.py", "diff_quotient"),
    ("calculus.py", "hat_minorant_witness"),
    ("extreal.py", "inf_down"),
    ("extreal.py", "inf_up"),
    ("extreal.py", "sup_down"),
    ("extreal.py", "sup_up"),
    ("functions.py", "affine_split_dif"),
    ("functions.py", "affine_split_sup"),
    ("functions.py", "dual_add"),
    ("functions.py", "dual_scale"),
    ("groupoid.py", "check_equivalence"),
    ("laws.py", "check_conlinear"),
    ("laws.py", "is_conlinear"),
    ("setvalued.py", "sup"),
]


def test_package_has_no_unreferenced_public_defs():
    root = PACKAGE.parent.parent
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    users = {str(p.relative_to(root)): p.read_text() for p in sorted((root / "bench").glob("*.py"))}
    assert users
    assert unreferenced_public_defs(sources, users) == AWAITING_CLI
