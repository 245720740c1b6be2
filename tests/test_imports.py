"""No module of the package keeps a module-level import that nothing uses,
and no function, class or method that nothing names."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quivkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """(line, name) of each module-level import whose name is never read."""
    tree = ast.parse(text)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend((node.lineno, (alias.asname or alias.name).split(".")[0])
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    text = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system.argv, tau)\n"
    assert unused_imports(text) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _named(node, out):
    """Add to `out` every name that `node` reads: identifiers, attributes,
    imported names and the words of string constants (perfbench patches
    functions by dotted name), skipping docstrings."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
            continue
        if isinstance(child, ast.Name):
            out.append(child.id)
        elif isinstance(child, ast.Attribute):
            out.append(child.attr)
        elif isinstance(child, ast.alias):
            out.append(child.name.split(".")[-1])
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            out.extend(re.findall(r"\w+", child.value))
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = []
            _named(child, inner)
            out.extend(n for n in inner if n != child.name)
        else:
            _named(child, out)


def dead_definitions(defining, others):
    """(file, line, name) of each function, class or method defined in the
    `defining` texts ({label: text}) whose name is read nowhere in them or in
    `others`, outside its own definition; dunder methods are called
    implicitly and do not count."""
    names, defs = [], []
    for label, text in {**defining, **others}.items():
        tree = ast.parse(text)
        _named(tree, names)
        if label in defining:
            defs.extend((label, node.lineno, node.name) for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef)))
    used = set(names)
    return [(label, line, name) for label, line, name in sorted(defs)
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def test_the_check_finds_a_dead_definition():
    lib = ("class A:\n    def used(self):\n        return self.used()\n"
           "    def dead(self):\n        return dead_fn()\n    def __repr__(self):\n"
           "        return ''\n\ndef dead_fn():\n    return 1\n\n"
           "def rec():\n    \"\"\"rec, helper\"\"\"\n    return rec()\n\n"
           "def helper():\n    return 2\n")
    user = "from lib import A\nA().used()\npatch('lib.helper')\n"
    assert dead_definitions({"lib": lib}, {"user": user}) == [
        ("lib", 4, "dead"), ("lib", 12, "rec")]


def test_no_dead_definitions():
    def texts(root, pattern):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
                for p in sorted(root.glob(pattern))}

    defining = texts(SRC, "*.py")
    others = {**texts(ROOT / "tests", "*.py"), **texts(ROOT / "perfbench", "*.py")}
    assert dead_definitions(defining, others) == []
