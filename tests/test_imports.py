"""No module of the package keeps a module-level import that nothing uses,
and no function, class or method that nothing in the package or the
benchmark names, apart from an allowlist of public names; no public keyword
option that an allowlist does not name; every name that the
benchmark's tracer wraps still resolves; README's Errors section names
every error code the package raises; and outside `exactlin` an element is
converted between its sparse and dense forms only in the dense views."""

import ast
import importlib
import re
import runpy
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


# Definitions that nothing in the package or the benchmark names, kept on
# purpose, by module and name, each with its reason.  A reference from the
# tests alone does not keep a definition in the package.
KEPT = {
    "exactlin.invert": "public: README documents it",
    "gabriel.coordinate_map": "public: README documents it",
    "gabriel.inner_conjugation_witness": "public: README documents it",
    "exactlin.copy": "Mat.copy, a public method of the exported Mat",
    "exactlin.from_rows": "Mat.from_rows, a public method of the exported Mat",
}


def test_no_dead_definitions():
    def texts(root, pattern):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
                for p in sorted(root.glob(pattern))}

    dead = dead_definitions(texts(SRC, "*.py"), texts(ROOT / "perfbench", "*.py"))
    found = {f"{Path(label).stem}.{name}" for label, _line, name in dead}
    assert sorted(found - set(KEPT)) == []
    # an entry whose definition is gone or is named again leaves the list
    assert sorted(set(KEPT) - found) == []


def public_options(text):
    """`function.parameter` (`Class.method.parameter`) of each parameter with
    a default or keyword-only on the public functions, methods and
    constructors that `text` defines at module level."""
    out = []

    def options(node, owner):
        args = node.args
        positional = args.posonlyargs + args.args
        names = positional[len(positional) - len(args.defaults):] + args.kwonlyargs
        out.extend(f"{owner}{node.name}.{arg.arg}" for arg in names)

    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            options(node, "")
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and \
                        (not method.name.startswith("_") or method.name == "__init__"):
                    options(method, f"{node.name}.")
    return out


def test_the_check_finds_the_public_options():
    text = ("def f(x, y=1, *, z):\n    pass\n\ndef _g(x=1):\n    pass\n\n"
            "class C:\n    def __init__(self, a, b=None):\n        pass\n"
            "    def m(self, *args, c=2, **kw):\n        pass\n"
            "    def _h(self, d=3):\n        pass\n"
            "    def __eq__(self, other=None):\n        pass\n")
    assert public_options(text) == ["f.y", "f.z", "C.__init__.b", "C.m.c"]


# Every public keyword option of the package, by module and definition,
# each with its reason.  An option is a second way to call one function, so
# a new one is listed here with why its callers need it.
OPTIONS = {
    "adjunction.counit.level": "the truncation level of the path algebra it maps from",
    "adjunction.counit.splitting": "the counit through a chosen splitting, as the paper states it",
    "adjunction.semisimple_adjunction_bijection.gq_a":
        "the hom-set maps read through a chosen Gabriel quiver",
    "adjunction.gq_infty.level": "the truncation level of the counit it reads",
    "adjunction.kinfty_on_map.witness_src": "(I', delta_I) for a source ideal other than the "
                                            "class representative",
    "adjunction.kinfty_on_map.witness_tgt": "(K', delta_K) for a target ideal other than the "
                                            "class representative",
    "adjunction.same_ideal_orbit.budget": "the bound of an honest bounded search",
    "cli.main.argv": "the arguments of an in-process run; sys.argv otherwise",
    "dsl.AlgebraEntry.__init__.tensor": "the path algebra of a presented algebra; none for a table",
    "dsl.AlgebraEntry.__init__.relations": "the relation ideal of a presented algebra",
    "dsl.AlgebraEntry.__init__.projection": "the projection of a presented algebra onto it",
    "errors.QuivkitError.__init__.message": "the detail after the stable code",
    "exactlin.Mat.from_rows.cols": "the width of a matrix with no rows",
    "exactlin.Mat.from_cols.rows": "the height of a matrix with no columns",
    "exactlin.Echelon.__init__.start": "a subspace to reduce against from the start",
    "exactlin.Echelon.__init__.tagged": "to record each row's combination of the inserted vectors",
    "exactlin.Echelon.insert.tag": "the combination an inserted vector stands for",
    "gabriel.gq.splitting": "the Gabriel quiver through a chosen splitting",
    "generators.seeded_rng.seed": "an explicit seed; QUIVKIT_SEED otherwise",
    "generators.random_scalar.nonzero": "draws that must be units",
    "generators.random_padm_morphism.conjugate": "draws left on the splitting's own generators",
}


def test_public_options_are_listed():
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in public_options(path.read_text(encoding="utf-8"))}
    assert sorted(found - set(OPTIONS)) == []
    # an option that is gone leaves the list
    assert sorted(set(OPTIONS) - found) == []


def test_every_name_the_tracer_wraps_resolves():
    # run from its source, so nothing is written under perfbench/
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    names = [entry[:2] for table in ("SPANS", "SIZED", "FIELD_OPS") for entry in tracer[table]]
    for module, _path in names:
        importlib.import_module(module)
    for module, path in names:
        assert callable(tracer["_original"](module, path)), (module, path)
    assert names


# The dense views: the only places outside exactlin where an element may be
# converted (`sparse(`, `dense(`), added up densely (`vec_*(`), made or read
# through a dense view (`basis_vector(`, `element(`, `conjugate_element(`),
# or a subspace read as its dense `.basis`.  `FinAlgebra.mul` is a view too,
# but its name is also every field's product, so calls of it are not told
# apart here.
DENSE_VIEWS = {
    "algebra": {"FinAlgebra.basis_vector", "FinAlgebra.element", "FinAlgebra.mul",
                "AlgMorphism.matrix", "validate_algebra", "table_algebra"},
    "gabriel": {"GabrielQuiverResult.coordinate_map"},
    "splittings": {"conjugate_element"},
}


def conversions(text, allowed=()):
    """(line, what, enclosing definition) of each call of `sparse`, `dense`,
    a `vec_*` helper or a dense view, and each read of `.basis`, outside the
    definitions named in `allowed`.  A DSL statement's `stmt.basis`, its
    list of basis labels, is no subspace and is not counted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            what = None
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("sparse", "dense", "basis_vector", "element",
                            "conjugate_element") or (name or "").startswith("vec_"):
                    what = f"{name}("
            elif isinstance(child, ast.Attribute) and child.attr == "basis" and \
                    isinstance(child.ctx, ast.Load) and \
                    not (isinstance(child.value, ast.Name) and child.value.id == "stmt"):
                what = ".basis"
            if what and scope not in allowed:
                found.append((child.lineno, what, scope))
            visit(child, inner)

    visit(ast.parse(text), "")
    return found


def test_the_check_finds_a_conversion():
    text = ("class A:\n    def view(self, v):\n        return dense(self.f, 2, v)\n"
            "    def inner(self, v):\n        return el.sparse(v), self.space.basis\n"
            "def read(stmt, a):\n    return stmt.basis, a.element('x'), vec_add(f, u, v)\n")
    assert conversions(text) == [(3, "dense(", "A.view"), (5, "sparse(", "A.inner"),
                                 (5, ".basis", "A.inner"), (7, "element(", "read"),
                                 (7, "vec_add(", "read")]
    assert conversions(text, {"A.view", "read"}) == [(5, "sparse(", "A.inner"),
                                                     (5, ".basis", "A.inner")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "exactlin.py"],
                         ids=lambda p: p.name)
def test_elements_are_converted_only_in_the_dense_views(path):
    allowed = DENSE_VIEWS.get(path.stem, set())
    assert conversions(path.read_text(encoding="utf-8"), allowed) == []


def error_codes(text):
    """The string literals passed first to `QuivkitError` or `_err`."""
    codes = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and node.args and \
                isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("QuivkitError", "_err"):
                codes.add(node.args[0].value)
    return codes


def test_the_check_finds_error_codes():
    text = ("raise QuivkitError('A', 'm')\n_err('B', 'x', 1, 2)\n"
            "errors.QuivkitError('C')\n_err(exc.code, 'y', 1, 2)\nprint('D')\n")
    assert error_codes(text) == {"A", "B", "C"}


def test_readme_lists_every_error_code():
    codes = set().union(*(error_codes(p.read_text(encoding="utf-8")) for p in MODULES))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    assert len(codes) >= 30
    assert sorted(c for c in codes if f"`{c}`" not in section) == []
