"""Import hygiene: no library module imports a name it never uses, no
module-level private name goes unreferenced in the package, and scipy's
slow submodules load only where they are needed."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latgauss

PACKAGE = sorted(Path(latgauss.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\n\nx = path.join(sep, 'a')\n"
    assert _unused_imports(source) == ["line 1: math"]


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (def, class or assignment) that no
    top-level statement of any module references, their own excepted."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    refs = [_referenced_names(stmt) for _, stmt in stmts]
    dead = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined_names(stmt):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in r for j, r in enumerate(refs) if j != i)):
                dead.append(f"{module}: {name}")
    return dead


def test_no_dead_private_names():
    assert _dead_private_names({p.stem: p.read_text(encoding="utf-8")
                                for p in PACKAGE}) == []


def test_detects_a_dead_private_name():
    sources = {
        "a": "_USED, _SPARE = 1, 2\n\ndef _recursive(n):\n"
             "    return _recursive(n - 1) if n else _USED\n\nclass _Shared:\n    pass\n",
        "b": "from .a import _Shared\n\nx = _Shared()\n",
    }
    assert _dead_private_names(sources) == ["a: _SPARE", "a: _recursive"]


def _symmetry_guarded_raises(source: str) -> list[int]:
    """Lines of ``raise`` statements inside an ``if`` whose test reads ``.symmetric``.
    Whether a body has a gauge is decided by its ``gauge_many``; a caller
    that tests ``symmetric`` first decides it again."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.If)
                and any(isinstance(a, ast.Attribute) and a.attr == "symmetric"
                        for a in ast.walk(node.test))):
            lines += [r.lineno for r in ast.walk(node) if isinstance(r, ast.Raise)]
    return sorted(set(lines))


# convex.py owns the rule
GAUGE_CALLERS = [p for p in MODULES if p.stem != "convex"]


@pytest.mark.parametrize("path", GAUGE_CALLERS, ids=[p.stem for p in GAUGE_CALLERS])
def test_gauge_symmetry_is_decided_by_the_bodies(path):
    assert _symmetry_guarded_raises(path.read_text(encoding="utf-8")) == []


def test_detects_a_symmetry_guarded_raise():
    source = ("def f(body):\n    if not body.symmetric:\n        raise ValueError('no')\n"
              "\ndef g(body):\n    if body.symmetric and body.dim:\n        if body.dim > 3:\n"
              "            raise ValueError('big')\n    return 0\n")
    assert _symmetry_guarded_raises(source) == [3, 8]


def test_cold_import_defers_scipy_optimize_and_integrate():
    # every command pays for the package import; only LPs, root brackets and
    # the theta quadrature need these two modules, and a w-profile neither
    # of them on a body with no LP
    src = str(Path(latgauss.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    code = (f"import sys, latgauss, latgauss.cli; latgauss.theta(); {loaded}; "
            "latgauss.w_profile(latgauss.Ellipsoid([0.8, 1.9, 1.3]), grid_size=17, "
            f"samples=2000); {loaded}")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[]", "[]"]


# symmetric H-polytopes pinned in the CLI stream digests
POLYTOPES = {
    "2d": {"kind": "hpolytope", "dim": 2, "offsets": [1.2] * 6,
           "normals": [[1, 0], [0, 1], [0.6, 0.8], [-1, 0], [0, -1], [-0.6, -0.8]]},
    "3d": {"kind": "hpolytope", "dim": 3, "offsets": [1.2] * 8,
           "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0, 0.8],
                       [-1, 0, 0], [0, -1, 0], [0, 0, -1], [-0.6, 0, -0.8]]},
    "4d": {"kind": "hpolytope", "dim": 4, "offsets": [1.2] * 10,
           "normals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0.6, 0, 0, 0.8],
                       [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1],
                       [-0.6, 0, 0, -0.8]]},
}


@pytest.mark.parametrize("dim", POLYTOPES)
def test_polytope_profile_never_imports_scipy_optimize(dim):
    # an H-polytope's slices are decided by their facets and a polygon's
    # span is read off its edges, so a w-profile solves no LP; a 2-d one
    # is measured by Owen's T and brackets no root either
    src = str(Path(latgauss.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    body = json.dumps(POLYTOPES[dim])
    code = ("import sys, latgauss.cli; "
            f"code = latgauss.cli.main(['w-profile', '--body', {body!r}]); "
            "print(code, 'scipy.optimize' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert '"verdict": "holds"' in proc.stdout
    assert proc.stderr.split() == ["0", "False"]


def _references(sources: dict[str, str], name: str) -> list[str]:
    """Where each module reads ``name`` (as a name or an attribute): one
    'module.Class.function' entry per read, from its innermost enclosing
    definitions, or just 'module' at top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif ((isinstance(node, ast.Name) and node.id == name)
              or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_only_the_chebyshev_center_solves_an_lp():
    # slices, spans and measures need no LP, and no slice is built as a body;
    # only a polytope built with no interior point given looks for one
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert _references(sources, "linprog") == ["convex._chebyshev_center"]
    assert _references(sources, "_chebyshev_center") == ["convex.HPolytope.__post_init__"]


def test_detects_an_lp_call():
    sources = {
        "a": "from scipy.optimize import linprog\n\nsolve = linprog\n",
        "b": "class Body:\n    def cut(self):\n        def inner():\n"
             "            return optimize.linprog(c=[1])\n        return inner()\n",
    }
    assert _references(sources, "linprog") == ["a", "b.Body.cut.inner"]


def _imported_modules(source: str) -> set[str]:
    """Every module a source imports, at any depth; ``from scipy import
    integrate`` imports both ``scipy`` and ``scipy.integrate``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_theta_quadrature_imports_scipy_integrate():
    importers = [p.stem for p in PACKAGE
                 if "scipy.integrate" in _imported_modules(p.read_text(encoding="utf-8"))]
    assert importers == ["cli"]
