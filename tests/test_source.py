"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import branchcs

# numpy names that call BLAS or LAPACK, whose threads stall a call while
# another process holds a core; the sweep, FISTA and rel_l2_error sum with
# einsum instead
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "linalg"}
# the RK45 port, which keeps scipy's np.dot calls for scipy's bits
BLAS_ALLOWED = {("models.py", "solve_ivp"), ("models.py", "_rms")}


def blas_uses(path: Path) -> list:
    """(file, outermost function or None, line) of each use of a BLAS_NAMES
    numpy name, or of @, in the module at path."""
    found = []

    def visit(node, func):
        if func is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy") and node.attr in BLAS_NAMES)
                or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
                    and ("linalg" in node.module
                         or any(alias.name in BLAS_NAMES for alias in node.names)))):
            found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_blas_outside_the_rk45_port():
    uses = [use for path in sorted(Path(branchcs.__file__).parent.glob("*.py"))
            for use in blas_uses(path)]
    assert not [use for use in uses if use[:2] not in BLAS_ALLOWED]
    assert {use[:2] for use in uses} == BLAS_ALLOWED  # the walk sees the port's calls


def private_names(pkg: Path) -> tuple[set, set]:
    """The (module, name) of each module-level private name the package's modules
    define (functions, classes and assigned names that start with one _), and of
    each one the package reads: by name in its own module, or imported from it."""
    defined, used = set(), set()
    for path in sorted(pkg.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = ([node] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.ClassDef))
                       else node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ([target.name] if hasattr(target, "name")
                             else [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]):
                    if name.startswith("_") and not name.startswith("__"):
                        defined.add((module, name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
    return defined, used


def test_every_private_name_is_used():
    # a private helper that nothing in the package reads is a leftover of a
    # change; the hooks tests patch (_fft2, _ifft2) count, as the package calls them
    defined, used = private_names(Path(branchcs.__file__).parent)
    assert ("pgd", "_fft2") in defined  # the walk sees module-level names
    assert sorted(defined - used) == []


def test_every_name_in_all_exists():
    # a name left in a module's __all__ after its definition goes breaks
    # `from module import *` and tells a reader of a name that is not there
    pkg = Path(branchcs.__file__).parent
    modules = [importlib.import_module("branchcs" if path.stem == "__init__"
                                       else f"branchcs.{path.stem}")
               for path in sorted(pkg.glob("*.py"))]
    listed = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    assert any(module.__name__ == "branchcs.grid" for module, _ in listed)  # the lists are seen
    assert [(module.__name__, name) for module, name in listed
            if not hasattr(module, name)] == []


def unused_imports(path: Path) -> list:
    """(file, name, line) of each name the module at path imports (bar __future__
    features) that no expression in it reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # import a.b binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(path.name, name, line) for name, line in imported.items() if name not in read]


def test_every_import_is_used():
    # an import nothing reads is a leftover of a change; __init__.py imports
    # to re-export, so it is not checked
    paths = [path for path in sorted(Path(branchcs.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    assert any(path.name == "admm.py" for path in paths)  # the walk sees the modules
    assert [use for path in paths for use in unused_imports(path)] == []
