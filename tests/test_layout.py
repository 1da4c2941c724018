"""Module layout: no module of the package imports another one's private
names, every public top-level name of a module with __all__ is listed in
it, every public function has a caller in the package, and the package and
its tests import only declared dependencies."""

import ast
import sys
from pathlib import Path

import logplate

PACKAGE = Path(logplate.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "logplate"
        if not sibling:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_private_cross_module_imports():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert found == []


def _exported(tree: ast.Module) -> set[str] | None:
    """The names in the module's __all__, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(tgt, ast.Name) and tgt.id == "__all__" for tgt in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def _public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names not starting with _."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [tgt.id for tgt in node.targets if isinstance(tgt, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_exported():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        exported = _exported(tree)
        if exported is not None:
            missing += [
                f"{path.stem}.{name}"
                for name in _public_definitions(tree)
                if name not in exported
            ]
    assert missing == []


def _public_functions(tree: ast.Module) -> list[str]:
    """Top-level functions named in the module's __all__."""
    exported = _exported(tree) or set()
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported
    ]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read as variables or attributes; imports and definitions are
    not references."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_function_has_a_package_caller():
    trees = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    unreached = [
        f"{name}.{func}"
        for name, tree in trees.items()
        for func in _public_functions(tree)
        if func not in referenced
    ]
    assert unreached == []


def test_package_and_tests_import_only_declared_dependencies():
    # the standard library and the dependencies that pyproject.toml declares
    allowed = sys.stdlib_module_names | {"numpy", "pytest", "hypothesis", "logplate"}
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/*.py")]):
        for node in ast.walk(_tree(path)):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            found += [f"{path.name}:{node.lineno} imports {name}"
                      for name in names if name.split(".")[0] not in allowed]
    assert found == []
