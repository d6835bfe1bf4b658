"""Every name a ``tdual`` module imports at module level is used there,
and no ``tdual`` function imports anything.

The package ``__init__`` is skipped by the unused-import check: its
imports are the public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tdual"

# (module, name) pairs kept on purpose, with the reason.
ALLOWED = {
    ("bundles", "homology_at"):
        "perfbench/test_perfbench.py asserts that tracing rebinds "
        "tdual.bundles.homology_at",
}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for name in unused_imports(ast.parse(path.read_text())):
            if (module, name) not in ALLOWED:
                found.append(f"{module}: {name}")
    assert not found, "unused module-level imports: " + ", ".join(found)


def test_allowlist_entries_are_still_imported_and_unused():
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in unused_imports(tree), (module, name)


def test_no_imports_inside_functions():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, "imports inside functions: " + ", ".join(sorted(set(found)))
