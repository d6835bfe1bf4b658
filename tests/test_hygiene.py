"""Every name a ``tdual`` module imports at module level is used there,
no ``tdual`` function imports anything, the dense view ``IntMatrix.data``
is read only where it is allowed, and every entry of the list of
statements allowed to stay unrun names a real statement with a reason.

The package ``__init__`` is skipped by the unused-import check: its
imports are the public re-exports.
"""

import ast
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tdual"
TOOLS = Path(__file__).resolve().parent.parent / "tools"

# (module, name) pairs kept on purpose, with the reason.
ALLOWED = {
    ("bundles", "homology_at"):
        "perfbench/test_perfbench.py asserts that tracing rebinds "
        "tdual.bundles.homology_at",
}

# The (module, qualified name) scopes that may read ``.data``, the dense
# view of an IntMatrix kept for tests and oracles; the package follows the
# nonzeros everywhere else.
DATA_READERS = {
    ("exactalg", "IntMatrix.__repr__"),
    ("exactalg", "determinant"),
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


def attribute_reads(tree: ast.Module, attr: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing class or def, line) of each read
    of ``.attr``; reads at module level have the scope ""."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_dense_view_is_read_only_where_allowed():
    sample = "class M:\n    def f(self, m):\n        return m.data\nx = y.data\n"
    assert attribute_reads(ast.parse(sample), "data") == [("M.f", 3), ("", 4)]
    found, readers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, line in attribute_reads(ast.parse(path.read_text()), "data"):
            readers.add((path.stem, scope))
            if (path.stem, scope) not in DATA_READERS:
                found.append(f"{path.stem}:{line} in {scope or 'module'}")
    assert not found, "reads of the dense view IntMatrix.data: " + ", ".join(found)
    assert DATA_READERS <= readers, DATA_READERS - readers


def _unrun_lines_tool():
    spec = importlib.util.spec_from_file_location("unrun_lines", TOOLS / "unrun_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unrun_allowlist_entries_name_real_statements_with_reasons():
    """Each entry of ``tools/unrun_allowlist.txt`` parses, names a function
    of a ``src/tdual`` module, quotes a statement of that function and says
    why it may stay unrun.  Whether it runs is the collector's check."""
    tool = _unrun_lines_tool()
    entries = tool.read_allowlist((TOOLS / "unrun_allowlist.txt").read_text())
    assert entries
    statements = tool.package_statements()
    for (module, qualname, text), reason in entries.items():
        assert module in statements, module
        assert qualname in statements[module], (module, qualname)
        texts = {s.text for s in tool.flatten(statements[module][qualname])}
        assert text in texts, (module, qualname, text)
        assert reason and reason != "<reason>", (module, qualname, text)
