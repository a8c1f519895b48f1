"""Source hygiene of the package modules, read with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lacuna"


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export; every other module reads what it imports
    found = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def unread_definitions(paths: list[Path]) -> list[str]:
    """The top-level functions and classes of ``paths``, as ``module.name``,
    that no module of ``paths`` imports or reads by name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in used
    )


def test_every_top_level_definition_has_a_reader_in_the_package():
    # a re-export from __init__ counts as a reader
    assert unread_definitions(sorted(SRC.glob("*.py"))) == []
