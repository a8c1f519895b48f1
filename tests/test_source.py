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
