import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name ``path`` imports but never reads as a
    name; ``from __future__`` imports and names in ``__all__`` are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported:
                    unused.append(f"{path.relative_to(REPO)}:{node.lineno} {name}")
    return unused


def test_every_imported_name_is_used():
    modules = sorted(p for top in ("src/pseudorate", "tests", "scripts") for p in (REPO / top).rglob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
