"""Every name a module of the package or of the tests imports is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """`file:line name` for each imported name that no expression of the
    module reads; `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    paths = sorted([*(ROOT / "src" / "crossrisk").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert paths
    unused = [u for p in paths for u in unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
