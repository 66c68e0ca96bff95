"""Source hygiene: no module imports a name it never uses.

A stdlib AST scan stands in for a linter. Package ``__init__.py`` files are
skipped (their imports are re-exports), and so is an import on a line marked
``# noqa``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for directory in ("src", "tests", "demos")
    for path in (ROOT / directory).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each imported name the module never mentions."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{lineno}: {name}"
        for name, lineno in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES]
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
