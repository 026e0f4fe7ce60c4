"""No module of the package or the tests imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "pctv").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT).as_posix(),
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import json\nimport numpy as np\nnp.zeros(1)\n") == ["line 1: json"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
