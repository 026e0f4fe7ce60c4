"""No module imports a name it never uses, the CLI skips slow imports,
every function the benchmark wraps or calls exists, and every export is
used outside its own module and by the package or the benchmark."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


def _imported_by_the_cli(module: str) -> bool:
    probe = f"import sys, pctv.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip() == "True"


def test_the_cli_does_not_import_scipy_stats():
    # scipy.stats takes about half a second to import; only a
    # matching-scaling run over several n needs it.
    assert not _imported_by_the_cli("scipy.stats")


def test_the_cli_does_not_import_multiprocessing():
    # 7-13 ms of every run's set-up; only a forked map needs it
    assert not _imported_by_the_cli("multiprocessing")


def test_every_benchmark_layer_resolves():
    # perfbench/spans.py wraps these functions by name; a rename would
    # only surface when a traced benchmark run crashes.
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    assert layers
    missing = [f"{module}.{attr}" for module, attr, _ in layers
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def unresolved_pctv_names(source: str) -> list[str]:
    """Names that `from pctv... import` or `module.attr` on an imported pctv
    module asks for and pctv does not have."""
    tree = ast.parse(source)
    modules = {}
    asked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname or alias.name: alias.name
                            for alias in node.names if alias.name.split(".")[0] == "pctv"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pctv":
            for alias in node.names:
                asked.append((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            asked.append((modules[node.value.id], node.attr))
    missing = []
    for module, name in asked:
        try:
            owner = importlib.import_module(module)
        except ImportError:  # module.attr on a name that is no module
            continue
        if hasattr(owner, name):
            continue
        try:  # a submodule the package has not imported yet
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{module}.{name}")
    return sorted(set(missing))


def test_the_hook_scan_finds_a_missing_name():
    source = "from pctv import config, nothing\nconfig.validate_config\nconfig.gone\n"
    assert unresolved_pctv_names(source) == ["pctv.config.gone", "pctv.nothing"]


@pytest.mark.parametrize("path", sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_benchmark_hook_resolves(path):
    # perfbench/worker.py patches and calls pctv names (_parallel_map,
    # _setup, validate_config, ...); a rename would only surface as a
    # failed benchmark run.
    assert unresolved_pctv_names(path.read_text(encoding="utf-8")) == []


def test_every_export_is_used_outside_its_module():
    # A public name that nothing but its own module mentions is API that
    # no experiment, test or benchmark needs.
    import pctv

    texts = {p: p.read_text(encoding="utf-8")
             for folder in ("src/pctv", "tests", "perfbench")
             for p in (ROOT / folder).glob("*.py") if p.name != "__init__.py"}
    unused = []
    for name in pctv.__all__:
        own = Path((inspect.getmodule(getattr(pctv, name)) or pctv).__file__)
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(pattern.search(text) for path, text in texts.items() if path != own):
            unused.append(name)
    assert unused == []


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # Tests alone do not justify public API: a name that only tests use
    # belongs in tests/oracles.py.  A definition binds its name without
    # a Name or Attribute node, so it does not count as a use.
    import pctv

    used = set()
    for folder in ("src/pctv", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in pctv.__all__ if name not in used] == []
