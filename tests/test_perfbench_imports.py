"""Every name the benchmark in ``perfbench/`` imports from ``ans`` resolves.

``perfbench/tests`` runs with its own conftest, apart from this suite, so a
name moved or renamed in ``ans`` would otherwise break the benchmark unseen.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _ans_imports():
    """(file, module, name) for each ``from ans... import name`` and
    (file, module, None) for each ``import ans...``."""
    for path in sorted(PERFBENCH.rglob("*.py")):
        source = path.relative_to(PERFBENCH.parent).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), source)):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in modules:
                if module == "ans" or module.startswith("ans."):
                    yield source, module, name


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_perfbench_import_from_ans_resolves():
    imports = list(_ans_imports())
    modules = {module for _, module, _ in imports}
    assert {"ans.client", "ans.harness", "ans.server", "ans.registry"} <= modules
    unresolved = [f"{source}: from {module} import {name}"
                  for source, module, name in imports if not _resolves(module, name)]
    assert not unresolved, unresolved
