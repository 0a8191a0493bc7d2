"""Dinic is the one production max-flow engine.

The cold Edmonds–Karp and push-relabel solvers are differential oracles:
only :mod:`repro.flow.oracles` may import them (through its
``ALGORITHMS`` registry).  This parses the imports of every module of the
package, so a second solver front-end cannot grow back unnoticed.
"""

import ast
from pathlib import Path

import pytest

import repro

ORACLE_SOLVERS = {"repro.flow.edmonds_karp", "repro.flow.push_relabel"}
PACKAGE = Path(repro.__file__).parent
FLOW = ["repro", "flow"]


def imported_modules(source: str, package: list[str]) -> set[str]:
    """Every module ``source`` imports, when it is a module of ``package``:
    relative imports resolved, ``from pkg import mod`` counted as ``pkg.mod``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_only_the_oracles_import_the_cold_solvers():
    importers = set()
    for path in PACKAGE.rglob("*.py"):
        name = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if imported_modules(path.read_text(), list(name[:-1])) & ORACLE_SOLVERS:
            importers.add("/".join(name))
    assert importers == {"repro/flow/oracles"}


@pytest.mark.parametrize("source", [
    "import repro.flow.push_relabel",
    "from repro.flow.edmonds_karp import edmonds_karp",
    "from repro.flow import push_relabel",
    "from . import edmonds_karp",
    "from .push_relabel import push_relabel",
    "from ..flow.edmonds_karp import edmonds_karp",
])
def test_every_spelling_of_the_import_is_seen(source):
    assert imported_modules(source, FLOW) & ORACLE_SOLVERS


@pytest.mark.parametrize("source", [
    "from repro.flow.dinic import dinic",
    "from repro.flow import max_flow",
    "from .distributed_pr import distributed_push_relabel",
])
def test_other_imports_are_not_flagged(source):
    assert not imported_modules(source, FLOW) & ORACLE_SOLVERS
