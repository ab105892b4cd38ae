"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hermvar"


def imported_modules(path):
    """Dotted names of every module an import statement in the file names."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_no_module_starts_processes_or_thread_pools():
    # every computation runs in one process, so a count cannot depend on a
    # worker count or a start method
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        for name in imported_modules(path):
            assert name.split(".")[0] != "multiprocessing", (path.name, name)
            assert not name.startswith("concurrent.futures"), (path.name, name)
