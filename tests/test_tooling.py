"""Static checks on the package source and the benchmark records."""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hermvar"


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


def test_traced_run_names_resolve():
    # the traced benchmark run looks up every (module, name) of
    # perfbench/layers.py's WRAPPED with getattr, so each must still exist
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    wrapped = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    pairs = [
        (mod.value, name.value)
        for mod, funcs in zip(wrapped.keys, wrapped.values)
        for name in funcs.keys
    ]
    assert len(pairs) > 10
    for mod, name in pairs:
        module = importlib.import_module(f"hermvar.{mod}")
        assert callable(getattr(module, name, None)), f"hermvar.{mod}.{name}"


def test_no_unused_imports():
    # every name a package module imports is used in that module, so a
    # helper that lost its last caller does not linger as an import
    files = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert files
    for path in files:
        tree = ast.parse(path.read_text())
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def _runs(side):
    """A metric's runs on one side: a list, or in the older records a dict
    {"runs": [...], "median", "q1", "q3"}."""
    return side["runs"] if isinstance(side, dict) else side


def test_bench_records_are_complete():
    # every BENCH_*.json at the root records what was measured, against
    # which commit, how and where, with paired before/after runs
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        for key in ("change", "parent_commit", "command", "protocol", "host", "workloads"):
            assert key in doc, (path.name, key)
        assert doc["workloads"], path.name
        for name, workload in doc["workloads"].items():
            assert workload["metrics"], (path.name, name)
            for metric, runs in workload["metrics"].items():
                where = (path.name, name, metric)
                before, after = _runs(runs["before"]), _runs(runs["after"])
                assert isinstance(before, list) and isinstance(after, list), where
                assert before and len(before) == len(after), where
