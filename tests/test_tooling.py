"""Static checks on the package source and the benchmark records."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_timed_run_calls_resolve():
    # the timed benchmark run, the one the benchmark's metrics come from,
    # calls the library through module attributes (search.X(...)): each
    # must still exist and accept the positional count and keywords passed
    calls = []
    for name in ("workloads.py", "runner.py", "setup_probe.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names if a.name == "hermvar")
            elif isinstance(node, ast.ImportFrom) and node.module == "hermvar":
                modules.update((a.asname or a.name, f"hermvar.{a.name}") for a in node.names)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            ):
                assert not any(isinstance(a, ast.Starred) for a in node.args), (name, func.attr)
                kws = [k.arg for k in node.keywords]
                assert None not in kws, (name, func.attr)
                calls.append((name, modules[func.value.id], func.attr, len(node.args), kws))
    assert {"workers", "trials", "seed"} <= {k for *_, kws in calls for k in kws}
    for name, mod, attr, nargs, kws in calls:
        fn = getattr(importlib.import_module(mod), attr, None)
        assert callable(fn), (name, f"{mod}.{attr}")
        inspect.signature(fn).bind(*[None] * nargs, **dict.fromkeys(kws))


def test_import_loads_no_third_party_package_but_numpy():
    # the benchmark's setup_s times `import hermvar`; scipy, sympy and
    # hypothesis are installed beside numpy, and none of them may load
    probe = (
        "import sys; before = set(sys.modules); import hermvar, hermvar.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(proc.stdout.split()) - set(sys.stdlib_module_names)
    assert loaded == {"hermvar", "numpy"}, sorted(loaded)


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


def test_private_names_are_used_in_the_package():
    # every private top-level name of a package module is referenced in the
    # package, so a helper does not stay in the library for the tests alone
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert trees
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(a.name for a in node.names)
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.endswith("__"):
                    assert private in used, (name, private)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # each demo is a script against the public API, asserting as it goes;
    # it runs in a scratch directory, since demo 04 writes a CSV there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


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
