"""hermvar benchmark: one workload per run, every job's output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --trace 1
    python3 perfbench/run.py --check-cli
    python3 perfbench/run.py --record-goldens

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: set-up time in fresh processes, then a closed loop of one client
running one job at a time for ``--seconds``.  ``--trace 1`` is the separate
traced run that gives the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment stamp and every job's time.  Both are also written to
``perfbench/out/``.

``--check-cli`` diffs the README's CLI commands against their goldens (about
four minutes).  ``--record-goldens`` rewrites every golden from the current
code; run it only on a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 10
RUN_LIMIT_S = 170  # the whole run, set-up probes included


class ChildFailed(RuntimeError):
    pass


def child_env():
    # every child keeps its bytecode under perfbench/out/pycache, so what it
    # loads does not depend on the __pycache__ that other tools left in src/
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("HERMVAR_BUDGET", None)
    env.pop("HERMVAR_WORKERS", None)
    return env


def run_child(script, args, timeout):
    """Run a benchmark script in its own process group; its stdout lines.
    On timeout the whole group is killed and waited for."""
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{script} {args} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{script} {args} exited with code {proc.returncode}")
    return out.splitlines()


def environment(seed, runner_env):
    def first_line(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip()
        except OSError:
            pass
        return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "llc": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "commit": commit,
        "seed": seed,
        **runner_env,
    }


def setup_seconds(workload, deadline, repeats):
    """Seconds of import + field tables + point array, each in a fresh process."""
    samples = []
    for _ in range(repeats):
        lines = run_child("setup_probe.py", [workload.n, workload.q], deadline - time.monotonic())
        if Path(lines[1]).resolve().parent.parent != SRC.resolve():
            raise ChildFailed(f"setup probe imported hermvar from {lines[1]}")
        samples.append(float(lines[0]))
    return samples


def bench(args, spec):
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        lines = run_child(
            "runner.py", ["traced", workload.name, args.seed, json.dumps(names)],
            deadline - time.monotonic(),
        )
        result = json.loads(lines[-1])
        values = result["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # one untimed probe first compiles whatever bytecode the cache lacks;
        # then half the set-up probes run before the jobs and half after, so
        # that one slow phase of a shared machine does not decide their median
        setup_seconds(workload, deadline, 1)
        setup_samples = setup_seconds(workload, deadline, SETUP_REPEATS // 2)
        lines = run_child(
            "runner.py", ["timed", workload.name, args.seed, args.seconds],
            deadline - time.monotonic(),
        )
        setup_samples += setup_seconds(workload, deadline, SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_s = statistics.median(setup_samples)
        result = json.loads(lines[-1])
        job_s = statistics.median(j["s"] for j in result["jobs"])
        values = {
            "setup_s": setup_s,
            "job_s": job_s,
            "items_per_s": workload.items / job_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": sum(1 for j in result["jobs"] if not j["errors"]) / len(result["jobs"]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        detail["setup_s_samples"] = setup_samples
    if set(values) != set(units):
        raise ChildFailed(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    jobs = result["jobs"]
    failed = sum(1 for j in jobs if j["errors"])
    for j in jobs:
        for e in j["errors"]:
            print(f"job seed {j['seed']}: {e}", file=sys.stderr)
    detail.update(
        env=environment(args.seed, result["env"]),
        workers=result["workers"],
        items_per_job=workload.items,
        item=workload.item,
        jobs=jobs,
    )
    final = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": final}, indent=1) + "\n")
    for k in units:
        print(f"{k:48s} {values[k]:>16.6g} {units[k]}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(final))


def parse(argv, workload_names, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workload_names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-cli", action="store_true")
    p.add_argument("--record-goldens", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.check_cli or args.record_goldens):
        p.error("give --workload, --check-cli or --record-goldens")
    return args


def main(argv):
    if not (SRC / "hermvar" / "__init__.py").is_file():
        print(f"no hermvar source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse(argv, [w["name"] for w in spec["workloads"]], spec["run_seconds"])
    sys.path.insert(0, str(SRC))
    if args.check_cli or args.record_goldens:
        mode = "record" if args.record_goldens else "check"
        lines = run_child("goldens.py", [mode], timeout=3600)
        print("\n".join(lines))
        return 0
    bench(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
