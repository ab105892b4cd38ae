"""Child process of the benchmark: runs one workload's jobs and prints one
JSON line on stdout.  Started by ``run.py``.

    runner.py timed WORKLOAD SEED SECONDS   closed loop of jobs, tracing off
    runner.py traced WORKLOAD SEED NAMES    one untraced and one traced job;
                                            NAMES is a JSON list of metrics
"""

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hermvar
from hermvar import field, projgeom, search

import layers
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def set_up(n, q):
    projgeom.point_array(n, field.make_field(q))


def run_job(workload, seed, workers, goldens):
    """(seconds, output text, failed invariants) of one job; a job that
    raises counts as failed."""
    t0 = time.perf_counter()
    try:
        text, facts = workload.run(seed, workers)
    except Exception:
        elapsed = time.perf_counter() - t0
        return elapsed, None, [traceback.format_exc()]
    elapsed = time.perf_counter() - t0
    return elapsed, text, wl.check_job(workload, seed, text, facts, goldens)


def peak_rss_mb():
    """Peak resident set of this process or of any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def timed(workload, seed, seconds):
    goldens = wl.load_goldens()
    set_up(workload.n, workload.q)
    workers = wl.pool_workers()
    jobs = []
    start = time.perf_counter()
    while True:
        s = wl.job_seed(seed, len(jobs))
        elapsed, _, errors = run_job(workload, s, workers, goldens)
        jobs.append({"seed": s, "s": elapsed, "errors": errors})
        if len(jobs) == 1:
            # taken after the first job, so that it does not depend on how
            # many jobs fit in the run: random_cubic_sample keeps the last
            # call's monomial matrix alive into the next call
            peak = peak_rss_mb()
        # go on only while a job of this length would end by the deadline,
        # so that a run never takes much longer than --seconds
        done = time.perf_counter() - start
        if done + elapsed > seconds:
            break
    return {"jobs": jobs, "workers": workers, "peak_rss_mb": peak}


def traced(workload, seed, names):
    goldens = wl.load_goldens()
    rec = spans.Recorder()
    with layers.wrappers(rec):
        rec.job = "setup"
        set_up(workload.n, workload.q)
    # the pool stays in enum_scan's job, which checks it against workers=1
    workers = wl.pool_workers() if workload.name == "enum_scan" else 1
    untraced_s, untraced_text, untraced_errors = run_job(workload, seed, workers, goldens)
    with layers.wrappers(rec):
        if workload.name == "random_cubics":
            rec.job = "trials0"
            search.random_cubic_sample(workload.n, workload.q, trials=0, seed=seed, workers=1)
        rec.job = "job"
        traced_s, traced_text, traced_errors = run_job(workload, seed, workers, goldens)
    if traced_text != untraced_text:
        traced_errors = traced_errors + ["traced output differs from untraced output"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "spans": rec.to_rows()}, fh)
    return {
        "jobs": [
            {"seed": seed, "s": untraced_s, "errors": untraced_errors, "traced": False},
            {"seed": seed, "s": traced_s, "errors": traced_errors, "traced": True},
        ],
        "workers": workers,
        "layers": layers.layer_metrics(rec, workload, names, untraced_s, traced_s),
    }


def main(argv):
    src = (ROOT / "src").resolve()
    if Path(hermvar.__file__).resolve().parent.parent != src:
        raise SystemExit(f"hermvar imported from {hermvar.__file__}, not from {src}")
    mode = argv[0]
    workload = wl.WORKLOADS[argv[1]]
    seed = int(argv[2])
    if mode == "timed":
        result = timed(workload, seed, float(argv[3]))
    else:
        result = traced(workload, seed, json.loads(argv[3]))
    result["env"] = {"python": platform.python_version(), "numpy": np.__version__}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
