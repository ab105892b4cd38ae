"""The three benchmark workloads: what one job runs, its output text, and the
checks every job's output must pass.

Jobs call the library through its module attributes (``search.X``, not a
name imported here), so the traced run's wrappers see every call.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hermvar import bounds, cubics, field, hermitian, search

GOLDENS = Path(__file__).resolve().parent / "goldens" / "workloads.json"

RC_TRIALS = 12


def pool_workers():
    """Worker count for the jobs that use a process pool."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # (n, q) of the state set up once per process
    q: int
    items: int  # work items in one job
    item: str
    run: object  # run(seed, workers) -> (output text, facts for check)
    check: object  # check(facts) -> list of failed invariants
    seeded: bool  # False when the output does not depend on the seed


def _expect(errors, label, got, *wanted):
    if any(got != w for w in wanted):
        errors.append(f"{label}: got {got!r}, expected {wanted!r}")


# -- random_cubics --------------------------------------------------------------


def _random_cubics(seed, workers):
    rep = search.random_cubic_sample(4, 7, trials=RC_TRIALS, seed=seed, workers=workers)
    return search.report_json(rep), rep


def _check_random_cubics(rep):
    errors = []
    _expect(errors, "threshold", rep.threshold, bounds.cubic_bound_closed(4, 7), 50_424)
    _expect(errors, "retained + discarded", rep.retained + len(rep.discarded_divisible), RC_TRIALS)
    _expect(errors, "histogram sum", sum(rep.histogram.values()), rep.retained)
    _expect(errors, "exceedances", rep.exceedances, [])
    return errors


# -- pencil_geometry ------------------------------------------------------------


def _pencil_geometry(seed, workers):
    scan = search.pencil_triples_scan(4, 3)
    inc = search.incidence_double_count(4, 3)
    return search.report_json(scan) + search.report_json(inc), (scan, inc)


def _check_pencil_geometry(facts):
    scan, inc = facts
    errors = []
    _expect(errors, "pencils", scan.pencils, search.gaussian_binomial(5, 2, 9), 605_242)
    _expect(errors, "best_count", scan.best_count, cubics.max_cubic_intersection(4, 3), 784)
    _expect(errors, "incidence_left", inc.incidence_left, inc.incidence_right)
    _expect(errors, "point_tangent_count", inc.point_tangent_count, 253)
    _expect(
        errors, "tangent_hyperplanes", inc.tangent_hyperplanes, inc.variety_points,
        hermitian.nondegenerate_count(4, 3), 2_440,
    )
    return errors


# -- enum_scan ------------------------------------------------------------------


def _enum_scan(seed, workers):
    ctx = field.make_field(7)
    f = hermitian.standard_form(4, ctx)
    facts = {
        "points_workers_1": hermitian.count_points_enum(f, workers=1),
        "points_workers_pool": hermitian.count_points_enum(f, workers=workers),
        "extremal_count": cubics.intersect_count_enum(
            cubics.expand_product(cubics.build_extremal(f).hyperplanes, ctx), f
        ),
        "random_cubic_count": cubics.intersect_count_enum(
            cubics.random_hypersurface(4, 3, ctx, np.random.default_rng(seed)), f
        ),
        "seed": seed,
    }
    return json.dumps(facts, sort_keys=True, indent=2) + "\n", facts


def _check_enum_scan(facts):
    errors = []
    u4 = hermitian.nondegenerate_count(4, 7)
    _expect(errors, "count_points_enum, workers=1", facts["points_workers_1"], u4, 840_400)
    _expect(errors, "count_points_enum, pool", facts["points_workers_pool"], u4, 840_400)
    _expect(errors, "extremal intersection", facts["extremal_count"], 50_912)
    if not 0 <= facts["random_cubic_count"] <= u4:
        errors.append(f"random cubic count {facts['random_cubic_count']} outside [0, {u4}]")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random_cubics", 4, 7, RC_TRIALS, "trials", _random_cubics, _check_random_cubics, True),
        Workload("pencil_geometry", 4, 3, 605_242, "pencils", _pencil_geometry, _check_pencil_geometry, False),
        Workload("enum_scan", 4, 7, 4 * 5_884_901, "points", _enum_scan, _check_enum_scan, True),
    )
}


def job_seed(seed, k):
    """Seed of the k-th job of a run made with ``--seed seed``."""
    return seed + k


# -- golden outputs -------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens():
    return json.loads(GOLDENS.read_text())


def golden_key(workload, seed):
    return str(seed) if workload.seeded else "any"


def check_job(workload, seed, text, facts, goldens):
    """Every failed invariant of one job's output, golden digest included
    when the seed has one."""
    errors = workload.check(facts)
    want = goldens.get(workload.name, {}).get(golden_key(workload, seed))
    if want is not None and digest(text) != want:
        errors.append(f"output digest {digest(text)} differs from golden {want}")
    return errors
