"""The traced run: span wrappers around the library's public functions and the
per-layer metrics derived from the spans.

Wrappers are installed from here, in every ``hermvar`` module namespace that
holds the function, and removed again afterwards; the library's source is
not changed.  Spans recorded inside forked pool workers stay in the worker
and are lost, so the traced job runs at workers=1 (``enum_scan`` keeps its
pool call, whose own span is still recorded in the parent).
"""

import contextlib
import importlib
import sys

from hermvar import cubics, projgeom

from spans import summarize


def _points(args, kwargs, result):
    return {"points": len(args[1])}


WRAPPED = {
    "field": {"make_field": None},
    "projgeom": {
        "point_array": lambda a, k, r: {"bytes": r.nbytes},
    },
    "hermitian": {
        "classify_hyperplane": None,
        "tangent_hyperplane": None,
        "variety_mask": lambda a, k, r: {"points": len(r), "on_variety": int(r.sum())},
        "eval_form_at": _points,
        "count_points_enum": lambda a, k, r: {"workers": k.get("workers", 1)},
    },
    "cubics": {
        "linear_factor": lambda a, k, r: {"hits": int(r is not None)},
        "divides_linear": None,
        "make_hypersurface": None,
        "eval_poly_at": _points,
        "intersect_count_enum": None,
    },
    "search": {
        "random_cubic_sample": lambda a, k, r: {
            "trials": r.trials,
            "retained": r.retained,
            "discarded": len(r.discarded_divisible),
        },
        "incidence_zero_matrix": lambda a, k, r: {"cells": r.size},
        "dual_line_catalog": lambda a, k, r: {"pencils": len(r)},
        "hyperplane_tangency": None,
        "build_geometry": None,
        "pencil_triples_scan": None,
        "incidence_double_count": None,
    },
}


@contextlib.contextmanager
def wrappers(recorder):
    """Replace every listed function by a span-recording wrapper in each
    loaded ``hermvar`` module that holds it; restore them on exit."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hermvar"]
    replaced = []
    try:
        for mod_name, funcs in WRAPPED.items():
            home = importlib.import_module(f"hermvar.{mod_name}")
            for fn_name, probe in funcs.items():
                original = getattr(home, fn_name)
                traced = recorder.wrap(f"{mod_name}.{fn_name}", original, probe)
                for m in modules:
                    if m.__dict__.get(fn_name) is original:
                        setattr(m, fn_name, traced)
                        replaced.append((m, fn_name, original))
        yield
    finally:
        for m, fn_name, original in replaced:
            setattr(m, fn_name, original)


def layer_metrics(recorder, workload, names, untraced_s, traced_s):
    """Value of every per-layer metric in ``names`` for one traced run.

    Spans come from three jobs: ``setup`` (the cold per-process state),
    ``trials0`` (random_cubics only: a trials=0 call that builds the monomial
    matrix and the mask) and ``job`` (one traced job).  A function the
    workload does not call reads 0.
    """
    setup = summarize(recorder.for_job("setup"))
    job_spans = recorder.for_job("job")
    job = summarize(job_spans)
    trials0 = summarize(recorder.for_job("trials0")).get("search.random_cubic_sample", {})
    rc = job.get("search.random_cubic_sample", {})
    lf = job.get("cubics.linear_factor", {})
    vm = job.get("hermitian.variety_mask", {}) if rc else {}
    N = projgeom.num_points(workload.n, workload.q)

    def enum_s(pool):
        return sum(
            s.duration
            for s in job_spans
            if s.name == "hermitian.count_points_enum" and (s.attrs["workers"] > 1) == pool
        )

    rc_setup = trials0.get("s", 0.0)
    special = {
        "field.make_field.s": setup.get("field.make_field", {}).get("s", 0.0),
        "projgeom.point_array.s": setup.get("projgeom.point_array", {}).get("s", 0.0),
        "projgeom.point_array.bytes": setup.get("projgeom.point_array", {}).get("bytes", 0),
        "hermitian.count_points_enum.s_w1": enum_s(False),
        "hermitian.count_points_enum.s_w2": enum_s(True),
        "cubics.linear_factor.hit_ratio": lf["hits"] / lf["calls"] if lf else 0.0,
        "search.random_cubic_sample.setup_s": rc_setup,
        "search.random_cubic_sample.trial_s": (
            (rc["s"] - rc_setup) / rc["trials"] if rc.get("trials") else 0.0
        ),
        "search.random_cubic_sample.gather_bytes": (
            len(cubics.monomial_exponents(workload.n, 3)) * N if rc else 0
        ),
        "search.random_cubic_sample.useful_ratio": (
            vm["on_variety"] / vm["points"] if vm else 0.0
        ),
        "trace.job.s_untraced_w1": untraced_s,
        "trace.job.s_traced": traced_s,
        "trace.job.overhead_s": traced_s - untraced_s,
        "trace.job.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.job.spans": len(job_spans),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            func, stat = name.rsplit(".", 1)
            out[name] = job.get(func, {}).get(stat, 0)
    return out
