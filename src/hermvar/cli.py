"""Batch command-line interface.

Three subcommands: ``count`` (formula vs enumerated point counts),
``verify`` (named assertion suites), and ``search`` (exhaustive triples or
seeded random cubics).  Output is versioned JSON ({"schema": 1}); the only
volatile field is the top-level "timestamp" object, so identical flags and
seed reproduce byte-identical output otherwise.

Exit codes: 0 all assertions passed, 1 an assertion failed (named in the
report), 2 usage or configuration error.  Checks outside the proved
parameter ranges are reported under "informational" and never affect the
exit code.  HERMVAR_BUDGET overrides the default budget when --budget is
absent.  --workers is accepted and ignored: every command runs in one
process.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import bounds
from .cubics import (
    build_extremal,
    check_affine_section_bound,
    intersect_count_arrangement,
    make_affine_bound_instance,
    max_cubic_intersection,
)
from .errors import (
    BudgetExceeded,
    ExceedsCap,
    InsufficientPencilMembers,
    NotPrimePower,
    OutOfRange,
    PreconditionViolated,
)
from .field import make_field
from .hermitian import (
    DEFAULT_POINT_BUDGET,
    classify_section,
    count_points_enum,
    count_points_formula,
    eval_form_at,
    hyperplane_section_counts,
    padded_standard_form,
    section_count,
    standard_form,
)
from .projgeom import num_points, random_subspace, subspace_point_array
from .search import exhaustive_triples, incidence_double_count, random_cubic_sample

SUITES = ("sequences", "sections", "incidence", "extremal", "affine")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="hermvar",
        description="Exact verification and search for Hermitian variety "
        "intersections over F_{q^2}",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, required=True, help="subfield order (prime power)")
        sp.add_argument("--n", type=int, required=True, help="projective dimension")
        sp.add_argument("--budget", type=int, default=None)
        sp.add_argument(
            "--workers", type=int, default=None,
            help="accepted and ignored; every command runs in one process",
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", type=str, default=None)

    sp = sub.add_parser("count", help="formula vs enumerated point counts")
    common(sp)
    sp.add_argument("--rank", type=int, default=None, help="form rank (default n+1)")

    sp = sub.add_parser("verify", help="run a named assertion suite")
    common(sp)
    sp.add_argument("--suite", choices=SUITES, required=True)

    sp = sub.add_parser("search", help="exhaustive or randomized experiments")
    common(sp)
    sp.add_argument("--mode", choices=("triples", "random"), required=True)
    sp.add_argument("--trials", type=int, default=200)
    return p


def _budget(args):
    if args.budget is not None:
        return args.budget
    return int(os.environ.get("HERMVAR_BUDGET", DEFAULT_POINT_BUDGET))


def _assertion(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


# -- suites -------------------------------------------------------------------


def _suite_sequences(q, n, **_):
    checks = []
    info = []
    ok_rec = all(
        bounds.quadric_bound_rec(m, q) == bounds.quadric_bound_closed(m, q)
        and bounds.cubic_bound_rec(m, q) == bounds.cubic_bound_closed(m, q)
        for m in range(4, max(n, 4) + 1)
    )
    checks.append(_assertion(f"bound_recursion_equals_closed_form[4..{n}]", ok_rec, ""))
    ordering = all(
        (bounds.cone_counts(m, q)[2] < bounds.cone_counts(m, q)[0] < bounds.cone_counts(m, q)[1])
        if m % 2 == 0
        else (bounds.cone_counts(m, q)[1] < bounds.cone_counts(m, q)[0] < bounds.cone_counts(m, q)[2])
        for m in range(4, max(n, 4) + 1)
    )
    checks.append(_assertion(f"section_count_parity_ordering[4..{n}]", ordering, ""))
    if n >= 5:
        gap = all(bounds.check_bound_power_gap(m, q) for m in range(5, n + 1))
        checks.append(_assertion(f"bound_power_gap[5..{n}]", gap, ""))
    for m in range(4, max(n, 4) + 1):
        holds = bounds.check_section_quadric_gap(m, q)
        if q >= 3:
            checks.append(_assertion(f"section_quadric_gap[n={m}]", holds, ""))
        else:
            info.append(
                {
                    "name": f"section_quadric_gap[n={m}]",
                    "holds": holds,
                    "note": "outside the proved range q >= 3; reported only",
                }
            )
    return checks, info


def _suite_sections(q, n, seed=0, budget=DEFAULT_POINT_BUDGET, **_):
    if n < 2:
        raise OutOfRange(f"n={n} must be >= 2 for codimension-2 sections")
    ctx = make_field(q)
    f = standard_form(n, ctx)
    rng = np.random.default_rng(seed)
    failures = []
    types_seen = set()
    for t in range(100):
        sub = random_subspace(n, n - 2, ctx, rng)
        st = classify_section(f, sub)
        types_seen.add((st.v, st.s))
        want = section_count(st, q)
        pts = subspace_point_array(sub, ctx)
        got = int(np.count_nonzero(eval_form_at(f, pts) == 0))
        if got != want:
            failures.append({"subspace": [list(r) for r in sub.basis], "want": want, "got": got})
    checks = [
        _assertion(
            "section_formula_equals_enumeration[100 subspaces]",
            not failures,
            failures[:3],
        ),
        _assertion(
            "only_three_section_shapes",
            types_seen <= {(-1, n - 2), (0, n - 3), (1, n - 4)},
            sorted(types_seen),
        ),
    ]
    return checks, []


def _suite_incidence(q, n, stages, budget=DEFAULT_POINT_BUDGET, **_):
    if n < 2:
        raise OutOfRange(f"n={n} must be >= 2 for the tangent incidence")
    rep = incidence_double_count(n, q, budget=budget)
    stages.update(rep.stages)
    want = hyperplane_section_counts(n, q)[0]
    checks = [
        _assertion("tangent_count_uniform", rep.tangent_count_uniform, rep.point_tangent_count),
        _assertion(
            "tangent_count_value",
            rep.point_tangent_count == want,
            {"got": rep.point_tangent_count, "want": want},
        ),
        _assertion(
            "tangent_hyperplanes_equal_variety_points",
            rep.tangent_hyperplanes == rep.variety_points,
            {"tangent": rep.tangent_hyperplanes, "points": rep.variety_points},
        ),
        _assertion(
            "incidence_sums_agree",
            rep.incidence_left == rep.incidence_right,
            {"left": rep.incidence_left, "right": rep.incidence_right},
        ),
    ]
    return checks, []


def _suite_extremal(q, n, budget=DEFAULT_POINT_BUDGET, **_):
    ctx = make_field(q)
    f = standard_form(n, ctx)
    want = max_cubic_intersection(n, q)
    try:
        arr = build_extremal(f)
    except InsufficientPencilMembers as e:
        return [
            _assertion("extremal_configuration_exists", False, str(e)),
        ], []
    rep = intersect_count_arrangement(arr, f)
    checks = [
        _assertion(
            "extremal_count_equals_formula",
            rep.count == want,
            {"built": rep.count, "formula": want},
        )
    ]
    N = num_points(n, q)
    if N <= budget:
        from .cubics import expand_product, intersect_count_enum

        enum = intersect_count_enum(
            expand_product(arr.hyperplanes, ctx), f, budget=budget
        )
        checks.append(
            _assertion(
                "extremal_count_verified_by_enumeration",
                enum == want,
                {"enumerated": enum, "formula": want},
            )
        )
    return checks, []


def _suite_affine(q, n, seed=0, budget=DEFAULT_POINT_BUDGET, **_):
    d = 3
    if d > q or n < 3:
        raise PreconditionViolated(f"need degree d={d} <= q={q} and n >= 3")
    ctx = make_field(q)
    f = standard_form(n, ctx)
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(50):
        C, sigma, pi = make_affine_bound_instance(n, d, ctx, rng)
        if not check_affine_section_bound(C, f, sigma, pi, budget=budget):
            bad += 1
    return [
        _assertion(f"affine_section_bound[50 instances, d={d}]", bad == 0, {"violations": bad})
    ], []


_SUITE_FN = {
    "sequences": _suite_sequences,
    "sections": _suite_sections,
    "incidence": _suite_incidence,
    "extremal": _suite_extremal,
    "affine": _suite_affine,
}


# -- commands -----------------------------------------------------------------


def _cmd_count(args, budget):
    q, n = args.q, args.n
    r = args.rank if args.rank is not None else n + 1
    ctx = make_field(q)
    formula = count_points_formula(n, q, r)
    N = num_points(n, q)
    enumerated = None
    if N <= budget:
        f = standard_form(n, ctx) if r == n + 1 else padded_standard_form(r, n, ctx)
        enumerated = count_points_enum(f, budget=budget)
    match = enumerated is None or enumerated == formula
    report = {
        "schema": 1,
        "command": "count",
        "params": {"q": q, "n": n, "rank": r},
        "formula": formula,
        "enumerated": enumerated,
        "match": match,
        "points_scanned": N if enumerated is not None else 0,
    }
    return report, match


def _cmd_verify(args, budget):
    fn = _SUITE_FN[args.suite]
    stages = {}
    checks, info = fn(args.q, args.n, seed=args.seed, budget=budget, stages=stages)
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": 1,
        "command": "verify",
        "suite": args.suite,
        "params": {"q": args.q, "n": args.n, "seed": args.seed},
        "assertions": checks,
        "informational": info,
        "passed": passed,
    }
    report["_stages"] = stages or None  # volatile, emitted under "timestamp"
    return report, passed


def _cmd_search(args, budget):
    if args.mode == "triples":
        rep = exhaustive_triples(args.n, args.q, budget=budget, seed=args.seed)
        ok = True
    else:
        rep = random_cubic_sample(
            args.n, args.q, trials=args.trials, seed=args.seed, budget=budget
        )
        ok = not (rep.threshold_asserted and rep.exceedances)
    report = {
        "schema": 1,
        "command": "search",
        "params": {
            "q": args.q,
            "n": args.n,
            "mode": args.mode,
            "seed": args.seed,
            "trials": args.trials if args.mode == "random" else None,
        },
        "report": rep.to_json_dict(),
        "passed": ok,
    }
    report["_histogram"] = rep.histogram  # the csv output, not serialized
    report["_stages"] = rep.stages  # volatile, emitted under "timestamp"
    return report, ok


def _emit(report, args, t0):
    histogram = report.pop("_histogram", None)
    stages = report.pop("_stages", None)
    report["timestamp"] = {
        "run_at": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    if stages is not None:
        report["timestamp"]["stages"] = {
            k: round(v, 3) if isinstance(v, float) else v for k, v in stages.items()
        }
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if report["command"] == "verify":
            w.writerow(["name", "passed", "detail"])
            for c in report["assertions"]:
                w.writerow([c["name"], c["passed"], json.dumps(c["detail"], default=str)])
        elif report["command"] == "count":
            w.writerow(["quantity", "value"])
            w.writerow(["formula", report["formula"]])
            w.writerow(["enumerated", report["enumerated"]])
        else:
            w.writerow(["value", "count"])
            w.writerows(sorted(histogram.items()))
        out_text = buf.getvalue()
    else:
        out_text = text
    sys.stdout.write(out_text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out_text)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    budget = _budget(args)
    try:
        if args.command == "count":
            report, ok = _cmd_count(args, budget)
        elif args.command == "verify":
            report, ok = _cmd_verify(args, budget)
        else:
            report, ok = _cmd_search(args, budget)
    except (NotPrimePower, ExceedsCap, OutOfRange, BudgetExceeded, PreconditionViolated) as e:
        err = {
            "schema": 1,
            "command": args.command,
            "error": type(e).__name__,
            "message": str(e),
        }
        sys.stdout.write(json.dumps(err, sort_keys=True, indent=2) + "\n")
        return 2
    _emit(report, args, t0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
