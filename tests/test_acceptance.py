"""Acceptance suite: one test per acceptance criterion, exact integer
equalities throughout (no tolerances anywhere).  Each criterion prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 5 includes the (n=4, q=2) anchor, where the extremal
configuration cannot exist: a pencil over a non-degenerate codimension-2
section has q^2-q non-tangent members, only 2 at q=2.  That sub-case asserts
the obstruction instead of a count: the enumeration of every pencil's dual
Gram key finds no non-degenerate pencil with 3 non-tangent members and no
pencil triple reaching 117, the closed-form pencil scan reports the same,
and ``build_extremal`` refuses with the named error
``InsufficientPencilMembers``.
"""

import math
import os

import numpy as np
import pytest

from hermvar.bounds import (
    check_bound_power_gap,
    check_section_quadric_gap,
    cubic_bound_closed,
    cubic_bound_rec,
    quadric_bound_closed,
    quadric_bound_rec,
)
from hermvar.cubics import (
    build_extremal,
    check_affine_section_bound,
    expand_product,
    intersect_count_arrangement,
    intersect_count_enum,
    make_affine_bound_instance,
    max_cubic_intersection,
)
from hermvar.errors import InsufficientPencilMembers
from hermvar.field import make_field
from hermvar.hermitian import (
    classify_section,
    count_points_enum,
    eval_form_at,
    nondegenerate_count,
    section_count,
    standard_form,
)
from hermvar.projgeom import random_subspace, subspace_point_array
from hermvar.search import (
    build_geometry,
    exhaustive_triples,
    gaussian_binomial,
    incidence_double_count,
    pencil_triples_scan,
    random_cubic_sample,
)
from oracles import pencil_scan_enum

WORKERS = min(2, os.cpu_count() or 1)


def report(line):
    print(f"\n{line}")


# -- criterion 1: point-count oracle ------------------------------------------


def test_criterion_1_point_counts():
    anchors = {(3, 2): 45, (4, 2): 165, (3, 3): 280}
    for q in (2, 3):
        ctx = make_field(q)
        for n in range(1, 6):
            enum = count_points_enum(standard_form(n, ctx))
            s = -1 if n % 2 else 1
            formula = (q**n - s) * (q ** (n + 1) + s) // (q * q - 1)
            assert enum == formula, (n, q)
            if (n, q) in anchors:
                assert enum == anchors[(n, q)]
    report("[criterion 1] PASS: enumerated variety sizes equal the closed "
           "formula for q in {2,3}, n in 1..5 (45/165/280 anchors included)")


# -- criterion 2: section taxonomy ---------------------------------------------


def test_criterion_2_section_taxonomy():
    for n in (4, 5):
        for q in (2, 3):
            ctx = make_field(q)
            f = standard_form(n, ctx)
            rng = np.random.default_rng(1000 * n + q)
            for _ in range(100):
                sub = random_subspace(n, n - 2, ctx, rng)
                st = classify_section(f, sub)
                assert (st.v, st.s) in {(-1, n - 2), (0, n - 3), (1, n - 4)}
                pts = subspace_point_array(sub, ctx)
                enum = int(np.count_nonzero(eval_form_at(f, pts) == 0))
                assert enum == section_count(st, q), (n, q, st)
    report("[criterion 2] PASS: 100 random codim-2 sections per (n,q) in "
           "{4,5}x{2,3} classify into the three shapes with exact counts")


# -- criterion 3: sequence identities -------------------------------------------


def test_criterion_3_sequences():
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13)
    for q in qs:
        for n in range(4, 25):
            assert quadric_bound_rec(n, q) == quadric_bound_closed(n, q)
            assert cubic_bound_rec(n, q) == cubic_bound_closed(n, q)
        for n in range(5, 13):
            assert check_bound_power_gap(n, q)
        if q >= 3:
            for n in range(4, 11):
                assert check_section_quadric_gap(n, q)
    report("[criterion 3] PASS: recursion/closed-form identities (n<=24), "
           "power-gap (n in 5..12) and section-quadric gap (q>=3, n in 4..10) "
           "hold with exact integer arithmetic")


# -- criterion 4: tangent incidence ----------------------------------------------


def test_criterion_4_tangent_incidence():
    anchors = {(3, 2): 13, (4, 2): 37, (4, 3): 253}
    for (n, q), want in anchors.items():
        rep = incidence_double_count(n, q)
        assert rep.tangent_count_uniform, (n, q)
        assert rep.point_tangent_count == want, (n, q)
        assert rep.point_tangent_count == q * q * nondegenerate_count(n - 2, q) + 1
        assert rep.incidence_left == rep.incidence_right
    report("[criterion 4] PASS: exhaustive classification gives uniform "
           "per-point tangent counts 13/37/253 at (3,2)/(4,2)/(4,3)")


# -- criterion 5: extremal configurations -----------------------------------------


@pytest.mark.parametrize(
    "n,q,want",
    [(4, 2, 117), (5, 2, 453), (4, 3, 784), (4, 7, 50912), (5, 7, 2_494_003)],
    ids=["n4-q2", "n5-q2", "n4-q3", "n4-q7", "n5-q7"],
)
def test_criterion_5_extremal(n, q, want):
    ctx = make_field(q)
    f = standard_form(n, ctx)
    assert max_cubic_intersection(n, q) == want
    # members of the required tangency in a pencil over a non-degenerate
    # codimension-2 section: q+1 tangent for odd n, q^2-q non-tangent for
    # even n (Bose & Chakravarti 1966)
    members = q + 1 if n % 2 else q * q - q
    if members < 3:
        # the configuration cannot exist: check the obstruction by
        # enumeration of every pencil, then that the closed form agrees and
        # that build_extremal refuses by name
        scan = pencil_scan_enum(n, q)
        assert scan.pencils == gaussian_binomial(n + 1, 2, q * q)
        assert pencil_triples_scan(n, q) == scan
        nondeg = {
            int(key.split("=")[1]): pencils
            for key, pencils in scan.tangent_members_by_section.items()
            if key.startswith("U|")
        }
        assert nondeg, "no non-degenerate pencil enumerated"
        for tangent, pencils in nondeg.items():
            seen = tangent if n % 2 else q * q + 1 - tangent
            assert seen == members, (n, q, tangent, pencils)
        assert scan.best_count < want, (n, q, scan.best_count)
        with pytest.raises(InsufficientPencilMembers) as exc:
            build_extremal(f)
        assert f"qualifying members seen: [{members}]" in str(exc.value)
        report(f"[criterion 5 (n={n},q={q})] PASS: no qualifying configuration "
               f"exists: all {sum(nondeg.values()):,} non-degenerate pencils "
               f"have {members} qualifying members, the best pencil triple "
               f"meets the variety in {scan.best_count} < {want} points, and "
               f"the builder refuses: {exc.value}")
        return
    arr = build_extremal(f)
    rep = intersect_count_arrangement(arr, f)
    assert rep.count == want, (n, q)
    if q == 7:
        # full enumeration over the 5,884,901 points of P^4(F_49) and the
        # 288,360,150 points of P^5(F_49)
        cubic = expand_product(arr.hyperplanes, ctx)
        enum = intersect_count_enum(cubic, f)
        assert enum == want
    report(f"[criterion 5 (n={n},q={q})] PASS: built arrangement meets the "
           f"variety in exactly {want} points")


# -- criterion 6: exhaustive triple search ----------------------------------------


def test_criterion_6_exhaustive_triples():
    rep = exhaustive_triples(4, 2, seed=42)
    # C(341,3) by the binomial-coefficient oracle (= 6,550,610)
    assert rep.total_triples == math.comb(341, 3)
    assert sum(rep.histogram.values()) == rep.total_triples
    assert rep.samples_verified == 1000  # formula == enumeration, exactly
    # every argmax triple was re-verified by enumeration inside the run
    assert rep.argmax_total == rep.histogram[rep.global_max]
    assert rep.global_max == max(rep.histogram)
    report(f"[criterion 6] PASS: all {rep.total_triples:,} triples at (4,2) "
           f"scanned; 1000 sampled triples agree across formula and "
           f"enumeration; global max {rep.global_max} "
           f"(formula max {rep.max_formula_value}, "
           f"reached: {rep.reaches_formula_max}) with {rep.argmax_total} "
           f"ties of structure {sorted(rep.argmax_structure)}")


# -- criterion 7: threshold consistency at full scale -------------------------------


def test_criterion_7_random_cubics_q7():
    rep = random_cubic_sample(4, 7, trials=200, seed=20260811, workers=WORKERS)
    assert rep.threshold == cubic_bound_closed(4, 7) == 50424
    assert rep.retained + len(rep.discarded_divisible) == 200
    if rep.exceedances:
        for e in rep.exceedances:
            print(f"counterexample candidate: {e}")
    assert not rep.exceedances, "a random cubic exceeded the split threshold"
    report(f"[criterion 7] PASS: 200 random cubics at (4,7) (retained "
           f"{rep.retained}) all meet the variety in <= {rep.threshold} "
           f"points (max seen {rep.max_count})")


@pytest.mark.parametrize(
    "q,trials", [(8, 20), (9, 20), (11, 20), (13, 10)], ids=["q8", "q9", "q11", "q13"]
)
def test_criterion_7_random_cubics_beyond_q7(q, trials):
    # the paper's range is q >= 7: characteristic 2 (q = 8) and 3 (q = 9)
    # change which cubics are cubes or additive, and (4,13) is the largest
    # admitted q
    rep = random_cubic_sample(4, q, trials=trials, seed=20260811)
    assert rep.threshold == cubic_bound_closed(4, q) and rep.threshold_asserted
    assert rep.retained + len(rep.discarded_divisible) == trials
    assert rep.stages["points"] == nondegenerate_count(4, q)
    assert not rep.exceedances, f"a random cubic exceeded the split threshold: {rep.exceedances}"
    report(f"[criterion 7] PASS: {trials} random cubics at (4,{q}) (retained "
           f"{rep.retained}) all meet the variety in <= {rep.threshold} "
           f"points (max seen {rep.max_count})")


# -- criterion 8: pairwise-section exclusions ---------------------------------------


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2)], ids=["n4-q2", "n5-q2"])
def test_criterion_8_pairwise_exclusions(n, q):
    from hermvar.bounds import cone_counts
    from oracles import axis_counts

    geo = build_geometry(n, q)
    tangent_members = geo.tangent[geo.planes].sum(axis=1)
    u_count, cone0, cone1 = cone_counts(n, q)
    assert len({u_count, cone0, cone1}) == 3
    members_total = geo.planes.shape[1]
    pairs_seen = 0
    for count, t in zip(axis_counts(geo), tangent_members):
        count, t = int(count), int(t)
        assert count in (u_count, cone0, cone1)
        if count == cone1:
            # a pair containing a non-tangent member never cuts this shape
            assert members_total - t <= 1
        if count == cone0:
            # a tangent-tangent pair never cuts this shape
            assert t <= 1
        pairs_seen += members_total * (members_total - 1) // 2
    assert pairs_seen == math.comb(geo.N, 2)
    report(f"[criterion 8 (n={n},q={q})] PASS: all {pairs_seen:,} hyperplane "
           f"pairs obey the tangency/section-shape exclusions")


# -- criterion 9: affine section bound ----------------------------------------------


@pytest.mark.parametrize("q", [3, 7], ids=["q3", "q7"])
def test_criterion_9_affine_bound(q):
    n, d = 4, 3
    ctx = make_field(q)
    f = standard_form(n, ctx)
    rng = np.random.default_rng(900 + q)
    for _ in range(50):
        C, sigma, pi = make_affine_bound_instance(n, d, ctx, rng)
        assert check_affine_section_bound(C, f, sigma, pi)
    report(f"[criterion 9 (q={q})] PASS: 50 constructed instances satisfy "
           f"the affine bound (d-1)(q+1)q^(2n-6) = {(d-1)*(q+1)*q**(2*n-6)}")
