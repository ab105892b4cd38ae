import collections
import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermvar import cubics as cubics_mod
from hermvar import hermitian, projgeom
from hermvar.cubics import (
    Hypersurface,
    _line_counts,
    _line_factors,
    _pmul,
    affine_section_count,
    all_tangent_pencil_value,
    arrangement,
    build_extremal,
    check_affine_section_bound,
    divides_linear,
    eval_poly_at,
    expand_product,
    intersect_count_arrangement,
    intersect_count_enum,
    linear_factor,
    make_affine_bound_instance,
    make_hypersurface,
    monomial_exponents,
    random_hypersurface,
)
from hermvar.errors import (
    DuplicateHyperplanes,
    InsufficientPencilMembers,
    OutOfRange,
    PreconditionViolated,
)
from hermvar.field import make_field
from hermvar.hermitian import (
    HermitianForm,
    contains,
    count_points_enum,
    evaluate,
    form_scan,
    nondegenerate_count,
    padded_standard_form,
    standard_form,
    variety_mask,
)
from hermvar.projgeom import (
    Hyperplane,
    LinearSubspace,
    enumerate_hyperplanes,
    enumerate_points,
    hyperplanes_through,
    intersect_hyperplanes,
    nullspace,
    num_points,
    pencil_through,
    point_array,
    rref,
    subspace_point_array,
)
from oracles import congruent_form, evaluate_poly, line_counts_all


def random_triple(n, ctx, rng):
    N_hyps = list(enumerate_hyperplanes(n, ctx))
    idx = rng.choice(len(N_hyps), size=3, replace=False)
    return tuple(N_hyps[i] for i in idx)


def test_monomial_exponents():
    exps = monomial_exponents(2, 3)
    assert len(exps) == 10
    assert exps[0] == (3, 0, 0)  # graded-lex leader
    assert all(sum(e) == 3 for e in exps)
    assert len(monomial_exponents(4, 3)) == 35


def test_make_hypersurface_canonical():
    ctx = make_field(2)
    C = make_hypersurface({(0, 3, 0): 2, (1, 1, 1): 3}, 2, 3, ctx)
    # leading coefficient (largest exponent tuple) scaled to 1
    assert C.monomials[0] == ((1, 1, 1), 1)
    with pytest.raises(ValueError):
        make_hypersurface({}, 2, 3, ctx)


def test_expand_product_matches_union():
    ctx = make_field(2)
    hyps = (
        Hyperplane((1, 0, 0, 0, 0)),
        Hyperplane((0, 1, 0, 0, 0)),
        Hyperplane((1, 2, 3, 0, 1)),
    )
    C = expand_product(hyps, ctx)
    assert C.degree == 3
    for P in itertools.islice(enumerate_points(4, ctx), 200):
        on_union = any(ctx.dot(h.covector, P.coords) == 0 for h in hyps)
        assert (evaluate_poly(C, P.coords, ctx) == 0) == on_union


def sample_forms(n, ctx, rng):
    """Random forms of degree 1-4, then sparse cubics: x_n^3, L^3, a product
    of three hyperplanes and the cubic with every coefficient 1."""
    forms = [random_hypersurface(n, d, ctx, rng) for d in (1, 2, 3, 4)]
    L, M, K = random_triple(n, ctx, rng)
    forms.append(make_hypersurface({(0,) * n + (3,): 1}, n, 3, ctx))
    forms.append(expand_product((L, L, L), ctx))
    forms.append(expand_product((L, M, K), ctx))
    ones = dict.fromkeys(monomial_exponents(n, 3), 1)
    forms.append(make_hypersurface(ones, n, 3, ctx))
    return forms


def test_eval_poly_at_matches_scalar():
    # every point of P^n for n in {2, 3, 4} and q in {2, 3, 4} (q = 4: a
    # non-prime field), except P^4(F_16), whose 69,905 points are too many
    # for the scalar oracle
    for n, q in itertools.product((2, 3, 4), (2, 3, 4)):
        if (n, q) == (4, 4):
            continue
        ctx = make_field(q)
        pts = point_array(n, ctx)
        rows = [tuple(int(x) for x in row) for row in pts]
        for C in sample_forms(n, ctx, np.random.default_rng(10 * n + q)):
            vals = eval_poly_at(C, pts, ctx)
            assert vals.dtype == np.uint8
            want = [evaluate_poly(C, P, ctx) for P in rows]
            assert vals.tolist() == want, (n, q, C.monomials)


def general_form(n, ctx, rng):
    """A random Hermitian form M + M^(q)T with H[n][n] = 0, so e_n lies on
    its variety, and with a nonzero entry off the diagonal in the last row,
    so the form has a term linear in x_n."""
    while True:
        M = rng.integers(0, ctx.order, size=(n + 1, n + 1))
        H = [
            [ctx.add(int(M[i][j]), ctx.frobenius(int(M[j][i]))) for j in range(n + 1)]
            for i in range(n + 1)
        ]
        H[n][n] = 0
        if any(H[n][:n]):
            return HermitianForm(tuple(tuple(r) for r in H), n, ctx)


def enum_polys(n, ctx, rng):
    """Random forms of degree 1-4, a product of three hyperplanes, a cubic
    without x_n (it vanishes at e_n), and the pure powers x_n and x_n^3."""
    polys = [random_hypersurface(n, d, ctx, rng) for d in (1, 2, 3, 3, 4)]
    polys.append(expand_product(random_triple(n, ctx, rng), ctx))
    head = random_hypersurface(n - 1, 3, ctx, rng)
    polys.append(make_hypersurface({e + (0,): c for e, c in head.monomials}, n, 3, ctx))
    for d in (1, 3):
        polys.append(make_hypersurface({(0,) * n + (d,): 1}, n, d, ctx))
    return polys


@pytest.mark.parametrize(
    "n,q,rank",
    [(3, 2, 4), (3, 3, 4), (4, 2, 5), (4, 2, 3), (3, 2, None), (3, 3, None), (4, 2, None)],
)
def test_intersect_count_enum_matches_scalar_scan(n, q, rank):
    # (4, 2, 3) is the degenerate form of rank 3 in P^4: a cone with a line
    # as vertex over U_2; rank None is a random non-diagonal form with e_n
    # on its variety
    ctx = make_field(q)
    rng = np.random.default_rng(100 * n + 10 * q + (rank or 0))
    f = padded_standard_form(rank, n, ctx) if rank else general_form(n, ctx, rng)
    points = list(enumerate_points(n, ctx))
    on_f = [P for P in points if evaluate(f, P) == 0]
    for C in enum_polys(n, ctx, rng):
        want = sum(evaluate_poly(C, P.coords, ctx) == 0 for P in on_f)
        assert intersect_count_enum(C, f) == want, (n, q, rank, C.monomials)


# each form at n = 3, with the zero counts of the keys its scan of P^3(F_9)
# meets: a key's row is a norm fibre of 0, 1, q, q + 1 or q^2 zeros
CHUNK_FORMS = {
    "standard": (lambda ctx, rng: standard_form(3, ctx), {1, 4}),
    "rank3": (lambda ctx, rng: padded_standard_form(3, 3, ctx), {0, 9}),
    "rank2": (lambda ctx, rng: padded_standard_form(2, 3, ctx), {0, 9}),
    "general": (lambda ctx, rng: general_form(3, ctx, rng), {0, 3, 9}),
    "congruent": (lambda ctx, rng: congruent_form(3, ctx, seed=0), {1, 4}),
}


@pytest.mark.parametrize("kind", list(CHUNK_FORMS))
def test_enum_scans_match_scalar_across_chunks(monkeypatch, kind):
    # _CHUNK = 200 makes grids of at most ceil(200 / 9) = 23 prefixes, whole
    # runs of 9 that never cross a pivot block: of the 91 prefixes of
    # P^2(F_9), block 0's 81 in four grids of two runs and one of one, then
    # block 1's 9 and block 2's one, for the 820 points of P^3(F_9); most
    # keys' prefixes are spread over several grids, a grid mixes keys of
    # different zero counts, and under the rank-deficient forms some grids
    # hold no zero at all
    monkeypatch.setattr("hermvar.hermitian._CHUNK", 200)
    ctx = make_field(3)
    rng = np.random.default_rng(7)
    make_form, zero_counts = CHUNK_FORMS[kind]
    f = make_form(ctx, rng)
    T, chunks = form_scan(f)
    keys = [key for _, key in chunks]
    assert [key.shape for key in keys] == [(2, 9)] * 4 + [(1, 9)] * 2 + [(1,)]
    grids_of = collections.Counter(k for key in keys for k in set(key.ravel().tolist()))
    assert sum(c > 1 for c in grids_of.values()) >= 2
    zeros = np.count_nonzero(T == 0, axis=1)
    assert set(zeros[np.concatenate([key.ravel() for key in keys])].tolist()) == zero_counts
    assert any(len(set(zeros[key.ravel()].tolist())) > 1 for key in keys)
    assert any(not zeros[key].any() for key in keys) == kind.startswith("rank")
    points = [P for P in enumerate_points(3, ctx) if evaluate(f, P) == 0]
    assert count_points_enum(f) == len(points)
    if kind in ("standard", "congruent"):
        assert len(points) == nondegenerate_count(3, 3)
    cubics = [random_hypersurface(3, 3, ctx, rng) for _ in range(3)]
    cubics += [expand_product(random_triple(3, ctx, rng), ctx) for _ in range(2)]
    for C in cubics + enum_polys(3, ctx, rng):
        want = sum(evaluate_poly(C, P.coords, ctx) == 0 for P in points)
        assert intersect_count_enum(C, f) == want, C.monomials


@functools.lru_cache(maxsize=None)
def scalar_points(n, q):
    return tuple(enumerate_points(n, make_field(q)))


@st.composite
def keyed_oracle_cases(draw):
    """(f, C, chunk) at n <= 4, q <= 3: the standard form, a rank-deficient
    one or a general form with b != 0 and H[n][n] zero or not; C of degree
    1-4, with or without its x_n^d term; and a _CHUNK that cuts the M
    prefixes into 3 to 40 chunks (as M allows), so that one key's prefixes
    span several chunks."""
    n = draw(st.integers(1, 4), label="n")
    ctx = make_field(draw(st.sampled_from([2, 3]), label="q"))
    els = st.integers(0, ctx.order - 1)
    kind = draw(st.sampled_from(["standard", "rank-deficient", "general"]), label="kind")
    if kind == "standard":
        f = standard_form(n, ctx)
    elif kind == "rank-deficient":
        f = padded_standard_form(draw(st.integers(1, n), label="rank"), n, ctx)
    else:
        M = draw(st.lists(els, min_size=(n + 1) ** 2, max_size=(n + 1) ** 2), label="M")
        H = [
            [ctx.add(M[i * (n + 1) + j], ctx.frobenius(M[j * (n + 1) + i])) for j in range(n + 1)]
            for i in range(n + 1)
        ]
        H[n][n] = draw(st.sampled_from(ctx.subfield_elements()), label="h")
        j, b = draw(st.integers(0, n - 1), label="j"), draw(st.integers(1, ctx.order - 1), label="b")
        H[n][j], H[j][n] = b, ctx.frobenius(b)
        f = HermitianForm(tuple(map(tuple, H)), n, ctx)
    d = draw(st.integers(1, 4), label="d")
    exps = monomial_exponents(n, d)
    coeffs = draw(
        st.lists(st.one_of(st.just(0), els), min_size=len(exps), max_size=len(exps)),
        label="coefficients",
    )
    poly = dict(zip(exps, coeffs))
    if not draw(st.booleans(), label="x_n^d term"):
        poly[(0,) * n + (d,)] = 0  # then C vanishes at e_n
    if not any(poly.values()):
        poly[exps[0]] = 1
    C = make_hypersurface(poly, n, d, ctx)
    M, Q = num_points(n - 1, ctx.q), ctx.order
    chunk = draw(st.integers(max(1, M // 40) * Q, max(1, M // 3) * Q), label="_CHUNK")
    return f, C, chunk


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=keyed_oracle_cases())
def test_keyed_oracles_match_scalar_loops(case):
    # the oracles read the form from its key table and test C at a key's
    # zeros together; scalar evaluate / evaluate_poly over every point must
    # agree, whatever the chunk boundaries cut through a key's prefixes
    f, C, chunk = case
    ctx = f.ctx
    on_f = [P for P in scalar_points(f.n, ctx.q) if evaluate(f, P) == 0]
    want = sum(evaluate_poly(C, P.coords, ctx) == 0 for P in on_f)
    with mock.patch.object(hermitian, "_CHUNK", chunk):
        assert count_points_enum(f) == len(on_f)
        assert intersect_count_enum(C, f) == want


def test_enum_oracles_never_build_the_point_array(monkeypatch):
    # the oracles scan P^n as prefix grids x last coordinate: with point_array
    # unavailable they give the same counts
    ctx = make_field(3)
    rng = np.random.default_rng(11)
    forms = [standard_form(4, ctx), general_form(4, ctx, rng)]
    polys = [random_hypersurface(4, 3, ctx, rng), random_hypersurface(4, 2, ctx, rng)]
    want = [count_points_enum(f) for f in forms]
    want += [intersect_count_enum(C, f) for f in forms for C in polys]
    assert want[0] == nondegenerate_count(4, 3)

    def no_scan(*args, **kwargs):
        raise AssertionError("an enumeration oracle built point_array")

    for mod in (projgeom, hermitian, cubics_mod):
        monkeypatch.setattr(mod, "point_array", no_scan, raising=False)
    got = [count_points_enum(f) for f in forms]
    got += [intersect_count_enum(C, f) for f in forms for C in polys]
    assert got == want


def test_intersect_count_enum_triple_hyperplane():
    # (x_0)^3 cuts the variety exactly where x_0 = 0 does: a non-tangent
    # hyperplane section of U_4 at q=2 has 45 points
    ctx = make_field(2)
    f = standard_form(4, ctx)
    C = make_hypersurface({(3, 0, 0, 0, 0): 1}, 4, 3, ctx)
    assert intersect_count_enum(C, f) == 45
    # in characteristic 2, x_0^3 + x_0^2 x_4 + x_0 x_4^2 + x_4^3 is
    # (x_0 + x_4)^3; the hyperplane x_0 + x_4 = 0 is tangent to U_4 at q=2,
    # since N(1) + N(1) = 0, so it meets U_4 in 1 + q^2 |U_2| = 1 + 4*9 = 37
    # points
    cube = make_hypersurface(
        {(3, 0, 0, 0, 0): 1, (0, 0, 0, 0, 3): 1, (1, 0, 0, 0, 2): 1, (2, 0, 0, 0, 1): 1},
        4,
        3,
        ctx,
    )
    assert intersect_count_enum(cube, f) == 37


def test_arrangement_requires_distinct():
    ctx = make_field(2)
    f = standard_form(4, ctx)
    h = Hyperplane((1, 0, 0, 0, 0))
    with pytest.raises(DuplicateHyperplanes):
        arrangement((h, h, Hyperplane((0, 1, 0, 0, 0))), f)


def test_pencil_triple_count_odd_case():
    # three tangent pencil members over a non-degenerate common section in
    # U_5 at q=2: 3*(q^2*45+1) - 2*45 = 453
    ctx = make_field(2)
    f = standard_form(5, ctx)
    sub = intersect_hyperplanes(
        [Hyperplane((1, 0, 0, 0, 0, 0)), Hyperplane((0, 1, 0, 0, 0, 0))], ctx
    )
    pencil = pencil_through(sub, ctx)
    arr = arrangement(
        tuple(h for h in pencil if arrangement_kind(f, h) == "tangent")[:3], f
    )
    assert arr.tangency == ("tangent",) * 3
    rep = intersect_count_arrangement(arr, f)
    assert rep.count == 3 * (4 * 45 + 1) - 2 * 45 == 453


def arrangement_kind(f, h):
    from hermvar.hermitian import classify_hyperplane

    return classify_hyperplane(f, h).kind


def test_coordinate_triple_codim3_matches_enumeration():
    ctx = make_field(2)
    f = standard_form(4, ctx)
    hyps = (
        Hyperplane((1, 0, 0, 0, 0)),
        Hyperplane((0, 1, 0, 0, 0)),
        Hyperplane((0, 0, 1, 0, 0)),
    )
    arr = arrangement(hyps, f)
    rep = intersect_count_arrangement(arr, f)
    keys = dict(rep.breakdown)
    assert keys["per_hyperplane"] == (45, 45, 45)
    assert keys["per_pair"] == (9, 9, 9)
    C = expand_product(hyps, ctx)
    assert rep.count == intersect_count_enum(C, f)


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (4, 3)])
def test_pencil_triples_match_popcounts(n, q):
    # one pencil of each axis shape, and every number of tangent members a
    # triple from it can take: the inclusion-exclusion count equals the
    # popcount of the OR of the three incidence rows, and every pair and
    # the triple meet in the axis
    from hermvar.bounds import cone_counts
    from hermvar.projgeom import point_array
    from hermvar.search import build_geometry
    from oracles import axis_counts

    ctx = make_field(q)
    f = standard_form(n, ctx)
    geo = build_geometry(n, q)
    plane_count = axis_counts(geo)
    pts = point_array(n, ctx)
    for axis in cone_counts(n, q):  # U, Pi0U, Pi1U
        pid = int(np.flatnonzero(plane_count == axis)[0])
        ranks = geo.planes[pid]
        tan = [int(r) for r in ranks if geo.tangent[r]]
        non = [int(r) for r in ranks if not geo.tangent[r]]
        patterns = range(max(0, 3 - len(non)), min(3, len(tan)) + 1)
        assert len(patterns) >= 1
        for k in patterns:
            idx = tan[:k] + non[: 3 - k]
            hyps = tuple(Hyperplane(tuple(pts[r].tolist())) for r in idx)
            arr = arrangement(hyps, f)
            assert arr.tangency.count("tangent") == k
            rep = intersect_count_arrangement(arr, f)
            union = geo.Z[idx[0]] | geo.Z[idx[1]] | geo.Z[idx[2]]
            assert rep.count == int(np.bitwise_count(union).sum()), (axis, k)
            assert [key for key, _ in rep.breakdown] == [
                "per_hyperplane", "per_pair", "triple"
            ]
            keys = dict(rep.breakdown)
            assert keys["per_hyperplane"] == tuple(int(geo.S[r]) for r in idx)
            assert keys["per_pair"] == (axis,) * 3 and keys["triple"] == axis


@pytest.mark.parametrize("q,trials", [(2, 1000), (3, 1000)])
def test_method_equivalence_random_triples(q, trials):
    ctx = make_field(q)
    f = standard_form(4, ctx)
    rng = np.random.default_rng(q * 100)
    hyps_all = list(enumerate_hyperplanes(4, ctx))
    mask = variety_mask(f)
    pts = point_array(4, ctx)
    # precompute per-hyperplane zero masks lazily
    cache = {}

    def hyp_mask(h):
        if h not in cache:
            acc = np.zeros(len(pts), dtype=np.uint8)
            for j, a in enumerate(h.covector):
                if a:
                    acc = ctx.vadd(acc, ctx.vscale(a, pts[:, j]))
            cache[h] = acc == 0
        return cache[h]

    for _ in range(trials):
        idx = rng.choice(len(hyps_all), size=3, replace=False)
        triple = tuple(hyps_all[i] for i in idx)
        rep = intersect_count_arrangement(arrangement(triple, f), f)
        union = hyp_mask(triple[0]) | hyp_mask(triple[1]) | hyp_mask(triple[2])
        assert rep.count == int(np.count_nonzero(union & mask))


ADMITTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def test_max_cubic_intersection_values():
    assert max_cubic_intersection_alias(4, 2) == 117
    assert max_cubic_intersection_alias(5, 2) == 453
    assert max_cubic_intersection_alias(4, 3) == 784
    assert max_cubic_intersection_alias(4, 7) == 50912
    with pytest.raises(OutOfRange):
        max_cubic_intersection_alias(3, 2)
    # the paper's two closed forms, against the pencil rule of the library
    for q in ADMITTED_Q:
        for n in range(4, 14):
            if n % 2 == 0:
                want = 3 * nondegenerate_count(n - 1, q) - 2 * nondegenerate_count(n - 2, q)
            else:
                want = (3 * q * q - 2) * nondegenerate_count(n - 2, q) + 3
            assert max_cubic_intersection_alias(n, q) == want, (n, q)


def max_cubic_intersection_alias(n, q):
    from hermvar.cubics import max_cubic_intersection

    return max_cubic_intersection(n, q)


def test_all_tangent_pencil_value():
    assert all_tangent_pencil_value(4, 7) == 50471
    assert all_tangent_pencil_value(4, 2) == 101
    # strictly below the even-case maximum for a range of q
    for q in (2, 3, 4, 5, 7):
        for n in (4, 6, 8):
            assert all_tangent_pencil_value(n, q) < max_cubic_intersection_alias(n, q)
    with pytest.raises(OutOfRange):
        all_tangent_pencil_value(5, 2)
    # the closed form in q, against the pencil rule of the library
    for q in ADMITTED_Q:
        for n in range(4, 14, 2):
            want = (q ** (2 * n - 3) * (3 * q * q - 2) - q**n * (q - 1) - 1) // (q * q - 1)
            assert all_tangent_pencil_value(n, q) == want, (n, q)


def test_build_extremal_odd_q2():
    ctx = make_field(2)
    f = standard_form(5, ctx)
    arr = build_extremal(f)
    assert arr.tangency == ("tangent",) * 3
    assert arr.pi_section.v == -1
    rep = intersect_count_arrangement(arr, f)
    assert rep.count == 453
    # deterministic
    assert build_extremal(f) == arr


def test_build_extremal_even_q3():
    ctx = make_field(3)
    f = standard_form(4, ctx)
    arr = build_extremal(f)
    assert arr.tangency == ("non_tangent",) * 3
    assert arr.pi_section.v == -1
    assert intersect_count_arrangement(arr, f).count == 784


@pytest.mark.parametrize("n,q", [(5, 2), (4, 3), (4, 4), (4, 7)])
def test_build_extremal_takes_first_members_of_its_pencil(n, q):
    # the members are the first three of their pencil, in canonical order,
    # with the wanted kind under the scalar classification
    ctx = make_field(q)
    f = standard_form(n, ctx)
    arr = build_extremal(f)
    want = "tangent" if n % 2 else "non_tangent"
    pencil = pencil_through(intersect_hyperplanes(arr.hyperplanes, ctx), ctx)
    first = [h for h in pencil if hermitian.classify_hyperplane(f, h).kind == want]
    assert arr.hyperplanes == tuple(first[:3])


def test_build_extremal_impossible_at_q2_even():
    # every pencil over a non-degenerate codim-2 section at q=2 has exactly
    # q^2-q = 2 non-tangent members, so no even-case extremal triple exists;
    # the refusal names the count of the pencil the builder took
    ctx = make_field(2)
    for n in (4, 6):
        with pytest.raises(InsufficientPencilMembers) as exc:
            build_extremal(standard_form(n, ctx))
        assert "qualifying members seen: [2]" in str(exc.value)


@pytest.mark.parametrize("n,q", [(4, 3), (5, 2), (4, 4)])
def test_build_extremal_on_a_congruent_form(n, q):
    # a form with off-diagonal entries: the first pencil's members still
    # give the maximum, by the section formulas and by enumeration
    ctx = make_field(q)
    f = congruent_form(n, ctx, seed=7 * n + q)
    arr = build_extremal(f)
    want = max_cubic_intersection_alias(n, q)
    assert arr.pi_section.v == -1
    assert set(arr.tangency) == {"tangent" if n % 2 else "non_tangent"}
    assert intersect_count_arrangement(arr, f).count == want
    assert intersect_count_enum(expand_product(arr.hyperplanes, ctx), f) == want


def test_arrangement_json():
    ctx = make_field(2)
    f = standard_form(5, ctx)
    arr = build_extremal(f)
    d = arr.to_json_dict(count=453)
    assert d["n"] == 5 and d["q"] == 2
    assert len(d["covectors"]) == 3
    assert d["pi_section"] == {"v": -1, "s": 3}
    assert d["count"] == 453


# -- divisibility --------------------------------------------------------------


def test_divides_linear_products():
    ctx = make_field(3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        hyps = random_triple(3, ctx, rng)
        C = expand_product(hyps, ctx)
        for h in hyps:
            assert divides_linear(h.covector, C, ctx)
        # a hyperplane outside the triple should almost never divide
        other = next(
            h for h in enumerate_hyperplanes(3, ctx) if h not in hyps
        )
        assert not divides_linear(other.covector, C, ctx)


def test_divides_linear_matches_point_containment():
    # for cubics over F_4 (degree 3 < q^2), L | C iff V(L) subset of V(C)
    ctx = make_field(2)
    n = 3
    pts = list(enumerate_points(n, ctx))
    rng = np.random.default_rng(5)
    cases = [random_hypersurface(n, 3, ctx, rng) for _ in range(10)]
    cases += [expand_product(random_triple(n, ctx, rng), ctx) for _ in range(10)]
    for C in cases:
        zero = {p.coords for p in pts if evaluate_poly(C, p.coords, ctx) == 0}
        for h in enumerate_hyperplanes(n, ctx):
            on_h = {p.coords for p in pts if ctx.dot(h.covector, p.coords) == 0}
            assert divides_linear(h.covector, C, ctx) == (on_h <= zero)


def test_linear_factor_complete_at_q2():
    # exhaustive cross-check against trial division by every hyperplane
    ctx = make_field(2)
    n = 4
    hyps = list(enumerate_hyperplanes(n, ctx))
    rng = np.random.default_rng(6)
    cases = [random_hypersurface(n, 3, ctx, rng) for _ in range(30)]
    cases += [expand_product(random_triple(n, ctx, rng), ctx) for _ in range(10)]
    for C in cases:
        brute = [h for h in hyps if divides_linear(h.covector, C, ctx)]
        got = linear_factor(C, ctx)
        if brute:
            assert got == brute[0]
        else:
            assert got is None


def test_linear_factor_finds_every_hyperplane():
    # L * G for every hyperplane L of P^3(F_4) and a random quadric G, so
    # the factor takes many different places among the candidates
    ctx = make_field(2)
    hyps = list(enumerate_hyperplanes(3, ctx))
    rng = np.random.default_rng(8)
    for L in hyps:
        lin = dict(expand_product([L], ctx).monomials)
        G = dict(random_hypersurface(3, 2, ctx, rng).monomials)
        C = make_hypersurface(_pmul(lin, G, ctx), 3, 3, ctx)
        brute = next(h for h in hyps if divides_linear(h.covector, C, ctx))
        assert linear_factor(C, ctx) == brute, L


def _canonical_line(pivot, n, ctx, rng):
    """Linear form with its leading 1 at x_pivot and random later
    coefficients, as a monomial dict."""
    cov = [0] * pivot + [1] + [int(c) for c in rng.integers(0, ctx.order, n - pivot)]
    return {tuple(int(i == j) for i in range(n + 1)): c for j, c in enumerate(cov) if c}


@pytest.mark.parametrize("n", [3, 4])
def test_linear_factor_matches_trial_division(n):
    # sparse cubics of 1-4 random monomials, and products L G and L L' L''
    # whose first monomial is x_a x_b x_c for drawn a <= b <= c (the first
    # monomial of a product is the product of the first monomials), so the
    # coordinate plane is padded when a monomial has fewer than three
    # variables, and two factors can share a leading variable:
    # linear_factor returns the first hyperplane of P^n(F_4) that divides
    # C, and the screen's plane runs over every coordinate plane
    ctx = make_field(2)
    hyps = list(enumerate_hyperplanes(n, ctx))
    exps = monomial_exponents(n, 3)
    planes = list(itertools.combinations(range(n + 1), 3))
    leads = list(itertools.combinations_with_replacement(range(n + 1), 3))
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["sparse", "L*G", "L*L'*L''"]), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if kind == "sparse":
            picks = rng.choice(len(exps), size=data.draw(st.integers(1, 4)), replace=False)
            C = {exps[i]: int(rng.integers(1, ctx.order)) for i in picks}
        else:
            a, b, c = data.draw(st.sampled_from(leads), label="lead")
            C = _canonical_line(a, n, ctx, rng)
            if kind == "L*G":
                top = tuple((i == b) + (i == c) for i in range(n + 1))
                G = {e: int(rng.integers(0, ctx.order)) for e in monomial_exponents(n, 2) if e < top}
                G[top] = 1
                C = _pmul(C, G, ctx)
            else:
                for pivot in (b, c):
                    C = _pmul(C, _canonical_line(pivot, n, ctx, rng), ctx)
        C = make_hypersurface(C, n, 3, ctx)
        support = [i for i, e in enumerate(C.monomials[0][0]) if e]
        pad = [i for i in range(n + 1) if i not in support][: 3 - len(support)]
        seen.add(tuple(sorted(support + pad)))
        want = next((h for h in hyps if divides_linear(h.covector, C, ctx)), None)
        assert linear_factor(C, ctx) == want

    check()
    assert seen == set(planes)


def test_linear_factor_lifts_one_coordinate_at_a_time(monkeypatch):
    # x0 x1 x2 + x3^3 + 2 x4^3 + 3 x2 x3 x4 at (4,7) has no linear factor,
    # but its plane restriction x0 x1 x2 has three line factors, none of
    # which lifts; the lifts try q^2 values per line factor and free
    # coordinate and keep at most 3, so at most 3 (n - 2) q^2 + 3^(n - 1) =
    # 321 divides_linear calls
    ctx = make_field(7)
    C = make_hypersurface(
        {(1, 1, 1, 0, 0): 1, (0, 0, 0, 3, 0): 1, (0, 0, 0, 0, 3): 2, (0, 0, 1, 1, 1): 3}, 4, 3, ctx
    )
    calls = []

    def counted(*args):
        calls.append(args)
        return divides_linear(*args)

    monkeypatch.setattr(cubics_mod, "divides_linear", counted)
    assert linear_factor(C, ctx) is None
    assert len(calls) <= 3 * (4 - 2) * 49 + 3 ** 3 == 321


def test_linear_factor_refuses_forms_without_a_plane(monkeypatch):
    # a form whose every monomial has four or more variables, possible only
    # from degree 4 on, has no coordinate plane to restrict to: OutOfRange
    # before any work, as for n < 3
    ctx = make_field(2)

    def no_work(*args):
        raise AssertionError("linear_factor worked on a form it refuses")

    monkeypatch.setattr(cubics_mod, "_line_factors", no_work)
    monkeypatch.setattr(cubics_mod, "make_hypersurface", no_work)
    quartic = Hypersurface((((1, 1, 1, 1), 1),), 3, 4)
    with pytest.raises(OutOfRange, match="at most three variables"):
        linear_factor(quartic, ctx)
    plane = Hypersurface((((3, 0, 0), 1),), 2, 3)
    with pytest.raises(OutOfRange, match="n >= 3"):
        linear_factor(plane, ctx)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_line_counts_match_all_lines_count(q):
    # the per-prefix count against the count over every line of P^2, on
    # random sets of points, sets with several points on x_2 = 0, the
    # whole line x_2 = 0 and no point; on all of P^2 every line holds
    # q^2 + 1 points
    ctx = make_field(q)
    pts = point_array(2, ctx)
    on_x2 = np.flatnonzero(pts[:, 2] == 0)
    rng = np.random.default_rng(40 + q)
    sets = [rng.choice(len(pts), size=k, replace=False) for k in (1, 5, ctx.order + 1, 3 * ctx.order)]
    sets += [np.union1d(s, rng.choice(on_x2, size=min(4, len(on_x2)), replace=False)) for s in sets]
    sets += [on_x2, np.arange(0)]
    for rows in sets:
        zeros = pts[np.sort(rows)]
        got = _line_counts(zeros, ctx)
        assert got.dtype == np.int64 and np.array_equal(got, line_counts_all(zeros, ctx)), len(rows)
    assert np.array_equal(_line_counts(pts, ctx), np.full(len(pts), ctx.order + 1))


def ternary_cubic_cases(ctx, rng):
    """Ternary cubics by family: random, L * conic, three concurrent lines,
    three non-concurrent lines and L^3, each with the lines it must have."""
    lines = list(enumerate_hyperplanes(2, ctx))
    pts = list(enumerate_points(2, ctx))

    def pick(k):
        return [lines[int(i)] for i in rng.choice(len(lines), size=k, replace=False)]

    cases = []
    for _ in range(4):
        cases.append(("random", random_hypersurface(2, 3, ctx, rng), []))
        (L,) = pick(1)
        conic = dict(random_hypersurface(2, 2, ctx, rng).monomials)
        lin = dict(expand_product([L], ctx).monomials)
        L_conic = make_hypersurface(_pmul(lin, conic, ctx), 2, 3, ctx)
        cases.append(("L*conic", L_conic, [L]))
        P = pts[int(rng.integers(len(pts)))]
        through = list(hyperplanes_through(P, ctx))
        idx = rng.choice(len(through), size=3, replace=False)
        conc = [through[int(i)] for i in idx]
        cases.append(("concurrent", expand_product(conc, ctx), conc))
        while True:
            tri = pick(3)
            if intersect_hyperplanes(tri, ctx).dim == -1:
                break
        cases.append(("non-concurrent", expand_product(tri, ctx), tri))
        cases.append(("L^3", expand_product([L, L, L], ctx), [L]))
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_factors_match_scalar_scan(q):
    # the one-pass vanishing test, confirmed by divides_linear, finds exactly
    # the lines the scalar scan over every line of P^2 finds, in its order
    ctx = make_field(q)
    rng = np.random.default_rng(30 + q)
    for family, R, known in ternary_cubic_cases(ctx, rng):
        scalar = [
            L.coords
            for L in enumerate_points(2, ctx)
            if divides_linear(L.coords, R, ctx)
        ]
        assert _line_factors(R, ctx) == scalar, family
        assert {h.covector for h in known} <= set(scalar), family


def test_linear_factor_q3():
    ctx = make_field(3)
    rng = np.random.default_rng(7)
    hyps = random_triple(4, ctx, rng)
    C = expand_product(hyps, ctx)
    got = linear_factor(C, ctx)
    assert got in hyps
    irr = random_hypersurface(4, 3, ctx, rng)
    # a uniformly random cubic over F_9 essentially never has a linear factor
    assert linear_factor(irr, ctx) is None


# -- affine section bound --------------------------------------------------------


@pytest.mark.parametrize("d,q", [(3, 3), (2, 3)])
def test_affine_section_bound_instances(d, q):
    ctx = make_field(q)
    f = standard_form(4, ctx)
    rng = np.random.default_rng(10 * d + q)
    for _ in range(10):
        C, sigma, pi = make_affine_bound_instance(4, d, ctx, rng)
        assert check_affine_section_bound(C, f, sigma, pi)


def _general_affine_instance(n, d, ctx, rng):
    """(C, sigma, pi) with pi = V(L1, L2) for random independent covectors,
    sigma a random member of the pencil through pi and C = L1 G + L2 H for
    random forms G, H of degree d-1, resampled until sigma is not inside C."""
    while True:
        rows = [tuple(int(x) for x in r) for r in rng.integers(0, ctx.order, (2, n + 1))]
        L, _ = rref(rows, ctx)
        if len(L) < 2:
            continue
        pi = LinearSubspace(nullspace(L, ctx), n)
        members = pencil_through(pi, ctx)
        sigma = members[int(rng.integers(len(members)))]
        poly = {}
        for cov in L:
            G = random_hypersurface(n, d - 1, ctx, rng)
            lin = {tuple(int(i == j) for i in range(n + 1)): c for j, c in enumerate(cov) if c}
            for e, c in _pmul(lin, dict(G.monomials), ctx).items():
                poly[e] = ctx.add(poly.get(e, 0), c)
        poly = {e: c for e, c in poly.items() if c}
        if not poly:
            continue
        C = make_hypersurface(poly, n, d, ctx)
        pts = subspace_point_array(intersect_hyperplanes([sigma], ctx), ctx)
        if eval_poly_at(C, pts, ctx).any():
            return C, sigma, pi


@pytest.mark.parametrize("n,d,q", [(4, 3, 3), (4, 2, 3), (3, 3, 4)])
def test_affine_section_count_matches_scalar_loop(n, d, q):
    # the count against a scalar loop over sigma's points, with pi tested by
    # both of its dual covectors, on the bound's own instances (sigma = V(x_0)
    # is then pi's first dual) and on instances in general position
    ctx = make_field(q)
    f = standard_form(n, ctx)
    rng = np.random.default_rng(100 * n + 10 * d + q)
    points = list(enumerate_points(n, ctx))
    counts = []
    for make in [make_affine_bound_instance] * 4 + [_general_affine_instance] * 4:
        C, sigma, pi = make(n, d, ctx, rng)
        duals = nullspace([list(r) for r in pi.basis], ctx)
        want = sum(
            1
            for P in points
            if ctx.dot(sigma.covector, P.coords) == 0
            and any(ctx.dot(dv, P.coords) != 0 for dv in duals)
            and evaluate_poly(C, P.coords, ctx) == 0
            and contains(f, P)
        )
        got = affine_section_count(C, f, sigma, pi)
        assert got == want
        bound = (d - 1) * (q + 1) * q ** (2 * n - 6)
        assert check_affine_section_bound(C, f, sigma, pi) == (want <= bound)
        counts.append(got)
    assert all(counts)  # an empty count would hide a pi that swallows sigma


def test_affine_section_bound_preconditions():
    ctx = make_field(3)
    f = standard_form(4, ctx)
    rng = np.random.default_rng(11)
    C, sigma, pi = make_affine_bound_instance(4, 3, ctx, rng)
    # C containing sigma entirely: multiply x_0 into everything
    e0 = tuple(int(i == 0) for i in range(5))
    G = random_hypersurface(4, 2, ctx, rng)
    full = make_hypersurface(_pmul({e0: 1}, dict(G.monomials), ctx), 4, 3, ctx)
    with pytest.raises(PreconditionViolated):
        check_affine_section_bound(full, f, sigma, pi)
    # degree above q
    ctx2 = make_field(2)
    f2 = standard_form(4, ctx2)
    C2, s2, p2 = make_affine_bound_instance(4, 3, ctx2, rng)
    with pytest.raises(PreconditionViolated):
        check_affine_section_bound(C2, f2, s2, p2)


def _affine_refusal_case(kind):
    """(C, f, sigma, pi) that breaks one precondition of
    affine_section_count and keeps the others: sigma = V(x_0) and
    pi = V(x_0, x_1) in P^4 at q = 3 unless the case changes them."""
    ctx = make_field(2 if kind == "d_above_q" else 3)
    n = 2 if kind == "n_below_3" else 4
    f = standard_form(n, ctx)
    rng = np.random.default_rng(11)
    if kind == "n_below_3":
        C = random_hypersurface(n, 3, ctx, rng)
        return C, f, Hyperplane((1, 0, 0)), LinearSubspace(((0, 0, 1),), n)
    C, sigma, pi = make_affine_bound_instance(n, 3, ctx, rng)
    unit = [tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1)]
    x0_G = _pmul({unit[0]: 1}, dict(random_hypersurface(n, 2, ctx, rng).monomials), ctx)
    if kind == "pi_codim_3":
        pi = LinearSubspace(tuple(unit[3:]), n)
    elif kind == "pi_off_sigma":
        pi = LinearSubspace((unit[0],) + tuple(unit[3:]), n)
    elif kind == "pi_off_C":
        # x_2^3 + x_0 G, which is x_2^3 on sigma and on pi
        C = make_hypersurface({**x0_G, tuple(3 * e for e in unit[2]): 1}, n, 3, ctx)
    elif kind == "sigma_in_C":
        C = make_hypersurface(x0_G, n, 3, ctx)
    return C, f, sigma, pi


AFFINE_REFUSALS = {
    "pi_codim_3": "pi must have codimension 2",
    "pi_off_sigma": "pi must lie inside sigma",
    "pi_off_C": "pi must lie inside the hypersurface",
    "sigma_in_C": "sigma must not lie inside the hypersurface",
    "d_above_q": "need degree d=3 <= q=2",
    "n_below_3": "and n >= 3",
}


@pytest.mark.parametrize("kind", AFFINE_REFUSALS)
def test_affine_section_count_refusals(kind):
    # each precondition refused on its own, with its own message; the two
    # containments in C are read from C's values at sigma's points
    C, f, sigma, pi = _affine_refusal_case(kind)
    with pytest.raises(PreconditionViolated, match=AFFINE_REFUSALS[kind]):
        affine_section_count(C, f, sigma, pi)


@pytest.mark.parametrize("n,q", [(4, 3), (6, 3)])
def test_non_extremal_patterns_strictly_below_max(n, q):
    # even n, q >= 3: pencil triples containing a tangent member, and
    # codimension-3 triples, always fall strictly below the maximum
    from hermvar.cubics import max_cubic_intersection
    from hermvar.hermitian import classify_hyperplane
    from hermvar.projgeom import num_points, point_array

    ctx = make_field(q)
    f = standard_form(n, ctx)
    want = max_cubic_intersection(n, q)
    # a pencil over a non-degenerate section, via the extremal builder
    arr = build_extremal(f)
    sub = intersect_hyperplanes(arr.hyperplanes, ctx)
    pencil = pencil_through(sub, ctx)
    kinds = [classify_hyperplane(f, h).kind for h in pencil]
    tangents = [h for h, k in zip(pencil, kinds) if k == "tangent"]
    nons = [h for h, k in zip(pencil, kinds) if k == "non_tangent"]
    assert len(tangents) == q + 1
    for mix in (
        (tangents[0], nons[0], nons[1]),
        (tangents[0], tangents[1], nons[0]),
        (tangents[0], tangents[1], tangents[2]),
    ):
        rep = intersect_count_arrangement(arrangement(mix, f), f)
        assert rep.count < want, mix
    # random codimension-3 triples
    rng = np.random.default_rng(17 * n + q)
    N = num_points(n, q)
    pts = point_array(n, ctx)
    checked = 0
    while checked < 100:
        idx = sorted(int(x) for x in rng.choice(N, size=3, replace=False))
        triple = tuple(Hyperplane(tuple(pts[r].tolist())) for r in idx)
        common = intersect_hyperplanes(triple, ctx)
        if common.dim != n - 3:
            continue
        rep = intersect_count_arrangement(arrangement(triple, f), f)
        assert rep.count < want, idx
        checked += 1


@pytest.mark.parametrize("n,q,points", [(4, 2, 165), (3, 3, 280), (4, 3, 2440)])
def test_fermat_form_meets_every_variety_point(n, q, points):
    # the Fermat form of degree q+1 is the Hermitian form itself, so it
    # meets U_n in all |U_n| points; at q = 2 it is a cubic, and 165 exceeds
    # max_cubic_intersection(4, 2) = 117
    ctx = make_field(q)
    f = standard_form(n, ctx)
    unit = [tuple(q + 1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1)]
    fermat = make_hypersurface(dict.fromkeys(unit, 1), n, q + 1, ctx)
    assert intersect_count_enum(fermat, f) == nondegenerate_count(n, q) == points
    if q == 2:
        assert points > max_cubic_intersection_alias(n, q) == 117
