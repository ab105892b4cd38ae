import numpy as np
import pytest

from hermvar import hermitian
from hermvar.errors import BudgetExceeded, Degenerate, NotOnVariety, OutOfRange
from hermvar.field import make_field
from hermvar.hermitian import (
    HermitianForm,
    classify_hyperplane,
    classify_hyperplanes,
    classify_section,
    congruence_reduce,
    contains,
    count_points_enum,
    count_points_formula,
    eval_form_at,
    evaluate,
    form_scan,
    gram,
    nondegenerate_count,
    padded_standard_form,
    rank,
    restrict,
    section_count,
    standard_form,
    tangent_hyperplane,
    tangent_hyperplanes,
    tangents_through_count,
    variety_mask,
)
from hermvar.projgeom import (
    Hyperplane,
    ProjPoint,
    enumerate_hyperplanes,
    enumerate_points,
    intersect_hyperplanes,
    normalize,
    num_points,
    point_array,
    point_rank_array,
    random_subspace,
    subspace_from_rows,
    subspace_points,
)
from oracles import congruent_form


def enum_count_bruteforce(f):
    """Pure-python scan, independent of the vectorized path."""
    return sum(1 for P in enumerate_points(f.n, f.ctx) if contains(f, P))


def random_hermitian(n, ctx, rng):
    """M + M^(q)T is always Hermitian (or zero)."""
    while True:
        M = rng.integers(0, ctx.order, size=(n + 1, n + 1))
        H = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                H[i][j] = ctx.add(int(M[i][j]), ctx.frobenius(int(M[j][i])))
        if any(any(r) for r in H):
            return HermitianForm(tuple(tuple(r) for r in H), n, ctx)


def test_standard_form_point_counts():
    ctx = make_field(2)
    assert enum_count_bruteforce(standard_form(1, ctx)) == 3
    assert enum_count_bruteforce(standard_form(2, ctx)) == 9  # q^3 + 1
    assert count_points_enum(standard_form(3, ctx)) == 45
    assert count_points_enum(standard_form(4, ctx)) == 165
    assert enum_count_bruteforce(standard_form(0, ctx)) == 0


def test_evaluate_examples():
    ctx = make_field(2)
    f = standard_form(3, ctx)
    omega = 2
    P = ProjPoint((1, omega, 0, 0))
    assert evaluate(f, P) == 0 and contains(f, P)  # 1 + omega^3 = 1 + 1
    assert evaluate(f, ProjPoint((1, 0, 0, 0))) == 1
    # radical vectors of a degenerate form are isotropic
    g = padded_standard_form(2, 3, ctx)
    assert evaluate(g, ProjPoint((0, 0, 1, 0))) == 0
    assert evaluate(g, ProjPoint((0, 0, 0, 1))) == 0


def test_evaluate_scales_by_norm():
    ctx = make_field(3)
    f = random_hermitian(2, ctx, np.random.default_rng(1))
    for P in list(enumerate_points(2, ctx))[:40]:
        v = evaluate(f, P)
        for lam in range(2, ctx.order):
            scaled = tuple(ctx.mul(lam, x) for x in P.coords)
            got = gram(f, scaled, scaled)
            assert got == ctx.mul(ctx.norm(lam), v)


def test_eval_form_at_matches_scalar():
    ctx = make_field(3)
    rng = np.random.default_rng(2)
    f = random_hermitian(3, ctx, rng)
    pts = list(enumerate_points(3, ctx))[:500]
    arr = np.array([p.coords for p in pts], dtype=np.uint8)
    vals = eval_form_at(f, arr)
    for p, v in zip(pts, vals):
        assert evaluate(f, p) == int(v)


@pytest.mark.parametrize("q", [2, 3])
def test_congruence_reduce_known_rank(q):
    ctx = make_field(q)
    n = 3
    rng = np.random.default_rng(q)
    ident = standard_form(n, ctx)
    P, r = congruence_reduce(ident)
    assert r == n + 1
    assert P == tuple(tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1))
    for target in range(1, n + 2):
        f = padded_standard_form(target, n, ctx)
        assert rank(f) == target
        _, r = congruence_reduce(f)
        assert r == target
    # random congruence transforms preserve the constructed rank
    from hermvar.projgeom import matrix_rank

    for target in range(1, n + 2):
        while True:
            A = [
                [int(x) for x in rng.integers(0, ctx.order, n + 1)]
                for _ in range(n + 1)
            ]
            if matrix_rank(A, ctx) == n + 1:
                break
        D = padded_standard_form(target, n, ctx).matrix
        # H = A D A^(q)T
        H = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                s = 0
                for k in range(n + 1):
                    if D[k][k]:
                        s = ctx.add(
                            s, ctx.mul(A[i][k], ctx.frobenius(A[j][k]))
                        )
                H[i][j] = s
        f = HermitianForm(tuple(tuple(r_) for r_ in H), n, ctx)
        assert rank(f) == target
        _, r = congruence_reduce(f)
        assert r == target


def test_congruence_reduce_random_forms():
    ctx = make_field(3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = random_hermitian(3, ctx, rng)
        _, r = congruence_reduce(f)
        assert r == rank(f)


def test_nondegenerate_count_values():
    assert nondegenerate_count(1, 2) == 3
    assert nondegenerate_count(2, 2) == 9
    assert nondegenerate_count(3, 2) == 45
    assert nondegenerate_count(4, 2) == 165
    assert nondegenerate_count(3, 3) == 280
    assert nondegenerate_count(4, 7) == 840_400


@pytest.mark.parametrize("q", [2, 3])
def test_enum_equals_formula_all_ranks(q):
    ctx = make_field(q)
    for n in range(1, 5):
        for r in range(1, n + 2):
            f = padded_standard_form(r, n, ctx)
            assert count_points_enum(f) == count_points_formula(n, q, r)


def test_count_points_formula_range():
    with pytest.raises(OutOfRange):
        count_points_formula(4, 2, 0)
    with pytest.raises(OutOfRange):
        count_points_formula(4, 2, 6)
    assert count_points_formula(4, 2, 5) == 165
    # codimension-2 section shapes in ambient P^2: cone over a curve point
    assert count_points_formula(2, 2, 2) == 13  # point vertex over U_1
    assert count_points_formula(2, 2, 1) == 5  # line vertex over U_0 (empty)


def test_count_points_enum_budget_and_workers():
    ctx = make_field(2)
    f = standard_form(3, ctx)
    with pytest.raises(BudgetExceeded):
        count_points_enum(f, budget=84)  # |P^3(F_4)| = 85
    assert count_points_enum(f, workers=2) == 45


def mask_test_forms(n, ctx, rng):
    """The standard form, a padded degenerate one with e_n on the variety,
    random non-diagonal forms (one of them with H[n][n] = 0), a degenerate
    non-diagonal one, and a form whose top-left n x n block is zero (at
    n = 1 the hyperbolic pair, when its entry H[n][n] is 0)."""
    forms = [standard_form(n, ctx), padded_standard_form(n, n, ctx)]
    forms += [random_hermitian(n, ctx, rng) for _ in range(2)]
    H = [list(r) for r in random_hermitian(n, ctx, rng).matrix]
    H[n][n] = 0
    forms.append(HermitianForm(tuple(map(tuple, H)), n, ctx))
    while True:  # M^T M^(q) for a random 1 x (n+1) row M: rank 1
        M = [int(x) for x in rng.integers(0, ctx.order, n + 1)]
        H = tuple(
            tuple(ctx.mul(a, ctx.frobenius(b)) for b in M) for a in M
        )
        if any(any(r) for r in H):
            forms.append(HermitianForm(H, n, ctx))
            break
    for h in (0, 1):
        H = [[0] * (n + 1) for _ in range(n + 1)]
        for j in range(n):
            H[n][j] = int(rng.integers(1, ctx.order))
            H[j][n] = ctx.frobenius(H[n][j])
        H[n][n] = h
        forms.append(HermitianForm(tuple(map(tuple, H)), n, ctx))
    return forms


def test_variety_mask():
    # every point of P^n, for n in 1..4 and q in 2..5 wherever N <= |P^4(F_9)|,
    # against the form's value at point_array(n), and against the scalar
    # contains wherever N <= 100
    ctx = make_field(2)
    assert int(variety_mask(standard_form(4, ctx)).sum()) == 165
    grid = [
        (n, q)
        for n in (1, 2, 3, 4)
        for q in (2, 3, 4, 5)
        if num_points(n, q) <= num_points(4, 3)
    ]
    assert len(grid) == 13
    for n, q in grid:
        ctx = make_field(q)
        N = num_points(n, q)
        pts = point_array(n, ctx)
        for f in mask_test_forms(n, ctx, np.random.default_rng(10 * n + q)):
            mask = variety_mask(f)
            assert mask.shape == (N,) and mask.dtype == bool
            assert np.array_equal(mask, eval_form_at(f, pts) == 0), (n, q, f.matrix)
            assert bool(mask[-1]) == (f.matrix[n][n] == 0)
            assert count_points_enum(f) == int(mask.sum())
            if N <= 100:
                want = [contains(f, P) for P in enumerate_points(n, ctx)]
                assert mask.tolist() == want, (n, q, f.matrix)


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_form_scan_table_is_the_form(n, q):
    # the keyed oracles rest on this decomposition: at every point (p, lam)
    # of P^n but e_n the form's value is T[key(p), lam], for forms with
    # b = 0 and b != 0 and H[n][n] zero or not
    ctx = make_field(q)
    Q = ctx.order
    pts = point_array(n, ctx)
    for f in mask_test_forms(n, ctx, np.random.default_rng(7 * n + q)):
        T, chunks = form_scan(f)
        assert T.shape == (Q * Q, Q)
        pre, key = [], []
        for cols, k in chunks:
            assert len(cols) == n and k.dtype == np.uint16
            assert np.broadcast_shapes(*(c.shape for c in cols)) == k.shape
            pre.append(np.stack([c.ravel() for c in np.broadcast_arrays(*cols)], axis=1))
            key.append(k.ravel())
        pre, key = np.concatenate(pre), np.concatenate(key)
        assert np.array_equal(pts[:-1, :n], np.repeat(pre, Q, axis=0))
        lam = pts[:-1, n].reshape(-1, Q)
        assert np.array_equal(lam, np.broadcast_to(np.arange(Q), lam.shape))
        assert np.array_equal(T[key].ravel(), eval_form_at(f, pts[:-1])), f.matrix
        want = [evaluate(f, P) for P in enumerate_points(n, ctx)][:-1]
        assert T[key].ravel().tolist() == want, f.matrix


@pytest.mark.parametrize(
    "n,q,chunks",
    [
        (5, 2, (1, 4, 4 * 5, 4 * 17, 4 * 64, 1 << 20)),
        (5, 3, (1, 9 * 10, 9 * 100, 9 * 800, 1 << 20)),
        (3, 4, (1, 16 * 16, 16 * 40, 1 << 20)),
        (4, 7, (49 * 49, 1 << 20)),
    ],
)
def test_form_scan_grids_are_the_prefix_rows(n, q, chunks, monkeypatch):
    # each chunk's broadcast columns, stacked, are the chunk's slice of
    # point_array(n - 1), chunk after chunk, and no chunk holds more than
    # ceil(_CHUNK / Q) prefixes; the small _CHUNKs fix one or more leading
    # coordinates of the first pivot blocks
    ctx = make_field(q)
    prefixes = point_array(n - 1, ctx)
    f = standard_form(n, ctx)
    for chunk in chunks:
        monkeypatch.setattr(hermitian, "_CHUNK", chunk)
        cap = -(-chunk // ctx.order)
        a, fixed = 0, 0
        for cols, key in form_scan(f)[1]:
            assert len(cols) == n and all(c.dtype == np.uint8 for c in cols)
            assert np.broadcast_shapes(*(c.shape for c in cols)) == key.shape
            assert 0 < key.size <= cap, (chunk, key.shape)
            rows = np.stack([c.ravel() for c in np.broadcast_arrays(*cols)], axis=1)
            assert np.array_equal(rows, prefixes[a : a + key.size]), (chunk, a)
            # the pivot k and the leading digits: the columns on the runs axis
            k = next(j for j, c in enumerate(cols) if c.size == 1 and c.item() == 1)
            fixed = max(fixed, sum(c.ndim == key.ndim for c in cols[k + 1 :]))
            a += key.size
        assert a == len(prefixes)
        # the first block is Q^(n-1) prefixes: a grid of Q^s of them fixes
        # n - 1 - s leading coordinates
        Q = ctx.order
        assert fixed >= (cap < Q ** (n - 1)) + (cap < Q ** (n - 2)), chunk


@pytest.mark.parametrize(
    "n,q",
    [
        (n, q)
        for n in (2, 3, 4)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)
        if num_points(n, q) <= num_points(4, 7)
    ],
)
def test_variety_prefixes_expand_to_variety(n, q, monkeypatch):
    # the random-cubic path's prefixes of U_n, each with the norm r it needs
    # of x_n, expanded by their fibres in rank order, list U_n row for row in
    # the canonical order of the P^n scan; each prefix comes once, also when
    # a tiny budget splits every block's grid by its last coordinates
    from hermvar import search
    from hermvar.cubics import make_hypersurface

    ctx = make_field(q)
    M = num_points(n - 1, q)
    want = point_array(n, ctx)[variety_mask(standard_form(n, ctx))]
    coef, _ = search._cubic_coefficients(
        [make_hypersurface({(0,) * n + (3,): 1}, n, 3, ctx)], n, ctx
    )
    for budget in (search._EVAL_CHUNK_BYTES, 1 << 12):
        monkeypatch.setattr(search, "_EVAL_CHUNK_BYTES", budget)
        stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
        ranks, norms = [], []
        for _, rk, r, _ in search._scaled_parts(coef, n, ctx, stages):
            ranks.append(rk.ravel())
            norms.append(np.repeat(r, rk.shape[1]))
        ranks, norms = np.concatenate(ranks), np.concatenate(norms)
        order = np.argsort(ranks)
        assert np.array_equal(ranks[order], np.arange(M))
        fibres = [ctx.norm_fibres[int(x)] for x in norms[order]]
        pre = np.repeat(point_array(n - 1, ctx), [len(lam) for lam in fibres], axis=0)
        assert np.array_equal(np.column_stack((pre, np.concatenate(fibres))), want)
        assert stages["prefixes"] == M and stages["points"] == len(want)


def test_tangent_hyperplane_example():
    ctx = make_field(2)
    f = standard_form(2, ctx)
    omega = 2
    P = ProjPoint((1, omega, 0))
    h = tangent_hyperplane(f, P)
    assert h.covector == (1, ctx.frobenius(omega), 0)
    assert ctx.dot(h.covector, P.coords) == 0
    with pytest.raises(NotOnVariety):
        tangent_hyperplane(f, ProjPoint((1, 0, 0)))


def test_standard_forms_refuse_negative_n():
    ctx = make_field(2)
    with pytest.raises(OutOfRange):
        standard_form(-1, ctx)
    with pytest.raises(OutOfRange):
        padded_standard_form(1, -1, ctx)


def test_classify_hyperplane_basics():
    ctx = make_field(2)
    f = standard_form(4, ctx)
    rep = classify_hyperplane(f, Hyperplane((1, 0, 0, 0, 0)))
    assert rep.kind == "non_tangent"
    assert rep.witness == ProjPoint((1, 0, 0, 0, 0))
    # round trip: the tangent hyperplane at P classifies as tangent at P
    P = next(p for p in enumerate_points(4, ctx) if contains(f, p))
    h = tangent_hyperplane(f, P)
    rep = classify_hyperplane(f, h)
    assert rep.kind == "tangent" and rep.witness == P
    with pytest.raises(Degenerate):
        classify_hyperplane(padded_standard_form(3, 4, ctx), Hyperplane((1, 0, 0, 0, 0)))


def test_classify_all_hyperplanes_n4_q2():
    # exactly one tangent hyperplane per variety point: 165 tangent, 176 not
    ctx = make_field(2)
    f = standard_form(4, ctx)
    kinds = [classify_hyperplane(f, h).kind for h in enumerate_hyperplanes(4, ctx)]
    assert kinds.count("tangent") == 165
    assert kinds.count("non_tangent") == 176


@pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (3, 3)])
def test_batch_tangency_general_form_matches_enumeration(n, q):
    ctx = make_field(q)
    f = congruent_form(n, ctx, seed=10 * n + q)
    assert rank(f) == n + 1
    hyps = list(enumerate_points(n, ctx))
    on = [P.coords for P in hyps if contains(f, P)]
    assert len(on) == nondegenerate_count(n, q)
    tangent, witness = classify_hyperplanes(f, point_array(n, ctx))
    # enumerated rule: tangent iff the section has 1 + q^2 |U_{n-2}| points
    section = np.array([sum(ctx.dot(H.coords, p) == 0 for p in on) for H in hyps])
    tangent_count = 1 + q * q * nondegenerate_count(n - 2, q)
    assert np.array_equal(tangent, section == tangent_count)
    assert set(section.tolist()) == {tangent_count, nondegenerate_count(n - 1, q)}
    # the tangent hyperplanes at the variety points are the tangent rows, once each
    covs = tangent_hyperplanes(f, np.array(on, dtype=np.uint8))
    ranks = point_rank_array(covs, ctx)
    assert len(set(ranks.tolist())) == len(on)
    assert set(ranks.tolist()) == set(np.nonzero(tangent)[0].tolist())
    # the scalar call is the batch's row
    for i in range(0, len(hyps), max(1, len(hyps) // 40)):
        rep = classify_hyperplane(f, Hyperplane(hyps[i].coords))
        assert (rep.kind == "tangent") == bool(tangent[i])
        assert rep.witness.coords == tuple(int(x) for x in witness[i])
        assert contains(f, rep.witness) == bool(tangent[i])


@pytest.mark.parametrize("n,q", [(4, 2), (3, 3)])
def test_batch_tangent_covectors_match_scalar(n, q):
    ctx = make_field(q)
    f = standard_form(n, ctx)
    upts = point_array(n, ctx)[variety_mask(f)]
    covs = tangent_hyperplanes(f, upts)
    basis = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    for row, cov in zip(upts, covs):
        P = ProjPoint(tuple(int(x) for x in row))
        # coordinate i of H p^(q) is e_i^T H p^(q)
        want = normalize([gram(f, e, P.coords) for e in basis], ctx)
        assert tuple(int(x) for x in cov) == want == tangent_hyperplane(f, P).covector
    with pytest.raises(NotOnVariety):
        tangent_hyperplanes(f, np.vstack([upts[:2], np.eye(1, n + 1, dtype=np.uint8)]))


def test_restrict():
    ctx = make_field(2)
    f = standard_form(4, ctx)
    whole = subspace_from_rows(
        [tuple(1 if i == j else 0 for j in range(5)) for i in range(5)], ctx
    )
    assert restrict(f, whole).matrix == f.matrix
    sub = intersect_hyperplanes(
        [Hyperplane((1, 0, 0, 0, 0)), Hyperplane((0, 1, 0, 0, 0))], ctx
    )
    r = restrict(f, sub)
    assert r.matrix == standard_form(2, ctx).matrix


def test_restrict_generator_line_is_zero():
    # a line inside the variety restricts to the zero matrix
    ctx = make_field(2)
    f = standard_form(3, ctx)
    on = [p for p in enumerate_points(3, ctx) if contains(f, p)]
    found = None
    for i in range(len(on)):
        for j in range(i + 1, len(on)):
            if gram(f, on[i].coords, on[j].coords) == 0:
                line = subspace_from_rows([on[i].coords, on[j].coords], ctx)
                if line.dim == 1 and all(
                    contains(f, p) for p in subspace_points(line, ctx)
                ):
                    found = line
                    break
        if found:
            break
    assert found is not None, "non-degenerate surface must contain lines"
    assert restrict(f, found) is None
    st = classify_section(f, found)
    assert st.s == -1 and st.v == 1
    assert section_count(st, 2) == num_points(1, 2)


def test_classify_section_examples():
    ctx = make_field(2)
    f = standard_form(4, ctx)
    sub = intersect_hyperplanes(
        [Hyperplane((1, 0, 0, 0, 0)), Hyperplane((0, 1, 0, 0, 0))], ctx
    )
    st = classify_section(f, sub)
    assert (st.v, st.s) == (-1, 2)
    assert section_count(st, 2) == 9
    assert sum(1 for p in subspace_points(sub, ctx) if contains(f, p)) == 9
    # tangent hyperplane sections are cones with a point vertex: (0, n-2)
    P = next(p for p in enumerate_points(4, ctx) if contains(f, p))
    h = tangent_hyperplane(f, P)
    st = classify_section(f, intersect_hyperplanes([h], ctx))
    assert (st.v, st.s) == (0, 2)


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2)])
def test_classify_section_random_oracle(n, q):
    # formula count equals enumerated count on random codim-2 subspaces
    ctx = make_field(q)
    f = standard_form(n, ctx)
    rng = np.random.default_rng(n * 10 + q)
    for _ in range(20):
        sub = random_subspace(n, n - 2, ctx, rng)
        st = classify_section(f, sub)
        assert st.v in (-1, 0, 1)
        want = section_count(st, q)
        got = sum(1 for p in subspace_points(sub, ctx) if contains(f, p))
        assert got == want


def test_section_bound_every_hyperplane():
    # n even: section <= |U_{n-1}|; n odd: section <= q^2 |U_{n-2}| + 1
    ctx = make_field(2)
    for n in (3, 4):
        f = standard_form(n, ctx)
        bound = (
            nondegenerate_count(n - 1, 2)
            if n % 2 == 0
            else 4 * nondegenerate_count(n - 2, 2) + 1
        )
        for h in enumerate_hyperplanes(n, ctx):
            st = classify_section(f, intersect_hyperplanes([h], ctx))
            assert section_count(st, 2) <= bound


def test_tangents_through_count():
    ctx = make_field(2)
    f3 = standard_form(3, ctx)
    P = next(p for p in enumerate_points(3, ctx) if contains(f3, p))
    assert tangents_through_count(f3, P) == 13
    f4 = standard_form(4, ctx)
    P4 = next(p for p in enumerate_points(4, ctx) if contains(f4, p))
    assert tangents_through_count(f4, P4) == 37
    ctx3 = make_field(3)
    f43 = standard_form(4, ctx3)
    P43 = next(p for p in enumerate_points(4, ctx3) if contains(f43, p))
    assert tangents_through_count(f43, P43) == 253
    # companion enumeration: tangent hyperplanes at variety points through P
    got = sum(
        1
        for Q in enumerate_points(3, ctx)
        if contains(f3, Q)
        and ctx.dot(tangent_hyperplane(f3, Q).covector, P.coords) == 0
    )
    assert got == 13
    with pytest.raises(NotOnVariety):
        tangents_through_count(f3, ProjPoint((1, 0, 0, 0)))


def test_hermitian_form_validation():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        HermitianForm(((0, 0), (0, 0)), 1, ctx)
    with pytest.raises(ValueError):
        HermitianForm(((1, 2), (2, 1)), 1, ctx)  # omega not fixed by frobenius
    HermitianForm(((1, 2), (3, 1)), 1, ctx)  # omega^q = omega+1: valid
