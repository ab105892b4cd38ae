import tracemalloc

import numpy as np
import pytest

from hermvar.errors import WrongDimension
from hermvar.field import make_field
from hermvar.projgeom import (
    Hyperplane,
    LinearSubspace,
    ProjPoint,
    enumerate_hyperplanes,
    enumerate_points,
    hyperplanes_through,
    hyperplanes_through_count,
    incidence_blocks,
    intersect_hyperplanes,
    membership,
    normalize,
    nullspace,
    num_points,
    pencil_through,
    point_array,
    point_grids,
    point_rank,
    point_rank_array,
    random_subspace,
    rref,
    subspace_from_rows,
    subspace_point_array,
    subspace_points,
)


def test_num_points_small():
    assert num_points(1, 2) == 5  # (16-1)/3
    assert num_points(4, 2) == 341  # (4^5-1)/3
    assert num_points(4, 7) == 5_884_901  # (49^5-1)/48


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_enumeration_is_exhaustive_and_canonical(n, q):
    ctx = make_field(q)
    pts = list(enumerate_points(n, ctx))
    assert len(pts) == num_points(n, q)
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert normalize(p.coords, ctx) == p.coords
    # every nonzero vector normalizes to an enumerated point
    seen = set(p.coords for p in pts)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = tuple(int(x) for x in rng.integers(0, ctx.order, n + 1))
        if any(v):
            assert normalize(v, ctx) in seen


def _stream(n, ctx):
    return np.array([P.coords for P in enumerate_points(n, ctx)], dtype=np.uint8)


@pytest.mark.parametrize(
    "n,q", [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2)]
)
def test_point_array_matches_stream(n, q):
    # the whole array against the scalar stream
    ctx = make_field(q)
    arr = point_array(n, ctx)
    assert arr.dtype == np.uint8 and arr.shape == (num_points(n, q), n + 1)
    assert np.array_equal(arr, _stream(n, ctx))


@pytest.mark.parametrize("n,q", [(1, 2), (1, 4), (2, 2), (3, 2), (2, 3)])
def test_point_rows_every_range_matches_the_stream(n, q):
    # the rows as point_grids cuts them, at every grid size: no grid holds
    # more than `size` points or crosses a pivot block, and the grids' rows
    # in order tile the stream
    ctx = make_field(q)
    want = _stream(n, ctx)
    N = len(want)
    assert np.array_equal(point_array(n, ctx), want)
    for size in range(1, N + 1):
        a = 0
        for cols in point_grids(n, ctx, size):
            got = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, n + 1)
            assert got.dtype == np.uint8 and 1 <= len(got) <= size, (size, a)
            assert len(set(np.argmax(got != 0, axis=1).tolist())) == 1, (size, a)
            assert np.array_equal(got, want[a : a + len(got)]), (size, a)
            a += len(got)
        assert a == N, size


def test_point_array_build_peaks_at_the_array(monkeypatch):
    # the blocks are written into the one array, not built apart and
    # concatenated: a fresh build's traced peak is the array itself (2.00x
    # its bytes when concatenated)
    from hermvar import projgeom

    ctx = make_field(5)
    monkeypatch.setattr(projgeom, "_POINT_ARRAYS", {})
    tracemalloc.start()
    try:
        arr = point_array(4, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.shape == (num_points(4, 5), 5)
    assert peak <= 1.05 * arr.nbytes, peak / arr.nbytes


def test_point_array_at_4_7_is_canonical_and_ranked_in_order():
    # oracle independent of the grid walk, over the whole array a slice at a
    # time: row i has rank i, and its first nonzero coordinate is 1
    ctx = make_field(7)
    arr = point_array(4, ctx)
    N = num_points(4, 7)
    assert arr.shape == (N, 5)
    step = 1 << 20
    for a in range(0, N, step):
        rows = arr[a : a + step]
        assert np.array_equal(point_rank_array(rows, ctx), np.arange(a, a + len(rows))), a
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        assert (lead == 1).all(), a


def scalar_dots(m, ctx, pts):
    """[covector, point] -> ctx.dot over enumerate_hyperplanes(m) and the
    rows of pts, by scalar loops over the distinct rows only."""
    N = num_points(m, ctx.q)
    if not len(pts):
        return np.zeros((N, 0), dtype=np.uint8)
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    rows = [tuple(int(x) for x in p) for p in uniq]
    table = np.array(
        [[ctx.dot(H.covector, p) for p in rows] for H in enumerate_hyperplanes(m, ctx)],
        dtype=np.uint8,
    )
    return table[:, inv.ravel()]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_incidence_blocks_match_scalar_dot(m, q):
    # the grid walk over the covectors point_array(m) against a scalar dot,
    # on no points, one point, many repeats of a few points (enough that
    # the first pivot block is cut into several grids), and random subsets
    ctx = make_field(q)
    pa = point_array(m, ctx)
    N, Q = len(pa), ctx.order
    rng = np.random.default_rng(100 * m + q)
    few = rng.choice(N, size=min(N, 12), replace=False)
    cases = [
        pa[:0],
        pa[[int(rng.integers(N))]],
        pa[rng.choice(few, size=500_000 // (Q**m - 1) + 1)],
        pa[np.sort(rng.choice(N, size=min(N, 40), replace=False))],
        pa[rng.permutation(N)[: min(N, 40)]],
    ]
    for pts in cases:
        P = len(pts)
        blocks = list(incidence_blocks(m, pts, ctx))
        assert [a for a, _, _ in blocks] == [0] + [b for _, b, _ in blocks[:-1]]
        assert blocks[-1][1] == N
        for a, b, block in blocks:
            assert block.dtype == np.uint8 and block.shape == (b - a, P)
            assert (b - a) * P <= max(500_000, P), (a, b, P)
        got = np.concatenate([block for _, _, block in blocks])
        assert np.array_equal(got, scalar_dots(m, ctx, pts)), P
    # the repeated case cuts the first pivot block, Q^m covectors, in parts
    assert len(list(incidence_blocks(m, cases[2], ctx))) > m + 1


@pytest.mark.parametrize("n,q", [(2, 2), (3, 3), (4, 2)])
def test_point_rank_roundtrip(n, q):
    ctx = make_field(q)
    arr = point_array(n, ctx)
    for i, p in enumerate(enumerate_points(n, ctx)):
        assert point_rank(p.coords, ctx) == i
        assert tuple(arr[i].tolist()) == p.coords  # rank i is row i
    assert np.array_equal(point_rank_array(arr, ctx), np.arange(arr.shape[0]))


def test_hyperplanes_through_counts():
    # (q^{2n}-1)/(q^2-1): 85 for n=4, 21 for n=3, 1 for n=1, 0 for n=0 at q=2
    assert hyperplanes_through_count(4, 2) == 85
    assert hyperplanes_through_count(3, 2) == 21
    assert hyperplanes_through_count(1, 2) == 1
    ctx = make_field(2)
    for n in (0, 1, 2, 3):
        P = next(enumerate_points(n, ctx))
        hyps = list(hyperplanes_through(P, ctx))
        assert len(hyps) == hyperplanes_through_count(n, 2)
        assert len(set(hyps)) == len(hyps)
        for h in hyps:
            assert ctx.dot(h.covector, P.coords) == 0


def test_incidence_double_count_points_hyperplanes():
    # sum over points of #hyperplanes-through equals sum over hyperplanes
    # of #points-on, both ways
    n, q = 2, 2
    ctx = make_field(q)
    pts = list(enumerate_points(n, ctx))
    hyps = list(enumerate_hyperplanes(n, ctx))
    by_point = sum(
        1 for P in pts for h in hyps if ctx.dot(h.covector, P.coords) == 0
    )
    assert by_point == num_points(n, q) * hyperplanes_through_count(n, q)
    per_hyp = num_points(n - 1, q)
    assert by_point == len(hyps) * per_hyp


@pytest.mark.parametrize("q", [2, 3, 7])
def test_pencil_through(q):
    ctx = make_field(q)
    n = 3
    h1 = Hyperplane((1, 0, 0, 0))
    h2 = Hyperplane((0, 1, 0, 0))
    sub = intersect_hyperplanes([h1, h2], ctx)
    assert sub.dim == n - 2
    pencil = pencil_through(sub, ctx)
    assert len(pencil) == q * q + 1
    assert len(set(pencil)) == len(pencil)
    assert h1 in pencil and h2 in pencil
    # canonical order
    ranks = [point_rank(h.covector, ctx) for h in pencil]
    assert ranks == sorted(ranks)
    # members pairwise intersect exactly in the subspace
    for i in range(len(pencil)):
        for j in range(i + 1, len(pencil)):
            assert intersect_hyperplanes([pencil[i], pencil[j]], ctx) == sub


def test_pencil_wrong_dimension():
    ctx = make_field(2)
    sub = subspace_from_rows([(1, 0, 0, 0)], ctx)
    with pytest.raises(WrongDimension):
        pencil_through(sub, ctx)


def test_intersect_ranks():
    ctx = make_field(2)
    n = 4
    h = [Hyperplane(c) for c in [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]]
    assert intersect_hyperplanes(h[:2], ctx).dim == 2
    assert intersect_hyperplanes(h, ctx).dim == 1
    # dependent covectors: third in the span of the first two
    dep = Hyperplane(normalize((1, 1, 0, 0, 0), ctx))
    assert intersect_hyperplanes([h[0], h[1], dep], ctx).dim == 2


def test_membership():
    ctx = make_field(2)
    sub = subspace_from_rows([(1, 0, 0, 2, 0), (0, 1, 0, 0, 3)], ctx)
    for row in sub.basis:
        assert membership(ProjPoint(row), sub, ctx)
    assert not membership(ProjPoint((0, 0, 1, 0, 0)), sub, ctx)
    empty = LinearSubspace((), 4)
    assert not membership(ProjPoint((1, 0, 0, 0, 0)), empty, ctx)


@pytest.mark.parametrize("n,m,q", [(3, 1, 2), (4, 2, 2), (4, 2, 3)])
def test_subspace_points(n, m, q):
    ctx = make_field(q)
    rng = np.random.default_rng(7)
    sub = random_subspace(n, m, ctx, rng)
    pts = subspace_points(sub, ctx)
    assert len(pts) == num_points(m, q)
    assert len(set(pts)) == len(pts)
    for p in pts[:50]:
        assert membership(p, sub, ctx)
    arr = subspace_point_array(sub, ctx)
    assert arr.shape[0] == len(pts)
    norm_arr = {normalize(tuple(int(x) for x in row), ctx) for row in arr}
    assert norm_arr == {p.coords for p in pts}


def scalar_combinations(coeffs, rows, ctx):
    """Each coefficient point's combination of the rows, normalized, by
    scalar table lookups one entry at a time."""
    add, mul, inv = (t.tolist() for t in (ctx.add_table, ctx.mul_table, ctx.inv_table))
    out = []
    for coeff in coeffs:
        vec = [0] * len(rows[0])
        for c, row in zip(coeff.coords, rows):
            if c:
                vec = [add[x][mul[c][y]] for x, y in zip(vec, row)]
        lead = inv[next(v for v in vec if v)]
        out.append(tuple(mul[lead][v] for v in vec))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_combinations_match_scalar_loops(n, q):
    # hyperplanes_through, subspace_points and pencil_through, element for
    # element and in order, against scalar loops over the coefficient points
    ctx = make_field(q)
    rng = np.random.default_rng(10 * n + q)
    P = ProjPoint(tuple(point_array(n, ctx)[rng.integers(num_points(n, q))].tolist()))
    basis = nullspace([P.coords], ctx)
    want = scalar_combinations(enumerate_points(n - 1, ctx), basis, ctx)
    assert [h.covector for h in hyperplanes_through(P, ctx)] == want
    assert subspace_points(LinearSubspace((), n), ctx) == []
    for m in range(n):
        sub = random_subspace(n, m, ctx, rng)
        want = scalar_combinations(enumerate_points(m, ctx), sub.basis, ctx)
        assert [p.coords for p in subspace_points(sub, ctx)] == want, m
    sub = random_subspace(n, n - 2, ctx, rng)
    r1, r2 = nullspace([list(r) for r in sub.basis], ctx)
    members = [r2] + [
        tuple(ctx.add(a, ctx.mul(b, x)) for a, x in zip(r1, r2))
        for b in range(ctx.order)
    ]
    want = sorted((normalize(m, ctx) for m in members), key=lambda c: point_rank(c, ctx))
    assert [h.covector for h in pencil_through(sub, ctx)] == want


def test_rref_is_idempotent_and_canonical():
    ctx = make_field(3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = [tuple(int(x) for x in rng.integers(0, 9, 5)) for _ in range(3)]
        red, piv = rref(rows, ctx)
        red2, piv2 = rref(red, ctx)
        assert red == red2 and piv == piv2
        for r, p in zip(red, piv):
            assert r[p] == 1
            assert all(other[p] == 0 for other in red if other is not r)
