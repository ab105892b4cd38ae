import numpy as np
import pytest

from hermvar import projgeom
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
    point_rank,
    point_rank_array,
    point_rows,
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


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_point_array_matches_stream(n, q):
    ctx = make_field(q)
    arr = point_array(n, ctx)
    assert arr.shape == (num_points(n, q), n + 1)
    for i, p in enumerate(enumerate_points(n, ctx)):
        if i >= 2000:
            break
        assert tuple(int(x) for x in arr[i]) == p.coords


def _stream(n, ctx):
    return np.array([P.coords for P in enumerate_points(n, ctx)], dtype=np.uint8)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 4), (2, 2), (3, 2), (2, 3)])
def test_point_rows_every_range_matches_the_stream(n, q):
    ctx = make_field(q)
    want = _stream(n, ctx)
    N = len(want)
    assert np.array_equal(point_array(n, ctx), want)
    for a in range(N + 1):
        for b in range(a, N + 1):
            got = point_rows(n, ctx, a, b)
            assert got.dtype == np.uint8 and got.shape == (b - a, n + 1)
            assert np.array_equal(got, want[a:b]), (a, b)


@pytest.mark.parametrize("n,q", [(3, 3), (3, 4)])
def test_point_rows_edge_and_random_ranges_match_the_stream(n, q):
    # runs of Q^s rows: ends on and next to multiples of Q^s inside each
    # pivot block, single rows, empty ranges, ranges across pivot blocks
    ctx = make_field(q)
    Q = ctx.order
    want = _stream(n, ctx)
    N = len(want)
    offs = projgeom._rank_offsets(n, Q)
    ends = {0, N}
    for k in range(n + 1):
        for s in range(1, n - k + 1):
            for m in range(0, Q ** (n - k) + 1, Q**s):
                ends.update(offs[k] + m + d for d in (-1, 0, 1))
    ends = np.array(sorted(e for e in ends if 0 <= e <= N))
    rng = np.random.default_rng(5)
    ranges = [(e, e) for e in ends] + [(e, e + 1) for e in ends if e < N]
    ranges += np.sort(rng.choice(ends, size=(300, 2)), axis=1).tolist()
    ranges += np.sort(rng.integers(0, N + 1, size=(200, 2)), axis=1).tolist()
    assert any(a < offs[1] < offs[2] < b for a, b in ranges)
    for a, b in ranges:
        got = point_rows(n, ctx, a, b)
        assert got.shape == (b - a, n + 1)
        assert np.array_equal(got, want[a:b]), (a, b)


def test_point_rows_at_4_7_are_canonical_and_ranked_in_order():
    # oracle independent of point_rows: row i has rank a + i, and its first
    # nonzero coordinate is 1
    ctx = make_field(7)
    N = num_points(4, 7)
    rng = np.random.default_rng(7)
    starts = rng.integers(0, N, size=12).tolist() + [0, 49**4 - 1, N - 50]
    for a in starts:
        b = min(N, a + int(rng.integers(1, 200_000)))
        rows = point_rows(4, ctx, a, b)
        assert rows.shape == (b - a, 5)
        assert np.array_equal(point_rank_array(rows, ctx), np.arange(a, b))
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        assert (lead == 1).all()


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
