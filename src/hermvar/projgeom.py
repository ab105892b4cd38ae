"""Canonical points, hyperplanes, and linear subspaces of P^n(F_{q^2}).

Vectors are tuples of field-element indices.  The canonical representative
of a projective class scales the first nonzero coordinate to 1, which makes
representatives unique and hashable.  Points are enumerated in pivot-block
order (first nonzero coordinate ascending, then the remaining coordinates as
base-q^2 digits), and ``point_rank`` is the dense index of a point in that
order; the search module uses it to address bitset rows.

Hyperplane covectors live in the dual space and use the same canonical form
and ordering.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import WrongDimension


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple

    @property
    def n(self):
        return len(self.coords) - 1


@dataclass(frozen=True)
class Hyperplane:
    covector: tuple

    @property
    def n(self):
        return len(self.covector) - 1


@dataclass(frozen=True)
class LinearSubspace:
    """Row-space of a reduced-row-echelon basis; dim -1 encodes the empty
    subspace (zero rows)."""

    basis: tuple
    n: int

    @property
    def dim(self):
        return len(self.basis) - 1


def normalize(vec, ctx):
    """Canonical representative: first nonzero coordinate scaled to 1."""
    for v in vec:
        if v != 0:
            if v == 1:
                return tuple(vec)
            inv = ctx.inv(v)
            return tuple(ctx.mul(inv, x) for x in vec)
    raise ValueError("zero vector has no projective class")


def normalize_rows(vecs, ctx):
    """Vectorized normalize over the rows of an index array; raises
    ValueError on a zero row."""
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    if not lead.all():
        raise ValueError("zero vector has no projective class")
    return ctx.mul_table[ctx.inv_table[lead][:, None], vecs]


def num_points(n, q):
    """|P^n(F_{q^2})| = (q^(2(n+1)) - 1) / (q^2 - 1)."""
    Q = q * q
    return (Q ** (n + 1) - 1) // (Q - 1)


def hyperplanes_through_count(n, q):
    """Number of hyperplanes of P^n through a fixed point: as many as the
    points of P^(n-1)."""
    return num_points(n - 1, q)


def enumerate_points(n, ctx):
    """Yield every point of P^n exactly once, in canonical order."""
    Q = ctx.order
    for k in range(n + 1):
        head = (0,) * k + (1,)
        for tail in itertools.product(range(Q), repeat=n - k):
            yield ProjPoint(head + tail)


def enumerate_hyperplanes(n, ctx):
    """Yield every hyperplane of P^n once, covectors in canonical order."""
    for pt in enumerate_points(n, ctx):
        yield Hyperplane(pt.coords)


_POINT_ARRAYS = {}


def point_array(n, ctx):
    """All canonical points as an (N, n+1) uint8 array, in enumeration order.

    Cached per (n, q); treat the result as read-only.  The one (N, n+1)
    array is allocated first, and each pivot block, the one grid that
    point_grids(n, ctx, Q^n) yields for it, is written into its row range
    through a view of the grid's shape, one broadcast assignment per
    coordinate, so the build's peak memory is the array itself.
    """
    key = (n, ctx.q)
    arr = _POINT_ARRAYS.get(key)
    if arr is None:
        arr = np.empty((num_points(n, ctx.q), n + 1), dtype=np.uint8)
        a = 0
        for cols in point_grids(n, ctx, ctx.order**n):
            shape = np.broadcast_shapes(*(c.shape for c in cols))
            rows = math.prod(shape)
            block = arr[a : a + rows].reshape(shape + (n + 1,))
            for j, col in enumerate(cols):
                block[..., j] = col
            a += rows
        arr.setflags(write=False)
        _POINT_ARRAYS[key] = arr
    return arr


def _grid_columns(n, Q, k, s, r0, r1):
    """Runs r0 .. r1 - 1 of Q^s points each of pivot block k of P^n, as
    n + 1 uint8 columns that broadcast to the (r1 - r0, Q, ..., Q) grid of
    s Q-axes whose C order is the points' order: 0 before the pivot, 1 at
    it, the run number's base-Q digits on the runs axis, and np.arange(Q) on
    the axis of each of the last s coordinates."""
    one = (1,) * (s + 1)
    cols = [np.zeros(one, dtype=np.uint8)] * k + [np.ones(one, dtype=np.uint8)]
    run = np.arange(r0, r1)
    lead = []
    for _ in range(n - s - k):
        lead.append((run % Q).astype(np.uint8).reshape((-1,) + (1,) * s))
        run //= Q
    digits = np.arange(Q, dtype=np.uint8)
    return cols + lead[::-1] + [digits.reshape((Q,) + (1,) * i) for i in range(s - 1, -1, -1)]


def point_grids(n, ctx, size):
    """P^n in point_array order as broadcast grids of at most `size` points
    each (size >= 1), none across a pivot block: yields the n + 1 columns
    of _grid_columns.  Block k is cut into whole runs of Q^s points, s as
    large as size and the block allow, size // Q^s runs to a grid."""
    Q = ctx.order
    for k in range(n + 1):
        s = next(s for s in range(n - k, -1, -1) if Q**s <= size)
        runs, step = Q ** (n - k - s), size // Q**s
        for r0 in range(0, runs, step):
            yield _grid_columns(n, Q, k, s, r0, min(r0 + step, runs))


def incidence_blocks(m, pts, ctx):
    """Dot products of the covectors point_array(m, ctx) with the points
    pts, an (P, m + 1) index array, in row blocks of at most 500 k entries
    (or one grid run, if a run is larger): yields (a, b, block) with
    block[i, p] the dot product of covector a + i and pts[p], a field index
    that is 0 iff the point lies on the hyperplane.

    The covectors are walked as the broadcast grids of point_grids, never
    as rows.  Each coordinate's products come from one (Q, P) table of
    c * pts[:, j] over every field element c, gathered at the grid's
    broadcast column, so a term spans only the axes its coordinate varies
    on; the partial sums grow one axis at a time through the addition
    table, and only the last addition spans the whole block."""
    Q = ctx.order
    P = len(pts)
    tabs = [ctx.mul_table[:, pts[:, j]] for j in range(m + 1)]
    add = ctx.add_table.ravel()
    a = 0
    for cols in point_grids(m, ctx, max(1, 500_000 // max(1, P))):
        acc = tabs[0][cols[0]]
        for tab, col in zip(tabs[1:], cols[1:]):
            acc = add.take(acc.astype(np.intp) * Q + tab[col])
        rows = math.prod(acc.shape[:-1])
        yield a, a + rows, acc.reshape(rows, P)
        a += rows


def _rank_offsets(n, Q):
    offs = [0] * (n + 2)
    for k in range(n + 1):
        offs[k + 1] = offs[k] + Q ** (n - k)
    return offs


def point_rank(coords, ctx):
    """Dense index of a canonical point in enumeration order."""
    n = len(coords) - 1
    Q = ctx.order
    k = next(i for i, v in enumerate(coords) if v != 0)
    offs = _rank_offsets(n, Q)
    r = offs[k]
    for j in range(k + 1, n + 1):
        r += coords[j] * Q ** (n - j)
    return r


def point_rank_array(coords_arr, ctx):
    """Vectorized point_rank for an array of canonical vectors."""
    arr = np.asarray(coords_arr, dtype=np.int64)
    n = arr.shape[1] - 1
    Q = ctx.order
    weights = Q ** np.arange(n, -1, -1, dtype=np.int64)
    pivot = np.argmax(arr != 0, axis=1)
    offs = np.array(_rank_offsets(n, Q), dtype=np.int64)
    total = arr @ weights
    return offs[pivot] + total - weights[pivot]


# -- linear algebra over F_{q^2} -------------------------------------------


def rref(rows, ctx):
    """Reduced row echelon form; returns (nonzero rows as tuples, pivot cols)."""
    work = [list(r) for r in rows]
    if not work:
        return (), []
    ncols = len(work[0])
    piv = 0
    pivots = []
    for col in range(ncols):
        src = next((r for r in range(piv, len(work)) if work[r][col] != 0), None)
        if src is None:
            continue
        work[piv], work[src] = work[src], work[piv]
        inv = ctx.inv(work[piv][col])
        work[piv] = [ctx.mul(inv, x) for x in work[piv]]
        for r in range(len(work)):
            if r != piv and work[r][col] != 0:
                f = work[r][col]
                work[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[r], work[piv])]
        pivots.append(col)
        piv += 1
        if piv == len(work):
            break
    return tuple(tuple(r) for r in work[:piv]), pivots


def matrix_rank(rows, ctx):
    return len(rref(rows, ctx)[0])


def nullspace(rows, ctx):
    """Canonical RREF basis of {x : rows @ x = 0}."""
    ncols = len(rows[0])
    red, pivots = rref(rows, ctx)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = ctx.neg(red[i][f])
        basis.append(tuple(vec))
    return rref(basis, ctx)[0] if basis else ()


def subspace_from_rows(rows, ctx):
    """Build the LinearSubspace spanned by the given row vectors."""
    basis, _ = rref(rows, ctx)
    return LinearSubspace(basis, len(rows[0]) - 1)


def intersect_hyperplanes(hyperplanes, ctx):
    """Common intersection of k >= 1 distinct hyperplanes, as a subspace."""
    if not hyperplanes:
        raise ValueError("need at least one hyperplane")
    covs = [h.covector for h in hyperplanes]
    if len(set(covs)) != len(covs):
        raise ValueError("hyperplanes must be distinct")
    n = len(covs[0]) - 1
    return LinearSubspace(nullspace(covs, ctx), n)


def membership(point, subspace, ctx):
    """True iff the point lies in the row space of the subspace basis."""
    if subspace.dim < 0:
        return False
    vec = list(point.coords)
    for row in subspace.basis:
        p = next(i for i, v in enumerate(row) if v != 0)
        if vec[p] != 0:
            f = vec[p]
            vec = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(vec, row)]
    return all(v == 0 for v in vec)


def combine_rows(coeffs, rows, ctx):
    """coeffs @ rows over F_{q^2}: row k of the (K, c) index array is
    sum_i coeffs[k, i] * rows[i], for a (K, r) coefficient index array and
    r row vectors of length c."""
    out = np.zeros((coeffs.shape[0], len(rows[0])), dtype=np.uint8)
    for i, row in enumerate(rows):
        col = coeffs[:, i]
        for j, r in enumerate(row):
            if r:
                out[:, j] = ctx.vadd(out[:, j], ctx.vscale(r, col))
    return out


def hyperplanes_through(point, ctx):
    """Yield the (q^{2n}-1)/(q^2-1) hyperplanes containing the point."""
    basis = nullspace([point.coords], ctx)
    if not basis:  # a point of P^0 lies on no hyperplane
        return
    covs = combine_rows(point_array(point.n - 1, ctx), basis, ctx)
    for cov in normalize_rows(covs, ctx).tolist():
        yield Hyperplane(tuple(cov))


def pencil_through(subspace, ctx):
    """The q^2+1 hyperplanes containing a codimension-2 subspace, sorted in
    canonical covector order."""
    n = subspace.n
    if subspace.dim != n - 2:
        raise WrongDimension(f"pencil needs dim {n - 2}, got {subspace.dim}")
    duals = nullspace([list(r) for r in subspace.basis], ctx)
    assert len(duals) == 2
    # duals (r1, r2) is in RREF, so its combinations by the points of P^1,
    # r1 + b r2 for each b in index order and then r2, are canonical
    # covectors and come out in canonical order
    members = combine_rows(point_array(1, ctx), duals, ctx)
    return [Hyperplane(tuple(m)) for m in members.tolist()]


def subspace_points(subspace, ctx):
    """All points of the subspace, canonical representatives."""
    pts = normalize_rows(subspace_point_array(subspace, ctx), ctx)
    return [ProjPoint(tuple(p)) for p in pts.tolist()]


def subspace_point_array(subspace, ctx):
    """Vectorized subspace_points: (M, n+1) uint8 array of representatives
    (not individually normalized; classes are distinct)."""
    m = subspace.dim
    if m < 0:
        return np.zeros((0, subspace.n + 1), dtype=np.uint8)
    return combine_rows(point_array(m, ctx), subspace.basis, ctx)


def random_subspace(n, m, ctx, rng):
    """Uniformly-seeded subspace of dimension m in P^n (full-rank resampling)."""
    while True:
        rows = rng.integers(0, ctx.order, size=(m + 1, n + 1))
        rows = [tuple(int(x) for x in r) for r in rows]
        basis, _ = rref(rows, ctx)
        if len(basis) == m + 1:
            return LinearSubspace(basis, n)
