"""Hermitian forms over F_{q^2}: evaluation, rank, congruence reduction,
tangency and section classification, and exact point counting by closed
formula and by full enumeration.

A Hermitian form is an (n+1)x(n+1) matrix H with H^T = H^(q); its variety
is the zero set of x^T H x^(q) in P^n(F_{q^2}).  The non-degenerate variety
in P^n has exactly (q^n - (-1)^n)(q^(n+1) - (-1)^(n+1)) / (q^2 - 1) rational
points, and every linear section is a cone with a vertex subspace of
dimension v over a non-degenerate base of dimension s, encoded here as
SectionType(v, s).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, Degenerate, NotOnVariety, OutOfRange
from .field import solve_norm
from .projgeom import (
    Hyperplane,
    ProjPoint,
    combine_rows,
    matrix_rank,
    normalize_rows,
    num_points,
    point_rows,
    rref,
)

DEFAULT_POINT_BUDGET = 300_000_000
_CHUNK = 1 << 20


@dataclass(frozen=True)
class HermitianForm:
    matrix: tuple
    n: int
    ctx: object

    def __post_init__(self):
        H = self.matrix
        assert len(H) == self.n + 1 and all(len(r) == self.n + 1 for r in H)
        if not any(any(row) for row in H):
            raise ValueError("zero matrix is not a Hermitian form")
        fr = self.ctx.frobenius
        for i in range(self.n + 1):
            for j in range(self.n + 1):
                if fr(H[i][j]) != H[j][i]:
                    raise ValueError("matrix is not Hermitian (H^T != H^(q))")


@dataclass(frozen=True)
class SectionType:
    """A linear section of the variety is the cone with vertex dimension v
    over a non-degenerate base of dimension s; v = -1 means non-degenerate,
    s = -1 means the subspace lies entirely on the variety."""

    v: int
    s: int
    m: int

    def __post_init__(self):
        assert self.v + self.s == self.m - 1

    @property
    def label(self):
        if self.v == -1:
            return f"U{self.s}"
        if self.s == -1:
            return f"P{self.m}-inside"
        return f"Pi{self.v}U{self.s}"


@dataclass(frozen=True)
class TangencyReport:
    kind: str  # "tangent" | "non_tangent"
    witness: ProjPoint  # tangency point, or the external polar point


def standard_form(n, ctx):
    """The non-degenerate canonical form: H = identity."""
    if n < 0:
        raise OutOfRange(f"n={n} must be >= 0")
    H = tuple(
        tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1)
    )
    return HermitianForm(H, n, ctx)


def padded_standard_form(r, n, ctx):
    """Rank-r form as block-diagonal identity_r + zero."""
    if not 1 <= r <= n + 1:
        raise OutOfRange(f"rank r={r} outside 1..{n + 1}")
    H = tuple(
        tuple(1 if (i == j and i < r) else 0 for j in range(n + 1))
        for i in range(n + 1)
    )
    return HermitianForm(H, n, ctx)


def gram(f, u, v):
    """Sesquilinear product u^T H v^(q)."""
    ctx = f.ctx
    vq = [ctx.frobenius(x) for x in v]
    acc = 0
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        s = 0
        for hij, vj in zip(f.matrix[i], vq):
            if hij and vj:
                s = ctx.add(s, ctx.mul(hij, vj))
        if s:
            acc = ctx.add(acc, ctx.mul(ui, s))
    return acc


def evaluate(f, P):
    """Value of x^T H x^(q) at the canonical representative of P."""
    return gram(f, P.coords, P.coords)


def contains(f, P):
    return evaluate(f, P) == 0


@functools.lru_cache(maxsize=None)
def rank(f):
    """Matrix rank of H over F_{q^2} by Gaussian elimination."""
    return matrix_rank([list(r) for r in f.matrix], f.ctx)


def congruence_reduce(f):
    """Invertible P with P H P^(q)T = diag(1,...,1,0,...,0) and the rank r.

    Greedy pivoting: take the first basis vector with nonzero self-product;
    if none exists but some mixed product is nonzero, mix with the smallest
    field element that makes the self-product (a subfield trace) nonzero.
    The stated diagonal identity is re-checked before returning.
    """
    ctx = f.ctx
    n1 = f.n + 1
    rest = [[1 if i == j else 0 for j in range(n1)] for i in range(n1)]
    out = []
    while rest:
        k = next((i for i, v in enumerate(rest) if gram(f, v, v) != 0), None)
        if k is None:
            pair = next(
                (
                    (i, j, gram(f, rest[i], rest[j]))
                    for i in range(len(rest))
                    for j in range(i + 1, len(rest))
                    if gram(f, rest[i], rest[j]) != 0
                ),
                None,
            )
            if pair is None:
                break  # form vanishes identically on the remaining span
            i, j, c = pair
            cq = ctx.frobenius(c)
            lam = next(
                l
                for l in range(1, ctx.order)
                if ctx.add(ctx.mul(ctx.frobenius(l), c), ctx.mul(l, cq)) != 0
            )
            rest[i] = [
                ctx.add(x, ctx.mul(lam, y)) for x, y in zip(rest[i], rest[j])
            ]
            k = i
        v = rest.pop(k)
        d = gram(f, v, v)
        mu = solve_norm(ctx, ctx.inv(d))
        v = [ctx.mul(mu, x) for x in v]
        rest = [
            [ctx.sub(wx, ctx.mul(gram(f, w, v), vx)) for wx, vx in zip(w, v)]
            for w in rest
        ]
        out.append(v)
    r = len(out)
    P = [tuple(row) for row in out + rest]
    assert matrix_rank(P, ctx) == n1, "change of basis not invertible"
    for a in range(n1):
        for b in range(n1):
            want = 1 if (a == b and a < r) else 0
            got = gram(f, P[a], P[b])
            assert got == want, "congruence certificate failed"
    return tuple(P), r


def nondegenerate_count(n, q):
    """Rational points of the non-degenerate variety in P^n."""
    if n < 0:
        return 0
    sn = -1 if n % 2 else 1
    return (q**n - sn) * (q ** (n + 1) + sn) // (q * q - 1)


def count_points_formula(n, q, r):
    """Points of the rank-r variety in P^n: a cone with vertex P^(n-r) over
    the non-degenerate variety in P^(r-1)."""
    if not 1 <= r <= n + 1:
        raise OutOfRange(f"rank r={r} outside 1..{n + 1}")
    vertex = num_points(n - r, q) if n - r >= 0 else 0
    return vertex + q ** (2 * (n - r + 1)) * nondegenerate_count(r - 1, q)


def section_count(stype, q):
    """Point count of a section from its SectionType."""
    if stype.s == -1:
        return num_points(stype.m, q)
    return count_points_formula(stype.m, q, stype.s + 1)


# -- vectorized evaluation ---------------------------------------------------


def eval_form_at(f, pts):
    """Values of the form at each row of a point-index array (vectorized)."""
    ctx = f.ctx
    H = f.matrix
    n1 = f.n + 1
    diagonal = all(H[i][j] == 0 for i in range(n1) for j in range(n1) if i != j)
    if diagonal:
        acc = None
        for i in range(n1):
            d = H[i][i]
            if d == 0:
                continue
            t = ctx.vnorm(pts[:, i])
            if d != 1:
                t = ctx.vscale(d, t)
            acc = t if acc is None else ctx.vadd(acc, t)
        return acc
    # p . (H p^(q)), with H p^(q) the product _polar_covectors makes
    polar = combine_rows(ctx.vfrob(pts), list(zip(*H)), ctx)
    return functools.reduce(ctx.vadd, ctx.vmul(pts, polar).T)


def form_scan(f, budget=DEFAULT_POINT_BUDGET):
    """The form at every point of P^n but e_n, without a point array, as
    (T, chunks); the budget on N is checked first, at the call.

    Every point but e_n is a prefix p, a row of point_array(n - 1), followed
    by a last coordinate lam, and its rank is rank(p) * Q + lam.  There the
    form is A(p) + Tr(lam b(p)) + h N(lam), with A(p) its value at (p, 0),
    b(p) = sum_{j<n} H[n][j] p_j^q and h = H[n][n], so it depends on p only
    through the key A(p) * Q + b(p): T is the (Q^2, Q) table with
    T[key, lam] the value at (p, lam) for every prefix p of that key.
    chunks yields (pre, key), ceil(_CHUNK / Q) prefixes at a time, key the
    uint16 key of each row of pre; T[key].ravel() follows the canonical
    point order.  The value at e_n is h."""
    ctx, n = f.ctx, f.n
    Q = ctx.order
    N = num_points(n, ctx.q)
    if N > budget:
        raise BudgetExceeded(N, budget)
    H = f.matrix
    rest = ctx.add_table[
        ctx.trace_table[ctx.mul_table], ctx.mul_table[H[n][n], ctx.norm_table]
    ]
    return ctx.add_table[:, rest].reshape(Q * Q, Q), _form_keys(f)


def _form_keys(f):
    """form_scan's chunks: (pre, key) with key = A(pre) * Q + b(pre)."""
    ctx, n = f.ctx, f.n
    M = num_points(n - 1, ctx.q)
    chunk = -(-_CHUNK // ctx.order)
    for a in range(0, M, chunk):
        pre = point_rows(n - 1, ctx, a, min(a + chunk, M))
        A = eval_form_at(f, np.pad(pre, ((0, 0), (0, 1))))
        b = combine_rows(ctx.vfrob(pre), [[c] for c in f.matrix[n][:n]], ctx)[:, 0]
        yield pre, A.astype(np.uint16) * ctx.order + b


def variety_mask(f, budget=DEFAULT_POINT_BUDGET):
    """Boolean mask over the canonical point order: True iff on the variety.
    form_scan's zero mask at each prefix's key, then e_n's bit (on the
    variety iff H[n][n] = 0)."""
    T, chunks = form_scan(f, budget)
    Tz = T == 0
    masks = [Tz[key].ravel() for _, key in chunks]
    return np.concatenate(masks + [np.array([f.matrix[f.n][f.n] == 0])])


def count_points_enum(f, budget=DEFAULT_POINT_BUDGET, workers=1):
    """Exact |V(f)(F_{q^2})| by reading the form's value at every point of
    P^n from form_scan's table: each prefix adds its key's row count of
    zeros, then e_n; one process, no mask of P^n, `workers` is accepted and
    ignored."""
    T, chunks = form_scan(f, budget)
    zeros = np.count_nonzero(T == 0, axis=1)
    on = sum(int(zeros[key].sum()) for _, key in chunks)
    return on + (f.matrix[f.n][f.n] == 0)


# -- tangency and sections ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _inverse_matrix(f):
    """H^{-1} by augmented Gaussian elimination; raises Degenerate."""
    ctx = f.ctx
    n1 = f.n + 1
    aug = [
        list(f.matrix[i]) + [1 if i == j else 0 for j in range(n1)]
        for i in range(n1)
    ]
    red, pivots = rref(aug, ctx)
    if len(red) < n1 or pivots != list(range(n1)):
        raise Degenerate("form has no inverse (rank < n+1)")
    return tuple(tuple(row[n1:]) for row in red)


def _polar_covectors(f, pts):
    """Normalized covectors of x -> x^T H p^(q), one per row p of pts."""
    ctx = f.ctx
    return normalize_rows(
        combine_rows(ctx.vfrob(pts), list(zip(*f.matrix)), ctx), ctx
    )


def tangent_hyperplanes(f, pts):
    """Batch tangent_hyperplane over the rows of a point array: the tangent
    covectors, one row per point."""
    ctx = f.ctx
    off = np.nonzero(eval_form_at(f, pts))[0]
    if len(off):
        coords = tuple(int(x) for x in pts[off[0]])
        raise NotOnVariety(f"point {coords} is not on the variety")
    covs = _polar_covectors(f, pts)
    dots = functools.reduce(ctx.vadd, ctx.vmul(covs, pts).T)
    assert not dots.any(), "tangent hyperplane misses its point"
    return covs


def tangent_hyperplane(f, P):
    """The hyperplane x -> x^T H p^(q) at a variety point P; contains P."""
    cov = tangent_hyperplanes(f, np.array([P.coords], dtype=np.uint8))[0]
    return Hyperplane(tuple(int(x) for x in cov))


def classify_hyperplanes(f, covs):
    """Batch classify_hyperplane over the rows of a covector array: the
    tangent mask and the normalized witness points, one row per covector.

    The witness of covector a is P = (H^{-1} a^T)^(q); the hyperplane is
    tangent iff P lies on the variety, and then the tangent hyperplane at P
    must reproduce a."""
    ctx = f.ctx
    if rank(f) != f.n + 1:
        raise Degenerate("classification needs a non-degenerate form")
    Hinv_T = list(zip(*_inverse_matrix(f)))
    witness = normalize_rows(ctx.vfrob(combine_rows(covs, Hinv_T, ctx)), ctx)
    tangent = eval_form_at(f, witness) == 0
    assert np.array_equal(
        _polar_covectors(f, witness[tangent]), normalize_rows(covs[tangent], ctx)
    ), "tangency witness does not reproduce the hyperplane"
    return tangent, witness


def classify_hyperplane(f, hyp):
    """Tangent/non-tangent classification with the witness point.

    The candidate point is P = (H^{-1} a^T)^(q) for covector a; if P lies on
    the variety the hyperplane is its tangent there, otherwise the hyperplane
    is the polar of the external point P.
    """
    tangent, witness = classify_hyperplanes(
        f, np.array([hyp.covector], dtype=np.uint8)
    )
    kind = "tangent" if tangent[0] else "non_tangent"
    return TangencyReport(kind, ProjPoint(tuple(int(x) for x in witness[0])))


def restrict(f, subspace):
    """Form restricted to a subspace: B H B^(q)T for the basis matrix B.

    Returns None when the restriction is the zero matrix, i.e. the subspace
    lies entirely on the variety.
    """
    B = subspace.basis
    m1 = len(B)
    rows = tuple(
        tuple(gram(f, B[u], B[v]) for v in range(m1)) for u in range(m1)
    )
    if not any(any(r) for r in rows):
        return None
    return HermitianForm(rows, m1 - 1, f.ctx)


def classify_section(f, subspace):
    """SectionType (v, s) of a proper linear section of a non-degenerate
    variety; the base rank comes from the restricted matrix."""
    n, m = f.n, subspace.dim
    if rank(f) != n + 1:
        raise Degenerate("section classification needs a non-degenerate form")
    if not 0 <= m <= n - 1:
        raise OutOfRange(f"section dimension m={m} outside 0..{n - 1}")
    sub = restrict(f, subspace)
    s = -1 if sub is None else rank(sub) - 1
    st = SectionType(m - 1 - s, s, m)
    assert n - 2 * m + s >= 0, "impossible section type"
    return st


def hyperplane_section_counts(n, q):
    """Points of the non-degenerate variety U_n on a tangent hyperplane, a
    cone over U_{n-2}, and on a non-tangent one, a U_{n-1}."""
    return 1 + q * q * nondegenerate_count(n - 2, q), nondegenerate_count(n - 1, q)


def tangents_through_count(f, P):
    """Tangent hyperplanes through a variety point: by polarity as many as
    the points of its tangent section, q^2 |U_{n-2}| + 1."""
    if not contains(f, P):
        raise NotOnVariety(f"point {P.coords} is not on the variety")
    return hyperplane_section_counts(f.n, f.ctx.q)[0]
