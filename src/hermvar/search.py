"""Exhaustive and statistical experiments over hyperplane arrangements.

The exhaustive triple search takes a pencil's pairs i < j against every
k > j in one broadcast call.  Pair counts are one product of the unpacked
incidence with itself, triple terms one more; the maximal triples' labels
are read from the counts (a common section's dimension and point count fix
its type), not re-classified.  The enumeration cross-checks read one
incidence matrix Z of every hyperplane with the points of the variety only
(about 1/q of P^n), bit-packed along the points, so a section count is a
popcount of a row, or of the AND / OR of a few rows.  The standard form is
self-dual, so one variety mask gives both those points and the tangent
hyperplanes.  Z is built grouped by prefix: the hyperplanes come in runs of
q^2 that share all coordinates but the last, so one kernel pass over the
prefixes gives every run's dot values, and each member of a run is one
table compare against them.

Codimension-2 subspaces are enumerated directly as reduced-row-echelon dual
lines (two-row RREF matrices of covectors), which visits every pencil
exactly once without deduplication.  One walk over the RREF free digits,
_dual_line_digits, serves both per-line computations, the ranks of a
line's members and its 2 x 2 dual Gram matrix: each is a sum of terms in
one or two free digits, so it is built as broadcast sums over a bounded
slice of the digit grid, never as rows.  The pencil scan needs only the
Gram matrix: by polarity it fixes the axis's section shape and which
members are tangent, so the scan builds no incidence and no catalog.
"""

import functools
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import cone_counts, cubic_bound_closed
from .cubics import (
    Arrangement,
    arrangement,
    intersect_count_arrangement,
    linear_factor,
    max_cubic_intersection,
    monomial_exponents,
    random_hypersurface,
)
from .errors import BudgetExceeded
from .field import make_field
from .hermitian import (
    DEFAULT_POINT_BUDGET,
    SectionType,
    hyperplane_section_counts,
    nondegenerate_count,
    section_count,
    standard_form,
    tangent_hyperplanes,
    variety_mask,
    variety_prefixes,
)
from .projgeom import (
    Hyperplane,
    incidence_blocks,
    num_points,
    point_array,
    point_rank_array,
    _rank_offsets,
)

_MEMO_CELL_LIMIT = 50_000_000  # plane x hyperplane table entries
_ARGMAX_LIMIT = 1000  # argmax arrangements listed in a triple-search report
_EVAL_CHUNK_BYTES = 16 << 20  # working set of one random-cubic point chunk
_LINE_SLICE = 1 << 20  # dual lines per slice of the catalog and the Gram keys


def gaussian_binomial(m, k, Q):
    """Number of k-dim subspaces of an m-dim vector space over a Q-element
    field."""
    num = den = 1
    for i in range(k):
        num *= Q ** (m - i) - 1
        den *= Q ** (k - i) - 1
    return num // den


# -- shared geometry --------------------------------------------------------


def incidence_zero_matrix(n, ctx, upts):
    """Bit-packed incidence of every hyperplane with the points upts, rows
    of point_array(n, ctx): row i, unpacked with np.unpackbits, is True at
    column c iff upts[c] lies on hyperplane i (canonical order); the padding
    bits are 0.

    In canonical order every hyperplane but the last, e_n, is one of a run
    of Q that share their first n coordinates, a point of P^{n-1}, and take
    every last coordinate a_n in index order.  So the kernel computes the
    dot values V of these prefixes with the points' first n coordinates
    once, and a run's Q rows are a_n x_n == -V, one table compare each."""
    Q = ctx.order
    Z = np.empty((num_points(n, ctx.q), (len(upts) + 7) // 8), dtype=np.uint8)
    last = ctx.mul_table[:, upts[:, n]]  # a_n x_n for every a_n
    for a, b, V in incidence_blocks(point_array(n - 1, ctx), upts[:, :n], ctx):
        neg = ctx.neg_table[V]
        for c in range(Q):
            Z[a * Q + c : b * Q : Q] = np.packbits(last[c] == neg, axis=1)
    Z[-1] = np.packbits(upts[:, n] == 0)
    return Z


def _dual_line_digits(n, Q):
    """The dual lines of P^n in RREF, in catalog order, at most _LINE_SLICE
    at a time: yields (c1, c2, mid, tail, d).  r1 has its leading 1 at c1,
    r2 at c2 > c1; at the positions `mid` between them only r1 has a free
    digit, at the positions `tail` after c2 both have one.  A block's lines
    run over its free digits as a base-Q number, listed in d: r1's mid
    digits, r1's tail digits, then r2's tail digits.  A slice fixes the
    leading digits (int32 scalars in d), so it is a contiguous run of lines;
    the other digits are int32 broadcast grids, one axis each."""
    for c1 in range(n + 1):
        for c2 in range(c1 + 1, n + 1):
            mid, tail = range(c1 + 1, c2), range(c2 + 1, n + 1)
            k = len(mid) + 2 * len(tail)
            s = next(s for s in range(k + 1) if Q ** (k - s) <= _LINE_SLICE)
            grid = list(np.ix_(*[np.arange(Q, dtype=np.int32)] * (k - s)))
            for lead in itertools.product(np.arange(Q, dtype=np.int32), repeat=s):
                yield c1, c2, mid, tail, list(lead) + grid


def dual_line_catalog(n, ctx):
    """Member hyperplane ranks of every pencil, one row per codimension-2
    subspace, via direct RREF enumeration of dual lines (_dual_line_digits).

    Member 0 is r2; member 1 + b is r1 + b r2, which has its leading 1 at c1,
    r1's digits before c2, b at c2 and r1_j + b r2_j after c2.  So every
    rank is a sum of terms in at most two free digits and b, and a slice of
    lines is one broadcast sum over its free digits and its Q + 1 members."""
    Q = ctx.order
    offs = _rank_offsets(n, Q)
    assert offs[-1] < 2**31, "ranks would overflow int32"
    w = [Q ** (n - j) for j in range(n + 1)]
    e = np.arange(Q, dtype=np.int32)
    # comb[x, y, b] = x + b y, a coordinate of r1 + b r2 after c2
    comb = ctx.add_table[e[:, None, None], ctx.mul_table[e[None, :, None], e]]
    comb = comb.astype(np.int32)
    cat = np.empty((gaussian_binomial(n + 1, 2, Q), Q + 1), dtype=np.int32)
    a = 0
    for c1, c2, mid, tail, d in _dual_line_digits(n, Q):
        m, t = len(mid), len(tail)
        r1, r2 = d[: m + t], d[m + t :]
        shape = np.broadcast_shapes(*map(np.shape, d))
        cnt = math.prod(shape)
        mem = cat[a : a + cnt].reshape(shape + (Q + 1,))
        # the partial sums grow one axis at a time, so only the last
        # addition spans the whole slice
        mem[..., 0] = sum((w[j] * y for j, y in zip(tail, r2)), offs[c2])
        head = sum((w[j] * x for j, x in zip(mid, r1)), np.int32(offs[c1]))
        mem[..., 1:] = sum(
            (w[j] * comb[x, y] for j, x, y in zip(tail, r1[m:], r2)),
            head[..., None] + w[c2] * e,
        )
        a += cnt
    assert a == len(cat)
    return cat


def dual_gram_keys(n, ctx):
    """Dual Gram key of every dual line of P^n under the standard form, in
    dual_line_catalog's row order, yielded one slice of _dual_line_digits
    at a time.

    The key of the line (r1, r2) is (G11 Q + G12) Q + G22 with G11 = <r1, r1>,
    G12 = <r1, r2> and G22 = <r2, r2> for the dual form <a, b> = sum a_j b_j^q.
    In RREF these are G11 = 1 + sum N(r1_j) over r1's free digits,
    G22 = 1 + sum N(r2_j) over r2's, and G12 = sum r1_j r2_j^q over the
    tail, so each is a broadcast field sum over the slice's free digits."""
    Q = ctx.order
    add = ctx.add_table.astype(np.intp)
    nrm = ctx.norm_table.astype(np.intp)
    dot = ctx.mul_table[:, ctx.frob_table].astype(np.intp)  # x y^q

    def fsum(terms, start):
        # the partial sums grow one axis at a time
        return functools.reduce(lambda x, y: add[x, y], terms, start)

    for _, _, mid, tail, d in _dual_line_digits(n, Q):
        m, t = len(mid), len(tail)
        r1, r2 = d[: m + t], d[m + t :]
        g11 = fsum((nrm[x] for x in r1), 1)
        g22 = fsum((nrm[y] for y in r2), 1)
        g12 = fsum((dot[x, y] for x, y in zip(r1[m:], r2)), 0)
        key = g11 * (Q * Q) + (g12 * Q + g22)
        yield np.ravel(key)  # g11 and g22 span every free digit


def hyperplane_tangency(n, q):
    """Tangency kind of every canonical hyperplane of P^n (standard form): it
    is self-dual, so a is tangent iff sum N(a_t) = 0, as U_n's mask says."""
    ctx = make_field(q)
    return variety_mask(standard_form(n, ctx))


@dataclass
class _Geometry:
    n: int
    q: int
    N: int
    Z: np.ndarray  # bit-packed hyperplane x variety-point incidence
    tangent: np.ndarray  # per-hyperplane tangency, also U_n's point mask
    S: np.ndarray  # per-hyperplane section counts (from tangency)
    planes: np.ndarray  # pencil member ranks per codim-2 subspace
    stages: dict  # stage wall times and work counts


def _variety_incidence(n, q, budget):
    """The geometry of U_n that needs no pencils: U_n's points upts, the
    incidence Z, every hyperplane's tangency and section count S, and the
    stage times.  By self-duality one mask gives both U_n's points and its
    tangent hyperplanes.  S comes from the tangency and is asserted equal to
    the popcounts of Z's rows."""
    ctx = make_field(q)
    N = num_points(n, q)
    if N * N > budget:
        raise BudgetExceeded(N * N, budget, what="incidence entries")
    t0 = time.time()
    tangent = hyperplane_tangency(n, q)
    upts = point_array(n, ctx)[tangent]
    t1 = time.time()
    Z = incidence_zero_matrix(n, ctx, upts)
    t2 = time.time()
    S = np.where(tangent, *hyperplane_section_counts(n, q)).astype(np.int64)
    # the closed-form counts must agree with the enumerated popcounts, exactly
    enum_S = np.bitwise_count(Z).sum(axis=1, dtype=np.int64)
    assert np.array_equal(S, enum_S), "hyperplane section counts disagree"
    t3 = time.time()
    stages = {"mask_s": t1 - t0, "incidence_s": t2 - t1, "tangency_s": t3 - t2}
    return upts, Z, tangent, S, stages


def build_geometry(n, q, budget=DEFAULT_POINT_BUDGET):
    """Incidence, tangency and pencil catalog of the variety."""
    _, Z, tangent, S, stages = _variety_incidence(n, q, budget)
    t3 = time.time()
    planes = dual_line_catalog(n, make_field(q))
    stages.update(catalog_s=time.time() - t3, pencils=len(planes))
    return _Geometry(n, q, len(Z), Z, tangent, S, planes, stages)


# -- exhaustive triple search -------------------------------------------------


def _section_types(n, q):
    """SectionType of every section of dimension m = n - 2 or n - 3 (base
    dimension s >= 2m - n), keyed by (m, point count)."""
    types = [
        SectionType(m - 1 - s, s, m)
        for m in (n - 2, n - 3)
        for s in range(max(-1, 2 * m - n), m + 1)
    ]
    table = {(st.m, section_count(st, q)): st for st in types}
    assert len(table) == len(types), "two section types share a key"
    return table


def _count_product(a, b):
    """a @ b as int64 for 0/1 matrices, multiplied in float64 because numpy
    multiplies integer matrices without BLAS; exact, as asserted, while
    every entry stays below 2^53."""
    out = a.astype(np.float64) @ b.astype(np.float64)
    assert out.max(initial=0) < 2**53, "float64 counts would not be exact"
    return out.astype(np.int64)


@dataclass
class SearchReport:
    n: int
    q: int
    seed: int
    total_triples: int
    global_max: int
    max_formula_value: int
    reaches_formula_max: bool
    histogram: dict
    argmax_total: int
    argmax_arrangements: list
    argmax_structure: dict
    samples_verified: int
    method_mix: dict
    wall_time_s: float
    stages: dict  # build_geometry's stage times and work counts, not serialized

    def to_json_dict(self):
        return _json_fields(self, "triple_search")


def exhaustive_triples(
    n,
    q,
    budget=DEFAULT_POINT_BUDGET,
    seed=0,
    verify_samples=1000,
):
    """Exact maximum of |union of three hyperplanes meet variety| over all
    unordered triples, with full histogram and re-verified argmax list."""
    t0 = time.time()
    mf = max_cubic_intersection(n, q)  # refuses n < 4 before any work
    ctx = make_field(q)
    N = num_points(n, q)
    total = math.comb(N, 3)
    if total > budget:
        raise BudgetExceeded(total, budget, what="triples")
    geo = build_geometry(n, q, budget=budget)
    n_planes = len(geo.planes)
    if n_planes * N > _MEMO_CELL_LIMIT:
        raise BudgetExceeded(
            n_planes * N, _MEMO_CELL_LIMIT, what="pair/triple memo cells"
        )
    # from the unpacked variety columns: every pair's section count, and the
    # triple term, the points of each pencil's axis on hyperplane k, for
    # every (pencil, k)
    Zu = np.unpackbits(geo.Z, axis=1, count=int(geo.tangent.sum())).astype(np.int64)
    S, P = geo.S, _count_product(Zu, Zu.T)
    assert np.array_equal(np.diagonal(P), S), "pair counts disagree with S"
    Tline = _count_product(Zu[geo.planes[:, 0]] & Zu[geo.planes[:, 1]], Zu.T)

    def triple_count(i, j, k, T):
        """|H_i u H_j u H_k meet U| by inclusion-exclusion, for the triple
        term T; i, j, k and T may be broadcast arrays."""
        return S[i] + S[j] + S[k] - P[i, j] - P[i, k] - P[j, k] + T

    def on_variety(i, j, k):
        return np.bitwise_count(geo.Z[i] | geo.Z[j] | geo.Z[k]).sum(axis=-1)

    # one pass per pencil, over its pairs i < j against every k > j: the
    # histogram, and every (pencil, i, j, k) at the running maximum
    hist = np.zeros(int(3 * S.max()) + 2, dtype=np.int64)
    gmax, argmax = -1, []
    ks = np.arange(N)
    a, b = np.triu_indices(geo.planes.shape[1], 1)
    for pid in range(n_planes):
        mem = np.sort(geo.planes[pid])
        i, j = mem[a, None], mem[b, None]
        counts = triple_count(i, j, ks, Tline[pid])
        valid = ks > j
        hist += np.bincount(counts[valid], minlength=len(hist))
        m = int(counts[valid].max())
        if m > gmax:
            gmax, argmax = m, []
        if m == gmax:
            r, k = np.nonzero(valid & (counts == m))
            argmax.append(np.column_stack((np.full_like(k, pid), i[r, 0], j[r, 0], k)))
    argmax = np.concatenate(argmax)

    assert int(hist.sum()) == total, "histogram does not cover every triple"
    enum = on_variety(*argmax[:, 1:].T)
    assert (enum == gmax).all(), "argmax re-verification by enumeration failed"

    f = standard_form(n, ctx)
    pts = point_array(n, ctx)

    def hyps(*idx):
        return tuple(Hyperplane(tuple(row)) for row in pts[list(idx)].tolist())

    # labels from the counts: the common section is the pencil's axis when
    # k is a member, else of dimension n - 3; each label's first triple is
    # also classified
    types = _section_types(n, q)
    structure, arr_dicts = {}, []
    for pid, i, j, k in argmax.tolist():
        st = types[n - 2 if k in geo.planes[pid] else n - 3, int(Tline[pid, k])]
        tang = tuple("tangent" if geo.tangent[h] else "non_tangent" for h in (i, j, k))
        label = f"{st.label}|" + ",".join(sorted(tang))
        arr = Arrangement(hyps(i, j, k), tang, st, n, q)
        if label not in structure:
            assert arr == arrangement(arr.hyperplanes, f), f"label mismatch at {(i, j, k)}"
        structure[label] = structure.get(label, 0) + 1
        if len(arr_dicts) < _ARGMAX_LIMIT:
            arr_dicts.append(arr.to_json_dict(count=gmax))

    # sampled three-way verification: internal assembly, classification
    # formulas, and bit-packed popcount enumeration
    rng = np.random.default_rng(seed)
    verified = 0
    for _ in range(verify_samples):
        i, j, k = sorted(int(x) for x in rng.choice(N, size=3, replace=False))
        internal = int(triple_count(i, j, k, (Zu[i] & Zu[j] & Zu[k]).sum()))
        rep = intersect_count_arrangement(arrangement(hyps(i, j, k), f), f)
        enum = int(on_variety(i, j, k))
        assert internal == rep.count == enum, (
            f"triple count mismatch at {(i, j, k)}: "
            f"{internal} / {rep.count} / {enum}"
        )
        verified += 1

    return SearchReport(
        n=n,
        q=q,
        seed=seed,
        total_triples=total,
        global_max=gmax,
        max_formula_value=mf,
        reaches_formula_max=bool(gmax >= mf),
        histogram={int(v): int(c) for v, c in enumerate(hist) if c},
        argmax_total=len(argmax),
        argmax_arrangements=arr_dicts,
        argmax_structure=structure,
        samples_verified=verified,
        method_mix={
            "formula_fraction": 1.0,
            "enumeration_verified": len(argmax) + verified,
        },
        wall_time_s=time.time() - t0,
        stages=geo.stages,
    )


# -- pencil scans ------------------------------------------------------------


@dataclass
class PencilScanReport:
    n: int
    q: int
    pencils: int
    best_count: int
    max_formula_value: int
    best_is_formula_max: bool
    best_structures: dict
    tangent_members_by_section: dict
    stages: dict  # the Gram pass's time and work counts, not serialized

    def to_json_dict(self):
        return _json_fields(self, "pencil_scan")


def pencil_triples_scan(n, q, budget=DEFAULT_POINT_BUDGET):
    """Best triple within every pencil (three hyperplanes through a common
    codimension-2 subspace), exhaustively over all such subspaces.

    This covers the stratum where the global maximum lives and stays
    feasible where the full triple space does not (the pencil count grows
    like N^2, not N^3).  Every pencil is one dual line, visited once by
    dual_gram_keys; its dual Gram key fixes the axis's point count and the
    number of tangent members (_pencil_kinds), so the pencils are counted
    by key and the report is read from the key histogram.  The budget is
    checked against the pencils visited.  The report's `stages` holds the
    Gram pass's wall time and the counts of pencils, distinct keys and key
    arrays (blocks, or slices of a block).
    """
    mf = max_cubic_intersection(n, q)  # refuses n < 4 before any work
    ctx = make_field(q)
    Q = ctx.order
    pencils = gaussian_binomial(n + 1, 2, Q)
    if pencils > budget:
        raise BudgetExceeded(pencils, budget, what="pencils")
    t0 = time.time()
    hist = np.zeros(Q**3, dtype=np.int64)
    blocks = 0
    for keys in dual_gram_keys(n, ctx):
        hist += np.bincount(keys, minlength=len(hist))
        blocks += 1
    keys = np.flatnonzero(hist)
    weight = hist[keys]
    assert int(weight.sum()) == pencils, "the Gram pass missed a dual line"
    plane_count, tmem = _pencil_kinds(keys, n, ctx)
    # S takes one value on tangent and one on non-tangent hyperplanes, so a
    # pencil's best triple takes as many members of the larger kind as it
    # has, up to 3
    s_tan, s_non = hyperplane_section_counts(n, q)
    larger = tmem if s_tan > s_non else Q + 1 - tmem
    top3 = 3 * min(s_tan, s_non) + abs(s_tan - s_non) * np.minimum(larger, 3)
    best_per_key = top3 - 2 * plane_count
    best = int(best_per_key.max())
    is_best = best_per_key == best
    stages = dict(gram_s=time.time() - t0, pencils=pencils, keys=len(keys), blocks=blocks)
    return PencilScanReport(
        n=n,
        q=q,
        pencils=pencils,
        best_count=best,
        max_formula_value=mf,
        best_is_formula_max=bool(best == mf),
        best_structures=_section_profile(
            plane_count[is_best], tmem[is_best], n, q, weight[is_best]
        ),
        tangent_members_by_section=_section_profile(plane_count, tmem, n, q, weight),
        stages=stages,
    )


def _pencil_kinds(keys, n, ctx):
    """Points of U_n on the axis, and the number of tangent members, of the
    pencils with the dual Gram keys `keys` (see dual_gram_keys).

    The vertex of the axis's section is the axis's meet with its polar line,
    whose points are the conjugates of the dual line's covectors, so it has
    vector dimension 2 - rank G: ranks 2, 1 and 0 give the shapes U, Pi0U
    and Pi1U of cone_counts.  A member a is tangent iff <a, a> = 0: G22 = 0
    for member 0 (r2), and G11 + Tr(b G12^q) + N(b) G22 = 0 for member 1 + b
    (r1 + b r2)."""
    Q = ctx.order
    add, mul = ctx.add_table, ctx.mul_table
    g11, g12, g22 = keys // (Q * Q), keys // Q % Q, keys % Q
    det = add[mul[g11, g22], ctx.neg_table[ctx.norm_table[g12]]]
    rank = np.where(det != 0, 2, np.where((g11 | g12 | g22) != 0, 1, 0))
    plane_count = np.array(cone_counts(n, ctx.q), dtype=np.int64)[2 - rank]
    b = np.arange(Q)
    cross = ctx.trace_table[mul[b, ctx.frob_table[g12][:, None]]]
    forms = add[add[g11[:, None], cross], mul[ctx.norm_table[b], g22[:, None]]]
    tmem = (g22 == 0) + np.count_nonzero(forms == 0, axis=1)
    return plane_count, tmem


def _section_profile(plane_count, tmem, n, q, weight=1):
    """Pencils counted by section shape and number of tangent members, keyed
    "<shape>|tangent_members=<t>"; entry i stands for weight[i] pencils, or
    for one when weight is 1."""
    u_count, cone0, cone1 = cone_counts(n, q)
    label_of = {u_count: "U", cone0: "Pi0U", cone1: "Pi1U"}
    width = q * q + 2  # tangent member counts run over 0 .. q^2+1
    keys, inv = np.unique(plane_count * width + tmem, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inv, weight)
    return {
        f"{label_of[key // width]}|tangent_members={key % width}": count
        for key, count in zip(keys.tolist(), sums.tolist())
    }


# -- incidence double counting -------------------------------------------------


@dataclass
class IncidenceReport:
    n: int
    q: int
    variety_points: int
    hyperplanes_total: int
    tangent_hyperplanes: int
    non_tangent_hyperplanes: int
    hyperplanes_through_point: int
    point_tangent_count: int
    tangent_count_uniform: bool
    incidence_left: int
    incidence_right: int
    stages: dict  # stage wall times and work counts, not serialized

    def to_json_dict(self):
        return _json_fields(self, "incidence")


def incidence_double_count(n, q, budget=DEFAULT_POINT_BUDGET):
    """Exhaustive incidence verification around tangency.

    Checks, by direct enumeration: every variety point lies on the same
    number of hyperplanes; the tangent ones among them number
    q^2 |U_{n-2}| + 1; tangent hyperplanes are in bijection with variety
    points; and the point/non-tangent-hyperplane incidences sum identically
    from both sides.  The report's `stages` holds _variety_incidence's stage
    times, `count_s` for the tangent map and the column sums after them,
    and the numbers of hyperplanes and variety points.
    """
    upts, Z, kinds, _, stages = _variety_incidence(n, q, budget)
    t0 = time.time()
    ctx = make_field(q)
    f = standard_form(n, ctx)
    nU = len(upts)
    # tangent covectors, one per variety point
    cov_ranks = point_rank_array(tangent_hyperplanes(f, upts), ctx)
    assert np.array_equal(np.sort(cov_ranks), np.flatnonzero(kinds)), (
        "the tangent map must be a bijection onto the tangent hyperplanes"
    )
    # tangency incidence among variety points: point b lies on the tangent
    # hyperplane at point a iff bit b of Z's row at that covector is set
    tangent_through = np.unpackbits(Z[cov_ranks], axis=1, count=nU).sum(
        axis=0, dtype=np.int64
    )
    uniform = bool((tangent_through == tangent_through[0]).all())
    t_count = int(tangent_through[0])
    # hyperplane side
    n_tangent = int(kinds.sum())
    hyps_through = np.unpackbits(Z, axis=1, count=nU).sum(axis=0, dtype=np.int64)
    assert (hyps_through == hyps_through[0]).all()
    left = int(((hyps_through - tangent_through)).sum())
    right = int(np.bitwise_count(Z[~kinds]).sum(dtype=np.int64))
    stages.update(count_s=time.time() - t0, hyperplanes=len(Z), points=nU)
    return IncidenceReport(
        n=n,
        q=q,
        variety_points=nU,
        hyperplanes_total=len(Z),
        tangent_hyperplanes=n_tangent,
        non_tangent_hyperplanes=len(Z) - n_tangent,
        hyperplanes_through_point=int(hyps_through[0]),
        point_tangent_count=t_count,
        tangent_count_uniform=uniform,
        incidence_left=left,
        incidence_right=right,
        stages=stages,
    )


# -- random cubic sampling -------------------------------------------------------


@dataclass
class RandomCubicReport:
    n: int
    q: int
    trials: int
    seed: int
    threshold: int
    histogram: dict
    retained: int
    discarded_divisible: list
    exceedances: list
    max_count: int
    threshold_asserted: bool  # the q >= 7 regime where exceedance is failure
    wall_time_s: float
    stages: dict  # stage wall times and work counts, not serialized

    def to_json_dict(self):
        return _json_fields(self, "random_cubics")


def _monomial_rows(pre, exps, ctx):
    """Values at the rows of pre, prefixes (x_0 .. x_{n-1}), of the cubic
    monomials exps in x_0 .. x_n with x_n := 1, one row per monomial, by
    shared prefixes: each product of two variables once, each of three as
    one of two times one variable."""
    n = pre.shape[1]
    prods = {(i,): np.ascontiguousarray(pre[:, i]) for i in range(n)}
    prods[()] = np.ones(len(pre), dtype=np.uint8)
    rows = np.empty((len(exps), len(pre)), dtype=np.uint8)
    for r, exp in enumerate(exps):
        key = tuple(i for i, e in enumerate(exp[:n]) for _ in range(e))
        for k in range(2, len(key) + 1):
            if key[:k] not in prods:
                prods[key[:k]] = ctx.vmul(prods[key[: k - 1]], prods[key[k - 1 : k]])
        rows[r] = prods[key]
    return rows


def _fibre_values(polys, n, ctx, stages):
    """Digits of every cubic's values at every point of U_n, all cubics at
    once, by prefixes and norm fibres (hermitian.variety_prefixes): yields,
    one norm class r of one chunk of prefixes at a time, (pre, lam, Y) with
    lam = ctx.norm_fibres[r] and Y a float32 array of shape
    (cubics, len(lam), m, len(pre)) whose entry Y[t, l, j, i] is, mod p,
    digit j of cubic t's value at the point (pre[i], lam[l]).

    Substituting x_n := lam turns the cubic sum c_e x^e into a polynomial in
    the prefix with coefficient c_e lam^(e_n) at the monomial x'^(e[:n])
    (0^0 = 1, so the class r = 0, lam = 0, keeps the e_n = 0 terms).  So a
    class's cubics and fibre elements are the rows of one coefficient matrix
    over the R prefix monomials, constant term included.  Multiplying by a
    constant is an m x m matrix over F_p on base-p digit vectors
    (ctx.mul_matrices), so the digits are A @ D mod p: A has one row block
    per (cubic, lam) and one column block per monomial, D the digit planes
    of the monomial values at the class's prefixes.  The product runs in
    float32 and is exact while every sum, at most R m (p-1)^2, stays below
    2^24.  A chunk's arrays take about _EVAL_CHUNK_BYTES at most, and at
    most R bytes per point of U_n, the size of a matrix of every monomial's
    value at every point.  The walk's time and the work counts are added
    into the dict stages."""
    p, m, q = ctx.p, ctx.ndigits, ctx.q
    exps = monomial_exponents(n, 3)
    R, T = len(exps), len(polys)
    assert R * m * (p - 1) ** 2 < 2**24, "float32 sums would not be exact"
    coef = np.zeros((T, R), dtype=np.uint8)
    col = {e: r for r, e in enumerate(exps)}
    for t, C in enumerate(polys):
        for e, c in C.monomials:
            coef[t, col[e]] = c
    # x^(e_n) for every field element x and prefix monomial, from x^0 .. x^3
    x = np.arange(ctx.order, dtype=np.uint8)
    powers = [np.ones_like(x)]
    for _ in range(3):
        powers.append(ctx.vmul(powers[-1], x))
    lam_pow = np.stack(powers, axis=1)[:, [e[n] for e in exps]]
    A = {}
    for r, lam in ctx.norm_fibres.items():
        c = ctx.mul_table[coef[:, None, :], lam_pow[lam]]
        # A[(t*F + l)*m + i, j*R + k]: digit i of coefficient k of cubic t
        # at lam_l, times p^j
        A[r] = ctx.mul_matrices[c].transpose(0, 1, 3, 4, 2).reshape(-1, m * R)
        A[r] = A[r].astype(np.float32)
    # bytes per prefix: monomials, digit planes, product, its rounding, mask
    per_prefix = 2 * R + 4 * m * R + 9 * T * (q + 1) * m
    chunk = max(1, min(R * nondegenerate_count(n, q), _EVAL_CHUNK_BYTES) // per_prefix)
    t0 = time.time()
    for pre, r in variety_prefixes(n, ctx, chunk):
        # group the chunk's prefixes by norm class
        order = np.argsort(r, kind="stable")
        pre, r = pre[order], r[order]
        cuts = np.flatnonzero(r[1:] != r[:-1]) + 1
        stages["walk_s"] += time.time() - t0
        stages["chunks"] += 1
        stages["prefixes"] += len(pre)
        D = ctx.digit_planes(_monomial_rows(pre, exps, ctx)).reshape(m * R, -1)
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(pre)]):
            lam = ctx.norm_fibres[int(r[a])]
            stages["points"] += len(lam) * int(b - a)
            Y = A[int(r[a])] @ D[:, a:b]
            yield pre[a:b], lam, Y.reshape(T, len(lam), m, -1)
        t0 = time.time()
    stages["walk_s"] += time.time() - t0


def _zero_counts(polys, n, ctx, stages):
    """Zeros of each cubic on U_n; the prefix walk's time and the counts of
    prefixes, points and chunks are added into the dict stages."""
    p = ctx.p
    counts = np.zeros(len(polys), dtype=np.int64)
    for _, _, Y in _fibre_values(polys, n, ctx, stages):
        # in float32, an integer y < 2^24 is a multiple of p iff
        # p * rint(y / p) == y
        Z = Y / p
        np.rint(Z, out=Z)
        Z *= p
        digit_zero = Z == Y
        zero = digit_zero[:, :, 0]
        for j in range(1, ctx.ndigits):
            zero &= digit_zero[:, :, j]
        counts += np.count_nonzero(zero.reshape(len(polys), -1), axis=1)
    return counts


def random_cubic_sample(
    n, q, trials, seed, workers=1, budget=DEFAULT_POINT_BUDGET
):
    """Sample uniformly random cubics, discard those divisible by a linear
    form, and compare each retained intersection count against the
    cubic-split threshold.  Exceedances at q >= 7 are counterexample
    candidates and carry the full polynomial.

    Trial t draws its cubic from the seed sequence (seed, t).  Every
    retained cubic is then evaluated on the points of U_n only, all of them
    together, without a scan of P^n: U_n is walked as canonical prefixes
    (x_0 .. x_{n-1}), about 1/q^2 of P^n, each with the norm fibre of its
    last coordinate, and each norm class of a chunk of prefixes is one F_p
    matrix product that gives every cubic's value at every point (prefix,
    lam) of the class (see _fibre_values).  The call runs in one process;
    `workers` is accepted and ignored.  The report's `stages` holds the
    wall time of the linear-factor screen, the prefix walk and the rest of
    the evaluation, and the counts of prefixes walked, points evaluated,
    trials batched and prefix chunks."""
    t0 = time.time()
    ctx = make_field(q)
    N = num_points(n, q)
    if N > budget:
        raise BudgetExceeded(N, budget)
    kept, discarded = {}, []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        C = random_hypersurface(n, 3, ctx, rng)
        lf = linear_factor(C, ctx)
        if lf is None:
            kept[t] = C
        else:
            discarded.append({"trial": t, "linear_factor": list(lf.covector)})
    t1 = time.time()
    stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
    counts = _zero_counts(list(kept.values()), n, ctx, stages) if kept else []
    t2 = time.time()
    stages.update(screen_s=t1 - t0, eval_s=t2 - t1 - stages["walk_s"])
    stages["trials_batched"] = len(kept)
    threshold = cubic_bound_closed(n, q)
    hist = {}
    exceed = []
    for (t, C), count in zip(kept.items(), counts):
        count = int(count)
        hist[count] = hist.get(count, 0) + 1
        if count > threshold:
            mono = [[list(e), int(c)] for e, c in C.monomials]
            exceed.append({"trial": t, "count": count, "monomials": mono})
    return RandomCubicReport(
        n=n,
        q=q,
        trials=trials,
        seed=seed,
        threshold=threshold,
        histogram=hist,
        retained=len(kept),
        discarded_divisible=discarded,
        exceedances=exceed,
        max_count=max(hist, default=-1),
        threshold_asserted=q >= 7,
        wall_time_s=t2 - t0,
        stages=stages,
    )


# -- serialization ---------------------------------------------------------------


def _json_fields(report, kind):
    """A report as JSON-ready data: schema and kind, then every field but
    the volatile wall time and stages, the histogram as sorted pairs."""
    d = {"schema": 1, "kind": kind, **asdict(report)}
    d.pop("wall_time_s", None)
    d.pop("stages", None)
    if "histogram" in d:
        d["histogram"] = [[int(v), int(c)] for v, c in sorted(report.histogram.items())]
    return d


def report_json(report, path=None):
    """Deterministic JSON text for any report object with to_json_dict."""
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
