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
hyperplanes.  Z is built grouped by prefix on both sides: the hyperplanes
come in runs of q^2 that share all coordinates but the last, and the
variety's points share theirs in runs of a norm fibre, so one kernel pass
per distinct point prefix against the hyperplane prefixes gives every dot
value, and each member of a hyperplane run is one table compare against it.

Codimension-2 subspaces are enumerated directly as reduced-row-echelon dual
lines (two-row RREF matrices of covectors), which visits every pencil
exactly once without deduplication.  A walk over the RREF free digits,
_dual_line_digits, gives the ranks of a line's members: each is a sum of
terms in one or two free digits, so the catalog is built as broadcast sums
over a bounded slice of the digit grid, never as rows.  The pencil scan
visits no dual line: by polarity the rank of a pencil's 2 x 2 dual Gram
matrix fixes the axis's section shape and which members are tangent, and
each rank is one unitary orbit of closed-form size, so the scan's report
is read from three orbit counts.
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
    _top_table,
)
from .errors import BudgetExceeded, OutOfRange
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
_VERIFY_SAMPLES = 1000  # random triples a triple search checks three ways
_EVAL_CHUNK_BYTES = 16 << 20  # working set of the random-cubic evaluation
# M * K * N of one float32 product of that evaluation.  OpenBLAS splits a
# product of M K N >= 2^19 across its threads (above 10^6 where it has an
# AVX-512 small-matrix kernel), which then spin on the other cores after the
# call: the split ran slower per column and made the job's time depend on
# what else ran on those cores.  At 2^18 every product runs on the calling
# thread, and a final product's output stays in L2 with its mod-p reduction.
_PRODUCT_MNK = 1 << 18
# A float32 sum of integers is exact below 2^24: the contraction reduces a
# tensor mod p only when the next product's tracked bound would reach this.
_UNREDUCED_LIMIT = 1 << 24
_LINE_SLICE = 1 << 20  # dual lines per slice of the catalog


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
    dot values V of these prefixes with the points' first n coordinates,
    once per distinct point prefix (one per run of rows that share it, see
    _prefix_starts), spreads them to the points, and a run's Q rows are
    -a_n x_n == V, one table compare each.  The kernel (incidence_blocks)
    walks the prefixes as broadcast grids of P^{n-1}, and the table `last`
    of -a_n x_n is gathered C-contiguous, so each compare reads a
    contiguous row of it (a row gather then a column gather would leave it
    Fortran-ordered, every compare striding by Q)."""
    Q = ctx.order
    Z = np.empty((num_points(n, ctx.q), (len(upts) + 7) // 8), dtype=np.uint8)
    new = _prefix_starts(upts, n)
    inv = np.cumsum(new) - 1  # each point's distinct prefix
    last = ctx.mul_table[ctx.neg_table[:, None], upts[:, n]]  # -a_n x_n, every a_n
    for a, b, V in incidence_blocks(n - 1, upts[new, :n], ctx):
        V = V.take(inv, axis=1)
        for c in range(Q):
            Z[a * Q + c : b * Q : Q] = np.packbits(last[c] == V, axis=1)
    Z[-1] = np.packbits(upts[:, n] == 0)
    return Z


def _prefix_starts(pts, n):
    """Mask of the rows of pts whose first n coordinates differ from the
    previous row's; the first row always starts a prefix."""
    new = np.ones(len(pts), dtype=bool)
    new[1:] = (pts[1:, :n] != pts[:-1, :n]).any(axis=1)
    return new


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


def hyperplane_tangency(n, q):
    """Tangency kind of every canonical hyperplane of P^n (standard form): it
    is self-dual, so a is tangent iff sum N(a_t) = 0, as U_n's mask says."""
    ctx = make_field(q)
    return variety_mask(standard_form(n, ctx))


@dataclass
class _Geometry:
    N: int
    Z: np.ndarray  # bit-packed hyperplane x variety-point incidence
    tangent: np.ndarray  # per-hyperplane tangency, also U_n's point mask
    S: np.ndarray  # per-hyperplane section counts (from tangency)
    planes: np.ndarray  # pencil member ranks per codim-2 subspace
    stages: dict  # stage wall times and work counts


def _variety_incidence(n, q, budget):
    """The geometry of U_n that needs no pencils: U_n's points upts, the
    incidence Z, every hyperplane's tangency and section count S, and the
    stage times and the number of dot values Z's kernel computed.  By
    self-duality one mask gives both U_n's points and its tangent
    hyperplanes.  S comes from the tangency and is asserted equal to the
    popcounts of Z's rows.  The budget gates Z's cells, N * |U_n|."""
    ctx = make_field(q)
    cells = num_points(n, q) * nondegenerate_count(n, q)
    if cells > budget:
        raise BudgetExceeded(cells, budget, what="incidence cells")
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
    # dot values the incidence kernel computed: hyperplane x point prefixes
    stages["prefix_dots"] = num_points(n - 1, q) * int(_prefix_starts(upts, n).sum())
    return upts, Z, tangent, S, stages


def build_geometry(n, q, budget=DEFAULT_POINT_BUDGET):
    """Incidence, tangency and pencil catalog of the variety."""
    _, Z, tangent, S, stages = _variety_incidence(n, q, budget)
    t3 = time.time()
    planes = dual_line_catalog(n, make_field(q))
    stages.update(catalog_s=time.time() - t3, pencils=len(planes))
    return _Geometry(len(Z), Z, tangent, S, planes, stages)


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
    stages: dict  # stage times and work counts, not serialized

    def to_json_dict(self):
        return _json_fields(self, "triple_search")


def exhaustive_triples(n, q, budget=DEFAULT_POINT_BUDGET, seed=0):
    """Exact maximum of |union of three hyperplanes meet variety| over all
    unordered triples, with full histogram and re-verified argmax list.
    The report's `stages` holds build_geometry's stages and the wall time
    of the count products, the pencil loop, the argmax labels and the
    sampled checks, with the number of samples."""
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
    t1 = time.time()
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
    t2 = time.time()
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

    t3 = time.time()
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
    t4 = time.time()
    rng = np.random.default_rng(seed)
    verified = 0
    for _ in range(_VERIFY_SAMPLES):
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
        stages=dict(
            geo.stages,
            products_s=t2 - t1,
            loop_s=t3 - t2,
            labels_s=t4 - t3,
            samples_s=time.time() - t4,
            samples=verified,
        ),
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

    def to_json_dict(self):
        return _json_fields(self, "pencil_scan")


def _unitary_order(m, q):
    """|U(m, q^2)| = q^(m(m-1)/2) prod_{i<=m} (q^i - (-1)^i)."""
    return q ** (m * (m - 1) // 2) * math.prod(q**i - (-1) ** i for i in range(1, m + 1))


def pencil_triples_scan(n, q):
    """Best triple within every pencil (three hyperplanes through a common
    codimension-2 subspace), over all such subspaces, in closed form.

    This covers the stratum where the global maximum lives.  A pencil is a
    dual line, and the rank of its 2 x 2 dual Gram matrix fixes its unitary
    orbit (Witt's theorem).  The vertex of the axis's section is the axis's
    meet with its polar line, of vector dimension 2 - rank, and a member is
    tangent iff it is an isotropic point of the line, so each orbit has one
    axis count (cone_counts) and one number of tangent members:

      rank 2: L2 = |U(n+1)| / (|U(2)| |U(n-1)|) pencils, axis U, q + 1;
      rank 0: L0 = TI(n+1, 2) totally isotropic lines, axis Pi1U, q^2 + 1;
      rank 1: the other L1 lines, axis Pi0U, 1 tangent member.

    Every member contains the axis, so a pencil's best triple is its three
    largest member section counts less twice the axis count.  All counts
    are Python ints; no dual line is visited.
    """
    mf = max_cubic_intersection(n, q)  # refuses n < 4
    Q = q * q
    pencils = gaussian_binomial(n + 1, 2, Q)
    nd = _unitary_order(n + 1, q) // (_unitary_order(2, q) * _unitary_order(n - 1, q))
    ti = math.prod(q**j - (-1) ** j for j in range(n - 2, n + 2)) // ((Q - 1) * (Q * Q - 1))
    u, cone0, cone1 = cone_counts(n, q)
    s_tan, s_non = hyperplane_section_counts(n, q)
    profile, best_of = {}, {}
    for shape, count, axis, t in (
        ("U", nd, u, q + 1),
        ("Pi0U", pencils - nd - ti, cone0, 1),
        ("Pi1U", ti, cone1, Q + 1),
    ):
        key = f"{shape}|tangent_members={t}"
        profile[key] = count
        best_of[key] = sum(sorted([s_tan] * t + [s_non] * (Q + 1 - t))[-3:]) - 2 * axis
    best = max(best_of.values())
    return PencilScanReport(
        n=n,
        q=q,
        pencils=pencils,
        best_count=best,
        max_formula_value=mf,
        best_is_formula_max=best == mf,
        best_structures={key: profile[key] for key in profile if best_of[key] == best},
        tangent_members_by_section=profile,
    )


# -- incidence double counting -------------------------------------------------


def _column_counts(rows, width):
    """Number of set bits in each of the first `width` columns of the
    bit-packed rows, as int64; padding bits past `width` are ignored.

    The rows are unpacked 255 at a time and each run is summed in uint8,
    which is exact since 255 bits cannot overflow it, then added into an
    int64 total: the whole matrix is never unpacked."""
    out = np.zeros(width, dtype=np.int64)
    for a in range(0, len(rows), 255):
        bits = np.unpackbits(rows[a : a + 255], axis=1, count=width)
        out += bits.sum(axis=0, dtype=np.uint8)
    return out


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
    tangent_through = _column_counts(Z[cov_ranks], nU)
    uniform = bool((tangent_through == tangent_through[0]).all())
    t_count = int(tangent_through[0])
    # hyperplane side
    n_tangent = int(kinds.sum())
    hyps_through = _column_counts(Z, nU)
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


@functools.lru_cache(maxsize=None)
def _root_table(ctx):
    """cnt[slab, u, v, w], a read-only uint8 array of shape (3, Q, Q, Q),
    built once per field context (14.5 MB at q = 13): for slabs 0 and 1 the
    number of mu in U = ctx.norm_fibres[1], the elements of norm 1, with
    c3 mu^3 + u mu^2 + v mu + w = 0 at c3 = 1 and c3 = 0; slab 2 is
    [w = 0].  One fancy += per mu of the lam-polynomial table on U's rows:
    a fixed mu's indices (u * Q + v, -TT[mu, u * Q + v]) are distinct."""
    Q = ctx.order
    cnt = np.zeros((3, Q * Q, Q), dtype=np.uint8)
    rows = np.arange(Q * Q)
    for slab, c3 in enumerate((1, 0)):
        for tt in _top_table(c3, 3, ctx, ctx.norm_fibres[1]):
            cnt[slab, rows, ctx.neg_table[tt]] += 1
    cnt[2, :, 0] = 1
    cnt.setflags(write=False)
    return cnt.reshape(3, Q, Q, Q)


def _digit_matrix(ctx, ys, scale):
    """The float32 matrix, m * len(ys) by 4 * m, whose entry [(o, l), (i, j)]
    is digit o of scale[l] * ys[l]^i * p^j (p^j the index of the j-th
    basis element).  Times a coefficient tensor's digits, rows (i, j) the
    digit j of the coefficient of y^i, it gives digit o of
    scale[l] * sum_i c_i ys[l]^i, mod p, at every l: ctx.mul_matrices
    applied to the powers of ys."""
    pw = [scale]
    for _ in range(3):
        pw.append(ctx.mul_table[pw[-1], ys])
    M = ctx.mul_matrices[np.stack(pw, axis=1)]  # [l, i, o, j]
    return M.transpose(2, 0, 1, 3).reshape(-1, 4 * ctx.ndigits).astype(np.float32)


def _matmul(P, X, out):
    """out = P @ X for a float32 matrix P, (M, K), and a stack X, (..., K, N),
    in slices of X's columns with M K N at most _PRODUCT_MNK each, so that
    BLAS runs every slice on the calling thread."""
    w = max(1, _PRODUCT_MNK // P.size)
    for a in range(0, X.shape[-1], w):
        np.matmul(P, X[..., a : a + w], out=out[..., a : a + w])
    return out


def _mod_p(Y, p, scratch):
    """Y mod p in place for a float32 array of integers below 2^24, as
    Y - p * floor(Y / p) with true division: exact, since Y / p is an
    integer or at least 1/p away from one.  The first Y.size entries of
    the flat float32 array scratch hold the quotients."""
    F = np.divide(Y, p, out=scratch[: Y.size].reshape(Y.shape))
    np.floor(F, out=F)
    F *= p
    Y -= F
    return Y


def _cubic_coefficients(polys, n, ctx):
    """(coef, c3): each cubic's coefficients over monomial_exponents(n, 3),
    one uint8 row per cubic, scaled by the inverse of its x_n^3
    coefficient c3 where c3 != 0 (the zero set is unchanged), and the c3
    of each."""
    exps = monomial_exponents(n, 3)
    coef = np.zeros((len(polys), len(exps)), dtype=np.uint8)
    col = {e: r for r, e in enumerate(exps)}
    for t, C in enumerate(polys):
        for e, c in C.monomials:
            coef[t, col[e]] = c
    c3 = coef[:, col[(0,) * n + (3,)]]
    inv = ctx.inv_table[np.where(c3 == 0, 1, c3)]
    return ctx.mul_table[inv[:, None], coef], c3


def _scaled_parts(coef, n, ctx, stages):
    """The parts C_k' = lam_r^(k-3) C_k, k = 0, 1, 2, of the cubics with
    coefficient rows coef (over monomial_exponents(n, 3)) at every
    canonical prefix, evaluated grid by grid, never point by point.
    Yields (b0, ranks, r, Y): ranks, shape (L, c), the prefixes' rows of
    point_array(n - 1), r, shape (L,), the norm each row of ranks needs of
    x_n, and Y the float32 digits, shape (3, m, L, c, cubics), of C_k' at
    those prefixes for the cubics b0 .. b0 + Y.shape[-1] - 1; Y[k, j] is
    digit j of C_k', in a buffer that the next chunk overwrites.  Here
    C = sum_k x_n^k C_k, lam_r = norm_fibres[r][0] and lam_0^(k-3) := 1.
    Every prefix is yielded once per cubic.  The time of the block set-up
    (walk_s) and the counts of prefixes, points of U_n and contraction
    passes (chunks) are added into the dict stages.

    The prefixes of pivot block s are the grid (0 .. 0, 1, y), y in
    F_{q^2}^g with g = n - 1 - s.  A part's coefficient tensor, one slot
    per exponent vector of y in {0..3}^g, is contracted over its F_p
    digits one coordinate at a time, y_g first (_digit_matrix, each
    tensor reduced mod p).  y_1 comes last, once per column class
    sigma = 1 + sum_{j>=2} N(y_j) and part k, with the rows scaled by
    lam_r^(k-3) for r = -(sigma + N(y_1)), so C_k' comes out of the
    product.  The block of the prefix (0 .. 0, 1) has g = 0: its pivot
    stands in for y_1, with the one value 1 and sigma = 0.  Products run
    in float32 on digit matrices with entries below p, so a product's
    entries are at most 4 m (p-1) times its input's.  The coefficient
    tensor and the final products are reduced mod p; between them that
    bound is tracked, and a tensor is reduced before a product only when
    the product's bound would reach _UNREDUCED_LIMIT (at (4,7) the final
    products reach 663,552, so no reduction runs between).  Cubics are
    batched and the column classes split so that the pre-final tensor and
    each final part's products take a quarter of _EVAL_CHUNK_BYTES at most,
    and every product has M K N at most _PRODUCT_MNK (_matmul); a block too
    wide for one cubic is cut into grids that fix its last coordinates to
    every value in turn, each grid's tensor the monomials' coefficients
    times the fixed values' powers.  With the reduction's scratch and the
    caller's keys, the live arrays stay within _EVAL_CHUNK_BYTES, beside
    the caller's root table."""
    p, m, Q, T = ctx.p, ctx.ndigits, ctx.order, len(coef)
    add, mul, neg, nrm = ctx.add_table, ctx.mul_table, ctx.neg_table, ctx.norm_table
    grow = 4 * m * (p - 1)  # a product's entries per unit of its input's
    assert grow * (p - 1) < 2**24, "float32 sums would not be exact"

    def reduced(X, bound):
        """X and its entries' bound, reduced mod p first if a product of X
        could reach _UNREDUCED_LIMIT."""
        if grow * bound >= _UNREDUCED_LIMIT:
            return _mod_p(X, p, scratch), p - 1
        return X, bound

    exps = monomial_exponents(n, 3)
    # scale[k][r] = lam_r^(k-3), 1 at r = 0; fibre[r] = |{lam : N(lam) = r}|
    lam_inv = np.ones(Q, dtype=np.uint8)
    fibre = np.zeros(Q, dtype=np.int64)
    for r, lam in ctx.norm_fibres.items():
        lam_inv[r] = ctx.inv_table[lam[0]] if r else 1
        fibre[r] = len(lam)
    scale = [lam_inv]
    for _ in range(2):
        scale.insert(0, mul[scale[0], lam_inv])
    x = np.arange(Q, dtype=np.uint8)
    P = _digit_matrix(ctx, x, np.ones(Q, dtype=np.uint8))
    finals = {}  # (sigma, len(ys)): y_1's matrices, part k scaled by lam_r^(k-3)
    per_col = 48 * m  # bytes of one cubic's pre-final column: 3 parts x 4m rows
    part = _EVAL_CHUNK_BYTES // 4
    max_cols = part // per_col  # columns of a grid for one cubic
    offs = _rank_offsets(n - 1, Q)
    pw = np.stack([np.ones(Q, dtype=np.uint8), x, mul[x, x], mul[mul[x, x], x]], axis=1)
    t0 = time.time()
    for s in range(n):
        g = n - 1 - s
        ys = x if g else x[1:2]
        L = len(ys)
        # the free coordinates: y_1 .. y_g, or the pivot alone at g = 0; a
        # grid keeps the first G of them, at most max_cols columns, and fixes
        # the last f to every value in turn
        G0 = max(g, 1)
        G = next(G for G in range(G0, 0, -1) if G == 1 or Q ** (G - 1) <= max_cols)
        f, C = G0 - G, Q ** (G - 1)
        # each monomial of the block: exponents 0 before the pivot, x_n^k
        # with k < 3, and e its exponents of x_{n-G0} .. x_{n-1}
        rows = [i for i, e in enumerate(exps) if e[n] < 3 and not any(e[:s])]
        ks = np.array([exps[i][n] for i in rows])
        e = np.array([exps[i][n - G0 : n] for i in rows])
        slots = np.ravel_multi_index(e[:, :G].T, (4,) * G)
        cf = coef[:, rows].T
        stages["prefixes"] += L * Q ** (G0 - 1)
        tb = int(np.clip(part // (per_col * C), 1, T))
        lead = ys.astype(np.int64) * Q ** (g - 1) if g else np.zeros(1, dtype=np.int64)
        for vals in itertools.product(range(Q), repeat=f):
            sigma, rank, mult = int(g > 0), offs[s], np.ones(len(rows), dtype=np.uint8)
            for i, v in enumerate(vals):
                sigma = add[sigma, nrm[v]]
                rank += v * Q ** (f - 1 - i)
                mult = mul[mult, pw[v, e[:, G + i]]]
            sig = np.full(1, sigma, dtype=np.uint8)
            for _ in range(G - 1):
                sig = add[sig[:, None], nrm].ravel()
            order = np.argsort(sig, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(sig[order])) + 1)
            for idx in groups:
                stages["points"] += len(idx) * int(fibre[neg[add[sig[idx[0]], nrm[ys]]]].sum())
            # columns of one final product: its bytes and its M K N capped
            cap = min(part // 3 // (4 * m * L * tb), _PRODUCT_MNK // (4 * m * m * L * tb))
            step = min(max(1, cap), max(map(len, groups)))
            buf = np.empty(3 * m * L * step * tb, dtype=np.float32)
            scratch = np.empty(max(len(buf), 12 * m * C * tb), dtype=np.float32)
            for b0 in range(0, T, tb):
                # the grid's coefficient tensor in digits, [k, slot, j, t];
                # fixed coordinates can send several monomials to one slot
                c = mul[mult[:, None], cf[:, b0 : b0 + tb]]
                X = np.zeros((3, 4**G, m, c.shape[1]), dtype=np.float32)
                np.add.at(X, (ks, slots), ctx.digit_table[:, c].transpose(1, 0, 2))
                X, bound = _mod_p(X, p, scratch).reshape(-1, 4 * m, c.shape[1]), p - 1
                stages["walk_s"] += time.time() - t0
                stages["chunks"] += 1
                for _ in range(G - 1):  # y_G .. y_2, each a new leading column axis
                    X, bound = reduced(X, bound)
                    Y = np.empty((len(X), len(P), X.shape[-1]), dtype=np.float32)
                    X = _matmul(P, X, Y).reshape(-1, 4 * m, Q * Y.shape[-1])
                    bound *= grow
                X = reduced(X, bound)[0].reshape(3, 4 * m, C, -1)
                for idx in groups:
                    sigma = int(sig[idx[0]])
                    r = neg[add[sigma, nrm[ys]]]
                    if (sigma, L) not in finals:
                        finals[sigma, L] = [_digit_matrix(ctx, ys, scale[k][r]) for k in range(3)]
                    for a in range(0, len(idx), step):
                        cols = idx[a : a + step]
                        Xg = X[:, :, cols]
                        Y = buf[: 3 * m * L * Xg[0, 0].size].reshape(3, m * L, -1)
                        for k, Pk in enumerate(finals[sigma, L]):
                            _matmul(Pk, Xg[k].reshape(4 * m, -1), Y[k])
                        _mod_p(Y, p, scratch)
                        ranks = lead[:, None] + (rank + cols * Q**f)
                        yield b0, ranks, r, Y.reshape(3, m, L, len(cols), -1)
                t0 = time.time()
    stages["walk_s"] += time.time() - t0


def _zero_counts(polys, n, ctx, stages):
    """Zeros of each cubic on U_n, the standard form's variety, from the
    scaled parts at every canonical prefix (_scaled_parts, which adds its
    stage times and counts into the dict stages) and one gather of the
    root table per chunk.

    A point of U_n is a prefix and one x_n = lam with N(lam) = r.  Each
    cubic is scaled by 1 / c3, c3 its x_n^3 coefficient, when c3 != 0
    (kind 0, c3 = 1) and kept when c3 = 0 (kind 1).  For r != 0 the fibre
    is lam_r U, U the q + 1 elements of norm 1, and
    C(pre, lam_r mu) = lam_r^3 (c3 mu^3 + C_2' mu^2 + C_1' mu + C_0'); for
    r = 0 the one point, lam = 0, is a zero iff C_0 = C_0' = 0.  So a
    prefix's zeros are the entry of _root_table at
    key = slab Q^3 + C_2' Q^2 + C_1' Q + C_0', slab the kind, or 2 at
    r = 0.  The keys, below 3 Q^3 < 2^24, are exact in float32, and so are
    a chunk's hits, summed per cubic by a float32 ones-row product."""
    p, m, Q = ctx.p, ctx.ndigits, ctx.order
    assert 3 * Q**3 < 2**24, "float32 keys would not be exact"
    coef, c3 = _cubic_coefficients(polys, n, ctx)
    slab = np.where(c3 == 0, Q**3, 0).astype(np.float32)
    cnt = _root_table(ctx).ravel()
    weights = (Q ** np.arange(3)[:, None] * p ** np.arange(m)).astype(np.float32).ravel()
    counts = np.zeros(len(polys), dtype=np.int64)
    for b0, _, r, Y in _scaled_parts(coef, n, ctx, stages):
        tb = Y.shape[-1]
        key = (weights @ Y.reshape(3 * m, -1)).reshape(len(r), -1, tb)
        key += np.where((r == 0)[:, None, None], np.float32(2 * Q**3), slab[b0 : b0 + tb])
        hits = cnt.take(key.astype(np.intp)).reshape(-1, tb).astype(np.float32)
        assert len(hits) * (ctx.q + 1) < 2**24, "float32 hit sums would not be exact"
        sums = _matmul(np.ones((1, len(hits)), np.float32), hits, np.empty((1, tb), np.float32))
        counts[b0 : b0 + tb] += sums[0].astype(np.int64)
    return counts


def random_cubic_sample(
    n, q, trials, seed, workers=1, budget=DEFAULT_POINT_BUDGET
):
    """Sample uniformly random cubics, discard those divisible by a linear
    form, and compare each retained intersection count against the
    cubic-split threshold.  Exceedances at q >= 7 are counterexample
    candidates and carry the full polynomial.  The threshold is computed
    first, so n < 4 raises OutOfRange before any trial.

    Trial t draws its cubic from the seed sequence (seed, t).  Every
    retained cubic is then counted on the points of U_n only, all of them
    together, without a scan of P^n or a point array (see _zero_counts):
    the parts C_0, C_1, C_2 of C = sum_k x_n^k C_k are evaluated on each
    pivot block's grid of canonical prefixes (x_0 .. x_{n-1}), about 1/q^2
    of P^n, by one F_p tensor contraction per coordinate, and each prefix's
    zeros over its norm fibre are one entry of a root-count table over the
    q + 1 elements of norm 1.  The call runs in one process; `workers` is
    accepted and ignored.  The report's `stages` holds the wall time of the
    linear-factor screen, the block set-up (walk_s) and the rest of the
    evaluation, and the counts of prefixes, points of U_n, trials batched
    and contraction passes (chunks).  The budget gates |U_n|, the points
    evaluated per cubic, which stages["points"] counts."""
    if trials < 0:
        raise OutOfRange(f"trials={trials} must be >= 0")
    threshold = cubic_bound_closed(n, q)
    t0 = time.time()
    ctx = make_field(q)
    points = nondegenerate_count(n, q)
    if points > budget:
        raise BudgetExceeded(points, budget)
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
