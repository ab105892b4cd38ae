"""Enumeration oracles shared by the test modules."""

import functools

import numpy as np

from hermvar.bounds import cone_counts
from hermvar.cubics import max_cubic_intersection
from hermvar.field import make_field
from hermvar.hermitian import HermitianForm, gram, hyperplane_section_counts, standard_form
from hermvar.projgeom import incidence_blocks, matrix_rank, num_points
from hermvar.search import PencilScanReport, _dual_line_digits, gaussian_binomial


def axis_counts(geo, block=4096):
    """Points of the variety on the axis of every pencil of geo.planes: the
    popcount of the AND of its first two members' incidence rows of geo.Z,
    a block of pencils at a time."""
    out = np.empty(len(geo.planes), dtype=np.int64)
    for a in range(0, len(out), block):
        p = geo.planes[a : a + block]
        rows = geo.Z[p[:, 0]] & geo.Z[p[:, 1]]
        out[a : a + block] = np.bitwise_count(rows).sum(axis=1)
    return out


def evaluate_poly(C, coords, ctx):
    """C's value at one point, monomial by monomial: the scalar oracle."""
    acc = 0
    for exp, c in C.monomials:
        t = c
        for x, e in zip(coords, exp):
            if e:
                if x == 0:
                    t = 0
                    break
                t = ctx.mul(t, ctx.pow(x, e))
        if t:
            acc = ctx.add(acc, t)
    return acc


def line_counts_all(zeros, ctx):
    """Number of the points `zeros` (rows of point_array(2, ctx)) on each
    line of P^2, in canonical line order: the dot values of every line
    with every zero, one incidence_blocks pass over all q^4 + q^2 + 1
    lines."""
    out = np.empty(num_points(2, ctx.q), dtype=np.int64)
    for a, b, block in incidence_blocks(2, zeros, ctx):
        out[a:b] = np.count_nonzero(block == 0, axis=1)
    return out


def congruent_form(n, ctx, seed):
    """A A^(q)T for a seeded random invertible A: a non-degenerate form
    congruent to the standard one, with nonzero off-diagonal entries."""
    rng = np.random.default_rng(seed)
    f = standard_form(n, ctx)
    while True:
        A = [tuple(int(x) for x in r) for r in rng.integers(0, ctx.order, (n + 1, n + 1))]
        if matrix_rank(A, ctx) == n + 1:
            H = tuple(tuple(gram(f, a, b) for b in A) for a in A)
            if any(H[i][j] for i in range(n + 1) for j in range(n + 1) if i != j):
                return HermitianForm(H, n, ctx)


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


def pencil_scan_enum(n, q):
    """pencil_triples_scan's report by enumeration: every pencil is one dual
    line, visited once by dual_gram_keys; its dual Gram key fixes the axis's
    point count and the number of tangent members (_pencil_kinds), so the
    pencils are counted by key and the report is read from the key
    histogram."""
    mf = max_cubic_intersection(n, q)
    ctx = make_field(q)
    Q = ctx.order
    pencils = gaussian_binomial(n + 1, 2, Q)
    hist = np.zeros(Q**3, dtype=np.int64)
    for keys in dual_gram_keys(n, ctx):
        hist += np.bincount(keys, minlength=len(hist))
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
    )
