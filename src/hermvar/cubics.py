"""Cubic hypersurfaces and their intersections with the Hermitian variety.

Unions of three hyperplanes are the central objects: their intersection
count with the variety is assembled exactly by one inclusion-exclusion rule,
the three hyperplane sections minus the three pairwise sections plus the
triple one, each counted from its section classification.  In a pencil every
pair and the triple meet in the common axis, so the rule reads
sum(sections) - 2*axis there.  Full point enumeration is kept as an
independent oracle.

Degree is kept parametric (monomials of any fixed degree d) so the affine
section-bound checker can exercise d = 2 as well; only the d = 3 maxima
carry closed formulas.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DuplicateHyperplanes,
    InsufficientPencilMembers,
    OutOfRange,
    PreconditionViolated,
)
from .hermitian import (
    DEFAULT_POINT_BUDGET,
    classify_hyperplanes,
    classify_section,
    eval_form_at,
    form_scan,
    nondegenerate_count,
    section_count,
)
from .projgeom import (
    Hyperplane,
    LinearSubspace,
    combine_rows,
    enumerate_hyperplanes,
    incidence_blocks,
    intersect_hyperplanes,
    normalize_rows,
    nullspace,
    num_points,
    pencil_through,
    point_array,
    point_rank_array,
    subspace_point_array,
)


@dataclass(frozen=True)
class Hypersurface:
    """Homogeneous form of fixed degree, as a sorted monomial table.

    ``monomials`` is a tuple of (exponent_tuple, coeff) pairs in descending
    graded-lex order with the leading coefficient scaled to 1 (projective
    canonical form).
    """

    monomials: tuple
    n: int
    degree: int


def make_hypersurface(coeffs, n, degree, ctx):
    """Build the canonical Hypersurface from an exponent->coefficient map."""
    items = []
    for exp, c in coeffs.items():
        if c == 0:
            continue
        assert len(exp) == n + 1 and sum(exp) == degree and min(exp) >= 0
        items.append((tuple(exp), c))
    if not items:
        raise ValueError("zero polynomial does not define a hypersurface")
    items.sort(key=lambda t: t[0], reverse=True)
    lead = items[0][1]
    if lead != 1:
        inv = ctx.inv(lead)
        items = [(e, ctx.mul(inv, c)) for e, c in items]
    return Hypersurface(tuple(items), n, degree)


@functools.lru_cache(maxsize=None)
def monomial_exponents(n, degree):
    """All exponent tuples of the given degree, descending graded-lex, as a
    tuple shared by every caller."""
    out = set()
    for combo in itertools.combinations_with_replacement(range(n + 1), degree):
        exp = [0] * (n + 1)
        for i in combo:
            exp[i] += 1
        out.add(tuple(exp))
    return tuple(sorted(out, reverse=True))


def random_hypersurface(n, degree, ctx, rng):
    """Uniform coefficients over F_{q^2}, zero polynomial rejected."""
    exps = monomial_exponents(n, degree)
    while True:
        cs = rng.integers(0, ctx.order, size=len(exps))
        if cs.any():
            return make_hypersurface(
                {e: int(c) for e, c in zip(exps, cs)}, n, degree, ctx
            )


def _accumulate(out, terms, ctx):
    """Add the (exponent, coefficient) terms into the dict out, dropping
    the exponents whose coefficient sums to zero; returns out."""
    for e, c in terms:
        s = ctx.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pmul(A, B, ctx):
    return _accumulate(
        {},
        (
            (tuple(x + y for x, y in zip(ea, eb)), ctx.mul(ca, cb))
            for ea, ca in A.items()
            for eb, cb in B.items()
        ),
        ctx,
    )


def expand_product(hyperplanes, ctx):
    """The hypersurface cut out by the product of the linear forms."""
    n = hyperplanes[0].n
    acc = None
    for h in hyperplanes:
        lin = {
            tuple(int(i == j) for j in range(n + 1)): c
            for i, c in enumerate(h.covector)
            if c
        }
        acc = lin if acc is None else _pmul(acc, lin, ctx)
    return make_hypersurface(acc, n, len(hyperplanes), ctx)


def _horner(terms, cols, ctx):
    """Values of sum(c * x^exp) over the (exp, c) terms, with cols[i]
    holding x_i at each point; for the broadcastable columns of a grid the
    values come as an array that broadcasts to the grid.

    Terms are grouped by their first variable x_i and each group is
    x_i * (that group with one x_i removed), so a shared prefix is
    multiplied once; a group whose rest is a constant c is c * x_i.  The
    constant terms are added last; a sum of constants alone is a Python
    int."""
    const, groups = 0, {}
    for exp, c in terms:
        i = next((k for k, e in enumerate(exp) if e), None)
        if i is None:
            const = ctx.add(const, c)
        else:
            groups.setdefault(i, []).append((exp[:i] + (exp[i] - 1,) + exp[i + 1 :], c))
    acc = None
    for i, sub in groups.items():
        h = _horner(sub, cols, ctx)
        if isinstance(h, int):
            if not h:
                continue
            t = cols[i] if h == 1 else ctx.vscale(h, cols[i])
        else:
            t = ctx.vmul(cols[i], h)
        acc = t if acc is None else ctx.vadd(acc, t)
    if acc is None:
        return const
    return ctx.vadd(acc, const) if const else acc


def eval_poly_at(C, pts, ctx):
    """Vectorized values of the form at each row of a point-index array,
    evaluated by shared prefixes (a dense quinary cubic costs 20 vmul,
    35 vscale and 34 vadd): the per-point oracle, which the enumerations of
    lines, planes and hyperplanes call.  intersect_count_enum does not call
    it: it passes C's parts C_k and the broadcastable columns of a prefix
    grid to the same _horner, and tests a form key's zeros together with
    one gather of a lam table (see _top_table)."""
    cols = [np.ascontiguousarray(pts[:, i]) for i in range(C.n + 1)]
    return _horner(C.monomials, cols, ctx)


# -- enumeration ------------------------------------------------------------


def _top_table(top, d, ctx, lam=None):
    """TT[i, u * Q + v] = top l^d + u l^(d-1) + v l^(d-2) at l = lam[i],
    the part of C in l from its top coefficient and its parts
    u = C_{d-1}(p), v = C_{d-2}(p) (v = 0 and no v term at d = 1), as a
    (len(lam), Q^2) table; lam defaults to every field element."""
    Q = ctx.order
    mul, add = ctx.mul_table, ctx.add_table
    x = np.arange(Q, dtype=np.uint8)
    if lam is None:
        lam = x
    pw = [np.ones(len(lam), dtype=np.uint8)]  # l^0 = 1, also at l = 0
    for _ in range(d):
        pw.append(mul[pw[-1], lam])
    hi = add[mul[top, pw[d]][:, None], mul[pw[d - 1][:, None], x]]
    lo = mul[pw[d - 2][:, None], x] if d >= 2 else np.zeros((len(lam), Q), np.uint8)
    return add[hi[:, :, None], lo[:, None, :]].reshape(len(lam), Q * Q)


def _substitute(terms, fixed, ctx):
    """The (exp, c) terms with x_j = fixed[j] put in for each j of the dict
    fixed, as a list of terms with distinct exponents and nonzero
    coefficients."""
    out = {}
    for exp, c in terms:
        for j, v in fixed.items():
            if exp[j]:
                c = ctx.mul(c, ctx.pow(v, exp[j]))
                exp = exp[:j] + (0,) + exp[j + 1 :]
        _accumulate(out, [(exp, c)], ctx)
    return list(out.items())


def intersect_count_enum(C, f, budget=DEFAULT_POINT_BUDGET):
    """|V(C) meet V(f)| by reading the form's value at every point of P^n
    from form_scan's table (which checks the budget) and evaluating C at
    each of its zeros, in one process and without a point array.

    C = sum_k x_n^k C_k(x_0 .. x_{n-1}).  form_scan yields the prefixes as
    grids of broadcastable columns; each C_k, with the grid's constant
    columns (the zeros before the pivot, the pivot's 1, a lone run's leading
    digits) put in (_substitute), is evaluated by _horner on the columns, so
    its terms in the last coordinates are summed on sub-grids before they
    are spread over the grid.  A grid's prefixes are sorted by form key, and
    all prefixes of one key share its zeros lam, a row of form_scan's
    table.  C at (p, lam) is TT[lam, w(p)] + R(p, lam), with TT
    from _top_table, w = C_{d-1} * Q + C_{d-2} and R = sum_{k<d-2} lam^k
    C_k(p) (C_0 at d = 3, 0 below), so a key's group of prefixes is tested
    at its zeros with one (zeros x prefixes) gather of TT.  e_n is a zero
    iff H[n][n] = 0, and lies on C iff C has no x_n^d term."""
    ctx, n, d = f.ctx, f.n, C.degree
    Q = ctx.order
    top = dict(C.monomials).get((0,) * n + (d,), 0)  # C_d, the value at e_n
    parts = {}
    for exp, c in C.monomials:
        parts.setdefault(exp[n], []).append((exp[:n], c))
    T, chunks = form_scan(f, budget)
    TT = _top_table(top, d, ctx)
    zl, lams = np.nonzero(T == 0)  # each key's zeros, keys ascending
    bounds = np.searchsorted(zl, np.arange(Q * Q + 1))
    count = int(f.matrix[n][n] == 0 and top == 0)
    for cols, key in chunks:
        order = np.argsort(key.ravel(), kind="stable")

        def on_grid(a):  # a grid array, in the sorted prefix order
            return np.broadcast_to(a, key.shape).ravel()[order]

        fixed = {j: int(c.item()) for j, c in enumerate(cols) if c.size == 1}
        Ck = [_horner(_substitute(parts.get(k, ()), fixed, ctx), cols, ctx) for k in range(d)]
        w = on_grid(np.asarray(Ck[d - 1], dtype=np.intp) * Q + (Ck[d - 2] if d >= 2 else 0))
        Ck = [on_grid(c) for c in Ck[: max(d - 2, 0)]]
        key = key.ravel()[order]
        cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(key)]):
            k = int(key[s])
            z = lams[bounds[k] : bounds[k + 1]]
            if not len(z):
                continue
            zc = z[:, None]
            R = Ck[d - 3][s:e] if d >= 3 else 0
            for j in range(d - 4, -1, -1):
                R = ctx.add_table[ctx.mul_table[zc, R], Ck[j][s:e]]
            count += int(np.count_nonzero(TT[zc, w[s:e]] == ctx.neg_table[R]))
    return count


# -- arrangements -----------------------------------------------------------


@dataclass(frozen=True)
class Arrangement:
    """An ordered triple of distinct hyperplanes with its tangency pattern
    and the section type of the common intersection."""

    hyperplanes: tuple
    tangency: tuple
    pi_section: object  # SectionType of the common intersection
    n: int
    q: int

    def to_json_dict(self, count=None):
        d = {
            "n": self.n,
            "q": self.q,
            "covectors": [list(h.covector) for h in self.hyperplanes],
            "tangency": list(self.tangency),
            "pi_section": {"v": self.pi_section.v, "s": self.pi_section.s},
        }
        if count is not None:
            d["count"] = count
        return d


@dataclass(frozen=True)
class IntersectionReport:
    count: int
    method: str  # always "inclusion_exclusion"
    breakdown: tuple  # (("per_hyperplane", (...)), ...) as sorted pairs


def arrangement(hyperplanes, f):
    """Attach tangency and common-section metadata to a hyperplane triple."""
    covs = [h.covector for h in hyperplanes]
    if len(set(covs)) != len(covs):
        raise DuplicateHyperplanes("arrangement hyperplanes must be distinct")
    ctx = f.ctx
    tangent, _ = classify_hyperplanes(f, np.array(covs, dtype=np.uint8))
    tang = tuple("tangent" if t else "non_tangent" for t in tangent)
    common = intersect_hyperplanes(hyperplanes, ctx)
    st = classify_section(f, common)
    return Arrangement(tuple(hyperplanes), tang, st, f.n, ctx.q)


def intersect_count_arrangement(arr, f):
    """Exact |union of the three hyperplanes meet V(f)| from section
    classifications only (no point enumeration): the alternating sum, over
    the non-empty subsets T of the hyperplanes, of the section counts of
    their intersections."""
    ctx = f.ctx
    hyps = arr.hyperplanes
    if len(set(h.covector for h in hyps)) != len(hyps):
        raise DuplicateHyperplanes("arrangement hyperplanes must be distinct")
    # terms[k - 1]: the section counts of the k-wise intersections
    terms = [
        tuple(
            section_count(classify_section(f, intersect_hyperplanes(T, ctx)), ctx.q)
            for T in itertools.combinations(hyps, k)
        )
        for k in range(1, len(hyps) + 1)
    ]
    count = sum((-1) ** k * sum(t) for k, t in enumerate(terms))
    breakdown = (
        ("per_hyperplane", terms[0]),
        ("per_pair", terms[1]),
        ("triple", terms[2][0]),
    )
    return IntersectionReport(count, "inclusion_exclusion", breakdown)


# -- maxima and extremal configurations --------------------------------------


def max_cubic_intersection(n, q):
    """Number of variety points on the extremal arrangement: three
    hyperplanes through a codimension-2 space with non-degenerate section,
    all tangent for odd n and all non-tangent for even n
    (3 |U_{n-1}| - 2 |U_{n-2}| for even n, (3q^2-2) |U_{n-2}| + 3 for odd).

    The paper proves this is the maximum over cubic hypersurfaces only for
    q >= 7.  For even n the arrangement exists only when q^2 - q >= 3, so
    not at q = 2.  At q = 2 the count is not the maximum at all: the form
    x_0^3 + ... + x_n^3 is itself a cubic and contains every point of U_n
    (165 > 117 at n=4)."""
    if n < 4:
        raise OutOfRange(f"n={n} must be >= 4")
    if n % 2 == 0:
        return 3 * nondegenerate_count(n - 1, q) - 2 * nondegenerate_count(n - 2, q)
    return (3 * q * q - 2) * nondegenerate_count(n - 2, q) + 3


def all_tangent_pencil_value(n, q):
    """Count for three tangent pencil members over a line-vertex common
    section, for even n; always below max_cubic_intersection."""
    if n < 4 or n % 2:
        raise OutOfRange(f"n={n} must be even and >= 4")
    val = (q ** (2 * n - 3) * (3 * q * q - 2) - q**n * (q - 1) - 1) // (q * q - 1)
    assert val < max_cubic_intersection(n, q)
    return val


def build_extremal(f):
    """Deterministically build the extremal candidate: three hyperplanes
    through a common codimension-2 space with non-degenerate section, all
    tangent for odd n and all non-tangent for even n.

    Every pencil over a non-degenerate axis lies in one unitary orbit, with
    q+1 tangent and q^2-q non-tangent members (Bose & Chakravarti 1966), so
    the first one decides: the pencil through the first canonical hyperplane
    and the first later one whose common axis has a non-degenerate section.
    Its first three members of the wanted kind, in canonical order, are
    returned.  If it has fewer, so has every such pencil, and the failure is
    reported, never silently relaxed.
    """
    ctx = f.ctx
    n = f.n
    if n < 4:
        raise OutOfRange(f"n={n} must be >= 4")
    want_tangent = bool(n % 2)
    hyps = enumerate_hyperplanes(n, ctx)
    first = next(hyps)
    for h in hyps:
        axis = intersect_hyperplanes([first, h], ctx)
        if classify_section(f, axis).v == -1:
            break
    else:
        raise AssertionError("no non-degenerate axis in the first hyperplane")
    pencil = pencil_through(axis, ctx)
    tangent, _ = classify_hyperplanes(
        f, np.array([m.covector for m in pencil], dtype=np.uint8)
    )
    members = [m for m, t in zip(pencil, tangent) if t == want_tangent]
    if len(members) < 3:
        want = "tangent" if want_tangent else "non_tangent"
        raise InsufficientPencilMembers(
            f"the pencil over the non-degenerate axis {[list(r) for r in axis.basis]} "
            f"has {len(members)} {want} members, as has every pencil over a "
            f"non-degenerate axis (qualifying members seen: [{len(members)}])"
        )
    return arrangement(tuple(members[:3]), f)


# -- divisibility by linear forms ---------------------------------------------


def divides_linear(covector, C, ctx):
    """Exact test whether the linear form divides the hypersurface.

    Substitutes the pivot variable of the (canonical) covector by the
    negated tail and checks that the result is the zero polynomial.
    """
    n = C.n
    k = next(i for i, v in enumerate(covector) if v != 0)
    assert covector[k] == 1, "covector must be canonical"
    # s = -(sum_{j != k} a_j x_j); substitution x_k -> s
    s_lin = {}
    for j, a in enumerate(covector):
        if j != k and a:
            e = tuple(int(v == j) for v in range(n + 1))
            s_lin[e] = ctx.neg(a)
    s_pow = [{tuple([0] * (n + 1)): 1}, s_lin]
    for _ in range(C.degree - 1):
        s_pow.append(_pmul(s_pow[-1], s_lin, ctx))
    out = {}
    for exp, c in C.monomials:
        t = exp[k]
        rest = tuple(0 if i == k else e for i, e in enumerate(exp))
        _accumulate(
            out,
            (
                (tuple(r + s for r, s in zip(rest, se)), ctx.mul(c, sc))
                for se, sc in s_pow[t].items()
            ),
            ctx,
        )
    return not out


def _line_counts(zeros, ctx):
    """Number of the points `zeros` (rows of point_array(2, ctx)) on each
    line of P^2, in canonical line order.

    Every line but the last, e_2, is (a_0, a_1, c) for a prefix (a_0, a_1),
    a row of point_array(1, ctx), and c in index order, so line i has
    prefix i // Q and c = i % Q.  One incidence_blocks pass gives the dot
    values V of the Q + 1 prefixes with the zeros' first two coordinates.
    A zero with z_2 != 0 lies on exactly one line of each prefix, at
    c = -V / z_2, so those counts are one bincount; a zero with z_2 = 0
    lies on every line of a prefix where V = 0 and on none of the others,
    and on e_2."""
    Q = ctx.order
    z2 = zeros[:, 2]
    off = z2 != 0
    inv = ctx.inv_table[z2[off]]
    hits, whole = [], np.zeros(Q + 1, dtype=np.int64)
    for a, b, V in incidence_blocks(1, zeros[:, :2], ctx):
        c = ctx.mul_table[ctx.neg_table[V[:, off]], inv]
        hits.append((np.arange(a * Q, b * Q, Q)[:, None] + c).ravel())
        whole[a:b] = np.count_nonzero(V[:, ~off] == 0, axis=1)
    counts = np.bincount(np.concatenate(hits), minlength=Q * (Q + 1)) + np.repeat(whole, Q)
    return np.append(counts, len(zeros) - np.count_nonzero(off))


def _line_factors(R, ctx):
    """Canonical covectors, in canonical order, of the lines of P^2 whose
    linear form divides the ternary form R.

    Such a line carries q^2 + 1 zeros of R, so R is evaluated on all of P^2
    once and every line's zeros are counted from the Q + 1 line prefixes
    (_line_counts): a nonzero form of degree d <= q^2 has at most
    d(q^2 + 1) zeros (each line through a point off V(R) meets V(R) at most
    d times), so fewer than q^2 + 1 leave no candidate.  A line that holds
    q^2 + 1 zeros is kept; for a cubic nothing else is, since R restricted
    to a line is a binary cubic, which has at most 3 roots unless it is
    zero, while every line has q^2 + 1 >= 5 points.  Each line kept is
    confirmed exactly by divides_linear."""
    pts = point_array(2, ctx)
    zeros = pts[eval_poly_at(R, pts, ctx) == 0]
    if len(zeros) < ctx.order + 1:
        return []
    full = np.flatnonzero(_line_counts(zeros, ctx) == ctx.order + 1)
    covs = (tuple(int(x) for x in pts[i]) for i in full)
    return [L for L in covs if divides_linear(L, R, ctx)]


def linear_factor(C, ctx):
    """First canonical hyperplane covector dividing C, or None.

    Complete by a coordinate-plane argument.  Let Pi = span(e_a, e_b, e_c),
    {a, b, c} the variables of the first monomial of C with at most three
    of them, padded with the smallest unused indices.  C restricted to Pi,
    the ternary form R, keeps C's monomials in x_a, x_b, x_c alone, so it is
    a selection of C's terms and never zero: that first monomial survives
    with its coefficient.  If L divides C, C = L G, then R = L|Pi G|Pi, so
    L|Pi is nonzero and its line b = (L_a, L_b, L_c) divides R.  So every
    linear factor of C is, up to a scalar, b placed at a, b, c with every
    other coordinate free, for a line factor b of R: a finite and small
    family, whatever plane is used, and scanning it in canonical order with
    divides_linear, the final test of every candidate, returns the first
    canonical divisor of C.  When R has no line factor, C has none.

    The plane needs a monomial with at most three variables, which every
    form of degree <= 3 has; a form with none (degree >= 4, for example
    x_0 x_1 x_2 x_3) raises OutOfRange before any work, as does n < 3.
    """
    n = C.n
    if n < 3:
        raise OutOfRange("linear-factor search needs n >= 3")
    lead = next((e for e, _ in C.monomials if len(e) - e.count(0) <= 3), None)
    if lead is None:
        raise OutOfRange(
            f"linear-factor search needs a monomial in at most three variables; "
            f"this degree-{C.degree} form has none"
        )
    support = [i for i in range(n + 1) if lead[i]]
    plane = sorted(support + [i for i in range(n + 1) if not lead[i]][: 3 - len(support)])
    free = [i for i in range(n + 1) if i not in plane]
    R = make_hypersurface(
        {tuple(e[i] for i in plane): c for e, c in C.monomials if not any(e[i] for i in free)},
        2,
        C.degree,
        ctx,
    )
    line_factors = _line_factors(R, ctx)
    if not line_factors:
        return None
    grid = np.indices((ctx.order,) * len(free), dtype=np.uint8).reshape(len(free), -1).T
    covs = np.empty((len(line_factors), len(grid), n + 1), dtype=np.uint8)
    covs[:, :, plane] = np.array(line_factors, dtype=np.uint8)[:, None, :]
    covs[:, :, free] = grid
    covs = normalize_rows(covs.reshape(-1, n + 1), ctx)
    for i in np.argsort(point_rank_array(covs, ctx)):
        cov = tuple(covs[i].tolist())
        if divides_linear(cov, C, ctx):
            return Hyperplane(cov)
    return None


# -- affine section bound ------------------------------------------------------


def affine_section_count(C, f, sigma, pi, budget=DEFAULT_POINT_BUDGET):
    """|V(C) meet V(f) meet (sigma minus pi)|, for a hyperplane sigma not
    inside C and a codim-2 space pi inside both C and sigma, by enumeration
    of the hyperplane's points; raises PreconditionViolated outside the
    setting of check_affine_section_bound.

    The budget is checked before the two refusals that read C's values at
    sigma's points: pi inside C and sigma not inside C.  Since d <= q < q^2,
    a restriction of C that vanishes at every point of the subspace is the
    zero polynomial (Alon's Combinatorial Nullstellensatz), so its values
    decide each containment exactly."""
    ctx = f.ctx
    n, q, d = f.n, ctx.q, C.degree
    if d > q or n < 3:
        raise PreconditionViolated(f"need degree d={d} <= q={q} and n >= 3")
    if pi.dim != n - 2:
        raise PreconditionViolated("pi must have codimension 2")
    if any(ctx.dot(sigma.covector, row) != 0 for row in pi.basis):
        raise PreconditionViolated("pi must lie inside sigma")
    N = num_points(n - 1, q)
    if N > budget:
        raise BudgetExceeded(N, budget)
    pts = subspace_point_array(intersect_hyperplanes([sigma], ctx), ctx)
    pi_duals = nullspace([list(r) for r in pi.basis], ctx)
    in_pi = ~combine_rows(pts, list(zip(*pi_duals)), ctx).any(axis=1)
    on_c = eval_poly_at(C, pts, ctx) == 0
    if not on_c[in_pi].all():
        raise PreconditionViolated("pi must lie inside the hypersurface")
    if on_c.all():
        raise PreconditionViolated("sigma must not lie inside the hypersurface")
    on_f = eval_form_at(f, pts) == 0
    return int(np.count_nonzero(on_c & on_f & ~in_pi))


def check_affine_section_bound(C, f, sigma, pi, budget=DEFAULT_POINT_BUDGET):
    """Whether |V(C) meet V(f) meet (sigma minus pi)| <= (d-1)(q+1)q^(2n-6),
    for a hyperplane sigma not inside C and a codim-2 space pi inside both
    C and sigma (see affine_section_count)."""
    n, q, d = f.n, f.ctx.q, C.degree
    bound = (d - 1) * (q + 1) * q ** (2 * n - 6)
    return affine_section_count(C, f, sigma, pi, budget) <= bound


def make_affine_bound_instance(n, d, ctx, rng):
    """Construct (C, sigma, pi) meeting the affine-bound preconditions:
    sigma = V(x_0), pi = V(x_0, x_1), C = x_0*G + x_1*H for random forms
    G, H of degree d-1, resampled until sigma is not inside C: until some
    monomial of C lacks x_0, for C restricted to V(x_0) keeps exactly those
    monomials."""
    e0 = tuple(int(i == 0) for i in range(n + 1))
    e1 = tuple(int(i == 1) for i in range(n + 1))
    sigma = Hyperplane(e0)
    pi_basis = tuple(
        tuple(int(j == i) for j in range(n + 1)) for i in range(2, n + 1)
    )
    pi = LinearSubspace(pi_basis, n)
    x0 = {e0: 1}
    x1 = {e1: 1}
    while True:
        G = random_hypersurface(n, d - 1, ctx, rng)
        H = random_hypersurface(n, d - 1, ctx, rng)
        poly = _pmul(x0, dict(G.monomials), ctx)
        _accumulate(poly, _pmul(x1, dict(H.monomials), ctx).items(), ctx)
        if any(e[0] == 0 for e in poly):
            return make_hypersurface(poly, n, d, ctx), sigma, pi
