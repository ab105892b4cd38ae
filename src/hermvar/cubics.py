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
    enumerate_points,
    incidence_blocks,
    intersect_hyperplanes,
    normalize_rows,
    nullspace,
    num_points,
    pencil_through,
    point_array,
    point_rank_array,
    rref,
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


def monomial_exponents(n, degree):
    """All exponent tuples of the given degree, descending graded-lex."""
    out = set()
    for combo in itertools.combinations_with_replacement(range(n + 1), degree):
        exp = [0] * (n + 1)
        for i in combo:
            exp[i] += 1
        out.add(tuple(exp))
    return sorted(out, reverse=True)


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


def _as_dict(C):
    return {e: c for e, c in C.monomials}


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


def evaluate_poly(C, coords, ctx):
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


def _horner(terms, cols, ctx):
    """Values of sum(c * x^exp) over the (exp, c) terms, all of one positive
    degree, with cols[i] holding x_i at each point.

    Above degree 1 the terms are grouped by their first variable x_i and the
    sum is x_i * (that group with one x_i removed), so a shared prefix is
    multiplied once; degree-1 terms are a linear form."""
    acc = None
    if sum(terms[0][0]) == 1:
        for exp, c in terms:
            col = cols[exp.index(1)]
            t = col if c == 1 else ctx.vscale(c, col)
            acc = t if acc is None else ctx.vadd(acc, t)
        return acc
    groups = {}
    for exp, c in terms:
        i = next(k for k, e in enumerate(exp) if e)
        groups.setdefault(i, []).append((exp[:i] + (exp[i] - 1,) + exp[i + 1 :], c))
    for i, sub in groups.items():
        t = ctx.vmul(cols[i], _horner(sub, cols, ctx))
        acc = t if acc is None else ctx.vadd(acc, t)
    return acc


def eval_poly_at(C, pts, ctx):
    """Vectorized values of the form at each row of a point-index array,
    evaluated by shared prefixes (a dense quinary cubic costs 20 vmul,
    35 vscale and 34 vadd): the per-point oracle, which the enumerations of
    lines, planes and hyperplanes call.  intersect_count_enum does not call
    it: it evaluates C's parts C_k at the prefixes and tests a form key's
    zeros together with one gather of a lam table (see _top_table)."""
    cols = [np.ascontiguousarray(pts[:, i]) for i in range(C.n + 1)]
    return _horner(C.monomials, cols, ctx)


def restrict_poly(C, basis, ctx):
    """Substitute the parametrization x = sum(y_u * basis_u) into the form;
    None when the restriction is the zero polynomial."""
    m1 = len(basis)
    # linear forms x_i = sum_u basis[u][i] y_u, as dicts over y-exponents
    unit = tuple([0] * m1)
    coord_forms = []
    for i in range(len(basis[0])):
        d = {}
        for u in range(m1):
            c = basis[u][i]
            if c:
                e = tuple(int(v == u) for v in range(m1))
                d[e] = c
        coord_forms.append(d)
    out = {}
    for exp, c in C.monomials:
        term = {unit: c}
        dead = False
        for i, e in enumerate(exp):
            for _ in range(e):
                if not coord_forms[i]:
                    dead = True
                    break
                term = _pmul(term, coord_forms[i], ctx)
            if dead or not term:
                dead = True
                break
        if not dead:
            _accumulate(out, term.items(), ctx)
    if not out:
        return None
    return make_hypersurface(out, m1 - 1, C.degree, ctx)


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


def intersect_count_enum(C, f, budget=DEFAULT_POINT_BUDGET):
    """|V(C) meet V(f)| by reading the form's value at every point of P^n
    from form_scan's table (which checks the budget) and evaluating C at
    each of its zeros, in one process and without a point array.

    C = sum_k x_n^k C_k(x_0 .. x_{n-1}), each C_k evaluated by shared
    prefixes once per prefix of a chunk.  A chunk's prefixes are sorted by
    form key, and all prefixes of one key share its zeros lam, a row of
    form_scan's table.  C at (p, lam) is TT[lam, w(p)] + R(p, lam), with TT
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
    for pre, key in chunks:
        order = np.argsort(key, kind="stable")
        cols = [np.ascontiguousarray(pre[order, j]) for j in range(n)]
        zero = np.zeros(len(pre), dtype=np.uint8)
        Ck = [_horner(parts[k], cols, ctx) if k in parts else zero for k in range(d)]
        w = Ck[d - 1].astype(np.intp) * Q
        if d >= 2:
            w += Ck[d - 2]
        key = key[order]
        cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(key)]):
            k = int(key[s])
            z = lams[bounds[k] : bounds[k + 1]]
            if not len(z):
                continue
            zc = z[:, None]
            R = Ck[d - 3][s:e] if d >= 3 else zero[s:e]
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
    method: str  # "inclusion_exclusion" | "enumeration"
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


def _probe_plane(C, ctx):
    """A plane (2-dim subspace) on which C restricts to a nonzero form:
    extend the first rational point where C does not vanish to a basis."""
    n = C.n
    base = None
    for P in enumerate_points(n, ctx):
        if evaluate_poly(C, P.coords, ctx) != 0:
            base = P.coords
            break
    assert base is not None, "nonzero cubic cannot vanish at every point"
    rows = [base]
    for i in range(n + 1):
        e = tuple(int(j == i) for j in range(n + 1))
        cand, _ = rref(rows + [e], ctx)
        if len(cand) > len(rows):
            rows = list(cand)
        if len(rows) == 3:
            break
    return tuple(rows)


def _line_factors(R, ctx):
    """Canonical covectors, in canonical order, of the lines of P^2 whose
    linear form divides the ternary form R.

    Such a line carries q^2 + 1 zeros of R, so R is evaluated on all of P^2
    once and every line is tested against its zeros only: a nonzero form of
    degree d <= q^2 has at most d(q^2 + 1) of them (each line through a point
    off V(R) meets V(R) at most d times).  Each line kept is confirmed
    exactly by divides_linear."""
    pts = point_array(2, ctx)
    zeros = pts[eval_poly_at(R, pts, ctx) == 0]
    if len(zeros) < ctx.order + 1:
        return []
    on_line = np.empty(len(pts), dtype=np.int64)
    for a, b, block in incidence_blocks(pts, zeros, ctx):
        on_line[a:b] = np.count_nonzero(block == 0, axis=1)
    full = np.nonzero(on_line == ctx.order + 1)[0]
    covs = (tuple(int(x) for x in pts[i]) for i in full)
    return [L for L in covs if divides_linear(L, R, ctx)]


def linear_factor(C, ctx):
    """First canonical hyperplane covector dividing C, or None.

    Complete by a probe-plane argument: C does not vanish at the probe
    plane's base point, so no linear factor L does, and L cuts the plane in
    a line whose form must divide the restricted ternary form R.  So the
    candidates are the hyperplanes whose trace on the plane is a line factor
    of R, a finite and small family, and scanning them is an exact pruning
    of the full covector scan.  When R has no linear factor, C has none.

    The line factors of R are found in one vectorized pass: the lines of
    P^2 on which R vanishes at every point are kept.  For a cubic nothing
    else is kept: restricted to a line, R is a binary cubic,
    which has at most 3 roots unless it is zero, while every line has
    q^2 + 1 >= 5 points; so R vanishes on a whole line exactly when the
    line's form divides R.  divides_linear still confirms each kept line,
    and it is the final test of every candidate covector on C, in canonical
    order.
    """
    n = C.n
    if n < 3:
        raise OutOfRange("linear-factor search needs n >= 3")
    basis = _probe_plane(C, ctx)
    R = restrict_poly(C, basis, ctx)
    assert R is not None  # the probe plane is chosen through a non-zero point
    line_factors = _line_factors(R, ctx)
    if not line_factors:
        return None
    # the hyperplanes with trace b: the particular solution of B a^T = b plus
    # every vector of the kernel of B, as coefficients (1, c) on the rows
    # (part, kernel basis); none is zero, since b is not
    kern = nullspace([list(r) for r in basis], ctx)
    coeffs = np.indices((ctx.order,) * len(kern), dtype=np.uint8)
    coeffs = coeffs.reshape(len(kern), -1).T
    coeffs = np.hstack([np.ones((len(coeffs), 1), dtype=np.uint8), coeffs])
    covs = []
    for b in line_factors:
        aug = [list(row) + [b[u]] for u, row in enumerate(basis)]
        red, pivots = rref(aug, ctx)
        part = [0] * (n + 1)
        for r, p in zip(red, pivots):
            part[p] = r[n + 1]
        covs.append(combine_rows(coeffs, [part, *kern], ctx))
    covs = normalize_rows(np.concatenate(covs), ctx)
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
    setting of check_affine_section_bound."""
    ctx = f.ctx
    n, q, d = f.n, ctx.q, C.degree
    if d > q or n < 3:
        raise PreconditionViolated(f"need degree d={d} <= q={q} and n >= 3")
    sigma_sub = intersect_hyperplanes([sigma], ctx)
    if pi.dim != n - 2:
        raise PreconditionViolated("pi must have codimension 2")
    pi_duals = nullspace([list(r) for r in pi.basis], ctx)
    if any(ctx.dot(sigma.covector, row) != 0 for row in pi.basis):
        raise PreconditionViolated("pi must lie inside sigma")
    if restrict_poly(C, pi.basis, ctx) is not None:
        raise PreconditionViolated("pi must lie inside the hypersurface")
    if restrict_poly(C, sigma_sub.basis, ctx) is None:
        raise PreconditionViolated("sigma must not lie inside the hypersurface")
    N = num_points(n - 1, q)
    if N > budget:
        raise BudgetExceeded(N, budget)
    pts = subspace_point_array(sigma_sub, ctx)
    on_c = eval_poly_at(C, pts, ctx) == 0
    on_f = eval_form_at(f, pts) == 0
    in_pi = ~combine_rows(pts, list(zip(*pi_duals)), ctx).any(axis=1)
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
    G, H of degree d-1 (resampled until sigma is not inside C)."""
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
        poly = _pmul(x0, _as_dict(G), ctx)
        _accumulate(poly, _pmul(x1, _as_dict(H), ctx).items(), ctx)
        if not poly:
            continue
        C = make_hypersurface(poly, n, d, ctx)
        sigma_sub = intersect_hyperplanes([sigma], ctx)
        if restrict_poly(C, sigma_sub.basis, ctx) is not None:
            return C, sigma, pi
