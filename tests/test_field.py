import numpy as np
import pytest

from hermvar.errors import ExceedsCap, NotPrimePower
from hermvar.field import is_prime_power, make_field, solve_norm

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def poly_mul_oracle(ctx, a, b):
    """Independent product via base-p coefficient arithmetic mod the modulus."""
    p = ctx.p
    m = 2 * ctx.e

    def digs(x):
        out = []
        for _ in range(m):
            out.append(x % p)
            x //= p
        return out

    da, db = digs(a), digs(b)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(m):
                prod[k - m + j] = (prod[k - m + j] - c * ctx.modulus[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


def poly_rem(num, den, p):
    """Remainder of num by the monic den over F_p (coefficients low first)."""
    num = list(num)
    d = len(den) - 1
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        for j in range(d + 1):
            num[k - d + j] = (num[k - d + j] - c * den[j]) % p
    return num[:d]


def is_irreducible(coeffs, p):
    """Trial division of a monic polynomial by every monic polynomial of
    degree 1 .. m/2."""
    m = len(coeffs) - 1
    for d in range(1, m // 2 + 1):
        for t in range(p**d):
            den = [t // p**i % p for i in range(d)] + [1]
            if not any(poly_rem(coeffs, den, p)):
                return False
    return True


ALL_FIELDS = [(q, 13) for q in PRIME_POWERS] + [(16, 16)]


@pytest.mark.parametrize("q,cap", ALL_FIELDS)
def test_modulus_is_the_first_irreducible_candidate(q, cap):
    # candidates x^m + low in the base-p order of their low part: the
    # modulus is irreducible and every candidate before it is reducible
    ctx = make_field(q, cap=cap)
    p, m = ctx.p, 2 * ctx.e

    def low(t):
        return [t // p**i % p for i in range(m)]

    first = next(t for t in range(p**m) if is_irreducible(low(t) + [1], p))
    assert ctx.modulus == tuple(low(first))


@pytest.mark.parametrize("q,cap", ALL_FIELDS)
def test_generator_is_the_smallest_element_of_full_order(q, cap):
    ctx = make_field(q, cap=cap)

    def order(g):  # by the polynomial oracle, not the tables
        x, k = g, 1
        while x != 1:
            x, k = poly_mul_oracle(ctx, x, g), k + 1
        return k

    orders = [order(g) for g in range(1, ctx.generator + 1)]
    assert orders[-1] == ctx.order - 1
    assert max(orders[:-1]) < ctx.order - 1


def test_is_prime_power():
    assert is_prime_power(2) == (2, 1)
    assert is_prime_power(4) == (2, 2)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(13) == (13, 1)
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_make_field_errors():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(ExceedsCap):
        make_field(16)
    # F_289 does not fit the uint8 tables, whatever the cap
    with pytest.raises(ExceedsCap):
        make_field(17, cap=20)
    assert make_field(4).order == 16


def test_f4_structure():
    # F_4 = F_2[x]/(x^2+x+1): indices 0, 1, omega=2, omega+1=3
    ctx = make_field(2)
    assert ctx.modulus == (1, 1)
    omega = 2
    assert ctx.mul(omega, omega) == 3  # omega^2 = omega + 1
    assert ctx.frobenius(omega) == 3
    assert ctx.frobenius(0) == 0 and ctx.frobenius(1) == 1
    assert ctx.norm(omega) == 1  # omega * omega^2 = omega^3 = 1
    assert ctx.norm(1) == 1
    assert ctx.trace(1) == 0  # 1 + 1 in characteristic 2


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_mul_table_matches_polynomial_arithmetic(q):
    # every pair for q <= 5, 200 random pairs above
    ctx = make_field(q)
    Q = ctx.order
    if q <= 5:
        pairs = [(a, b) for a in range(Q) for b in range(Q)]
    else:
        pairs = np.random.default_rng(q).integers(0, Q, size=(200, 2))
    assert ctx.mul_table.dtype == np.uint8
    for a, b in pairs:
        assert ctx.mul(int(a), int(b)) == poly_mul_oracle(ctx, int(a), int(b))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_frobenius_involution_and_homomorphism(q):
    ctx = make_field(q)
    Q = ctx.order
    fr = ctx.frob_table
    assert np.array_equal(fr[fr], np.arange(Q))
    # a^q by square-and-multiply, independent of the frobenius table
    for a in range(Q):
        assert ctx.pow(a, ctx.q) == int(fr[a])
    rng = np.random.default_rng(q + 1)
    for a, b in rng.integers(0, Q, size=(200, 2)):
        a, b = int(a), int(b)
        assert ctx.frobenius(ctx.add(a, b)) == ctx.add(ctx.frobenius(a), ctx.frobenius(b))
        assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(ctx.frobenius(a), ctx.frobenius(b))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_subfield_is_frobenius_fixed(q):
    ctx = make_field(q)
    fixed = [a for a in ctx.elements() if ctx.frobenius(a) == a]
    assert len(fixed) == q
    assert fixed == ctx.subfield_elements()


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_norm_onto_subfield(q):
    ctx = make_field(q)
    hits = {}
    for a in range(1, ctx.order):
        n = ctx.norm(a)
        assert ctx.subfield_mask[n] and n != 0
        hits[n] = hits.get(n, 0) + 1
    assert len(hits) == q - 1
    assert all(c == q + 1 for c in hits.values())
    # the fibres: every element of each norm, in index order
    want = {r: [a for a in ctx.elements() if ctx.norm(a) == r] for r in ctx.subfield_elements()}
    assert {r: lam.tolist() for r, lam in ctx.norm_fibres.items()} == want
    assert want[0] == [0]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms(q):
    ctx = make_field(q)
    Q = ctx.order
    for a in range(1, Q):  # exhaustive inverses
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    rng = np.random.default_rng(q + 2)
    for a, b, c in rng.integers(0, Q, size=(300, 3)):
        a, b, c = int(a), int(b), int(c)
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
    for a in range(Q):
        assert ctx.add(a, ctx.neg_table[a]) == 0
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0


def test_norm_trace_in_f9():
    ctx = make_field(3)
    g = ctx.generator
    assert ctx.norm(g) == ctx.pow(g, 4)
    assert ctx.norm(g) != 0 and ctx.subfield_mask[ctx.norm(g)]


@pytest.mark.parametrize("q,d", [(2, 1), (3, 2), (7, 3)])
def test_solve_norm(q, d):
    ctx = make_field(q)
    assert ctx.subfield_mask[d]
    lam = solve_norm(ctx, d)
    assert ctx.pow(lam, q + 1) == d
    # smallest index among all solutions
    sols = [a for a in range(1, ctx.order) if ctx.norm(a) == d]
    assert lam == min(sols)


def test_solve_norm_rejects_bad_input():
    ctx = make_field(3)
    with pytest.raises(ValueError):
        solve_norm(ctx, 0)
    non_sub = next(a for a in range(ctx.order) if not ctx.subfield_mask[a])
    with pytest.raises(ValueError):
        solve_norm(ctx, non_sub)


@pytest.mark.parametrize("q,cap", [(q, 13) for q in PRIME_POWERS] + [(16, 16)])
def test_vector_gathers_match_tables_on_all_pairs(q, cap):
    # vmul/vadd build the flat index a*Q + b in uint16; at q=16 (Q=256) it
    # reaches 255*256 + 255 = 65,535, the largest uint16
    ctx = make_field(q, cap=cap)
    Q = ctx.order
    a = np.repeat(np.arange(Q, dtype=np.uint8), Q)
    b = np.tile(np.arange(Q, dtype=np.uint8), Q)
    prod, total = ctx.vmul(a, b), ctx.vadd(a, b)
    assert prod.dtype == total.dtype == np.uint8
    assert np.array_equal(prod, ctx.mul_table[a, b])
    assert np.array_equal(total, ctx.add_table[a, b])


@pytest.mark.parametrize("q,cap", [(q, 13) for q in PRIME_POWERS] + [(16, 16)])
def test_mul_matrices_and_digit_planes_match_tables_on_all_pairs(q, cap):
    # digits of a*b == mul_matrices[a] @ digits of b (mod p), for all Q^2
    # pairs; the digit planes, the rows of digit_table, recombine to every
    # index
    ctx = make_field(q, cap=cap)
    p, m, Q = ctx.p, ctx.ndigits, ctx.order
    assert m == 2 * ctx.e and ctx.mul_matrices.shape == (Q, m, m)
    assert ctx.digit_table.dtype == np.uint8 and ctx.digit_table.shape == (m, Q)
    digits = ctx.digit_table.astype(np.int64)  # [j, a]
    assert ((digits >= 0) & (digits < p)).all()
    assert np.array_equal(p ** np.arange(m) @ digits, np.arange(Q))
    prod = np.einsum("aij,jb->aib", ctx.mul_matrices.astype(np.int64), digits) % p
    want = digits[:, ctx.mul_table]  # [i, a, b]
    assert np.array_equal(prod, want.transpose(1, 0, 2))


def test_vector_ops_match_scalar():
    ctx = make_field(3)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 9, 50, dtype=np.uint8)
    b = rng.integers(0, 9, 50, dtype=np.uint8)
    assert all(int(x) == ctx.mul(int(u), int(v)) for x, u, v in zip(ctx.vmul(a, b), a, b))
    assert all(int(x) == ctx.add(int(u), int(v)) for x, u, v in zip(ctx.vadd(a, b), a, b))
    assert all(int(x) == ctx.frobenius(int(u)) for x, u in zip(ctx.vfrob(a), a))
    assert all(int(x) == ctx.norm(int(u)) for x, u in zip(ctx.vnorm(a), a))
    assert all(int(x) == ctx.mul(4, int(u)) for x, u in zip(ctx.vscale(4, a), a))
