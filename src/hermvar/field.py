"""Exact arithmetic in F_q and F_{q^2} via dense lookup tables.

An element of F_{q^2} is an integer index in ``0 .. q^2 - 1``.  Writing
q = p^e, the field F_{q^2} = F_p[x]/(f) is built from the lexicographically
smallest monic irreducible polynomial f of degree 2e over F_p, and the index
of an element with coefficient vector (c_0, c_1, ...) is sum(c_i * p^i).
Index 0 is the zero element and index 1 is the multiplicative identity,
for every q.  The construction is fully deterministic, so indices are
reproducible across runs and machines.

The subfield F_q sits inside F_{q^2} as the fixed points of the Frobenius
map x -> x^q; its elements are scattered indices identified by
``subfield_mask``.
"""

import functools

import numpy as np

from .errors import ExceedsCap, NotPrimePower

DEFAULT_CAP = 13


def is_prime_power(q):
    """Return (p, e) with q = p^e, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p < q:
            break
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
    return (q, 1)


def _mul_rows(a, digits, low, p, add_table):
    """Rows of the product table of F_p[x]/(x^m + low): out[i, b] is the
    index of a[i] * b for each base-p digit vector a[i] and each index b,
    whose digits are digits[b].  Builds a * b = sum_j b_j (a x^j); the
    companion matrix of x^m + low multiplies a digit vector by x."""
    m = len(low)
    weights = p ** np.arange(m)
    times_x = np.eye(m, k=1, dtype=np.int64)
    times_x[-1] = -low
    out = np.zeros((len(a), len(digits)), dtype=np.uint8)
    for j in range(m):
        # terms[c]: the indices of c * a x^j, for each digit c
        terms = ((np.arange(p)[:, None, None] * a) % p) @ weights
        out = add_table[out, terms[digits[:, j]].T]
        a = (a @ times_x) % p
    return out


class FieldCtx:
    """Immutable arithmetic context for F_{q^2} with its subfield F_q.

    All tables are dense numpy arrays indexed by element index; the context
    is safe to share across threads and forked workers.
    """

    def __init__(self, q, cap=DEFAULT_CAP):
        pe = is_prime_power(q)
        if pe is None:
            raise NotPrimePower(f"q={q} is not a prime power")
        if q > cap:
            raise ExceedsCap(f"q={q} above cap {cap}")
        if q * q > 256:
            raise ExceedsCap(f"q={q}: F_{{q^2}} has {q * q} elements, uint8 tables hold 256")
        self.q = q
        self.p, self.e = pe
        self.order = q * q
        self._build_tables(2 * self.e)
        self._check_invariants()
        # the scalar operations read these Python lists of the tables: a list
        # lookup gives a Python int several times faster than a numpy scalar
        # lookup, and the pure-Python linear algebra makes one per entry
        self._add, self._mul, self._neg, self._inv = (
            t.tolist() for t in (self.add_table, self.mul_table, self.neg_table, self.inv_table)
        )
        self._frob, self._norm, self._trace = (
            t.tolist() for t in (self.frob_table, self.norm_table, self.trace_table)
        )

    def _build_tables(self, m):
        p, Q = self.p, self.order

        digits = np.zeros((Q, m), dtype=np.int64)
        idx = np.arange(Q)
        for j in range(m):
            digits[:, j] = idx % p
            idx = idx // p
        weights = p ** np.arange(m)

        summed = (digits[:, None, :] + digits[None, :, :]) % p
        self.add_table = (summed @ weights).astype(np.uint8)
        self.neg_table = (((-digits) % p) @ weights).astype(np.uint8)

        # the modulus: the first candidate low part, in base-p order, with
        # no zero product between a residue of degree <= m/2 and a nonzero
        # residue; a reducible x^m + low has a factor of that degree, an
        # irreducible one has no zero divisors
        low_degree = digits[1 : p ** (m // 2 + 1)]
        low = next(
            low for low in digits
            if _mul_rows(low_degree, digits[1:], low, p, self.add_table).all()
        )
        self.modulus = tuple(int(c) for c in low)
        mul = self.mul_table = _mul_rows(digits, digits, low, p, self.add_table)

        # exp/log from the smallest element of multiplicative order Q - 1
        for g in range(2, Q):
            exp = [1]
            while (x := int(mul[exp[-1], g])) != 1:
                exp.append(x)
            if len(exp) == Q - 1:
                break
        assert len(exp) == Q - 1, "no generator found"
        self.generator = g
        exp = np.array(exp, dtype=np.int64)
        log = np.zeros(Q, dtype=np.int64)
        log[exp] = np.arange(Q - 1)
        self._exp, self._log = exp.tolist(), log.tolist()  # for pow
        nz = np.arange(1, Q)

        inv = np.zeros(Q, dtype=np.uint8)
        inv[nz] = exp[(-log[nz]) % (Q - 1)].astype(np.uint8)
        self.inv_table = inv

        frob = np.zeros(Q, dtype=np.uint8)
        frob[nz] = exp[(self.q * log[nz]) % (Q - 1)].astype(np.uint8)
        self.frob_table = frob

        # F_{q^2} as the F_p-space of digit vectors: digit_table[j, a] is the
        # j-th base-p digit of a, and multiplying by c is the matrix
        # mul_matrices[c], whose column j holds the digits of c * p^j
        self.ndigits = m
        self.digit_table = digits.T.astype(np.uint8)
        self.mul_matrices = (
            digits[mul[:, weights]].transpose(0, 2, 1).astype(np.uint8)
        )

        ar = np.arange(Q)
        self.norm_table = self.mul_table[ar, frob[ar]]
        self.trace_table = self.add_table[ar, frob[ar]]
        self.subfield_mask = frob == ar
        # norm_fibres[r]: every lam with N(lam) = r, in index order
        self.norm_fibres = {
            int(r): np.flatnonzero(self.norm_table == r).astype(np.uint8)
            for r in np.flatnonzero(self.subfield_mask)
        }
        for lam in self.norm_fibres.values():
            lam.setflags(write=False)

    def _check_invariants(self):
        Q, q = self.order, self.q
        fr = self.frob_table
        assert np.array_equal(fr[fr], np.arange(Q)), "Frobenius not an involution"
        assert int(self.subfield_mask.sum()) == q, "subfield size wrong"
        assert self.subfield_mask[self.norm_table].all(), "norm leaves subfield"
        assert self.subfield_mask[self.trace_table].all(), "trace leaves subfield"
        # norm maps nonzero elements onto the q-1 nonzero subfield elements,
        # each hit exactly q+1 times, and only 0 has norm 0
        sizes = {r: len(lam) for r, lam in self.norm_fibres.items()}
        assert sizes == {r: 1 if r == 0 else q + 1 for r in sizes}, "norm not (q+1)-to-1"

    # -- scalar operations ------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def frobenius(self, a):
        return self._frob[a]

    def norm(self, a):
        return self._norm[a]

    def trace(self, a):
        return self._trace[a]

    def pow(self, a, k):
        if k == 0:
            return 1
        if a == 0:
            return 0
        return self._exp[(k * self._log[a]) % (self.order - 1)]

    def dot(self, u, v):
        """Plain bilinear dot product sum(u_i v_i), no conjugation."""
        acc = 0
        for a, b in zip(u, v):
            acc = self.add_table[acc, self.mul_table[a, b]]
        return int(acc)

    def elements(self):
        return range(self.order)

    def subfield_elements(self):
        return [int(i) for i in np.nonzero(self.subfield_mask)[0]]

    # -- vectorized operations on index arrays -----------------------------

    # The flat table index a*Q + b is built in uint16: Q <= 256 (checked in
    # __init__), so it is at most 255*256 + 255 = 65,535.

    def vmul(self, a, b):
        idx = np.asarray(a).astype(np.uint16) * self.order + b
        return self.mul_table.ravel().take(idx)

    def vadd(self, a, b):
        idx = np.asarray(a).astype(np.uint16) * self.order + b
        return self.add_table.ravel().take(idx)

    def vscale(self, c, a):
        """c * a for scalar c and array a (single row gather)."""
        return self.mul_table[c].take(a)

    def vfrob(self, a):
        return self.frob_table.take(a)

    def vnorm(self, a):
        return self.norm_table.take(a)

    def __repr__(self):
        return f"FieldCtx(q={self.q})"

    __hash__ = object.__hash__


@functools.lru_cache(maxsize=None)
def make_field(q, cap=DEFAULT_CAP):
    """Build (and cache) the arithmetic context for F_{q^2}."""
    return FieldCtx(q, cap=cap)


def solve_norm(ctx, d):
    """Smallest-index lam with lam^(q+1) = d, for nonzero subfield d: the
    first of its norm fibre, which FieldCtx asserts has q+1 elements."""
    if d == 0 or not ctx.subfield_mask[d]:
        raise ValueError(f"d={d} is not a nonzero subfield element")
    return int(ctx.norm_fibres[d][0])
