"""Enumeration oracles shared by the test modules."""

import numpy as np

from hermvar.hermitian import HermitianForm, gram, standard_form
from hermvar.projgeom import matrix_rank


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
