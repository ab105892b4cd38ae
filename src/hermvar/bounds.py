"""Integer bound sequences and inequality checks.

Two families of thresholds, defined for n >= 4 by a seed value and a
parity-split recursion, control when a low-degree hypersurface meeting the
variety in many points must split into hyperplanes:

* quadric bound: seed q^5 + q^4 + 4q^3 - 3q + 1, above it a quadric section
  forces a union of two hyperplanes;
* cubic bound: seed 3(q^5 + 1), above it a cubic section forces a union of
  three hyperplanes (proved for q >= 7).

Each sequence also has a closed form; recursion and closed form must agree
exactly, and that identity is one of the standing test invariants.  All
arithmetic is exact (Python integers).
"""

import csv
from dataclasses import dataclass

from .errors import OutOfRange
from .hermitian import count_points_formula, hyperplane_section_counts, nondegenerate_count


def _require(n, minimum=4):
    if n < minimum:
        raise OutOfRange(f"n={n} below {minimum}")


def quadric_bound_rec(n, q):
    """Quadric-split threshold by recursion from the n=4 seed."""
    _require(n)
    a = q**5 + q**4 + 4 * q**3 - 3 * q + 1
    for m in range(5, n + 1):
        if m % 2 == 0:
            a = q * q * a - q ** (m - 2)
        else:
            a = q * q * a + q ** (m - 2) + 2 * q ** (m - 3)
    return a


def quadric_bound_closed(n, q):
    """Closed form: q^(2n-8) * seed + sum_{i=n-2}^{2n-7} q^i + 2*delta*q^(n-3),
    delta = n mod 2."""
    _require(n)
    seed = q**5 + q**4 + 4 * q**3 - 3 * q + 1
    return (
        q ** (2 * n - 8) * seed
        + sum(q**i for i in range(n - 2, 2 * n - 6))
        + 2 * (n % 2) * q ** (n - 3)
    )


def cubic_bound_rec(n, q):
    """Cubic-split threshold by recursion from the n=4 seed 3(q^5+1)."""
    _require(n)
    b = 3 * (q**5 + 1)
    for m in range(5, n + 1):
        if m % 2 == 0:
            b = q * q * b - q ** (m - 2)
        else:
            b = q * q * b + 3 * q ** (m - 2) + q ** (m - 3)
    return b


def cubic_bound_closed(n, q):
    """Closed form with parity-split correction sums."""
    _require(n)
    base = 3 * q ** (2 * n - 8) * (q**5 + 1)
    if n % 2 == 0:
        return base + 3 * sum(q ** (2 * i + n - 3) for i in range(1, (n - 4) // 2 + 1))
    return (
        base
        + 3 * sum(q ** (2 * i + n - 4) for i in range(1, (n - 3) // 2 + 1))
        + q ** (n - 3)
    )


def cone_counts(n, q):
    """Counts of the three codimension-2 section shapes of the variety in
    P^n: (non-degenerate base, point-vertex cone, line-vertex cone), the
    rank n - 1, n - 2 and n - 3 varieties in P^(n-2)."""
    _require(n)
    return tuple(count_points_formula(n - 2, q, r) for r in (n - 1, n - 2, n - 3))


def max_section_bound(n, q):
    """Largest possible hyperplane section of the non-degenerate variety:
    |U_{n-1}| for even n, q^2 |U_{n-2}| + 1 for odd n."""
    return max(hyperplane_section_counts(n, q))


def check_bound_power_gap(n, q):
    """Strict comparison of the cubic bound at n-1 against pure q powers:
    greater than q^(2n-5)+q^(2n-6) for even n, smaller than
    3q^(2n-5)+q^(2n-6) for odd n."""
    _require(n, minimum=5)
    b = cubic_bound_closed(n - 1, q)
    if n % 2 == 0:
        return b > q ** (2 * n - 5) + q ** (2 * n - 6)
    return b < 3 * q ** (2 * n - 5) + q ** (2 * n - 6)


def check_section_quadric_gap(n, q):
    """Whether max hyperplane section + quadric bound < cubic bound.

    The inequality is asserted by the theory only for q >= 3; callers may
    still evaluate it at q = 2 for reporting.
    """
    _require(n)
    return max_section_bound(n, q) + quadric_bound_closed(n, q) < cubic_bound_closed(
        n, q
    )


@dataclass
class BoundTable:
    """Per-n table of both bound sequences and the section counts."""

    q: int
    rows: list  # dicts with keys n, A_rec, A_closed, B_rec, B_closed,
    # hermitian_count, cone0_count, cone1_count

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["q", "n", "A", "B", "U_n", "U_n-2", "cone0", "cone1"])
            for r in self.rows:
                u, cone0, cone1 = cone_counts(r["n"], self.q)
                w.writerow(
                    [
                        self.q,
                        r["n"],
                        r["A_closed"],
                        r["B_closed"],
                        r["hermitian_count"],
                        u,
                        cone0,
                        cone1,
                    ]
                )


def build_bound_table(q, n_max):
    """Tabulate the sequences from n = 4, where both are seeded, to n_max;
    recursion/closed-form agreement is enforced."""
    rows = []
    for n in range(4, n_max + 1):
        a_rec, a_closed = quadric_bound_rec(n, q), quadric_bound_closed(n, q)
        b_rec, b_closed = cubic_bound_rec(n, q), cubic_bound_closed(n, q)
        assert a_rec == a_closed and b_rec == b_closed
        u, cone0, cone1 = cone_counts(n, q)
        rows.append(
            {
                "n": n,
                "A_rec": a_rec,
                "A_closed": a_closed,
                "B_rec": b_rec,
                "B_closed": b_closed,
                "hermitian_count": nondegenerate_count(n, q),
                "cone0_count": cone0,
                "cone1_count": cone1,
            }
        )
    return BoundTable(q=q, rows=rows)
