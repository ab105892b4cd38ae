import csv

import pytest

from hermvar.bounds import (
    build_bound_table,
    check_bound_power_gap,
    check_section_quadric_gap,
    cone_counts,
    cubic_bound_closed,
    cubic_bound_rec,
    max_section_bound,
    quadric_bound_closed,
    quadric_bound_rec,
)
from hermvar.errors import OutOfRange
from hermvar.field import make_field
from hermvar.hermitian import (
    classify_section,
    contains,
    count_points_formula,
    nondegenerate_count,
    standard_form,
)
from hermvar.projgeom import random_subspace, subspace_points

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def test_quadric_bound_values():
    assert quadric_bound_rec(4, 2) == 75  # 32+16+32-6+1
    assert quadric_bound_rec(5, 2) == 316  # 4*75 + 8 + 8
    assert quadric_bound_rec(6, 2) == 1248  # 4*316 - 16
    assert quadric_bound_rec(4, 3) == 424


def test_cubic_bound_values():
    assert cubic_bound_rec(4, 2) == 99  # 3*(32+1)
    assert cubic_bound_rec(5, 2) == 424  # 4*99 + 24 + 4
    assert cubic_bound_rec(4, 7) == 50424  # 3*(16807+1)
    assert cubic_bound_rec(4, 3) == 732


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_recursion_equals_closed_form(q):
    for n in range(4, 25):
        assert quadric_bound_rec(n, q) == quadric_bound_closed(n, q)
        assert cubic_bound_rec(n, q) == cubic_bound_closed(n, q)


def test_out_of_range():
    for fn in (quadric_bound_rec, quadric_bound_closed, cubic_bound_rec, cubic_bound_closed):
        with pytest.raises(OutOfRange):
            fn(3, 2)
    with pytest.raises(OutOfRange):
        check_bound_power_gap(4, 2)


def test_nondegenerate_count_values():
    assert nondegenerate_count(4, 2) == 165
    assert nondegenerate_count(3, 3) == 280
    assert nondegenerate_count(4, 7) == 840_400


def test_cone_counts_values():
    assert cone_counts(4, 2) == (9, 13, 5)
    # direct cone cardinalities: 1 + q^2 |U_2| and q^2+1 + q^4 |U_1|
    assert cone_counts(5, 2) == (45, 1 + 4 * 9, 5 + 16 * 3)
    assert cone_counts(5, 2) == (45, 37, 53)


def cone_counts_closed(n, q):
    """(base, point-vertex cone, line-vertex cone) counts, as closed forms
    in q for each parity of n."""
    d = q * q - 1
    if n % 2 == 0:
        u = (q ** (2 * n - 3) - q ** (n - 1) + q ** (n - 2) - 1) // d
        cone0 = (q ** (2 * n - 3) + q**n - q ** (n - 1) - 1) // d
        cone1 = (q ** (2 * n - 3) - q ** (n + 1) + q**n - 1) // d
    else:
        u = (q ** (2 * n - 3) + q ** (n - 1) - q ** (n - 2) - 1) // d
        cone0 = (q ** (2 * n - 3) - q**n + q ** (n - 1) - 1) // d
        cone1 = (q ** (2 * n - 3) + q ** (n + 1) - q**n - 1) // d
    return u, cone0, cone1


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [4, 5])
def test_cone_counts_match_formula_and_enumeration(n, q):
    u, cone0, cone1 = cone_counts(n, q)
    m = n - 2
    assert u == count_points_formula(m, q, m + 1)
    assert cone0 == count_points_formula(m, q, m)
    assert cone1 == count_points_formula(m, q, m - 1)
    # the parity-split closed forms in q, at every n in 4..13 and every q
    for qq in PRIME_POWERS:
        for nn in range(4, 14):
            assert cone_counts(nn, qq) == cone_counts_closed(nn, qq), (nn, qq)
    # enumeration: collect the counts that actually occur for codim-2 sections
    import numpy as np

    ctx = make_field(q)
    f = standard_form(n, ctx)
    rng = np.random.default_rng(n + 10 * q)
    observed = {}
    for _ in range(60):
        sub = random_subspace(n, n - 2, ctx, rng)
        st = classify_section(f, sub)
        cnt = sum(1 for p in subspace_points(sub, ctx) if contains(f, p))
        observed[st.v] = cnt
    expected = {-1: u, 0: cone0, 1: cone1}
    for v, cnt in observed.items():
        assert cnt == expected[v]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_section_ordering_by_parity(q):
    # even n: cone1 < base < cone0; odd n: cone0 < base < cone1
    for n in range(4, 13):
        u, cone0, cone1 = cone_counts(n, q)
        if n % 2 == 0:
            assert cone1 < u < cone0
        else:
            assert cone0 < u < cone1


def test_bound_power_gap_examples():
    assert cubic_bound_rec(5, 2) == 424 and 424 > 2**7 + 2**6
    assert check_bound_power_gap(6, 2)
    assert cubic_bound_rec(4, 2) == 99 and 99 < 3 * 2**5 + 2**4
    assert check_bound_power_gap(5, 2)
    assert check_bound_power_gap(5, 7)  # 50424 < 3*7^5 + 7^4 = 52822


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_bound_power_gap_range(q):
    for n in range(5, 13):
        assert check_bound_power_gap(n, q)


def test_section_quadric_gap_examples():
    # n=4, q=3: 280 + 424 < 732
    assert max_section_bound(4, 3) == 280
    assert check_section_quadric_gap(4, 3)
    assert check_section_quadric_gap(5, 3)
    # q=2 is outside the guaranteed range: evaluable, not asserted either way
    check_section_quadric_gap(4, 2)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_section_quadric_gap_range(q):
    for n in range(4, 11):
        assert check_section_quadric_gap(n, q)


def test_max_section_bound():
    assert max_section_bound(4, 2) == 45  # |U_3|
    assert max_section_bound(5, 2) == 4 * 45 + 1  # q^2 |U_3| + 1
    assert max_section_bound(4, 3) == 280


def test_bound_table_csv(tmp_path):
    table = build_bound_table(2, 8)
    assert [r["n"] for r in table.rows] == list(range(4, 9))
    path = tmp_path / "bounds.csv"
    table.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "n", "A", "B", "U_n", "U_n-2", "cone0", "cone1"]
    assert rows[1] == ["2", "4", "75", "99", "165", "9", "13", "5"]
