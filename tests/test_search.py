import functools
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermvar.bounds import cone_counts
from hermvar.cubics import arrangement, max_cubic_intersection
from hermvar.errors import BudgetExceeded, ExceedsCap, NotPrimePower, OutOfRange
from hermvar.field import make_field
from hermvar.hermitian import (
    classify_hyperplanes,
    classify_section,
    contains,
    hyperplane_section_counts,
    nondegenerate_count,
    section_count,
    standard_form,
    variety_mask,
)
from hermvar.projgeom import (
    Hyperplane,
    enumerate_hyperplanes,
    enumerate_points,
    intersect_hyperplanes,
    num_points,
    pencil_through,
    point_array,
)
from hermvar.search import (
    _column_counts,
    build_geometry,
    dual_line_catalog,
    exhaustive_triples,
    gaussian_binomial,
    hyperplane_tangency,
    incidence_double_count,
    incidence_zero_matrix,
    pencil_triples_scan,
    random_cubic_sample,
    report_json,
)
from oracles import (
    _pencil_kinds,
    _section_profile,
    axis_counts,
    dual_gram_keys,
    evaluate_poly,
    pencil_scan_enum,
)


def test_gaussian_binomial():
    assert gaussian_binomial(5, 2, 4) == 5797  # planes of P^4 over F_4
    assert gaussian_binomial(6, 2, 4) == 93093
    assert gaussian_binomial(2, 1, 4) == 5


def test_dual_line_catalog_small():
    ctx = make_field(2)
    cat = dual_line_catalog(2, ctx)
    # pencils of P^2 = points of P^2: 21, each with q^2+1 = 5 members
    assert cat.shape == (21, 5)
    flat = cat.ravel()
    # every hyperplane appears in exactly 5 pencils: 21*5 incidences over 21
    counts = np.bincount(flat, minlength=21)
    assert (counts == 5).all()
    for row in cat:
        assert len(set(int(x) for x in row)) == 5


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (3, 3), (2, 4), (3, 4)])
def test_dual_line_catalog_matches_pencil_through(n, q):
    # every row is the pencil through the axis of its first two members, in
    # pencil_through's order but with its last member (r2) first, and every
    # codimension-2 subspace is the axis of exactly one row
    ctx = make_field(q)
    hyps = list(enumerate_hyperplanes(n, ctx))
    rank = {h: r for r, h in enumerate(hyps)}
    cat = dual_line_catalog(n, ctx)
    assert len(cat) == gaussian_binomial(n + 1, 2, ctx.order)
    axes = set()
    for row in cat.tolist():
        axis = intersect_hyperplanes([hyps[row[0]], hyps[row[1]]], ctx)
        members = [rank[h] for h in pencil_through(axis, ctx)]
        assert row == members[-1:] + members[:-1]
        axes.add(axis.basis)
    assert len(axes) == len(cat)


GRIDS = [(2, 3), (2, 4), (3, 2), (4, 2), (3, 3), (5, 2)]


@functools.lru_cache(maxsize=None)
def scalar_incidence(n, q):
    """[hyperplane, variety point] -> ctx.dot(cov, pt) == 0, by scalar loops
    over the canonical orders (variety membership by scalar evaluation)."""
    ctx = make_field(q)
    f = standard_form(n, ctx)
    pts = list(enumerate_points(n, ctx))
    on = [P.coords for P in pts if contains(f, P)]
    return np.array([[ctx.dot(H.coords, p) == 0 for p in on] for H in pts])


@pytest.mark.parametrize("n,q", GRIDS)
def test_incidence_zero_matrix_matches_scalar_dot(n, q):
    ctx = make_field(q)
    upts = point_array(n, ctx)[variety_mask(standard_form(n, ctx))]
    Z = incidence_zero_matrix(n, ctx, upts)
    want = scalar_incidence(n, q)
    n_u = want.shape[1]
    assert Z.dtype == np.uint8 and Z.shape == (num_points(n, q), (n_u + 7) // 8)
    bits = np.unpackbits(Z, axis=1).astype(bool)
    assert np.array_equal(bits[:, :n_u], want)
    assert not bits[:, n_u:].any()  # padding bits


@functools.lru_cache(maxsize=None)
def scalar_column(n, q, row):
    """[hyperplane] -> ctx.dot(cov, pt) == 0 for row `row` of point_array(n),
    by scalar loops over the canonical order."""
    ctx = make_field(q)
    p = tuple(int(x) for x in point_array(n, ctx)[row])
    return tuple(ctx.dot(H.coords, p) == 0 for H in enumerate_points(n, ctx))


def point_row_lists(n, q):
    """Lists of row indices of point_array(n, q): shuffled subsets, rows
    drawn with repeats, whole runs of Q rows that share their first n
    coordinates, and one row from each of distinct runs, so that the prefix
    changes at every row.  Row N - 1 is e_n, the one row of its prefix."""
    N, Q = num_points(n, q), q * q
    runs = (N - 1) // Q  # rows r Q .. r Q + Q - 1 share their prefix
    return st.one_of(
        st.permutations(range(N)).flatmap(
            lambda p: st.integers(1, 40).map(lambda k: p[:k])
        ),
        st.lists(st.integers(0, N - 1), min_size=1, max_size=40),
        st.lists(st.integers(0, runs - 1), min_size=1, max_size=4).map(
            lambda rs: [r * Q + c for r in rs for c in range(Q)]
        ),
        st.lists(
            st.tuples(st.integers(0, runs - 1), st.integers(0, Q - 1)),
            min_size=1,
            max_size=40,
            unique_by=lambda t: t[0],
        ).map(lambda rc: [r * Q + c for r, c in rc]),
    )


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_incidence_zero_matrix_on_any_rows_in_any_order(n, q, data):
    # the kernel runs once per run of equal prefixes, so any row order, with
    # repeated, shuffled or never-repeating prefixes, must give the scalar dot
    ctx = make_field(q)
    N = num_points(n, q)
    rows = data.draw(point_row_lists(n, q), label="rows")
    if data.draw(st.booleans(), label="with e_n"):
        rows.insert(data.draw(st.integers(0, len(rows)), label="e_n at"), N - 1)
    Z = incidence_zero_matrix(n, ctx, point_array(n, ctx)[rows])
    assert Z.dtype == np.uint8 and Z.shape == (N, (len(rows) + 7) // 8)
    bits = np.unpackbits(Z, axis=1).astype(bool)
    want = np.array([scalar_column(n, q, r) for r in rows]).T
    assert np.array_equal(bits[:, : len(rows)], want)
    assert not bits[:, len(rows) :].any()  # padding bits


@pytest.mark.parametrize("n,q", [(2, 2), (3, 3)])
def test_incidence_zero_matrix_of_no_points(n, q):
    # no points, no columns: an N x 0 matrix, not a division by zero
    ctx = make_field(q)
    Z = incidence_zero_matrix(n, ctx, point_array(n, ctx)[:0])
    assert Z.dtype == np.uint8 and Z.shape == (num_points(n, q), 0)


# SHA-256 of Z over U_n's points, recorded before the kernel ran once per
# distinct point prefix
ZERO_MATRIX_DIGESTS = {
    (4, 2): "920b589be3f5a342609c3a7eb26c7ed9739a85d3b8288ef63fadc4a437e1a235",
    (5, 2): "36dae2c4185b87da491fd5ae0e52d607b664e095b2bd1070a3ebff1fcde94a65",
    (4, 3): "baf45670fd327b68bc07f130b7cc1deb90e59724f457733833e141ccb4c1b7e8",
    (3, 4): "8e495337a4b12998b505255197ed648e6ff1de8c6daef3105f7b9745ebe5cd20",
}


@pytest.mark.parametrize("n,q", sorted(ZERO_MATRIX_DIGESTS))
def test_incidence_zero_matrix_digests(n, q):
    ctx = make_field(q)
    upts = point_array(n, ctx)[variety_mask(standard_form(n, ctx))]
    Z = incidence_zero_matrix(n, ctx, upts)
    assert hashlib.sha256(Z.tobytes()).hexdigest() == ZERO_MATRIX_DIGESTS[n, q]


@pytest.mark.parametrize("n,q", GRIDS)
def test_hyperplane_tangency_matches_section_counts(n, q):
    # tangent iff the section has 1 + q^2 |U_{n-2}| points, else |U_{n-1}|
    section = scalar_incidence(n, q).sum(axis=1)
    tangent_count = 1 + q * q * nondegenerate_count(n - 2, q)
    tangent = hyperplane_tangency(n, q)
    assert np.array_equal(tangent, section == tangent_count)
    assert set(section.tolist()) == {tangent_count, nondegenerate_count(n - 1, q)}
    # the generic classification stays the oracle of the self-dual shortcut
    ctx = make_field(q)
    generic = classify_hyperplanes(standard_form(n, ctx), point_array(n, ctx))[0]
    assert np.array_equal(tangent, generic)
    assert np.array_equal(section, np.where(generic, *hyperplane_section_counts(n, q)))


def test_geometry_needs_no_generic_classification(monkeypatch):
    # tangency comes from the variety mask by self-duality, so neither the
    # geometry nor the incidence double count classifies a hyperplane
    from hermvar import hermitian, search

    def no_classification(*args, **kwargs):
        raise AssertionError("classify_hyperplanes called")

    monkeypatch.setattr(hermitian, "classify_hyperplanes", no_classification)
    monkeypatch.setattr(search, "classify_hyperplanes", no_classification, raising=False)
    geo = build_geometry(4, 2)
    assert int(geo.tangent.sum()) == 165
    rep = incidence_double_count(4, 2)
    assert rep.tangent_hyperplanes == rep.variety_points == 165


def test_build_geometry_totals():
    geo = build_geometry(4, 2)
    assert geo.N == 341
    assert int(geo.tangent.sum()) == 165  # U_4's points, and its tangent hyperplanes
    assert len(geo.planes) == 5797
    # axis section counts live in the three admissible shapes
    assert set(axis_counts(geo).tolist()) == {9, 13, 5}
    stages = geo.stages
    assert stages["pencils"] == 5797
    # 165 points take 21 bytes per row of Z
    assert geo.Z.shape == (341, 21)
    assert set(stages) == {
        "mask_s", "incidence_s", "tangency_s", "prefix_dots", "catalog_s", "pencils"
    }
    # the kernel ran once per distinct prefix of U_4: 85 hyperplane prefixes
    # (P^3) times 85 point prefixes, where one per point made 85 x 165
    assert stages["prefix_dots"] == 85 * 85
    for key in ("mask_s", "incidence_s", "tangency_s", "catalog_s"):
        assert stages[key] >= 0


@pytest.fixture(scope="module")
def triples_4_2():
    """exhaustive_triples(4, 2) with its 1000 samples, and the number of
    arrangement() calls it made."""
    from hermvar import search

    calls = []

    def counted(hyperplanes, f):
        calls.append(hyperplanes)
        return arrangement(hyperplanes, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "arrangement", counted)
        rep = exhaustive_triples(4, 2, seed=3)
    return rep, len(calls)


def test_exhaustive_triples_n4_q2(triples_4_2):
    rep, _ = triples_4_2
    assert rep.total_triples == math.comb(341, 3) == 6_550_610
    assert sum(rep.histogram.values()) == rep.total_triples
    assert rep.global_max == max(rep.histogram)
    # empirical truth at q=2, re-verified by enumeration inside the run:
    # the maximum 3-hyperplane union meets the variety in 111 points,
    # below the q>=7 formula maximum 117
    assert rep.global_max == 111
    assert rep.max_formula_value == 117
    assert rep.reaches_formula_max is False
    assert rep.argmax_total == rep.histogram[rep.global_max] == 14080
    assert rep.samples_verified == 1000
    assert set(rep.argmax_structure) == {"U1|non_tangent,non_tangent,non_tangent"}
    assert len(rep.argmax_arrangements) <= 1000
    first = rep.argmax_arrangements[0]
    assert first["count"] == 111 and len(first["covectors"]) == 3
    # build_geometry's stages and the search's own pass, not serialized
    stages = rep.stages
    assert stages["pencils"] == 5797 and stages["samples"] == 1000
    for key in ("catalog_s", "products_s", "loop_s", "labels_s", "samples_s"):
        assert stages[key] >= 0
    assert "stages" not in rep.to_json_dict()


def test_argmax_arrangements_match_scalar_arrangement(triples_4_2):
    # every listed argmax entry, labelled from counts, is what the scalar
    # classification of its covectors gives
    rep, _ = triples_4_2
    f = standard_form(4, make_field(2))
    assert len(rep.argmax_arrangements) == 1000
    for d in rep.argmax_arrangements:
        hyps = tuple(Hyperplane(tuple(c)) for c in d["covectors"])
        assert arrangement(hyps, f).to_json_dict(count=d["count"]) == d


def test_exhaustive_triples_classifies_only_first_of_each_label(triples_4_2):
    # one arrangement() per argmax label (one label at (4,2)) and one per
    # sample, not one per argmax triple (14,080)
    rep, calls = triples_4_2
    assert calls <= len(rep.argmax_structure) + rep.samples_verified == 1001


def admitted_q():
    """Every q that make_field accepts by default."""
    out = []
    for q in range(2, 257):
        try:
            make_field(q)
        except (ExceedsCap, NotPrimePower):
            continue
        out.append(q)
    return out


def test_section_types_keys_unique():
    # the (dimension, point count) key names one section type, for every
    # admitted q; the table asserts no key repeats, and holds every type
    from hermvar.search import _section_types

    qs = admitted_q()
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13]
    for n in range(4, 10):
        for q in qs:
            table = _section_types(n, q)
            assert len(table) == sum(
                m + 1 - max(-1, 2 * m - n) for m in (n - 2, n - 3)
            )
            for (m, count), st in table.items():
                assert st.m == m and section_count(st, q) == count


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2)])
def test_section_types_match_classify_section(n, q):
    # the triple search's labels: a pencil axis (dimension n - 2) of each
    # shape, and seeded codimension-3 triples, take the table's type for
    # their point count
    from hermvar.search import _section_types

    ctx = make_field(q)
    f = standard_form(n, ctx)
    geo = build_geometry(n, q)
    plane_count = axis_counts(geo)
    table = _section_types(n, q)
    pts = point_array(n, ctx)

    def hyps(idx):
        return [Hyperplane(tuple(pts[r].tolist())) for r in idx]

    for shape in cone_counts(n, q):  # U, Pi0U, Pi1U
        pid = int(np.flatnonzero(plane_count == shape)[0])
        axis = intersect_hyperplanes(hyps(geo.planes[pid, :2]), ctx)
        assert axis.dim == n - 2
        assert table[n - 2, shape] == classify_section(f, axis), shape
    rng = np.random.default_rng(n * q)
    checked = 0
    while checked < 50:
        idx = sorted(int(x) for x in rng.choice(geo.N, size=3, replace=False))
        common = intersect_hyperplanes(hyps(idx), ctx)
        if common.dim != n - 3:
            continue
        i, j, k = idx
        count = int(np.bitwise_count(geo.Z[i] & geo.Z[j] & geo.Z[k]).sum())
        assert table[n - 3, count] == classify_section(f, common), idx
        checked += 1


def test_n_below_4_refused_before_geometry(monkeypatch, capsys):
    # the d = 3 maximum needs n >= 4: the searches refuse smaller n before
    # building any geometry, and the CLI exits 2
    from hermvar import cli, search

    def no_geometry(*args, **kwargs):
        raise AssertionError("geometry built for n < 4")

    monkeypatch.setattr(search, "build_geometry", no_geometry)
    with pytest.raises(OutOfRange):
        exhaustive_triples(3, 2)
    with pytest.raises(OutOfRange):
        pencil_triples_scan(3, 5)
    assert cli.main(["search", "--q", "2", "--n", "3", "--mode", "triples"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "OutOfRange"


def test_exhaustive_triples_budget():
    with pytest.raises(BudgetExceeded):
        exhaustive_triples(4, 3)  # C(7381,3) ~ 6.7e10 triples


def test_pencil_scan_4_3_extremal_structure():
    rep = pencil_triples_scan(4, 3)
    assert rep.pencils == gaussian_binomial(5, 2, 9)  # dual lines of P^4 over F_9
    assert rep.best_count == 784 == rep.max_formula_value
    assert rep.best_is_formula_max
    # the best pencil triples occur only over non-degenerate sections,
    # which carry exactly q+1 = 4 tangent members (so 6 non-tangent)
    assert set(rep.best_structures) == {"U|tangent_members=4"}
    profiles = rep.tangent_members_by_section
    assert set(profiles) == {
        "U|tangent_members=4",
        "Pi0U|tangent_members=1",
        "Pi1U|tangent_members=10",
    }


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (4, 3)])
def test_pencil_scan_matches_sorted_members(n, q):
    # each pencil's best triple from its three largest member section
    # counts; tangent hyperplanes cut more points than the others at (5,2)
    # and fewer at (4,2) and (4,3)
    geo = build_geometry(n, q)
    plane_count = axis_counts(geo)
    top3 = np.sort(geo.S[geo.planes], axis=1)[:, -3:].sum(axis=1)
    best_per_plane = top3 - 2 * plane_count
    tmem = geo.tangent[geo.planes].sum(axis=1)
    rep = pencil_triples_scan(n, q)
    assert rep.best_count == best_per_plane.max()
    is_best = best_per_plane == rep.best_count
    want = _section_profile(plane_count[is_best], tmem[is_best], n, q)
    assert rep.best_structures == want
    assert rep.tangent_members_by_section == _section_profile(
        plane_count, tmem, n, q
    )


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (4, 3)])
def test_gram_keys_match_popcounts_row_for_row(n, q):
    # the Gram pass's keys, in catalog order, give every pencil's axis count
    # and tangent members exactly as the incidence popcounts and the
    # hyperplane classification do
    ctx = make_field(q)
    geo = build_geometry(n, q)
    keys = np.concatenate(list(dual_gram_keys(n, ctx)))
    assert len(keys) == len(geo.planes)
    uniq, inv = np.unique(keys, return_inverse=True)
    plane_count, tmem = _pencil_kinds(uniq, n, ctx)
    assert np.array_equal(plane_count[inv], axis_counts(geo))
    assert np.array_equal(tmem[inv], geo.tangent[geo.planes].sum(axis=1))


@pytest.mark.parametrize("n,q", [(4, 3), (5, 2), (3, 4)])
def test_gram_key_slices_cover_the_catalog_in_order(n, q, monkeypatch):
    # slices that fix leading free digits concatenate to the unsliced keys
    # (the oracle's Gram pass reads _LINE_SLICE through _dual_line_digits),
    # and the catalog built slice by slice is the unsliced one
    from hermvar import search

    ctx = make_field(q)
    whole = list(dual_gram_keys(n, ctx))
    assert len(whole) == math.comb(n + 1, 2)  # one array per (c1, c2) block
    cat = dual_line_catalog(n, ctx)
    limit = ctx.order**2
    monkeypatch.setattr(search, "_LINE_SLICE", limit)
    sliced = list(dual_gram_keys(n, ctx))
    assert len(sliced) > len(whole)
    assert max(len(k) for k in sliced) <= limit
    assert np.array_equal(np.concatenate(sliced), np.concatenate(whole))
    assert np.array_equal(dual_line_catalog(n, ctx), cat)


# SHA-256 of dual_line_catalog's bytes and of the concatenated Gram keys,
# unchanged since the catalog and the keys had one RREF walk each
LINE_DIGESTS = {
    (4, 2): (
        "39a91a07ac472230245a87de2f1ddb5048e2a9d4e7014afdc8e78c933689e232",
        "508259a9b10ea30bae0657c008e6795372acbc1a140bed84c15b6a84f899b9af",
    ),
    (5, 2): (
        "ed7f339d061452e64f7f4274774c69ec3a8954d97a70d9fb51edf1ca54ea86de",
        "fca05b110e35d86b15a0bc0f148d112f2d35695d18eebe1f5bef80b1ff334aa7",
    ),
    (4, 3): (
        "d65414bca87ce45f99a73e975c9cbec64f9b9fa9558c171321544796f00de014",
        "0dc440b7968c834b3ea673da29dbc0037f7ed9ed262b1707db1025aad668c74f",
    ),
}


@pytest.mark.parametrize("n,q", sorted(LINE_DIGESTS))
def test_catalog_and_gram_key_digests(n, q):
    ctx = make_field(q)
    cat = dual_line_catalog(n, ctx)
    keys = np.concatenate(list(dual_gram_keys(n, ctx)))
    assert cat.dtype == np.int32 and keys.dtype == np.int64
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (cat, keys))
    assert got == LINE_DIGESTS[n, q]


def unitary_order(m, q):
    """|U(m, q^2)| = q^(m(m-1)/2) prod_{i<=m} (q^i - (-1)^i)."""
    out = q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        out *= q**i - (-1) ** i
    return out


def test_pencil_scan_reaches_4_4():
    # beyond the N^2 incidence budget the old scan refused
    rep = pencil_triples_scan(4, 4)
    assert rep.pencils == gaussian_binomial(5, 2, 16) == 17_965_585
    assert rep.best_count == max_cubic_intersection(4, 4) == 3185
    assert rep.best_is_formula_max


# the closed-form identities' grid, and the non-degenerate pencils the
# enumerated scans counted where they reach
CENSUS_GRID = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13) for n in range(4, 9)]
ND_ENUMERATED = {(4, 2): 3520, (4, 3): 444_690, (5, 2): 59_136, (4, 4): 14_274_560}


def nondegenerate_lines(n, q):
    return unitary_order(n + 1, q) // (unitary_order(2, q) * unitary_order(n - 1, q))


@pytest.mark.parametrize("n,q,nd", [(n, q, nondegenerate_lines(n, q)) for n, q in CENSUS_GRID])
def test_nondegenerate_pencils_match_unitary_orbit(n, q, nd):
    # the pencils whose axis meets U_n in a non-degenerate variety, which
    # carry q + 1 tangent members, number |U(n+1)| / (|U(2)| |U(n-1)|)
    assert nd == ND_ENUMERATED.get((n, q), nd)
    profile = pencil_triples_scan(n, q).tangent_members_by_section
    assert profile[f"U|tangent_members={q + 1}"] == nd
    assert [k for k in profile if k.startswith("U|")] == [f"U|tangent_members={q + 1}"]


@pytest.mark.parametrize("n,q", CENSUS_GRID)
def test_pencil_census_double_counts(n, q):
    # incidences counted from both sides, with no orbit formula: every dual
    # line once; each tangent hyperplane, one per point of U_n, is a member
    # of the pencils of the dual lines through it, num_points(n - 1) of
    # them; each point of U_n lies on the axes of [n choose 2]_{q^2} pencils
    rep = pencil_triples_scan(n, q)
    axis_of = dict(zip(("U", "Pi0U", "Pi1U"), cone_counts(n, q)))
    classes = []
    for key, pencils in rep.tangent_members_by_section.items():
        shape, tangent = key.split("|tangent_members=")
        classes.append((pencils, axis_of[shape], int(tangent)))
    u_n = nondegenerate_count(n, q)
    assert rep.pencils == gaussian_binomial(n + 1, 2, q * q)
    assert sum(c for c, _, _ in classes) == rep.pencils
    assert sum(c * t for c, _, t in classes) == u_n * num_points(n - 1, q)
    assert sum(c * a for c, a, _ in classes) == u_n * gaussian_binomial(n, 2, q * q)
    assert rep.best_is_formula_max == (not (n % 2 == 0 and q == 2))


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (4, 3), (4, 4)])
def test_pencil_scan_matches_enumeration(n, q):
    # the closed-form report equals the one read from every dual line's
    # Gram key
    assert pencil_triples_scan(n, q) == pencil_scan_enum(n, q)


def test_pencil_scan_visits_no_dual_line(monkeypatch):
    # the report needs no dual line, so it reaches (4,7), 1.4e10 pencils,
    # and (8,7), 4.7e23
    from hermvar import search

    def no_lines(*args, **kwargs):
        raise AssertionError("a dual line was built")

    monkeypatch.setattr(search, "_dual_line_digits", no_lines)
    rep = pencil_triples_scan(4, 7)
    assert rep.pencils == gaussian_binomial(5, 2, 49) == 14_135_532_202
    assert rep.best_count == max_cubic_intersection(4, 7) == 50_912
    rep = pencil_triples_scan(8, 7)
    assert rep.pencils == gaussian_binomial(9, 2, 49)
    assert rep.best_count == max_cubic_intersection(8, 7) == 292_685_890_512
    assert rep.best_is_formula_max


# SHA-256 of the report JSON, unchanged since the scan read build_geometry
SCAN_DIGESTS = {
    (4, 2): "fc99295f3abef5b4b840519eced658991b5cf38a7d3ee22039e21456d12bca86",
    (4, 3): "d0049a83bc00d0de3bc9b7ba1f8293799c2a4b13325126f56546ae5e124f0dc4",
    (5, 2): "35c5ce6426436cee4888e7a148e857b04f61cc4608edaaebb7a0875e7519795a",
}


@pytest.mark.parametrize("n,q", sorted(SCAN_DIGESTS))
def test_pencil_scan_json(n, q):
    text = report_json(pencil_triples_scan(n, q))
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_DIGESTS[n, q]


def test_pencil_scan_4_2_reported_only():
    rep = pencil_triples_scan(4, 2)
    assert rep.best_count == 109  # below the formula value 117: q=2 regime
    assert not rep.best_is_formula_max
    assert rep.tangent_members_by_section["U|tangent_members=3"] > 0


@pytest.mark.parametrize("n,q", [(4, 2)])
def test_pairwise_exclusions(n, q):
    geo = build_geometry(n, q)
    tangent_members = geo.tangent[geo.planes].sum(axis=1)
    u_count, cone0, cone1 = cone_counts(n, q)
    members_total = geo.planes.shape[1]
    for count, t in zip(axis_counts(geo), tangent_members):
        count, t = int(count), int(t)
        assert count in (u_count, cone0, cone1)
        if count == cone1:
            # pairs with a non-tangent member can never cut this shape
            assert members_total - t <= 1
        if count == cone0:
            # tangent-tangent pairs can never cut this shape
            assert t <= 1


def test_incidence_double_count_values():
    rep = incidence_double_count(3, 2)
    assert rep.point_tangent_count == 13 and rep.tangent_count_uniform
    assert rep.variety_points == 45
    rep = incidence_double_count(4, 2)
    assert rep.point_tangent_count == 37 and rep.tangent_count_uniform
    assert rep.tangent_hyperplanes == 165
    assert rep.non_tangent_hyperplanes == 341 - 165 == 176
    assert rep.hyperplanes_through_point == 85
    assert rep.incidence_left == rep.incidence_right
    with pytest.raises(BudgetExceeded):
        incidence_double_count(4, 7)


def test_incidence_budget_counts_cells(monkeypatch):
    # the budget gates Z's cells, one per hyperplane and variety point, not
    # N^2: (7,2) has N^2 = 477,204,025 but N |U_7| = 239,530,425 cells, so
    # it runs at the default budget, and one cell less refuses before any
    # work
    from hermvar import search

    N, cells = num_points(7, 2), num_points(7, 2) * nondegenerate_count(7, 2)
    assert cells == 239_530_425 <= search.DEFAULT_POINT_BUDGET < N * N == 477_204_025
    rep = incidence_double_count(7, 2)
    assert rep.variety_points == nondegenerate_count(7, 2) and rep.tangent_count_uniform
    assert rep.incidence_left == rep.incidence_right

    def no_work(*args):
        raise AssertionError("incidence built over budget")

    monkeypatch.setattr(search, "hyperplane_tangency", no_work)
    with pytest.raises(BudgetExceeded, match="239,530,425 incidence cells"):
        incidence_double_count(7, 2, budget=cells - 1)


# SHA-256 of the report JSON, recorded before the incidence kernel ran once
# per distinct point prefix and the column sums were taken in int32
INCIDENCE_DIGESTS = {
    (2, 3): "325c9b080df0bc226370c6df8e958681fbb6a10afe2398f251cd67367ab0e71b",
    (3, 2): "afde887d66fba0551ba353aef6f8b1ff989592bea7916048b3837bdebb44fee0",
    (4, 2): "16a302377d3345ee8a47a97eb236194675d47a028c6ae2e0e5c2ffb73ddd7cef",
    (5, 2): "8fb58f2bca74bb7e5b766f1a74c85d8cbdc7a3611785f286a3dedcaf5492793a",
    (3, 3): "486663fef39925044584586bdb33290ca19d345f13a6978a3238c1aa83b0dd26",
    (4, 3): "1ede54e77d679f28483763449aa80bd082d20f28e701cbefec5f50f1fefc9b3d",
}


@pytest.mark.parametrize("n,q", sorted(INCIDENCE_DIGESTS))
def test_incidence_double_count_digests(n, q):
    text = report_json(incidence_double_count(n, q))
    assert hashlib.sha256(text.encode()).hexdigest() == INCIDENCE_DIGESTS[n, q]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    count=st.sampled_from([0, 1, 254, 255, 256, 511, 7381]),
    width=st.integers(1, 70).filter(lambda w: w % 8),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=256, width=7, full=True, seed=0)
@example(count=7381, width=61, full=True, seed=0)
def test_column_counts_match_unpacked_sums(count, width, full, seed):
    # runs of 255 rows summed in uint8 must not wrap: all-ones rows reach
    # exactly 255 per run; the padding bits past `width` are set and ignored
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, size=(count, (width + 7) // 8), dtype=np.uint8)
    if full:
        rows[:] = 0xFF
    rows[:, -1] |= 0xFF >> (width % 8)
    got = _column_counts(rows, width)
    want = np.unpackbits(rows, axis=1, count=width).sum(axis=0)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_incidence_double_count_memory_peak():
    # Z's column sums unpack 255 rows at a time, not all of Z; a warm call
    # at (4,3) peaked at 19.5 MiB of numpy buffers when all of Z was unpacked
    incidence_double_count(4, 3)
    tracemalloc.start()
    try:
        incidence_double_count(4, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20, peak


def test_incidence_double_count_stages_are_not_serialized():
    rep = incidence_double_count(4, 2)
    stages = rep.stages
    assert set(stages) == {
        "mask_s",
        "incidence_s",
        "tangency_s",
        "prefix_dots",
        "count_s",
        "hyperplanes",
        "points",
    }
    assert stages["prefix_dots"] == 85 * 85
    assert stages["hyperplanes"] == rep.hyperplanes_total == 341
    assert stages["points"] == rep.variety_points == 165
    for key in ("mask_s", "incidence_s", "tangency_s", "count_s"):
        assert stages[key] >= 0
    assert "stages" not in rep.to_json_dict()
    assert "stages" not in report_json(rep)


def test_random_cubic_sample_deterministic():
    a = random_cubic_sample(4, 2, trials=30, seed=7)
    b = random_cubic_sample(4, 2, trials=30, seed=7)
    assert a.to_json_dict() == b.to_json_dict()
    c = random_cubic_sample(4, 2, trials=30, seed=7, workers=2)
    assert a.to_json_dict() == c.to_json_dict()
    d = random_cubic_sample(4, 2, trials=30, seed=8)
    assert a.histogram != d.histogram  # seed matters
    assert a.retained + len(a.discarded_divisible) == 30
    assert a.threshold == 99
    assert not a.threshold_asserted  # q = 2 is outside the proved range


def test_random_cubic_counts_match_direct_enum():
    # counting on the variety's points must equal the generic enumeration
    # over all of P^4: at (4,2), and at (4,3) where U_4 is 2,440 of 7,381
    from hermvar.cubics import (
        divides_linear,
        intersect_count_enum,
        make_hypersurface,
        monomial_exponents,
    )
    from hermvar.hermitian import standard_form

    exps = monomial_exponents(4, 3)
    for q in (2, 3):
        ctx = make_field(q)
        f = standard_form(4, ctx)
        rep = random_cubic_sample(4, q, trials=10, seed=11)
        discarded = {d["trial"]: d["linear_factor"] for d in rep.discarded_divisible}
        hist = {}
        for t in range(10):
            rng = np.random.default_rng(np.random.SeedSequence((11, t)))
            while True:
                cs = rng.integers(0, ctx.order, size=len(exps))
                if cs.any():
                    break
            C = make_hypersurface({e: int(c) for e, c in zip(exps, cs)}, 4, 3, ctx)
            if t in discarded:
                assert divides_linear(tuple(discarded[t]), C, ctx)
                continue
            c = intersect_count_enum(C, f)
            hist[c] = hist.get(c, 0) + 1
        assert hist == rep.histogram, q
    assert rep.retained == 10
    two = random_cubic_sample(4, 3, trials=10, seed=11, workers=2)
    assert two.to_json_dict() == rep.to_json_dict()


def test_random_cubic_sample_errors_propagate_and_repeat(monkeypatch):
    # repeated calls give identical reports, and a failing trial's error
    # reaches the caller
    from hermvar import search

    first = random_cubic_sample(4, 3, trials=6, seed=1)
    for workers in (1, 2, 1):
        again = random_cubic_sample(4, 3, trials=6, seed=1, workers=workers)
        assert again.to_json_dict() == first.to_json_dict()

    def boom(C, ctx):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(search, "linear_factor", boom)
    with pytest.raises(RuntimeError, match="trial failed"):
        random_cubic_sample(4, 2, trials=3, seed=1)


def test_random_cubic_sample_below_n4_raises_before_any_trial(monkeypatch, capsys):
    # the split threshold needs n >= 4: the OutOfRange comes before any
    # trial is screened or evaluated, and the CLI exits 2
    from hermvar import cli, search

    def no_trial(*args):
        raise AssertionError("trial screened or evaluated for n < 4")

    monkeypatch.setattr(search, "linear_factor", no_trial)
    monkeypatch.setattr(search, "_zero_counts", no_trial)
    with pytest.raises(OutOfRange, match="n=3 below 4"):
        random_cubic_sample(3, 7, trials=12, seed=1)
    argv = ["search", "--q", "7", "--n", "3", "--mode", "random", "--trials", "12"]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "OutOfRange"


def test_random_cubic_sample_without_retained_trials(monkeypatch):
    # no trials, or every trial discarded: a valid empty report, and
    # nothing is evaluated
    from hermvar import search
    from hermvar.projgeom import Hyperplane

    def no_eval(*args):
        raise AssertionError("evaluated with no retained cubic")

    monkeypatch.setattr(search, "_zero_counts", no_eval)
    empty = random_cubic_sample(4, 7, trials=0, seed=0)
    monkeypatch.setattr(search, "linear_factor", lambda C, ctx: Hyperplane((1, 0, 0, 0, 0)))
    dropped = random_cubic_sample(4, 2, trials=4, seed=0)
    for rep, trials in ((empty, 0), (dropped, 4)):
        assert rep.trials == trials and rep.retained == 0
        assert len(rep.discarded_divisible) == trials
        assert rep.histogram == {} and rep.exceedances == []
        assert rep.max_count == -1
        assert rep.stages["points"] == rep.stages["chunks"] == 0
        assert rep.stages["trials_batched"] == 0
        doc = json.loads(report_json(rep))
        assert doc["histogram"] == [] and doc["max_count"] == -1
    assert dropped.discarded_divisible[3] == {"trial": 3, "linear_factor": [1, 0, 0, 0, 0]}


def _seeded_cubics(n, q, count):
    from hermvar.cubics import random_hypersurface

    ctx = make_field(q)
    rng = np.random.default_rng(q)
    return ctx, [random_hypersurface(n, 3, ctx, rng) for _ in range(count)]


def test_warm_zero_counts_allocates_no_work_buffers():
    # the pre-final and final products and the mod-p quotients live in
    # persistent per-role buffers: after one warm call, a second call on 12
    # cubics at (4,7) takes under 1 MiB of new numpy memory (6.04 MiB when
    # every call took its own)
    from hermvar import search

    ctx, polys = _seeded_cubics(4, 7, 12)
    stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
    first = search._zero_counts(polys, 4, ctx, dict(stages))
    tracemalloc.start()
    try:
        again = search._zero_counts(polys, 4, ctx, dict(stages))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, again)
    assert peak < 1 << 20, peak


def test_zero_counts_interleaved_shapes_match_fresh_runs(monkeypatch):
    # the buffers are shared across calls and grown on demand: (4,7), then
    # (3,5) in 2 KiB chunks on the prefixes of (4,7)'s buffers, then (4,7)
    # again on what (3,5) left, each equal to a run on empty buffers and to
    # the enumeration oracle; no two roles ever share memory
    from hermvar import search
    from hermvar.cubics import intersect_count_enum

    stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
    default = search._EVAL_CHUNK_BYTES
    shared = {}
    monkeypatch.setattr(search, "_WORK", shared)
    for n, q, budget in ((4, 7, default), (3, 5, 1 << 11), (4, 7, default)):
        ctx, polys = _seeded_cubics(n, q, 6)
        monkeypatch.setattr(search, "_EVAL_CHUNK_BYTES", budget)
        got = search._zero_counts(polys, n, ctx, dict(stages))
        bufs = list(shared.values())
        assert len(bufs) == 4
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(bufs, 2))
        monkeypatch.setattr(search, "_WORK", {})
        fresh = search._zero_counts(polys, n, ctx, dict(stages))
        monkeypatch.setattr(search, "_WORK", shared)
        f = standard_form(n, ctx)
        want = [intersect_count_enum(C, f) for C in polys]
        assert got.tolist() == fresh.tolist() == want, (n, q)


def _kernel_cubics(n, ctx, rng):
    """A random, a sparse, x_n^3 and a product of three hyperplanes."""
    from hermvar.cubics import (
        expand_product,
        make_hypersurface,
        monomial_exponents,
        random_hypersurface,
    )
    from hermvar.projgeom import Hyperplane, point_array

    exps = monomial_exponents(n, 3)
    picks = rng.choice(len(exps), size=3, replace=False)
    sparse = {exps[i]: int(rng.integers(1, ctx.order)) for i in picks}
    pts = point_array(n, ctx)
    rows = rng.choice(len(pts), size=3, replace=False)
    return [
        random_hypersurface(n, 3, ctx, rng),
        make_hypersurface(sparse, n, 3, ctx),
        make_hypersurface({(0,) * n + (3,): 1}, n, 3, ctx),
        expand_product([Hyperplane(tuple(int(x) for x in pts[r])) for r in rows], ctx),
    ]


def _scaled_part_values(C, n, ctx, pre, r):
    """C_k' = lam_r^(k-3) C_k, k = 0, 1, 2, at the prefix rows pre with
    norm classes r (one per row), each part by eval_poly_at, the cubic first
    scaled by the inverse of its x_n^3 coefficient c3 when c3 != 0."""
    from hermvar.cubics import Hypersurface, eval_poly_at

    mul = ctx.mul_table
    c3 = dict(C.monomials).get((0,) * n + (3,), 0)
    lam_inv = np.array(
        [ctx.inv(int(ctx.norm_fibres[int(x)][0])) if x else 1 for x in r], dtype=np.uint8
    )
    out = []
    for k in range(3):
        terms = tuple((e[:n], c) for e, c in C.monomials if e[n] == k)
        part = Hypersurface(terms, n - 1, 3 - k)
        v = eval_poly_at(part, pre, ctx) if terms else np.zeros(len(pre), dtype=np.uint8)
        for _ in range(3 - k):
            v = mul[lam_inv, v]
        out.append(mul[ctx.inv(c3), v] if c3 else v)
    return np.stack(out)


@pytest.mark.parametrize(
    "n,q",
    [(3, q) for q in (2, 3, 4, 5, 7, 8)] + [(2, q) for q in (9, 11, 13)] + [(4, 2), (4, 3)],
)
def test_batched_values_match_eval_poly_at(n, q, monkeypatch):
    # every digit of every scaled part C_k' at every prefix of every block,
    # for p = 2 .. 13 and m = 2, 4, 6, against eval_poly_at of that part on
    # point_array(n - 1), one cubic at a time; each prefix comes once per
    # cubic and the classes include r = 0; the counts are the zeros on U_n.
    # At n = 3 the second budget, a quarter of it 60 m Q bytes, keeps each
    # block's grid whole but batches the cubics one by one, and at q >= 5
    # it splits the column classes (q + 1 columns) into products of 5; the
    # third keeps the default budget but caps each product's M K N at
    # 4 m^2 Q, one column of one cubic per product in the full-width blocks;
    # the last cuts every block into one-column grids, fixing all
    # coordinates but y_1.  No product's M K N exceeds its cap but where one
    # column already does, and no final product's output its byte budget
    # but where one column of a cubic batch already does.  Each config runs
    # twice: with the unreduced-sum limit as it is, which no desk-scale
    # (n, q) reaches, so only the final reductions run, and with it at 0,
    # so every tensor is reduced mod p before each product
    from hermvar import search
    from hermvar.cubics import eval_poly_at

    ctx = make_field(q)
    p, m = ctx.p, ctx.ndigits
    polys = _kernel_cubics(n, ctx, np.random.default_rng(q))
    coef, _ = search._cubic_coefficients(polys, n, ctx)
    prefixes = point_array(n - 1, ctx)
    U = point_array(n, ctx)[variety_mask(standard_form(n, ctx))]
    want_counts = [int((eval_poly_at(C, U, ctx) == 0).sum()) for C in polys]
    default, product = search._EVAL_CHUNK_BYTES, search._PRODUCT_MNK
    configs = [
        (default, product),
        (240 * m * ctx.order, product),
        (default, 4 * m * m * ctx.order),
        (192 * m, product),
    ]
    matmul, products = np.matmul, []
    mod_p, reductions = search._mod_p, []

    def record(P, X, **kw):
        products.append((P.size * X.shape[-1], P.size))
        return matmul(P, X, **kw)

    def count_reduction(Y, *args):
        reductions.append(Y.size)
        return mod_p(Y, *args)

    monkeypatch.setattr(search.np, "matmul", record)
    monkeypatch.setattr(search, "_mod_p", count_reduction)
    runs, unreduced = {}, search._UNREDUCED_LIMIT
    for (budget, cap), limit in itertools.product(configs, (unreduced, 0)):
        monkeypatch.setattr(search, "_EVAL_CHUNK_BYTES", budget)
        monkeypatch.setattr(search, "_PRODUCT_MNK", cap)
        monkeypatch.setattr(search, "_UNREDUCED_LIMIT", limit)
        products.clear()
        reductions.clear()
        seen = np.zeros((len(prefixes), len(polys)), dtype=np.int64)
        classes = set()
        stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
        for b0, ranks, r, Y in search._scaled_parts(coef, n, ctx, stages):
            w = Y.shape[-1]
            assert Y.shape == (3, m, len(r), ranks.shape[1], w) and b0 + w <= len(polys)
            assert Y.dtype == np.float32 and ((Y >= 0) & (Y < p) & (Y == np.rint(Y))).all()
            col_bytes = 4 * m * len(r) * w  # one column of one part's product
            assert col_bytes * ranks.shape[1] <= max(budget // 12, col_bytes)
            got = np.einsum("kjlct,j->tklc", Y.astype(np.int64), p ** np.arange(m))
            pre = prefixes[ranks.ravel()]
            rows = np.repeat(r, ranks.shape[1])
            for t in range(w):
                want = _scaled_part_values(polys[b0 + t], n, ctx, pre, rows)
                assert np.array_equal(got[t].reshape(3, -1), want), (b0 + t, r)
            np.add.at(seen, (ranks.ravel()[:, None], np.arange(b0, b0 + w)), 1)
            classes.update(r.tolist())
        assert (seen == 1).all()
        assert stages["prefixes"] == len(prefixes) == num_points(n - 1, q)
        assert stages["chunks"] >= n  # at least one pass per pivot block
        assert 0 in classes  # the r = 0 class
        assert stages["points"] == len(U) == nondegenerate_count(n, q)
        assert products and all(mnk <= max(cap, size) for mnk, size in products)
        # at limit 0 every tensor is reduced again before its product
        runs[budget, cap, limit] = len(reductions)
        if not limit:
            assert len(reductions) >= runs[budget, cap, unreduced] + stages["chunks"]
        counts = search._zero_counts(polys, n, ctx, dict.fromkeys(stages, 0))
        assert counts.tolist() == want_counts
    # one pass per cubic and one-column grid
    assert stages["chunks"] == len(polys) * (num_points(n - 2, q) + 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_root_table_counts_norm_one_roots(q):
    # every (kind, u, v, w) entry against a direct count over U, the q + 1
    # elements of norm 1: c3 mu^3 + u mu^2 + v mu + w = 0 at c3 = 1, 0, and
    # slab 2 is [w = 0]
    from hermvar import search

    ctx = make_field(q)
    Q = ctx.order
    U = [x for x in range(Q) if ctx.norm(x) == 1]
    assert len(U) == q + 1
    cnt = search._root_table(ctx)
    assert cnt.dtype == np.uint8 and cnt.shape == (3, Q, Q, Q)
    for slab, c3 in enumerate((1, 0)):
        for u, v, w in itertools.product(range(Q), repeat=3):
            roots = 0
            for mu in U:
                val = ctx.mul(c3, ctx.pow(mu, 3))
                val = ctx.add(val, ctx.mul(u, ctx.pow(mu, 2)))
                val = ctx.add(ctx.add(val, ctx.mul(v, mu)), w)
                roots += val == 0
            assert cnt[slab, u, v, w] == roots, (slab, u, v, w)
    w = np.arange(Q)
    assert np.array_equal(cnt[2], np.broadcast_to(w == 0, (Q, Q, Q)))


@functools.lru_cache(maxsize=None)
def _variety_rows(n, q):
    ctx = make_field(q)
    return point_array(n, ctx)[variety_mask(standard_form(n, ctx))].tolist()


@pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3, 4) for q in (2, 3, 4)])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_zero_counts_match_scalar_count(n, q, data):
    # random, sparse, c3 = 0 and pure x_n^3 cubics, at budgets that split
    # cubic batches, column classes and grids down to one column: the
    # counts equal a scalar evaluate_poly count over U_n
    from hermvar import search
    from hermvar.cubics import make_hypersurface, monomial_exponents

    ctx = make_field(q)
    Q = ctx.order
    exps = monomial_exponents(n, 3)
    top = (0,) * n + (3,)
    polys = []
    kinds = st.sampled_from(["random", "sparse", "no_top", "top"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=2), label="kinds"):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if kind == "top":
            coeffs = {top: int(rng.integers(1, Q))}
        elif kind == "sparse":
            picks = rng.choice(len(exps), size=min(3, len(exps)), replace=False)
            coeffs = {exps[i]: int(rng.integers(1, Q)) for i in picks}
        else:
            coeffs = {e: int(rng.integers(0, Q)) for e in exps}
            if kind == "no_top":
                coeffs[top] = 0
            if not any(coeffs.values()):
                coeffs[exps[0]] = 1
        polys.append(make_hypersurface(coeffs, n, 3, ctx))
    budgets = [1 << 8, 1 << 11, 1 << 14, search._EVAL_CHUNK_BYTES]
    budget = data.draw(st.sampled_from(budgets), label="budget")
    stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_EVAL_CHUNK_BYTES", budget)
        counts = search._zero_counts(polys, n, ctx, stages)
    rows = _variety_rows(n, q)
    want = [sum(evaluate_poly(C, P, ctx) == 0 for P in rows) for C in polys]
    assert counts.tolist() == want
    assert stages["points"] == len(rows)
    if budget == 1 << 8:
        assert stages["chunks"] >= n * len(polys)  # one cubic per batch


def test_zero_counts_of_the_extremal_product():
    # the product of the extremal arrangement's three hyperplanes at (4,7)
    # meets U_4 in the closed-form maximum, 50,912 points
    from hermvar import search
    from hermvar.cubics import build_extremal, expand_product

    ctx = make_field(7)
    arr = build_extremal(standard_form(4, ctx))
    C = expand_product(list(arr.hyperplanes), ctx)
    stages = dict(walk_s=0.0, prefixes=0, points=0, chunks=0)
    assert search._zero_counts([C], 4, ctx, stages).tolist() == [max_cubic_intersection(4, 7)]


def test_random_cubic_sample_budget_counts_variety_points(monkeypatch):
    # the budget gates the points of U_n that are evaluated, not P^n:
    # (4,13) has 820,586,261 points but U_4 only 63,119,980, so it runs at
    # the default budget, and one point less refuses before any trial
    from hermvar import search

    rep = random_cubic_sample(4, 13, 2, seed=0)
    assert rep.stages["points"] == nondegenerate_count(4, 13) == 63_119_980
    assert num_points(4, 13) > search.DEFAULT_POINT_BUDGET

    def no_trial(*args):
        raise AssertionError("trial screened or evaluated over budget")

    monkeypatch.setattr(search, "linear_factor", no_trial)
    monkeypatch.setattr(search, "_zero_counts", no_trial)
    with pytest.raises(BudgetExceeded, match="63,119,980"):
        random_cubic_sample(4, 13, 2, seed=0, budget=63_119_979)


def test_random_cubic_sample_never_scans_projective_space(monkeypatch):
    # the random-cubic path walks U_n by prefixes and norm fibres: with the
    # scan of P^n and the point array unavailable it gives the same report
    from hermvar import hermitian, search

    want = random_cubic_sample(4, 3, trials=8, seed=3)

    def no_scan(*args, **kwargs):
        raise AssertionError("random_cubic_sample scanned P^n")

    for mod in (search, hermitian):
        monkeypatch.setattr(mod, "variety_mask", no_scan)
        # hermitian itself no longer imports point_array
        monkeypatch.setattr(mod, "point_array", no_scan, raising=False)
    got = random_cubic_sample(4, 3, trials=8, seed=3)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.retained > 0 and got.stages["points"] == nondegenerate_count(4, 3)
    assert got.stages["prefixes"] == num_points(3, 3)


def test_random_cubic_screen_needs_no_scalar_algebra():
    # the linear-factor screen restricts to a coordinate plane by selecting
    # monomials and finds no base point, so the library keeps no scalar
    # evaluation or restriction to a basis for it: the job's report repeats
    # run to run, and the screen of a product of three hyperplanes finds the
    # first canonical factor
    from hermvar.cubics import expand_product, linear_factor
    from hermvar.projgeom import Hyperplane

    want = random_cubic_sample(4, 7, trials=12, seed=5)
    ctx = make_field(7)
    hyps = [Hyperplane((0, 1, 3, 0, 2)), Hyperplane((1, 0, 0, 5, 0)), Hyperplane((0, 0, 1, 4, 4))]
    product = expand_product(hyps, ctx)
    got = random_cubic_sample(4, 7, trials=12, seed=5)
    assert got.to_json_dict() == want.to_json_dict()
    assert linear_factor(product, ctx) == hyps[1]


def test_report_serialization(tmp_path):
    rep = random_cubic_sample(4, 2, trials=5, seed=2)
    text1 = report_json(rep, tmp_path / "r.json")
    text2 = report_json(random_cubic_sample(4, 2, trials=5, seed=2))
    assert text1 == text2
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded["schema"] == 1 and loaded["kind"] == "random_cubics"
