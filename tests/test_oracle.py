"""Census machinery: ranks, exhaustive counts, closed-form agreement."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsolve as sp
from spinsolve import oracle
from spinsolve.cli import main
from spinsolve.core import SchemeCensus, dumps_report
from spinsolve.families import family_size
from spinsolve.ffield import MAX_ORDER, FiniteField, is_prime_power
from spinsolve.oracle import (
    CENSUS_REPRESENTATIVES,
    GF2_BLOCK,
    CensusError,
    PointSpace,
    census,
    rank,
    rank_batch,
    rank_batch_gf2,
    verify_family,
)

GF2 = FiniteField(2)
# the orders whose tables FiniteField builds
DESK_ORDERS = [q for q in range(2, MAX_ORDER + 1) if is_prime_power(q)]


def test_rank_zero_matrix():
    assert rank([[0, 0, 0]] * 3, GF2) == 0


def test_rank_identity():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert rank(eye, GF2) == 3


def test_rank_equal_rows():
    assert rank([[1, 1], [1, 1]], GF2) == 1


def test_rank_gf4_conjugate_pair():
    f = FiniteField(4)
    # [[1, t], [t^2, t^3 = 1...]]: second row = t^2 * first row
    t = 2
    t2 = int(f.mul[t, t])
    row2 = [int(f.mul[t2, 1]), int(f.mul[t2, t])]
    assert rank([[1, t], row2], f) == 1


def test_batch_rank_agrees_with_scalar():
    rng = np.random.default_rng(3)
    n = 5
    mats = rng.integers(0, 2, size=(200, n, n))
    rows = np.zeros((200, n), dtype=np.uint16)
    for j in range(n):
        rows |= (mats[:, :, j].astype(np.uint16) << j)
    batch = rank_batch_gf2(rows, n)
    scalar = np.array([rank(m.tolist(), GF2) for m in mats])
    assert np.array_equal(batch, scalar)


def _rank_of_masks(masks, ncols):
    """Scalar rank of one matrix given as per-row bitmasks."""
    return rank([[(r >> j) & 1 for j in range(ncols)] for r in masks], GF2)


@st.composite
def gf2_batches(draw, min_cols=1, max_cols=16):
    """(rows, cols, matrices as row bitmasks); an all-zero matrix and a
    duplicate-row copy of every drawn matrix always ride along."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(min_cols, max_cols))
    row = st.integers(0, (1 << ncols) - 1)
    mats = draw(st.lists(st.lists(row, min_size=nrows, max_size=nrows), max_size=10))
    mats += [[0] * nrows] + [m[:-1] + m[:1] for m in mats if nrows > 1]
    return nrows, ncols, mats


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gf2_batches())
def test_batch_rank_matches_scalar_rank(batch):
    nrows, ncols, mats = batch
    rows = np.array(mats, dtype=np.uint16).reshape(len(mats), nrows)
    assert rank_batch_gf2(rows, ncols).tolist() == [_rank_of_masks(m, ncols) for m in mats]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gf2_batches(min_cols=17, max_cols=64))
def test_batch_rank_of_rows_wider_than_16_bits(batch):
    nrows, ncols, mats = batch
    rows = np.array(mats, dtype=np.uint64).reshape(len(mats), nrows)
    assert rank_batch_gf2(rows, ncols).tolist() == [_rank_of_masks(m, ncols) for m in mats]


@pytest.mark.parametrize("size", [0, 1, GF2_BLOCK - 1, GF2_BLOCK, GF2_BLOCK + 1])
def test_batch_rank_at_block_sizes(size):
    rng = np.random.default_rng(size)
    nrows, ncols = 6, 9
    base = rng.integers(0, 1 << ncols, size=(37, nrows))
    base[0] = 0
    base[1, -1] = base[1, 0]
    picks = rng.integers(0, len(base), size=size)
    expected = np.array([_rank_of_masks(m, ncols) for m in base.tolist()])
    ranks = rank_batch_gf2(base[picks].astype(np.uint16), ncols)
    assert ranks.shape == (size,)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, expected[picks])


def test_batch_rank_rejects_bits_beyond_ncols():
    with pytest.raises(ValueError, match="column 3"):
        rank_batch_gf2(np.array([[1, 8]]), 3)


@pytest.mark.parametrize("rows,ncols,ok", [
    (np.array([[1 << 63, 1]], dtype=np.uint64), 64, True),
    (np.array([[1 << 63, 1]], dtype=np.uint64), 63, False),
    (np.array([[1 << 62, 3]], dtype=np.int64), 63, True),
    (np.array([[2, -1]], dtype=np.int64), 63, False),
    (np.array([[0, -1]], dtype=np.int16), 3, False),
    (np.array([[7, 0]], dtype=np.uint8), 3, True),
], ids=["bit63-at-64", "bit63-at-63", "bit62-at-63", "negative-int64", "negative-int16",
        "top-bit"])
def test_batch_rank_input_check_at_its_edges(rows, ncols, ok):
    if ok:
        assert rank_batch_gf2(rows, ncols).tolist() == [
            _rank_of_masks([int(r) for r in m], ncols) for m in rows]
    else:
        with pytest.raises(ValueError, match=f"column {ncols}"):
            rank_batch_gf2(rows, ncols)


def _of_rank(f, rng, count, nrows, ncols, inner):
    """count matrices of rank exactly inner over f: products B C with
    B = [I; X] (nrows x inner) and C = [I | Y] (inner x ncols), X and Y
    random, each with its rows and columns then shuffled.  Rank 0 is the
    zero matrix."""
    left = rng.integers(0, f.q, size=(count, nrows, inner))
    left[:, :inner] = np.eye(inner, dtype=int)
    right = rng.integers(0, f.q, size=(count, inner, ncols))
    right[:, :, :inner] = np.eye(inner, dtype=int)
    mats = np.zeros((count, nrows, ncols), dtype=np.int16)
    for k in range(inner):
        mats = f.add[mats, f.mul[left[:, :, k, np.newaxis], right[:, np.newaxis, k, :]]]
    rows = rng.permuted(np.tile(np.arange(nrows), (count, 1)), axis=1)
    cols = rng.permuted(np.tile(np.arange(ncols), (count, 1)), axis=1)
    return mats[np.arange(count)[:, np.newaxis, np.newaxis], rows[:, :, np.newaxis],
                cols[:, np.newaxis, :]]


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_table_rank_matches_scalar_rank(q):
    # uniform matrices are almost always of full rank, so every rank up to
    # min(r, c) is made on purpose
    f = FiniteField(q)
    rng = np.random.default_rng(q)
    for nrows in range(1, 7):
        for ncols in range(1, 7):
            inners = range(min(nrows, ncols) + 1)
            mats = np.concatenate([_of_rank(f, rng, 6, nrows, ncols, k) for k in inners])
            expected = [rank(m, f) for m in mats.tolist()]
            assert expected == [k for k in inners for _ in range(6)]
            ranks = rank_batch(mats, f)
            assert ranks.dtype == np.int64
            assert ranks.tolist() == expected, (nrows, ncols)


def test_table_rank_of_a_batch_beyond_a_block():
    f = FiniteField(7)
    rng = np.random.default_rng(29)
    base = np.concatenate([_of_rank(f, rng, 4, 3, 5, k) for k in range(4)])
    picks = rng.integers(0, len(base), size=GF2_BLOCK + 3)
    assert np.array_equal(rank_batch(base[picks], f), picks // 4)
    assert rank_batch(base[:0], f).shape == (0,)


@pytest.mark.parametrize("entry", [-1, 9])
def test_table_rank_rejects_entries_outside_the_field(entry):
    with pytest.raises(ValueError, match="0..8"):
        rank_batch(np.array([[[1, entry]]]), FiniteField(9))


def test_blocked_distance_is_the_rank_of_the_difference():
    params = {"M": 4, "N": 5, "q": 2}
    space = PointSpace(sp.FamilySpec("bilinear", params))
    assert space.n_points > GF2_BLOCK
    rng = np.random.default_rng(13)
    y = int(rng.integers(space.n_points))
    zs = rng.integers(0, space.n_points, size=GF2_BLOCK + 300)  # two blocks

    def matrix(code):
        digits = _mixed_radix(int(code), [2] * 20)
        return [digits[i * 5:(i + 1) * 5] for i in range(4)]

    my = matrix(y)
    ranks = space.raw_between([y], zs)[0]
    # every 16th point, plus both sides of the block boundary and the tail
    checked = sorted({*range(0, len(zs), 16), *range(GF2_BLOCK - 8, len(zs))})
    expected = [rank([[a ^ b for a, b in zip(rz, ry)] for rz, ry in zip(matrix(zs[k]), my)],
                     GF2) for k in checked]
    assert ranks[checked].tolist() == expected


def test_census_of_rows_wider_than_16_bits():
    # 17 columns need rows wider than uint16
    report = verify_family(sp.FamilySpec("bilinear", {"M": 1, "N": 17, "q": 2}))
    assert report["match"], report["mismatches"]
    assert report["census"]["class_sizes"] == [1, 2 ** 17 - 1]


@pytest.mark.parametrize("family,params", [
    ("hamming", {"N": 3, "q": 2}),
    ("hamming", {"N": 2, "q": 3}),
    ("bilinear", {"M": 2, "N": 2, "q": 2}),
    ("bilinear", {"M": 3, "N": 3, "q": 2}),
    ("bilinear", {"M": 2, "N": 2, "q": 3}),
    ("ngon", {"n": 5}),
    ("ngon", {"n": 6}),
    ("ngon", {"n": 7}),
    ("ngon", {"n": 8}),
    # n = 1 has no off-diagonal entries: the space is the fixed subfield
    ("hermitian", {"n": 1, "q": 2}),
    ("hermitian", {"n": 1, "q": 3}),
])
def test_census_matches_closed_form(family, params):
    report = verify_family(sp.FamilySpec(family, params))
    assert report["match"], report["mismatches"]


def test_census_local_counts_sum_to_degree(hamming32):
    cen = census(PointSpace(sp.FamilySpec("hamming", {"N": 3, "q": 2})))
    b0 = cen.class_sizes[1]
    for row in cen.measured_p:
        assert sum(row) == b0


def test_census_is_tridiagonal():
    cen = census(PointSpace(sp.FamilySpec("bilinear", {"M": 2, "N": 3, "q": 2})))
    n = cen.n_classes
    for r in range(n + 1):
        for j in range(n + 1):
            if abs(r - j) >= 2:
                assert cen.measured_p[r][j] == 0


def test_census_size_cap():
    space = PointSpace(sp.FamilySpec("alternating", {"n": 7, "q": 2}))
    with pytest.raises(CensusError, match="cap"):
        census(space, sp.DEFAULT_CONFIG)  # 2^21 points > 10^6 default


@pytest.mark.parametrize("family,params", [
    ("hamming", {"N": 3, "q": 3}),
    ("ngon", {"n": 7}),
    ("bilinear", {"M": 2, "N": 3, "q": 2}),
    ("alternating", {"n": 4, "q": 3}),
    ("hermitian", {"n": 2, "q": 2}),
])
def test_point_count_is_the_family_size(family, params):
    spec = sp.FamilySpec(family, params)
    assert PointSpace(spec).n_points == family_size(spec)


def test_census_point_counts():
    assert PointSpace(sp.FamilySpec("alternating", {"n": 6, "q": 2})).n_points == 2 ** 15
    assert PointSpace(sp.FamilySpec("hermitian", {"n": 3, "q": 2})).n_points == 2 ** 9
    assert PointSpace(sp.FamilySpec("bilinear", {"M": 3, "N": 4, "q": 2})).n_points == 2 ** 12


def test_alternating_census_consistency(big_cfg):
    report = verify_family(sp.FamilySpec("alternating", {"n": 6, "q": 2}), big_cfg)
    assert report["match"], report["mismatches"]
    sizes = report["census"]["class_sizes"]
    assert sum(sizes) == 2 ** 15


def test_hermitian_census_consistency():
    report = verify_family(sp.FamilySpec("hermitian", {"n": 2, "q": 2}))
    assert report["match"], report["mismatches"]


def test_verify_family_reports_a_closed_form_the_census_contradicts(monkeypatch):
    spec = sp.FamilySpec("hamming", {"N": 2, "q": 3})
    wrong = sp.IntersectionArray([4, 1], [1, 4])
    monkeypatch.setattr(oracle, "closed_form_array", lambda spec: wrong)
    report = verify_family(spec)
    assert report["match"] is False
    assert report["mismatches"] == [
        "census array b=[4, 2] c=[1, 2] a=[0, 1, 2] differs from the "
        "closed form b=[4, 1] c=[1, 4] a=[0, 2, 0]"]


@pytest.mark.parametrize("doctor, mismatches", [
    (dict(class_sizes=(1, 4, 11)),
     ["valencies [1, 5, 10] != measured class sizes [1, 4, 11]"]),
    (dict(class_sizes=(1, 5, 11)),
     ["valencies [1, 5, 10] != measured class sizes [1, 5, 11]",
      "class sizes do not partition the space"]),
    # an entry off the band, which the derived array does not read
    (dict(measured_p=((0, 5, 1), (1, 0, 4), (0, 2, 3))),
     ["row 0 of the p-table sums to 6 != 5"]),
    # an entry in the band: the derived array itself misses b_0, and the
    # closed form
    (dict(measured_p=((0, 5, 0), (1, 1, 4), (0, 2, 3))),
     ["census array b=[5, 4] c=[1, 2] a=[0, 1, 3] is invalid: a_1+b_1+c_1 = 6 != b_0 = 5",
      "row 1 of the p-table sums to 6 != 5",
      "census array b=[5, 4] c=[1, 2] a=[0, 1, 3] differs from the closed form "
      "b=[5, 4] c=[1, 2] a=[0, 0, 3]"]),
], ids=["moved-point", "extra-point", "row-sum", "in-band"])
def test_verify_family_reports_a_doctored_census(monkeypatch, doctor, mismatches):
    # on hermitian(2, 2) the census's own checks run before the comparison
    # with the closed form, which only a doctored derived array fails
    real = oracle.census
    monkeypatch.setattr(oracle, "census",
                        lambda *args: dataclasses.replace(real(*args), **doctor))
    report = verify_family(sp.FamilySpec("hermitian", {"n": 2, "q": 2}))
    assert report["match"] is False
    assert report["mismatches"] == mismatches
    assert '"match": false' in dumps_report(report)  # the report still writes


def test_alternating_q3_census():
    # odd characteristic goes through the generic table-driven path
    report = verify_family(sp.FamilySpec("alternating", {"n": 4, "q": 3}))
    assert report["match"], report["mismatches"]
    assert report["census"]["point_count"] == 3 ** 6


def _mixed_radix(code, radices):
    digits = []
    for radix in radices:
        digits.append(code % radix)
        code //= radix
    return digits


def _point_matrix(family, params, code):
    """The field and the matrix of one point, decoded digit by digit:
    row-major entries of a min(M, N) x max(M, N) matrix for bilinear
    forms, the strict upper triangle (row-major) for alternating and
    Hermitian forms, whose Hermitian diagonal digits come first and index
    the fixed subfield."""
    q = params["q"]
    if family == "bilinear":  # min(M, N) x max(M, N), the layout rank sees
        m, n = sorted((params["M"], params["N"]))
        digits = _mixed_radix(code, [q] * (m * n))
        return FiniteField(q), [digits[i * n:(i + 1) * n] for i in range(m)]
    n = params["n"]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mat = [[0] * n for _ in range(n)]
    if family == "alternating":
        f = FiniteField(q)
        mirror = f.neg
        digits = _mixed_radix(code, [q] * len(upper))
    else:
        f = FiniteField(q * q)
        mirror = f.conjugation()
        fixed = f.fixed_elements(mirror)
        digits = _mixed_radix(code, [q] * n + [q * q] * len(upper))
        for i in range(n):
            mat[i][i] = fixed[digits[i]]
        digits = digits[n:]
    for (i, j), d in zip(upper, digits):
        mat[i][j] = d
        mat[j][i] = int(mirror[d])
    return f, mat


@pytest.mark.parametrize("family,params", [
    ("bilinear", {"M": 2, "N": 3, "q": 3}),
    ("alternating", {"n": 4, "q": 3}),
    ("hermitian", {"n": 2, "q": 2}),
    ("hermitian", {"n": 2, "q": 4}),  # fixed subfield {0, 1, 6, 7}: not the first q indices
    ("bilinear", {"M": 2, "N": 3, "q": 2}),
    ("alternating", {"n": 4, "q": 2}),
    # M > N: taken as N x M, like bilinear(N, M)
    ("bilinear", {"M": 5, "N": 3, "q": 2}),
    ("bilinear", {"M": 7, "N": 3, "q": 2}),
])
def test_distance_is_the_rank_of_the_difference(family, params):
    space = PointSpace(sp.FamilySpec(family, params))
    f = _point_matrix(family, params, 0)[0]

    def matrix(code):
        return _point_matrix(family, params, int(code))[1]

    rng = np.random.default_rng(5)
    for y in rng.integers(0, space.n_points, size=4):
        zs = rng.integers(0, space.n_points, size=30)
        expected = [rank([[int(f.sub[a, b]) for a, b in zip(rz, ry)]
                          for rz, ry in zip(matrix(z), matrix(y))], f) for z in zs]
        assert space.raw_between([y], zs)[0].tolist() == expected
        assert space.raw_between([0], zs)[0].tolist() == [rank(matrix(z), f) for z in zs]


def _scalar_distance(family, params, y, z):
    """Circular distance, Hamming weight or rank of z - y, point by point."""
    if family == "ngon":
        d = (z - y) % params["n"]
        return min(d, params["n"] - d)
    if family == "hamming":
        radices = [params["q"]] * params["N"]
        return sum(a != b for a, b in zip(_mixed_radix(y, radices), _mixed_radix(z, radices)))
    f, my = _point_matrix(family, params, y)
    mz = _point_matrix(family, params, z)[1]
    return rank([[int(f.sub[a, b]) for a, b in zip(rz, ry)] for rz, ry in zip(mz, my)], f)


@pytest.mark.parametrize("family,params", [
    ("ngon", {"n": 9}),
    ("hamming", {"N": 4, "q": 3}),
    ("bilinear", {"M": 2, "N": 3, "q": 2}),
    ("bilinear", {"M": 5, "N": 4, "q": 2}),
    ("alternating", {"n": 6, "q": 2}),
    ("bilinear", {"M": 2, "N": 3, "q": 3}),
    ("alternating", {"n": 4, "q": 3}),
    ("hermitian", {"n": 2, "q": 2}),
])
def test_batched_distance_is_a_loop_of_scalar_distances(family, params):
    space = PointSpace(sp.FamilySpec(family, params))
    rng = np.random.default_rng(17)
    ys = rng.integers(0, space.n_points, size=5)
    ys[0] = 0
    zs = rng.integers(0, space.n_points, size=40)
    dists = space.raw_between(ys, zs)
    assert dists.shape == (5, 40)
    assert dists.tolist() == [[_scalar_distance(family, params, int(y), int(z)) for z in zs]
                              for y in ys]


@pytest.mark.parametrize("family,params", [
    ("bilinear", {"M": 2, "N": 3, "q": 3}),
    ("bilinear", {"M": 3, "N": 2, "q": 5}),
    ("hermitian", {"n": 2, "q": 4}),
    ("alternating", {"n": 4, "q": 5}),
])
@pytest.mark.parametrize("block,n_ys,n_zs", [
    (16, 3, 40),  # one y per chunk, its zs in three chunks
    (64, 7, 20),  # three ys per chunk: chunks of 3, 3 and 1 ys
])
def test_batched_gfq_distances_across_chunks(family, params, block, n_ys, n_zs, monkeypatch):
    monkeypatch.setattr(oracle, "GF2_BLOCK", block)
    space = PointSpace(sp.FamilySpec(family, params))
    rng = np.random.default_rng(31)
    ys = rng.integers(0, space.n_points, size=n_ys)
    ys[0] = 0
    zs = rng.integers(0, space.n_points, size=n_zs)
    dists = space.raw_between(ys, zs)
    assert dists.shape == (n_ys, n_zs)
    assert dists.tolist() == [[_scalar_distance(family, params, int(y), int(z)) for z in zs]
                              for y in ys]


@pytest.mark.parametrize("family,params", [
    ("hermitian", {"n": 3, "q": 3}),
    ("alternating", {"n": 4, "q": 5}),
    ("alternating", {"n": 5, "q": 3}),
])
def test_gfq_census_class_sizes_are_the_valencies(family, params):
    report = verify_family(sp.FamilySpec(family, params))
    assert report["match"], report["mismatches"]
    cen = report["census"]
    arr = sp.IntersectionArray.from_dict(cen["array"])
    assert [int(v) for v in sp.valencies(arr)] == cen["class_sizes"]
    assert sum(cen["class_sizes"]) == cen["point_count"] == family_size(sp.FamilySpec(family, params))


@pytest.mark.parametrize("n_ys,n_zs", [
    (3, GF2_BLOCK + 100),  # one y per chunk, its zs in two chunks
    (40, 1500),  # 21 ys per chunk: chunks of 21 and 19 ys
])
def test_batched_gf2_distances_across_chunks(n_ys, n_zs):
    params = {"M": 4, "N": 5, "q": 2}
    space = PointSpace(sp.FamilySpec("bilinear", params))
    rng = np.random.default_rng(23)
    ys = rng.integers(0, space.n_points, size=n_ys)
    zs = rng.integers(0, space.n_points, size=n_zs)
    dists = space.raw_between(ys, zs)
    assert dists.shape == (n_ys, n_zs)
    cols = sorted({0, n_zs - 1, *range(min(n_zs, GF2_BLOCK) - 2, min(n_zs, GF2_BLOCK + 2)),
                   *rng.integers(0, n_zs, size=12).tolist()})
    assert dists[:, cols].tolist() == [
        [_scalar_distance("bilinear", params, int(y), int(zs[k])) for k in cols] for y in ys]


def test_representatives_are_recorded():
    cen = census(PointSpace(sp.FamilySpec("ngon", {"n": 8})))
    assert cen.representatives_checked[0] == 1  # only the base point
    assert all(k >= 1 for k in cen.representatives_checked)


class _BrokenSpace(PointSpace):
    """Circular distance from the base point, but a garbled pairwise
    distance: representatives of the same class then disagree."""

    def raw_between(self, codes_y, codes_z):
        codes_y = np.asarray(codes_y)[:, np.newaxis]
        diff = (codes_z - codes_y) % self.n
        return np.minimum(diff, self.n - diff + (codes_y % 2))


def test_disagreeing_representatives_are_an_error():
    space = _BrokenSpace(sp.FamilySpec("ngon", {"n": 9}))
    with pytest.raises(CensusError, match="disagree|do not occur"):
        census(space)


class _StraySpace(PointSpace):
    """The last representative sees one neighbour at a distance above
    max_raw, which no point has from the base point."""

    def raw_between(self, codes_y, codes_z):
        dists = super().raw_between(codes_y, codes_z)
        if len(codes_y) > 1:
            dists[-1, 0] = self.max_raw + 1
        return dists


def test_a_distance_above_every_class_is_an_error():
    space = _StraySpace(sp.FamilySpec("ngon", {"n": 9}))
    with pytest.raises(CensusError, match=r"distances \[5\] between points do not occur"):
        census(space)


class _OddRankSpace(PointSpace):
    """One point of an alternating-forms space reads rank 1 from 0."""

    def raw_from_zero(self):
        raws = super().raw_from_zero()
        raws[1] = 1
        return raws


def test_an_odd_rank_in_an_alternating_space_is_an_error():
    space = _OddRankSpace(sp.FamilySpec("alternating", {"n": 4, "q": 2}))
    with pytest.raises(CensusError, match=r"odd ranks \[1\] in an alternating-forms space"):
        census(space)


class _ShortSpace(PointSpace):
    """A space that expects one distance class fewer than it has."""

    def __post_init__(self):
        super().__post_init__()
        self.n_classes = 2


class _FarSpace(PointSpace):
    """One point, in the last block, reads a rank above every rank the
    space allows."""

    def raw_from_zero(self):
        raws = super().raw_from_zero()
        raws[-1] = self.max_raw + 1
        return raws


def test_a_distance_above_max_raw_from_the_base_point_is_an_error(big_cfg):
    space = _FarSpace(sp.FamilySpec("bilinear", {"M": 4, "N": 5, "q": 2}))
    with pytest.raises(CensusError, match=r"distances \[5\] from the base point exceed 4"):
        census(space, big_cfg)


def test_a_class_count_other_than_the_family_expects_is_an_error():
    space = _ShortSpace(sp.FamilySpec("hamming", {"N": 3, "q": 2}))
    with pytest.raises(CensusError, match="observed 4 distance classes, expected 3"):
        census(space)


class _SwappedSpace(PointSpace):
    """Between representatives and neighbours, distances 1 and 3 trade
    places; from the base point they do not."""

    def raw_between(self, codes_y, codes_z):
        dists = super().raw_between(codes_y, codes_z)
        if len(codes_y) > 1:
            dists = np.array([0, 3, 2, 1, 4], dtype=dists.dtype)[dists]
        return dists


def test_a_p_table_off_the_tridiagonal_band_is_an_error():
    space = _SwappedSpace(sp.FamilySpec("ngon", {"n": 9}))
    with pytest.raises(CensusError, match=r"p_\(1,3\)\^0 = 2 breaks tridiagonality"):
        census(space)


def test_census_of_transposed_bilinear_matches_closed_form(big_cfg):
    # M > N: taken as 3 x 7 matrices, three bit-packed rows of 7 bits
    report = verify_family(sp.FamilySpec("bilinear", {"M": 7, "N": 3, "q": 2}), big_cfg)
    assert report["match"], report["mismatches"]
    assert report["census"]["point_count"] == 2 ** 21


def test_census_of_a_space_beyond_int64_is_an_error():
    # the cap allows 2^70 points; the codes could not be indexed
    cfg = sp.DEFAULT_CONFIG.with_(census_max_points=10 ** 23)
    space = PointSpace(sp.FamilySpec("bilinear", {"M": 1, "N": 70, "q": 2}))
    with pytest.raises(CensusError, match=f"bilinear .* has {2 ** 70} points"):
        census(space, cfg)


def test_a_field_beyond_the_tables_is_refused_by_the_census(capsys):
    # FamilySpec takes any prime power; only FiniteField bounds q
    spec = sp.FamilySpec("bilinear", {"M": 1, "N": 2, "q": 17})
    with pytest.raises(ValueError, match=r"GF\(17\) exceeds desk scale \(q <= 16\)"):
        PointSpace(spec)
    assert main(["oracle", "census", "--family", "bilinear", "--M", "1", "--N", "2",
                 "--q", "17"]) == 2
    assert capsys.readouterr().err == "error: GF(17) exceeds desk scale (q <= 16)\n"


def test_distances_of_ngon_wider_than_uint8(big_cfg):
    # distances up to 300 need uint16; uint8 would wrap them onto 0..255
    report = verify_family(sp.FamilySpec("ngon", {"n": 601}), big_cfg)
    assert report["match"], report["mismatches"]
    assert len(report["census"]["class_sizes"]) == 301


def _reference_census(space):
    """The census before the streamed pass, kept as an oracle: every code
    in one int64 array, a class-index gather and one scan per class."""
    codes = np.arange(space.n_points, dtype=np.int64)
    raws = space.raw_between([0], codes)[0]
    observed = np.flatnonzero(np.bincount(raws))
    class_of_raw = {int(r): k for k, r in enumerate(observed)}
    n_classes = len(observed) - 1
    raw_lookup = np.full(int(observed[-1]) + 1, -1, dtype=np.int64)
    for r, k in class_of_raw.items():
        raw_lookup[r] = k
    cls = raw_lookup[raws]
    class_sizes = np.bincount(cls, minlength=n_classes + 1)
    neighbors = codes[cls == 1]
    p_table, reps_checked = [], []
    for r in range(n_classes + 1):
        members = codes[cls == r][:CENSUS_REPRESENTATIVES]
        rows = {tuple(int(x) for x in np.bincount(
            raw_lookup[space.raw_between([y], neighbors)[0]], minlength=n_classes + 1))
            for y in members}
        assert len(rows) == 1
        p_table.append(rows.pop())
        reps_checked.append(len(members))
    return SchemeCensus(family=space.family, params=dict(space.spec.params),
                        point_count=int(space.n_points), class_of_distance=class_of_raw,
                        class_sizes=tuple(int(x) for x in class_sizes),
                        measured_p=tuple(p_table), representatives_checked=tuple(reps_checked))


class _RecordingSpace(PointSpace):
    """Records the y codes of every raw_between call."""

    def __post_init__(self):
        super().__post_init__()
        self.ys = []

    def raw_between(self, codes_y, codes_z):
        self.ys.append([int(y) for y in codes_y])
        return super().raw_between(codes_y, codes_z)


@pytest.mark.parametrize("family,params", [
    ("bilinear", {"M": 1, "N": 3, "q": 2}),  # smaller than one block
    ("bilinear", {"M": 4, "N": 5, "q": 2}),  # 32 blocks
    ("alternating", {"n": 6, "q": 2}),
    ("bilinear", {"M": 2, "N": 3, "q": 3}),  # scalar rank path
    ("hermitian", {"n": 2, "q": 2}),
    ("hamming", {"N": 4, "q": 3}),
    ("ngon", {"n": 9}),
    ("bilinear", {"M": 5, "N": 4, "q": 2}),  # taken as 4 x 5
    ("alternating", {"n": 7, "q": 2}),  # 64 blocks, only even ranks counted
])
def test_streamed_census_matches_the_reference(family, params, big_cfg):
    spec = sp.FamilySpec(family, params)
    streamed, reference = _RecordingSpace(spec), _RecordingSpace(spec)
    cen = census(streamed, big_cfg)
    assert dumps_report(cen) == dumps_report(_reference_census(reference))
    # the same representatives, in the same order, all in one call after
    # the base point's
    k = sum(cen.representatives_checked)
    assert streamed.ys[-1] == [y for ys in reference.ys[-k:] for y in ys]
    assert all(ys == [0] for ys in streamed.ys[:-1])


@pytest.mark.parametrize("family,params", [
    ("bilinear", {"M": 4, "N": 5, "q": 2}),
    ("bilinear", {"M": 5, "N": 4, "q": 2}),
    ("alternating", {"n": 6, "q": 2}),
    ("bilinear", {"M": 1, "N": 3, "q": 2}),
])
def test_streamed_distances_match_the_general_distance(family, params):
    space = PointSpace(sp.FamilySpec(family, params))
    raws = space.raw_from_zero()
    assert raws.dtype == np.uint8
    assert raws.tolist() == space.raw_between([0], np.arange(space.n_points))[0].tolist()


@pytest.mark.parametrize("family,params,shared", [
    ("alternating", {"n": 7, "q": 2}, 3),  # 64 blocks
    ("bilinear", {"M": 3, "N": 7, "q": 2}, 2),  # 64 blocks
    ("bilinear", {"M": 1, "N": 17, "q": 2}, 0),  # 4 blocks, every row its block's own
    ("alternating", {"n": 6, "q": 2}, 6),  # one block: every row shared
    ("bilinear", {"M": 1, "N": 3, "q": 2}, 1),  # smaller than one block
])
def test_prefix_reduced_distances_are_the_batch_ranks(family, params, shared):
    space = PointSpace(sp.FamilySpec(family, params))
    bases = space._gf2_rows(np.arange(0, space.n_points, GF2_BLOCK))
    # the rows no block base touches come first
    assert bases.any(axis=1).tolist() == [False] * shared + [True] * (len(bases) - shared)
    raws = space.raw_from_zero()
    for start in range(0, space.n_points, GF2_BLOCK):
        codes = np.arange(start, min(start + GF2_BLOCK, space.n_points))
        expected = rank_batch_gf2(space._gf2_rows(codes).T, space.shape[1])
        assert np.array_equal(raws[codes], expected), start


@pytest.mark.parametrize("family,params,code", [
    ("bilinear", {"M": 4, "N": 5, "q": 2}, 1),  # in the offset table only
    ("bilinear", {"M": 4, "N": 5, "q": 2}, GF2_BLOCK),  # a block base only
    ("bilinear", {"M": 1, "N": 3, "q": 2}, 5),  # one block
])
def test_gf2_distances_refuse_bits_beyond_the_row_width(family, params, code, monkeypatch):
    space = PointSpace(sp.FamilySpec(family, params))
    ncols, rows_of = space.shape[1], space._gf2_rows

    def rows_with_a_stray_bit(codes):
        rows = rows_of(codes)
        rows[-1, np.asarray(codes) == code] |= 1 << ncols
        return rows

    monkeypatch.setattr(space, "_gf2_rows", rows_with_a_stray_bit)
    with pytest.raises(ValueError, match=f"column {ncols}"):
        space.raw_from_zero()


def test_census_histograms_rows_without_a_wide_cast():
    # bilinear(1,19,2): every nonzero point is a neighbour, so the census
    # holds the uint8 distances (1 byte a point), the uint32 neighbour codes
    # (4) and six representatives' uint8 rows (6).  int64 codes, or an intp
    # cast of one row while histogramming it, would add 4 or 8 more.
    space = PointSpace(sp.FamilySpec("bilinear", {"M": 1, "N": 19, "q": 2}))
    census(PointSpace(space.spec))  # warm numpy's own caches first
    tracemalloc.start()
    try:
        cen = census(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cen.representatives_checked == (1, 5)
    assert peak < 14 * space.n_points


def test_census_scans_distances_without_a_whole_space_temporary(big_cfg):
    # alternating(7,2): the uint8 distances are 1 byte a point and the
    # first class has 2667 of 2^21 points; one whole-space bool mask or a
    # widened copy of the distances would add 1 byte a point or more
    space = PointSpace(sp.FamilySpec("alternating", {"n": 7, "q": 2}))
    census(PointSpace(space.spec), big_cfg)  # warm numpy's own caches first
    tracemalloc.start()
    try:
        census(space, big_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * space.n_points


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("length", [1, GF2_BLOCK, GF2_BLOCK + 1])
def test_bincount_matches_numpy(dtype, length):
    rng = np.random.default_rng(length)
    values = range(6)
    row = rng.integers(0, 9, size=length).astype(dtype)  # values in and beyond range(6)
    row[-1] = 6
    counts, stray, firsts, nearest = oracle._tally(row, values, 3)
    assert counts == np.bincount(row, minlength=9)[:6].tolist()
    assert stray == sorted(set(row.tolist()) - set(values))
    assert firsts == [np.flatnonzero(row == v)[:3].tolist() for v in values]
    present = [v for v in values if v and v in row]  # the smallest is the first class
    assert nearest.dtype == np.uint32
    assert nearest.tolist() == (np.flatnonzero(row == present[0]).tolist() if present else [])
    low = row % 3  # every value in range(6): the histogram is padded to it
    counts, stray, firsts, nearest = oracle._tally(low, values)
    assert counts == np.bincount(low, minlength=6).tolist()
    assert (stray, firsts, len(nearest)) == ([], [[]] * 6, 0)
