"""Family builders: arrays, eigenvalues, eigenmatrices, self-duality."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinsolve as sp
from spinsolve import families
from spinsolve.cli import main
from spinsolve.core import max_abs, validate_array, valencies
from spinsolve.families import (
    BuildError,
    FamilySpec,
    build,
    build_custom,
    closed_form_array,
    eigenmatrix,
    eigenvalues_from_array,
)
from spinsolve.oracle import PointSpace, census
from spinsolve.theorems import random_intersection_array


def test_hamming_32_full_instance(hamming32):
    assert hamming32.size == 8
    assert list(hamming32.theta) == [3, 1, -1, -3]
    expected = np.array([
        [1, 3, 3, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -3, 3, -1],
    ])
    assert np.array_equal(hamming32.eigenmatrix, expected)


def test_bilinear_332_eigenvalues(bilinear332):
    assert bilinear332.size == 512
    assert list(bilinear332.theta) == [49, 17, 1, -7]


def test_ngon6_instance(ngon6):
    arr = ngon6.array
    assert [int(b) for b in arr.b] == [2, 1, 1]
    assert [int(c) for c in arr.c] == [1, 1, 2]
    assert list(ngon6.theta) == [2, 1, -1, -2]
    expected = np.array([
        [1, 2, 2, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -2, 2, -1],
    ])
    assert np.array_equal(ngon6.eigenmatrix, expected)


def test_eigenmatrix_first_column_is_ones(hamming32, bilinear332, ngon6):
    for scheme in (hamming32, bilinear332, ngon6):
        assert np.array_equal(scheme.eigenmatrix[:, 0],
                              np.ones(scheme.n_classes + 1))


def test_eigenmatrix_valency_row(bilinear332):
    v = [float(x) for x in valencies(bilinear332.array)]
    assert np.allclose(bilinear332.eigenmatrix[0], v)


def test_hamming_eigenvalues_match_linear_form():
    for n in range(2, 7):
        for q in (2, 3, 4, 5):
            scheme = build(FamilySpec("hamming", {"N": n, "q": q}))
            assert list(scheme.theta) == [n * (q - 1) - q * i for i in range(n + 1)]


def test_bilinear_eigenvalues_match_rational_form():
    # theta_i = (de + q^i (1 - d - e))/((q - 1) q^i) with d = q^M, e = q^N
    for m in range(1, 7):
        for n in range(1, 7):
            for q in families.DESK_PRIME_POWERS:
                spec = FamilySpec("bilinear", {"M": m, "N": n, "q": q})
                d, e = q**m, q**n
                want = [Fraction(d * e + q**i * (1 - d - e), (q - 1) * q**i)
                        for i in range(min(m, n) + 1)]
                theta = families._closed_form(spec)[1]
                assert all(type(t) is int for t in theta)
                assert theta == want, (m, n, q)


def test_eigenvalues_from_array_hamming_42():
    arr = closed_form_array(FamilySpec("hamming", {"N": 4, "q": 2}))
    assert np.allclose(eigenvalues_from_array(arr), [4, 2, 0, -2, -4])


def test_eigenvalues_from_array_bilinear():
    arr = closed_form_array(FamilySpec("bilinear", {"M": 3, "N": 3, "q": 2}))
    assert np.allclose(eigenvalues_from_array(arr), [49, 17, 1, -7])


def test_eigenvalues_from_array_ngon7():
    arr = closed_form_array(FamilySpec("ngon", {"n": 7}))
    assert [int(b) for b in arr.b] == [2, 1, 1]
    assert [int(c) for c in arr.c] == [1, 1, 1]
    assert [int(a) for a in arr.a] == [0, 0, 0, 1]
    expected = [2.0] + [2 * math.cos(2 * math.pi * i / 7) for i in (1, 2, 3)]
    assert np.allclose(eigenvalues_from_array(arr), expected)


def test_eigenmatrix_rejects_repeated_eigenvalues(hamming32):
    with pytest.raises(ValueError, match="coincide"):
        eigenmatrix(hamming32.array, [3, 1, 1, -3])


def test_eigenmatrix_names_first_coinciding_pair(hamming32):
    # pairs (0, 3) and (1, 2) coincide; (0, 3) comes first row by row
    with pytest.raises(ValueError, match="eigenvalues 0 and 3 coincide"):
        eigenmatrix(hamming32.array, [3, 1, 1, 3])


@pytest.mark.parametrize("spec", [
    FamilySpec("hamming", {"N": 5, "q": 4}),
    FamilySpec("bilinear", {"M": 2, "N": 4, "q": 3}),
    FamilySpec("ngon", {"n": 9}),
    FamilySpec("ngon", {"n": 12}),
])
def test_self_duality_and_valency_sum(spec):
    scheme = build(spec)
    size = float(scheme.size)
    p = scheme.eigenmatrix
    assert np.max(np.abs(p @ p - size * np.eye(p.shape[0]))) <= 1e-8 * size
    assert sum(valencies(scheme.array)) == scheme.size


@pytest.mark.parametrize("N", [1000, 1020])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_build_refuses_a_nan_self_duality_defect(N):
    # P @ P overflows (from N = 1020 P itself holds inf and NaN), so the
    # defect is NaN, which no comparison with the tolerance may let through
    with pytest.raises(BuildError, match="best defect nan"):
        build(FamilySpec("hamming", {"N": N, "q": 2}))


@pytest.mark.parametrize("N, q", [(30, 5), (60, 2), (20, 16)])
def test_non_self_dual_build_fails_fast(N, q):
    # the float P of these misses P^2 = |X| I under every order, so build()
    # must give up after the orders that theta_1 implies, not try all N!
    start = time.perf_counter()
    with pytest.raises(BuildError, match=r"best defect \d\.\d{3}e[+-]\d+ >"):
        build(FamilySpec("hamming", {"N": N, "q": q}))
    assert time.perf_counter() - start < 1.0


def test_ngon_end_classes():
    even = build(FamilySpec("ngon", {"n": 10}))
    assert even.array.c[-1] == 2
    assert valencies(even.array)[-1] == 1
    odd = build(FamilySpec("ngon", {"n": 11}))
    assert odd.array.a[-1] == 1
    assert valencies(odd.array)[-1] == 2


def test_census_built_families_validate(alternating62, hermitian32):
    assert sp.validate_array(alternating62.array) == []
    assert sp.validate_array(hermitian32.array) == []
    assert alternating62.size == 2 ** 15
    assert hermitian32.size == 512
    for scheme in (alternating62, hermitian32):
        assert scheme.self_dual_defect <= 1e-8
        assert all(v.denominator == 1 for v in valencies(scheme.array))


def test_hermitian_eigenvalues_alternate_in_sign(hermitian32):
    assert np.allclose(hermitian32.theta, [21, -11, 5, -3])
    assert hermitian32.theta[1] < hermitian32.theta[2]  # ordered by |theta|, not value


# Every alternating- and Hermitian-forms space the tests and CI census.
FORMS_SPACES = ([FamilySpec("alternating", {"n": n, "q": 2}) for n in range(4, 8)]
                + [FamilySpec("alternating", {"n": 4, "q": q}) for q in (3, 4, 5)]
                + [FamilySpec("alternating", {"n": 5, "q": 3})]
                + [FamilySpec("hermitian", {"n": n, "q": 2}) for n in range(1, 5)]
                + [FamilySpec("hermitian", {"n": n, "q": q}) for n in (1, 2, 3) for q in (3, 4)])


@pytest.mark.parametrize("spec", FORMS_SPACES,
                         ids=lambda s: f"{s.family}({s.params['n']},{s.params['q']})")
def test_classical_parameters_give_the_census_array_and_spectrum(spec, big_cfg):
    measured = census(PointSpace(spec), big_cfg).derived_array()
    arr, theta = families._closed_form(spec)
    assert (arr.b, arr.c, arr.a) == (measured.b, measured.c, measured.a)
    assert all(type(t) is int for t in theta)
    eigs = eigenvalues_from_array(measured)
    scale = max(abs(t) for t in theta)
    assert np.max(np.abs(np.sort(eigs) - sorted(theta))) <= 1e-12 * scale


def test_alternating_82_builds_without_a_census():
    # 2^28 points, far beyond any census cap
    scheme = build(FamilySpec("alternating", {"n": 8, "q": 2}))
    assert scheme.size == 2 ** 28
    assert scheme.self_dual_defect == 0.0
    assert sp.solve(scheme).count == 0


@pytest.mark.parametrize("family, n, coefficients", [
    ("hermitian", "3", [-11, 0, 278, 0, -11]),
    ("alternating", "6", [139, 12420, 286178, 12420, 139]),
])
def test_symbolic_quartic_of_forms_is_exact(capsys, family, n, coefficients):
    assert main(["symbolic", "quartic", "--family", family, "--n", n, "--q", "2"]) == 0
    written = json.loads(capsys.readouterr().out)["result"]["coefficients_high_to_low"]
    assert written == coefficients and all(type(c) is int for c in written)


def test_parameter_range_errors():
    with pytest.raises(BuildError):
        FamilySpec("hamming", {"N": 0, "q": 2})
    with pytest.raises(BuildError):
        FamilySpec("bilinear", {"M": 2, "N": 2, "q": 6})  # not a prime power
    with pytest.raises(BuildError):
        FamilySpec("ngon", {"n": 2})
    with pytest.raises(BuildError):
        FamilySpec("alternating", {"n": 6, "q": 32})  # beyond desk scale
    with pytest.raises(BuildError, match="bilinear requires M, N >= 1"):
        FamilySpec("bilinear", {"M": 0, "N": 2, "q": 2})
    with pytest.raises(BuildError, match="alternating requires n >= 4"):
        FamilySpec("alternating", {"n": 3, "q": 2})
    with pytest.raises(BuildError, match="hermitian requires n >= 1"):
        FamilySpec("hermitian", {"n": 0, "q": 2})


def test_eigenvalues_from_array_refuses_a_repeated_eigenvalue():
    # a_0 = a_2 = 0 couple only through b_0 c_1 = b_1 c_2 = 2e-20, so two
    # eigenvalues near 0 lie closer than the tolerance
    arr = sp.IntersectionArray(b=[2, 1e-20], c=[1e-20, 2])
    with pytest.raises(BuildError, match="repeated eigenvalue in intersection matrix"):
        eigenvalues_from_array(arr)


def test_custom_build_measures_self_duality():
    arr = sp.IntersectionArray(b=[2.5, 1.0], c=[1.0, 2.0])
    scheme = build_custom(arr)
    assert scheme.family == "custom"
    assert scheme.size == Fraction(19, 4)  # 1 + 5/2 + 5/4
    assert scheme.self_dual_defect >= 0.0


def test_self_dual_defect_is_measured_on_the_reported_eigenmatrix(hermitian32):
    # the defect the builders keep is max |P^2 - |X| I| / |X| of the very
    # P the scheme reports, bit for bit
    schemes = [build(FamilySpec("hamming", {"N": 4, "q": 3})),
               build(FamilySpec("bilinear", {"M": 2, "N": 3, "q": 2})),
               build(FamilySpec("ngon", {"n": 7})),
               hermitian32,
               build_custom(random_intersection_array(random.Random(18), 4))]
    for scheme in schemes:
        p, size = scheme.eigenmatrix, float(scheme.size)
        assert scheme.self_dual_defect == max_abs(p @ p - size * np.eye(len(p))) / size


def test_custom_requires_valid_array():
    bad = sp.IntersectionArray(b=[2], c=[1], a=[0, 2])
    with pytest.raises(ValueError):
        build_custom(bad)


def test_eigen_builders_reject_invalid_arrays():
    bad = sp.IntersectionArray(b=[2, -1], c=[0, 2], a=[1, 2, 0])
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid intersection array"):
            eigenvalues_from_array(bad)
        with pytest.raises(ValueError, match="invalid intersection array"):
            eigenmatrix(bad, [2.0, 0.0, -1.0])


@st.composite
def valid_float_arrays(draw):
    """Valid arrays as theorem 1 draws them: b_i + c_i <= b_0 keeps a_i >= 0."""
    n = draw(st.integers(1, 8))
    b0 = draw(st.floats(1.0, 10.0))
    b, c = [b0], []
    for _ in range(1, n):
        ci = draw(st.floats(0.05, 0.9 * b0))
        b.append(draw(st.floats(0.05, b0 - ci)))
        c.append(ci)
    c.append(draw(st.floats(0.05, b0)))
    arr = sp.IntersectionArray(b, c)
    assume(not validate_array(arr))  # b_0 - c_i - b_i may round below zero
    return arr


@settings(max_examples=200, deadline=None)
@given(valid_float_arrays(), st.data())
def test_eigenmatrix_of_a_reordered_spectrum_is_a_row_permutation(arr, data):
    try:
        eigs = eigenvalues_from_array(arr)
    except BuildError:
        assume(False)
    order = data.draw(st.permutations(range(len(eigs))))
    permuted = eigenmatrix(arr, eigs[order])
    assert np.array_equal(permuted, eigenmatrix(arr, eigs)[order])
    assert permuted.flags.c_contiguous


def test_each_build_makes_one_eigenmatrix(monkeypatch):
    calls = []
    real = families.eigenmatrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(families, "eigenmatrix", counted)
    rng = random.Random(3)
    for _ in range(50):
        calls.clear()
        build_custom(random_intersection_array(rng, rng.randint(2, 6)))
        assert len(calls) == 1
    for family, params in (("hamming", {"N": 4, "q": 3}), ("ngon", {"n": 7}),
                           ("bilinear", {"M": 3, "N": 3, "q": 2}),
                           ("alternating", {"n": 4, "q": 2})):
        calls.clear()
        build(FamilySpec(family, params))
        assert len(calls) == 1, family


@pytest.mark.parametrize("spec", [FamilySpec("hamming", {"N": 400, "q": 7}),
                                  FamilySpec("hamming", {"N": 1024, "q": 2}),
                                  FamilySpec("bilinear", {"M": 40, "N": 40, "q": 2})])
def test_build_refuses_a_size_beyond_float_range(spec):
    with pytest.raises(BuildError, match="too large for float arithmetic"):
        build(spec)


def test_build_custom_refuses_a_size_beyond_float_range():
    arr = sp.IntersectionArray(b=[2e200, 1e200], c=[1e-200, 1e200])
    with pytest.raises(BuildError, match="too large for float arithmetic"):
        build_custom(arr)


def _refuse_to_allocate(*args):
    raise AssertionError("an eigen-array was allocated")


def test_build_refuses_more_classes_than_the_bound_before_allocating(monkeypatch):
    monkeypatch.setattr(families, "eigenmatrix", _refuse_to_allocate)
    monkeypatch.setattr(families, "eigenvalues_from_array", _refuse_to_allocate)
    over = families.MAX_CLASSES + 1
    with pytest.raises(BuildError, match=f"{over} classes exceed the bound of "
                                         f"{families.MAX_CLASSES}"):
        build(FamilySpec("ngon", {"n": 2 * over}))
    with pytest.raises(BuildError, match=f"{over} classes exceed the bound"):
        build_custom(closed_form_array(FamilySpec("ngon", {"n": 2 * over + 1})))
    # at the bound itself the build goes on to the eigenmatrix
    with pytest.raises(AssertionError, match="allocated"):
        build(FamilySpec("ngon", {"n": 2 * families.MAX_CLASSES}))
    with pytest.raises(AssertionError, match="allocated"):
        build_custom(closed_form_array(FamilySpec("ngon", {"n": 2 * families.MAX_CLASSES})))
