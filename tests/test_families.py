"""Family builders: arrays, eigenvalues, eigenmatrices, self-duality."""

import math
from fractions import Fraction

import numpy as np
import pytest

import spinsolve as sp
from spinsolve.core import valencies
from spinsolve.families import (
    BuildError,
    _equal_magnitude_pairs,
    FamilySpec,
    build,
    build_custom,
    closed_form_array,
    eigenmatrix,
    eigenvalues_from_array,
)


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


@pytest.mark.parametrize("n", [8, 12, 398])
def test_equal_magnitude_pairs_match_double_loop(n):
    eigs = build(FamilySpec("ngon", {"n": n})).theta
    scale = max(1.0, float(np.max(np.abs(eigs))))
    loop = [
        (i, j)
        for i in range(1, len(eigs))
        for j in range(i + 1, len(eigs))
        if abs(abs(eigs[i]) - abs(eigs[j])) <= 1e-9 * scale
    ]
    assert loop  # even n-gons pair theta_i with -theta_i
    assert _equal_magnitude_pairs(eigs) == loop


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
        assert scheme.self_dual_defect() <= 1e-8
        assert all(v.denominator == 1 for v in valencies(scheme.array))


def test_hermitian_eigenvalues_alternate_in_sign(hermitian32):
    assert np.allclose(hermitian32.theta, [21, -11, 5, -3])
    assert hermitian32.theta[1] < hermitian32.theta[2]  # ordered by |theta|, not value


def test_parameter_range_errors():
    with pytest.raises(BuildError):
        FamilySpec("hamming", {"N": 0, "q": 2})
    with pytest.raises(BuildError):
        FamilySpec("bilinear", {"M": 2, "N": 2, "q": 6})  # not a prime power
    with pytest.raises(BuildError):
        FamilySpec("ngon", {"n": 2})
    with pytest.raises(BuildError):
        FamilySpec("alternating", {"n": 6, "q": 32})  # beyond desk scale


def test_custom_build_measures_self_duality():
    arr = sp.IntersectionArray(b=[2.5, 1.0], c=[1.0, 2.0])
    scheme = build_custom(arr)
    assert scheme.family == "custom"
    assert scheme.size == Fraction(19, 4)  # 1 + 5/2 + 5/4
    assert scheme.self_dual_defect() >= 0.0


def test_custom_requires_valid_array():
    bad = sp.IntersectionArray(b=[2], c=[1], a=[0, 2])
    with pytest.raises(ValueError):
        build_custom(bad)
