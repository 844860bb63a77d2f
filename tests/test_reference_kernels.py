"""Each rewritten kernel against the code it replaced.

The functions named reference_* are the earlier implementations, kept
verbatim in logic: exact Fraction arithmetic for validation and
valencies, numpy scalars for the profile recurrence and its filter,
column writes for the eigenmatrix, and m - mu I and t0^3 m - I formed
in full for the cube.  The rewrites do the same arithmetic with less
overhead, so every comparison here is exact equality.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinsolve as sp
from spinsolve import families, solver
from spinsolve.core import IntersectionArray, max_abs, valencies, validate_array
from spinsolve.families import FamilySpec, build, eigenmatrix, eigenvalues_from_array
from spinsolve.solver import filter_x, scalar_and_T0, solve, t_profile

CFG = sp.DEFAULT_CONFIG


# -- references ----------------------------------------------------------------


def float_arrays(arr):
    """The float view as the numpy arrays the references computed on."""
    return tuple(np.array(x) for x in arr.float_params())


def reference_derived_a(b, c):
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    full_b = b + [Fraction(0)]
    full_c = [Fraction(0)] + c
    return tuple(b[0] - full_b[i] - full_c[i] for i in range(len(b) + 1))


def reference_problems(arr):
    problems = []
    n = arr.n_classes
    if arr.a[0] != 0:
        problems.append(f"a_0 = {arr.a[0]} must be 0")
    for i, bi in enumerate(arr.b):
        if bi <= 0:
            problems.append(f"b_{i} = {bi} must be positive")
    for i, ci in enumerate(arr.c, start=1):
        if ci <= 0:
            problems.append(f"c_{i} = {ci} must be positive")
    for i, ai in enumerate(arr.a):
        if ai < 0:
            problems.append(f"a_{i} = {ai} must be nonnegative")
    b0 = arr.b[0]
    for i in range(n + 1):
        total = arr.a[i] + arr.b_at(i) + arr.c_at(i)
        if total != b0:
            problems.append(f"a_{i}+b_{i}+c_{i} = {total} != b_0 = {b0}")
    v = Fraction(1)
    for j in range(n):
        if arr.c[j] == 0:
            break
        v = v * arr.b[j] / arr.c[j]
        if v <= 0:
            problems.append(f"v_{j + 1} = {v} must be positive")
    return problems


def reference_valencies(arr):
    v = [Fraction(1)]
    for bj, cj in zip(arr.b, arr.c):
        v.append(v[-1] * bj / cj)
    return v


def reference_t_profile(arr, theta, x):
    n = arr.n_classes
    v, a, b, c = float_arrays(arr)
    th = np.asarray(theta, dtype=float)
    t = np.zeros(n + 1, dtype=complex)
    t[0] = 1.0
    t[1] = x
    for i in range(1, n):
        t[i + 1] = (v[i] * t[i] * (x * th[i] - a[i]) - b[i - 1] * v[i - 1] * t[i - 1]) / (
            c[i] * v[i + 1]
        )
    return t


def reference_filter_x(arr, theta, x, cfg=CFG):
    t = reference_t_profile(arr, theta, x)
    s = reference_t_profile(arr, theta, 1.0 / x)
    n = arr.n_classes
    for i in range(1, n + 1):
        if abs(t[i] * s[i] - 1.0) > cfg.filter_tol:
            return False, f"reciprocal_identity_failed at i={i}"
    v, a, b, _ = float_arrays(arr)
    lhs = v[n] * t[n] * (x * float(theta[n]) - a[n])
    rhs = b[n - 1] * v[n - 1] * t[n - 1]
    gap_scale = max(abs(lhs), abs(rhs))
    if gap_scale > 0 and abs(lhs - rhs) > cfg.filter_tol * gap_scale:
        return False, "terminal_failed"
    return True, None


def reference_cube(p, t):
    """(m, mu, defect, norm) as formed before: m - mu I in full."""
    pt = p * np.asarray(t, dtype=complex)[np.newaxis, :]
    m = pt @ pt @ pt
    dim = m.shape[0]
    mu = complex(np.trace(m)) / dim
    return m, mu, max_abs(m - mu * np.eye(dim)), max_abs(m)


def reference_residual(m, t0):
    return max_abs(t0**3 * m - np.eye(m.shape[0]))


_REFERENCE_TWO_COS = {
    Fraction(0): 2.0, Fraction(1, 3): 1.0, Fraction(1, 2): 0.0,
    Fraction(2, 3): -1.0, Fraction(1): -2.0, Fraction(4, 3): -1.0,
    Fraction(3, 2): 0.0, Fraction(5, 3): 1.0,
}


def reference_two_cos_two_pi(i, n):
    r = Fraction(2 * i, n) % 2
    if r in _REFERENCE_TWO_COS:
        return _REFERENCE_TWO_COS[r]
    return 2.0 * math.cos(2.0 * math.pi * i / n)


def reference_eigenmatrix(arr, theta):
    _, a, b, c = float_arrays(arr)
    theta = np.asarray(theta, dtype=float)
    n = arr.n_classes
    p = np.zeros((n + 1, n + 1))
    p[:, 0] = 1.0
    p[:, 1] = theta
    for j in range(1, n):
        p[:, j + 1] = ((theta - a[j]) * p[:, j] - b[j - 1] * p[:, j - 1]) / c[j]
    return p


# -- strategies ----------------------------------------------------------------

# Exact entries of every kind the constructor takes, zero and negative included.
entries = st.one_of(
    st.integers(-3, 12),
    st.fractions(min_value=-3, max_value=12, max_denominator=30),
    st.floats(min_value=-3, max_value=12, allow_nan=False, allow_infinity=False),
)


@st.composite
def any_arrays(draw):
    """(array, whether a was derived): valid arrays and not, with a
    derived, given, or derived and then perturbed, so row sums break as
    well as signs."""
    n = draw(st.integers(1, 6))
    b = draw(st.lists(entries, min_size=n, max_size=n))
    c = draw(st.lists(entries, min_size=n, max_size=n))
    how = draw(st.sampled_from(("derived", "given", "perturbed")))
    if how == "derived":
        return IntersectionArray(b, c), True
    if how == "given":
        a = draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
        return IntersectionArray(b, c, a), False
    a = list(reference_derived_a(b, c))
    a[draw(st.integers(0, n))] += draw(entries)
    return IntersectionArray(b, c, a), False


@st.composite
def valid_arrays(draw, max_classes=6, kind=Fraction):
    """Valid arrays of rationals: b_i + c_i <= b_0 keeps every a_i
    nonnegative; a common denominator up to 30 makes their floats inexact.
    With kind=float the entries are those floats, and rounding can leave
    an a_i just below zero."""
    n = draw(st.integers(1, max_classes))
    b0 = draw(st.integers(20, 200))
    b, c = [b0], []
    for _ in range(1, n):
        ci = draw(st.integers(1, b0 * 9 // 10))
        b.append(draw(st.integers(1, b0 - ci)))
        c.append(ci)
    c.append(draw(st.integers(1, b0)))
    den = draw(st.integers(1, 30))
    return IntersectionArray([kind(Fraction(x, den)) for x in b],
                             [kind(Fraction(x, den)) for x in c])


ratios = st.one_of(
    st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2, allow_nan=False,
                       allow_infinity=False),
    st.floats(min_value=0.01, max_value=100).map(lambda r: -r),
    st.floats(min_value=0.0, max_value=2 * math.pi).map(lambda phi: cmath.exp(1j * phi)),
    st.sampled_from((1j, -1j, -1.0 + 0j, 1.0 - 0j, complex(-1.0, -0.0))),
)


def _theta(draw, arr):
    return draw(st.lists(st.floats(min_value=-20, max_value=20), min_size=arr.n_classes + 1,
                         max_size=arr.n_classes + 1))


SCHEMES = [FamilySpec("hamming", {"N": n, "q": q}) for n, q in ((1, 2), (3, 2), (4, 3), (6, 5))]
SCHEMES += [FamilySpec("ngon", {"n": n}) for n in (3, 6, 7, 12, 101)]
SCHEMES += [FamilySpec("bilinear", {"M": 2, "N": 3, "q": 2}),
            FamilySpec("bilinear", {"M": 3, "N": 3, "q": 2})]


def _spec_id(spec):
    return f"{spec.family}{spec.params}"


# -- core ------------------------------------------------------------------------


@given(st.one_of(any_arrays(), valid_arrays(kind=Fraction).map(lambda arr: (arr, True)),
                 valid_arrays(kind=float).map(lambda arr: (arr, True))))
@settings(max_examples=100, deadline=None)
def test_validation_and_valencies_match_reference(case):
    arr, derived = case
    if derived:
        assert arr.a == reference_derived_a(arr.b, arr.c)
        assert all(type(x) is Fraction for x in arr.a)
    expected = reference_problems(arr)
    assert validate_array(arr) == expected
    if expected:
        with pytest.raises(ValueError, match="invalid intersection array"):
            valencies(arr)
        return
    got = valencies(arr)
    assert got == reference_valencies(arr)
    assert all(type(v) is Fraction for v in got)
    v, a, b, c = arr.float_params()
    assert v == tuple(float(x) for x in reference_valencies(arr))
    assert a == tuple(float(x) for x in arr.a)
    assert b == tuple(float(x) for x in arr.b)
    assert c == tuple(float(x) for x in arr.c)


# -- solver ----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_t_profile_and_filter_match_reference(data):
    arr = data.draw(valid_arrays(max_classes=8))
    theta = _theta(data.draw, arr)
    x = data.draw(ratios)
    assert np.array_equal(t_profile(arr, theta, x), reference_t_profile(arr, theta, x))
    assert filter_x(arr, theta, x, CFG) == reference_filter_x(arr, theta, x)


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_profiles_and_filters_of_every_root_match_reference(spec):
    scheme = build(spec)
    coeffs = solver.candidate_quartic(scheme.array, scheme.theta)
    for x in solver.roots_of_quartic(coeffs, CFG):
        for z in (x, 1.0 / x):
            assert np.array_equal(t_profile(scheme.array, scheme.theta, z),
                                  reference_t_profile(scheme.array, scheme.theta, z))
        assert (filter_x(scheme.array, scheme.theta, x, CFG)
                == reference_filter_x(scheme.array, scheme.theta, x))


def _check_cube(p, t):
    m, mu, defect, norm = reference_cube(p, t)
    try:
        cube = scalar_and_T0(p, t, CFG)
    except solver.SingularCubeError:
        assert defect <= CFG.residual_tol * norm
        return
    assert np.array_equal(cube.matrix, m)
    assert (cube.mu, cube.defect, cube.norm) == (mu, defect, norm)
    assert cube.is_scalar == (defect <= CFG.residual_tol * norm)
    for t0 in cube.t0_roots:
        assert solver._root_residual(m, t0) == reference_residual(m, t0)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_scalar_cube_matches_reference_on_random_profiles(data):
    dim = data.draw(st.integers(2, 7))
    real = st.floats(min_value=-5, max_value=5)
    p = np.array(data.draw(st.lists(real, min_size=dim * dim, max_size=dim * dim)))
    t = data.draw(st.lists(ratios, min_size=dim, max_size=dim))
    _check_cube(p.reshape(dim, dim), np.array(t, dtype=complex))


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_scalar_cube_matches_reference_on_solutions(spec):
    scheme = build(spec)
    for s in solve(scheme).accepted:
        _check_cube(scheme.eigenmatrix, np.array(s.t))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_root_residual_matches_reference(data):
    dim = data.draw(st.integers(1, 4))
    entry = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    m = np.array(data.draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)))
    t0 = data.draw(ratios)
    m = m.reshape(dim, dim)
    assert solver._root_residual(m, t0) == reference_residual(m, t0)


# -- families ----------------------------------------------------------------------


def test_two_cos_two_pi_matches_reference():
    for n in range(3, 401):
        for i in range(n // 2 + 1):
            assert families._two_cos_two_pi(i, n) == reference_two_cos_two_pi(i, n), (i, n)


@given(valid_arrays(max_classes=8))
@settings(max_examples=50, deadline=None)
def test_eigenmatrix_matches_reference(arr):
    try:
        theta = eigenvalues_from_array(arr)
    except families.BuildError:
        assume(False)
    p = eigenmatrix(arr, theta)
    assert p.flags.c_contiguous
    assert np.array_equal(p, reference_eigenmatrix(arr, theta))


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_eigenmatrix_of_named_families_matches_reference(spec):
    scheme = build(spec)
    assert np.array_equal(scheme.eigenmatrix,
                          reference_eigenmatrix(scheme.array, scheme.theta))
