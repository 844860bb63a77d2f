"""Each rewritten kernel against the code it replaced, or against the
property that code guarded.

The functions named reference_* are the earlier implementations, kept
verbatim in logic: exact Fraction arithmetic for validation and
valencies, column writes for the eigenmatrix, and the cube
(P diag(t))^3 as three complex factors.  The rewrites do the same
arithmetic with less overhead, so those comparisons are exact equality,
but two.  The cube is the oracle of the solver's one-product decision:
each solution's mu must be the scalar of the cube of its own profile,
within Higham's componentwise bound on the cube's rounding (Accuracy and
Stability of Numerical Algorithms, 2nd ed., sections 3.5 and 3.6).  The
pair filter's reference forms every term of every equation on numpy
arrays and takes each modulus on its own, where solve walks the rows in
order and multiplies moduli.  The profile recurrence has no reference:
each of its steps is held to Higham's bound on the rounding of its
terms, and a conjugate ratio to the conjugate profile, by value.
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
from spinsolve.core import (IntersectionArray, max_abs, valencies, valency_sum,
                            validate_array)
from spinsolve.families import FamilySpec, build, eigenmatrix, eigenvalues_from_array
from spinsolve.oracle import PointSpace, census
from spinsolve.solver import filter_x, scalar_and_T0, solve, t_profile

CFG = sp.DEFAULT_CONFIG
UNIT = np.finfo(float).eps / 2


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
        total = arr.a[i] + arr.b_at(i) + (arr.c[i - 1] if i else 0)  # c_0 = 0
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


def reference_filter_x(arr, theta, x):
    """The pair check on numpy arrays: s = 1/t(x_d), x_d the dominant
    member of {x, 1/x}, solves rows 1..N of the recurrence at 1/x_d, and
    t(x_d) solves the terminal equation, each within FILTER_TOL of the sum
    of its terms' moduli; a zero or non-finite t_i fails the row fixing
    s_i.  Every term is formed, and its modulus taken, on its own."""
    xd = x if abs(x) >= 1 or abs(abs(x) - 1) <= solver.ROOT_DEDUP_TOL else 1.0 / x
    t = t_profile(arr, theta, xd)
    n = arr.n_classes
    v, a, b, c = float_arrays(arr)
    th = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vs = v / t
        terms = np.zeros((4, n + 1), dtype=complex)
        terms[0, :n] = vs[1:] * th[1:] / xd
        terms[1, :n] = vs[1:] * a[1:]
        terms[2, :n] = b * vs[:-1]
        terms[3, :n - 1] = c[1:] * vs[2:]
        terms[:3, n] = (v[n] * t[n] * xd * th[n], v[n] * t[n] * a[n], b[n - 1] * v[n - 1] * t[n - 1])
        gaps = np.abs(terms[0] - terms[1] - terms[2] - terms[3])
        sums = np.abs(terms).sum(axis=0)
        passed = (gaps <= solver.FILTER_TOL * sums) & np.isfinite(sums)
    passed[:n - 1] &= (t[2:] != 0) & np.isfinite(t[2:])
    if passed.all():
        return True, None
    row = int(np.argmin(passed)) + 1
    return False, f"reciprocal_identity_failed at i={row + 1}" if row < n else "terminal_failed"


def reference_cube(p, t):
    """(P diag(t))^3 as formed before: three complex factors."""
    pt = p * np.asarray(t, dtype=complex)[np.newaxis, :]
    return pt @ pt @ pt


def cube_error_bound(a, t, extra=0):
    """gamma_k |A||T||A||T||A||T| with k = 6 (n + 3 + extra): each of two
    computations of (A T)^3 in any order is within gamma_{3(n + 3)} of
    it, n terms per inner product and a few complex products per term;
    `extra` covers roundings of A's own entries.  That bound assumes no
    underflow; each rounding below the normal range adds at most the
    smallest subnormal, which the later factors grow by at most
    1 + max row sum of |A||T| each."""
    k = 6 * (len(t) + 3 + extra)
    unit = np.finfo(float).eps / 2
    at = np.abs(a) * np.abs(np.asarray(t, dtype=complex))[np.newaxis, :]
    growth = 1.0 + float(at.sum(axis=1).max())
    return (k * unit / (1 - k * unit) * (at @ at @ at)
            + k * np.finfo(float).smallest_subnormal * growth**2)


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


def reference_coincidence(theta):
    """eigenmatrix's coincidence error text, from the pairwise array."""
    theta = np.asarray(theta, dtype=float)
    scale = max(1.0, float(np.max(np.abs(theta))))
    coincide = np.abs(theta[:, np.newaxis] - theta[np.newaxis, :]) <= 1e-12 * scale
    hits = np.argwhere(np.triu(coincide, k=1))
    return f"eigenvalues {hits[0][0]} and {hits[0][1]} coincide" if len(hits) else None


def reference_self_dual_ordering(arr, eigs, size, tol):
    n = len(eigs) - 1
    identity = np.arange(n + 1)
    p_desc = eigenmatrix(arr, eigs)
    target = size * np.eye(n + 1)

    def measure(order):
        p = p_desc[order]
        return max_abs(p @ p - target) / size, eigs[order], p

    desc = measure(identity)
    if desc[0] <= tol:
        return desc
    if not math.isfinite(desc[0]) and not np.isfinite(p_desc).all():
        return desc
    v = arr.float_params()[0]
    implied = v[1] * p_desc / v
    for row in implied[1:]:
        order = np.abs(row[:, np.newaxis] - eigs[np.newaxis, :]).argmin(axis=1)
        is_permutation = np.array_equal(np.sort(order), identity)
        if not is_permutation or np.array_equal(order, identity):
            continue
        found = measure(order)
        if found[0] <= tol:
            return found
    tail = sorted(range(1, n + 1), key=lambda i: (-abs(eigs[i]), -eigs[i]))
    by_magnitude = measure([0] + tail)
    return by_magnitude if by_magnitude[0] < desc[0] else desc


def _exact(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _exact_product(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def assert_solves_recurrence(arr, theta, x, t):
    """Row i of the recurrence t_profile steps through,
        v_i t_i (x theta_i - a_i) - b_{i-1} v_{i-1} t_{i-1} - c_i v_{i+1} t_{i+1},
    evaluated exactly on the floats given and computed, is within gamma_10
    of the sum of its terms' moduli: a step rounds x theta_i - a_i, two
    complex-by-real and one complex product, a difference, c_i v_{i+1}
    and the quotient, each within u or sqrt(2) gamma_2 of its value
    (Higham, sections 3.5 and 3.6)."""
    v, a, b, c = arr.float_params()
    th = [float(value) for value in theta]
    k = 10
    gamma = k * UNIT / (1 - k * UNIT)
    xr, xi = _exact(x)
    for i in range(1, arr.n_classes):
        ti, prev, nxt = _exact(t[i]), _exact(t[i - 1]), _exact(t[i + 1])
        first = _exact_product((Fraction(v[i]) * ti[0], Fraction(v[i]) * ti[1]),
                               (xr * Fraction(th[i]) - Fraction(a[i]), xi * Fraction(th[i])))
        back = Fraction(b[i - 1]) * Fraction(v[i - 1])
        fore = Fraction(c[i]) * Fraction(v[i + 1])
        gap = [first[j] - back * prev[j] - fore * nxt[j] for j in (0, 1)]
        total = (v[i] * abs(t[i]) * (abs(x) * abs(th[i]) + abs(a[i]))
                 + b[i - 1] * v[i - 1] * abs(t[i - 1]) + c[i] * v[i + 1] * abs(t[i + 1]))
        assert gap[0] ** 2 + gap[1] ** 2 <= Fraction(gamma * total) ** 2, (x, i)


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
        with pytest.raises(ValueError, match="invalid intersection array"):
            valency_sum(arr)
        return
    got = valencies(arr)
    assert got == reference_valencies(arr)
    assert valency_sum(arr) == sum(reference_valencies(arr))
    assert all(type(v) is Fraction for v in got)
    try:
        float_v = tuple(float(x) for x in reference_valencies(arr))
    except OverflowError:  # a tiny c_i drawn as a float: the float view is refused
        with pytest.raises(ValueError, match="too large for float arithmetic"):
            arr.float_params()
        return
    v, a, b, c = arr.float_params()
    assert v == float_v
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
    t = t_profile(arr, theta, x)
    assume(np.isfinite(t).all())
    assert_solves_recurrence(arr, theta, x, t)
    assert filter_x(arr, theta, x) == reference_filter_x(arr, theta, x)


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_profiles_and_filters_of_every_root_match_reference(spec):
    scheme = build(spec)
    coeffs = solver.candidate_quartic(scheme.array, scheme.theta)
    for x in solver.roots_of_quartic(coeffs):
        for z in (x, 1.0 / x):
            t = t_profile(scheme.array, scheme.theta, z)
            assert_solves_recurrence(scheme.array, scheme.theta, z, t)
            assert np.array_equal(t_profile(scheme.array, scheme.theta, z.conjugate()), t.conj())
        assert (filter_x(scheme.array, scheme.theta, x)
                == reference_filter_x(scheme.array, scheme.theta, x))


# Entries on a 1e-3 grid, so that no product of them underflows.
real_matrices = st.integers(2, 7).flatmap(lambda dim: st.lists(
    st.integers(-5000, 5000).map(lambda k: k / 1000), min_size=dim * dim,
    max_size=dim * dim).map(lambda entries: np.array(entries).reshape(dim, dim)))


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_scalar_cube_matches_reference_on_solutions(spec):
    # the decision on each dominant member's own profile: scalar, with the
    # mu of the reference cube; a member inside the circle is never decided
    scheme = build(spec)
    u = solver.symmetric_frame(scheme.array, scheme.eigenmatrix)
    for s in solve(scheme).accepted:
        if abs(s.x) < 1 - solver.ROOT_DEDUP_TOL:
            continue
        cube = scalar_and_T0(u, np.array(s.t), float(scheme.size), CFG)
        assert cube.is_scalar and cube.gap <= CFG.residual_tol
        assert cube.t0_roots == solver._cube_roots(cube.mu)
        off_scalar = np.abs(reference_cube(u, s.t) - cube.mu * np.eye(len(u)))
        assert np.all(off_scalar <= cube_error_bound(u, s.t) + 1e-13 * abs(cube.mu)), s.x


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_cube_of_conjugate_profile_is_conjugate_cube(data):
    # rounding is sign-symmetric, so the conjugate profile's decision is the
    # conjugate of the decision: an on-circle pair decides the same
    # whichever member comes first
    p = data.draw(real_matrices)
    assume(np.all(p.diagonal() != 0))  # as U's, so every diagonal quotient is finite
    t = np.array(data.draw(st.lists(ratios, min_size=len(p), max_size=len(p))), dtype=complex)
    size = float(p[0] @ p[0])
    cube = scalar_and_T0(p, t, size, CFG.with_(residual_tol=2.0))
    twin = scalar_and_T0(p, t.conj(), size, CFG.with_(residual_tol=2.0))
    assert twin.is_scalar == cube.is_scalar
    # by value: x - x is +0.0 whatever the signs, so zeros may differ in sign
    assert twin.mu == cube.mu.conjugate() and twin.gap == cube.gap


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_profile_of_conjugate_ratio_is_conjugate_profile(data):
    arr = data.draw(valid_arrays(max_classes=8))
    theta = _theta(data.draw, arr)
    x = data.draw(ratios)
    assert np.array_equal(t_profile(arr, theta, x.conjugate()),
                          t_profile(arr, theta, x).conj())


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_symmetric_frame_cube_matches_eigenmatrix_cube(spec):
    # (P T)^3 = K^{-1/2} (U T)^3 K^{1/2}; U's entries carry two roundings
    scheme = build(spec)
    p = scheme.eigenmatrix
    u = solver.symmetric_frame(scheme.array, p)
    root_k = np.sqrt(scheme.array.float_params()[0])
    assert np.allclose(u, u.T, rtol=0, atol=1e-12 * np.abs(u).max())
    for s in solve(scheme).accepted:
        back = reference_cube(u, s.t) / root_k[:, np.newaxis] * root_k
        bound = cube_error_bound(p, s.t, extra=2)
        assert np.all(np.abs(back - reference_cube(p, s.t)) <= bound)


@pytest.mark.parametrize("spec", SCHEMES, ids=_spec_id)
def test_solutions_report_the_cube_of_their_own_profile(spec):
    # mu comes from the product test on the pair's dominant member, and a
    # derived partner's as |X|^3/mu; each must be the scalar of the cube of
    # that solution's own profile, and T0 a cube root of 1/mu
    scheme = build(spec)
    u = solver.symmetric_frame(scheme.array, scheme.eigenmatrix)
    for s in solve(scheme).accepted:
        cube = reference_cube(u, s.t)
        off_scalar = np.abs(cube - s.mu * np.eye(len(u)))
        assert np.all(off_scalar <= cube_error_bound(u, s.t) + 1e-13 * abs(s.mu)), s.x
        assert abs(s.t0**3 * s.mu - 1) <= 1e-13


@given(st.lists(st.floats(min_value=-50, max_value=50).filter(lambda c: c == 0 or abs(c) > 1e-3),
                min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_roots_come_sorted_by_their_rounded_parts(coeffs):
    a4, a3, a2 = coeffs
    try:
        roots = solver.roots_of_quartic([a4, a3, a2, a3, a4])
    except ValueError:
        assume(False)
    assert roots == sorted(roots, key=lambda w: (round(w.real, 12), round(w.imag, 12)))


@pytest.mark.parametrize("r", [1.0, -1.0, 8.0, -8.0, 0.37, -123.4, 2e-300, -1e300])
def test_cube_roots_ignore_the_sign_of_a_zero_imaginary_part(r):
    roots = solver._cube_roots(complex(r, 0.0))
    assert solver._cube_roots(complex(r, -0.0)) == roots
    # root 0 has argument -arg(mu)/3 with arg(mu) in (-pi, pi], then +2 pi/3 steps
    assert cmath.phase(roots[0]) == pytest.approx(0.0 if r > 0 else -math.pi / 3, abs=1e-15)
    for k, t0 in enumerate(roots):
        assert t0**3 * r == pytest.approx(1.0, rel=1e-14)
        assert t0 == pytest.approx(roots[0] * cmath.exp(2j * math.pi * k / 3), rel=1e-14)


# -- families ----------------------------------------------------------------------


@given(valid_arrays(max_classes=7))
@settings(max_examples=100, deadline=None)
def test_self_dual_ordering_matches_reference(arr):
    try:
        eigs = eigenvalues_from_array(arr)
    except families.BuildError:
        assume(False)
    size = float(sum(reference_valencies(arr)))
    got = families._self_dual_ordering(arr, eigs, size)
    want = reference_self_dual_ordering(arr, eigs, size, families.SELF_DUAL_TOL)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


# Census-built arrays: every Hermitian one past n = 1 is self-dual only in
# an order other than descending, so the search must find it there; the
# alternating ones are self-dual in descending order.
CENSUS_SPECS = ([FamilySpec("hermitian", {"n": n, "q": 2}) for n in range(1, 5)]
                + [FamilySpec("hermitian", {"n": 2, "q": q}) for q in (3, 4)]
                + [FamilySpec("alternating", {"n": n, "q": 2}) for n in range(4, 8)]
                + [FamilySpec("alternating", {"n": n, "q": 3}) for n in (4, 5)])


@pytest.mark.parametrize("spec", CENSUS_SPECS, ids=_spec_id)
def test_self_dual_ordering_matches_reference_on_census_arrays(spec, big_cfg):
    arr = census(PointSpace(spec), big_cfg).derived_array()
    eigs = eigenvalues_from_array(arr)
    size = float(sum(reference_valencies(arr)))
    got = families._self_dual_ordering(arr, eigs, size)
    want = reference_self_dual_ordering(arr, eigs, size, families.SELF_DUAL_TOL)
    assert got[0] == want[0] <= families.SELF_DUAL_TOL
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    descending = bool(np.all(np.diff(got[1]) < 0))
    assert descending == (spec.family == "alternating" or spec.params["n"] == 1)


@given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                          st.integers(-3, 3).map(lambda k: k * (1 + 1e-12)),
                          st.integers(-3, 3).map(lambda k: k + 1e-13),
                          st.floats(min_value=-1e3, max_value=1e3)),
                min_size=2, max_size=7))
@settings(max_examples=100, deadline=None)
def test_coincidence_error_text_matches_reference(theta):
    arr = IntersectionArray([2] + [1] * (len(theta) - 2), [1] * (len(theta) - 1))  # an n-gon's
    want = reference_coincidence(theta)
    if want is None:
        eigenmatrix(arr, theta)
        return
    with pytest.raises(ValueError) as err:
        eigenmatrix(arr, theta)
    assert str(err.value) == want




def test_two_cos_two_pi_matches_reference():
    def signed(values):  # tells 0.0 from -0.0
        return [(value, math.copysign(1, value)) for value in values]

    for n in range(3, 401):
        spec = FamilySpec("ngon", {"n": n})
        theta = families._closed_form(spec)[1]
        want = [reference_two_cos_two_pi(i, n) for i in range(n // 2 + 1)]
        assert signed(theta) == signed(want), n


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
