"""Solver pipeline: quartic, roots, profiles, filters, full enumeration."""

import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinsolve as sp
from spinsolve import solver
from spinsolve.families import BuildError, FamilySpec, build, build_custom
from spinsolve.solver import (
    DegenerateSchemeError,
    candidate_quartic,
    filter_x,
    roots_of_quartic,
    scalar_and_T0,
    solve,
    t_profile,
    verify_solution,
)
from spinsolve.theorems import random_intersection_array, verify_hamming_classification

CFG = sp.DEFAULT_CONFIG


def _roots_match(found, expected, tol=1e-10):
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for z in found:
        hit = min(remaining, key=lambda w: abs(w - z))
        if abs(hit - z) > tol:
            return False
        remaining.remove(hit)
    return True


# -- candidate quartic -------------------------------------------------------


def test_quartic_hamming_32(hamming32):
    assert candidate_quartic(hamming32.array, hamming32.theta) == [1, 0, 2, 0, 1]


def test_quartic_ngon6(ngon6):
    assert candidate_quartic(ngon6.array, ngon6.theta) == [1, 0, -1, 0, 1]


def test_quartic_hamming_33():
    scheme = build(FamilySpec("hamming", {"N": 3, "q": 3}))
    coeffs = candidate_quartic(scheme.array, scheme.theta)
    assert coeffs == [3, 2, 5, 2, 3]
    # factors as (x^2 + x + 1)(3x^2 - x + 3)
    roots = roots_of_quartic(coeffs)
    cube = [(-1 + 1j * math.sqrt(3)) / 2, (-1 - 1j * math.sqrt(3)) / 2]
    other = [(1 + 1j * math.sqrt(35)) / 6, (1 - 1j * math.sqrt(35)) / 6]
    assert _roots_match(roots, cube + other, tol=1e-9)


def test_quartic_is_palindromic_on_random_arrays():
    import random

    from spinsolve.theorems import random_intersection_array

    rng = random.Random(5)
    for _ in range(50):
        arr = random_intersection_array(rng, rng.randint(2, 6))
        scheme = build_custom(arr)
        a4, a3, a2, a1, a0 = candidate_quartic(arr, scheme.theta)
        assert a4 == a0 and a3 == a1


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_one_class_quartic_is_the_squared_terminal_equation(q):
    scheme = build(FamilySpec("hamming", {"N": 1, "q": q}))
    arr = scheme.array
    c1, a1 = float(arr.c[0]), float(arr.a[1])
    squared = -np.polymul([c1, a1, c1], [c1, a1, c1])
    assert np.allclose(candidate_quartic(arr, scheme.theta), squared, rtol=0, atol=1e-12)


# -- roots -------------------------------------------------------------------


def test_roots_double_pair_collapse():
    assert _roots_match(roots_of_quartic([1, 0, 2, 0, 1]), [1j, -1j])


def test_roots_ngon6_quartic():
    expected = [cmath.exp(1j * math.pi / 6), cmath.exp(-1j * math.pi / 6),
                cmath.exp(5j * math.pi / 6), cmath.exp(-5j * math.pi / 6)]
    assert _roots_match(roots_of_quartic([1, 0, -1, 0, 1]), expected)


def test_roots_exclude_zero_after_degree_drop():
    assert roots_of_quartic([0, 0, 1, 0, 0]) == []


def test_roots_keep_the_small_member_of_a_large_pair():
    # (x^2 + 10^9 x + 1)(x^2 + 1): z = -10^9 gives x near -10^9, whose
    # partner 1/x lies below any absolute cut of 1e-8
    roots = roots_of_quartic([1, 1e9, 2, 1e9, 1])
    assert _roots_match(roots, [-1e9, -1e-9, 1j, -1j])
    big, small = sorted((z for z in roots if z.imag == 0), key=abs, reverse=True)
    assert abs(big * small - 1) <= 1e-12


def test_roots_all_zero_is_an_error():
    with pytest.raises(ValueError, match="all-zero"):
        roots_of_quartic([0, 0, 0, 0, 0])


@pytest.mark.parametrize("coeffs", [
    [1, 0, 2, 0, 2],
    [1, 1, 2, 0, 1],
    [0, 1, 2, 1],
    [1, 2, 1],
])
def test_roots_reject_non_palindromic_input(coeffs):
    with pytest.raises(ValueError, match="palindromic"):
        roots_of_quartic(coeffs)


def test_roots_closed_under_reciprocal_on_random_palindromics():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a4, a3, a2 = rng.normal(size=3)
        if abs(a4) < 1e-3:
            continue
        roots = roots_of_quartic([a4, a3, a2, a3, a4])
        for z in roots:
            assert any(abs(1 / z - w) <= 1e-8 * max(1, abs(1 / z)) for w in roots)


# -- profiles ----------------------------------------------------------------


def test_profile_is_geometric_for_hamming(hamming32):
    for x in (1j, -1j):
        t = t_profile(hamming32.array, hamming32.theta, x)
        assert np.allclose(t, [x**i for i in range(4)])


def test_hamming_q2_profiles_at_i_are_exact():
    # every step at x = +-i divides an exact integer multiple of i^k by
    # that integer, so t_k = x^k with no rounding, and the product identity
    # holds far below its rounding scale
    for n in range(1, 31):
        scheme = build(FamilySpec("hamming", {"N": n, "q": 2}))
        u = solver.symmetric_frame(scheme.array, scheme.eigenmatrix)
        for x, powers in ((1j, (1, 1j, -1, -1j)), (-1j, (1, -1j, -1, 1j))):
            t = t_profile(scheme.array, scheme.theta, x)
            assert np.array_equal(t, [powers[k % 4] for k in range(n + 1)]), (n, x)
            cube = scalar_and_T0(u, t, 2.0**n, CFG)
            assert cube.is_scalar and cube.gap <= 1e-15, (n, x)


def test_profile_starts_with_one_x(bilinear332):
    t = t_profile(bilinear332.array, bilinear332.theta, 0.3 + 0.4j)
    assert t[0] == 1 and t[1] == 0.3 + 0.4j


def test_profile_unimodular_for_ngon6(ngon6):
    x = cmath.exp(1j * math.pi / 6)
    t = t_profile(ngon6.array, ngon6.theta, x)
    assert np.allclose(np.abs(t), 1.0)
    assert np.allclose(t, [cmath.exp(1j * math.pi * j * j / 6) for j in range(4)])


def test_profile_rejects_zero_ratio(hamming32):
    with pytest.raises(ValueError):
        t_profile(hamming32.array, hamming32.theta, 0.0)


# -- filters -----------------------------------------------------------------


def test_filter_accepts_hamming_solution(hamming32):
    ok, reason = filter_x(hamming32.array, hamming32.theta, 1j)
    assert ok and reason is None


def test_filter_rejects_spurious_hamming_root():
    scheme = build(FamilySpec("hamming", {"N": 3, "q": 3}))
    x = (1 + 1j * math.sqrt(35)) / 6  # root of the 3x^2 - x + 3 cofactor
    ok, reason = filter_x(scheme.array, scheme.theta, x)
    assert not ok
    assert reason.startswith("reciprocal_identity_failed")


def test_filter_terminal_rejects_odd_ngon_plain_family():
    scheme = build(FamilySpec("ngon", {"n": 7}))
    ok, reason = filter_x(scheme.array, scheme.theta, cmath.exp(1j * math.pi / 7))
    assert not ok and reason == "terminal_failed"
    ok, _ = filter_x(scheme.array, scheme.theta, -cmath.exp(1j * math.pi / 7))
    assert ok


# -- the product decision and normalization ----------------------------------


def test_scalar_cube_hamming_value(hamming32):
    # the identity needs only P^2 = |X| I, which P itself meets
    t = t_profile(hamming32.array, hamming32.theta, 1j)
    cube = scalar_and_T0(hamming32.eigenmatrix, t, 8.0, CFG)
    assert cube.is_scalar
    assert cmath.isclose(cube.mu, (2 * (1 + 1j)) ** 3)  # -16 + 16i
    assert len(cube.t0_roots) == 3
    for t0 in cube.t0_roots:
        assert cmath.isclose(t0**3 * cube.mu, 1.0)
    # ordered by principal value then +2pi/3 steps
    step = cmath.exp(2j * cmath.pi / 3)
    assert cmath.isclose(cube.t0_roots[1], cube.t0_roots[0] * step)
    assert cmath.isclose(cube.t0_roots[2], cube.t0_roots[0] * step * step)


def test_scalar_cube_rejects_non_solution_profile(hamming32):
    junk = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    cube = scalar_and_T0(hamming32.eigenmatrix, junk, 8.0, CFG)
    assert not cube.is_scalar and cube.t0_roots == ()
    assert cube.gap > 1e-3


def test_a_numerically_zero_mu_is_singular(hamming32):
    # R scales with t^3 and its rounding scale W too, so a solution
    # profile scaled by 1e-101 still passes, with |mu| near 1e-302
    u = solver.symmetric_frame(hamming32.array, hamming32.eigenmatrix)
    t = t_profile(hamming32.array, hamming32.theta, 1j)
    assert scalar_and_T0(u, 1e-100 * t, 8.0, CFG).is_scalar
    with pytest.raises(solver.SingularCubeError):
        scalar_and_T0(u, 1e-101 * t, 8.0, CFG)


def test_scalar_cube_ngon6_magnitude(ngon6):
    t = t_profile(ngon6.array, ngon6.theta, cmath.exp(1j * math.pi / 6))
    cube = scalar_and_T0(ngon6.eigenmatrix, t, 6.0, CFG)
    assert cube.is_scalar
    assert abs(abs(cube.mu) - 6**1.5) < 1e-9


# -- verify_solution ---------------------------------------------------------


def test_verify_closed_form_hamming_solution(hamming32):
    x = 1j
    mu = (2 * (1 + 1j)) ** 3
    c = (1 / mu) ** (1 / 3)
    diag = [c * x**i for i in range(4)]
    assert verify_solution(hamming32.eigenmatrix, diag) <= 1e-10


def test_verify_identity_is_far_from_solution(hamming32):
    assert verify_solution(hamming32.eigenmatrix, np.ones(4)) > 1.0


def test_verify_closed_form_ngon8_even_family():
    # plain family with exponent sign +1 pairs with c^3 n^{3/2} = e^{-i pi/4}
    scheme = build(FamilySpec("ngon", {"n": 8}))
    c = (cmath.exp(-1j * math.pi / 4) / 8**1.5) ** (1 / 3)
    diag = [c * cmath.exp(1j * math.pi * j * j / 8) for j in range(5)]
    assert verify_solution(scheme.eigenmatrix, diag) <= 1e-9


# -- full enumeration ---------------------------------------------------------


def test_solve_hamming_43_structure():
    scheme = build(FamilySpec("hamming", {"N": 4, "q": 3}))
    sol = solve(scheme)
    assert sol.count == 6
    for s in sol.accepted:
        assert abs(s.x**2 + s.x + 1) < 1e-9
        assert np.allclose(s.t, [s.x**i for i in range(5)])


def test_solve_bilinear_332_empty(bilinear332):
    sol = solve(bilinear332)
    assert sol.count == 0
    assert len(sol.rejected_x) == 4


def test_solve_ngon6_count(ngon6):
    sol = solve(ngon6)
    assert sol.count == 12
    assert sol.raw_count == 12


def test_solve_keeps_every_solution_of_a_scaled_eigenmatrix(ngon6):
    # P scaled by 1e9 scales every T by 1e-9; no absolute tolerance may
    # merge the twelve distinct solutions
    scheme = dataclasses.replace(ngon6, eigenmatrix=ngon6.eigenmatrix * 1e9)
    sol = solve(scheme)
    assert sol.count == 12
    for s in sol.accepted:
        assert verify_solution(scheme.eigenmatrix, s.diag) <= CFG.residual_tol


def test_solve_ngon7_alternating_only():
    scheme = build(FamilySpec("ngon", {"n": 7}))
    sol = solve(scheme)
    assert sol.count == 6
    for s in sol.accepted:
        signs = [s.t[j] / (cmath.exp(1j * cmath.phase(s.t[j]))) for j in range(4)]
        # alternating family: t_j = (-1)^j e^{+-i pi j^2 / 7}
        matches = [
            max(abs(s.t[j] - (-1) ** j * cmath.exp(sgn * 1j * math.pi * j * j / 7))
                for j in range(4))
            for sgn in (1, -1)
        ]
        assert min(matches) < 1e-9


def test_solve_single_class_triangle():
    scheme = build(FamilySpec("ngon", {"n": 3}))
    sol = solve(scheme)
    assert sol.count == 6
    for s in sol.accepted:
        assert abs(s.x**2 + s.x + 1) < 1e-10
        assert abs(abs(s.mu) - 3**1.5) < 1e-10


def test_solve_complete_graph_keeps_its_doubled_root():
    # K4: the quartic is -(x + 1)^4, so x = -1 is the only ratio
    scheme = build_custom(sp.IntersectionArray(b=[3], c=[1]))
    sol = solve(scheme)
    assert sol.count == 3 and not sol.rejected_x
    for s in sol.accepted:
        assert abs(s.x + 1) <= 1e-12
        assert verify_solution(scheme.eigenmatrix, s.diag) <= CFG.residual_tol


def test_solve_vanishing_theta1_invents_no_ratio():
    # theta_1 = a_1 = 0: the quartic is -32 x^2 up to rounding in A4
    sol = solve(build_custom(sp.IntersectionArray(b=[8, 2], c=[6, 8])))
    assert sol.count == 0
    assert sol.rejected_x == ()


def test_solve_vanishing_theta1_keeps_the_doubled_root_whole():
    # theta_1 = 0, a_1 = 2: x (-8 x^2 - 16 x - 8), a doubled x = -1
    sol = solve(build_custom(sp.IntersectionArray(b=[8, 2], c=[4, 8])))
    assert sol.count == 0
    assert len(sol.rejected_x) == 1
    x, reason = sol.rejected_x[0]
    assert abs(x + 1) <= 1e-12 and reason == "terminal_failed"


def test_solve_square_is_degenerate():
    scheme = build(FamilySpec("ngon", {"n": 4}))
    with pytest.raises(DegenerateSchemeError):
        solve(scheme)


def test_solve_reports_rejection_reasons(bilinear332):
    sol = solve(bilinear332)
    reasons = {reason for _, reason in sol.rejected_x}
    assert reasons == {"reciprocal_identity_failed at i=3"}


def test_hamming_q2_accepts_exactly_i_and_minus_i():
    for n in (3, 4, 5, 6):
        scheme = build(FamilySpec("hamming", {"N": n, "q": 2}))
        xs = sorted(solve(scheme).accepted_x(), key=lambda z: z.imag)
        assert _roots_match(sorted(set(xs), key=lambda z: z.imag), [-1j, 1j])


def test_accepted_x_closed_under_reciprocal():
    for spec in (FamilySpec("hamming", {"N": 4, "q": 5}),
                 FamilySpec("ngon", {"n": 10})):
        sol = solve(build(spec))
        xs = sol.accepted_x()
        for x in xs:
            assert any(abs(1 / x - y) <= 1e-8 * max(1, abs(1 / x)) for y in xs)


def test_reciprocal_solutions_are_scaled_inverses():
    scheme = build(FamilySpec("hamming", {"N": 3, "q": 5}))
    sol = solve(scheme)
    size = float(scheme.size)
    by_x = {}
    for s in sol.accepted:
        by_x.setdefault(round(s.x.real, 9), []).append(s)
    xs = sorted(by_x)
    assert len(xs) == 2
    lo, hi = (by_x[xs[0]], by_x[xs[1]])
    inverted = {tuple(np.round(1 / (size * np.array(s.diag)), 9)) for s in lo}
    direct = {tuple(np.round(np.array(s.diag), 9)) for s in hi}
    assert inverted == direct


def test_solution_sets_serialize(hamming32):
    out = solve(hamming32).as_dict()
    assert out["count"] == 6
    assert len(out["accepted"]) == 6
    assert {"re", "im"} == set(out["accepted"][0]["x"])


# -- one cube per x ------------------------------------------------------------

# T0 ranges over the three cube roots of 1/mu, and (P diag(T0 t))^3 =
# T0^3 (P diag(t))^3, so an x either keeps all three roots or none.
def _spec_id(spec):
    return f"{spec.family}{spec.params}"


CUBE_ROOT_GRID = (
    [FamilySpec("hamming", {"N": n, "q": q})
     for q in (2, 3, 4, 5, 7) for n in range(1, 23)
     if (n, q) != (2, 2)]  # hamming(2,2) is the square
    + [FamilySpec("ngon", {"n": n}) for n in (5, 6, 99, 100, 101, 398)]
)


@pytest.mark.parametrize("spec", CUBE_ROOT_GRID, ids=_spec_id)
def test_counts_are_whole_cube_root_triples(spec):
    assert solve(build(spec)).count % 3 == 0


@pytest.mark.parametrize("n,q,expected", [(10, 5, 6), (7, 7, 6), (22, 4, 3)])
def test_hamming_keeps_every_cube_root_at_scale(n, q, expected):
    # here a cube rounded separately per root rejects some roots of an x
    assert solve(build(FamilySpec("hamming", {"N": n, "q": q}))).count == expected


RESIDUAL_GRID = (
    [FamilySpec("hamming", {"N": n, "q": q})
     for n in range(1, 7) for q in (2, 3, 4, 5, 7) if (n, q) != (2, 2)]
    + [FamilySpec("ngon", {"n": n}) for n in range(3, 13) if n != 4]
    + [FamilySpec("bilinear", {"M": 3, "N": 3, "q": 2})]
)


@pytest.mark.parametrize("spec", RESIDUAL_GRID, ids=_spec_id)
def test_residual_agrees_with_direct_cube(spec):
    # the residual is the product test's gap, shared by a pair; the
    # direct cube of P diag(T) checks each solution on its own
    scheme = build(spec)
    for s in solve(scheme).accepted:
        assert s.residual <= CFG.residual_tol
        assert verify_solution(scheme.eigenmatrix, s.diag) <= CFG.residual_tol


def test_scalar_cube_carries_the_cube(hamming32):
    t = t_profile(hamming32.array, hamming32.theta, 1j)
    cube = scalar_and_T0(hamming32.eigenmatrix, t, 8.0, CFG)
    pt = hamming32.eigenmatrix * t[np.newaxis, :]
    assert np.allclose(cube.mu * np.eye(4), pt @ pt @ pt)


@pytest.mark.parametrize("spec", [FamilySpec("hamming", {"N": n, "q": 2}) for n in (1, 3, 6)]
                         + [FamilySpec("ngon", {"n": 7})], ids=_spec_id)
def test_solutions_carry_their_own_profile_bit_for_bit(spec):
    # an on-circle twin reports the conjugate of its partner's profile and a
    # member inside the circle the reciprocal of its partner's; each must be
    # the profile of its own x, value for value (zeros may differ in sign)
    scheme = build(spec)
    for s in solve(scheme).accepted:
        fresh = t_profile(scheme.array, scheme.theta, s.x)
        assert np.array_equal(np.array(s.t), fresh)



# -- the paper's counts, where the solver gets them right ---------------------

# Largest N at which every hamming(N, q) count is right (ROADMAP "Where the
# counts stand"); the paper's count is 6, or 3 at q = 4.  Each stops at
# N = 30 or just before the first N whose float build is refused.
HAMMING_RIGHT_UP_TO = {2: 30, 3: 30, 4: 30, 5: 29, 7: 24, 8: 23, 9: 24, 11: 22, 13: 22, 16: 19}
# The rows whose cube (U diag t)^3 has |mu| below its own rounding, so that
# the cube cannot tell mu from zero; the one-product test decides them.
CANCELLING_CUBE_ROWS = ([(n, 9) for n in (22, 23, 24)] + [(n, 11) for n in (20, 21, 22)]
                        + [(n, 13) for n in (19, 20, 21, 22)] + [(n, 16) for n in (17, 18, 19)])


@pytest.mark.parametrize("q", sorted(HAMMING_RIGHT_UP_TO))
def test_hamming_counts_match_the_paper(q):
    want = 3 if q == 4 else 6
    counts = {n: solve(build(FamilySpec("hamming", {"N": n, "q": q}))).count
              for n in range(1, HAMMING_RIGHT_UP_TO[q] + 1) if (n, q) != (2, 2)}
    assert counts == dict.fromkeys(counts, want)


@pytest.mark.parametrize("n,q", CANCELLING_CUBE_ROWS + [(23, 8)])
def test_hamming_rows_with_a_cancelling_cube_meet_the_closed_form(n, q):
    # the direct cube of P diag(T) rounds beyond |mu| here, so each
    # solution is held to theorem 2's closed form instead: x a root of
    # 1 - 2x + qx + x^2, t_i = x^i and c^3 (q(1 + (q - 1)x))^N = 1
    record = verify_hamming_classification([n], [q])["instances"][0]
    assert record["count"] == 6 and record["issues"] == [], record
    for s in solve(build(FamilySpec("hamming", {"N": n, "q": q}))).accepted:
        constant = s.t0**3 * (q * (1 + (q - 1) * s.x)) ** n
        assert abs(constant - 1) <= 1e-12, (s.x, constant)


@pytest.mark.parametrize("n", [4, 6])
def test_small_hamming_counts_match_the_paper_for_large_alphabets(n):
    counts = {q: solve(build(FamilySpec("hamming", {"N": n, "q": q}))).count
              for q in range(2, 300)}
    assert counts == {q: 3 if q == 4 else 6 for q in counts}


@pytest.mark.parametrize("spec", [FamilySpec("hamming", {"N": 1, "q": q})
                                  for q in (10**4, 15625, 10**5)]
                         + [FamilySpec("bilinear", {"M": 1, "N": 6, "q": q}) for q in (5, 7)],
                         ids=lambda spec: f"{spec.family}{spec.params}")
def test_large_complete_graphs_keep_both_members_of_the_pair(spec):
    # K_n: the quartic is the squared terminal equation, whose big root
    # failed the terminal check on its own forward profile
    assert solve(build(spec)).count == 6


@pytest.mark.parametrize("q", [10**8 + 2, 10**9, 10**11])
def test_hamming_2_keeps_the_small_partner_of_its_large_root(q):
    # x is near -q, so its partner 1/x has modulus below 1e-8
    xs = solve(build(FamilySpec("hamming", {"N": 2, "q": q}))).accepted_x()
    assert len(xs) == 6
    for x in xs:
        assert any(abs(1 / x - y) <= 1e-8 * abs(1 / x) for y in xs), x


NGON_SAMPLE = sorted((set(range(3, 401, 7)) | {398, 399, 400}) - {4})


def test_ngon_counts_match_the_paper():
    counts = {n: solve(build(FamilySpec("ngon", {"n": n}))).count for n in NGON_SAMPLE}
    assert counts == {n: 12 if n % 2 == 0 else 6 for n in NGON_SAMPLE}


def test_bilinear_counts_match_the_paper():
    grid = [(m, n, q) for m in (3, 4) for n in range(m, 7) for q in (2, 3, 4, 5, 7)]
    counts = {g: solve(build(FamilySpec("bilinear", dict(zip("MNq", g))))).count for g in grid}
    assert counts == dict.fromkeys(grid, 0)


# Krawtchouk-type arrays with a rational q, b_i = (N - i)(q - 1) and
# c_i = i: self-dual, with the paper's 6 solutions.  The float eigenmatrix
# built from them misses P^2 = |X| I by 1.2e-7 to 1.6e-4 relative (their
# self_dual_defect), so the product test rejects their true pair and the
# count is 0 until the eigenmatrix is exact; deciding each member apart
# gave 3 at seven of them, an odd count that broke reciprocal closure.
KRAWTCHOUK_RATIONAL_Q = [(10, Fraction(31, 3)), (10, Fraction(100, 7)), (12, Fraction(31, 3)),
                         (12, Fraction(100, 7)), (20, Fraction(9, 2)), (20, Fraction(31, 3)),
                         (20, Fraction(100, 7)), (26, Fraction(9, 2)), (26, Fraction(31, 3)),
                         (26, Fraction(100, 7))]


@pytest.mark.parametrize("n,q", KRAWTCHOUK_RATIONAL_Q)
def test_krawtchouk_counts_are_even_and_reciprocal_closed(n, q):
    arr = sp.IntersectionArray([(n - i) * (q - 1) for i in range(n)], range(1, n + 1))
    sol = solve(build_custom(arr))
    xs = sol.accepted_x()
    assert sol.count % 2 == 0 and sol.count <= 12
    for x in xs:
        assert any(abs(1 / x - y) <= 1e-8 * max(1, abs(1 / x)) for y in xs), x


# Bipartite antipodal double covers with every a_i = 0 that reach the bound
# of 12: the crown arrays {k, k-1, 1; 1, k-1, k} (k = 3 is the 3-cube) and
# the Hadamard arrays {2m, 2m-1, m, 1; 1, m, 2m-1, 2m} (m = 2 is H(4,2)),
# each from the smallest parameter to the largest that float still decides.
CROWN_K, HADAMARD_M = (3, 4, 30, 285), (2, 3, 7, 78)


@pytest.mark.parametrize("b,c,expected", [
    *[([k, k - 1, 1], [1, k - 1, k], 6 if k == 3 else 12) for k in CROWN_K],
    *[([2 * m, 2 * m - 1, m, 1], [1, m, 2 * m - 1, 2 * m], 6 if m == 2 else 12)
      for m in HADAMARD_M],
], ids=[f"crown({k})" for k in CROWN_K] + [f"hadamard({m})" for m in HADAMARD_M])
def test_crown_and_hadamard_arrays_count_12(b, c, expected):
    sol = solve(build_custom(sp.IntersectionArray(b, c)))
    # at k = 3 and m = 2 the quartic is a multiple of (x^2 + 1)^2: one pair, +-i
    assert sol.count == expected and not sol.rejected_x


def test_a_profile_beyond_float_range_is_rejected_without_numpy_warnings():
    # hamming(29, 259) entered as a custom array: its profiles overflow
    # float64 in the cube, and the non-finite row scales reject each pair
    n, q = 29, 259
    arr = sp.IntersectionArray([(n - i) * (q - 1) for i in range(n)], range(1, n + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(build_custom(arr))
    assert sol.count == 0


@pytest.mark.parametrize("spec,pairs", [(FamilySpec("hamming", {"N": 4, "q": 3}), 1),
                                        (FamilySpec("hamming", {"N": 22, "q": 9}), 1),
                                        (FamilySpec("ngon", {"n": 12}), 2),
                                        (FamilySpec("ngon", {"n": 7}), 1)],
                         ids=["hamming(4,3)", "hamming(22,9)", "ngon(12)", "ngon(7)"])
def test_one_product_decides_each_passing_pair(monkeypatch, spec, pairs):
    # the partner of a decided member is derived, never tested: one
    # product per filter-passing pair, three solutions for each member
    scheme = build(spec)
    calls = []
    real = solver.scalar_and_T0

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "scalar_and_T0", counted)
    sol = solve(scheme)
    assert len(calls) == pairs and sol.count == sol.raw_count == 6 * pairs
    for t in calls:
        assert abs(t[1]) >= 1.0 - solver.ROOT_DEDUP_TOL


# Sweep-grid instances whose count the symmetric frame and the dominant
# profile put right: cubing P diag(t) with forward profiles gave 0
# (Hamming) or 3 (bilinear).
SYMMETRIC_FRAME_FIXES = (
    [FamilySpec("hamming", {"N": n, "q": 5}) for n in range(11, 19)]
    + [FamilySpec("hamming", {"N": n, "q": 7}) for n in range(8, 13)]
    + [FamilySpec("bilinear", {"M": 2, "N": n, "q": q})
       for n, q in ((4, 7), (5, 4), (5, 5), (5, 7))]
)


def _oracle_rounding(u, diag):
    """Higham's bound gamma_k max (|U||D|)^3, k = 3 (n + 3), on the rounding
    of verify_solution's own product.  At hamming(18,5) and (12,7) the
    unit roundoff times max (|U||D|)^3 alone is about 1e-10 and 2e-10,
    the size of residual_tol itself."""
    k = 3 * (len(diag) + 3)
    unit = np.finfo(float).eps / 2
    ud = np.abs(u) * np.abs(np.array(diag))
    return k * unit / (1 - k * unit) * float(np.max(ud @ ud @ ud))


@pytest.mark.parametrize("spec", SYMMETRIC_FRAME_FIXES, ids=_spec_id)
def test_symmetric_frame_fixes_match_the_paper(spec):
    scheme = build(spec)
    sol = solve(scheme)
    assert sol.count == 6
    u = solver.symmetric_frame(scheme.array, scheme.eigenmatrix)
    for s in sol.accepted:
        assert verify_solution(u, s.diag) <= CFG.residual_tol + _oracle_rounding(u, s.diag)


# -- each decision held to its own rounding scale ------------------------------


@pytest.mark.parametrize("n,q", [(12, 7), (18, 5)])
def test_accepted_roots_clear_their_limit_by_far(n, q):
    # these were accepted at 9.9e-11 and 5.6e-11 against an absolute
    # residual_tol of 1e-10; each product entry is held to its own
    # rounding scale instead
    sol = solve(build(FamilySpec("hamming", {"N": n, "q": q})))
    assert sol.count == 6
    for s in sol.accepted:
        assert s.residual <= 1e-3 * CFG.residual_tol


def _pinned_hamming():
    return [FamilySpec("hamming", {"N": n, "q": q})
            for q in sorted(HAMMING_RIGHT_UP_TO) for n in range(1, HAMMING_RIGHT_UP_TO[q] + 1)
            if (n, q) != (2, 2)]


def _negative_control_grid():
    hamming = _pinned_hamming()
    ngons = [FamilySpec("ngon", {"n": n}) for n in NGON_SAMPLE]
    bilinear = [FamilySpec("bilinear", {"M": m, "N": n, "q": q})
                for m in (1, 2) for n in range(m, 7) for q in (2, 3, 4, 5, 7)]
    return hamming + ngons + bilinear


# x is doubled here; the filter's gaps are quadratic in its error, so 1e-6
# moves them by 1e-12 only
DOUBLED_ROOTS = {("hamming", q) for q in (2, 4)} | {
    ("bilinear", (1, 1, 4)), ("bilinear", (1, 2, 2)), ("bilinear", (2, 2, 2))}


def _is_doubled(spec):
    if spec.family == "hamming":
        return (spec.family, spec.params["q"]) in DOUBLED_ROOTS
    return (spec.family, tuple(spec.params.get(k) for k in "MNq")) in DOUBLED_ROOTS


@pytest.fixture(scope="module")
def perturbed_accepted_roots():
    """(spec, scheme, x, moved) for each accepted x on the grid and each of
    its two perturbations, a stretch and a rotation."""
    found = []
    for spec in _negative_control_grid():
        scheme = build(spec)
        step = 1e-3 if _is_doubled(spec) else 1e-6
        for x in set(solve(scheme).accepted_x()):
            for moved in (x * (1 + step), x * cmath.exp(1j * step)):
                found.append((spec, scheme, x, moved))
    return found


def test_the_filter_rejects_every_perturbed_accepted_root(perturbed_accepted_roots):
    checks = 0
    for spec, scheme, x, moved in perturbed_accepted_roots:
        ok, _ = filter_x(scheme.array, scheme.theta, moved)
        assert not ok, (spec, x, moved)
        checks += 1
    assert checks > 1000


def test_solve_rejects_every_perturbed_accepted_pair(perturbed_accepted_roots):
    # each perturbed root comes to solve with its partner as roots_of_quartic
    # would list it, the exact conjugate on the unit circle, so an on-circle
    # twin takes its partner's decision inside solve
    checks = 0
    for spec, scheme, x, moved in perturbed_accepted_roots:
        on_circle = abs(abs(moved) - 1.0) <= solver.ROOT_DEDUP_TOL
        pair = [moved, moved.conjugate() if on_circle else 1 / moved]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "roots_of_quartic", lambda coeffs, pair=pair: pair)
            sol = solve(scheme)
        assert sol.count == 0 and sol.raw_count == 0, (spec, x, moved)
        assert [z for z, _ in sol.rejected_x] == pair, (spec, x, moved)
        for _, reason in sol.rejected_x:
            assert reason.startswith(("reciprocal_identity_failed", "terminal_failed")), (spec, x)
        checks += on_circle
    assert checks > 300  # on-circle pairs, through the twin path


# Arrays of the kind theorems draws, and Krawtchouk arrays with a rational
# q, b_i = (N - i)(q - 1) and c_i = i, whose pairs often pass the filter.
pair_arrays = st.one_of(
    st.tuples(st.randoms(use_true_random=False), st.integers(1, 8)).map(
        lambda case: random_intersection_array(*case)),
    st.tuples(st.integers(1, 12), st.fractions(min_value=2, max_value=20,
                                               max_denominator=7)).map(
        lambda case: sp.IntersectionArray([(case[0] - i) * (case[1] - 1) for i in range(case[0])],
                                          range(1, case[0] + 1))),
)


@given(pair_arrays)
@settings(max_examples=100, deadline=None)
def test_both_members_of_a_pair_get_one_filter_decision(arr):
    try:
        scheme = build_custom(arr)
        sol = solve(scheme)
    except (BuildError, DegenerateSchemeError, solver.SingularCubeError):
        assume(False)
    roots = roots_of_quartic(candidate_quartic(arr, scheme.theta))
    filter_reasons = {x: reason for x, reason in sol.rejected_x
                      if reason.startswith(("reciprocal", "terminal"))}
    for x in roots:
        partner = min(roots, key=lambda w: abs(w * x - 1))
        assert filter_reasons.get(x) == filter_reasons.get(partner)
        assert filter_x(arr, scheme.theta, x)[0] == (x not in filter_reasons)
