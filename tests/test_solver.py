"""Solver pipeline: quartic, roots, profiles, filters, full enumeration."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

import spinsolve as sp
from spinsolve import solver
from spinsolve.families import FamilySpec, build, build_custom
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
    roots = roots_of_quartic(coeffs, CFG)
    cube = [(-1 + 1j * math.sqrt(3)) / 2, (-1 - 1j * math.sqrt(3)) / 2]
    other = [(1 + 1j * math.sqrt(35)) / 6, (1 - 1j * math.sqrt(35)) / 6]
    assert _roots_match(roots, cube + other, tol=1e-9)


def test_quartic_is_palindromic_on_random_arrays():
    import random

    from spinsolve.theorems import random_intersection_array

    rng = random.Random(5)
    for _ in range(50):
        arr = random_intersection_array(rng, rng.randint(2, 6))
        scheme = build_custom(arr, CFG)
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
    assert _roots_match(roots_of_quartic([1, 0, 2, 0, 1], CFG), [1j, -1j])


def test_roots_ngon6_quartic():
    expected = [cmath.exp(1j * math.pi / 6), cmath.exp(-1j * math.pi / 6),
                cmath.exp(5j * math.pi / 6), cmath.exp(-5j * math.pi / 6)]
    assert _roots_match(roots_of_quartic([1, 0, -1, 0, 1], CFG), expected)


def test_roots_exclude_zero_after_degree_drop():
    assert roots_of_quartic([0, 0, 1, 0, 0], CFG) == []


def test_roots_all_zero_is_an_error():
    with pytest.raises(ValueError, match="all-zero"):
        roots_of_quartic([0, 0, 0, 0, 0], CFG)


@pytest.mark.parametrize("coeffs", [
    [1, 0, 2, 0, 2],
    [1, 1, 2, 0, 1],
    [0, 1, 2, 1],
    [1, 2, 1],
])
def test_roots_reject_non_palindromic_input(coeffs):
    with pytest.raises(ValueError, match="palindromic"):
        roots_of_quartic(coeffs, CFG)


def test_roots_closed_under_reciprocal_on_random_palindromics():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a4, a3, a2 = rng.normal(size=3)
        if abs(a4) < 1e-3:
            continue
        roots = roots_of_quartic([a4, a3, a2, a3, a4], CFG)
        for z in roots:
            assert any(abs(1 / z - w) <= 1e-8 * max(1, abs(1 / z)) for w in roots)


# -- profiles ----------------------------------------------------------------


def test_profile_is_geometric_for_hamming(hamming32):
    for x in (1j, -1j):
        t = t_profile(hamming32.array, hamming32.theta, x)
        assert np.allclose(t, [x**i for i in range(4)])


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
    ok, reason = filter_x(hamming32.array, hamming32.theta, 1j, CFG)
    assert ok and reason is None


def test_filter_rejects_spurious_hamming_root():
    scheme = build(FamilySpec("hamming", {"N": 3, "q": 3}))
    x = (1 + 1j * math.sqrt(35)) / 6  # root of the 3x^2 - x + 3 cofactor
    ok, reason = filter_x(scheme.array, scheme.theta, x, CFG)
    assert not ok
    assert reason.startswith("reciprocal_identity_failed")


def test_filter_terminal_rejects_odd_ngon_plain_family():
    scheme = build(FamilySpec("ngon", {"n": 7}))
    ok, reason = filter_x(scheme.array, scheme.theta, cmath.exp(1j * math.pi / 7), CFG)
    assert not ok and reason == "terminal_failed"
    ok, _ = filter_x(scheme.array, scheme.theta, -cmath.exp(1j * math.pi / 7), CFG)
    assert ok


# -- scalar cube and normalization -------------------------------------------


def test_scalar_cube_hamming_value(hamming32):
    t = t_profile(hamming32.array, hamming32.theta, 1j)
    cube = scalar_and_T0(hamming32.eigenmatrix, t, CFG)
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
    cube = scalar_and_T0(hamming32.eigenmatrix, junk, CFG)
    assert not cube.is_scalar


def test_scalar_cube_ngon6_magnitude(ngon6):
    t = t_profile(ngon6.array, ngon6.theta, cmath.exp(1j * math.pi / 6))
    cube = scalar_and_T0(ngon6.eigenmatrix, t, CFG)
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
    scheme = build_custom(sp.IntersectionArray(b=[3], c=[1]), CFG)
    sol = solve(scheme)
    assert sol.count == 3 and not sol.rejected_x
    for s in sol.accepted:
        assert abs(s.x + 1) <= 1e-12
        assert verify_solution(scheme.eigenmatrix, s.diag) <= CFG.residual_tol


def test_solve_vanishing_theta1_invents_no_ratio():
    # theta_1 = a_1 = 0: the quartic is -32 x^2 up to rounding in A4
    sol = solve(build_custom(sp.IntersectionArray(b=[8, 2], c=[6, 8]), CFG))
    assert sol.count == 0
    assert sol.rejected_x == ()


def test_solve_vanishing_theta1_keeps_the_doubled_root_whole():
    # theta_1 = 0, a_1 = 2: x (-8 x^2 - 16 x - 8), a doubled x = -1
    sol = solve(build_custom(sp.IntersectionArray(b=[8, 2], c=[4, 8]), CFG))
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
    size = scheme.size_float
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
    scheme = build(spec)
    for s in solve(scheme).accepted:
        direct = verify_solution(scheme.eigenmatrix, s.diag)
        assert s.residual <= CFG.residual_tol
        assert direct <= CFG.residual_tol
        assert abs(s.residual - direct) <= 0.5 * CFG.residual_tol


def test_scalar_cube_carries_the_cube(hamming32):
    t = t_profile(hamming32.array, hamming32.theta, 1j)
    cube = scalar_and_T0(hamming32.eigenmatrix, t, CFG)
    pt = hamming32.eigenmatrix * t[np.newaxis, :]
    assert np.allclose(cube.matrix, pt @ pt @ pt)


@pytest.mark.parametrize("spec", [FamilySpec("hamming", {"N": n, "q": 2}) for n in (1, 3, 6)]
                         + [FamilySpec("ngon", {"n": 7})], ids=_spec_id)
def test_solutions_carry_their_own_profile_bit_for_bit(spec):
    # x = 0+1j meets its partner's reciprocal 1/(0-1j) = -0.0+1j, equal as a
    # value; a profile shared between the two would differ in signs of zeros
    scheme = build(spec)
    for s in solve(scheme).accepted:
        fresh = t_profile(scheme.array, scheme.theta, s.x)
        assert np.array(s.t).tobytes() == fresh.tobytes()


def test_partial_cube_root_failure_is_recorded(monkeypatch):
    # hamming(3,4) keeps one x with its three roots; push one root off by
    # 1e-3 and only that root may go, with a record of which it was
    scheme = build(FamilySpec("hamming", {"N": 3, "q": 4}))
    base = solve(scheme)
    assert base.count == 3
    real = solver.scalar_and_T0

    def skewed(p, t, cfg=CFG):
        cube = real(p, t, cfg)
        if not cube.is_scalar:
            return cube
        roots = list(cube.t0_roots)
        roots[1] *= 1 + 1e-3
        return cube._replace(t0_roots=tuple(roots))

    monkeypatch.setattr(solver, "scalar_and_T0", skewed)
    sol = solve(scheme)
    assert sol.count == 2 and sol.raw_count == base.raw_count
    new = [r for r in sol.rejected_x if r not in base.rejected_x]
    assert new == [(base.accepted[0].x, "residual_failed at root=1")]
    assert len(sol.rejected_x) == len(base.rejected_x) + 1


# -- the paper's counts, where the solver gets them right ---------------------

# Largest N at which every hamming(N, q) count is right (ROADMAP "Where the
# counts stand"); the paper's count is 6, or 3 at q = 4.
HAMMING_RIGHT_UP_TO = {2: 22, 3: 22, 4: 23, 5: 10, 7: 7, 8: 6, 9: 5, 11: 5, 13: 4, 16: 5}


@pytest.mark.parametrize("q", sorted(HAMMING_RIGHT_UP_TO))
def test_hamming_counts_match_the_paper(q):
    want = 3 if q == 4 else 6
    counts = {n: solve(build(FamilySpec("hamming", {"N": n, "q": q}))).count
              for n in range(1, HAMMING_RIGHT_UP_TO[q] + 1) if (n, q) != (2, 2)}
    assert counts == dict.fromkeys(counts, want)


NGON_SAMPLE = sorted((set(range(3, 401, 7)) | {398, 399, 400}) - {4})


def test_ngon_counts_match_the_paper():
    counts = {n: solve(build(FamilySpec("ngon", {"n": n}))).count for n in NGON_SAMPLE}
    assert counts == {n: 12 if n % 2 == 0 else 6 for n in NGON_SAMPLE}


def test_bilinear_counts_match_the_paper():
    grid = [(m, n, q) for m in (3, 4) for n in range(m, 7) for q in (2, 3, 4, 5, 7)]
    counts = {g: solve(build(FamilySpec("bilinear", dict(zip("MNq", g))))).count for g in grid}
    assert counts == dict.fromkeys(grid, 0)


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
