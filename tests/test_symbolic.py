"""Exact engine: ring laws, division, resultants, identity reports."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsolve.solver import candidate_quartic
from spinsolve.families import FamilySpec, build
from spinsolve.symbolic import (
    MultiPoly,
    NonExactDivision,
    RationalFunction,
    _bareiss_determinant,
    _bilinear_system,
    _hamming_cofactors,
    bilinear_identity_checks,
    bilinear_profile_params,
    divide_with_remainder,
    exact_divide,
    hamming_factor_check,
    hamming_profile_params,
    hamming_resultant_check,
    polynomial_ring,
    reciprocal_numerator,
    symbolic_quartic,
    symbolic_t,
    sylvester_resultant,
)

VARS = ("x", "y", "z")


def sparse_polys(max_terms=6, max_exp=4, coeff_bound=50):
    exponents = st.tuples(*[st.integers(0, max_exp)] * len(VARS))
    term = st.tuples(exponents, st.integers(-coeff_bound, coeff_bound))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: MultiPoly(VARS, dict(terms))
    )


@given(sparse_polys(), sparse_polys(), sparse_polys())
@settings(max_examples=150, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == MultiPoly(VARS, {})


@given(sparse_polys(), sparse_polys())
@settings(max_examples=100, deadline=None)
def test_exact_divide_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert exact_divide(p * q, q) == p


EXACT_VALUES = st.integers(-10**6, 10**6) | st.fractions(-10**3, 10**3, max_denominator=10**3)


@given(sparse_polys(), EXACT_VALUES, EXACT_VALUES, EXACT_VALUES)
@settings(max_examples=100, deadline=None)
def test_substitution_is_a_ring_morphism(p, a, b, c):
    point = dict(zip(VARS, (a, b, c)))
    value = p.substitute(point)
    assert MultiPoly.variable(VARS, "x").substitute(point) == a
    assert (p + p).substitute(point) == 2 * value
    assert (p * p).substitute(point) == value ** 2
    # a whole value is an int, whatever the point; an all-int point gives one
    assert type(value) is (int if value.denominator == 1 else Fraction)
    if all(type(v) is int for v in (a, b, c)):
        assert type(value) is int


def reference_divide_with_remainder(p, q):
    """Division by whole-polynomial subtraction, one new MultiPoly per
    step: the slow but obviously lexicographic oracle for the in-place
    heap division."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lt_e, lt_c = q.leading_term()
    quotient = MultiPoly.constant(p.vars, 0)
    remainder = MultiPoly.constant(p.vars, 0)
    work = p
    while not work.is_zero():
        expo, coeff = work.leading_term()
        delta = tuple(a - b for a, b in zip(expo, lt_e))
        if min(delta) < 0 or coeff % lt_c != 0:
            move = MultiPoly(p.vars, {expo: coeff})
            remainder = remainder + move
            work = work - move
            continue
        mono = MultiPoly(p.vars, {delta: coeff // lt_c})
        quotient = quotient + mono
        work = work - mono * q
    return quotient, remainder


@given(sparse_polys(), sparse_polys(), sparse_polys(max_terms=3),
       st.sampled_from((1, -1, 2, -3, 6)))
@settings(max_examples=200, deadline=None)
def test_division_matches_reference(p, q, r, scale):
    q = q * scale  # leading coefficients that are not units
    if q.is_zero():
        return
    for dividend in (p, p * q + r):
        quotient, remainder = divide_with_remainder(dividend, q)
        ref_quotient, ref_remainder = reference_divide_with_remainder(dividend, q)
        # same terms in the same order
        assert list(quotient.terms.items()) == list(ref_quotient.terms.items())
        assert list(remainder.terms.items()) == list(ref_remainder.terms.items())
        assert dividend == quotient * q + remainder


def test_simple_products_and_division():
    x, y, z = polynomial_ring(*VARS)
    assert (x + 1) * (x - 1) == x**2 - 1
    assert exact_divide(x**4 + 2 * x**2 + 1, x**2 + 1) == x**2 + 1


def test_non_exact_division_reports_witness():
    x, y, z = polynomial_ring(*VARS)
    with pytest.raises(NonExactDivision) as err:
        exact_divide(x**2 + 1, x + 1)
    assert not err.value.remainder.is_zero()
    assert err.value.remainder == reference_divide_with_remainder(x**2 + 1, x + 1)[1]


def test_resultant_linear_convention():
    x, a, b = polynomial_ring("x", "a", "b")
    assert sylvester_resultant(x - a, x - b, "x") == a - b


def test_resultant_of_disjoint_quadratics():
    (x,) = polynomial_ring("x")
    assert sylvester_resultant(x**2 - 1, x**2 - 4, "x") == \
        MultiPoly.constant(("x",), 9)


def test_resultant_swap_symmetry_and_multiplicativity():
    x, a, b = polynomial_ring("x", "a", "b")
    p = x**2 - a
    q = x - b
    r = x + a * b
    res_pq = sylvester_resultant(p, q, "x")
    res_qp = sylvester_resultant(q, p, "x")
    assert res_pq == res_qp or res_pq == -res_qp
    lhs = sylvester_resultant(p, q * r, "x")
    assert lhs == res_pq * sylvester_resultant(p, r, "x")


def _leibniz_determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Sum over permutations, the reference the elimination is checked against."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


def test_bareiss_determinant_swaps_rows_past_a_zero_pivot():
    # a zero at (0, 0), and at times a zero column below a later pivot,
    # forces the row swap and its sign flip; each determinant is compared
    # at a rational point with the Leibniz expansion of the evaluated matrix
    a, b = polynomial_ring("a", "b")
    one = MultiPoly.constant(("a", "b"), 1)
    pool = [MultiPoly.constant(("a", "b"), 0), one, -one, a, b - 2, a * b + 3, a * a - b]
    rng = random.Random(5)
    point = {"a": Fraction(3, 7), "b": Fraction(-5, 2)}
    for _ in range(60):
        n = rng.randint(2, 5)
        matrix = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        matrix[0][0] = pool[0]
        if rng.random() < 0.3:
            for row in matrix[1:]:
                row[1] = pool[0]
        det = _bareiss_determinant(matrix, one)
        values = [[Fraction(entry.substitute(point)) for entry in row] for row in matrix]
        assert det.substitute(point) == _leibniz_determinant(values)


def test_resultant_with_a_constant_operand_is_its_power():
    x, a = polynomial_ring("x", "a")
    q = x**3 + a * x + 2
    for c in (MultiPoly.constant(("x", "a"), 3), a + 1, -a):
        assert sylvester_resultant(c, q, "x") == c**3
        assert sylvester_resultant(q, c, "x") == c**3
        assert sylvester_resultant(c, a - 4, "x") == MultiPoly.constant(("x", "a"), 1)


def test_rational_function_makes_a_negative_leading_denominator_positive():
    x, y = polynomial_ring("x", "y")
    for num, den in ((x + 1, -y), (x * y - 2, 3 - 2 * y * y), (x, -5)):
        f = RationalFunction(num, den)
        assert f.den.leading_term()[1] > 0
        point = {"x": Fraction(2, 3), "y": Fraction(7, 5)}
        den_value = den if isinstance(den, int) else den.substitute(point)
        assert Fraction(f.num.substitute(point)) / f.den.substitute(point) == \
            Fraction(num.substitute(point)) / den_value


def test_rational_function_reduction():
    x, nn, q = polynomial_ring("x", "N", "q")
    f = RationalFunction(nn * (q - 1) * x, nn * (q - 1))
    g = f.reduced([nn, q - 1])
    assert g.num == x and g.den == 1


# -- profile identities -------------------------------------------------------


def test_symbolic_profiles_match_worked_example():
    params = hamming_profile_params()
    t2 = symbolic_t(2, params)
    # at N = 3, q = 2 the degree-2 profile entry is (x^2 - 1)/2
    num = [c.substitute({"x": 0, "N": 3, "q": 2}) for c in t2.num.coefficients_in("x")]
    den = t2.den.substitute({"x": 0, "N": 3, "q": 2})
    assert [Fraction(c, den) for c in num] == [Fraction(-1, 2), 0, Fraction(1, 2)]


def test_symbolic_profile_at_x_equals_numeric_profile():
    from spinsolve.solver import t_profile

    params = hamming_profile_params()
    scheme = build(FamilySpec("hamming", {"N": 4, "q": 3}))
    x_val = Fraction(3, 7)
    numeric = t_profile(scheme.array, scheme.theta, float(x_val))
    for i in (2, 3):
        t = symbolic_t(i, params)
        point = {"x": x_val, "N": 4, "q": 3}
        exact = Fraction(t.num.substitute(point)) / t.den.substitute(point)
        assert abs(complex(numeric[i]) - float(exact)) < 1e-12


def _digest(obj) -> str:
    return hashlib.sha256(str(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("params,i,digest", [
    (hamming_profile_params, 2, "385a65c32c7fe14a"),
    (hamming_profile_params, 3, "2d9ca52c28d715cc"),
    (hamming_profile_params, 4, "4d3fb02df9dac873"),
    (bilinear_profile_params, 2, "fb6f8fcfe93bd1f3"),
    (bilinear_profile_params, 3, "5b7c67d886056e14"),
], ids=["hamming-t2", "hamming-t3", "hamming-t4", "bilinear-t2", "bilinear-t3"])
def test_reduced_profiles_are_pinned(params, i, digest):
    # the printed reduced form, num and den, as the report code sees it
    assert _digest(symbolic_t(i, params())) == digest


def _weighted_profile(x, b, c, theta, n):
    """t_0..t_n in Fractions by the valency-weighted recurrence
    c_{j+1} v_{j+1} t_{j+1} = v_j t_j (x theta_j - a_j) - b_{j-1} v_{j-1} t_{j-1},
    with v_{j+1} = v_j b_j / c_{j+1}; b, c, theta map j to b_j, c_j, theta_j."""
    a = [b(0) - b(j) - (c(j) if j else 0) for j in range(n)]
    v = [Fraction(1)]
    for j in range(n):
        v.append(v[j] * b(j) / c(j + 1))
    t = [Fraction(1), x]
    for j in range(1, n):
        rhs = v[j] * t[j] * (x * theta(j) - a[j]) - b(j - 1) * v[j - 1] * t[j - 1]
        t.append(rhs / (c(j + 1) * v[j + 1]))
    return t


def _rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 50))


def test_hamming_profiles_match_the_weighted_recurrence():
    params = hamming_profile_params()
    profiles = [symbolic_t(i, params) for i in range(5)]
    rng = random.Random(3)
    for _ in range(15):
        nn, q, x = _rational(rng, 200, 900), _rational(rng, 60, 900), _rational(rng, -500, 500)
        point = {"x": x, "N": nn, "q": q}
        weighted = _weighted_profile(x, lambda j: (nn - j) * (q - 1), lambda j: Fraction(j),
                                     lambda j: nn * (q - 1) - q * j, 4)
        assert [Fraction(t.num.substitute(point)) / t.den.substitute(point)
                for t in profiles] == weighted, point


def test_bilinear_profiles_match_the_weighted_recurrence():
    params = bilinear_profile_params()
    profiles = [symbolic_t(i, params) for i in range(4)]
    rng = random.Random(5)
    for _ in range(15):
        d, e, q, x = (_rational(rng, 200, 900) for _ in range(4))
        point = {"x": x, "d": d, "e": e, "q": q}
        weighted = _weighted_profile(x, lambda j: (d - q**j) * (e - q**j) / (q - 1),
                                     lambda j: q ** (j - 1) * (q**j - 1) / (q - 1),
                                     lambda j: (d * e + q**j * (1 - d - e)) / ((q - 1) * q**j), 3)
        assert [Fraction(t.num.substitute(point)) / t.den.substitute(point)
                for t in profiles] == weighted, point


def test_profile_numerators_share_the_quadratic_factor():
    report = hamming_factor_check()
    assert report["ok"]
    assert report["profiles"]["t2"]["divisible"]
    assert report["profiles"]["t3"]["divisible"]
    assert report["profiles"]["t3"]["cofactor_degree_x"] == 4


def test_degree2_cofactor_coefficients():
    report = hamming_factor_check()
    coeffs = report["profiles"]["t2"]["cofactor_coefficients_x"]
    assert coeffs[0] == "-N*q + N + q"
    assert coeffs[1] == "q - 2"
    assert coeffs[2] == coeffs[0]  # palindromic: the x^2 coefficient is forced
    assert report["cofactor2_palindromic"]


def test_cofactor_resultant_identity():
    report = hamming_resultant_check()
    assert report["matches_target"] and report["sign"] == 1
    assert report["value_at_N3_q3"] == 82944
    assert type(report["value_at_N3_q3"]) is int  # the report writes 82944, not 82944/1
    assert report["ok"]


def test_cofactors_have_no_extra_common_root_generically():
    params = hamming_profile_params()
    x, nn, q = polynomial_ring(*params.vars)
    one = MultiPoly.constant(params.vars, 1)
    shared = one - 2 * x + q * x + x**2
    cof2 = exact_divide(reciprocal_numerator(symbolic_t(2, params)), shared)
    cof3 = exact_divide(reciprocal_numerator(symbolic_t(3, params)), shared)
    res = sylvester_resultant(cof2, cof3, "x")
    # nonzero away from the vanishing locus (here: N = 3, q = 3)
    assert res.substitute({"x": 0, "N": 3, "q": 3}) == 82944
    assert res.substitute({"x": 0, "N": 5, "q": 7}) != 0


def test_exact_quartic_matches_numeric_for_integer_instances():
    for spec in (FamilySpec("hamming", {"N": 3, "q": 3}),
                 FamilySpec("hamming", {"N": 6, "q": 5}),
                 FamilySpec("bilinear", {"M": 3, "N": 4, "q": 2}),
                 FamilySpec("bilinear", {"M": 3, "N": 3, "q": 3})):
        scheme = build(spec)
        arr = scheme.array
        exact = symbolic_quartic(int(scheme.theta[1]), int(arr.a[1]),
                                 int(arr.b[1]), int(arr.c[0]))
        numeric = candidate_quartic(arr, scheme.theta)
        assert numeric == exact  # floats carry the integers exactly


def test_bilinear_elimination_is_pinned():
    # term counts and digests of g1, g2 as the whole-polynomial reference
    # division produced them, and of their printed form
    system = _bilinear_system()
    for name, n_terms, digest, printed in (("g1", 43, "3864db7905d91a25", "2782881b9ec2d035"),
                                           ("g2", 464, "1c12e8b5cc25b78d", "64d89f4fefb7420a")):
        terms = system[name].terms
        assert len(terms) == n_terms
        assert hashlib.sha256(
            repr(sorted(terms.items())).encode()
        ).hexdigest().startswith(digest)
        assert _digest(system[name]) == printed


def test_hamming_cofactors_are_pinned():
    # term counts and digests of the exact quotients of the numerators of
    # t_2(x)t_2(1/x)-1 and t_3(x)t_3(1/x)-1 by 1 - 2x + qx + x^2
    _, _, cofactors = _hamming_cofactors()
    for i, n_terms, digest in ((2, 8, "4958804d2a00604c"), (3, 59, "9af9a5fdf280692b")):
        terms = cofactors[i].terms
        assert len(terms) == n_terms
        assert hashlib.sha256(
            repr(sorted(terms.items())).encode()
        ).hexdigest().startswith(digest)


def test_identity_systems_are_computed_once_per_process():
    assert _bilinear_system() is _bilinear_system()
    assert _hamming_cofactors() is _hamming_cofactors()


def test_bilinear_identity_report():
    report = bilinear_identity_checks(seed=7, points=20)
    assert report["ok"]
    assert report["points"] >= 20
    assert all(rec["ok"] for rec in report["per_point"])
    assert report["degree_bounds"]["g1"]["d"] == 2
    assert report["degree_bounds"]["g2"]["d"] == 4


def test_bilinear_identity_checks_refuse_fewer_than_20_points():
    with pytest.raises(ValueError, match="points must be at least 20, got 19"):
        bilinear_identity_checks(seed=7, points=19)


def test_bilinear_identity_alternate_seed():
    report = bilinear_identity_checks(seed=12345, points=20)
    assert report["ok"]
