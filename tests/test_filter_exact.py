"""Exact-arithmetic cross-check of the pair filter.

An independent recurrence over Gaussian rationals (Fraction pairs)
recomputes the filter quantities with no rounding at all; decisions made
in double precision must agree wherever x itself is exactly
representable and the exact decision is not within a factor sqrt(k) of
its threshold (k terms per equation)."""

from fractions import Fraction

import pytest

from spinsolve.core import valencies
from spinsolve.families import FamilySpec, build
from spinsolve.solver import FILTER_TOL, filter_x


class QI:
    """Gaussian rational a + b i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QI(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def scaled(self, r):
        r = Fraction(r)
        return QI(self.re * r, self.im * r)

    def reciprocal(self):
        norm = self.re * self.re + self.im * self.im
        return QI(self.re / norm, -self.im / norm)

    def norm2(self):
        return self.re * self.re + self.im * self.im


def exact_profile(arr, theta, x: QI):
    v = valencies(arr)
    n = arr.n_classes
    t = [QI(1), x]
    for i in range(1, n):
        lhs = t[i].scaled(v[i]) * (x.scaled(theta[i]) - QI(arr.a[i]))
        prev = t[i - 1].scaled(arr.b[i - 1] * v[i - 1])
        t.append((lhs - prev).scaled(Fraction(1) / (arr.c[i] * v[i + 1])))
    return t


def exact_filter_decision(arr, theta, x: QI, tol: float):
    """filter_x's rule in exact arithmetic: True or False, or None when
    the exact rule cannot be decided rationally.  With x_d the dominant
    member of {x, 1/x} and t = t(x_d), s = 1/t must solve rows 1..N of
    the recurrence at 1/x_d and t the terminal equation, each within tol
    of the sum of its terms' moduli.  That sum is irrational, so it is
    bracketed between sqrt(sum |term|^2) and sqrt(k sum |term|^2), k the
    number of terms: a gap within tol of the lower end passes, one beyond
    tol of the upper end fails, and one in between is undecided.  A zero
    t_i fails."""
    xd = x if x.norm2() >= 1 else x.reciprocal()
    t = exact_profile(arr, theta, xd)
    if any(ti.norm2() == 0 for ti in t):
        return False
    s = [ti.reciprocal() for ti in t]
    y = xd.reciprocal()
    n = arr.n_classes
    v = valencies(arr)
    equations = []
    for i in range(1, n + 1):
        vs = s[i].scaled(v[i])
        terms = [vs * y.scaled(theta[i]), vs.scaled(arr.a[i]),
                 s[i - 1].scaled(arr.b[i - 1] * v[i - 1])]
        if i < n:
            terms.append(s[i + 1].scaled(arr.c[i] * v[i + 1]))
        equations.append(terms)
    vt = t[n].scaled(v[n])
    equations.append([vt * xd.scaled(theta[n]), vt.scaled(arr.a[n]),
                      t[n - 1].scaled(arr.b[n - 1] * v[n - 1])])
    tol2 = Fraction(tol) ** 2
    undecided = False
    for own, *rest in equations:
        gap = own
        for term in rest:
            gap = gap - term
        squares = own.norm2() + sum(term.norm2() for term in rest)
        if gap.norm2() > tol2 * (1 + len(rest)) * squares:
            return False
        undecided |= gap.norm2() > tol2 * squares
    return None if undecided else True


def exact_theta(scheme):
    fam, p = scheme.family, scheme.params
    if fam == "hamming":
        return [Fraction(p["N"] * (p["q"] - 1) - p["q"] * i)
                for i in range(scheme.n_classes + 1)]
    return [Fraction(float(v)) for v in scheme.theta]  # floats are exact values


PROBES = [QI(0, 1), QI(0, -1), QI(-1), QI(1), QI(Fraction(3, 5), Fraction(4, 5)),
          QI(Fraction(-3, 5), Fraction(4, 5)), QI(2, 1), QI(Fraction(1, 3))]


@pytest.mark.parametrize("spec", [
    FamilySpec("hamming", {"N": 3, "q": 2}),
    FamilySpec("hamming", {"N": 4, "q": 4}),
    FamilySpec("hamming", {"N": 5, "q": 3}),
    FamilySpec("bilinear", {"M": 3, "N": 3, "q": 2}),
])
def test_float_filter_agrees_with_exact_filter(spec):
    scheme = build(spec)
    theta = exact_theta(scheme)
    tol = FILTER_TOL
    for x in PROBES:
        exact = exact_filter_decision(scheme.array, theta, x, tol)
        assert exact is not None, f"undecided at x = {x.re} + {x.im}i"
        numeric, _ = filter_x(scheme.array, scheme.theta,
                              complex(float(x.re), float(x.im)))
        assert numeric == exact, f"disagreement at x = {x.re} + {x.im}i"


def test_exact_filter_accepts_the_known_solutions():
    scheme = build(FamilySpec("hamming", {"N": 4, "q": 2}))
    theta = exact_theta(scheme)
    assert exact_filter_decision(scheme.array, theta, QI(0, 1), 1e-300)
    assert exact_filter_decision(scheme.array, theta, QI(0, -1), 1e-300)
    q4 = build(FamilySpec("hamming", {"N": 3, "q": 4}))
    assert exact_filter_decision(q4.array, exact_theta(q4), QI(-1), 1e-300)


def test_a_vanishing_profile_entry_rejects_without_raising():
    # hamming(3,2) at x = -1 has t_2 = 0, so s_2 = 1/t_2 does not exist
    scheme = build(FamilySpec("hamming", {"N": 3, "q": 2}))
    theta = exact_theta(scheme)
    assert exact_profile(scheme.array, theta, QI(-1))[2].norm2() == 0
    assert exact_filter_decision(scheme.array, theta, QI(-1), 1e-8) is False
    assert filter_x(scheme.array, scheme.theta, -1.0) == (
        False, "reciprocal_identity_failed at i=2")
