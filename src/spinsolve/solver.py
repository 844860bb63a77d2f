"""Enumeration of all diagonal matrices T with (P T)^3 = I.

The pipeline is family-agnostic and works on any valid intersection array
with its eigenvalues: the ratio x = T_1/T_0 must satisfy a palindromic
quartic (from the reciprocal identity of the degree-2 profile entry; with
one class it is the square of the terminal equation).  Every such quartic
is solved in z = x + 1/x, a quadratic whose degree drops when the leading
coefficients vanish, and each z gives a reciprocal pair x, 1/x.  Each x
generates the full profile t_i = T_i/T_0 by a three-term forward
recurrence, the pair is filtered by the reciprocal identities
t_i(x) t_i(1/x) = 1 and by the terminal recurrence equation, and finally
one matrix product decides whether (P diag(t))^3 is a scalar matrix mu I,
with T_0 ranging over the three cube roots of 1/mu.  At most 4 x-values
times 3 cube roots can survive, so no input yields more than 12 solutions.

The filter decides each pair once, on the profile of its dominant member
x_d: |x_d| > 1, or on the unit circle the member listed first (filter_x,
given one x there, takes x itself).  The forward recurrence
computes the dominant solution when |x| > 1 and the minimal one, which
loses accuracy with every step, when |x| < 1 (Gautschi 1967), so
t(x_d) is the only forward profile a pair needs.  With s = 1/t(x_d), the
reciprocal identity says s solves the recurrence at 1/x_d; rows 1..N of
that recurrence, and the terminal equation of t at x_d, are each held to
FILTER_TOL times the sum of their terms' moduli.  Reasons:
  - "reciprocal_identity_failed at i=k": row k - 1 < N fails; it fixes
    s_k, and a zero or non-finite t_k fails it as well;
  - "terminal_failed": row N, which has no forward term, or the terminal
    equation of t fails.
filter_x runs the same check.  The recurrence runs on Python complex
numbers, one plain division per step.

The product decision works in the symmetric frame U = K^{1/2} P K^{-1/2},
K the diagonal of the valencies (Bannai, Bannai and Jaeger, "On spin
models, modular invariance, and duality", J. Algebraic Combin. 6 (1997)):
U is symmetric with entries at most sqrt|X|, where P's reach k_N, and
(P T)^3 = K^{-1/2} (U T)^3 K^{1/2} is the same equation.  Its premise is
U^2 = |X| I, which the reciprocal filter already assumes, and solve reads
|X| as (U^2)_00.  Then U^{-1} = U/|X|, so (U T)^3 = I iff
U T U = T^{-1} U T^{-1} / |X|; with T = T_0 diag(t) and A = U diag(t) U
that is
    R_ij = A_ij t_i t_j = kappa U_ij for all i, j,  kappa = 1/(|X| T_0^3),
and (U diag(t))^3 = mu I with mu = |X| kappa.  So one real-by-complex
product decides the pair on x_d, with no cube formed.  Each entry is held
to the rounding scale W_ij = r_i r_j + c |U_ij|: r_i = |t_i| sqrt(((U o U)|t|)_i)
bounds the terms of R_ij by Cauchy-Schwarz, (|U||T||U|)_ij |t_i t_j| <= r_i r_j,
and kappa is read from the diagonal entry with the largest |U_kk|/r_k^2,
the smallest rounding scale c = r_k^2/|U_kk| a diagonal quotient
R_kk/U_kk can have.  The pair passes when the gap max |R - kappa U|/W is
at most residual_tol and every r_i is finite; else both members are
rejected as "non_scalar_cube".  A pass proves (U D)^3 = kappa U^2 for
D = diag(t), so x_d keeps the three roots T_0 of 1/mu, each solution
reporting the gap as its residual; a mu of modulus at most 1e-300 raises
SingularCubeError.

The other member is never decided: if T solves the equation, so does
T^{-1}/|X| (Bannai, Bannai and Jaeger 1997), with ratio 1/x_d.  Its
solutions are 1/(|X| T_0 t), the profile 1/t (on the unit circle
conj(t), the same values and t_profile's own for the conjugate ratio
roots_of_quartic lists), mu' = |X|^3/mu and T_0' the cube roots of
1/mu', which are omega^k/(|X| T_0).  So every count is closed under
x -> 1/x, and a pair gives 0 or 6 solutions (3 for a self-reciprocal
x = +-1).  The |x| < 1 member could not be decided on its own: kappa is
tiny there and A's leading entries cancel.  verify_solution, which cubes
P diag(T) directly, is the independent check that tests compare against.

Family classifications are never baked in here; they are asserted by
tests and the verification CLI against this solver's raw output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    DegenerateSchemeError,
    IntersectionArray,
    SchemeInstance,
    SingularCubeError,
    SolutionCandidate,
    SolverConfig,
    max_abs,
)

__all__ = [
    "SolutionSet",
    "DegenerateSchemeError",
    "SingularCubeError",
    "candidate_quartic",
    "roots_of_quartic",
    "t_profile",
    "filter_x",
    "scalar_and_T0",
    "solve",
    "symmetric_frame",
    "verify_solution",
]

# Roots of the quartic closer than this (relative) are one root, and a root
# whose modulus is within it of 1 lies on the unit circle.
ROOT_DEDUP_TOL = 1e-8
# Each filter row is held to this fraction of the sum of its terms' moduli.
FILTER_TOL = 1e-8


@dataclass(frozen=True)
class SolutionSet:
    scheme: SchemeInstance
    accepted: tuple[SolutionCandidate, ...]
    rejected_x: tuple[tuple[complex, str], ...]

    @property
    def count(self) -> int:
        return len(self.accepted)

    @property
    def raw_count(self) -> int:
        """Diagonals formed; no root is tested on its own, so it is count."""
        return self.count

    def accepted_x(self) -> list[complex]:
        return [sol.x for sol in self.accepted]

    def as_dict(self) -> dict:
        return {
            "family": self.scheme.family,
            "params": self.scheme.params,
            "count": self.count,
            "raw_count": self.raw_count,
            "accepted": [sol.as_dict() for sol in self.accepted],
            "rejected_x": [
                {"x": {"re": x.real, "im": x.imag}, "reason": reason}
                for x, reason in self.rejected_x
            ],
        }


def candidate_quartic(arr: IntersectionArray, theta) -> list[float]:
    """Palindromic coefficients [A4, A3, A2, A1, A0] of the constraint on
    x coming from t_2(x) t_2(1/x) = 1.

    With the scheme normalization c_1 = 1 this is
    A4 = theta_1, A3 = a_1 (theta_1 - 1), A2 = -(theta_1^2 + a_1^2 - b_1^2 + 1);
    the c_1 factors below extend the same identity to arbitrary valid arrays.
    With one class, b_1 = 0 and theta_1 = -c_1, so the quartic is
    -(c_1 x^2 + a_1 x + c_1)^2, the square of the terminal equation.
    """
    th1 = float(theta[1])
    a1 = float(arr.a[1])
    b1 = float(arr.b_at(1))
    c1 = float(arr.c[0])
    a4 = c1 * th1
    a3 = a1 * (th1 - c1)
    a2 = -(th1 * th1 + a1 * a1 + c1 * c1 - b1 * b1)
    return [a4, a3, a2, a3, a4]


def _quadratic_roots(a: complex, b: complex, c: complex) -> list[complex]:
    """Stable roots of a x^2 + b x + c with a != 0 (sign-adjusted sqrt
    avoids cancellation; the second root comes from the product)."""
    s = cmath.sqrt(b * b - 4 * a * c)
    if (b.conjugate() * s).real < 0:
        s = -s
    q = -(b + s) / 2
    r1 = q / a
    r2 = c / q if q != 0 else -r1
    return [r1, r2]


def roots_of_quartic(coeffs) -> list[complex]:
    """All distinct roots of a palindromic candidate polynomial
    A4 x^4 + A3 x^3 + A2 x^2 + A3 x + A4, multiplicity collapsed.  No root
    is 0: each pair solves x^2 - z x + 1 = 0, so both members are listed,
    however small the partner 1/x of a large x.

    Every candidate polynomial the pipeline produces is palindromic, so
    its roots come in reciprocal pairs and z = x + 1/x solves
    A4 z^2 + A3 z + (A2 - 2 A4) = 0; each z gives the pair solving
    x^2 - z x + 1 = 0.  The degree drops with the coefficients: a
    negligible A4 leaves x (A3 x^2 + A2 x + A3), so z = -A2/A3, and a
    negligible A3 as well leaves only x = 0.  An identically zero or
    non-palindromic polynomial is an error.

    Nearly coincident z (and the pair members of z = +-2) are snapped to
    their mean: the sums are exact in the coefficients, so this recovers
    doubled roots that coefficient noise (for example eigenvalues computed
    in floating point) would otherwise split by the square root of that
    noise.  A real z with |z| < 2 gives a pair on the unit circle, and the
    partner is returned as the exact conjugate of x rather than 1/x.  The
    roots are Python complex numbers, sorted by their real and imaginary
    parts rounded to 12 decimals.
    """
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) != 5 or coeffs[0] != coeffs[4] or coeffs[1] != coeffs[3]:
        raise ValueError("candidate polynomial must be a palindromic quartic "
                         "[A4, A3, A2, A3, A4]")
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        raise ValueError("all-zero candidate polynomial")
    a4, a3, a2 = coeffs[:3]
    if abs(a4) > 1e-13 * scale:
        z1, z2 = _quadratic_roots(a4, a3, a2 - 2 * a4)
        if abs(z1 - z2) <= 1e-6 * max(1.0, abs(z1), abs(z2)):
            z1 = z2 = (z1 + z2) / 2
        zs = [z1, z2]
    elif abs(a3) > 1e-13 * scale:
        zs = [-a2 / a3]
    else:
        zs = []
    found: list[complex] = []
    for z in zs:
        s = cmath.sqrt(z * z - 4)
        if (z.conjugate() * s).real < 0:
            s = -s
        x = (z + s) / 2
        if abs(x - 1 / x) <= 1e-6 * max(1.0, abs(x)):
            x = z / 2  # doubled self-reciprocal root (x = +-1 up to noise)
        # a real z with |z| < 2 puts x on the unit circle, where 1/x is
        # conj(x); taking it exactly makes the pair's profiles conjugates
        on_circle = z.imag == 0 and abs(z.real) < 2
        found.extend([x, x.conjugate() if on_circle else 1 / x])
    roots: list[complex] = []
    for z in sorted(found, key=lambda w: (round(w.real, 12), round(w.imag, 12))):
        if all(abs(z - kept) > ROOT_DEDUP_TOL * max(1.0, abs(z)) for kept in roots):
            roots.append(z)
    return roots


def t_profile(arr: IntersectionArray, theta, x: complex) -> np.ndarray:
    """Profile t_0..t_N from t_0 = 1, t_1 = x and the forward recurrence
    b_i t_{i+1} = t_i (x theta_i - a_i) - c_i t_{i-1}."""
    if x == 0:
        raise ValueError("x must be nonzero")
    _, a, b, c = arr.float_params()
    th = np.asarray(theta, dtype=float).tolist()
    x = complex(x)
    t = [1 + 0j, x]
    for i in range(1, arr.n_classes):
        t.append((t[i] * (x * th[i] - a[i]) - c[i - 1] * t[i - 1]) / b[i])
    return np.array(t)


def filter_x(arr: IntersectionArray, theta, x: complex) -> tuple[bool, str | None]:
    """Accept x iff its reciprocal pair {x, 1/x} passes the check solve
    makes, on the profile of its dominant member: x itself on the unit
    circle (within ROOT_DEDUP_TOL), else whichever of x, 1/x is larger."""
    on_circle = abs(abs(x) - 1.0) <= ROOT_DEDUP_TOL
    dominant = x if on_circle or abs(x) >= 1.0 else 1.0 / x
    reason = _pair_check(arr, theta, dominant, t_profile(arr, theta, dominant))
    return reason is None, reason


def _pair_check(arr: IntersectionArray, theta, x: complex, t: np.ndarray) -> str | None:
    """Why the pair {x, 1/x} fails (module docstring), or None, from
    t = t_profile(x) of its dominant member x.  Row i of the recurrence
    of s = 1/t at y = 1/x is
        s_i y theta_i - s_i a_i - c_i s_{i-1} - b_i s_{i+1} = 0,
    with no forward term in row N.  The rows go in order, so most failing
    pairs are decided in a few; each modulus is a product of moduli."""
    n = arr.n_classes
    _, a, b, c = arr.float_params()
    th = np.asarray(theta, dtype=float).tolist()
    tl = t.tolist()
    y = 1.0 / x
    abs_y = math.hypot(y.real, y.imag)
    # s_j and its modulus, for j = i - 1, i, i + 1
    prev, cur = 1.0 / tl[0], 1.0 / tl[1]
    abs_prev, abs_cur = math.hypot(prev.real, prev.imag), math.hypot(cur.real, cur.imag)
    for i in range(1, n):
        ti = tl[i + 1]
        if ti == 0 or not cmath.isfinite(ti):
            return f"reciprocal_identity_failed at i={i + 1}"
        nxt = 1.0 / ti
        abs_nxt = math.hypot(nxt.real, nxt.imag)
        gap = cur * (th[i] * y) - cur * a[i] - c[i - 1] * prev - b[i] * nxt
        total = abs_cur * (abs(th[i]) * abs_y + abs(a[i])) + c[i - 1] * abs_prev + b[i] * abs_nxt
        if not _within(gap, total):
            return f"reciprocal_identity_failed at i={i + 1}"
        prev, cur, abs_prev, abs_cur = cur, nxt, abs_cur, abs_nxt
    gap = cur * (th[n] * y) - cur * a[n] - c[n - 1] * prev
    total = abs_cur * (abs(th[n]) * abs_y + abs(a[n])) + c[n - 1] * abs_prev
    if not _within(gap, total):
        return "terminal_failed"
    last, before = tl[n], c[n - 1] * tl[n - 1]
    gap = last * (x * th[n]) - last * a[n] - before
    total = (math.hypot(last.real, last.imag) * (math.hypot(x.real, x.imag) * abs(th[n]) + abs(a[n]))
             + math.hypot(before.real, before.imag))
    return None if _within(gap, total) else "terminal_failed"


def _within(gap: complex, total: float) -> bool:
    """|gap| <= FILTER_TOL total, with total finite (False on NaN)."""
    return math.hypot(gap.real, gap.imag) <= FILTER_TOL * total < math.inf


class ScalarCube(NamedTuple):
    is_scalar: bool  # the one-product identity holds: (U diag(t))^3 = mu I
    mu: complex  # |X| kappa
    t0_roots: tuple[complex, ...]  # the cube roots of 1/mu; () when not scalar
    gap: float  # max |R_ij - kappa U_ij| / W_ij, held to residual_tol


def symmetric_frame(arr: IntersectionArray, p: np.ndarray) -> np.ndarray:
    """U = K^{1/2} P K^{-1/2}, K the diagonal of the float valencies: row i
    of P belongs to theta_i, whose dual valency is k_i in a self-dual
    order, so U is symmetric and (P T)^3 = K^{-1/2} (U T)^3 K^{1/2}."""
    root_k = np.sqrt(arr.float_params()[0])
    return p * root_k[:, np.newaxis] / root_k


def _real_times(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u @ w for real u and C-contiguous complex w as one real product:
    w's float64 view interleaves real and imaginary parts column by
    column, so u @ that view is the product's own float64 view, and the
    result is C-contiguous."""
    return (u @ w.view(np.float64)).view(np.complex128)


def scalar_and_T0(u: np.ndarray, t: np.ndarray, size: float,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> ScalarCube:
    """Decide whether (U diag(t))^3 is a scalar matrix mu I, for a real
    square float64 U with U^2 = size I, by the one-product identity
    R = kappa U (module docstring), and return mu = size kappa with the
    three cube roots of 1/mu (in _cube_roots' order) when it is."""
    t = np.asarray(t, dtype=complex)
    col = t[:, np.newaxis]
    # a t too large for float64 overflows here; its non-finite rows reject
    # the pair below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        r = _real_times(u, col * u)  # A = U diag(t) U
        r *= col
        r *= t  # R_ij = A_ij t_i t_j
        abs_t = np.abs(t)
        rows = abs_t * np.sqrt((u * u) @ abs_t)
        weights = np.abs(u.diagonal()) / (rows * rows)
        k = int(np.argmax(weights))
        kappa = complex(r[k, k] / u[k, k])
        r -= kappa * u
        scale = np.multiply.outer(rows, rows)
        scale += np.abs(u) / weights[k]
        gap = float((np.abs(r) / scale).max())
    mu = size * kappa
    if not (gap <= cfg.residual_tol and np.isfinite(rows).all()):
        return ScalarCube(False, mu, (), gap)
    return ScalarCube(True, mu, _cube_roots(mu), gap)


def _cube_roots(mu: complex) -> tuple[complex, complex, complex]:
    """The three cube roots of 1/mu: |mu|^(-1/3) exp(-i arg(mu)/3), with
    arg(mu) in (-pi, pi], first, then +2*pi/3 steps.  A zero imaginary part
    is read as +0.0, so mu and its conjugate have the same order when
    they are equal.  SingularCubeError when |mu| <= 1e-300, as 1/mu may
    overflow."""
    if abs(mu) <= 1e-300:
        raise SingularCubeError(
            "cube of U diag(t) is numerically singular; U and t were "
            "expected invertible"
        )
    arg = cmath.phase(complex(mu.real, mu.imag + 0.0))
    r = abs(mu) ** (-1.0 / 3.0) * cmath.exp(-1j * arg / 3.0)
    step = cmath.exp(2j * cmath.pi / 3.0)
    return (r, r * step, r * step * step)


def verify_solution(p: np.ndarray, diag) -> float:
    """Max-entry residual of (P diag(T))^3 - I."""
    t = np.asarray(diag, dtype=complex)
    pt = p * t[np.newaxis, :]
    return max_abs(pt @ pt @ pt - np.eye(p.shape[0]))


def solve(scheme: SchemeInstance, cfg: SolverConfig = DEFAULT_CONFIG) -> SolutionSet:
    """Run the full pipeline and return every verified diagonal solution,
    along with each rejected x and why.  No solution needs merging: the
    three cube roots of one x differ by a factor omega, and distinct x are
    already ROOT_DEDUP_TOL apart."""
    arr = scheme.array
    theta = scheme.theta
    coeffs = candidate_quartic(arr, theta)
    if not all(map(math.isfinite, coeffs)):  # max() would pass over a NaN
        raise ValueError("quartic coefficients are too large for float arithmetic")
    # the coefficients are quadratic in theta_1, a_1, b_0: divide by s twice, not by s^2
    scale = max(1.0, abs(float(theta[1])), abs(float(arr.a[1])), float(arr.b[0]))
    if max(abs(c) for c in coeffs) / scale / scale <= 1e-12:
        raise DegenerateSchemeError(
            "candidate polynomial vanishes identically; the diagonal ratio "
            "x is unconstrained for this array"
        )

    accepted: list[SolutionCandidate] = []
    rejected: list[tuple[complex, str]] = []
    roots = roots_of_quartic(coeffs)
    decisions: dict = {}  # each dominant member's (reason, profile, ScalarCube)
    u = None  # formed at the first product; most arrays reject every x before
    for x in roots:
        # each pair {x, 1/x} is decided once, on the profile of its dominant
        # member; on the unit circle, where roots_of_quartic lists the
        # partner as conj(x), that is whichever member comes first
        on_circle = abs(abs(x) - 1.0) <= ROOT_DEDUP_TOL
        conj = x.conjugate()
        if on_circle:
            dominant = conj if conj in decisions else x
        else:
            dominant = x if abs(x) >= 1.0 else min(roots, key=lambda w: abs(w * x - 1.0))
        if dominant not in decisions:
            t = t_profile(arr, theta, dominant)
            reason, cube = _pair_check(arr, theta, dominant, t), None
            if reason is None:
                if u is None:
                    u = symmetric_frame(arr, scheme.eigenmatrix)
                    size = float(u[0] @ u[0])  # (U^2)_00, |X| by the premise
                cube = scalar_and_T0(u, t, size, cfg)
                reason = None if cube.is_scalar else "non_scalar_cube"
            decisions[dominant] = reason, t, cube
        reason, t, cube = decisions[dominant]
        if reason is not None:
            rejected.append((x, reason))
            continue
        mu, t0_roots = cube.mu, cube.t0_roots
        if dominant is not x:
            # the partner's solutions are 1/(|X| T0 t): t(x) = 1/t(1/x), on
            # the circle x = conj(dominant), and mu' = 1/T0'^3 = |X|^3/mu
            t = t.conj() if on_circle else 1.0 / t
            mu = size**3 / mu
            t0_roots = _cube_roots(mu)
        accepted.extend(
            SolutionCandidate(x=x, t=tuple(t.tolist()), mu=mu, t0=t0,
                              diag=tuple((t0 * t).tolist()), residual=cube.gap)
            for t0 in t0_roots)

    return SolutionSet(scheme=scheme, accepted=tuple(accepted), rejected_x=tuple(rejected))
