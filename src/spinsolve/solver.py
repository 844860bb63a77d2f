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
(P diag(t))^3 must be a scalar matrix mu I, with T_0 ranging over the
three cube roots of 1/mu.  At most 4 x-values times 3 cube roots can
survive, so no input yields more than 12 solutions.

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
Both members get that decision, and the |x| < 1 member's profile is
1/t(x_d).  filter_x runs the same check.  The recurrence runs on Python
complex numbers, one plain division per step.

The cube is measured in the symmetric frame U = K^{1/2} P K^{-1/2}, K the
diagonal of the valencies (Bannai, Bannai and Jaeger 1997): U is
symmetric with U/sqrt|X| orthogonal, so its entries are at most sqrt|X|
where P's reach k_N, and (P T)^3 = K^{-1/2} (U T)^3 K^{1/2} is the same
equation.  solve forms U once; the cube m = (U T)^3 is U (T (U (T U T))),
two real-by-complex matrix products.  It is formed once per x:
(U diag(T_0 t))^3 = T_0^3 (U diag(t))^3.  Every decision on it is held to
its own rounding scale S, the largest row sum of (|U||T|)^3 (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5):
  - m is scalar when max |m - mu I| <= residual_tol S and |mu| exceeds
    3 dim u S, which bounds the rounding of its diagonal mean (u the unit
    roundoff); else x is rejected as non_scalar_cube;
  - with c = T_0^3 and off the largest off-diagonal modulus of m, a root's
    residual is max(|c m_ii - 1|, |c| off), which is max |c m - I| up to
    the rounding of the off-diagonal products (section 3.6);
  - a root is accepted when its residual is at most
    residual_tol max(1, S/|mu|).  An x whose three roots all miss that is
    rejected as residual_failed; when only some miss, each is rejected as
    "residual_failed at root=k", k its index in t0_roots: root 0 is
    |mu|^(-1/3) exp(-i arg(mu)/3) with arg(mu) in (-pi, pi], a zero
    imaginary part read as +0.0, and roots 1 and 2 follow in +2 pi/3 steps.

A real z with |z| < 2 gives an on-circle pair, whose partner
roots_of_quartic forms as the exact conjugate of x.  Rounding is
sign-symmetric, so the partner's profile and cube equal the conjugates
of x's, and neither is formed again (_conjugate_cube).  verify_solution,
which cubes P diag(T) directly, is the independent check that tests
compare against.

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
    IntersectionArray,
    SchemeInstance,
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


class DegenerateSchemeError(ValueError):
    """The candidate polynomial vanishes identically, so the ratio x is
    unconstrained at this stage (happens for the square, where every
    unimodular pair works); enumeration is impossible."""


@dataclass(frozen=True)
class SolutionSet:
    scheme: SchemeInstance
    accepted: tuple[SolutionCandidate, ...]
    rejected_x: tuple[tuple[complex, str], ...]
    raw_count: int

    @property
    def count(self) -> int:
        return len(self.accepted)

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
    """All distinct nonzero roots of a palindromic candidate polynomial
    A4 x^4 + A3 x^3 + A2 x^2 + A3 x + A4, multiplicity collapsed (x = 0
    never yields an invertible T).

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
        if abs(z) <= ROOT_DEDUP_TOL:
            continue
        if all(abs(z - kept) > ROOT_DEDUP_TOL * max(1.0, abs(z)) for kept in roots):
            roots.append(z)
    return roots


def t_profile(arr: IntersectionArray, theta, x: complex) -> np.ndarray:
    """Profile t_0..t_N from t_0 = 1, t_1 = x and the forward recurrence
    v_i t_i (x theta_i - a_i) = b_{i-1} v_{i-1} t_{i-1} + c_{i+1} v_{i+1} t_{i+1}."""
    if x == 0:
        raise ValueError("x must be nonzero")
    v, a, b, c = arr.float_params()
    th = np.asarray(theta, dtype=float).tolist()
    x = complex(x)
    t = [1 + 0j, x]
    for i in range(1, arr.n_classes):
        num = v[i] * t[i] * (x * th[i] - a[i]) - b[i - 1] * v[i - 1] * t[i - 1]
        t.append(num / (c[i] * v[i + 1]))
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
        v_i s_i y theta_i - v_i s_i a_i - b_{i-1} v_{i-1} s_{i-1}
            - c_{i+1} v_{i+1} s_{i+1} = 0,
    with no forward term in row N.  The rows go in order, so most failing
    pairs are decided in a few; each modulus is a product of moduli."""
    n = arr.n_classes
    v, a, b, c = arr.float_params()
    th = np.asarray(theta, dtype=float).tolist()
    tl = t.tolist()
    y = 1.0 / x
    abs_y = math.hypot(y.real, y.imag)
    # v_j s_j and its modulus, for j = i - 1, i, i + 1
    prev, cur = v[0] / tl[0], v[1] / tl[1]
    abs_prev, abs_cur = math.hypot(prev.real, prev.imag), math.hypot(cur.real, cur.imag)
    for i in range(1, n):
        ti = tl[i + 1]
        if ti == 0 or not cmath.isfinite(ti):
            return f"reciprocal_identity_failed at i={i + 1}"
        nxt = v[i + 1] / ti
        abs_nxt = math.hypot(nxt.real, nxt.imag)
        gap = cur * (th[i] * y) - cur * a[i] - b[i - 1] * prev - c[i] * nxt
        total = abs_cur * (abs(th[i]) * abs_y + abs(a[i])) + b[i - 1] * abs_prev + c[i] * abs_nxt
        if not _within(gap, total):
            return f"reciprocal_identity_failed at i={i + 1}"
        prev, cur, abs_prev, abs_cur = cur, nxt, abs_cur, abs_nxt
    gap = cur * (th[n] * y) - cur * a[n] - b[n - 1] * prev
    total = abs_cur * (abs(th[n]) * abs_y + abs(a[n])) + b[n - 1] * abs_prev
    if not _within(gap, total):
        return "terminal_failed"
    last, before = v[n] * tl[n], b[n - 1] * v[n - 1] * tl[n - 1]
    gap = last * (x * th[n]) - last * a[n] - before
    total = (math.hypot(last.real, last.imag) * (math.hypot(x.real, x.imag) * abs(th[n]) + abs(a[n]))
             + math.hypot(before.real, before.imag))
    return None if _within(gap, total) else "terminal_failed"


def _within(gap: complex, total: float) -> bool:
    """|gap| <= FILTER_TOL total, with total finite (False on NaN)."""
    return math.hypot(gap.real, gap.imag) <= FILTER_TOL * total < math.inf


class SingularCubeError(ArithmeticError):
    """(U diag(t))^3 is numerically zero, so no cube root T_0 of 1/mu
    exists; U and t were expected invertible."""


class ScalarCube(NamedTuple):
    is_scalar: bool
    mu: complex
    t0_roots: tuple[complex, ...]
    defect: float  # max |(U diag(t))^3 - mu I|
    scale: float  # S, the largest row sum of (|U||T|)^3: the cube's rounding scale
    off: float  # the largest off-diagonal modulus of (U diag(t))^3
    diagonal: np.ndarray  # the diagonal of (U diag(t))^3
    matrix: np.ndarray | None = None  # (U diag(t))^3; not formed for a derived conjugate


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


def _cube(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(U diag(t))^3 = U (T (U (T U T))), two real-by-complex products.
    The diagonal scalings run in place in arrays the function already
    holds, as (col * u) * t and col * w: that operand order fixes every
    rounding of the cube."""
    t = np.asarray(t, dtype=complex)
    col = t[:, np.newaxis]
    w = col * u
    w *= t
    w = _real_times(u, w)
    np.multiply(col, w, out=w)
    return _real_times(u, w)


def _rounding_scale(u: np.ndarray, t: np.ndarray) -> float:
    """S = max_i ((|U||T|)^3 1)_i, by three matrix-vector products: every
    entry of the computed cube is within a small multiple of u S."""
    abs_u, abs_t = np.abs(u), np.abs(np.asarray(t, dtype=complex))
    rows = np.ones(len(abs_t))
    for _ in range(3):
        rows = abs_u @ (abs_t * rows)
    return float(rows.max())


def scalar_and_T0(u: np.ndarray, t: np.ndarray,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> ScalarCube:
    """Check that (U diag(t))^3 is a scalar matrix mu I, for any real
    square float64 U, and return the three cube roots of 1/mu (in
    _cube_roots' order) together with the cube itself."""
    return _scalar_cube(_cube(u, t), _rounding_scale(u, t), cfg)


def _scalar_cube(m: np.ndarray, scale: float, cfg: SolverConfig) -> ScalarCube:
    """scalar_and_T0 of the C-contiguous cube m with rounding scale S: m is
    scalar when its defect is at most residual_tol S and |mu| > 3 dim u S."""
    dim = m.shape[0]
    mu = complex(np.trace(m)) / dim
    # one |m|, its diagonal (every (dim + 1)-th entry of the C-contiguous
    # cube) zeroed, so that its max is the largest off-diagonal modulus; off
    # the diagonal, m - mu I is m itself
    mag = np.abs(m)
    mag.reshape(-1)[::dim + 1] = 0.0
    off = float(mag.max())
    diagonal = m.diagonal().copy()
    defect = _nan_max(off, float(np.abs(diagonal - mu).max()))
    unit = np.finfo(float).eps / 2
    if not (defect <= cfg.residual_tol * scale and abs(mu) > 3 * dim * unit * scale):
        return ScalarCube(False, mu, (), defect, scale, off, diagonal, m)
    return ScalarCube(True, mu, _cube_roots(mu), defect, scale, off, diagonal, m)


def _nan_max(a: float, b: float) -> float:
    """max(a, b), NaN when either is, as np.max over both would be."""
    return a if a >= b or a != a else b


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


def _conjugate_cube(cube: ScalarCube) -> ScalarCube:
    """_scalar_cube(m.conj(), S) of the cube m that `cube` measured, with no
    pass over m: conjugation keeps every modulus, so the defect, S and
    the largest off-diagonal modulus carry over, and mu and the diagonal
    are conjugated."""
    mu = cube.mu.conjugate()
    roots = _cube_roots(mu) if cube.is_scalar else ()
    return cube._replace(mu=mu, t0_roots=roots, diagonal=cube.diagonal.conj(), matrix=None)


def _residuals(cube: ScalarCube) -> list[float]:
    """max(|c m_ii - 1|, |c| off) for each c = t0^3, t0 in cube.t0_roots:
    max |c m - I| up to the rounding of the off-diagonal products, which
    is within 4u |c| off (Higham, section 3.6).  c stays the left operand,
    as in _root_residual, so the diagonal terms are its own bit for bit."""
    c = np.array([t0**3 for t0 in cube.t0_roots])
    diagonal_terms = np.abs(c[:, np.newaxis] * cube.diagonal - 1.0).max(axis=1)
    return np.maximum(diagonal_terms, np.abs(c) * cube.off).tolist()


def _root_residual(m: np.ndarray, t0: complex) -> float:
    """max |t0^3 m - I| over the whole cube, with I subtracted from the
    diagonal of t0^3 m in place rather than formed; the reference that
    _residuals is tested against.  m is C-contiguous, as a matmul result
    is, so the flat view below is a view and its every (dim + 1)-th entry
    is the diagonal."""
    scaled = t0**3 * m
    scaled.reshape(-1)[::len(m) + 1] -= 1.0
    return max_abs(scaled)


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
    th1 = float(theta[1])
    coeff_scale = max(1.0, th1 * th1, float(arr.a[1]) ** 2, float(arr.b[0]) ** 2)
    if max(abs(c) for c in coeffs) <= 1e-12 * coeff_scale:
        raise DegenerateSchemeError(
            "candidate polynomial vanishes identically; the diagonal ratio "
            "x is unconstrained for this array"
        )

    accepted: list[SolutionCandidate] = []
    rejected: list[tuple[complex, str]] = []
    raw_count = 0
    roots = roots_of_quartic(coeffs)
    checks: dict = {}  # each dominant member's (reason, profile)
    cubes: dict = {}  # the ScalarCube of each x cubed, for an on-circle conjugate
    u = None  # formed at the first cube; most arrays reject every x before
    for x in roots:
        # each pair {x, 1/x} is decided once, on the profile of its dominant
        # member; on the unit circle, where roots_of_quartic lists the
        # partner as conj(x), that is whichever member comes first
        on_circle = abs(abs(x) - 1.0) <= ROOT_DEDUP_TOL
        conj = x.conjugate()
        if on_circle:
            dominant = conj if conj in checks else x
        else:
            dominant = x if abs(x) >= 1.0 else min(roots, key=lambda w: abs(w * x - 1.0))
        if dominant not in checks:
            t = t_profile(arr, theta, dominant)
            checks[dominant] = _pair_check(arr, theta, dominant, t), t
        reason, t = checks[dominant]
        if reason is not None:
            rejected.append((x, reason))
            continue
        if dominant is not x:
            # t(x) = 1/t(1/x), and on the circle x = conj(dominant)
            t = t.conj() if on_circle else 1.0 / t
        if on_circle and conj in cubes:
            cube = _conjugate_cube(cubes[conj])
        else:
            if u is None:
                u = symmetric_frame(arr, scheme.eigenmatrix)
            cube = cubes[x] = scalar_and_T0(u, t, cfg)
        if not cube.is_scalar:
            rejected.append((x, "non_scalar_cube"))
            continue
        limit = cfg.residual_tol * max(1.0, cube.scale / abs(cube.mu))
        failed_roots = []
        for k, (t0, residual) in enumerate(zip(cube.t0_roots, _residuals(cube))):
            raw_count += 1
            if not residual <= limit:
                failed_roots.append(k)
                continue
            accepted.append(
                SolutionCandidate(
                    x=x,
                    t=tuple(t.tolist()),
                    mu=cube.mu,
                    t0=t0,
                    diag=tuple((t0 * t).tolist()),
                    residual=residual,
                )
            )
        if len(failed_roots) == len(cube.t0_roots):
            rejected.append((x, "residual_failed"))
        else:
            rejected.extend((x, f"residual_failed at root={k}") for k in failed_roots)

    return SolutionSet(
        scheme=scheme,
        accepted=tuple(accepted),
        rejected_x=tuple(rejected),
        raw_count=raw_count,
    )
