"""Enumeration of all diagonal matrices T with (P T)^3 = I.

The pipeline is family-agnostic and works on any valid intersection array
with its eigenvalues: the ratio x = T_1/T_0 must satisfy a palindromic
quartic (from the reciprocal identity of the degree-2 profile entry; with
one class it is the square of the terminal equation).  Every such quartic
is solved in z = x + 1/x, a quadratic whose degree drops when the leading
coefficients vanish, and each z gives a reciprocal pair x, 1/x.  Each
surviving x generates the full profile t_i = T_i/T_0 by a three-term
forward recurrence; x is filtered by the reciprocal identities
t_i(x) t_i(1/x) = 1 and by the terminal recurrence equation; finally
(P diag(t))^3 must be a scalar matrix mu I, and T_0 ranges over the three
cube roots of 1/mu.  At most 4 x-values times 3 cube roots can survive,
so no input yields more than 12 solutions.

Each profile is computed once per solve: the quartic's roots come in
pairs x, 1/x, so the profile t(1/x) that filters x is its partner's own
profile, kept in a dict keyed by the exact root value.  The recurrence
runs on Python floats and rounds as numpy's scalar arithmetic does.

The cube is measured in the symmetric frame U = K^{1/2} P K^{-1/2}, K the
diagonal of the valencies (Bannai, Bannai and Jaeger 1997): U is
symmetric with U/sqrt|X| orthogonal, so its entries are at most sqrt|X|
where P's reach k_N, and (P T)^3 = K^{-1/2} (U T)^3 K^{1/2} is the same
equation.  solve forms U once; the cube (U T)^3 is U (T (U (T U T))),
two real-by-complex matrix products.  It is formed once per x:
(U diag(T_0 t))^3 = T_0^3 (U diag(t))^3, so each root's reported
residual is max |T_0^3 (U diag(t))^3 - I|.  An x whose three roots all
miss residual_tol is rejected as residual_failed; when only some miss,
each is rejected as "residual_failed at root=k", k its index in t0_roots.

Which profile is cubed: the forward recurrence computes the dominant
solution when |x| > 1 and the minimal one, which loses accuracy with
every step, when |x| < 1 (Gautschi 1967).  So the |x| < 1 member of an
off-circle pair cubes 1/t(1/x), the reciprocal of its partner's profile
(t_i(x) t_i(1/x) = 1 is what the filter checks); the filters keep the
forward profiles.  A real z with |z| < 2 gives an on-circle pair, whose
partner roots_of_quartic forms as the exact conjugate of x.  The
recurrence and the real-by-complex products are sign-symmetric, so the
partner's profile and cube are the conjugates of x's, bit for bit, and
its cube is taken as conj of x's instead of being formed again.
verify_solution, which cubes P diag(T) directly, is the independent
check that tests compare against.

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


def roots_of_quartic(coeffs, cfg: SolverConfig = DEFAULT_CONFIG) -> list[complex]:
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
    partner is returned as the exact conjugate of x rather than 1/x.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (5,) or coeffs[0] != coeffs[4] or coeffs[1] != coeffs[3]:
        raise ValueError("candidate polynomial must be a palindromic quartic "
                         "[A4, A3, A2, A3, A4]")
    scale = float(np.max(np.abs(coeffs)))
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
        if x == 0 or abs(x - 1 / x) <= 1e-6 * max(1.0, abs(x)):
            x = z / 2  # doubled self-reciprocal root (x = +-1 up to noise)
        if x == 0:
            continue
        # a real z with |z| < 2 puts x on the unit circle, where 1/x is
        # conj(x); taking it exactly makes the pair's profiles conjugates
        on_circle = z.imag == 0 and abs(z.real) < 2
        found.extend([x, x.conjugate() if on_circle else 1 / x])
    roots: list[complex] = []
    for z in sorted(found, key=lambda w: (round(w.real, 12), round(w.imag, 12))):
        if abs(z) <= cfg.root_dedup_tol:
            continue
        if all(abs(z - kept) > cfg.root_dedup_tol * max(1.0, abs(z)) for kept in roots):
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
        # numpy's complex-by-real division, rounding for rounding: Smith's
        # algorithm with a zero imaginary part multiplies both parts by
        # 1/(c_{i+1} v_{i+1}) after adding products with 0.0 (they fix the
        # signs of zeros)
        scale = 1.0 / (c[i] * v[i + 1])
        t.append(complex((num.real + num.imag * 0.0) * scale,
                         (num.imag - num.real * 0.0) * scale))
    return np.array(t)


def filter_x(arr: IntersectionArray, theta, x: complex,
             cfg: SolverConfig = DEFAULT_CONFIG) -> tuple[bool, str | None]:
    """Accept x iff t_i(x) t_i(1/x) = 1 for every i and the terminal
    recurrence equation holds (scale-relative, since valencies can be
    large)."""
    ok, reason, _ = _filter_with_profile(arr, theta, x, 1.0 / x, cfg, {})
    return ok, reason


def _profile(arr: IntersectionArray, theta, x: complex, profiles: dict) -> np.ndarray:
    """t_profile(arr, theta, x), computed once per x in `profiles`.  The
    key holds the signs of x's parts: -0.0 == 0.0, but x = 0+1j and its
    partner's reciprocal 1/(0-1j) = -0.0+1j give profiles whose zeros
    differ in sign, and a root must report its own."""
    key = (x, math.copysign(1.0, x.real), math.copysign(1.0, x.imag))
    t = profiles.get(key)
    if t is None:
        t = profiles[key] = t_profile(arr, theta, x)
    return t


def _filter_with_profile(arr: IntersectionArray, theta, x: complex, partner: complex,
                         cfg: SolverConfig, profiles: dict) -> tuple[bool, str | None, np.ndarray]:
    """filter_x with 1/x given as `partner`, also returning the profile t(x).
    Profiles come from and go to `profiles`, so a root and its partner
    compute each other's profile once."""
    t = _profile(arr, theta, x, profiles)
    s = _profile(arr, theta, partner, profiles)
    n = arr.n_classes
    tl, sl = t.tolist(), s.tolist()
    # the i = N recurrence equation has no forward term, so it constrains x
    v, a, b, _ = arr.float_params()
    lhs = v[n] * tl[n] * (x * float(theta[n]) - a[n])
    rhs = b[n - 1] * v[n - 1] * tl[n - 1]
    # products in Python complex, which rounds as numpy's scalars do; every
    # modulus from one np.abs, whose rounding differs from abs(complex)
    mags = np.abs([*(tl[i] * sl[i] - 1.0 for i in range(1, n + 1)),
                   lhs, rhs, lhs - rhs]).tolist()
    for i in range(1, n + 1):
        if mags[i - 1] > cfg.filter_tol:
            return False, f"reciprocal_identity_failed at i={i}", t
    abs_lhs, abs_rhs, gap = mags[n:]
    gap_scale = max(abs_lhs, abs_rhs)
    if gap_scale > 0 and gap > cfg.filter_tol * gap_scale:
        return False, "terminal_failed", t
    return True, None, t


class SingularCubeError(ArithmeticError):
    """(U diag(t))^3 is numerically zero, so no cube root T_0 of 1/mu
    exists; U and t were expected invertible."""


class ScalarCube(NamedTuple):
    is_scalar: bool
    mu: complex
    t0_roots: tuple[complex, ...]
    defect: float  # max |(U diag(t))^3 - mu I|
    norm: float  # max |(U diag(t))^3|, the scale the defect is held to
    matrix: np.ndarray | None = None  # (U diag(t))^3


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
    """(U diag(t))^3 = U (T (U (T U T))), two real-by-complex products."""
    t = np.asarray(t, dtype=complex)
    col = t[:, np.newaxis]
    return _real_times(u, col * _real_times(u, col * u * t))


def scalar_and_T0(u: np.ndarray, t: np.ndarray,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> ScalarCube:
    """Check that (U diag(t))^3 is a scalar matrix mu I, for any real
    square float64 U, and return the three cube roots of 1/mu (principal value
    first, then +2*pi/3 steps) together with the cube itself."""
    return _scalar_cube(_cube(u, t), cfg)


def _scalar_cube(m: np.ndarray, cfg: SolverConfig) -> ScalarCube:
    """scalar_and_T0 of the C-contiguous cube m."""
    dim = m.shape[0]
    mu = complex(np.trace(m)) / dim
    # off the diagonal, m - mu I is m itself: one |m| gives the norm and,
    # with its diagonal (every (dim + 1)-th entry of the C-contiguous
    # cube) replaced by |m_ii - mu|, the defect
    mag = np.abs(m)
    norm = float(mag.max())
    mag.reshape(-1)[::dim + 1] = np.abs(m.reshape(-1)[::dim + 1] - mu)
    defect = float(mag.max())
    if not defect <= cfg.residual_tol * norm:
        return ScalarCube(False, mu, (), defect, norm, m)
    if abs(mu) <= 1e-300 or abs(mu) <= 1e-14 * norm:
        raise SingularCubeError(
            "cube of U diag(t) is numerically singular; U and t were "
            "expected invertible"
        )
    w = 1.0 / mu
    r = abs(w) ** (1.0 / 3.0) * cmath.exp(1j * cmath.phase(w) / 3.0)
    step = cmath.exp(2j * cmath.pi / 3.0)
    return ScalarCube(True, mu, (r, r * step, r * step * step), defect, norm, m)


def _root_residual(m: np.ndarray, t0: complex) -> float:
    """max |t0^3 m - I|, with I subtracted from the diagonal of t0^3 m in
    place rather than formed.  m is C-contiguous, as a matmul result is,
    so the flat view below is a view and its every (dim + 1)-th entry is
    the diagonal."""
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
    already root_dedup_tol apart."""
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
    profiles: dict = {}
    cubes: dict = {}  # (U diag(t))^3 of each x cubed, for its conjugate
    u = None  # formed at the first cube; most arrays reject every x before
    for x in roots_of_quartic(coeffs, cfg):
        # roots_of_quartic lists the partner of an x on the unit circle as
        # conj(x), which is 1/x
        on_circle = x.imag != 0 and abs(abs(x) - 1.0) <= cfg.root_dedup_tol
        partner = x.conjugate() if on_circle else 1.0 / x
        ok, reason, t = _filter_with_profile(arr, theta, x, partner, cfg, profiles)
        if not ok:
            rejected.append((x, reason))
            continue
        if not on_circle and abs(x) < 1:
            # the dominant member's profile: t(x) = 1/t(1/x)
            t = 1.0 / _profile(arr, theta, partner, profiles)
        conj = x.conjugate()
        if conj in cubes:
            # t is conj(t(conj)) bit for bit, and so is the cube
            cube = _scalar_cube(cubes[conj].conj(), cfg)
        else:
            if u is None:
                u = symmetric_frame(arr, scheme.eigenmatrix)
            cube = scalar_and_T0(u, t, cfg)
            cubes[x] = cube.matrix
        if not cube.is_scalar:
            rejected.append((x, "non_scalar_cube"))
            continue
        failed_roots = []
        for k, t0 in enumerate(cube.t0_roots):
            raw_count += 1
            residual = _root_residual(cube.matrix, t0)
            if not residual <= cfg.residual_tol:
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
