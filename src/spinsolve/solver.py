"""Enumeration of all diagonal matrices T with (P T)^3 = I.

The pipeline is family-agnostic and works on any valid intersection array
with its eigenvalues: the ratio x = T_1/T_0 must satisfy a palindromic
quartic (from the reciprocal identity of the degree-2 profile entry); each
surviving x generates the full profile t_i = T_i/T_0 by a three-term
forward recurrence; x is filtered by the reciprocal identities
t_i(x) t_i(1/x) = 1 and by the terminal recurrence equation; finally
(P diag(t))^3 must be a scalar matrix mu I, and T_0 ranges over the three
cube roots of 1/mu.  At most 4 x-values times 3 cube roots can survive,
so no input yields more than 12 solutions.

Family classifications are never baked in here; they are asserted by
tests and the verification CLI against this solver's raw output.
"""

from __future__ import annotations

import cmath
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
    "candidate_quartic",
    "roots_of_quartic",
    "t_profile",
    "filter_x",
    "scalar_and_T0",
    "solve",
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
    """
    if arr.n_classes < 2:
        raise ValueError("the quartic needs at least two classes")
    th1 = float(theta[1])
    a1 = float(arr.a[1])
    b1 = float(arr.b[1])
    c1 = float(arr.c[0])
    a4 = c1 * th1
    a3 = a1 * (th1 - c1)
    a2 = -(th1 * th1 + a1 * a1 + c1 * c1 - b1 * b1)
    return [a4, a3, a2, a3, a4]


def _polish_root(coeffs: np.ndarray, x: complex, steps: int = 3) -> complex:
    """Newton iteration on p/p', which keeps quadratic convergence at
    multiple roots (palindromic quartics often carry doubled roots)."""
    deriv = np.polyder(coeffs)
    second = np.polyder(deriv)
    for _ in range(steps):
        p = np.polyval(coeffs, x)
        dp = np.polyval(deriv, x)
        d2p = np.polyval(second, x)
        denom = dp * dp - p * d2p
        if abs(denom) > 1e-30:
            step = p * dp / denom
        elif abs(dp) > 1e-30:
            step = p / dp
        else:
            break
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


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


def _palindromic_quartic_roots(a4: complex, a3: complex, a2: complex) -> list[complex]:
    """Roots of A4 x^4 + A3 x^3 + A2 x^2 + A3 x + A4 via z = x + 1/x:
    the quartic collapses to A4 z^2 + A3 z + (A2 - 2 A4), and each z gives
    the reciprocal pair solving x^2 - z x + 1 = 0.

    Nearly coincident pair members are snapped to their mean: the pair sum
    is exact in the coefficients, so this recovers doubled roots that
    coefficient noise (for example eigenvalues computed in floating
    point) would otherwise split by the square root of that noise.
    """
    z1, z2 = _quadratic_roots(a4, a3, a2 - 2 * a4)
    if abs(z1 - z2) <= 1e-6 * max(1.0, abs(z1), abs(z2)):
        z1 = z2 = (z1 + z2) / 2
    roots: list[complex] = []
    for z in (z1, z2):
        s = cmath.sqrt(z * z - 4)
        if (z.conjugate() * s).real < 0:
            s = -s
        x = (z + s) / 2
        if x == 0 or abs(x - 1 / x) <= 1e-6 * max(1.0, abs(x)):
            x = z / 2  # doubled self-reciprocal root (x = +-1 up to noise)
        if x == 0:
            continue
        roots.extend([x, 1 / x])
    return roots


def roots_of_quartic(coeffs, cfg: SolverConfig = DEFAULT_CONFIG) -> list[complex]:
    """All distinct roots of the candidate polynomial, multiplicity
    collapsed, excluding x = 0 (T must be invertible).

    Palindromic quartics (the only kind the pipeline produces) are solved
    in closed form through z = x + 1/x, which stays exact at doubled
    roots; other inputs fall back to companion-matrix eigenvalues with a
    multiplicity-aware Newton polish.  Leading zero coefficients drop the
    degree; an identically zero polynomial is an error.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if scale == 0.0:
        raise ValueError("all-zero candidate polynomial")
    palindromic = (
        len(coeffs) == 5
        and coeffs[0] == coeffs[4]
        and coeffs[1] == coeffs[3]
        and abs(coeffs[0]) > 1e-13 * scale
    )
    if palindromic:
        found = _palindromic_quartic_roots(*coeffs[:3])
    else:
        keep = np.abs(coeffs) > 1e-13 * scale
        first = int(np.argmax(keep))
        trimmed = coeffs[first:]
        if len(trimmed) <= 1:
            return []
        if len(trimmed) == 3:
            found = _quadratic_roots(*trimmed)
        elif len(trimmed) == 2:
            found = [-trimmed[1] / trimmed[0]]
        else:
            raw = np.roots(trimmed)
            found = [_polish_root(trimmed, complex(z)) for z in raw]
    roots: list[complex] = []
    for z in sorted(found, key=lambda w: (round(w.real, 12), round(w.imag, 12))):
        if abs(z) <= cfg.root_dedup_tol:
            continue  # x = 0 never yields an invertible diagonal
        if all(abs(z - kept) > cfg.root_dedup_tol * max(1.0, abs(z)) for kept in roots):
            roots.append(z)
    return roots


def t_profile(arr: IntersectionArray, theta, x: complex) -> np.ndarray:
    """Profile t_0..t_N from t_0 = 1, t_1 = x and the forward recurrence
    v_i t_i (x theta_i - a_i) = b_{i-1} v_{i-1} t_{i-1} + c_{i+1} v_{i+1} t_{i+1}."""
    if x == 0:
        raise ValueError("x must be nonzero")
    n = arr.n_classes
    v, a, b, c = arr.float_params()
    th = np.asarray(theta, dtype=float)
    t = np.zeros(n + 1, dtype=complex)
    t[0] = 1.0
    t[1] = x
    for i in range(1, n):
        t[i + 1] = (v[i] * t[i] * (x * th[i] - a[i]) - b[i - 1] * v[i - 1] * t[i - 1]) / (
            c[i] * v[i + 1]
        )
    return t


def _terminal_gap(arr: IntersectionArray, theta, x: complex, t: np.ndarray):
    """Left and right sides of the final recurrence equation (the i = N
    instance, which has no forward term and so constrains x)."""
    n = arr.n_classes
    v, a, b, _ = arr.float_params()
    lhs = float(v[n]) * t[n] * (x * float(theta[n]) - float(a[n]))
    rhs = float(b[n - 1]) * float(v[n - 1]) * t[n - 1]
    return lhs, rhs


def filter_x(arr: IntersectionArray, theta, x: complex,
             cfg: SolverConfig = DEFAULT_CONFIG) -> tuple[bool, str | None]:
    """Accept x iff t_i(x) t_i(1/x) = 1 for every i and the terminal
    recurrence equation holds (scale-relative, since valencies can be
    large)."""
    ok, reason, _ = _filter_with_profile(arr, theta, x, cfg)
    return ok, reason


def _filter_with_profile(arr: IntersectionArray, theta, x: complex,
                         cfg: SolverConfig) -> tuple[bool, str | None, np.ndarray]:
    """filter_x, also returning the profile t(x) it computed."""
    t = t_profile(arr, theta, x)
    s = t_profile(arr, theta, 1.0 / x)
    for i in range(1, arr.n_classes + 1):
        if abs(t[i] * s[i] - 1.0) > cfg.filter_tol:
            return False, f"reciprocal_identity_failed at i={i}", t
    lhs, rhs = _terminal_gap(arr, theta, x, t)
    gap_scale = max(abs(lhs), abs(rhs))
    if gap_scale > 0 and abs(lhs - rhs) > cfg.filter_tol * gap_scale:
        return False, "terminal_failed", t
    return True, None, t


class ScalarCube(NamedTuple):
    is_scalar: bool
    mu: complex
    t0_roots: tuple[complex, ...]
    defect: float


def scalar_and_T0(p: np.ndarray, t: np.ndarray,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> ScalarCube:
    """Check that (P diag(t))^3 is a scalar matrix mu I and return the
    three cube roots of 1/mu (principal value first, then +2*pi/3 steps)."""
    pt = p * np.asarray(t, dtype=complex)[np.newaxis, :]
    m = pt @ pt @ pt
    dim = m.shape[0]
    mu = complex(np.trace(m)) / dim
    defect = max_abs(m - mu * np.eye(dim))
    norm = max_abs(m)
    if not defect <= cfg.residual_tol * norm:
        return ScalarCube(False, mu, (), defect)
    if abs(mu) <= 1e-300 or abs(mu) <= 1e-14 * norm:
        raise ArithmeticError(
            "cube of P diag(t) is numerically singular; P and t were "
            "expected invertible"
        )
    w = 1.0 / mu
    r = abs(w) ** (1.0 / 3.0) * cmath.exp(1j * cmath.phase(w) / 3.0)
    step = cmath.exp(2j * cmath.pi / 3.0)
    return ScalarCube(True, mu, (r, r * step, r * step * step), defect)


def verify_solution(p: np.ndarray, diag) -> float:
    """Max-entry residual of (P diag(T))^3 - I."""
    t = np.asarray(diag, dtype=complex)
    pt = p * t[np.newaxis, :]
    return max_abs(pt @ pt @ pt - np.eye(p.shape[0]))


def _candidate_polynomial(arr: IntersectionArray, theta) -> list[float]:
    if arr.n_classes >= 2:
        return candidate_quartic(arr, theta)
    # single class: the terminal equation itself is quadratic in x
    v1 = float(arr.b[0]) / float(arr.c[0])
    return [v1 * float(theta[1]), -v1 * float(arr.a[1]), -float(arr.b[0])]


def solve(scheme: SchemeInstance, cfg: SolverConfig = DEFAULT_CONFIG) -> SolutionSet:
    """Run the full pipeline and return every verified diagonal solution,
    deduplicated by the T vector, along with each rejected x and why."""
    arr = scheme.array
    theta = scheme.theta
    pmat = scheme.eigenmatrix
    coeffs = _candidate_polynomial(arr, theta)
    th1 = float(theta[1])
    coeff_scale = max(
        1.0,
        th1 * th1,
        float(arr.a[1 if arr.n_classes >= 2 else 0]) ** 2,
        float(arr.b[0]) ** 2,
    )
    if max(abs(c) for c in coeffs) <= 1e-12 * coeff_scale:
        raise DegenerateSchemeError(
            "candidate polynomial vanishes identically; the diagonal ratio "
            "x is unconstrained for this array"
        )

    accepted: list[SolutionCandidate] = []
    rejected: list[tuple[complex, str]] = []
    raw_count = 0
    for x in roots_of_quartic(coeffs, cfg):
        ok, reason, t = _filter_with_profile(arr, theta, x, cfg)
        if not ok:
            rejected.append((x, reason))
            continue
        cube = scalar_and_T0(pmat, t, cfg)
        if not cube.is_scalar:
            rejected.append((x, "non_scalar_cube"))
            continue
        survivors = []
        for t0 in cube.t0_roots:
            diag = t0 * t
            raw_count += 1
            residual = verify_solution(pmat, diag)
            if residual <= cfg.residual_tol:
                survivors.append(
                    SolutionCandidate(
                        x=x,
                        t=tuple(complex(z) for z in t),
                        mu=cube.mu,
                        t0=t0,
                        diag=tuple(complex(z) for z in diag),
                        residual=residual,
                    )
                )
        if survivors:
            accepted.extend(survivors)
        else:
            rejected.append((x, "residual_failed"))

    deduped: list[SolutionCandidate] = []
    for sol in accepted:
        vec = np.array(sol.diag)
        dup = any(
            max_abs(vec - np.array(kept.diag))
            <= cfg.root_dedup_tol * max(1.0, max_abs(vec))
            for kept in deduped
        )
        if not dup:
            deduped.append(sol)
    return SolutionSet(
        scheme=scheme,
        accepted=tuple(deduped),
        rejected_x=tuple(rejected),
        raw_count=raw_count,
    )
