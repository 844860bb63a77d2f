"""Builders for the five named self-dual families.

Hamming, bilinear-forms and n-gon instances come from closed-form
parameters.  Alternating- and Hermitian-forms arrays are not transcribed
from anywhere: they are measured by the finite-field census, which keeps
this module honest about schemes it cannot write down directly.

Eigenvalues are computed from the tridiagonal intersection matrix
(rows c_i, a_i, b_i) after symmetrizing it; the array's positivity makes
the symmetrized matrix real tridiagonal with positive off-diagonals, so
the spectrum is real and simple.  The row order of P comes from the
self-duality identity theta_i = k P_i(theta_1)/k_i (Bannai-Ito,
Algebraic Combinatorics I, 1984, section 2.3): once theta_1 is chosen the
rest follows, so at most N + 2 orders are measured against P^2 = |X| I
before build() gives up with a BuildError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    IntersectionArray,
    SchemeInstance,
    SolverConfig,
    max_abs,
    valencies,
    validate_array,
)
from .ffield import is_prime_power

__all__ = [
    "FamilySpec",
    "build",
    "build_custom",
    "closed_form_array",
    "eigenmatrix",
    "eigenvalues_from_array",
    "BuildError",
]

# Each named family's integer parameters, in the order they are reported.
FAMILY_PARAMS = {
    "hamming": ("N", "q"),
    "bilinear": ("M", "N", "q"),
    "alternating": ("n", "q"),
    "hermitian": ("n", "q"),
    "ngon": ("n",),
}
FAMILIES = tuple(FAMILY_PARAMS) + ("custom",)

# GF families stay within orders whose tables we can build and afford.
DESK_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


class BuildError(ValueError):
    """Family parameters out of range, or a scheme invariant failed to hold."""


@dataclass(frozen=True)
class FamilySpec:
    """Family tag plus its integer parameters, range-checked on creation."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        fam = self.family
        p = self.params
        if fam == "hamming":
            if p.get("N", 0) < 1 or p.get("q", 0) < 2:
                raise BuildError("hamming requires N >= 1 and q >= 2")
        elif fam == "bilinear":
            if p.get("M", 0) < 1 or p.get("N", 0) < 1:
                raise BuildError("bilinear requires M, N >= 1")
            _check_gf_order(p.get("q", 0))
        elif fam == "alternating":
            if p.get("n", 0) < 4:
                raise BuildError("alternating requires n >= 4")
            _check_gf_order(p.get("q", 0))
        elif fam == "hermitian":
            if p.get("n", 0) < 1:
                raise BuildError("hermitian requires n >= 1")
            q = p.get("q", 0)
            _check_gf_order(q * q)  # entries live in GF(q^2)
        elif fam == "ngon":
            if p.get("n", 0) < 3:
                raise BuildError("ngon requires n >= 3")
        else:
            raise BuildError(f"unknown family {fam!r}")


def _check_gf_order(q: int) -> None:
    if not (isinstance(q, int) and q >= 2 and is_prime_power(q)):
        raise BuildError(f"q = {q} is not a prime power")
    if q not in DESK_PRIME_POWERS:
        raise BuildError(f"q = {q} exceeds desk scale (allowed: {DESK_PRIME_POWERS})")


def closed_form_array(spec: FamilySpec) -> IntersectionArray:
    """Exact intersection array for the families with closed-form parameters."""
    fam, p = spec.family, spec.params
    if fam == "hamming":
        n, q = p["N"], p["q"]
        b = [(n - i) * (q - 1) for i in range(n)]
        c = list(range(1, n + 1))
        a = [i * (q - 2) for i in range(n + 1)]
        return IntersectionArray(b, c, a)
    if fam == "bilinear":
        # q - 1 divides q^k - 1, so both quotients are exact
        m, n, q = p["M"], p["N"], p["q"]
        d, e = q**m, q**n
        nc = min(m, n)
        b = [(d - q**i) * (e - q**i) // (q - 1) for i in range(nc)]
        c = [q ** (i - 1) * (q**i - 1) // (q - 1) for i in range(1, nc + 1)]
        return IntersectionArray(b, c)
    if fam == "ngon":
        n = p["n"]
        nc = n // 2
        one, two = Fraction(1), Fraction(2)  # shared: every entry is 1 but two
        b = [two] + [one] * (nc - 1)
        c = [one] * (nc - 1) + [two if n % 2 == 0 else one]
        return IntersectionArray(b, c)
    raise BuildError(f"no closed-form array for family {fam!r}")


def family_size(spec: FamilySpec) -> Fraction:
    fam, p = spec.family, spec.params
    if fam == "hamming":
        return Fraction(p["q"]) ** p["N"]
    if fam == "bilinear":
        return Fraction(p["q"]) ** (p["M"] * p["N"])
    if fam == "alternating":
        n = p["n"]
        return Fraction(p["q"]) ** (n * (n - 1) // 2)
    if fam == "hermitian":
        return Fraction(p["q"]) ** (p["n"] ** 2)
    if fam == "ngon":
        return Fraction(p["n"])
    raise BuildError(f"no size formula for family {fam!r}")


def eigenvalues_from_array(arr: IntersectionArray) -> np.ndarray:
    """The N+1 distinct eigenvalues of the tridiagonal intersection matrix,
    sorted descending so theta_0 = b_0 leads."""
    _, a, b, c = arr.float_params()
    off = np.sqrt(np.multiply(b, c))
    sym = np.diag(a)
    sym += np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(sym)[::-1]
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.min(np.diff(np.sort(eigs))) <= 1e-9 * scale:
        raise BuildError("repeated eigenvalue in intersection matrix")
    if abs(eigs[0] - b[0]) > 1e-8 * scale:
        raise BuildError(f"largest eigenvalue {eigs[0]} differs from b_0 = {b[0]}")
    eigs[0] = b[0]  # exact by the row-sum constraint
    return eigs


def eigenmatrix(arr: IntersectionArray, theta) -> np.ndarray:
    """Column recurrence theta_i P_j(i) = b_{j-1} P_{j-1}(i) + a_j P_j(i)
    + c_{j+1} P_{j+1}(i), seeded by P_0 = 1 and P_1 = theta.  Each column
    is filled as a contiguous row of P^T; the result is C-contiguous."""
    _, a, b, c = arr.float_params()
    theta = np.asarray(theta, dtype=float)
    n = arr.n_classes
    if theta.shape != (n + 1,):
        raise ValueError(f"need {n + 1} eigenvalues, got {theta.shape}")
    scale = max(1.0, float(np.max(np.abs(theta))))
    coincide = np.abs(theta[:, np.newaxis] - theta[np.newaxis, :]) <= 1e-12 * scale
    hits = np.argwhere(np.triu(coincide, k=1))  # row-major: first (i, j) first
    if len(hits):
        i, j = hits[0]
        raise ValueError(f"eigenvalues {i} and {j} coincide")
    pt = np.empty((n + 1, n + 1))
    pt[0] = 1.0
    pt[1] = theta
    for j in range(1, n):
        cj1 = c[j]  # c_{j+1}
        if cj1 == 0:
            raise ValueError(f"c_{j + 1} = 0 before the last column")
        pt[j + 1] = ((theta - a[j]) * pt[j] - b[j - 1] * pt[j - 1]) / cj1
    return pt.T.copy()


def _self_dual_ordering(arr: IntersectionArray, eigs: np.ndarray, size: float,
                        tol: float):
    """Order the eigenvalues so that P^2 = |X| I; returns (defect, theta, P).

    In a self-dual scheme P_i(j)/k_i = Q_j(i)/m_j with P = Q and m_j = k_j,
    so theta_i = k P_i(theta_1)/k_i: the choice of theta_1 fixes the whole
    order.  Row j of the descending eigenmatrix holds P_i(eigs[j]) and
    depends on eigs[j] alone, so that one matrix yields the order implied
    by every candidate theta_1, and the eigenmatrix of any order is its
    row permutation.  Tried in turn: descending order, then each
    theta_1 = eigs[1..N] whose implied values snap to a permutation of the
    spectrum.  When none is self-dual, the lower-defect of descending and
    |theta|-descending order is returned (ties to descending), so at most
    N + 2 orders are measured; when P has left the float range, every
    order is, and only descending order is measured.
    """
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
        return desc  # every order permutes the rows of a non-finite P alike
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


def build(spec: FamilySpec, cfg: SolverConfig = DEFAULT_CONFIG) -> SchemeInstance:
    """Construct a validated SchemeInstance for a named family."""
    fam, p = spec.family, spec.params
    if fam not in FAMILY_PARAMS:
        raise BuildError(f"build() does not handle family {fam!r}")
    size = family_size(spec)
    size_float = _float_size(size)
    if fam in ("hamming", "bilinear", "ngon"):
        arr = closed_form_array(spec)
        theta = _closed_form_eigenvalues(spec, arr)
    else:  # alternating, hermitian
        from .oracle import PointSpace, census  # deferred: oracle imports this module

        cen = census(PointSpace(spec), cfg)
        arr = cen.derived_array()
        theta = eigenvalues_from_array(arr)
    problems = validate_array(arr)
    if problems:
        raise BuildError("family produced an invalid array: " + "; ".join(problems))
    vsum = _exact_sum(valencies(arr))
    if vsum != size:
        raise BuildError(f"valency sum {vsum} != |X| = {size}")
    defect, theta_arr, pmat = _self_dual_ordering(
        arr, np.asarray(theta, float), size_float, cfg.self_dual_tol)
    if not defect <= cfg.self_dual_tol:  # NaN when P @ P overflows
        raise BuildError(
            f"no eigenvalue ordering meets the self-duality tolerance "
            f"(best defect {defect:.3e} > {cfg.self_dual_tol:.1e})"
        )
    return SchemeInstance(family=fam, params=dict(p), array=arr, size=size,
                          theta=theta_arr, eigenmatrix=pmat)


def _closed_form_eigenvalues(spec: FamilySpec, arr: IntersectionArray) -> np.ndarray:
    fam, p = spec.family, spec.params
    n = arr.n_classes
    if fam == "hamming":
        nn, q = p["N"], p["q"]
        return np.array([float(nn * (q - 1) - q * i) for i in range(n + 1)])
    if fam == "bilinear":
        m, nn, q = p["M"], p["N"], p["q"]
        d, e = q**m, q**nn
        theta = []
        for i in range(n + 1):
            num, den = d * e + q**i * (1 - d - e), (q - 1) * q**i
            if num % den:
                raise BuildError(f"non-integer eigenvalue {Fraction(num, den)} "
                                 f"for bilinear {p}")
            theta.append(float(num // den))
        return np.array(theta)
    if fam == "ngon":
        nn = p["n"]
        return np.array([_two_cos_two_pi(i, nn) for i in range(n + 1)])
    raise BuildError(f"no closed-form eigenvalues for {fam!r}")


# 2 cos(pi r) is rational exactly for r in {0, 1/3, 1/2, 2/3, 1} (mod 2),
# keyed here by 6 r, which is an integer for each of them
_EXACT_TWO_COS = {0: 2.0, 2: 1.0, 3: 0.0, 4: -1.0, 6: -2.0, 8: -1.0, 9: 0.0, 10: 1.0}


def _two_cos_two_pi(i: int, n: int) -> float:
    """2 cos(2 pi i / n), exact where the value is rational."""
    # r = 2 i / n (mod 2), so 6 r = 12 i / n (mod 12), an integer iff n | 12 i
    six_r, rem = divmod(12 * i, n)
    if rem == 0 and six_r % 12 in _EXACT_TWO_COS:
        return _EXACT_TWO_COS[six_r % 12]
    return 2.0 * math.cos(2.0 * math.pi * i / n)


def _float_size(size: Fraction) -> float:
    """float(|X|); a BuildError when |X| is beyond the float range."""
    try:
        return float(size)
    except OverflowError:
        digits = math.log10(size.numerator) - math.log10(size.denominator)
        raise BuildError(f"|X| (about 10^{digits:.0f}) is too large for float "
                         f"arithmetic") from None


def _exact_sum(values: list[Fraction]) -> Fraction:
    """sum(values), added as integers over the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return Fraction(sum(x.numerator * (den // x.denominator) for x in values), den)


def build_custom(arr: IntersectionArray, cfg: SolverConfig = DEFAULT_CONFIG) -> SchemeInstance:
    """Wrap an arbitrary valid array as a Custom instance with |X| = sum v_i.

    Self-duality is measured, not demanded: the solver is well-defined
    either way and simply finds no solutions on arrays that do not come
    from a self-dual scheme.
    """
    size = _exact_sum(valencies(arr))
    size_float = _float_size(size)
    eigs = eigenvalues_from_array(arr)
    _, theta, pmat = _self_dual_ordering(arr, eigs, size_float, cfg.self_dual_tol)
    return SchemeInstance(family="custom", params={}, array=arr, size=size,
                          theta=theta, eigenmatrix=pmat)
