"""Builders for the five named self-dual families.

Hamming, bilinear-forms and n-gon instances come from closed-form
parameters.  Alternating- and Hermitian-forms arrays are not transcribed
from anywhere: they are measured by the finite-field census, which keeps
this module honest about schemes it cannot write down directly.

Eigenvalues are computed from the tridiagonal intersection matrix
(rows c_i, a_i, b_i) after symmetrizing it; the array's positivity makes
the symmetrized matrix real tridiagonal with positive off-diagonals, so
the spectrum is real and simple.  Row ordering is chosen so that the
resulting eigenmatrix satisfies P^2 = |X| I.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_CONFIG,
    IntersectionArray,
    SchemeInstance,
    SolverConfig,
    ensure_valid,
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

FAMILIES = ("hamming", "bilinear", "alternating", "hermitian", "ngon", "custom")

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
        b = [Fraction((n - i) * (q - 1)) for i in range(n)]
        c = [Fraction(i) for i in range(1, n + 1)]
        a = [Fraction(i * (q - 2)) for i in range(n + 1)]
        return IntersectionArray(b, c, a)
    if fam == "bilinear":
        m, n, q = p["M"], p["N"], p["q"]
        d, e = Fraction(q) ** m, Fraction(q) ** n
        nc = min(m, n)
        b = [(d - q**i) * (e - q**i) / (q - 1) for i in range(nc)]
        c = [Fraction(q ** (i - 1) * (q**i - 1), q - 1) for i in range(1, nc + 1)]
        return IntersectionArray(b, c)
    if fam == "ngon":
        n = p["n"]
        nc = n // 2
        b = [Fraction(2)] + [Fraction(1)] * (nc - 1)
        c = [Fraction(1)] * (nc - 1) + [Fraction(2 if n % 2 == 0 else 1)]
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
    ensure_valid(arr)
    n = arr.n_classes
    a = arr.a_floats()
    off = np.sqrt(arr.b_floats() * arr.c_floats())
    sym = np.diag(a)
    sym += np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(sym)[::-1]
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.min(np.diff(np.sort(eigs))) <= 1e-9 * scale:
        raise BuildError("repeated eigenvalue in intersection matrix")
    b0 = float(arr.b[0])
    if abs(eigs[0] - b0) > 1e-8 * scale:
        raise BuildError(f"largest eigenvalue {eigs[0]} differs from b_0 = {b0}")
    eigs[0] = b0  # exact by the row-sum constraint
    return eigs


def eigenmatrix(arr: IntersectionArray, theta) -> np.ndarray:
    """Column recurrence theta_i P_j(i) = b_{j-1} P_{j-1}(i) + a_j P_j(i)
    + c_{j+1} P_{j+1}(i), seeded by P_0 = 1 and P_1 = theta."""
    ensure_valid(arr)
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
    a = arr.a_floats()
    b = arr.b_floats()
    c = arr.c_floats()
    p = np.zeros((n + 1, n + 1))
    p[:, 0] = 1.0
    p[:, 1] = theta
    for j in range(1, n):
        cj1 = c[j]  # c_{j+1}
        if cj1 == 0:
            raise ValueError(f"c_{j + 1} = 0 before the last column")
        p[:, j + 1] = ((theta - a[j]) * p[:, j] - b[j - 1] * p[:, j - 1]) / cj1
    return p


def _self_dual_ordering(arr: IntersectionArray, eigs: np.ndarray, size: float,
                        tol: float, exhaustive: bool = False):
    """Search orderings of the non-leading eigenvalues for the one meeting
    P^2 = |X| I.

    Candidates, cheapest first: descending order; the index permutations
    reached by swapping pairs of equal absolute value (bipartite-like
    spectra); magnitude-descending order (Hermitian-forms spectra
    alternate in sign, so their self-dual order is by |theta|).  With
    exhaustive=True every permutation of positions 1..N is tried before
    giving up.
    """
    n = len(eigs) - 1
    pairs = _equal_magnitude_pairs(eigs)

    def orders():
        for chosen in itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(len(pairs) + 1)
        ):
            order = list(range(n + 1))
            for i, j in chosen:
                order[i], order[j] = order[j], order[i]
            yield order
        tail = sorted(range(1, n + 1), key=lambda i: (-abs(eigs[i]), -eigs[i]))
        yield [0] + tail
        if exhaustive:
            for perm in itertools.permutations(range(1, n + 1)):
                yield [0] + list(perm)

    best = None
    seen: set[tuple[int, ...]] = set()
    for order in orders():
        key = tuple(order)
        if key in seen:
            continue
        seen.add(key)
        theta = eigs[order]
        p = eigenmatrix(arr, theta)
        defect = max_abs(p @ p - size * np.eye(n + 1)) / size
        if best is None or defect < best[0]:
            best = (defect, theta, p)
        if defect <= tol:
            break
    return best


def _equal_magnitude_pairs(eigs: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs 1 <= i < j <= N with |theta_i| = |theta_j| (relative
    to the largest |theta|), in row-major order."""
    scale = max(1.0, float(np.max(np.abs(eigs))))
    mags = np.abs(eigs[1:])
    equal = np.abs(mags[:, np.newaxis] - mags[np.newaxis, :]) <= 1e-9 * scale
    return [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(np.triu(equal, k=1))]


def build(spec: FamilySpec, cfg: SolverConfig = DEFAULT_CONFIG) -> SchemeInstance:
    """Construct a validated SchemeInstance for a named family."""
    fam, p = spec.family, spec.params
    if fam in ("hamming", "bilinear", "ngon"):
        arr = closed_form_array(spec)
        theta = _closed_form_eigenvalues(spec, arr)
    elif fam in ("alternating", "hermitian"):
        from .oracle import PointSpace, census  # deferred: oracle imports this module

        cen = census(PointSpace(spec), cfg)
        arr = cen.derived_array()
        theta = eigenvalues_from_array(arr)
    else:
        raise BuildError(f"build() does not handle family {fam!r}")
    problems = validate_array(arr)
    if problems:
        raise BuildError("family produced an invalid array: " + "; ".join(problems))
    size = family_size(spec)
    vsum = sum(valencies(arr))
    if vsum != size:
        raise BuildError(f"valency sum {vsum} != |X| = {size}")
    ordered = _self_dual_ordering(arr, np.asarray(theta, float), float(size),
                                  cfg.self_dual_tol, exhaustive=True)
    defect, theta_arr, pmat = ordered
    if defect > cfg.self_dual_tol:
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
            val = Fraction(d * e + q**i * (1 - d - e), (q - 1) * q**i)
            if val.denominator != 1:
                raise BuildError(f"non-integer eigenvalue {val} for bilinear {p}")
            theta.append(float(val))
        return np.array(theta)
    if fam == "ngon":
        nn = p["n"]
        return np.array([_two_cos_two_pi(i, nn) for i in range(n + 1)])
    raise BuildError(f"no closed-form eigenvalues for {fam!r}")


# 2 cos(pi r) is rational exactly for r in {0, 1/3, 1/2, 2/3, 1} (mod 2)
_EXACT_TWO_COS = {
    Fraction(0): 2.0, Fraction(1, 3): 1.0, Fraction(1, 2): 0.0,
    Fraction(2, 3): -1.0, Fraction(1): -2.0, Fraction(4, 3): -1.0,
    Fraction(3, 2): 0.0, Fraction(5, 3): 1.0,
}


def _two_cos_two_pi(i: int, n: int) -> float:
    """2 cos(2 pi i / n), exact where the value is rational."""
    r = Fraction(2 * i, n) % 2
    if r in _EXACT_TWO_COS:
        return _EXACT_TWO_COS[r]
    return 2.0 * math.cos(2.0 * math.pi * i / n)


def build_custom(arr: IntersectionArray, cfg: SolverConfig = DEFAULT_CONFIG,
                 require_self_dual: bool = False) -> SchemeInstance:
    """Wrap an arbitrary valid array as a Custom instance with |X| = sum v_i.

    Self-duality is measured, not demanded, unless require_self_dual is set;
    the solver is well-defined either way and simply finds no solutions on
    arrays that do not come from a self-dual scheme.
    """
    ensure_valid(arr)
    size = sum(valencies(arr))
    eigs = eigenvalues_from_array(arr)
    defect, theta, pmat = _self_dual_ordering(arr, eigs, float(size), cfg.self_dual_tol)
    if require_self_dual and defect > cfg.self_dual_tol:
        raise BuildError(f"array is not self-dual (defect {defect:.3e})")
    return SchemeInstance(family="custom", params={}, array=arr, size=size,
                          theta=theta, eigenmatrix=pmat)
