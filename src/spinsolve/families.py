"""Builders for the five named self-dual families.

Every named family is built from closed forms.  Hamming, bilinear-,
alternating- and Hermitian-forms graphs have classical parameters
(Brouwer, Cohen and Neumaier, Distance-Regular Graphs, 1989, section 6.1
and Corollary 8.4.2), one formula for the exact array and integer
spectrum of all four.  Writing the alternating and Hermitian arrays down
is deliberate: the census derives them independently of this module, and
`oracle verify` and the tests hold every census to these closed forms.

A custom array's eigenvalues come from its intersection matrix (rows
c_i, a_i, b_i) after symmetrizing it; the array's positivity makes the
symmetrized matrix real tridiagonal with positive off-diagonals, so the
spectrum is real and simple.  The row order of P comes from the
self-duality identity theta_i = k P_i(theta_1)/k_i (Bannai-Ito,
Algebraic Combinatorics I, 1984, section 2.3): once theta_1 is chosen the
rest follows, so at most N + 2 orders are measured against P^2 = |X| I
before build() gives up with a BuildError.  Each candidate's implied
values are sorted once; they name an order when the k-th largest lies in
the cell of the k-th largest eigenvalue, which needs the spectrum
strictly descending, as eigenvalues_from_array and the closed forms give
it.  Each SchemeInstance carries the defect of the order chosen; nothing
else measures self-duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    FAMILY_PARAMS,
    BuildError,
    IntersectionArray,
    SchemeInstance,
    max_abs,
    valency_sum,
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

# GF families stay within orders whose tables we can build and afford.
DESK_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# A named family's eigenvalue order is self-dual when max |P^2 - |X| I|
# is at most this fraction of |X|.
SELF_DUAL_TOL = 1e-8

# build and build_custom refuse more classes before allocating the eigenmatrix:
# build and solve are O(N^3) in time, O(N^2) in memory.  ngon(6000), 3000 classes,
# builds and solves in 6.3 s at 455 MB (ngon(7000): 9.8 s, 606 MB; 2-core host).
MAX_CLASSES = 3000


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
    """Exact intersection array of a named family."""
    return _closed_form(spec)[0]


# Each translation family's classical parameters (d, b, alpha, beta).
CLASSICAL_PARAMETERS = {
    "hamming": lambda p: (p["N"], 1, 0, p["q"] - 1),
    "bilinear": lambda p: (min(p["M"], p["N"]), p["q"], p["q"] - 1,
                           p["q"] ** max(p["M"], p["N"]) - 1),
    "alternating": lambda p: (p["n"] // 2, p["q"] ** 2, p["q"] ** 2 - 1,
                              p["q"] ** (p["n"] if p["n"] % 2 else p["n"] - 1) - 1),
    "hermitian": lambda p: (p["n"], -p["q"], -p["q"] - 1, -(-p["q"]) ** p["n"] - 1),
}


def _closed_form(spec: FamilySpec) -> tuple[IntersectionArray, list]:
    """A named family's exact array and its spectrum theta_0..theta_N,
    descending: floats for the n-gon, integers for classical parameters
    (d, b, alpha, beta), which with [i] = 1 + b + ... + b^(i-1) give
    b_i = ([d] - [i])(beta - alpha [i]), c_i = [i](1 + alpha [i-1]) and
    theta_i = [d-i](beta - alpha [i]) - [i] (alternating in sign for b < 0)."""
    fam, p = spec.family, spec.params
    if fam == "ngon":
        n = p["n"]
        nc = n // 2
        one, two = Fraction(1), Fraction(2)  # shared: every entry is 1 but two
        b = [two] + [one] * (nc - 1)
        c = [one] * (nc - 1) + [two if n % 2 == 0 else one]
        # by Niven's theorem the only rational values of 2 cos(2 pi i/n) are
        # -2..2, which math.cos misses by rounding alone; below n of about
        # 1.9e5 every irrational value is further than 1e-9 from an integer
        theta = [2.0 * math.cos(2.0 * math.pi * i / n) for i in range(nc + 1)]
        theta = [float(round(t)) if abs(t - round(t)) <= 1e-9 else t for t in theta]
        return IntersectionArray(b, c), theta
    d, b, alpha, beta = CLASSICAL_PARAMETERS[fam](p)
    gauss = [0]
    for _ in range(d):
        gauss.append(b * gauss[-1] + 1)
    bs = [(gauss[d] - gauss[i]) * (beta - alpha * gauss[i]) for i in range(d)]
    cs = [gauss[i] * (1 + alpha * gauss[i - 1]) for i in range(1, d + 1)]
    theta = [gauss[d - i] * (beta - alpha * gauss[i]) - gauss[i] for i in range(d + 1)]
    return IntersectionArray(bs, cs), sorted(theta, reverse=True)


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
    sorted descending so theta_0 = b_0 leads.  A product b_i c_{i+1}
    beyond the float range is a BuildError; below it the spectrum is
    finite, bounded by the row sum b_0."""
    _, a, b, c = arr.float_params()
    with np.errstate(over="ignore"):
        off = np.sqrt(np.multiply(b, c))
    if not np.isfinite(off).all():
        i = int(np.argmin(np.isfinite(off)))
        raise BuildError(f"b_{i} c_{i + 1} is beyond the float range")
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
    # two values coincide iff two neighbours in sorted order do; only then
    # is the pairwise array formed, to name the first (i, j) in row-major order
    if np.any(np.diff(np.sort(theta)) <= 1e-12 * scale):
        coincide = np.abs(theta[:, np.newaxis] - theta[np.newaxis, :]) <= 1e-12 * scale
        i, j = np.argwhere(np.triu(coincide, k=1))[0]
        raise ValueError(f"eigenvalues {i} and {j} coincide")
    pt = np.empty((n + 1, n + 1))
    pt[0] = 1.0
    pt[1] = theta
    # row j - 1 is theta - a_j
    shifted = theta - np.array(a[1:n])[:, np.newaxis]
    for j in range(1, n):
        if c[j] == 0:  # c_{j+1}
            raise ValueError(f"c_{j + 1} = 0 before the last column")
        np.divide(shifted[j - 1] * pt[j] - b[j - 1] * pt[j - 1], c[j], out=pt[j + 1])
    return pt.T.copy()


@np.errstate(over="ignore", invalid="ignore")
def _self_dual_ordering(arr: IntersectionArray, eigs: np.ndarray, size: float):
    """Order the eigenvalues so that P^2 = |X| I; returns (defect, theta, P),
    the defect max |P^2 - |X| I| / |X| that the scheme reports.  eigs is the
    spectrum in strictly descending order.  A P beyond the float range
    overflows quietly: its NaN defect is the refusal build() raises.

    In a self-dual scheme P_i(j)/k_i = Q_j(i)/m_j with P = Q and m_j = k_j,
    so theta_i = k P_i(theta_1)/k_i: the choice of theta_1 fixes the whole
    order.  Row j of the descending eigenmatrix holds P_i(eigs[j]) and
    depends on eigs[j] alone, so that one matrix yields the order implied
    by every candidate theta_1, and the eigenmatrix of any order is its
    row permutation.  A row of implied values snaps to the spectrum when,
    sorted descending, its k-th value lies in the cell of eigs[k]: between
    the midpoints to eigs[k]'s neighbours, the lower one inside (so a value
    midway snaps to the larger eigenvalue, as the nearest one taken first
    would).  Its order is then each value's rank, read off the one sort.
    Tried in turn: descending order, then each theta_1 = eigs[1..N] whose
    row snaps to an order other than descending.  When none is self-dual,
    the lower-defect of descending and |theta|-descending order is
    returned (ties to descending), so at most N + 2 orders are measured;
    when P has left the float range, every order is, and only descending
    order is measured.
    """
    n = len(eigs) - 1
    identity = np.arange(n + 1)
    p_desc = eigenmatrix(arr, eigs)

    def measure(order):
        p = p_desc[order]
        square = p @ p
        square.reshape(-1)[::n + 2] -= size  # P^2 - |X| I, in place
        return max_abs(square) / size, eigs[order], p

    desc = measure(identity)
    if desc[0] <= SELF_DUAL_TOL:
        return desc
    if not math.isfinite(desc[0]) and not np.isfinite(p_desc).all():
        return desc  # every order permutes the rows of a non-finite P alike
    v = arr.float_params()[0]
    implied = v[1] * p_desc[1:] / v
    ranked = np.argsort(-implied, axis=1)  # ranked[j, k]: where the k-th largest is
    top_down = np.take_along_axis(implied, ranked, axis=1)
    mids = (eigs[:-1] + eigs[1:]) / 2
    lower, upper = np.append(mids, -np.inf), np.insert(mids, 0, np.inf)  # eigs[k]'s cell
    snaps = ((lower <= top_down) & (top_down < upper)).all(axis=1)
    for perm in ranked[snaps & (ranked != identity).any(axis=1)]:
        found = measure(np.argsort(perm))
        if found[0] <= SELF_DUAL_TOL:
            return found
    tail = sorted(range(1, n + 1), key=lambda i: (-abs(eigs[i]), -eigs[i]))
    by_magnitude = measure([0] + tail)
    return by_magnitude if by_magnitude[0] < desc[0] else desc


def build(spec: FamilySpec) -> SchemeInstance:
    """Construct a validated SchemeInstance for a named family."""
    fam, p = spec.family, spec.params
    if fam not in FAMILY_PARAMS:
        raise BuildError(f"build() does not handle family {fam!r}")
    size = family_size(spec)
    size_float = _float_size(size)
    arr, theta = _closed_form(spec)
    _check_class_count(arr)
    problems = validate_array(arr)
    if problems:
        raise BuildError("family produced an invalid array: " + "; ".join(problems))
    vsum = valency_sum(arr)
    if vsum != size:
        raise BuildError(f"valency sum {vsum} != |X| = {size}")
    defect, theta_arr, pmat = _self_dual_ordering(arr, np.asarray(theta, float), size_float)
    if not defect <= SELF_DUAL_TOL:  # NaN when P @ P overflows
        raise BuildError(
            f"no eigenvalue ordering meets the self-duality tolerance "
            f"(best defect {defect:.3e} > {SELF_DUAL_TOL:.1e})"
        )
    return SchemeInstance(family=fam, params=dict(p), array=arr, size=size,
                          theta=theta_arr, eigenmatrix=pmat, self_dual_defect=defect)


def _check_class_count(arr: IntersectionArray) -> None:
    if arr.n_classes > MAX_CLASSES:
        raise BuildError(f"{arr.n_classes} classes exceed the bound of {MAX_CLASSES} "
                         "that build and solve accept (families.MAX_CLASSES)")


def _float_size(size: Fraction) -> float:
    """float(|X|); a BuildError when |X| is beyond the float range."""
    try:
        return float(size)
    except OverflowError:
        digits = math.log10(size.numerator) - math.log10(size.denominator)
        raise BuildError(f"|X| (about 10^{digits:.0f}) is too large for float "
                         f"arithmetic") from None


def build_custom(arr: IntersectionArray) -> SchemeInstance:
    """Wrap an arbitrary valid array as a Custom instance with |X| = sum v_i.

    Self-duality is measured, not demanded.  The solver rests on the
    premise U^2 = |X| I of a self-dual scheme (see the solver module), so
    on an array without it solve's count need not be the number of
    solutions of the literal equation: on the 2-class arrays that
    theorems.random_intersection_array draws from random.Random(17), the
    equation has 6 and solve reports 0.
    """
    _check_class_count(arr)
    size = valency_sum(arr)
    size_float = _float_size(size)
    eigs = eigenvalues_from_array(arr)
    defect, theta, pmat = _self_dual_ordering(arr, eigs, size_float)
    return SchemeInstance(family="custom", params={}, array=arr, size=size,
                          theta=theta, eigenmatrix=pmat, self_dual_defect=defect)
