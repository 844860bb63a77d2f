"""Shared domain types for self-dual P-polynomial association schemes.

A P-polynomial (metric) scheme with N classes is described by its
intersection array: positive sequences b_0..b_{N-1} and c_1..c_N together
with the diagonal numbers a_0..a_N, constrained by a_i + b_i + c_i = b_0
(with c_0 = 0 and b_N = 0).  The valencies follow from the array as
v_j = prod_{i<j} b_i / c_{i+1}.  A concrete scheme additionally carries
its |X|, the N+1 distinct eigenvalues theta_i of the first relation, and
the eigenmatrix P with entries P_j(i); self-duality means P^2 = |X| I.

Array parameters are kept as exact Fractions (every named family yields
integers).  Validation and the valencies compute on Python integers: each
parameter times the common denominator D of the array, so a value becomes
a Fraction only once, as a valency or in the text of a problem.  All
types are immutable after construction and safe to share across threads,
so each array computes its validation result, its exact valencies and one
float view (v, a, b, c) once, on first use: tuples of Python floats, the
only float accessor (float_params), which the numeric solver and the
eigenvalue and eigenmatrix builders all share.  validate_array and
valencies hand out fresh lists.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FAMILY_PARAMS",
    "FAMILIES",
    "BuildError",
    "CensusError",
    "DegenerateSchemeError",
    "SingularCubeError",
    "SolverConfig",
    "IntersectionArray",
    "SchemeInstance",
    "SolutionCandidate",
    "SchemeCensus",
    "validate_array",
    "valencies",
    "valency_sum",
    "max_abs",
    "to_jsonable",
    "dumps_report",
]


@dataclass(frozen=True)
class SolverConfig:
    """The two values a caller sets (--tol and --max-points), threaded
    explicitly through every operation that reads them.

    residual_tol bounds the gap of the solver's one-product test
    R = kappa U, each entry relative to its own rounding scale (see the
    solver module).  census_max_points caps
    the points a census enumerates.  The fixed tolerances sit beside the
    one decision each makes: ROOT_DEDUP_TOL and FILTER_TOL in the solver,
    SELF_DUAL_TOL in families.
    """

    residual_tol: float = 1e-10
    census_max_points: int = 1_000_000

    def __post_init__(self):
        tol = self.residual_tol
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"residual_tol must be finite and positive, got {tol}")
        cap = self.census_max_points
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap <= 0:
            raise ValueError(f"census_max_points must be a positive integer, got {cap!r}")

    def with_(self, **kwargs) -> "SolverConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = SolverConfig()

# Each named family's integer parameters, in the order they are reported.
FAMILY_PARAMS = {
    "hamming": ("N", "q"),
    "bilinear": ("M", "N", "q"),
    "alternating": ("n", "q"),
    "hermitian": ("n", "q"),
    "ngon": ("n",),
}
FAMILIES = tuple(FAMILY_PARAMS) + ("custom",)


# The usage errors, each re-exported by the module that raises it.  They
# live here so that the command line can catch them without loading numpy.


class BuildError(ValueError):
    """Family parameters out of range, or a scheme invariant failed to hold."""


class DegenerateSchemeError(ValueError):
    """The candidate polynomial vanishes identically, so the ratio x is
    unconstrained at this stage (happens for the square, where every
    unimodular pair works); enumeration is impossible."""


class CensusError(RuntimeError):
    """The enumeration is too large, or the measured structure is not a
    P-polynomial association scheme."""


class SingularCubeError(ArithmeticError):
    """kappa, and so mu, is numerically zero, so no cube root T_0 of 1/mu
    exists; U and t were expected invertible."""


def _as_fraction(x) -> Fraction:
    # ints first: isinstance against Fraction, an abstract-base subclass, is slow
    if isinstance(x, int):
        return Fraction(int(x))
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    np = sys.modules.get("numpy")  # a numpy value exists only once numpy is loaded
    if np is not None and isinstance(x, np.integer):
        return Fraction(int(x))
    raise TypeError(f"cannot convert {type(x).__name__} to an exact rational")


@dataclass(frozen=True)
class IntersectionArray:
    """Tridiagonal parameters {b_i}, {c_i}, {a_i} of a P-polynomial scheme.

    b holds b_0..b_{N-1}, c holds c_1..c_N, a holds a_0..a_N.  If a is
    omitted it is derived from the row-sum constraint a_i = b_0 - b_i - c_i
    (reading c_0 = 0 and b_N = 0).
    """

    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    a: tuple[Fraction, ...]

    def __init__(self, b: Sequence, c: Sequence, a: Sequence | None = None):
        b = tuple(_as_fraction(x) for x in b)
        c = tuple(_as_fraction(x) for x in c)
        if len(b) != len(c):
            raise ValueError("b and c must have the same length N")
        if not b:
            raise ValueError("need at least one class (N >= 1)")
        if a is None:
            # the derived a_i have denominators dividing D, the lcm over b and c
            scale = _common_denominator(b + c)
            sb, sc = _as_ints(b, scale), _as_ints(c, scale)
            sa = tuple(sb[0] - bi - ci for bi, ci in zip(sb + (0,), (0,) + sc))
            made = {x: Fraction(x, scale) for x in set(sa)}
            a = tuple(made[x] for x in sa)
        else:
            a = tuple(_as_fraction(x) for x in a)
            if len(a) != len(b) + 1:
                raise ValueError("a must have length N + 1")
            scale = _common_denominator(a + b + c)
            sa, sb, sc = (_as_ints(x, scale) for x in (a, b, c))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        # (D, D a, D b, D c) with D the lcm of every denominator: the
        # integers that validation and the valencies compute on
        object.__setattr__(self, "_scaled", (scale, sa, sb, sc))

    @property
    def n_classes(self) -> int:
        return len(self.b)

    def b_at(self, i: int) -> Fraction:
        """b_i with the convention b_N = 0."""
        return self.b[i] if 0 <= i < len(self.b) else Fraction(0)

    def float_params(self) -> tuple[tuple[float, ...], ...]:
        """The float view (v, a, b, c) of v_0..v_N, a_0..a_N, b_0..b_{N-1}
        and c_1..c_N as tuples of Python floats: the same tuples on every
        call.  An invalid array, or one with an entry beyond the float
        range, raises ValueError on every call, like valencies()."""
        return self._float_params

    # Derived data, cached on first use (the fields never change).  The
    # public accessors copy out of these or hand out tuples, so no caller
    # can alter them.

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))

    @cached_property
    def _valency_ratios(self) -> tuple[tuple[int, int], ...]:
        """v_0..v_N as unreduced integer pairs (prod D b_i, prod D c_{i+1});
        read only once the array is known to be valid."""
        _, _, b, c = self._scaled
        num = den = 1
        ratios = [(1, 1)]
        for bj, cj in zip(b, c):
            num *= bj
            den *= cj
            ratios.append((num, den))
        return tuple(ratios)

    @cached_property
    def _valencies(self) -> tuple[Fraction, ...]:
        """Exact v_0..v_N; read only once the array is known to be valid."""
        return tuple(Fraction(num, den) for num, den in self._valency_ratios)

    @cached_property
    def _float_params(self) -> tuple[tuple[float, ...], ...]:
        # cached_property stores nothing when this raises, so an invalid
        # array is checked (and rejected) again on the next call
        ensure_valid(self)
        scale, a, b, c = self._scaled
        return (_floats("v", 0, self._valency_ratios),
                *(_floats(name, first, [(x, scale) for x in xs])
                  for name, first, xs in (("a", 0, a), ("b", 0, b), ("c", 1, c))))

    def as_dict(self) -> dict:
        return {
            "n_classes": self.n_classes,
            "b": [_num_json(x) for x in self.b],
            "c": [_num_json(x) for x in self.c],
            "a": [_num_json(x) for x in self.a],
            # an invalid array, such as a census that misses a row sum, has none
            "valencies": None if self._problems else [_num_json(v) for v in self._valencies],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IntersectionArray":
        return cls(data["b"], data["c"], data.get("a"))


def _common_denominator(values: tuple[Fraction, ...]) -> int:
    return math.lcm(*(x.denominator for x in values))


def _as_ints(values: tuple[Fraction, ...], scale: int) -> tuple[int, ...]:
    """The integers scale * x; scale must be a multiple of every denominator."""
    return tuple(x.numerator * (scale // x.denominator) for x in values)


def _floats(name: str, first: int, ratios) -> tuple[float, ...]:
    """The floats num / den of the pairs in ratios, entry k named
    name_{first + k}.  int / int is correctly rounded, so each value equals
    float(Fraction(num, den)); a quotient beyond the float range raises."""
    out = []
    for k, (num, den) in enumerate(ratios, start=first):
        try:
            out.append(num / den)
        except OverflowError:
            raise ValueError(f"{name}_{k} is too large for float arithmetic") from None
    return tuple(out)


def validate_array(arr: IntersectionArray) -> list[str]:
    """Return every invariant violation of the array; empty list = valid."""
    return list(arr._problems)


def _find_problems(arr: IntersectionArray) -> list[str]:
    # Every check runs on the integers D x of _scaled; a value is made a
    # Fraction only for the text of a problem.
    problems: list[str] = []
    n = arr.n_classes
    scale, a, b, c = arr._scaled
    if a[0] != 0:
        problems.append(f"a_0 = {arr.a[0]} must be 0")
    for i, bi in enumerate(b):
        if bi <= 0:
            problems.append(f"b_{i} = {arr.b[i]} must be positive")
    for i, ci in enumerate(c, start=1):
        if ci <= 0:
            problems.append(f"c_{i} = {arr.c[i - 1]} must be positive")
    for i, ai in enumerate(a):
        if ai < 0:
            problems.append(f"a_{i} = {arr.a[i]} must be nonnegative")
    full_b = b + (0,)
    full_c = (0,) + c
    for i in range(n + 1):
        total = a[i] + full_b[i] + full_c[i]
        if total != b[0]:
            problems.append(f"a_{i}+b_{i}+c_{i} = {Fraction(total, scale)} != b_0 = {arr.b[0]}")
    # valency positivity follows from b, c > 0; recheck defensively
    num = den = 1
    for j in range(n):
        if c[j] == 0:
            break  # v_{j+1} is undefined; c_{j+1} is already reported
        num *= b[j]
        den *= c[j]
        if num == 0 or (num > 0) != (den > 0):
            problems.append(f"v_{j + 1} = {Fraction(num, den)} must be positive")
    return problems


def ensure_valid(arr: IntersectionArray) -> None:
    problems = validate_array(arr)
    if problems:
        raise ValueError("invalid intersection array: " + "; ".join(problems))


def valencies(arr: IntersectionArray) -> list[Fraction]:
    """v_0..v_N with v_j = prod_{i=0}^{j-1} b_i / c_{i+1} (exact)."""
    ensure_valid(arr)
    return list(arr._valencies)


def valency_sum(arr: IntersectionArray) -> Fraction:
    """v_0 + ... + v_N (exact), added as integers: the denominator of each
    unreduced pair in _valency_ratios divides the next, so the last is
    their lcm."""
    ensure_valid(arr)
    ratios = arr._valency_ratios
    den = ratios[-1][1]
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


@dataclass(frozen=True)
class SchemeInstance:
    """A concrete scheme: family tag, array, size, eigenvalues, eigenmatrix,
    and the self-duality defect max |P^2 - |X| I| / |X| of that eigenmatrix.

    The family builders measure the defect while they order the
    eigenvalues and enforce self-duality with it; a Custom instance records
    its defect without insisting on it, so the solver can be exercised on
    arbitrary valid arrays.
    """

    family: str
    params: dict
    array: IntersectionArray
    size: Fraction
    theta: np.ndarray  # shape (N+1,), theta_0 = b_0
    eigenmatrix: np.ndarray  # shape (N+1, N+1), P[i, j] = P_j(i)
    self_dual_defect: float

    def __post_init__(self):
        self.theta.setflags(write=False)
        self.eigenmatrix.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.array.n_classes

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "size": _num_json(self.size),
            "array": self.array.as_dict(),
            "eigenvalues": self.theta.tolist(),
            "eigenmatrix": self.eigenmatrix.tolist(),
            "self_dual_defect": self.self_dual_defect,
        }


@dataclass(frozen=True)
class SolutionCandidate:
    """One diagonal solution: the ratio x = T_1/T_0, the profile t_i = T_i/T_0,
    the scalar mu = |X| kappa with (U diag(t))^3 = mu I, a cube root T_0
    of 1/mu, the full diagonal, and as residual the gap of the product
    test that decided its reciprocal pair, where U = K^{1/2} P K^{-1/2} is
    the symmetric frame of P.  A member derived from its pair's decided
    one (see the solver module) shares that gap."""

    x: complex
    t: tuple[complex, ...]
    mu: complex
    t0: complex
    diag: tuple[complex, ...]
    residual: float

    def as_dict(self) -> dict:
        return {
            "x": _cplx(self.x),
            "t": [_cplx(z) for z in self.t],
            "mu": _cplx(self.mu),
            "T0": _cplx(self.t0),
            "T": [_cplx(z) for z in self.diag],
            "residual": self.residual,
        }


@dataclass(frozen=True)
class SchemeCensus:
    """Scheme structure measured from an exhaustive point enumeration."""

    family: str
    params: dict
    point_count: int
    class_of_distance: dict[int, int]
    class_sizes: tuple[int, ...]
    measured_p: tuple[tuple[int, ...], ...]  # measured_p[r][j] = p_{1,j}^r
    representatives_checked: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes) - 1

    def derived_array(self) -> IntersectionArray:
        """Read {b, c, a} off the measured table: c_r = p_{1,r-1}^r,
        a_r = p_{1,r}^r, b_r = p_{1,r+1}^r."""
        n = self.n_classes
        p = self.measured_p
        b = [p[r][r + 1] for r in range(n)]
        c = [p[r][r - 1] for r in range(1, n + 1)]
        a = [p[r][r] for r in range(n + 1)]
        return IntersectionArray(b, c, a)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "point_count": self.point_count,
            "class_of_distance": {str(k): v for k, v in sorted(self.class_of_distance.items())},
            "class_sizes": list(self.class_sizes),
            "p_table": [list(row) for row in self.measured_p],
            "representatives_checked": list(self.representatives_checked),
            "array": self.derived_array().as_dict(),
        }


def max_abs(m) -> float:
    """Entrywise max-abs norm used for every residual in this package."""
    import numpy as np

    return float(np.max(np.abs(m))) if np.size(m) else 0.0


# ---------------------------------------------------------------------------
# JSON helpers
#
# Complex numbers serialize as {"re": ..., "im": ...}; matrices row-major.
# Floats use Python's shortest round-trip repr, so identical inputs always
# produce byte-identical reports.  _leaf holds the one set of rules, for
# the values json cannot write itself; json applies it as it writes.
# ---------------------------------------------------------------------------


def _cplx(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _num_json(x: Fraction) -> int | float:
    """An exact rational as a report writes it: an int when it is whole."""
    return int(x) if x.denominator == 1 else float(x)


def _leaf(obj):
    """json's default hook: an object with as_dict becomes as_dict(), a
    complex number {"re", "im"}, a Fraction an int or a float, a numpy
    array or scalar its tolist().  json writes what comes back in turn."""
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    if isinstance(obj, complex):
        return _cplx(obj)
    if isinstance(obj, Fraction):
        return _num_json(obj)
    np = sys.modules.get("numpy")  # as in _as_fraction
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_jsonable(obj):
    """obj as plain JSON data, by the rules dumps_report writes it with: a
    JSON round trip, so an integer dict key comes back as a string."""
    return json.loads(json.dumps(obj, default=_leaf))


def dumps_report(obj) -> str:
    return json.dumps(obj, default=_leaf, indent=2, allow_nan=False)
