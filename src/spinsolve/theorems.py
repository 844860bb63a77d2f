"""Classification claims checked against raw solver output.

Nothing here feeds back into the solver: every routine builds schemes,
runs the family-agnostic pipeline, and compares what came out with the
closed-form description of the solutions (or with non-existence).  The
checks are the package's executable statements of the classification
results: the solution-count bound, the Hamming family, the bilinear /
alternating / Hermitian non-existence results, and the n-gon family with
its normalization constants.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import partial
from typing import Callable, Iterable, Sequence

from .core import DEFAULT_CONFIG, IntersectionArray, SchemeInstance, SolverConfig, validate_array
from .families import BuildError, FamilySpec, build, build_custom
from .solver import DegenerateSchemeError, SolutionSet, solve

__all__ = [
    "random_intersection_array",
    "verify_solution_bound",
    "verify_hamming_classification",
    "verify_bilinear_nonexistence",
    "verify_alternating_nonexistence",
    "verify_hermitian_nonexistence",
    "verify_ngon_classification",
    "verify_theorem",
]

PROFILE_TOL = 1e-9
CONSTANT_TOL = 1e-9
RECIPROCAL_TOL = 1e-8
MAX_SOLUTIONS = 12  # 4 ratios x times 3 cube roots T_0


def random_intersection_array(rng: random.Random, n_classes: int) -> IntersectionArray:
    """A random valid array: positive b, c with b_i + c_i <= b_0 so the
    diagonal a_i stays nonnegative (redrawn when rounding breaks that)."""
    while True:
        b0 = rng.uniform(1.0, 10.0)
        b = [b0]
        c = []
        for _ in range(1, n_classes):
            ci = rng.uniform(0.05, 0.9 * b0)
            bi = rng.uniform(0.05, b0 - ci)
            b.append(bi)
            c.append(ci)
        c.append(rng.uniform(0.05, b0))
        arr = IntersectionArray(b, c)
        if not validate_array(arr):
            return arr


def _reciprocal_closed(xs: Sequence[complex], tol: float = RECIPROCAL_TOL) -> bool:
    return all(
        any(abs(1 / x - y) <= tol * max(1.0, abs(1 / x)) for y in xs) for x in xs
    )


def verify_solution_bound(
    n_random: int = 200,
    seed: int = 7,
    cfg: SolverConfig = DEFAULT_CONFIG,
    extra_schemes: Iterable[SchemeInstance] = (),
) -> dict:
    """At most 12 solutions on every input, and the accepted x set closed
    under x -> 1/x; exercised on seeded random valid arrays (classes
    2..6) plus any supplied schemes."""
    rng = random.Random(seed)
    records = []
    for index in range(n_random):
        arr = random_intersection_array(rng, rng.randint(2, 6))
        params = {"kind": "random", "index": index, "n_classes": arr.n_classes}
        records.append(_instance_record(params, partial(build_custom, arr), _bound_record, cfg))
    for scheme in extra_schemes:
        params = {"kind": scheme.family, "params": scheme.params}
        records.append(_instance_record(params, lambda: scheme, _bound_record, cfg))
    counts = [r["count"] for r in records if "count" in r]
    return {
        "theorem": 1,
        "seed": seed,
        "n_random": n_random,
        "max_count_seen": max(counts) if counts else 0,
        "instances": records,
        # a checked instance is judged by its two flags, the others by "pass"
        "pass": all(r["pass"] if "pass" in r else r["bound_ok"] and r["reciprocal_ok"]
                    for r in records),
    }


def _bound_record(params: dict, sol: SolutionSet) -> dict:
    return {**params, "count": sol.count, "bound_ok": sol.count <= MAX_SOLUTIONS,
            "reciprocal_ok": _reciprocal_closed(sol.accepted_x())}


def _instance_record(params: dict, make_scheme: Callable[[], SchemeInstance],
                     check: Callable[[dict, SolutionSet], dict],
                     cfg: SolverConfig) -> dict:
    """check(params, solve(scheme)) for the scheme make_scheme()
    builds, each claim's one path for an instance.  An instance that cannot
    be built fails the claim with the reason.  One whose x the solver
    cannot constrain (the 4-cycle, hamming(2,2) = ngon(4)) is not covered
    by the claim: reported with the reason and, as with the unasserted
    non-existence records, never failing it."""
    try:
        scheme = make_scheme()
    except BuildError as err:
        return {**params, "build_error": str(err), "pass": False}
    try:
        sol = solve(scheme, cfg)
    except DegenerateSchemeError as err:
        return {**params, "degenerate": str(err), "asserted": False, "pass": True}
    return check(params, sol)


def _family_maker(family: str, params: dict) -> Callable[[], SchemeInstance]:
    """make_scheme of a named family; parameters out of range are a usage
    error, raised here rather than recorded."""
    return partial(build, FamilySpec(family, dict(params)))


def _hamming_record(params: dict, sol: SolutionSet) -> dict:
    n, q = params["N"], params["q"]
    expected = 3 if q == 4 else 6
    issues = []
    if sol.count != expected:
        issues.append(f"count {sol.count} != {expected}")
    for s in sol.accepted:
        x = s.x
        if abs(x * x + (q - 2) * x + 1) > PROFILE_TOL * max(1.0, abs(x)) ** 2:
            issues.append(f"x = {x} is not a root of 1 - 2x + qx + x^2")
        for i in range(n + 1):
            if abs(s.t[i] - x**i) > PROFILE_TOL * max(1.0, abs(x) ** i):
                issues.append(f"profile is not geometric at i = {i} for x = {x}")
                break
        constant = s.t0**3 * (q * (1 + (q - 1) * x)) ** n
        if abs(constant - 1) > CONSTANT_TOL:
            issues.append(f"normalization c^3 (q(1+(q-1)x))^N = {constant} != 1")
    return {**params, "count": sol.count, "expected": expected,
            "issues": issues, "pass": not issues}


def verify_hamming_classification(
    n_range: Sequence[int] = range(3, 7),
    q_range: Sequence[int] = (2, 3, 4, 5),
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """Every solution is T_i = c x^i with 1 - 2x + qx + x^2 = 0 and
    c^3 (q(1+(q-1)x))^N = 1: 6 solutions for q != 4, 3 for q = 4."""
    records = [_instance_record(p, _family_maker("hamming", p), _hamming_record, cfg)
               for p in ({"N": n, "q": q} for n in n_range for q in q_range)]
    return {"theorem": 2, "instances": records,
            "pass": all(r["pass"] for r in records)}


def _nonexistence_record(params: dict, sol: SolutionSet) -> dict:
    """Claims 3-5: a forms scheme of three classes or more has no
    solutions, so it passes on count 0 with at least one rejected x (the
    quartic always has roots, they just fail the filters); a scheme of
    fewer classes is reported, not asserted."""
    asserted = sol.scheme.n_classes >= 3
    return {
        **params,
        "count": sol.count,
        "rejected": [reason for _, reason in sol.rejected_x],
        "asserted": asserted,
        "pass": (not asserted) or (sol.count == 0 and len(sol.rejected_x) > 0),
    }


def verify_bilinear_nonexistence(
    instances: Sequence[tuple[int, int, int]] = ((3, 3, 2), (3, 4, 2), (3, 3, 3)),
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """No solutions when min(M, N) > 2, the scheme's class count."""
    records = [_instance_record(p, _family_maker("bilinear", p), _nonexistence_record, cfg)
               for p in ({"M": m, "N": n, "q": q} for m, n, q in instances)]
    return {"theorem": 3, "instances": records,
            "pass": all(r["pass"] for r in records)}


def _forms_nonexistence(theorem: int, family: str, instances, cfg: SolverConfig) -> dict:
    records = [_instance_record({"params": dict(p)}, _family_maker(family, p),
                                _nonexistence_record, cfg)
               for p in instances]
    return {"theorem": theorem, "family": family, "instances": records,
            "pass": all(r["pass"] for r in records)}


def verify_alternating_nonexistence(
    instances: Sequence[dict] = ({"n": 6, "q": 2},),
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """No solutions for n x n alternating forms with n > 5, floor(n/2)
    classes; smaller n is reported but not asserted."""
    return _forms_nonexistence(4, "alternating", instances, cfg)


def verify_hermitian_nonexistence(
    instances: Sequence[dict] = ({"n": 3, "q": 2},),
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """No solutions for n x n Hermitian forms (entries over GF(q^2)) with
    n > 2, n classes; smaller n is not asserted."""
    return _forms_nonexistence(5, "hermitian", instances, cfg)


def _match_ngon_profile(t: Sequence[complex], n: int) -> tuple[str, int, float]:
    """Best (family, exponent sign, error) match of the profile against
    c e^{s pi i j^2 / n} and c (-1)^j e^{s pi i j^2 / n}."""
    best = None
    for fam in ("plain", "alternating"):
        for sgn in (1, -1):
            err = max(
                abs(t[j] - ((-1) ** j if fam == "alternating" else 1)
                    * cmath.exp(sgn * 1j * math.pi * j * j / n))
                for j in range(len(t))
            )
            if best is None or err < best[2]:
                best = (fam, sgn, err)
    return best


def _ngon_constant_target(fam: str, sgn: int, n: int) -> complex:
    """Verified value table for c^3 n^{3/2} (times (-1)^m for the
    alternating family), with m = n // 4 and s the exponent sign."""
    if fam == "plain":
        return cmath.exp(-sgn * 1j * math.pi / 4)
    r = n % 4
    if r == 0:
        return cmath.exp(-sgn * 1j * math.pi / 4)
    if r == 2:
        return cmath.exp(sgn * 1j * math.pi / 4)
    if r == 1:
        return 1.0 + 0.0j
    return sgn * 1j  # n = 4m + 3


def _ngon_record(params: dict, sol: SolutionSet) -> dict:
    n = params["n"]
    even = n % 2 == 0
    expected = 12 if even else 6
    issues = []
    if sol.count != expected:
        issues.append(f"count {sol.count} != {expected}")
    tally = {"plain": 0, "alternating": 0}
    m = n // 4
    for s in sol.accepted:
        fam, sgn, err = _match_ngon_profile(s.t, n)
        if err > PROFILE_TOL:
            issues.append(f"profile for x = {s.x} matches no family "
                          f"(best {fam}/{sgn:+d}, error {err:.2e})")
            continue
        tally[fam] += 1
        value = s.t0**3 * n**1.5
        if fam == "alternating":
            value *= (-1) ** m
        target = _ngon_constant_target(fam, sgn, n)
        if abs(value - target) > CONSTANT_TOL:
            issues.append(
                f"constant {value} != {target} for {fam} family, sign {sgn:+d}"
            )
    if even and (tally["plain"] != 6 or tally["alternating"] != 6):
        issues.append(f"family split {tally} != 6 + 6")
    if not even and (tally["plain"] != 0 or tally["alternating"] != 6):
        issues.append(f"family split {tally} != 0 + 6 (odd n)")
    if not even:
        # with one class (n = 3) the quartic is the squared terminal
        # equation, so no x can fail it
        expected_reasons = {"terminal_failed"} if n > 3 else set()
        reasons = {reason for _, reason in sol.rejected_x}
        if reasons != expected_reasons:
            issues.append(f"odd-n rejections {reasons} != {expected_reasons}")
    return {**params, "count": sol.count, "expected": expected,
            "families": tally, "issues": issues, "pass": not issues}


def verify_ngon_classification(
    n_range: Sequence[int] = range(6, 13),
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """Even n: exactly 12 solutions, six per closed-form family; odd n:
    exactly 6, all alternating-sign, the others failing the terminal
    equation (the triangle, n = 3, has one class and rejects no x);
    constants match the quarter-turn case table."""
    records = [_instance_record({"n": n}, _family_maker("ngon", {"n": n}), _ngon_record, cfg)
               for n in n_range]
    return {"theorem": 6, "instances": records,
            "pass": all(r["pass"] for r in records)}


def verify_theorem(number: int, cfg: SolverConfig = DEFAULT_CONFIG, **kwargs) -> dict:
    """Dispatch by claim number (1: bound, 2: Hamming, 3: bilinear,
    4: alternating, 5: Hermitian, 6: n-gons)."""
    claims = {
        1: verify_solution_bound,
        2: verify_hamming_classification,
        3: verify_bilinear_nonexistence,
        4: verify_alternating_nonexistence,
        5: verify_hermitian_nonexistence,
        6: verify_ngon_classification,
    }
    if number not in claims:
        raise ValueError(f"no claim numbered {number}")
    return claims[number](cfg=cfg, **kwargs)
