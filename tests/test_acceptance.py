"""Acceptance suite: one test per release criterion, one printed line each.

Tolerances and time budgets are pinned here; the helpers in
spinsolve.theorems carry the per-solution checks (profile and constant
tolerances 1e-9, reciprocal closure 1e-8).
"""

import time

import pytest

import spinsolve as sp
from spinsolve import theorems
from spinsolve.core import valencies
from spinsolve.families import FamilySpec, build
from spinsolve.oracle import PointSpace, census, verify_family
from spinsolve.solver import solve
from spinsolve.symbolic import (
    bilinear_identity_checks,
    hamming_factor_check,
    hamming_resultant_check,
)

from conftest import BIG_CFG

HAMMING_GRID = [(n, q) for n in range(3, 7) for q in (2, 3, 4, 5)]
BILINEAR_INSTANCES = [(3, 3, 2), (3, 4, 2), (3, 3, 3)]
NGON_RANGE = range(6, 13)


def _announce(capsys, number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {number}] {label}: {status}{suffix}")
    assert passed, f"criterion {number} failed: {label} {detail}"


def test_criterion_1_hamming_classification(capsys):
    start = time.perf_counter()
    report = theorems.verify_hamming_classification(range(3, 7), (2, 3, 4, 5))
    elapsed = time.perf_counter() - start
    issues = [i for rec in report["instances"] for i in rec["issues"]]
    _announce(capsys, 1, "Hamming solutions are T_i = c x^i with the stated "
                         "quadratic and cube constraints",
              report["pass"] and elapsed < 5.0,
              f"{len(report['instances'])} instances in {elapsed:.2f}s"
              + (f"; issues: {issues}" if issues else ""))


def test_criterion_2_bilinear_nonexistence(capsys):
    timings = []
    for m, n, q in BILINEAR_INSTANCES:
        start = time.perf_counter()
        scheme = build(FamilySpec("bilinear", {"M": m, "N": n, "q": q}))
        sol = solve(scheme)
        timings.append((m, n, q, sol.count, time.perf_counter() - start))
    passed = all(c == 0 and t < 1.0 for *_, c, t in timings)
    _announce(capsys, 2, "bilinear forms with min(M,N) > 2 have no solutions",
              passed, "; ".join(f"({m},{n},{q}): {c} in {t:.2f}s"
                                for m, n, q, c, t in timings))


def test_criterion_3_alternating_hermitian_nonexistence(
        capsys, alternating62, alternating72, hermitian32):
    census_times = {}
    for fam, params in (("alternating", {"n": 6, "q": 2}),
                        ("alternating", {"n": 7, "q": 2}),
                        ("hermitian", {"n": 3, "q": 2})):
        start = time.perf_counter()
        census(PointSpace(FamilySpec(fam, params)), BIG_CFG)
        census_times[f"{fam}{tuple(params.values())}"] = time.perf_counter() - start
    counts = {
        "alternating(6,2)": solve(alternating62, BIG_CFG).count,
        "alternating(7,2)": solve(alternating72, BIG_CFG).count,
        "hermitian(3,2)": solve(hermitian32, BIG_CFG).count,
    }
    passed = all(c == 0 for c in counts.values()) and \
        all(t < 60.0 for t in census_times.values())
    detail = "; ".join(f"{k}: {v} solutions" for k, v in counts.items()) + \
        "; census " + ", ".join(f"{k} {t:.1f}s" for k, t in census_times.items())
    _announce(capsys, 3, "alternating/Hermitian forms at three classes have "
                         "no solutions", passed, detail)


def test_criterion_4_ngon_classification(capsys):
    report = theorems.verify_ngon_classification(NGON_RANGE)
    issues = [i for rec in report["instances"] for i in rec["issues"]]
    counts = {rec["n"]: rec["count"] for rec in report["instances"]}
    _announce(capsys, 4, "n-gons: 12 solutions (even) / 6 (odd) with the "
                         "two closed-form families and constant table",
              report["pass"], f"counts {counts}"
              + (f"; issues: {issues}" if issues else ""))


def test_criterion_5_solution_count_bound(
        capsys, alternating62, alternating72, hermitian32):
    extras = [build(FamilySpec("hamming", {"N": n, "q": q}))
              for n, q in HAMMING_GRID]
    extras += [build(FamilySpec("bilinear", {"M": m, "N": n, "q": q}))
               for m, n, q in BILINEAR_INSTANCES]
    extras += [build(FamilySpec("ngon", {"n": n})) for n in NGON_RANGE]
    extras += [alternating62, alternating72, hermitian32]
    report = theorems.verify_solution_bound(
        n_random=200, seed=7, cfg=BIG_CFG, extra_schemes=extras
    )
    _announce(capsys, 5, "at most 12 solutions everywhere; accepted x set "
                         "closed under reciprocal",
              report["pass"],
              f"max count {report['max_count_seen']} over "
              f"{len(report['instances'])} inputs")


def test_criterion_6_symbolic_identities(capsys):
    start = time.perf_counter()
    factor = hamming_factor_check()
    resultant = hamming_resultant_check()
    bilinear = bilinear_identity_checks(seed=7)
    elapsed = time.perf_counter() - start
    passed = (
        factor["ok"]
        and resultant["ok"]
        and resultant["matches_target"]
        and resultant["value_at_N3_q3"] == 82944
        and bilinear["ok"]
        and elapsed < 30.0
    )
    _announce(capsys, 6, "exact symbolic identities (shared factor, "
                         "resultant, bilinear elimination)",
              passed,
              f"resultant sign {resultant['sign']}, value 82944 ok, "
              f"bilinear {bilinear['points']} points, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence(capsys):
    specs = [FamilySpec("hamming", {"N": 3, "q": 2}),
             FamilySpec("hamming", {"N": 2, "q": 3}),
             FamilySpec("bilinear", {"M": 2, "N": 2, "q": 2}),
             FamilySpec("bilinear", {"M": 3, "N": 3, "q": 2})]
    specs += [FamilySpec("ngon", {"n": n}) for n in range(5, 9)]
    failures = []
    for spec in specs:
        report = verify_family(spec)
        if not report["match"]:
            failures.append((spec.family, spec.params, report["mismatches"]))
        cen = census(PointSpace(spec))
        b0 = cen.class_sizes[1]
        nc = cen.n_classes
        for r in range(nc + 1):
            if sum(cen.measured_p[r]) != b0:
                failures.append((spec.family, spec.params, f"row {r} sum"))
            for j in range(nc + 1):
                if abs(r - j) >= 2 and cen.measured_p[r][j] != 0:
                    failures.append((spec.family, spec.params, "tridiagonality"))
    _announce(capsys, 7, "census arrays equal closed forms exactly, with "
                         "local counts tridiagonal and row sums b_0",
              not failures, f"{len(specs)} spaces" + (f"; {failures}" if failures else ""))


def test_criterion_8_self_duality_suite(
        capsys, alternating62, alternating72, hermitian32):
    schemes = [build(FamilySpec("hamming", {"N": n, "q": q}))
               for n, q in HAMMING_GRID]
    schemes += [build(FamilySpec("bilinear", {"M": m, "N": n, "q": q}))
                for m, n, q in BILINEAR_INSTANCES]
    schemes += [build(FamilySpec("ngon", {"n": n})) for n in NGON_RANGE]
    schemes += [alternating62, alternating72, hermitian32]
    worst = max(s.self_dual_defect for s in schemes)
    failures = [s.family for s in schemes if s.self_dual_defect > 1e-8]
    x_ok = True
    for n in range(3, 7):
        sol = solve(build(FamilySpec("hamming", {"N": n, "q": 2})))
        xs = sorted(set(sol.accepted_x()), key=lambda z: z.imag)
        x_ok = x_ok and len(xs) == 2 and abs(xs[0] + 1j) < 1e-9 \
            and abs(xs[1] - 1j) < 1e-9
    _announce(capsys, 8, "P^2 = |X| I on every built instance; binary "
                         "Hamming accepts exactly x in {i, -i}",
              not failures and x_ok,
              f"worst relative defect {worst:.2e} over {len(schemes)} instances")
