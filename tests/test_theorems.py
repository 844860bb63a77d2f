"""Negative controls for the claim checkers: each record must fail, and
say why, when the solution set it is given is doctored."""

import dataclasses

import pytest

import spinsolve as sp
from spinsolve import theorems


def solved(family, params):
    return sp.solve(sp.build(sp.FamilySpec(family, params)))


@pytest.fixture(scope="module")
def hamming33():
    return solved("hamming", {"N": 3, "q": 3})


@pytest.fixture(scope="module")
def ngon7():
    return solved("ngon", {"n": 7})


@pytest.fixture(scope="module")
def ngon8():
    return solved("ngon", {"n": 8})


def with_first(sol, **changes):
    """sol with its first accepted solution's fields replaced."""
    first = dataclasses.replace(sol.accepted[0], **changes)
    return dataclasses.replace(sol, accepted=(first,) + sol.accepted[1:])


def hamming_record(sol):
    return theorems._hamming_record({"N": 3, "q": 3}, sol)


def ngon_record(sol):
    return theorems._ngon_record({"n": sol.scheme.params["n"]}, sol)


def test_hamming_record_fails_a_dropped_solution(hamming33):
    record = hamming_record(dataclasses.replace(hamming33, accepted=hamming33.accepted[1:]))
    assert record["pass"] is False
    assert record["issues"] == ["count 5 != 6"]


def test_hamming_record_fails_a_scaled_t0(hamming33):
    s = hamming33.accepted[0]
    record = hamming_record(with_first(hamming33, t0=s.t0 * 1.01))
    constant = (s.t0 * 1.01) ** 3 * (3 * (1 + 2 * s.x)) ** 3
    assert record["pass"] is False
    assert record["issues"] == [f"normalization c^3 (q(1+(q-1)x))^N = {constant} != 1"]


def test_hamming_record_fails_a_perturbed_profile(hamming33):
    s = hamming33.accepted[0]
    t = list(s.t)
    t[2] += 1e-6
    record = hamming_record(with_first(hamming33, t=tuple(t)))
    assert record["pass"] is False
    assert record["issues"] == [f"profile is not geometric at i = 2 for x = {s.x}"]


def test_hamming_record_fails_an_x_off_the_quadratic(hamming33):
    x = hamming33.accepted[0].x * 1.01
    record = hamming_record(with_first(hamming33, x=x))
    assert record["pass"] is False
    assert record["issues"][0] == f"x = {x} is not a root of 1 - 2x + qx + x^2"


def test_ngon_record_fails_a_dropped_solution(ngon7, ngon8):
    record = ngon_record(dataclasses.replace(ngon8, accepted=ngon8.accepted[1:]))
    assert record["pass"] is False
    assert record["issues"][0] == "count 11 != 12"
    assert record["issues"][1].startswith("family split {") and record["issues"][1].endswith(
        "} != 6 + 6")
    record = ngon_record(dataclasses.replace(ngon7, accepted=ngon7.accepted[1:]))
    assert record["pass"] is False
    assert record["issues"] == ["count 5 != 6",
                                "family split {'plain': 0, 'alternating': 5} != 0 + 6 (odd n)"]


def test_ngon_record_fails_a_scaled_t0(ngon7):
    s = ngon7.accepted[0]
    fam, sgn, _ = theorems._match_ngon_profile(s.t, 7)
    value = (s.t0 * 1.01) ** 3 * 7**1.5 * (-1) ** (7 // 4)
    target = theorems._ngon_constant_target(fam, sgn, 7)
    record = ngon_record(with_first(ngon7, t0=s.t0 * 1.01))
    assert record["pass"] is False
    assert record["issues"] == [f"constant {value} != {target} for {fam} family, sign {sgn:+d}"]


def test_ngon_record_fails_a_perturbed_profile(ngon8):
    s = ngon8.accepted[0]
    t = list(s.t)
    t[1] *= 1.001
    record = ngon_record(with_first(ngon8, t=tuple(t)))
    assert record["pass"] is False
    assert record["issues"][0].startswith(f"profile for x = {s.x} matches no family (best ")
    assert record["issues"][1].startswith("family split {")


def test_ngon_record_fails_a_swapped_odd_rejection_reason(ngon7):
    rejected = tuple((x, "reciprocal_failed") for x, _ in ngon7.rejected_x)
    record = ngon_record(dataclasses.replace(ngon7, rejected_x=rejected))
    assert record["pass"] is False
    assert record["issues"] == ["odd-n rejections {'reciprocal_failed'} != {'terminal_failed'}"]


@pytest.mark.parametrize("params", [{"n": 3, "q": 3}, {"n": 4, "q": 2}])
def test_claim_5_counts_no_solution_on_larger_hermitian_spaces(params):
    # Hermitian forms over GF(9) and four-class forms over GF(4)
    report = theorems.verify_hermitian_nonexistence(instances=(params,))
    (record,) = report["instances"]
    assert record["asserted"] and record["count"] == 0 and report["pass"]
