"""Domain types: array validation, valencies, serialization."""

import json
from fractions import Fraction

import pytest

from spinsolve.core import (
    IntersectionArray,
    SolverConfig,
    dumps_report,
    to_jsonable,
    valencies,
    validate_array,
)


def test_hamming_array_is_valid():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3], a=[0, 0, 0, 0])
    assert validate_array(arr) == []


def test_triangle_like_array_is_valid():
    # a_1 + b_1 + c_1 = 1 + 0 + 1 = 2 = b_0
    arr = IntersectionArray(b=[2], c=[1], a=[0, 1])
    assert validate_array(arr) == []


def test_row_sum_violation_is_reported():
    arr = IntersectionArray(b=[2], c=[1], a=[0, 2])
    problems = validate_array(arr)
    assert len(problems) == 1
    assert "a_1" in problems[0] and "b_0" in problems[0]


def test_bilinear_array_is_valid():
    arr = IntersectionArray(b=[49, 36, 16], c=[1, 6, 28], a=[0, 12, 27, 21])
    assert validate_array(arr) == []


def test_derived_diagonal_matches_row_sums():
    arr = IntersectionArray(b=[49, 36, 16], c=[1, 6, 28])
    assert arr.a == (Fraction(0), Fraction(12), Fraction(27), Fraction(21))


def test_negative_parameters_are_violations():
    arr = IntersectionArray(b=[2, -1], c=[1, 2], a=[0, 2, 0])
    assert any("b_1" in p for p in validate_array(arr))


def test_valencies_hamming():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    assert valencies(arr) == [1, 3, 3, 1]


def test_valencies_bilinear_sum_is_space_size():
    arr = IntersectionArray(b=[49, 36, 16], c=[1, 6, 28])
    v = valencies(arr)
    assert v == [1, 49, 294, 168]
    assert sum(v) == 512


def test_valencies_start_at_one():
    arr = IntersectionArray(b=[5, 1], c=[1, 5])
    assert valencies(arr)[0] == 1


def test_valencies_reject_invalid_array():
    arr = IntersectionArray(b=[2], c=[1], a=[0, 2])
    with pytest.raises(ValueError, match="invalid intersection array"):
        valencies(arr)


def test_valencies_are_exact_fractions():
    arr = IntersectionArray(b=[7, 3], c=[2, 7])
    v = valencies(arr)
    assert v[1] == Fraction(7, 2)
    assert v[2] == Fraction(3, 2)


def test_config_rejects_nonpositive_tolerances():
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)


def test_array_json_round_trip():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    data = json.loads(json.dumps(arr.as_dict()))
    back = IntersectionArray.from_dict(data)
    assert back.b == arr.b and back.c == arr.c and back.a == arr.a


def test_complex_serialization_shape():
    out = to_jsonable({"z": 1 + 2j})
    assert out == {"z": {"re": 1.0, "im": 2.0}}


def test_report_is_valid_json():
    arr = IntersectionArray(b=[2, 1, 1], c=[1, 1, 2])
    parsed = json.loads(dumps_report(arr))
    assert parsed["valencies"] == [1, 2, 2, 1]


def test_zero_c_is_reported_not_raised():
    arr = IntersectionArray(b=[2, 1], c=[0, 2])
    assert any("c_1" in p for p in validate_array(arr))


def test_returned_lists_and_arrays_are_fresh_copies():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    valencies(arr).append(Fraction(99))
    valencies(arr)[0] = Fraction(7)
    assert valencies(arr) == [1, 3, 3, 1]
    bad = IntersectionArray(b=[2], c=[1], a=[0, 2])
    validate_array(bad).clear()
    assert len(validate_array(bad)) == 1
    for getter, expected in ((arr.b_floats, [3, 2, 1]), (arr.c_floats, [1, 2, 3]),
                             (arr.a_floats, [0, 0, 0, 0])):
        getter()[0] = -5.0
        assert getter().tolist() == expected


def test_float_params_are_read_only_and_match_exact_data():
    arr = IntersectionArray(b=[7, 3], c=[2, 7])
    v, a, b, c = arr.float_params()
    assert v.tolist() == [float(x) for x in valencies(arr)]
    assert (a.tolist(), b.tolist(), c.tolist()) == ([0.0, 2.0, 0.0], [7.0, 3.0], [2.0, 7.0])
    for view in (v, a, b, c):
        with pytest.raises(ValueError):
            view[0] = 1.0


def test_invalid_array_reports_and_raises_every_time():
    arr = IntersectionArray(b=[2, -1], c=[0, 2], a=[1, 2, 0])
    first = validate_array(arr)
    assert len(first) >= 4  # a_0, b_1, c_1 and the row sums
    assert validate_array(arr) == first
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid intersection array"):
            valencies(arr)
        with pytest.raises(ValueError, match="invalid intersection array"):
            arr.float_params()


def test_caching_leaves_equality_and_hash_alone():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    before = hash(arr)
    valencies(arr)
    arr.float_params()
    twin = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    assert arr == twin and hash(arr) == hash(twin) == before
    assert arr != IntersectionArray(b=[3, 2, 1], c=[1, 2, 2], a=[0, 0, 0, 1])
    assert len({arr, twin}) == 1
