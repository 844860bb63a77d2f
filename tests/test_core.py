"""Domain types: array validation, valencies, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest

from spinsolve import cli
from spinsolve.core import (
    IntersectionArray,
    SolverConfig,
    dumps_report,
    to_jsonable,
    valencies,
    validate_array,
)
from spinsolve.families import FamilySpec, build
from spinsolve.oracle import PointSpace, census
from spinsolve.solver import solve
from spinsolve.symbolic import symbolic_quartic
from spinsolve.theorems import verify_theorem


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


@pytest.mark.parametrize("b, c, a, message", [
    ([2, 1], [1], None, "b and c must have the same length N"),
    ([], [], None, r"need at least one class \(N >= 1\)"),
    ([2], [1], [0, 1, 1, 0], r"a must have length N \+ 1"),
], ids=["b-longer-than-c", "no-classes", "a-too-long"])
def test_array_shape_is_refused(b, c, a, message):
    with pytest.raises(ValueError, match=message):
        IntersectionArray(b, c, a)


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


@pytest.mark.parametrize("name", ["residual_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_tolerances(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [0, -5, 2.5, True])
def test_config_rejects_non_positive_or_non_integer_census_cap(value):
    with pytest.raises(ValueError, match="census_max_points must be a positive integer"):
        SolverConfig(census_max_points=value)


def test_array_json_round_trip():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    data = json.loads(json.dumps(arr.as_dict()))
    back = IntersectionArray.from_dict(data)
    assert back.b == arr.b and back.c == arr.c and back.a == arr.a


def test_numpy_numbers_make_the_same_exact_array():
    arr = IntersectionArray(b=np.array([3, 2, 1]), c=np.array([1.0, 2.0, 3.0]),
                            a=[np.int16(0), np.uint8(0), np.int64(0), 0])
    assert arr == IntersectionArray(b=[3, 2, 1], c=[1, 2, 3], a=[0, 0, 0, 0])
    assert all(type(x) is Fraction for x in arr.b + arr.c + arr.a)
    with pytest.raises(TypeError, match="complex"):
        IntersectionArray(b=[1j], c=[1])


def test_invalid_array_writes_without_valencies():
    # a_1 + b_1 + c_1 = 6 misses b_0 = 5, so the array has no valencies to write
    arr = IntersectionArray(b=[5, 4], c=[1, 2], a=[0, 1, 3])
    assert json.loads(dumps_report(arr)) == {
        "n_classes": 2, "b": [5, 4], "c": [1, 2], "a": [0, 1, 3], "valencies": None}


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


def test_float_params_are_read_only_and_match_exact_data():
    arr = IntersectionArray(b=[7, 3], c=[2, 7])
    v, a, b, c = arr.float_params()
    assert v == tuple(float(x) for x in valencies(arr))
    assert (a, b, c) == ((0.0, 2.0, 0.0), (7.0, 3.0), (2.0, 7.0))
    for view in (v, a, b, c):
        assert type(view) is tuple and all(type(x) is float for x in view)
        with pytest.raises(TypeError):
            view[0] = 1.0


def test_float_params_hand_out_the_same_arrays_every_call():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    first, second = arr.float_params(), arr.float_params()
    assert first is second and len(first) == 4
    assert all(x is y for x, y in zip(first, second))


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


def test_float_params_beyond_float_range_raise_every_time():
    huge = 10**400
    arr = IntersectionArray(b=[huge], c=[huge])  # |X| = 2, but b_0 overflows
    assert valencies(arr) == [1, 1]
    for _ in range(3):
        with pytest.raises(ValueError, match="b_0 is too large for float arithmetic"):
            arr.float_params()
    wide = IntersectionArray(b=[2e200, 1e200], c=[1e-200, 1e200])
    with pytest.raises(ValueError, match="v_1 is too large for float arithmetic"):
        wide.float_params()


def test_caching_leaves_equality_and_hash_alone():
    arr = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    before = hash(arr)
    valencies(arr)
    arr.float_params()
    twin = IntersectionArray(b=[3, 2, 1], c=[1, 2, 3])
    assert arr == twin and hash(arr) == hash(twin) == before
    assert arr != IntersectionArray(b=[3, 2, 1], c=[1, 2, 2], a=[0, 0, 0, 1])
    assert len({arr, twin}) == 1


# -- one set of leaf rules -----------------------------------------------------


def _reference_jsonable(obj):
    """The recursive copy dumps_report made before json's default hook
    applied the leaf rules; kept as the reference the hook must match."""
    if hasattr(obj, "as_dict"):
        return _reference_jsonable(obj.as_dict())
    if isinstance(obj, complex):
        return {"re": complex(obj).real, "im": complex(obj).imag}
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else float(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(row) for row in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _reference_dumps(obj) -> str:
    return json.dumps(_reference_jsonable(obj), indent=2, allow_nan=False)


QUARTIC_FRACTIONS = (Fraction(5, 2), Fraction(1, 3), Fraction(7, 4), Fraction(3, 2))

REPORTS = {
    "solve-hamming(4,3)": lambda: solve(build(FamilySpec("hamming", {"N": 4, "q": 3}))),
    "solve-ngon(12)": lambda: solve(build(FamilySpec("ngon", {"n": 12}))),
    "solve-bilinear(3,3,2)": lambda: solve(build(FamilySpec("bilinear",
                                                            {"M": 3, "N": 3, "q": 2}))),
    "build-hermitian(3,2)": lambda: build(FamilySpec("hermitian", {"n": 3, "q": 2})),
    "census-alternating(6,2)": lambda: census(PointSpace(FamilySpec("alternating",
                                                                    {"n": 6, "q": 2}))),
    "theorem-1": lambda: verify_theorem(1, n_random=5),
    "theorem-2": lambda: verify_theorem(2),
    "theorem-3": lambda: verify_theorem(3),
    "theorem-6": lambda: verify_theorem(6),
    "symbolic-quartic": lambda: {"coefficients_high_to_low":
                                 symbolic_quartic(*QUARTIC_FRACTIONS)},
    "numpy-leaves": lambda: {"array": np.arange(6, dtype=float).reshape(2, 3),
                             "int64": np.int64(-7), "float32": np.float32(0.1),
                             "bool": np.bool_(True), "complex128": np.complex128(1.5 - 2j),
                             "complex-array": np.array([1j, 2 + 0.5j])},
}


@pytest.mark.parametrize("name", REPORTS)
def test_dumps_report_matches_the_recursive_reference(name):
    obj = REPORTS[name]()
    assert dumps_report(obj) == _reference_dumps(obj)
    assert to_jsonable(obj) == json.loads(dumps_report(obj))


def test_symbolic_quartic_fractions_write_as_floats():
    coeffs = symbolic_quartic(*QUARTIC_FRACTIONS)
    assert any(isinstance(c, Fraction) for c in coeffs)
    assert json.loads(dumps_report(coeffs)) == [float(c) for c in coeffs]


@pytest.mark.parametrize("value", [float("nan"), np.float64("nan"), np.float32("inf"),
                                   complex(float("nan"), 0.0)])
def test_dumps_report_refuses_non_finite_values(value):
    with pytest.raises(ValueError):
        dumps_report({"x": [value]})


def test_dumps_report_refuses_unknown_objects():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        dumps_report({"x": object()})


def test_to_jsonable_writes_integer_keys_as_strings():
    assert to_jsonable({1: np.int64(2)}) == {"1": 2}


def test_table_format_matches_the_reference(capsys, monkeypatch):
    argv = ["families", "--family", "hermitian", "--n", "3", "--q", "2", "--format", "table"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "to_jsonable", _reference_jsonable)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out
    assert out.startswith("family: hermitian\n")
