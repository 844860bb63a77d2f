"""Command-line front end: reports, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsolve
from spinsolve import oracle
from spinsolve.cli import main
from spinsolve.solver import candidate_quartic


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_hamming_43(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "hamming",
                           "--N", "4", "--q", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve"
    assert report["result"]["count"] == 6


def test_config_echoes_the_two_values_a_caller_sets(capsys):
    fields = [f.name for f in dataclasses.fields(spinsolve.SolverConfig)]
    assert fields == ["residual_tol", "census_max_points"]
    code, out, _ = run_cli(capsys, "families", "--family", "hermitian", "--n", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["config"] == {"residual_tol": 1e-10, "census_max_points": 1_000_000}
    # --max-points is declared only where a census runs
    code, out, _ = run_cli(capsys, "oracle", "census", "--family", "hermitian", "--n", "2",
                           "--q", "2", "--tol", "1e-9", "--max-points", "5000")
    assert code == 0
    assert json.loads(out)["config"] == {"residual_tol": 1e-9, "census_max_points": 5000}


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "hermitian", "--n", "2", "--q", "2"],
    ["families", "--family", "alternating", "--n", "7", "--q", "2"],
    ["verify", "--theorem", "4"],
    ["symbolic", "quartic", "--family", "hermitian", "--n", "2", "--q", "2"],
], ids=["solve", "families", "verify", "symbolic"])
def test_max_points_is_refused_where_no_census_runs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-points", "4000000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-points 4000000" in capsys.readouterr().err


def test_solve_ngon6_count(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "ngon", "--n", "6")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 12


def test_solve_bilinear_no_solutions(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "bilinear",
                           "--M", "3", "--N", "3", "--q", "2")
    assert code == 0  # exit 0 regardless of solution count
    report = json.loads(out)
    assert report["result"]["count"] == 0
    assert report["result"]["rejected_x"]


def test_repeat_invocations_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "solve", "--family", "ngon", "--n", "8")
    _, second, _ = run_cli(capsys, "solve", "--family", "ngon", "--n", "8")
    assert first == second


def test_custom_array_file(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"b": [3, 2, 1], "c": [1, 2, 3]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--family", "custom",
                           "--array-file", str(path))
    assert code == 0
    assert json.loads(out)["result"]["count"] == 6  # the words-over-two-letters scheme


def test_malformed_array_file(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--family", "custom",
                           "--array-file", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("payload", [
    '{"b": [3, Infinity, 1], "c": [1, 2, 3]}',
    '{"c": [1, 2, 3]}',
    '{"b": [3, "x", 1], "c": [1, 2, 3]}',
    '[[3, 2, 1], [1, 2, 3]]',
    '{"b": [3, true, 1], "c": [1, 2, 3]}',
], ids=["infinity", "missing-b", "string-entry", "top-level-list", "true-entry"])
def test_malformed_array_schema_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "arr.json"
    path.write_text(payload, encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--family", "custom",
                           "--array-file", str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_custom_family_without_array_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--family", "custom")
    assert code == 2 and out == ""
    assert err == "error: --family custom requires --array-file\n"


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "bilinear",
                           "--M", "2", "--N", "2", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_non_self_dual_family_exits_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--family", "hamming",
                             "--N", "30", "--q", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no eigenvalue ordering meets the self-duality tolerance")


@pytest.mark.parametrize("n", ["1000", "1020"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_self_duality_defect_beyond_float_range_exits_2(capsys, n):
    code, out, err = run_cli(capsys, "solve", "--family", "hamming", "--N", n, "--q", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no eigenvalue ordering meets the self-duality tolerance "
                          "(best defect nan")


FAMILY_ARGS = st.one_of(
    st.builds(lambda n, q: ["--family", "hamming", "--N", str(n), "--q", str(q)],
              st.integers(1, 40), st.integers(2, 16)),
    st.builds(lambda n: ["--family", "ngon", "--n", str(n)], st.integers(3, 400)),
)


@given(FAMILY_ARGS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solve_named_family_exits_0_or_2_quickly(family_args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(["solve", *family_args])
        elapsed = time.perf_counter() - start
    assert code in (0, 2)
    assert elapsed < 2.0


@st.composite
def int_arrays(draw) -> dict:
    """Integer arrays with 1..6 classes and b_0 <= 12; some are invalid
    (a negative a_i), which must exit 2."""
    b0 = draw(st.integers(1, 12))
    n_classes = draw(st.integers(1, 6))
    b, c = [b0], []
    for _ in range(1, n_classes):
        ci = draw(st.integers(1, b0))
        b.append(draw(st.integers(1, max(1, b0 - ci))))
        c.append(ci)
    c.append(draw(st.integers(1, b0)))
    return {"b": b, "c": c}


def _reported_x(result: dict) -> list[complex]:
    entries = [s["x"] for s in result["accepted"]] + [r["x"] for r in result["rejected_x"]]
    return [complex(e["re"], e["im"]) for e in entries]


@given(int_arrays())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_solve_custom_array_exits_0_or_2_with_reciprocal_x(array):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arr.json"
        path.write_text(json.dumps(array), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = main(["solve", "--family", "custom", "--array-file", str(path)])
            elapsed = time.perf_counter() - start
    assert code in (0, 2)
    assert elapsed < 2.0
    if code == 0:
        xs = _reported_x(json.loads(out.getvalue())["result"])
        for x in xs:
            assert any(abs(1 / x - w) <= 1e-8 * max(1, abs(1 / x)) for w in xs), (x, xs)


def test_verify_hamming_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "2",
                           "--N", "3..4", "--q", "2..3")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["pass"]
    assert len(report["result"]["instances"]) == 4


def test_verify_solution_bound_seeded(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "1",
                           "--random-arrays", "25", "--seed", "7")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_random_arrays_below_one_exits_2(capsys, count):
    code, out, err = run_cli(capsys, "verify", "--theorem", "1",
                             "--random-arrays", count)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --random-arrays must be at least 1")


def test_verify_solution_bound_defaults_to_200_arrays(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "1")
    assert code == 0
    report = json.loads(out)
    assert not {"random_arrays", "seed"} & set(report["args"])
    assert (report["result"]["seed"], report["result"]["n_random"]) == (7, 200)
    records = report["result"]["instances"]
    assert sum(r["kind"] == "random" for r in records) == 200


def test_verify_ngon_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "6..8")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


DEGENERATE = "candidate polynomial vanishes identically"


def test_verify_hamming_reports_the_degenerate_4_cycle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "2",
                           "--N", "2..3", "--q", "2..3")
    assert code == 0
    report = json.loads(out)["result"]
    assert report["pass"]
    records = {(r["N"], r["q"]): r for r in report["instances"]}
    assert set(records) == {(2, 2), (2, 3), (3, 2), (3, 3)}
    cycle = records.pop((2, 2))
    assert cycle["degenerate"].startswith(DEGENERATE)
    assert cycle["asserted"] is False
    assert "count" not in cycle
    assert all(r["count"] == 6 and r["pass"] for r in records.values())


SELF_DUALITY_MISSED = "no eigenvalue ordering meets the self-duality tolerance"


@pytest.mark.parametrize("argv, built, refused", [
    (("--theorem", "2", "--N", "29..30", "--q", "5"), [(29, 5)], [(30, 5)]),
    (("--theorem", "3", "--M", "5..6", "--N", "6", "--q", "7"), [], [(5, 6, 7), (6, 6, 7)]),
], ids=["hamming", "bilinear"])
def test_verify_reports_every_instance_when_one_cannot_be_built(capsys, argv, built, refused):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert not err.startswith("error:")
    report = json.loads(out)["result"]
    assert report["pass"] is False
    keys = ("N", "q") if argv[1] == "2" else ("M", "N", "q")
    records = {tuple(r[k] for k in keys): r for r in report["instances"]}
    assert list(records) == sorted(built + refused)
    for params in built:
        assert records[params]["count"] == 6 and records[params]["pass"] is True
    for params in refused:
        record = records[params]
        assert set(record) == set(keys) | {"build_error", "pass"}
        assert record["build_error"].startswith(SELF_DUALITY_MISSED)
        assert record["pass"] is False


def test_solution_bound_reports_the_degenerate_4_cycle():
    square = spinsolve.build(spinsolve.FamilySpec("hamming", {"N": 2, "q": 2}))
    report = spinsolve.theorems.verify_solution_bound(n_random=1, extra_schemes=[square])
    assert report["pass"]
    cycle = report["instances"][1]
    assert cycle["kind"] == "hamming" and cycle["degenerate"].startswith(DEGENERATE)
    assert cycle["asserted"] is False and "count" not in cycle


def test_verify_ngon_reports_the_degenerate_4_cycle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "4..12")
    assert code == 0
    assert json.loads(out)["result"]["pass"]
    code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "3..12")
    assert code in (0, 1)  # a report, not a usage error
    records = {r["n"]: r for r in json.loads(out)["result"]["instances"]}
    assert sorted(records) == list(range(3, 13))
    cycle = records.pop(4)
    assert cycle["degenerate"].startswith(DEGENERATE)
    assert cycle["asserted"] is False
    assert all(r["count"] == (12 if n % 2 == 0 else 6) for n, r in records.items())


def test_verify_ngon_accepts_the_triangle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "3..12")
    assert code == 0
    report = json.loads(out)["result"]
    assert report["pass"]
    triangle = report["instances"][0]
    assert triangle["n"] == 3 and triangle["count"] == 6 and triangle["issues"] == []


def test_verify_alternating_within_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "4", "--n", "6",
                           "--q", "2")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


def test_verify_alternating_default_fits_the_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "4")
    assert code == 0
    records = json.loads(out)["result"]["instances"]
    assert [(r["params"], r["count"], r["asserted"]) for r in records] == [
        ({"n": 6, "q": 2}, 0, True)]


def test_verify_alternating_needs_cap_override(capsys):
    # the census of alternating(7,2), 2,097,152 points, needs the cap raised
    code, _, err = run_cli(capsys, "oracle", "verify", "--family", "alternating", "--n", "7",
                           "--q", "2")
    assert code == 2 and "cap" in err
    code, out, _ = run_cli(capsys, "oracle", "verify", "--family", "alternating", "--n", "7",
                           "--q", "2", "--max-points", "4000000")
    assert code == 0
    assert json.loads(out)["result"]["match"]
    # the claim builds the scheme from its closed form, under no cap
    code, out, _ = run_cli(capsys, "verify", "--theorem", "4", "--n", "7", "--q", "2")
    assert code == 0
    records = json.loads(out)["result"]["instances"]
    assert [(r["count"], r["asserted"]) for r in records] == [(0, True)]


def test_verify_hermitian(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "5", "--n", "3",
                           "--q", "2")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


def test_verify_bilinear_default_instances(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "3")
    assert code == 0
    records = json.loads(out)["result"]["instances"]
    assert len(records) == 3
    assert all(r["count"] == 0 and r["rejected"] for r in records)


def test_verify_bilinear_ranges(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "3", "--M", "2..3",
                           "--N", "3", "--q", "2..3")
    assert code == 0
    records = json.loads(out)["result"]["instances"]
    assert [(r["M"], r["N"], r["q"]) for r in records] == [
        (2, 3, 2), (2, 3, 3), (3, 3, 2), (3, 3, 3)]


@pytest.mark.parametrize("argv", [
    ("solve", "--family", "hamming", "--N", "400", "--q", "7"),
    ("solve", "--family", "hamming", "--N", "1024", "--q", "2"),
    ("families", "--family", "bilinear", "--M", "40", "--N", "40", "--q", "2"),
])
def test_scheme_beyond_float_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: |X| (about 10^")
    assert "too large for float arithmetic" in err


def test_custom_array_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"b": [2e200, 1e200], "c": [1e-200, 1e200]}))
    code, out, err = run_cli(capsys, "solve", "--family", "custom", "--array-file", str(path))
    assert code == 2 and out == ""
    assert "too large for float arithmetic" in err


@pytest.mark.parametrize("argv, flag", [
    (("--theorem", "3", "--M", "5"), "--N, --q"),
    (("--theorem", "3", "--M", "3", "--N", "3"), "--q"),
    (("--theorem", "5", "--q", "3"), "--q"),
    (("--theorem", "4", "--q", "3"), "--q"),
    (("--theorem", "2", "--n", "7"), "--n"),
    (("--theorem", "6", "--N", "8"), "--N"),
    (("--theorem", "1", "--N", "4"), "--N"),
    (("--theorem", "6", "--random-arrays", "5"), "--random-arrays"),
    (("--theorem", "2", "--M", "3"), "--M"),
    (("--theorem", "6", "--N", "8", "--M", "2"), "--N, --M"),
    (("--theorem", "6", "--M", "2", "--N", "8"), "--N, --M"),
    *[(("--theorem", claim, "--seed", "3"), "--seed") for claim in "23456"],
])
def test_verify_rejects_range_flags_its_claim_does_not_read(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --theorem") and flag in err


def test_verify_solution_bound_reads_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "1", "--random-arrays", "5",
                           "--seed", "3")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["seed"], result["n_random"]) == (3, 5)
    code, _, err = run_cli(capsys, "verify", "--theorem", "1", "--N", "4")
    assert code == 2
    assert err == "error: --theorem 1 does not read --N (it reads --random-arrays, --seed)\n"


def test_bilinear_identities_report_states_the_default_seed_and_points(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "bilinear-identities")
    assert code == 0
    report = json.loads(out)
    assert (report["result"]["seed"], report["result"]["points"]) == (7, 20)
    assert not {"seed", "points"} & set(report["args"])


def test_solve_refuses_more_classes_than_the_bound_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", "--family", "ngon", "--n", "40000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (f"error: 20000 classes exceed the bound of {spinsolve.families.MAX_CLASSES} "
                   "that build and solve accept (families.MAX_CLASSES)\n")


def test_verify_hermitian_range_defaults_q_to_2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "5", "--n", "2")
    assert code == 0
    records = json.loads(out)["result"]["instances"]
    assert [r["params"] for r in records] == [{"n": 2, "q": 2}]


@pytest.mark.parametrize("points", ["5", "19", "-1"])
def test_bilinear_identities_below_20_points_exits_2(capsys, points):
    code, out, err = run_cli(capsys, "symbolic", "bilinear-identities", "--points", points)
    assert code == 2 and out == ""
    assert err.startswith(f"error: points must be at least 20, got {points}")


def test_tol_flag_sets_the_residual_tolerance(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "hamming", "--N", "3",
                           "--q", "2", "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["config"]["residual_tol"] == 1e-12


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_exits_2_before_any_work(capsys, value):
    code, out, err = run_cli(capsys, "solve", "--family", "hamming", "--N", "4",
                             "--q", "3", "--tol", value, "--format", "table")
    assert code == 2
    assert out == ""
    assert err.startswith("error: residual_tol must be finite and positive")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_max_points_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "oracle", "census", "--family", "ngon", "--n", "6",
                             "--max-points", value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: census_max_points must be a positive integer")


def test_oracle_verify_of_rows_wider_than_16_bits(capsys):
    code, out, _ = run_cli(capsys, "oracle", "verify", "--family", "bilinear",
                           "--M", "1", "--N", "17", "--q", "2")
    assert code == 0
    assert json.loads(out)["result"]["match"]


@pytest.mark.parametrize("q", ["32768", "70000"])
def test_oracle_verify_of_hamming_digits_wider_than_int16(capsys, q):
    # digits up to q - 1 >= 2^15; an int16 digit overflowed at 32768 and
    # would alias digits beyond 65535
    code, out, _ = run_cli(capsys, "oracle", "verify", "--family", "hamming",
                           "--N", "1", "--q", q)
    assert code == 0
    assert json.loads(out)["result"]["match"]


def test_census_beyond_int64_codes_exits_2(capsys):
    code, out, err = run_cli(capsys, "oracle", "census", "--family", "bilinear", "--M", "1",
                             "--N", "70", "--q", "2", "--max-points", "9" * 23)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bilinear") and str(2 ** 70) in err


def test_report_config_lists_every_solver_config_field(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "ngon", "--n", "5")
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config) == [f.name for f in dataclasses.fields(spinsolve.SolverConfig)]
    assert config["census_max_points"] == spinsolve.DEFAULT_CONFIG.census_max_points


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(spinsolve.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, spinsolve; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == expected


def test_oracle_verify_match(capsys):
    code, out, _ = run_cli(capsys, "oracle", "verify", "--family", "bilinear",
                           "--M", "3", "--N", "3", "--q", "2")
    assert code == 0
    assert json.loads(out)["result"]["match"]


def test_oracle_census_report(capsys):
    code, out, _ = run_cli(capsys, "oracle", "census", "--family", "ngon",
                           "--n", "6")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["point_count"] == 6
    assert report["result"]["array"]["b"] == [2, 1, 1]


def test_oracle_verify_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "closed_form_array",
                        lambda spec: spinsolve.IntersectionArray([4, 1], [1, 4]))
    code, out, _ = run_cli(capsys, "oracle", "verify", "--family", "hamming",
                           "--N", "2", "--q", "3")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["match"] is False
    assert result["mismatches"][0].startswith("census array b=")


def test_oracle_census_cap(capsys):
    code, _, err = run_cli(capsys, "oracle", "census", "--family",
                           "alternating", "--n", "7", "--q", "2")
    assert code == 2
    assert "cap" in err


def test_symbolic_quartic_ngon(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "quartic", "--family", "ngon",
                           "--n", "6")
    assert code == 0
    assert json.loads(out)["result"]["coefficients_high_to_low"] == [1, 0, -1, 0, 1]


def test_symbolic_quartic_one_class(capsys):
    # K_4 = hamming(1, 4): -(x^2 + 2x + 1)^2
    code, out, _ = run_cli(capsys, "symbolic", "quartic", "--family", "hamming",
                           "--N", "1", "--q", "4")
    assert code == 0
    assert json.loads(out)["result"]["coefficients_high_to_low"] == [-1, -4, -6, -4, -1]


def test_symbolic_quartic_of_a_fractional_array_is_the_candidate_quartic(tmp_path, capsys):
    # c_1 = 1/2 is not an integer, so the integer identity does not apply
    data = {"b": [2.5, 1.5], "c": [0.5, 2]}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "symbolic", "quartic", "--array-file", str(path))
    assert code == 0
    scheme = spinsolve.build_custom(spinsolve.IntersectionArray.from_dict(data))
    want = candidate_quartic(scheme.array, scheme.theta)
    assert json.loads(out)["result"]["coefficients_high_to_low"] == [float(c) for c in want]


@pytest.mark.parametrize("argv, error", [
    (["symbolic", "quartic"], "symbolic quartic needs --family or --array-file"),
    (["verify", "--theorem", "6", "--n", "5..3"], "empty range '5..3'"),
    (["solve", "--family", "ngon", "--n", "3..5"],
     "--n must be a single value here, got '3..5'"),
    (["solve", "--family", "hamming", "--N", "3"], "missing --q"),
], ids=["quartic-without-scheme", "empty-range", "range-for-one-value", "missing-flag"])
def test_usage_errors_exit_2_naming_the_problem(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("argv, stray", [
    (["quartic", "--family", "ngon", "--n", "6", "--points", "3"], "--points"),
    (["hamming-resultant", "--N", "5", "--family", "ngon"], "--family, --N"),
    (["bilinear-identities", "--family", "hamming", "--seed", "3"], "--family"),
], ids=["quartic", "hamming-resultant", "bilinear-identities"])
def test_symbolic_action_refuses_flags_it_does_not_read(capsys, argv, stray):
    code, out, err = run_cli(capsys, "symbolic", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: symbolic {argv[0]} does not read {stray} (it reads ")


@pytest.mark.parametrize("argv, stray, reads", [
    (["solve", "--family", "ngon", "--n", "6", "--N", "5", "--q", "9"], "--N, --q", "--n"),
    (["solve", "--family", "ngon", "--n", "6", "--q", "9", "--N", "5"], "--N, --q", "--n"),
    (["families", "--family", "custom", "--array-file", "arr.json", "--n", "4"], "--n",
     "--array-file"),
    (["oracle", "census", "--family", "ngon", "--n", "6", "--q", "3"], "--q", "--n"),
    (["symbolic", "quartic", "--family", "hamming", "--N", "3", "--q", "2", "--M", "2"],
     "--M", "--N, --q"),
    (["solve", "--family", "hamming", "--N", "3", "--q", "2", "--array-file", "arr.json"],
     "--array-file", "--N, --q"),
    (["symbolic", "quartic", "--array-file", "arr.json", "--N", "5", "--q", "2"],
     "--N, --q", "--array-file"),
], ids=["solve", "solve-reversed", "families", "oracle", "symbolic-quartic", "named-family-array-file",
        "array-file-without-family"])
def test_family_refuses_flags_it_does_not_read(capsys, argv, stray, reads):
    code, out, err = run_cli(capsys, *argv)
    named = f"--family {argv[argv.index('--family') + 1]}" if "--family" in argv else "--array-file"
    assert code == 2
    assert out == ""
    assert err == f"error: {named} does not read {stray} (it reads {reads})\n"


def test_family_choices_follow_the_family_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "census", "--family", "custom"])
    assert exc.value.code == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err


def test_symbolic_hamming_resultant(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "hamming-resultant")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["resultant"]["value_at_N3_q3"] == 82944


def test_table_format_smoke(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "hamming",
                           "--N", "3", "--q", "2", "--format", "table")
    assert code == 0
    assert "count: 6" in out


def test_table_format_prints_one_line_per_solution(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "ngon", "--n", "12",
                           "--format", "table")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("accepted")]
    assert [row.split(":", 1)[0] for row in rows] == [f"accepted[{k}]" for k in range(12)]
    assert all(" T0=" in row and " residual=" in row for row in rows)


def test_families_dump(capsys):
    code, out, _ = run_cli(capsys, "families", "--family", "hamming",
                           "--N", "3", "--q", "2")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["size"] == 8
    assert report["result"]["eigenvalues"] == [3, 1, -1, -3]


def test_timings_flag_adds_block(capsys):
    _, out, _ = run_cli(capsys, "solve", "--family", "ngon", "--n", "6",
                        "--timings")
    assert "wall_seconds" in json.loads(out)["timings" ]


def test_singular_cube_exits_2(monkeypatch, capsys):
    from spinsolve import solver

    def singular(*args, **kwargs):
        raise solver.SingularCubeError("cube of P diag(t) is numerically singular")

    monkeypatch.setattr(solver, "scalar_and_T0", singular)
    code, out, err = run_cli(capsys, "solve", "--family", "hamming",
                             "--N", "3", "--q", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cube of P diag(t) is numerically singular")
    assert "Traceback" not in err


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 2.98 GiB"), "error: Unable to allocate 2.98 GiB"),
    (MemoryError(), "error: MemoryError"),
], ids=["numpy-message", "bare"])
def test_out_of_memory_exits_2(monkeypatch, capsys, error, line):
    from spinsolve import families

    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(families, "eigenmatrix", out_of_memory)
    code, out, err = run_cli(capsys, "solve", "--family", "ngon", "--n", "12")
    assert code == 2
    assert out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("argv", [["solve", "--family", "hamming", "--N", "1020", "--q", "2"],
                                  ["families", "--family", "hamming", "--N", "600", "--q", "2"]],
                         ids=["solve-1020", "families-600"])
def test_overflowing_eigenmatrix_refusal_prints_one_error_line(argv):
    # a fresh process with every warning shown: numpy's overflow in the
    # eigenmatrix and in P @ P must not reach stderr ahead of the refusal
    env = dict(os.environ, PYTHONPATH=str(Path(spinsolve.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "always", "-m", "spinsolve.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: no eigenvalue ordering meets the self-duality tolerance")


def _big_array_file(tmp_path) -> str:
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"b": [10**200, 10**200 - 1], "c": [1, 10**199]}))
    return str(path)


@pytest.mark.parametrize("case", ["hamming", "custom"])
def test_quartic_beyond_float_range_prints_one_error_line(case, tmp_path):
    # b_0 = 10^200 fits a float, but the quartic's coefficients, quadratic
    # in b_0, do not: the refusal is one error line, not an OverflowError.
    # The custom array's b_1 c_2 = 10^399 leaves the float range first, so
    # its build refuses it before any quartic is formed.
    if case == "hamming":
        argv = ["solve", "--family", "hamming", "--N", "1", "--q", str(10**200 + 1)]
        expected = "error: quartic coefficients are too large for float arithmetic"
    else:
        argv = ["solve", "--family", "custom", "--array-file", _big_array_file(tmp_path)]
        expected = "error: b_1 c_2 is beyond the float range"
    env = dict(os.environ, PYTHONPATH=str(Path(spinsolve.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "spinsolve.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert errors == [expected]


@pytest.mark.parametrize("command", ["solve", "families"])
def test_intersection_matrix_beyond_float_range_prints_one_error_line(command, tmp_path):
    # every warning shown: b_1 c_2 = 10^399 overflows in numpy; neither
    # that overflow nor the NaN eigenvalues it would give reach the output
    argv = [command, "--family", "custom", "--array-file", _big_array_file(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(spinsolve.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "always", "-m", "spinsolve.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: b_1 c_2 is beyond the float range\n"
