"""Command-line front end: reports, determinism, exit codes."""

import json

import pytest

from spinsolve.cli import main


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
], ids=["infinity", "missing-b", "string-entry", "top-level-list"])
def test_malformed_array_schema_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "arr.json"
    path.write_text(payload, encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--family", "custom",
                           "--array-file", str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "bilinear",
                           "--M", "2", "--N", "2", "--q", "6")
    assert code == 2
    assert "prime power" in err


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


def test_verify_ngon_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "6", "--n", "6..8")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


def test_verify_alternating_within_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "4", "--n", "6",
                           "--q", "2")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


def test_verify_alternating_needs_cap_override(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "4", "--n", "7",
                           "--q", "2")
    assert code == 2 and "cap" in err
    code, out, _ = run_cli(capsys, "verify", "--theorem", "4", "--n", "7",
                           "--q", "2", "--max-points", "4000000")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


def test_verify_hermitian(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "5", "--n", "3",
                           "--q", "2")
    assert code == 0
    assert json.loads(out)["result"]["pass"]


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
