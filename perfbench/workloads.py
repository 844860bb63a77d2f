"""Seeded workload inputs and how one operation of each is run and checked.

Every input is generated here from the seed; spinsolve only receives it,
through its public functions (sweep, census) or its CLI (cli).  Each
operation's outcome is compared with expected.py, never with spinsolve's
own verdicts.
"""

from __future__ import annotations

import json
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spinsolve

import expected
from cli_child import MARKER

HAMMING_Q = (2, 3, 4, 5, 7)
HAMMING_MAX_N = 22
NGON_MAX = 400
NGON_SAMPLE = 40
RANDOM_ARRAYS = 200
RANDOM_CLASSES = (2, 3, 4, 5, 6)
BILINEAR_GRID = tuple((m, n, q) for m in (2, 3, 4) for n in range(m, 6) for q in HAMMING_Q)

# GF(2) spaces take the bit-packed rank path only.  Five spaces, the middle
# one well apart in cost from its neighbours, so the median census time is
# that of one space rather than the mean of two unlike ones.
CENSUS_GF2 = (("alternating", {"n": 7, "q": 2}), ("bilinear", {"M": 3, "N": 7, "q": 2}),
              ("bilinear", {"M": 4, "N": 5, "q": 2}), ("alternating", {"n": 6, "q": 2}),
              ("bilinear", {"M": 4, "N": 4, "q": 2}))
CENSUS_CFG = spinsolve.DEFAULT_CONFIG.with_(census_max_points=2_200_000)

# The largest child process is the one writing the largest n-gon report,
# and even n report twice the solutions, so one n-gon is always large and even.
CLI_NGONS = (range(3, 201), range(NGON_MAX - 18, NGON_MAX + 1, 2))
CLI_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 2.0


@dataclass
class Op:
    """One closed-loop operation: `run` performs it, `check` maps its
    outcome to None (correct) or a failure reason; `weight` is the work
    it counts for in the throughput (instances, points or invocations)."""

    key: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    weight: int = 1


# -- sweep -------------------------------------------------------------------


def random_array(rng: random.Random, n_classes: int) -> spinsolve.IntersectionArray:
    """Valid float array: b_i + c_i <= b_0 keeps every a_i nonnegative."""
    b0 = rng.uniform(1.0, 10.0)
    b, c = [b0], []
    for _ in range(1, n_classes):
        ci = rng.uniform(0.05, 0.9 * b0)
        b.append(rng.uniform(0.05, b0 - ci))
        c.append(ci)
    c.append(rng.uniform(0.05, b0))
    return spinsolve.IntersectionArray(b, c)


def ngon_sample(rng: random.Random) -> list[int]:
    """One n from each of NGON_SAMPLE equal bins of 3..NGON_MAX, odd and
    even bins in turn (even n have twice the solutions to verify), so the
    matrix sizes, and the pass's cost, vary little from seed to seed.  The
    first bin is odd, which keeps the square out of the sample."""
    span = NGON_MAX - 2
    sample = []
    for i in range(NGON_SAMPLE):
        lo, hi = 3 + i * span // NGON_SAMPLE, 2 + (i + 1) * span // NGON_SAMPLE
        n = rng.randint(lo, hi)
        if n % 2 == i % 2:
            n = n + 1 if n < hi else n - 1
        sample.append(n)
    return sample


def _family_op(family: str, params: dict) -> Op:
    spec = spinsolve.FamilySpec(family, params)
    key = expected.instance_key(family, params)

    def run():
        return spinsolve.solve(spinsolve.build(spec))

    def check(outcome) -> str | None:
        if expected.is_square(family, params):
            if isinstance(outcome, spinsolve.solver.DegenerateSchemeError):
                return None
            return f"expected DegenerateSchemeError, got {_describe(outcome)}"
        if isinstance(outcome, Exception):
            return f"raised {_describe(outcome)}"
        return expected.check_solution_set(family, params, outcome.count, outcome.accepted_x())

    return Op(key, key, run, check)


def _custom_op(index: int, arr: spinsolve.IntersectionArray) -> Op:
    key = f"random-array#{index}({arr.n_classes} classes)"

    def run():
        return spinsolve.solve(spinsolve.build_custom(arr))

    def check(outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"raised {_describe(outcome)}"
        return expected.check_bound(outcome.count, outcome.accepted_x())

    return Op(key, key, run, check)


def sweep_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [_family_op("hamming", {"N": n, "q": q})
           for q in HAMMING_Q for n in range(1, HAMMING_MAX_N + 1)]
    ops += [_family_op("ngon", {"n": n}) for n in [4] + ngon_sample(rng)]
    ops += [_family_op("bilinear", {"M": m, "N": n, "q": q}) for m, n, q in BILINEAR_GRID]
    ops += [_custom_op(i, random_array(rng, RANDOM_CLASSES[i % len(RANDOM_CLASSES)]))
            for i in range(RANDOM_ARRAYS)]
    rng.shuffle(ops)
    return ops


# -- census ------------------------------------------------------------------


def census_ops(seed: int) -> list[Op]:
    ops = []
    for family, params in CENSUS_GF2:
        space = spinsolve.PointSpace(spinsolve.FamilySpec(family, params))
        key = expected.instance_key(family, params)
        ops.append(Op(key, f"census {key}", _census_runner(family, params),
                      _census_checker(family, params), weight=int(space.n_points)))
    random.Random(seed).shuffle(ops)
    return ops


def _census_runner(family: str, params: dict):
    def run():
        return spinsolve.census(spinsolve.PointSpace(spinsolve.FamilySpec(family, params)),
                                CENSUS_CFG)
    return run


def _census_checker(family: str, params: dict):
    def check(outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"raised {_describe(outcome)}"
        arr = outcome.derived_array()
        return expected.check_census_array(
            family, params, [int(x) for x in arr.b], [int(x) for x in arr.c],
            [int(x) for x in arr.a], outcome.class_sizes, outcome.point_count)
    return check


# -- cli ---------------------------------------------------------------------


@dataclass
class CliResult:
    code: int | None  # None: killed at the time limit
    stdout: str
    stderr: str
    trace: dict | None = None


def cli_specs(seed: int, workdir: Path) -> list[tuple[str, str, list[str], Callable, float]]:
    """(key, label, argv, check, time limit) for every invocation of a pass.
    Writes the seeded array files into workdir."""
    rng = random.Random(seed)
    specs = []

    # Two of each solve, so that two passes hold enough short invocations
    # for a 75th-percentile tail.
    for index, ngons in enumerate(CLI_NGONS):
        n, q = rng.randint(1, HAMMING_MAX_N), rng.choice(HAMMING_Q)
        specs.append(_cli_solve("hamming", {"N": n, "q": q}))
        specs.append(_cli_solve("ngon", {"n": rng.choice(ngons)}))
        m, n, q = rng.choice(BILINEAR_GRID)
        specs.append(_cli_solve("bilinear", {"M": m, "N": n, "q": q}))
        arr = _random_int_array(rng)
        arr_path = workdir / f"custom{index}.json"
        arr_path.write_text(json.dumps(arr))
        check = _expect_code(2, None) if expected.is_square_array(arr["b"], arr["c"]) else \
            _expect_code(0, lambda r: expected.check_bound(r["count"], _accepted_x(r)))
        specs.append((f"custom-array#{index}", f"solve custom array-file #{index}",
                      ["solve", "--family", "custom", "--array-file", str(arr_path)],
                      check, CLI_TIMEOUT_S))

    specs.append(("hermitian(3,2)", "families hermitian(3,2)",
                  ["families", "--family", "hermitian", "--n", "3", "--q", "2"],
                  _expect_code(0, lambda r: expected.check_census_array(
                      "hermitian", {"n": 3, "q": 2}, r["array"]["b"], r["array"]["c"],
                      r["array"]["a"], r["array"]["valencies"], r["size"])),
                  CLI_TIMEOUT_S))
    specs.append(("theorem-1", "verify --theorem 1",
                  ["verify", "--theorem", "1", "--seed", str(seed)],
                  _expect_code(0, _check_theorem_bound), CLI_TIMEOUT_S))
    specs.append(("theorem-2", "verify --theorem 2", ["verify", "--theorem", "2"],
                  _expect_code(0, _check_theorem_counts("hamming")), CLI_TIMEOUT_S))
    specs.append(("theorem-6", "verify --theorem 6", ["verify", "--theorem", "6"],
                  _expect_code(0, _check_theorem_counts("ngon")), CLI_TIMEOUT_S))
    specs.append(("oracle-bilinear(3,3,3)", "oracle verify bilinear(3,3,3)",
                  ["oracle", "verify", "--family", "bilinear", "--M", "3", "--N", "3", "--q", "3"],
                  _expect_code(0, lambda r: expected.check_census_array(
                      "bilinear", {"M": 3, "N": 3, "q": 3}, r["census"]["array"]["b"],
                      r["census"]["array"]["c"], r["census"]["array"]["a"],
                      r["census"]["class_sizes"], r["census"]["point_count"])),
                  CLI_TIMEOUT_S))
    specs.append(("hamming-resultant", "symbolic hamming-resultant",
                  ["symbolic", "hamming-resultant"],
                  _expect_code(0, lambda r: None if r.get("ok") is True
                               and r["resultant"]["value_at_N3_q3"] == 82944
                               else "report not ok"),
                  CLI_TIMEOUT_S))
    specs.append(("bilinear-identities", "symbolic bilinear-identities",
                  ["symbolic", "bilinear-identities", "--seed", str(seed)],
                  _expect_code(0, lambda r: None if r.get("ok") is True else "report not ok"),
                  CLI_TIMEOUT_S))

    for name, payload in _malformed_arrays(rng):
        path = workdir / f"{name}.json"
        path.write_text(payload)
        specs.append((f"array-file:{name}", f"solve malformed array-file ({name})",
                      ["solve", "--family", "custom", "--array-file", str(path)],
                      _expect_code(2, None), CLI_TIMEOUT_S))

    # Unbounded build: must finish within the limit with the right count, or
    # be refused with exit 2.
    specs.append(("hamming(30,5)", f"solve hamming(30,5) [{PROBE_TIMEOUT_S:g} s limit]",
                  ["solve", "--family", "hamming", "--N", "30", "--q", "5"],
                  _check_probe, PROBE_TIMEOUT_S))
    return specs


def _cli_solve(family: str, params: dict):
    key = expected.instance_key(family, params)
    argv = ["solve", "--family", family]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]
    if expected.is_square(family, params):
        return key, f"solve {key}", argv, _expect_code(2, None), CLI_TIMEOUT_S

    def check(report):
        return expected.check_solution_set(family, params, report["count"], _accepted_x(report))

    return key, f"solve {key}", argv, _expect_code(0, check), CLI_TIMEOUT_S


def _accepted_x(report: dict) -> list[complex]:
    return [complex(s["x"]["re"], s["x"]["im"]) for s in report["accepted"]]


def _random_int_array(rng: random.Random) -> dict:
    n_classes = rng.randint(2, 6)
    b0 = rng.randint(4, 12)
    b, c = [b0], []
    for _ in range(1, n_classes):
        ci = rng.randint(1, b0 - 2)
        b.append(rng.randint(1, b0 - ci))
        c.append(ci)
    c.append(rng.randint(1, b0))
    return {"b": b, "c": c}


def _malformed_arrays(rng: random.Random) -> list[tuple[str, str]]:
    good = _random_int_array(rng)
    b, c = good["b"], good["c"]
    pos = rng.randrange(len(b))
    inf_b, str_b = list(b), list(b)
    inf_b[pos] = float("inf")  # json writes it as the non-standard token Infinity
    str_b[pos] = "x"
    return [
        ("infinity", json.dumps({"b": inf_b, "c": c})),
        ("missing-b", json.dumps({"c": c})),
        ("string-entry", json.dumps({"b": str_b, "c": c})),
        ("top-level-list", json.dumps([b, c])),
    ]


def _expect_code(code: int, check_report):
    def check(result: CliResult) -> str | None:
        if result.code is None:
            return "timed out"
        if result.code != code:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {result.code} != {code}: {tail[0][:120]}"
        if check_report is None:
            return None
        try:
            report = json.loads(result.stdout)["result"]
        except (ValueError, KeyError) as err:
            return f"unreadable report: {err!r}"
        return check_report(report)
    return check


def _check_probe(result: CliResult) -> str | None:
    if result.code == 2:
        return None
    return _expect_code(0, lambda r: expected.check_solution_set(
        "hamming", {"N": 30, "q": 5}, r["count"], _accepted_x(r)))(result)


def _check_theorem_bound(report: dict) -> str | None:
    for rec in report["instances"]:
        if rec["count"] > expected.MAX_SOLUTIONS:
            return f"instance {rec.get('index')} has {rec['count']} solutions"
    return None


def _check_theorem_counts(family: str):
    def check(report: dict) -> str | None:
        for rec in report["instances"]:
            params = {"N": rec["N"], "q": rec["q"]} if family == "hamming" else {"n": rec["n"]}
            want = expected.expected_count(family, params)
            if rec["count"] != want:
                return f"{expected.instance_key(family, params)} count {rec['count']} != {want}"
        return None
    return check


def cli_ops(seed: int, workdir: Path, base_cmd: list[str], env: dict, cwd: Path) -> list[Op]:
    """Each op spawns base_cmd + argv as a fresh process and waits for it."""
    ops = []
    for key, label, argv, check, limit in cli_specs(seed, workdir):
        ops.append(Op(key, label, _spawner(base_cmd + argv, env, cwd, limit), check))
    return ops


def _spawner(cmd: list[str], env: dict, cwd: Path, limit: float):
    def run() -> CliResult:
        try:
            proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                                  timeout=limit)
        except subprocess.TimeoutExpired as err:
            return CliResult(None, _text(err.stdout), _text(err.stderr))
        trace, stderr = None, []
        for line in proc.stderr.splitlines():
            if line.startswith(MARKER):
                trace = json.loads(line[len(MARKER):])
            else:
                stderr.append(line)
        return CliResult(proc.returncode, proc.stdout, "\n".join(stderr), trace)
    return run


def _text(data) -> str:
    if isinstance(data, bytes):
        return data.decode(errors="replace")
    return data or ""


def _describe(outcome) -> str:
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {str(outcome)[:100]}"
    return type(outcome).__name__


def input_summary(ops: list[Op]) -> dict:
    """Pass composition: how many operations of each kind one pass holds."""
    kinds: dict[str, int] = {}
    for op in ops:
        kind = op.key.split("(")[0].split("#")[0].split(":")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {"operations": len(ops), "by_kind": kinds,
            "weight": sum(op.weight for op in ops)}


def inprocess_ops(workload: str, seed: int) -> list[Op]:
    """Inputs of the workloads that call spinsolve's functions directly."""
    if workload == "sweep":
        return sweep_ops(seed)
    return census_ops(seed)
