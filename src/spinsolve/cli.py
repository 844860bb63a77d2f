"""Batch command-line front end.

Subcommands:

  solve      enumerate the diagonal solutions for one scheme
  families   dump a built scheme instance (array, eigenvalues, eigenmatrix)
  oracle     exhaustive census of a point space, or census-vs-closed-form check
  verify     run a numbered classification claim over a parameter range
  symbolic   exact identity reports (quartic, factorization/resultant,
             bilinear elimination)

Reports are JSON on stdout (floats use shortest round-trip repr, so a
fixed invocation is byte-identical run to run); wall-clock timings go to
stderr unless --timings pulls them into the report.  Exit codes: 0 = ran
and all assertions passed, 1 = an assertion mismatched, 2 = usage error
or a numerically singular cube (U diag t)^3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from . import __version__, theorems
from .core import DEFAULT_CONFIG, IntersectionArray, SolverConfig, dumps_report, to_jsonable
from .families import FAMILIES, FAMILY_PARAMS, BuildError, FamilySpec, build, build_custom
from .oracle import CensusError, PointSpace, census, verify_family
from .solver import DegenerateSchemeError, SingularCubeError, candidate_quartic, solve
from .symbolic import (
    bilinear_identity_checks,
    hamming_factor_check,
    hamming_resultant_check,
    symbolic_quartic,
)

USAGE_ERROR = 2
ASSERTION_ERROR = 1


def _parse_range(text: str) -> list[int]:
    """'4' -> [4]; '3..6' -> [3, 4, 5, 6]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _family_spec(args) -> FamilySpec:
    fam = args.family
    if fam not in FAMILY_PARAMS:
        raise ValueError(f"--family {fam} needs --array-file")
    return FamilySpec(fam, {name: _one(getattr(args, name), f"--{name}")
                            for name in FAMILY_PARAMS[fam]})


def _one(value, flag: str) -> int:
    if value is None:
        raise ValueError(f"missing {flag}")
    vals = _parse_range(value)
    if len(vals) != 1:
        raise ValueError(f"{flag} must be a single value here, got {value!r}")
    return vals[0]


def _config(args) -> SolverConfig:
    cfg = DEFAULT_CONFIG
    overrides = {}
    if getattr(args, "tol", None) is not None:
        overrides["residual_tol"] = args.tol
    if getattr(args, "max_points", None) is not None:
        overrides["census_max_points"] = args.max_points
    return cfg.with_(**overrides) if overrides else cfg


def _report(command: str, args_echo: dict, cfg: SolverConfig, result,
            elapsed: float, fmt: str, timings: bool) -> None:
    if fmt == "json":
        payload = {
            "command": command,
            "version": __version__,
            "config": dataclasses.asdict(cfg),
            "args": args_echo,
            "result": to_jsonable(result),
        }
        if timings:
            payload["timings"] = {"wall_seconds": elapsed}
        print(dumps_report(payload))
    else:
        _print_table(result)
    print(f"[{command}] {elapsed:.3f}s", file=sys.stderr)


def _print_table(result) -> None:
    data = to_jsonable(result)

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}.", v) if isinstance(v, (dict,)) else \
                    emit_row(f"{prefix}{k}", v)
        else:
            emit_row(prefix.rstrip("."), value)

    def emit_row(key: str, value) -> None:
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:")
            widths = [max(len(_fmt(cell)) for cell in col) for col in zip(*value)]
            for row in value:
                print("   " + "  ".join(_fmt(c).rjust(w) for c, w in zip(row, widths)))
        else:
            print(f"{key}: {_fmt(value)}")

    def _fmt(v) -> str:
        if isinstance(v, dict) and set(v) == {"re", "im"}:
            return f"{v['re']:+.6g}{v['im']:+.6g}i"
        if isinstance(v, dict):
            return " ".join(f"{k}={_fmt(x)}" for k, x in v.items())
        if isinstance(v, float):
            return f"{v:.6g}"
        if isinstance(v, list):
            return "[" + ", ".join(_fmt(x) for x in v) + "]"
        return str(v)

    emit("", data)


def _load_array(path: str) -> IntersectionArray:
    """Read {"b": [...], "c": [...], "a": [...] (optional)} from a JSON file;
    any other shape raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object with \"b\" and \"c\" lists")
    for key in ("b", "c", "a"):
        if key == "a" and data.get(key) is None:
            continue
        if key not in data:
            raise ValueError(f"{path}: missing \"{key}\"")
        values = data[key]
        if not (isinstance(values, list) and all(map(_is_finite_number, values))):
            raise ValueError(f"{path}: \"{key}\" must be a list of finite numbers")
    return IntersectionArray.from_dict(data)


def _is_finite_number(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


def _build_scheme(args, cfg: SolverConfig):
    if args.family == "custom" or args.array_file:
        if not args.array_file:
            raise ValueError("--family custom requires --array-file")
        return build_custom(_load_array(args.array_file), cfg)
    return build(_family_spec(args), cfg)


# -- subcommand handlers ----------------------------------------------------


def _cmd_solve(args) -> int:
    cfg = _config(args)
    start = time.perf_counter()
    scheme = _build_scheme(args, cfg)
    result = solve(scheme, cfg)
    _report("solve", _echo(args), cfg, result, time.perf_counter() - start,
            args.format, args.timings)
    return 0


def _cmd_families(args) -> int:
    cfg = _config(args)
    start = time.perf_counter()
    scheme = _build_scheme(args, cfg)
    _report("families", _echo(args), cfg, scheme, time.perf_counter() - start,
            args.format, args.timings)
    return 0


def _cmd_oracle(args) -> int:
    cfg = _config(args)
    start = time.perf_counter()
    spec = _family_spec(args)
    if args.oracle_action == "census":
        result = census(PointSpace(spec), cfg)
        code = 0
    else:
        result = verify_family(spec, cfg)
        code = 0 if result["match"] else ASSERTION_ERROR
    _report(f"oracle {args.oracle_action}", _echo(args), cfg, result,
            time.perf_counter() - start, args.format, args.timings)
    return code


def _cmd_verify(args) -> int:
    cfg = _config(args)
    start = time.perf_counter()
    result = theorems.verify_theorem(args.theorem, cfg, **_claim_kwargs(args))
    _report("verify", _echo(args), cfg, result, time.perf_counter() - start,
            args.format, args.timings)
    return 0 if result["pass"] else ASSERTION_ERROR


# The range flags each claim reads; giving a claim any other is a usage error.
CLAIM_FLAGS = {1: ("random_arrays",), 2: ("N", "q"), 3: ("M", "N", "q"),
               4: ("n", "q"), 5: ("n", "q"), 6: ("n",)}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _claim_kwargs(args) -> dict:
    """verify_theorem's keyword arguments from the range flags of one claim."""
    claim, reads = args.theorem, CLAIM_FLAGS[args.theorem]
    given = {name: getattr(args, name) for name in ("N", "M", "q", "n", "random_arrays")
             if getattr(args, name) is not None}
    for name in given:
        if name not in reads:
            raise ValueError(f"--theorem {claim} does not read {_flag(name)} "
                             f"(it reads {', '.join(map(_flag, reads))})")
    if claim == 1:
        n_random = given.get("random_arrays", 200)
        if n_random < 1:
            raise ValueError(f"--random-arrays must be at least 1, got {n_random}")
        return {"n_random": n_random, "seed": args.seed}
    ranges = {name: _parse_range(value) for name, value in given.items()}
    if claim == 2:
        return {key: ranges[name] for name, key in (("N", "n_range"), ("q", "q_range"))
                if name in ranges}
    if claim == 3:
        missing = [_flag(name) for name in reads if name not in ranges]
        if ranges and missing:
            raise ValueError(f"--theorem 3 reads --M, --N and --q together; "
                             f"missing {', '.join(missing)}")
        return {"instances": [(m, n, q) for m in ranges["M"] for n in ranges["N"]
                              for q in ranges["q"]]} if ranges else {}
    if claim in (4, 5):
        if "q" in ranges and "n" not in ranges:
            raise ValueError(f"--theorem {claim} reads --q only together with --n")
        return {"instances": [{"n": n, "q": q} for n in ranges["n"]
                              for q in ranges.get("q", [2])]} if ranges else {}
    return {"n_range": ranges["n"]} if ranges else {}


# The flags each symbolic action reads; giving an action any other is a
# usage error.  --seed and --points are checked before their defaults are
# filled in, which every report echoes as before.
SYMBOLIC_FLAGS = {"quartic": ("family", "N", "M", "q", "n", "array_file"),
                  "hamming-resultant": (),
                  "bilinear-identities": ("seed", "points")}
SYMBOLIC_DEFAULTS = {"seed": 7, "points": 20}


def _check_symbolic_flags(args) -> None:
    """Refuse a flag the action does not read, then fill in its defaults."""
    action, reads = args.symbolic_action, SYMBOLIC_FLAGS[args.symbolic_action]
    stray = [name for name in ("family", "N", "M", "q", "n", "array_file", "seed", "points")
             if name not in reads and getattr(args, name) is not None]
    if stray:
        it_reads = ", ".join(map(_flag, reads)) or "no flags of its own"
        raise ValueError(f"symbolic {action} does not read "
                         f"{', '.join(map(_flag, stray))} (it reads {it_reads})")
    for name, value in SYMBOLIC_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _cmd_symbolic(args) -> int:
    _check_symbolic_flags(args)
    cfg = _config(args)
    start = time.perf_counter()
    if args.symbolic_action == "quartic":
        scheme = _build_scheme(args, cfg)
        arr = scheme.array
        theta1 = scheme.theta[1]
        b1 = arr.b_at(1)
        exact = all(v.denominator == 1 for v in (arr.a[1], b1, arr.c[0]))
        if exact and float(theta1).is_integer():
            coeffs = symbolic_quartic(int(theta1), int(arr.a[1]), int(b1), int(arr.c[0]))
        else:
            coeffs = candidate_quartic(arr, scheme.theta)
        result = {"family": scheme.family, "params": scheme.params,
                  "coefficients_high_to_low": coeffs, "ok": True}
        code = 0
    elif args.symbolic_action == "hamming-resultant":
        result = {"factorization": hamming_factor_check(),
                  "resultant": hamming_resultant_check()}
        result["ok"] = result["factorization"]["ok"] and result["resultant"]["ok"]
        code = 0 if result["ok"] else ASSERTION_ERROR
    else:  # bilinear-identities
        result = bilinear_identity_checks(seed=args.seed, points=args.points)
        code = 0 if result["ok"] else ASSERTION_ERROR
    _report(f"symbolic {args.symbolic_action}", _echo(args), cfg, result,
            time.perf_counter() - start, args.format, args.timings)
    return code


def _echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# -- parser ------------------------------------------------------------------


def _add_family_flags(parser: argparse.ArgumentParser, with_custom: bool = True) -> None:
    choices = FAMILIES if with_custom else tuple(f for f in FAMILIES if f != "custom")
    parser.add_argument("--family", required=True, choices=choices)
    parser.add_argument("--N", help="word length / matrix columns")
    parser.add_argument("--M", help="matrix rows (bilinear)")
    parser.add_argument("--q", help="alphabet or field order")
    parser.add_argument("--n", help="matrix size / polygon size")
    if with_custom:
        parser.add_argument("--array-file", help="JSON intersection array")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--tol", type=float, help="residual tolerance override")
    parser.add_argument("--max-points", type=int, help="census size cap override")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsolve",
        description="diagonal solutions of (PT)^3 = I over self-dual "
                    "P-polynomial association schemes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="enumerate diagonal solutions")
    _add_family_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("families", help="dump a built scheme instance")
    _add_family_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("oracle", help="point-space census utilities")
    p.add_argument("oracle_action", choices=["census", "verify"])
    _add_family_flags(p, with_custom=False)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a numbered classification claim")
    p.add_argument("--theorem", type=int, required=True, choices=range(1, 7))
    p.add_argument("--N")
    p.add_argument("--M")
    p.add_argument("--q")
    p.add_argument("--n")
    p.add_argument("--random-arrays", type=int)
    p.add_argument("--seed", type=int, default=7)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("symbolic", help="exact identity reports")
    p.add_argument("symbolic_action",
                   choices=["quartic", "hamming-resultant", "bilinear-identities"])
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--N")
    p.add_argument("--M")
    p.add_argument("--q")
    p.add_argument("--n")
    p.add_argument("--array-file")
    p.add_argument("--seed", type=int)
    p.add_argument("--points", type=int)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_symbolic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BuildError, CensusError, DegenerateSchemeError, SingularCubeError,
            ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
