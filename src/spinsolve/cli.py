"""Batch command-line front end.

Subcommands:

  solve      enumerate the diagonal solutions for one scheme
  families   dump a built scheme instance (array, eigenvalues, eigenmatrix)
  oracle     exhaustive census of a point space, or census-vs-closed-form check
  verify     run a numbered classification claim over a parameter range
  symbolic   exact identity reports (quartic, factorization/resultant,
             bilinear elimination)

Only core is imported here; each handler imports the modules it runs, so
a command that computes no numbers never loads numpy.

Reports are JSON on stdout (floats use shortest round-trip repr, so a
fixed invocation is byte-identical run to run); wall-clock timings go to
stderr unless --timings pulls them into the report.  Exit codes: 0 = ran
and all assertions passed, 1 = an assertion mismatched, 2 = usage error,
a numerically singular cube (U diag t)^3 or a command out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from . import __version__
from .core import (DEFAULT_CONFIG, FAMILIES, FAMILY_PARAMS, BuildError, CensusError,
                   DegenerateSchemeError, IntersectionArray, SingularCubeError, SolverConfig,
                   dumps_report, to_jsonable)

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


def _family_spec(args):
    from .families import FamilySpec

    return FamilySpec(args.family, {name: _one(getattr(args, name), f"--{name}")
                                    for name in FAMILY_PARAMS[args.family]})


def _one(value, flag: str) -> int:
    if value is None:
        raise ValueError(f"missing {flag}")
    vals = _parse_range(value)
    if len(vals) != 1:
        raise ValueError(f"{flag} must be a single value here, got {value!r}")
    return vals[0]


def _given(**flags) -> dict:
    """The flags that were given; one not given keeps its reader's default."""
    return {name: value for name, value in flags.items() if value is not None}


def _config(args) -> SolverConfig:
    """--tol and the oracle's --max-points; a flag not given keeps its default."""
    return DEFAULT_CONFIG.with_(**_given(residual_tol=args.tol,
                                         census_max_points=getattr(args, "max_points", None)))


def _report(args, cfg: SolverConfig, result, elapsed: float) -> None:
    """The report (JSON, or the table) on stdout; the wall time on stderr."""
    action = getattr(args, f"{args.command}_action", None)
    command = f"{args.command} {action}" if action else args.command
    if args.format == "json":
        payload = {
            "command": command,
            "version": __version__,
            "config": dataclasses.asdict(cfg),
            "args": _given(**{**vars(args), "func": None}),  # the flags, not the handler
            "result": result,
        }
        if args.timings:
            payload["timings"] = {"wall_seconds": elapsed}
        print(dumps_report(payload))
    else:
        _print_table(result)
    print(f"[{command}] {elapsed:.3f}s", file=sys.stderr)


def _print_table(result) -> None:
    data = to_jsonable(result)

    def emit(key: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:")
            widths = [max(len(_fmt(cell)) for cell in col) for col in zip(*value)]
            for row in value:
                print("   " + "  ".join(_fmt(c).rjust(w) for c, w in zip(row, widths)))
        elif isinstance(value, list) and value and isinstance(value[0], dict) \
                and set(value[0]) != {"re", "im"}:
            # records (solutions, rejected x, instances): one line each
            for k, item in enumerate(value):
                print(f"{key}[{k}]: {_fmt(item)}")
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


# The family flags each family reads; giving a family any other is a usage
# error.
FAMILY_FLAGS = {**FAMILY_PARAMS, "custom": ("array_file",)}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _refuse_stray_flags(args, subject: str, table: dict, key) -> None:
    """Refuse every flag the table names that was given but is not among
    table[key], the flags the subject reads; they are listed in the
    parser's declaration order, which is the order of vars(args)."""
    reads = table[key]
    named = {name for names in table.values() for name in names}
    stray = [name for name, value in vars(args).items()
             if name in named and name not in reads and value is not None]
    if stray:
        it_reads = ", ".join(map(_flag, reads)) or "no flags of its own"
        raise ValueError(f"{subject} does not read {', '.join(map(_flag, stray))} "
                         f"(it reads {it_reads})")


def _check_family_flags(args) -> None:
    """Refuse a family flag the family does not read; --array-file without
    --family names the custom family."""
    subject = f"--family {args.family}" if args.family else "--array-file"
    _refuse_stray_flags(args, subject, FAMILY_FLAGS, args.family or "custom")


def _build_scheme(args):
    if not (args.family or args.array_file):  # only symbolic quartic may name neither
        raise ValueError("symbolic quartic needs --family or --array-file")
    _check_family_flags(args)
    if args.family == "custom" or args.array_file:
        if not args.array_file:
            raise ValueError("--family custom requires --array-file")
        arr = _load_array(args.array_file)  # a malformed file is refused before numpy loads
        from .families import build_custom

        return build_custom(arr)
    from .families import build

    return build(_family_spec(args))


# -- subcommand handlers ----------------------------------------------------


# Each handler takes the parsed flags and the config they set, imports what
# it runs, and returns (result, exit code); main times it and reports the
# result.


def _cmd_solve(args, cfg: SolverConfig):
    scheme = _build_scheme(args)
    from .solver import solve

    return solve(scheme, cfg), 0


def _cmd_families(args, cfg: SolverConfig):
    return _build_scheme(args), 0


def _cmd_oracle(args, cfg: SolverConfig):
    from .oracle import PointSpace, census, verify_family

    _check_family_flags(args)
    spec = _family_spec(args)
    if args.oracle_action == "census":
        return census(PointSpace(spec), cfg), 0
    result = verify_family(spec, cfg)
    return result, 0 if result["match"] else ASSERTION_ERROR


def _cmd_verify(args, cfg: SolverConfig):
    from . import theorems

    result = theorems.verify_theorem(args.theorem, cfg, **_claim_kwargs(args))
    return result, 0 if result["pass"] else ASSERTION_ERROR


# The flags each claim reads; giving a claim any other is a usage error.
CLAIM_FLAGS = {1: ("random_arrays", "seed"), 2: ("N", "q"), 3: ("M", "N", "q"),
               4: ("n", "q"), 5: ("n", "q"), 6: ("n",)}


def _claim_kwargs(args) -> dict:
    """verify_theorem's keyword arguments from the flags of one claim that
    were given; the claim's own defaults fill the rest."""
    claim, reads = args.theorem, CLAIM_FLAGS[args.theorem]
    _refuse_stray_flags(args, f"--theorem {claim}", CLAIM_FLAGS, claim)
    given = _given(**{name: getattr(args, name) for name in reads})
    if claim == 1:
        if given.get("random_arrays", 1) < 1:
            raise ValueError(f"--random-arrays must be at least 1, got {args.random_arrays}")
        return _given(n_random=args.random_arrays, seed=args.seed)
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
# usage error.
SYMBOLIC_FLAGS = {"quartic": ("family", "N", "M", "q", "n", "array_file"),
                  "hamming-resultant": (),
                  "bilinear-identities": ("seed",)}


def _cmd_symbolic(args, cfg: SolverConfig):
    from .symbolic import (
        bilinear_identity_checks,
        hamming_factor_check,
        hamming_resultant_check,
        symbolic_quartic,
    )

    if args.symbolic_action == "quartic":
        scheme = _build_scheme(args)
        arr = scheme.array
        theta1 = scheme.theta[1]
        b1 = arr.b_at(1)
        exact = all(v.denominator == 1 for v in (arr.a[1], b1, arr.c[0]))
        if exact and float(theta1).is_integer():
            coeffs = symbolic_quartic(int(theta1), int(arr.a[1]), int(b1), int(arr.c[0]))
        else:
            from .solver import candidate_quartic

            coeffs = candidate_quartic(arr, scheme.theta)
        result = {"family": scheme.family, "params": scheme.params,
                  "coefficients_high_to_low": coeffs, "ok": True}
    elif args.symbolic_action == "hamming-resultant":
        result = {"factorization": hamming_factor_check(),
                  "resultant": hamming_resultant_check()}
        result["ok"] = result["factorization"]["ok"] and result["resultant"]["ok"]
    else:  # bilinear-identities
        result = bilinear_identity_checks(**_given(seed=args.seed))
    return result, 0 if result["ok"] else ASSERTION_ERROR


# -- parser ------------------------------------------------------------------


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", help="word length / matrix columns")
    parser.add_argument("--M", help="matrix rows (bilinear)")
    parser.add_argument("--q", help="alphabet or field order")
    parser.add_argument("--n", help="matrix size / polygon size")


def _add_family_flags(parser: argparse.ArgumentParser, with_custom: bool = True,
                      required: bool = True) -> None:
    choices = FAMILIES if with_custom else tuple(f for f in FAMILIES if f != "custom")
    parser.add_argument("--family", required=required, choices=choices)
    _add_param_flags(parser)
    if with_custom:
        parser.add_argument("--array-file", help="JSON intersection array")


def _add_common_flags(parser: argparse.ArgumentParser, census: bool = False) -> None:
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--tol", type=float, help="residual tolerance override")
    if census:  # only the oracle runs a census
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

    for name, summary, func in (("solve", "enumerate diagonal solutions", _cmd_solve),
                                ("families", "dump a built scheme instance", _cmd_families)):
        p = sub.add_parser(name, help=summary)
        _add_family_flags(p)
        _add_common_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="point-space census utilities")
    p.add_argument("oracle_action", choices=["census", "verify"])
    _add_family_flags(p, with_custom=False)
    _add_common_flags(p, census=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a numbered classification claim")
    p.add_argument("--theorem", type=int, required=True, choices=range(1, 7))
    _add_param_flags(p)
    p.add_argument("--random-arrays", type=int)
    p.add_argument("--seed", type=int)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("symbolic", help="exact identity reports")
    p.add_argument("symbolic_action",
                   choices=["quartic", "hamming-resultant", "bilinear-identities"])
    _add_family_flags(p, required=False)
    p.add_argument("--seed", type=int)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_symbolic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "symbolic":  # stray flags are refused before --tol is read
            action = args.symbolic_action
            _refuse_stray_flags(args, f"symbolic {action}", SYMBOLIC_FLAGS, action)
        cfg = _config(args)
        start = time.perf_counter()
        result, code = args.func(args, cfg)
        _report(args, cfg, result, time.perf_counter() - start)
        return code
    except (BuildError, CensusError, DegenerateSchemeError, SingularCubeError,
            ValueError, OSError, json.JSONDecodeError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
