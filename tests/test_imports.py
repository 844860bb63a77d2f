"""What `import spinsolve` and each command load, each in a fresh
interpreter: the package resolves its public names lazily, so numpy and
the submodules load only when something computes with them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsolve
from spinsolve import core

SRC = str(Path(spinsolve.__file__).parents[1])

# Each public name by the module that defines it.
HOMES = {
    "core": ("DEFAULT_CONFIG", "IntersectionArray", "SchemeCensus", "SchemeInstance",
             "SolutionCandidate", "SolverConfig", "valencies", "validate_array"),
    "families": ("FamilySpec", "build", "build_custom", "eigenmatrix",
                 "eigenvalues_from_array"),
    "oracle": ("PointSpace", "census", "rank", "verify_family"),
    "solver": ("SolutionSet", "candidate_quartic", "filter_x", "roots_of_quartic",
               "scalar_and_T0", "solve", "t_profile", "verify_solution"),
}
SUBMODULES = ("core", "families", "ffield", "oracle", "solver")


def fresh(code: str) -> object:
    """Run code in a new interpreter with OPENBLAS_NUM_THREADS unset and
    this spinsolve on its path; return the JSON it prints last."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_numpy_and_pins_openblas_threads():
    loaded = fresh("import json, os, sys, spinsolve; print(json.dumps("
                   "[os.environ.get('OPENBLAS_NUM_THREADS'), sorted(m for m in sys.modules "
                   "if m.split('.')[0] in ('numpy', 'spinsolve'))]))")
    assert loaded == ["1", ["spinsolve"]]


def test_every_public_name_is_its_home_modules_object():
    same = fresh(f"import importlib, json, spinsolve; print(json.dumps("
                 f"{{name: getattr(spinsolve, name) is getattr(importlib.import_module("
                 f"'spinsolve.' + home), name) for home, names in {HOMES!r}.items() "
                 f"for name in names}}))")
    assert same == {name: True for names in HOMES.values() for name in names}
    assert spinsolve.__all__ == sorted(same) + ["__version__"]


def test_submodules_resolve_as_attributes():
    resolved = fresh(f"import json, sys, spinsolve; print(json.dumps("
                     f"[getattr(spinsolve, m) is sys.modules['spinsolve.' + m] "
                     f"for m in {SUBMODULES!r}]))")
    assert resolved == [True] * len(SUBMODULES)


def test_star_import_binds_every_public_name():
    bound = fresh("import json; from spinsolve import *; import spinsolve; "
                  "print(json.dumps([n for n in spinsolve.__all__ if n not in globals()]))")
    assert bound == []


@pytest.mark.parametrize("name", ["no_such_name", "dumps_report", "FAMILY_PARAMS"])
def test_an_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(spinsolve, name)


@pytest.mark.parametrize("home, name, base", [
    ("families", "BuildError", ValueError),
    ("solver", "DegenerateSchemeError", ValueError),
    ("oracle", "CensusError", RuntimeError),
    ("solver", "SingularCubeError", ArithmeticError),
])
def test_each_usage_error_is_core_s_under_its_module(home, name, base):
    error = getattr(getattr(spinsolve, home), name)
    assert error is getattr(core, name)
    assert error.__bases__ == (base,)


def loads(argv: list[str]) -> dict:
    """Exit code of cli.main(argv) and the spinsolve and numpy modules it
    leaves loaded, in a fresh interpreter."""
    return fresh(f"import contextlib, io, json, sys\n"
                 f"from spinsolve import cli\n"
                 f"with contextlib.redirect_stdout(io.StringIO()), "
                 f"contextlib.redirect_stderr(io.StringIO()):\n"
                 f"    code = cli.main({argv!r})\n"
                 f"print(json.dumps({{'code': code, 'modules': sorted(m for m in sys.modules "
                 f"if m.split('.')[0] in ('numpy', 'spinsolve'))}}))")


@pytest.mark.parametrize("argv, code", [
    (["symbolic", "hamming-resultant"], 0),
    (["symbolic", "bilinear-identities", "--seed", "3"], 0),
    (["symbolic", "quartic", "--array-file", "no-such-array.json"], 2),
])
def test_exact_symbolic_reports_load_no_numpy(argv, code):
    assert loads(argv) == {"code": code, "modules": ["spinsolve", "spinsolve.cli",
                                                      "spinsolve.core", "spinsolve.symbolic"]}


@pytest.mark.parametrize("payload", [
    '{"b": [3, Infinity, 1], "c": [1, 2, 3]}',
    '{"c": [1, 2, 3]}',
    '{"b": [3, "x", 1], "c": [1, 2, 3]}',
    '[[3, 2, 1], [1, 2, 3]]',
], ids=["infinity", "missing-b", "string-entry", "top-level-list"])
def test_a_malformed_array_file_is_refused_before_numpy_loads(tmp_path, payload):
    path = tmp_path / "arr.json"
    path.write_text(payload, encoding="utf-8")
    loaded = loads(["solve", "--family", "custom", "--array-file", str(path)])
    assert loaded == {"code": 2, "modules": ["spinsolve", "spinsolve.cli", "spinsolve.core"]}


def test_solve_loads_neither_oracle_nor_symbolic_nor_theorems():
    # every named family is built from its closed form, never by a census
    for family in (["hamming", "--N", "3", "--q", "3"], ["alternating", "--n", "8", "--q", "2"],
                   ["hermitian", "--n", "3", "--q", "2"]):
        loaded = loads(["solve", "--family", *family])
        assert loaded["code"] == 0
        assert "numpy" in loaded["modules"]
        assert not {"spinsolve.oracle", "spinsolve.symbolic",
                    "spinsolve.theorems"} & set(loaded["modules"])
