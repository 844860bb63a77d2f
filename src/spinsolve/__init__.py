"""Solver, verifier, and classifier for the diagonal-matrix equation
(PT)^3 = I over self-dual P-polynomial association schemes."""

import importlib
import os

# OpenBLAS threading slows the small complex matmuls the solver does by
# one to two orders of magnitude; this only takes effect if numpy has not
# been imported yet, and never overrides a value the caller set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name is imported
# on first use (PEP 562), so `import spinsolve` loads neither numpy nor
# any submodule; the submodules below resolve as attributes the same way.
_HOMES = {
    "DEFAULT_CONFIG": "core",
    "IntersectionArray": "core",
    "SchemeCensus": "core",
    "SchemeInstance": "core",
    "SolutionCandidate": "core",
    "SolverConfig": "core",
    "valencies": "core",
    "validate_array": "core",
    "FamilySpec": "families",
    "build": "families",
    "build_custom": "families",
    "eigenmatrix": "families",
    "eigenvalues_from_array": "families",
    "PointSpace": "oracle",
    "census": "oracle",
    "rank": "oracle",
    "verify_family": "oracle",
    "SolutionSet": "solver",
    "candidate_quartic": "solver",
    "filter_x": "solver",
    "roots_of_quartic": "solver",
    "scalar_and_T0": "solver",
    "solve": "solver",
    "t_profile": "solver",
    "verify_solution": "solver",
}
_SUBMODULES = ("core", "families", "ffield", "oracle", "solver")

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
