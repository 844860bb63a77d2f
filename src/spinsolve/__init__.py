"""Solver, verifier, and classifier for the diagonal-matrix equation
(PT)^3 = I over self-dual P-polynomial association schemes."""

import os

# OpenBLAS threading slows the small complex matmuls the solver does by
# one to two orders of magnitude; this only takes effect if numpy has not
# been imported yet, and never overrides a value the caller set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    DEFAULT_CONFIG,
    IntersectionArray,
    SchemeCensus,
    SchemeInstance,
    SolutionCandidate,
    SolverConfig,
    valencies,
    validate_array,
)
from .families import FamilySpec, build, build_custom, eigenmatrix, eigenvalues_from_array
from .oracle import PointSpace, census, rank, verify_family
from .solver import (
    SolutionSet,
    candidate_quartic,
    filter_x,
    roots_of_quartic,
    scalar_and_T0,
    solve,
    t_profile,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "FamilySpec",
    "IntersectionArray",
    "PointSpace",
    "SchemeCensus",
    "SchemeInstance",
    "SolutionCandidate",
    "SolutionSet",
    "SolverConfig",
    "build",
    "build_custom",
    "candidate_quartic",
    "census",
    "eigenmatrix",
    "eigenvalues_from_array",
    "filter_x",
    "rank",
    "roots_of_quartic",
    "scalar_and_T0",
    "solve",
    "t_profile",
    "valencies",
    "validate_array",
    "verify_family",
    "verify_solution",
    "__version__",
]
