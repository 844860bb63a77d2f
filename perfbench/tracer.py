"""Spans around spinsolve's public functions, installed from outside.

Each wrapped call records one span (name, start, end, parent span,
operation id) in memory.  `summary` folds the spans into per-name call
counts, inclusive time (busy_ms) and self time (busy minus the time
covered by child spans), plus the work counters listed in COUNTERS.
Calls are single-threaded, so child spans nest inside their parent and
never overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Functions are rebound in every spinsolve
# module that imported them, so calls between modules are traced too.
FUNCTIONS = (
    ("core", "valencies", "core.valencies"),
    ("core", "validate_array", "core.validate_array"),
    ("core", "dumps_report", "core.dumps_report"),
    ("families", "build", "families.build"),
    ("families", "build_custom", "families.build_custom"),
    ("families", "eigenvalues_from_array", "families.eigenvalues_from_array"),
    ("families", "eigenmatrix", "families.eigenmatrix"),
    ("solver", "solve", "solver.solve"),
    ("solver", "roots_of_quartic", "solver.roots_of_quartic"),
    ("solver", "t_profile", "solver.t_profile"),
    ("solver", "filter_x", "solver.filter_x"),
    ("solver", "scalar_and_T0", "solver.scalar_and_T0"),
    ("solver", "verify_solution", "solver.verify_solution"),
    ("oracle", "census", "oracle.census"),
    ("oracle", "rank", "oracle.rank"),
    ("oracle", "rank_batch_gf2", "oracle.rank_batch_gf2"),
    ("symbolic", "exact_divide", "symbolic.exact_divide"),
    ("symbolic", "sylvester_resultant", "symbolic.sylvester_resultant"),
    ("symbolic", "bilinear_identity_checks", "symbolic.bilinear_identity_checks"),
    ("symbolic", "hamming_resultant_check", "symbolic.hamming_resultant_check"),
    ("theorems", "verify_theorem", "theorems.verify_theorem"),
)

# (module, class, attributes, span name)
METHODS = (
    ("oracle", "PointSpace", ("raw_from_zero",), "oracle.PointSpace.raw_from_zero"),
    ("oracle", "PointSpace", ("raw_between",), "oracle.PointSpace.raw_between"),
    ("ffield", "FiniteField", ("__post_init__",), "ffield.FiniteField.init"),
    ("symbolic", "MultiPoly", ("__mul__", "__rmul__"), "symbolic.MultiPoly.mul"),
    ("symbolic", "MultiPoly", ("__add__", "__radd__"), "symbolic.MultiPoly.add"),
)

CLAIMS = (1, 2, 3, 4, 5, 6)
REJECT_REASONS = {"reciprocal_identity_failed": "reciprocal", "terminal_failed": "terminal",
                  "non_scalar_cube": "non_scalar_cube", "residual_failed": "residual_failed"}
COUNTERS = ("oracle.rank_batch_gf2.matrices", "symbolic.MultiPoly.mul.term_pairs",
            "solver.x_candidates", "solver.raw_count", "solver.accepted") + tuple(
    f"solver.rejected.{v}" for v in REJECT_REASONS.values())


def _span_names() -> list[str]:
    names = [name for _, _, name in FUNCTIONS] + [m[3] for m in METHODS]
    return names + [f"theorems.verify_theorem.{n}" for n in CLAIMS]


def metric_names() -> set[str]:
    """Every per-layer name `summary` (plus the benchmark's own
    measurements of import, interpreter and traced throughput) can give."""
    names = {f"{span}.{field}" for span in _span_names()
             for field in ("calls", "busy_ms", "self_ms")}
    return names | set(COUNTERS) | {"solver.accept_ratio", "cli.import_ms",
                                    "cli.interpreter_ms", "trace.throughput_per_s"}


def _count_batch(counters, args, kwargs, result):
    counters["oracle.rank_batch_gf2.matrices"] += len(args[0])


def _count_term_pairs(counters, args, kwargs, result):
    other = args[1]
    width = len(other.terms) if hasattr(other, "terms") else 1
    counters["symbolic.MultiPoly.mul.term_pairs"] += len(args[0].terms) * width


def _count_roots(counters, args, kwargs, result):
    counters["solver.x_candidates"] += len(result)


def _count_outcomes(counters, args, kwargs, result):
    counters["solver.raw_count"] += result.raw_count
    counters["solver.accepted"] += result.count
    for _, reason in result.rejected_x:
        counters["solver.rejected." + REJECT_REASONS[reason.split(" ")[0]]] += 1


def _claim_name(args, kwargs):
    return f"theorems.verify_theorem.{args[0] if args else kwargs['number']}"


HOOKS = {"oracle.rank_batch_gf2": _count_batch, "symbolic.MultiPoly.mul": _count_term_pairs,
         "solver.roots_of_quartic": _count_roots, "solver.solve": _count_outcomes}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, fn, name: str, extra_name=None):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
                if extra_name is not None:
                    spans.append((extra_name(args, kwargs), start, end, -2, self.op_id))
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method of the spinsolve package."""
        mods = {name: importlib.import_module(f"spinsolve.{name}")
                for name in ("core", "families", "solver", "oracle", "ffield", "symbolic",
                             "theorems", "cli")}
        package = importlib.import_module("spinsolve")
        holders = [package, *mods.values()]
        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            extra = _claim_name if name == "theorems.verify_theorem" else None
            traced = self._wrap(original, name, extra)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    setattr(holder, attr, traced)
        for mod, cls_name, attrs, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            traced = self._wrap(cls.__dict__[attrs[0]], name)
            for attr in attrs:
                setattr(cls, attr, traced)

    def summary(self) -> dict[str, float]:
        """calls, busy_ms and self_ms per span name, plus the counters.
        Spans with parent -2 are per-claim aliases of their neighbour and
        count only under their own name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_ms"] += (end - start) * 1e3
            out[f"{name}.self_ms"] += (end - start - child[i]) * 1e3
        out.update(self.counters)
        return dict(out)
