"""spinsolve benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from the root of a source checkout; spinsolve is imported from its
`src/` directory.  With --trace 0 the run reports the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer metrics from spans around
spinsolve's public functions.  `--workload all` runs every workload both
ways and prints every metric with its unit, plus the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  METRICS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "census-gf2", "cli")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "SPINSOLVE_THREADS": "1"}
SETUP_REPEATS = 7
# A run makes ceil(seconds / pass time) whole passes, with the time one pass
# took at the parent commit (2 cores, Python 3.11.7, numpy 2.4.6).  Fixing
# the work, not the wall time, keeps the sample count, and so the tail
# percentile, the same on every commit compared.
PASS_SECONDS = {"sweep": 3.8, "census-gf2": 2.7, "cli": 14.0}
# The tail is the highest of these round percentiles with at least
# TAIL_BEYOND samples above it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn_seconds(code: str) -> float:
    """Wall time of one fresh interpreter running `code`, spawn to exit.
    Output goes through pipes: waiting on them ends at the child's exit,
    where a bare wait with a timeout polls in steps of up to 50 ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of interpreter start + import spinsolve +
    input generation.  CLI invocations generate nothing in-process, so
    there it is the import every invocation pays."""
    if workload == "cli":
        code = "import spinsolve"
    else:
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
                f"workloads.inprocess_ops({workload!r}, {seed})")
    return statistics.median(spawn_seconds(code) for _ in range(SETUP_REPEATS))


def run_passes(ops, count: int, tracer=None) -> list[dict]:
    """`count` whole passes over ops, one operation at a time."""
    passes = []
    for _ in range(count):
        if tracer is not None:
            tracer.reset()
        latencies, failures, child_traces = [], [], []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            begin = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as err:  # scored by op.check, like any wrong answer
                outcome = err
            latencies.append(time.perf_counter() - begin)
            try:
                reason = op.check(outcome)
            except Exception as err:
                reason = f"check failed on the output: {err!r}"
            if reason is not None:
                failures.append((op.key, op.label, reason))
            if getattr(outcome, "trace", None) is not None:
                child_traces.append(outcome.trace)
        layers = tracer.summary() if tracer is not None else _sum_traces(child_traces)
        passes.append({"latencies": latencies, "failures": failures, "layers": layers})
    return passes


def _sum_traces(traces: list[dict]) -> dict:
    total: dict = {}
    for trace in traces:
        for name, value in trace.items():
            if name != "cli.import_ms":
                total[name] = total.get(name, 0.0) + value
    imports = [t["cli.import_ms"] for t in traces if "cli.import_ms" in t]
    if imports:
        total["cli.import_ms"] = statistics.median(imports)
    return total


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile that leaves at
    least TAIL_BEYOND samples above it (nearest-rank); the median when
    there are too few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50, statistics.median(ordered))
    for pct in TAIL_LADDER[1:]:
        rank = math.ceil(pct * n / 100)
        if n - rank < TAIL_BEYOND:
            break
        best = (pct, ordered[rank - 1])
    return best


def end_to_end(workload: str, ops, passes, setup_s: float) -> tuple[dict, dict]:
    latencies = [t for p in passes for t in p["latencies"]]
    work = sum(op.weight for op in ops) * len(passes)
    pct, tail_s = tail(latencies)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    values = {
        "throughput_per_s": work / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {"tail_percentile": pct, "latency_samples": len(latencies),
             "samples_beyond_tail": sum(1 for t in latencies if t > tail_s)}
    return values, notes


def per_layer(names: list[str], passes, traced_throughput: float,
              interpreter_ms: float) -> tuple[dict, list[str]]:
    """Median over passes of each per-pass layer value.  Counts should be
    identical in every pass; those that are not are returned by name."""
    values, uneven = {}, []
    for name in names:
        if name == "trace.throughput_per_s":
            values[name] = traced_throughput
            continue
        if name == "cli.interpreter_ms":
            values[name] = interpreter_ms
            continue
        series = [_layer_value(name, p["layers"]) for p in passes]
        if not name.endswith("_ms") and name != "solver.accept_ratio" and len(set(series)) > 1:
            uneven.append(name)
        values[name] = statistics.median(series)
    return values, uneven


def _layer_value(name: str, layers: dict) -> float:
    if name == "solver.accept_ratio":
        raw = layers.get("solver.raw_count", 0)
        return layers.get("solver.accepted", 0) / raw if raw else 0.0
    return layers.get(name, 0.0)


def provenance(workload: str, args, ops, passes) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    import workloads

    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
        "thread_env": {k: os.environ.get(k) for k in THREAD_PINS},
        "passes": len(passes), "pass_composition": workloads.input_summary(ops),
        "cli_time_limit_s": {"default": workloads.CLI_TIMEOUT_S,
                             "hamming(30,5)": workloads.PROBE_TIMEOUT_S},
        "loop": "closed, one client, one operation at a time, single process",
    }


def run_workload(args, bench: dict) -> dict:
    import expected
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        unknown = [m["name"] for m in bench["per_layer"]
                   if m["name"] not in tracing.metric_names()]
        if unknown:
            raise SystemExit(f"error: no tracer for per-layer metrics {unknown}")
        if args.workload != "cli":
            tracer = tracing.Tracer()
            tracer.install()
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else 0.0

    count = max(1, math.ceil(args.seconds / PASS_SECONDS[args.workload]))
    if args.workload == "cli":
        entry = [sys.executable, str(HERE / "cli_child.py")] if args.trace else \
            [sys.executable, "-m", "spinsolve.cli"]
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            ops = workloads.cli_ops(args.seed, Path(workdir), entry, child_env(), ROOT)
            passes = run_passes(ops, count)
    else:
        ops = workloads.inprocess_ops(args.workload, args.seed)
        passes = run_passes(ops, count, tracer)

    failures: dict[str, list] = {}
    for p in passes:
        for key, label, reason in p["failures"]:
            failures.setdefault(key, [label, reason, 0])[2] += 1
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    new = sorted(k for k in failures if k not in expected.KNOWN_DEFECTS)

    e2e, notes = end_to_end(args.workload, ops, passes, setup_s)
    if args.trace:
        interpreter_ms = 0.0
        if args.workload == "cli":
            interpreter_ms = statistics.median(
                spawn_seconds("pass") for _ in range(SETUP_REPEATS)) * 1e3
        names = [m["name"] for m in bench["per_layer"]]
        metrics, uneven = per_layer(names, passes, e2e["throughput_per_s"], interpreter_ms)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        uneven = []

    print("provenance " + json.dumps(provenance(args.workload, args, ops, passes)))
    if not args.trace:
        print("latency " + json.dumps(notes))
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4f}"
          f" ({len(failures)} distinct operations, {len(new)} not known defects)")
    for key, (label, reason, count) in sorted(failures.items()):
        tag = "known" if key in expected.KNOWN_DEFECTS else "NEW"
        print(f"  failed [{tag}] {label} x{count}: {reason}")
    if uneven:
        print("counts that differ between passes: " + ", ".join(uneven))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    return {"correct": not new, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> dict:
    """Every workload untraced then traced, each in a fresh process."""
    results, lines = {}, []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            out = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace}")
            print("\n".join(out[:-1]), flush=True)
            results[workload, trace] = json.loads(out[-1])
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for (workload, trace), res in results.items():
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print("== tracing overhead (traced minus untraced throughput, share of untraced)")
    for workload in WORKLOADS:
        plain = results[workload, 0]["metrics"]["throughput_per_s"]["value"]
        traced = results[workload, 1]["metrics"]["trace.throughput_per_s"]["value"]
        lines.append(f"  {workload:12s} {plain:12.6g} -> {traced:12.6g} 1/s "
                     f"({(traced - plain) / plain:+.1%})")
    print("\n".join(lines))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinsolve" / "__init__.py").is_file():
        print(f"error: no spinsolve sources under {SRC}", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"error: {bench_file} is missing", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    # Pin BLAS and OpenMP before numpy loads, here and in every child.
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))

    result = run_all(args) if args.workload == "all" else run_workload(args, bench)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
