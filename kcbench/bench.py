"""Run one workload: set up, loop operations for a fixed time, report.

With trace off the run reports the end-to-end metrics. With trace on it
runs each operation seed twice, once wrapped by the tracer and once bare
(alternating which goes first), reports the per-layer metrics from the
traced runs, and the tracing overhead from the pairs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

import spans
from workloads import WORKLOADS, clear

SETUP_REPEATS = 3
# imports are timed this many times before the operations and again after
# them, so that one slow phase of the machine does not set setup_s
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "objective": "1",
    "dual_ratio": "ratio",
}

PER_LAYER = {
    "dual.solve_s": "s", "dual.loop_s": "s", "dual.post_s": "s",
    "dual.self_s": "s", "dual.iters": "count", "dual.ms_per_iter": "ms",
    "dual.sweep_bytes_computed": "bytes", "dual.cert_iter": "count",
    "dual.cert_s": "s", "dual.converged_frac": "ratio",
    "transport.wasserstein_s": "s", "transport.self_s": "s",
    "transport.calls": "count", "transport.cells": "count",
    "oracle.build_s": "s", "oracle.self_s": "s",
    "oracle.stacked_calls": "count",
    "core.pairwise_cost_s": "s", "core.cost_entries": "count",
    "core.compose_s": "s", "core.json_decode_s": "s",
    "core.json_encode_s": "s", "core.self_s": "s",
    "pipeline.approximate_s": "s", "pipeline.build_s": "s",
    "pipeline.implied_kernel_s": "s", "pipeline.self_s": "s",
    "pipeline.sources_max": "count",
    "risk.evaluate_s": "s", "risk.self_s": "s", "risk.lookups": "count",
    "risk.ns_per_lookup": "ns",
    "generators.sample_s": "s", "generators.sobol_s": "s",
    "generators.self_s": "s",
    "cli.run_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "cli.artifact_files": "count",
    "trace.op_s": "s", "trace.untraced_s": "s", "trace.overhead_frac": "ratio",
    "trace.spans": "count", "trace.ops": "count",
    "quality.rel_gap": "ratio", "quality.certified_frac": "ratio",
    "quality.value_rel_err": "ratio", "quality.fail_frac": "ratio",
}


def machine_facts() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10, check=True)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "solver_threads": 1,
    }


class Run:
    """State of one benchmark run: operations attempted, their outcomes."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.outcomes = []
        self.op_times = []

    def op_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def one(self, i: int, op_seed: int, runner=None):
        """Run, time and check one operation; returns its outcome, or None
        when it raised or failed a gate."""
        out = self.work / f"op{i}"
        self.attempted += 1
        try:
            start = time.perf_counter()
            if runner is None:
                raw = self.workload.operation(op_seed, out)
            else:
                raw = runner(self.workload.operation, op_seed, out)
            elapsed = time.perf_counter() - start
            outcome = self.workload.collect(op_seed, out, raw)
        except Exception:
            print(f"operation {i} (seed {op_seed}) raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            clear(out)
        if outcome.failures:
            for msg in outcome.failures:
                print(f"operation {i} (seed {op_seed}) gate: {msg}",
                      file=sys.stderr)
            return None
        self.outcomes.append(outcome)
        self.op_times.append(elapsed)
        return outcome

    @property
    def failed(self) -> int:
        return self.attempted - len(self.outcomes)

    def quality(self) -> dict:
        solves = [s for o in self.outcomes for s in o.solves]
        values = [o.value for o in self.outcomes if o.value is not None]
        gaps = [(obj - bd) / obj for obj, bd in solves]
        errs = [abs(v - true) / abs(true) for v, true in values]
        return {
            "objective": _mean([o.answer for o in self.outcomes]),
            "dual_ratio": _mean([bd / obj for obj, bd in solves], 1.0),
            "rel_gap": max(gaps) if gaps else 0.0,
            "certified_frac": _mean(
                [g <= spans.CERTIFIED_GAP for g in gaps], 1.0
            ),
            "value_rel_err": _mean(errs),
            "fail_frac": self.failed / self.attempted if self.attempted else 0.0,
            "solves": len(solves),
        }


class Window:
    """The measurement window: at least one step, and a further step only
    when the median step so far still fits before `seconds` have passed, so
    a run ends close to the window's end however long its steps are."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.steps = []

    def more(self) -> bool:
        if not self.steps:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + median(self.steps) <= self.seconds

    def done(self):
        now = time.perf_counter()
        self.steps.append(now - self.last)
        self.last = now


def _mean(xs, empty=0.0):
    xs = list(xs)
    return float(np.mean(xs)) if xs else empty


def import_seconds(src: Path) -> list:
    """Times of IMPORT_REPEATS fresh interpreters importing the kcompress
    CLI (numpy included), each measured inside the child."""
    code = ("import time; t = time.perf_counter(); import kcompress.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return times


def setup(workload, seed: int, work: Path) -> list:
    """Set the workload up SETUP_REPEATS times from scratch; the last set-up
    stays in place. Returns the set-up times."""
    times = []
    for r in range(SETUP_REPEATS):
        clear(work)
        work.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(work, seed)
        times.append(time.perf_counter() - start)
    return times


def measure(workload, seed: int, seconds: float, work: Path, src: Path):
    """Untraced run: the end-to-end metrics and the human-readable report."""
    import_times = import_seconds(src)
    setup_times = setup(workload, seed, work)
    run = Run(workload, seed, work)
    window = Window(seconds)
    i = 0
    while window.more():
        run.one(i, run.op_seed(i))
        window.done()
        i += 1
    import_s = median(import_times + import_seconds(src))
    q = run.quality()
    metrics = {
        "setup_s": import_s + median(setup_times),
        "op_s_p50": median(run.op_times) if run.op_times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "objective": q["objective"],
        "dual_ratio": q["dual_ratio"],
    }
    report = [
        ("setup_s", metrics["setup_s"], "s",
         f"median of {2 * IMPORT_REPEATS} imports {import_s:.3f} s + median "
         f"of {len(setup_times)} set-ups"),
        ("op_s_p50", metrics["op_s_p50"], "s",
         f"median of n={len(run.op_times)} operations: "
         + " ".join(f"{t:.3f}" for t in run.op_times)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "whole process"),
        ("objective", q["objective"], "1", "mean over operations"),
        ("rel_gap", q["rel_gap"], "ratio", f"max over {q['solves']} solves"),
        ("certified_frac", q["certified_frac"], "ratio",
         f"solves with rel_gap <= {spans.CERTIFIED_GAP}"),
        ("value_rel_err", q["value_rel_err"], "ratio", "|v0 - v*| / |v*|"),
        ("fail_frac", q["fail_frac"], "ratio",
         f"{run.failed} of {run.attempted} operations"),
        ("dual_ratio", q["dual_ratio"], "ratio", "mean best_dual / objective"),
    ]
    return run, metrics, report


def measure_traced(workload, seed: int, seconds: float, work: Path):
    """Traced run: per-layer metrics, tracing overhead, and the spans."""
    setup(workload, seed, work)
    run = Run(workload, seed, work)
    tracer = spans.Tracer()
    overheads, extra = [], {}
    window = Window(seconds)
    pair = 0
    while window.more():
        op_seed = run.op_seed(pair)
        walls = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            n_spans = len(tracer.spans)
            runner = (
                (lambda fn, *a, _op=pair: tracer.operation(_op, fn, *a))
                if traced else None
            )
            outcome = run.one(2 * pair + traced, op_seed, runner)
            if traced:
                root = tracer.spans[n_spans]
                walls[True] = root[2] - root[1]
                if outcome is not None:
                    files, size = outcome.artifacts
                    extra[pair] = {"cli.artifact_files": files,
                                   "cli.artifact_bytes": size}
            elif outcome is not None:
                walls[False] = run.op_times[-1]
        if len(walls) == 2:
            overheads.append(walls[True] / walls[False] - 1.0)
        window.done()
        pair += 1
    metrics = spans.layer_metrics(tracer.spans, extra)
    metrics["trace.overhead_frac"] = median(overheads) if overheads else 0.0
    q = run.quality()
    for key in ("rel_gap", "certified_frac", "value_rel_err", "fail_frac"):
        metrics[f"quality.{key}"] = q[key]
    metrics = {k: metrics.get(k, 0.0) for k in PER_LAYER}
    return run, metrics, tracer.records()


def main(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]()
    state = root / ".kcbench"
    work = state / f"work-{args.workload}-{os.getpid()}"
    facts = machine_facts()
    try:
        if args.trace:
            run, metrics, records = measure_traced(
                workload, args.seed, args.seconds, work
            )
            units = PER_LAYER
            report = [(k, v, units[k], "") for k, v in metrics.items()]
            trace_file = state / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "machine": facts,
                "fields": ["name", "start", "end", "parent", "op_id"],
                "spans": records,
            }))
        else:
            run, metrics, report = measure(
                workload, args.seed, args.seconds, work, root / "src"
            )
            units = END_TO_END
    finally:
        clear(work)
    for name, value, unit, note in report:
        print(f"{args.workload:<14} {name:<28} {value:>14.6g} {unit:<6} {note}")
    print("machine " + json.dumps(facts, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1
