#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 kcbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit by
the untraced and the traced run of each workload, that all gates pass on
the current program, that traced self times add up to the traced wall
time, and that each gate fails when fed a deliberately corrupted output.
Exits non-zero on the first failed check.
"""

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["KC_LOG"] = "error"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bench  # noqa: E402
import gates  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, clear  # noqa: E402

TINY = {
    "select_desk": dict(samples=10, count=32, budget=5),
    "select_large": dict(samples=20, count=64, budget=5, max_iter=20),
    "pipeline_walk": dict(stages=2, samples=10, count=12, budget=3),
    "evaluate_wide": dict(stages=2, atoms=12),
}
SEED = 3


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def edit_json(path: Path, key, change):
    data = json.loads(path.read_text())
    data[key] = change(data[key])
    path.write_text(json.dumps(data))


def check_metrics(spec, work):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == bench.END_TO_END, "end_to_end differs from bench.END_TO_END")
    check(layer == bench.PER_LAYER, "per_layer differs from bench.PER_LAYER")
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names a workload WORKLOADS lacks")
    for name, sizes in TINY.items():
        run, metrics, report = bench.measure(
            WORKLOADS[name](**sizes), SEED, 0, work, ROOT / "src"
        )
        check(run.failed == 0, f"{name}: untraced run failed a gate")
        check(list(metrics) == list(e2e), f"{name}: end-to-end names")
        for key, value in metrics.items():
            check(math.isfinite(value) and value > 0,
                  f"{name}: {key} = {value} is not a positive number")
        for key in ("rel_gap", "certified_frac", "value_rel_err", "fail_frac"):
            check(key in {r[0] for r in report}, f"{name}: {key} not reported")
        run, metrics, records = bench.measure_traced(
            WORKLOADS[name](**sizes), SEED, 0, work
        )
        check(run.failed == 0, f"{name}: traced run failed a gate")
        check(list(metrics) == list(layer), f"{name}: per-layer names")
        self_sum = metrics["trace.untraced_s"] + sum(
            metrics[f"{lay}.self_s"] for lay in spans.LAYERS
        )
        check(abs(self_sum - metrics["trace.op_s"]) < 1e-6,
              f"{name}: self times {self_sum} != op time "
              f"{metrics['trace.op_s']}")
        check(len(records) == metrics["trace.spans"] * metrics["trace.ops"],
              f"{name}: span records do not match the span count")
        print(f"ok   metrics and units: {name}")


def corrupted(name, mutate, work):
    """Run one tiny operation whose output `mutate` corrupts; the
    operation must count as failed."""
    workload = WORKLOADS[name](**TINY[name])
    clear(work)
    work.mkdir(parents=True)
    workload.setup(work, SEED)
    operation = workload.operation

    def broken(op_seed, out):
        return mutate(op_seed, out, operation(op_seed, out))

    workload.operation = broken
    run = bench.Run(workload, SEED, work)
    run.one(0, SEED)
    check(run.failed == 1, f"{name}: corrupted output passed the gates")


def check_gates(work):
    def desk_objective(seed, out, raw):
        edit_json(out / f"result_seed{seed}.json", "objective",
                  lambda v: v * (1 + 1e-6))

    def desk_budget(seed, out, raw):
        edit_json(out / f"result_seed{seed}.json", "sum_gamma",
                  lambda v: 10**6)

    def desk_composed(seed, out, raw):
        edit_json(out / f"result_seed{seed}.json", "composed_distance",
                  lambda v: v + 1e-6)

    def desk_gap(seed, out, raw):
        edit_json(out / f"result_seed{seed}.json", "best_dual",
                  lambda v: v + 1.0)

    def large_objective(seed, out, raw):
        clouds, cands, result = raw
        return clouds, cands, dataclasses.replace(
            result, objective=result.objective * (1 + 1e-6)
        )

    def walk_root(seed, out, raw):
        edit_json(out / "eval" / "evaluate_result.json", "root_value",
                  lambda v: v + 1e-3)

    def walk_row(seed, out, raw):
        def bump(kernels):
            kernels[-1]["rows"][0]["weights"][0] += 0.25
            return kernels
        edit_json(out / "pipe" / f"system_seed{seed}.json", "kernels", bump)

    def walk_chain(seed, out, raw):
        def shift(supports):
            supports[-1][0][0] += 1.0
            return supports
        edit_json(out / "pipe" / f"system_seed{seed}.json", "supports", shift)

    def wide_root(seed, out, raw):
        edit_json(out / "evaluate_result.json", "root_value",
                  lambda v: v * (1 + 1e-6))

    cases = [
        ("select_desk", desk_objective, "perturbed objective"),
        ("select_desk", desk_budget, "sum_gamma above the budget"),
        ("select_desk", desk_composed, "composed_distance off distance"),
        ("select_desk", desk_gap, "negative gap"),
        ("select_large", large_objective, "perturbed objective"),
        ("pipeline_walk", walk_root, "wrong root value"),
        ("pipeline_walk", walk_row, "kernel row not summing to 1"),
        ("pipeline_walk", walk_chain, "support that does not chain"),
        ("evaluate_wide", wide_root, "wrong root value"),
    ]
    for name, mutate, what in cases:
        corrupted(name, mutate, work)
        print(f"ok   gate fails on {what}: {name}")

    # the recursion agrees with a hand-computed two-stage system
    supports = [np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 2.0]])]
    P = [np.array([[0.5, 0.5]])]
    cost = {"norm": {"center": [0.0, 0.0], "weight": 1.0, "power": 2}}
    # v_1 = (1, 4); mean 2.5, upper semideviation 0.5 * 1.5
    got = gates.backward_values(supports, P, cost, 0.5)[0]
    check(abs(got - (2.5 + 0.5 * 0.75)) < 1e-12, f"recursion gives {got}")
    print("ok   recursion matches a hand-computed value")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".kcbench" / f"selftest-{os.getpid()}"
    try:
        check_metrics(spec, work)
        check_gates(work)
    finally:
        clear(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
