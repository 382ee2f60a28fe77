#!/usr/bin/env python3
"""kcompress benchmark entry point.

    python3 kcbench/run.py --workload select_desk --seed 0 --seconds 25 --trace 0

Runs one workload against the kcompress sources in ``src/`` of the checkout
that holds this directory, prints one line per metric, and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs the workloads BENCHMARK.json names in turn, each in
its own process; ``select_large`` and ``pipeline_walk`` run by name only
(see NOTES.md).
The process and its BLAS are pinned to one thread. Exits non-zero without a
result when the sources are missing.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the workloads BENCHMARK.json names, then those runnable by name only
WORKLOAD_NAMES = ("select_desk", "evaluate_wide")
EXTRA_WORKLOADS = ("select_large", "pipeline_walk")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=57.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "kcompress" / "__init__.py").is_file():
        print(f"kcompress sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["KC_LOG"] = "error"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import kcompress.cli
    if not Path(kcompress.cli.__file__).resolve().is_relative_to(SRC):
        print(f"kcompress imported from outside {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
