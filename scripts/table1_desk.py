#!/usr/bin/env python3
"""Desk-scale benchmark: compress the five-component Gaussian mixture.

Runs `kcompress select` once over all seeds, on 100 samples per component
with 256 Sobol candidates over [-12, 12]^2 and budget 51, then prints a
small table (distance, duality gap, iterations, stop reason, wall time)
from the run's summary.csv and result_seed*.json, and the mean distance
across seeds. Exits with select's code when it fails, and 1 when any
seed's solve stops short of the duality certificate (stop reason other
than "certified").
"""

import argparse
import csv
import json
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from kcompress.cli import main as kcompress


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--candidates", type=int, default=256)
    parser.add_argument("--budget", type=int, default=51)
    parser.add_argument("--order", type=float, default=1.0)
    parser.add_argument("--box", type=float, nargs=4, default=[-12, -12, 12, 12],
                        help="x_low y_low x_high y_high")
    parser.add_argument("--max-iter", type=int, default=5000)
    parser.add_argument("--out", default=None,
                        help="directory to keep select's artifacts in"
                             " (default: a temporary one)")
    args = parser.parse_args(argv)

    directory = (nullcontext(args.out) if args.out
                 else tempfile.TemporaryDirectory())
    with directory as out:
        out = Path(out)
        code = kcompress([
            "select", "--out", str(out),
            "--seeds", json.dumps(args.seeds),
            "--mixture.samples_per_component", str(args.samples),
            "--candidates.count", str(args.candidates),
            "--candidates.box", json.dumps([args.box[:2], args.box[2:]]),
            "--budget", str(args.budget), "--order", str(args.order),
            "--solver.max_iter", str(args.max_iter),
        ])
        if code != 0:
            return code
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        iterations = [
            json.loads((out / f"result_seed{row['seed']}.json").read_text())
            ["iterations"] for row in rows
        ]

    print(f"{'seed':>6} {'dim_beta':>9} {'distance':>9} {'gap':>10} "
          f"{'iters':>6} {'stop':>10} {'wall_s':>7}")
    for row, iters in zip(rows, iterations):
        print(f"{row['seed']:>6} {row['dim_beta']:>9} "
              f"{float(row['distance']):>9.4f} {float(row['gap']):>10.2e} "
              f"{iters:>6} {row['stop_reason']:>10} "
              f"{float(row['wall_time_s']):>7.2f}")
    mean = sum(float(row["distance"]) for row in rows) / len(rows)
    print(f"mean distance over {len(rows)} seeds: {mean:.4f}")
    uncertified = [int(row["seed"]) for row in rows
                   if row["stop_reason"] != "certified"]
    if uncertified:
        print(f"not certified: seeds {uncertified}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
