#!/usr/bin/env python3
"""Desk-scale benchmark: compress the five-component Gaussian mixture.

Runs the selection solver once per seed on 100 samples per component with
256 Sobol candidates over [-12, 12]^2 and budget 51, then prints a small
table (distance, duality gap, iterations, stop reason, wall time) and the
mean distance across seeds. Mirrors the summary columns the CLI writes in
select mode. Exits 1 when any seed's solve stops short of the duality
certificate (stop reason other than "certified").
"""

import argparse
import csv
import sys
import time

import numpy as np

from kcompress.core import DiscreteDistribution
from kcompress.dual import SolverConfig
from kcompress.generators import demo_mixture, sample_gaussian_mixture
from kcompress.pipeline import compress_stage, stage_candidates


def run_once(seed, samples, n_candidates, budget, order, box, max_iter, threads):
    """One desk solve; its stage's wall_s covers sampling through the
    composed marginal."""
    started = time.perf_counter()
    components = demo_mixture()
    weights = np.full(len(components), 1.0 / len(components))
    marginal = DiscreteDistribution([c.mean for c in components], weights)
    clouds = sample_gaussian_mixture(components, samples, seed)
    candidates = stage_candidates(clouds, n_candidates, "lattice", 0.0, box,
                                  None)
    config = SolverConfig(max_iter=max_iter, seed=seed, threads=threads)
    return compress_stage(marginal, clouds, candidates, order, budget, config,
                          started)


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
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=None, help="optional summary CSV path")
    args = parser.parse_args(argv)

    box = (np.array(args.box[:2]), np.array(args.box[2:]))
    rows = []
    print(f"{'seed':>6} {'dim_beta':>9} {'distance':>9} {'gap':>10} "
          f"{'iters':>6} {'stop':>10} {'wall_s':>7}")
    for seed in args.seeds:
        stage = run_once(
            seed, args.samples, args.candidates, args.budget, args.order,
            box, args.max_iter, args.threads,
        )
        instance, result = stage.instance, stage.result
        print(f"{seed:>6} {instance.dim_beta:>9} {stage.delta:>9.4f} "
              f"{result.gap:>10.2e} {result.iterations:>6} "
              f"{result.stop_reason:>10} {stage.wall_s:>7.2f}")
        rows.append([seed, instance.dim_beta, instance.dim_gamma,
                     round(stage.wall_s, 4), stage.delta, result.gap,
                     result.stop_reason])
    mean = float(np.mean([r[4] for r in rows]))
    print(f"mean distance over {len(rows)} seeds: {mean:.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "dim_beta", "dim_gamma", "wall_time_s",
                             "distance", "gap", "stop_reason"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    uncertified = [r[0] for r in rows if r[6] != "certified"]
    if uncertified:
        print(f"not certified: seeds {uncertified}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
