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
from kcompress.dual import SolverConfig, run_subgradient
from kcompress.generators import demo_mixture, sample_gaussian_mixture, sobol_lattice
from kcompress.pipeline import build_stage_instance


def run_once(seed, samples, n_candidates, budget, order, box, max_iter, threads):
    components = demo_mixture()
    means = np.array([c.mean for c in components])
    weights = np.full(len(components), 1.0 / len(components))
    clouds = sample_gaussian_mixture(components, samples, seed)
    candidates = sobol_lattice(2, n_candidates, box)
    marginal = DiscreteDistribution(means, weights)
    instance = build_stage_instance(marginal, clouds, candidates, order, budget)
    config = SolverConfig(max_iter=max_iter, seed=seed, threads=threads)
    t0 = time.perf_counter()
    result = run_subgradient(instance, config)
    wall = time.perf_counter() - t0
    return instance, result, result.objective ** (1.0 / order), wall


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
        instance, result, distance, wall = run_once(
            seed, args.samples, args.candidates, args.budget, args.order,
            box, args.max_iter, args.threads,
        )
        print(f"{seed:>6} {instance.dim_beta:>9} {distance:>9.4f} "
              f"{result.gap:>10.2e} {result.iterations:>6} "
              f"{result.stop_reason:>10} {wall:>7.2f}")
        rows.append([seed, instance.dim_beta, instance.dim_gamma,
                     round(wall, 4), distance, result.gap, result.stop_reason])
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
