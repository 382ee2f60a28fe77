#!/usr/bin/env python3
"""End-to-end demo: compress a Gaussian random walk stage by stage, then
evaluate a quadratic cost backward through the compressed system with the
expectation and semideviation mappings. The expectation value is printed
next to its closed form for the uncompressed walk."""

import argparse
import sys

import numpy as np

from kcompress.dual import SolverConfig
from kcompress.pipeline import GenerativeSystem, StageSpec, approximate_system
from kcompress.risk import (
    evaluate_backward,
    expectation_mapping,
    semideviation_mapping,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stages", type=int, default=3)
    parser.add_argument("--sigma", type=float, default=0.8)
    parser.add_argument("--samples", type=int, default=80)
    parser.add_argument("--candidates", type=int, default=48)
    parser.add_argument("--budget", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kappa", type=float, default=0.5)
    args = parser.parse_args(argv)

    def sampler(t, source, n, rng):
        return source + args.sigma * rng.standard_normal((n, 2))

    system = GenerativeSystem(np.zeros(2), sampler)
    stages = [
        StageSpec(args.samples, args.candidates, args.budget, 1.0)
    ] * args.stages
    approx = approximate_system(system, stages, SolverConfig(), seed=args.seed)

    print(f"{'stage':>5} {'support':>8} {'delta':>8}")
    for t in range(approx.horizon):
        print(f"{t:>5} {len(approx.supports[t + 1]):>8} "
              f"{approx.deltas[t]:>8.4f}")

    costs = [lambda x: float(np.dot(x, x))] * (approx.horizon + 1)
    for sigma_map in (expectation_mapping(), semideviation_mapping(args.kappa)):
        values = evaluate_backward(approx, costs, sigma_map)
        print(f"{sigma_map.name}: v_0 = {values[0][0]:.4f}")
    # from x0 = 0, E|X_t|^2 = 2 t sigma^2 for the 2-D walk
    truth = sum(2 * t * args.sigma**2 for t in range(approx.horizon + 1))
    print(f"expectation of the uncompressed walk: v_0 = {truth:.4f}")
    print(f"stage errors sum to {sum(approx.deltas):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
