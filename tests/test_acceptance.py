"""The acceptance gate: eight end-to-end criteria, one test each.

Each test prints a single PASS line with its measured quantities after all
assertions hold (run pytest with -s to see them; with -v the test names
themselves give the per-criterion verdict). Tolerances are pinned in the
assertions, not configurable.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from helpers import (
    discrete_lipschitz,
    enumerate_lagrangian_min,
    matching_expansion_value,
    path_expectation,
    perturb_system,
    random_discrete_system,
    random_tiny_instance,
    value_at,
)
from kcompress.cli import main as cli_main
from kcompress.core import (
    DiscreteDistribution,
    DiscreteKernel,
    DiscreteSystem,
    compose_marginal,
    dirac,
    pairwise_cost,
)
from kcompress.dual import (
    DualState,
    SolverConfig,
    batch_subgradient,
    dual_value,
    inner_solution,
    run_subgradient,
    subgradient,
)
from kcompress.generators import (
    demo_mixture,
    sample_gaussian_mixture,
    sobol_lattice,
    sobol_unit,
)
from kcompress.oracle import solve_exact
from kcompress.pipeline import build_stage_instance
from kcompress.risk import (
    error_bound,
    evaluate_backward,
    expectation_mapping,
)
from kcompress.transport import integrated_distance, wasserstein_exact


def _random_distribution(rng, max_atoms=8, dim=2):
    n = int(rng.integers(2, max_atoms + 1))
    return DiscreteDistribution(
        rng.normal(scale=2.0, size=(n, dim)), rng.dirichlet(np.ones(n))
    )


def test_criterion_1_oracle_equivalence():
    # >= 90/100 tiny instances within 5% of the exhaustive optimum, weak
    # duality on all 100, whole loop under 60 s
    start = time.perf_counter()
    within = 0
    for i in range(100):
        rng = np.random.default_rng(10_000 + i)
        instance = random_tiny_instance(rng)
        _, optimum, _ = solve_exact(instance)
        result = run_subgradient(
            instance, SolverConfig(max_iter=800, seed=i)
        )
        assert result.best_dual <= optimum + 1e-9
        if result.objective <= optimum * 1.05 + 1e-12:
            within += 1
    elapsed = time.perf_counter() - start
    assert within >= 90
    assert elapsed < 60.0
    print(
        f"[criterion 1] PASS: {within}/100 within 5% of the oracle, "
        f"weak duality on all, {elapsed:.1f}s"
    )


def test_criterion_2_benchmark_reproduction():
    # five-component mixture, 100 samples per component, 256 Sobol
    # candidates on [-12, 12]^2, budget 51, order 1: seed-mean distance
    # within 15% of 0.644, each run under 30 s; then a dim_beta >= 5e6
    # instance smoke-solved for completion with a nonnegative gap
    components = demo_mixture()
    means = np.array([c.mean for c in components])
    marginal = DiscreteDistribution(means, np.full(5, 0.2))
    box = (np.array([-12.0, -12.0]), np.array([12.0, 12.0]))
    candidates = sobol_lattice(2, 256, box)
    distances = []
    for seed in range(5):
        clouds = sample_gaussian_mixture(components, 100, seed)
        instance = build_stage_instance(marginal, clouds, candidates, 1.0, 51)
        assert instance.dim_beta == 128_000
        assert instance.dim_gamma == 256
        t0 = time.perf_counter()
        result = run_subgradient(instance, SolverConfig(seed=seed))
        wall = time.perf_counter() - t0
        assert wall < 30.0
        distances.append(result.objective)
    mean = float(np.mean(distances))
    assert 0.644 * 0.85 <= mean <= 0.644 * 1.15

    big_clouds = sample_gaussian_mixture(components, 500, 0)
    big_candidates = sobol_lattice(2, 2048, box)
    big = build_stage_instance(marginal, big_clouds, big_candidates, 1.0, 51)
    assert big.dim_beta >= 5_000_000
    smoke = run_subgradient(big, SolverConfig(max_iter=12, seed=0))
    assert smoke.gap >= 0.0
    assert np.isfinite(smoke.objective)
    print(
        f"[criterion 2] PASS: mean W1={mean:.4f} over 5 seeds "
        f"(target 0.644 +/- 15%), smoke dim_beta={big.dim_beta}"
    )


def test_criterion_3_metric_axioms_and_plans():
    rng = np.random.default_rng(77)
    for i in range(200):
        p = 1.0 if i % 2 == 0 else 2.0
        mu = _random_distribution(rng)
        nu = _random_distribution(rng)
        rho = _random_distribution(rng)
        d_mn, plan = wasserstein_exact(mu, nu, p)
        d_nm, _ = wasserstein_exact(nu, mu, p)
        assert d_mn == d_nm
        d_mr, _ = wasserstein_exact(mu, rho, p)
        d_nr, _ = wasserstein_exact(nu, rho, p)
        assert d_mr <= d_mn + d_nr + 1e-9
        d_self, _ = wasserstein_exact(mu, mu, p)
        assert d_self == 0.0
        assert np.allclose(plan.plan.sum(axis=1), mu.weights, atol=1e-9)
        assert np.allclose(plan.plan.sum(axis=0), nu.weights, atol=1e-9)
    for i in range(50):
        p = 1.0 if i % 2 == 0 else 2.0
        n = int(rng.integers(2, 9))
        a = rng.normal(scale=2.0, size=(n, 2))
        b = rng.normal(scale=2.0, size=(n, 2))
        mu = DiscreteDistribution(a, np.full(n, 1.0 / n))
        nu = DiscreteDistribution(b, np.full(n, 1.0 / n))
        distance, _ = wasserstein_exact(mu, nu, p)
        oracle = matching_expansion_value(
            a, np.ones(n, dtype=int), b, np.ones(n, dtype=int), p
        )
        assert distance**p == pytest.approx(oracle, abs=1e-9)
    print(
        "[criterion 3] PASS: 200 triples (symmetry exact, triangle/"
        "marginals 1e-9), 50 matching agreements 1e-9"
    )


def test_criterion_4_outer_composition_inequality():
    rng = np.random.default_rng(404)
    for i in range(100):
        p = 1.0 if i % 2 == 0 else 2.0
        n_src = int(rng.integers(1, 5))
        sources = rng.normal(scale=2.0, size=(n_src, 2))
        lam = DiscreteDistribution(sources, rng.dirichlet(np.ones(n_src)))
        rows_a, rows_b = [], []
        for _ in range(n_src):
            rows_a.append(_random_distribution(rng, max_atoms=6))
            rows_b.append(_random_distribution(rng, max_atoms=6))
        q = DiscreteKernel.from_rows(sources, tuple(rows_a))
        q_tilde = DiscreteKernel.from_rows(sources, tuple(rows_b))
        itd = integrated_distance(lam, q, q_tilde, p)
        outer, _ = wasserstein_exact(
            compose_marginal(lam, q), compose_marginal(lam, q_tilde), p
        )
        assert outer <= itd + 1e-9
    print("[criterion 4] PASS: outer composed distance <= ITD on 100 instances")


def test_criterion_5_dual_correctness():
    rng = np.random.default_rng(55)
    for _ in range(50):
        instance = random_tiny_instance(rng, max_k=8)
        state = DualState(
            theta0=float(rng.uniform(0, 2)),
            theta=rng.uniform(-1, 2, size=instance.n_particles),
        )
        closed = dual_value(instance, state)
        costs = [
            pairwise_cost(cloud, instance.candidates, instance.order).entries
            for cloud in instance.clouds
        ]
        theta_groups = []
        offset = 0
        for cloud in instance.clouds:
            theta_groups.append(state.theta[offset : offset + len(cloud)])
            offset += len(cloud)
        enumerated = enumerate_lagrangian_min(
            instance.weights, costs, instance.budget, state.theta0, theta_groups
        )
        assert closed == pytest.approx(enumerated, abs=1e-12)

    checked = 0
    while checked < 500:
        instance = random_tiny_instance(rng, max_k=8)
        for _ in range(10):
            state = DualState(
                theta0=float(rng.uniform(0, 2)),
                theta=rng.uniform(-1, 2, size=instance.n_particles),
            )
            other = DualState(
                theta0=float(rng.uniform(0, 2)),
                theta=rng.uniform(-1, 2, size=instance.n_particles),
            )
            g0, g = subgradient(
                instance, state, inner_solution(instance, state)
            )
            bound = (
                dual_value(instance, state)
                + g0 * (other.theta0 - state.theta0)
                + float(np.dot(g, other.theta - state.theta))
            )
            assert dual_value(instance, other) <= bound + 1e-12
            checked += 1

    for _ in range(10):
        instance = random_tiny_instance(rng, max_k=8)
        k = instance.n_candidates
        state = DualState(
            theta0=float(rng.uniform(0, 2)),
            theta=rng.uniform(-1, 2, size=instance.n_particles),
        )
        g0_full, g_full = subgradient(
            instance, state, inner_solution(instance, state)
        )
        for size in (2, 4):
            batches = list(combinations(range(k), size))
            est0 = np.mean(
                [batch_subgradient(instance, state, b)[0] for b in batches]
            )
            est = np.mean(
                [batch_subgradient(instance, state, b)[1] for b in batches],
                axis=0,
            )
            assert est0 == pytest.approx(g0_full, abs=1e-12)
            assert np.allclose(est, g_full, atol=1e-12)
    print(
        "[criterion 5] PASS: closed-form dual (50 x 1e-12), supergradient "
        "inequality (500 x 1e-12), batch estimates unbiased (B in {2,4})"
    )


def test_criterion_6_backward_recursion():
    rng = np.random.default_rng(66)
    for _ in range(50):
        horizon = int(rng.integers(1, 5))
        system = random_discrete_system(rng, horizon=horizon, max_states=6)
        coeff = rng.normal(size=(horizon + 1, 2))
        costs = [
            (lambda x, c=coeff[t]: float(np.dot(c, x)))
            for t in range(horizon + 1)
        ]
        values = evaluate_backward(system, costs, expectation_mapping())
        root = value_at(system, values, 0, system.supports[0][0])
        want = path_expectation(system, costs)
        assert root == pytest.approx(want, abs=1e-12)
        twin = DiscreteSystem(system.supports, system.kernels)
        twin_values = evaluate_backward(twin, costs, expectation_mapping())
        for t in range(horizon + 1):
            for x in system.supports[t]:
                assert value_at(system, twin_values, t, x) == value_at(
                    system, values, t, x
                )

    for _ in range(50):
        horizon = int(rng.integers(1, 4))
        system = random_discrete_system(rng, horizon=horizon, max_states=5)
        approx = perturb_system(rng, system)
        coeff = rng.normal(size=(horizon + 1, 2))
        costs = [
            (lambda x, c=coeff[t]: float(np.dot(c, x)))
            for t in range(horizon + 1)
        ]
        sigma = expectation_mapping()
        exact = evaluate_backward(system, costs, sigma)
        tilde = evaluate_backward(approx, costs, sigma)
        marginals = [dirac(system.supports[0][0])]
        for t in range(horizon):
            marginals.append(compose_marginal(marginals[t], approx.kernels[t]))
        deltas = [
            integrated_distance(
                marginals[t], system.kernels[t], approx.kernels[t], 1.0
            )
            for t in range(horizon)
        ]
        lipschitz = [
            discrete_lipschitz(
                system.supports[t + 1],
                [value_at(system, exact, t + 1, y)
                 for y in system.supports[t + 1]],
            )
            for t in range(horizon)
        ]
        for t in range(horizon):
            err = sum(
                float(w) * abs(value_at(system, tilde, t, x)
                               - value_at(system, exact, t, x))
                for x, w in marginals[t].atoms()
            )
            bound = error_bound(lipschitz, [1.0] * (horizon - 1), deltas, t)
            assert err <= bound + 1e-9
    print(
        "[criterion 6] PASS: path enumeration (50 x 1e-12), identical "
        "kernels exact, propagation bound (50 x 1e-9)"
    )


def test_criterion_7_result_bytes_deterministic(tmp_path):
    def run(tag, threads):
        out = tmp_path / tag
        cfg = {
            "mode": "select",
            "out": str(out),
            "seeds": [11],
            "mixture": {"samples_per_component": 30},
            "candidates": {"count": 32, "box": [[-12, -12], [12, 12]]},
            "budget": 8,
            "order": 1,
            "solver": {"max_iter": 200},
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert (
            cli_main(
                ["select", "--config", str(path), "--threads", str(threads)]
            )
            == 0
        )
        return (out / "result_seed11.json").read_bytes()

    first = run("a", 1)
    second = run("b", 1)
    threaded = run("c", 4)
    assert first == second
    assert first == threaded
    print(
        "[criterion 7] PASS: result JSON byte-identical across reruns and "
        "threads {1, 4}"
    )


def test_criterion_8_sobol_stratification():
    rng = np.random.default_rng(88)
    count = 2**10
    for dim in range(1, 6):
        unit = sobol_unit(dim, count)
        for j in range(dim):
            cells = np.floor(unit[:, j] * count).astype(int)
            assert np.array_equal(np.sort(cells), np.arange(count))
        low = rng.normal(size=dim)
        high = low + rng.uniform(0.5, 3.0, size=dim)
        points = sobol_lattice(dim, 500, (low, high))
        assert np.all(points >= low)
        assert np.all(points < high)
    print(
        "[criterion 8] PASS: per-coordinate stratification at 2^10 for "
        "dims 1-5, all lattice points inside their boxes"
    )
