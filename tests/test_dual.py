from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest

from helpers import enumerate_lagrangian_min, random_tiny_instance
from kcompress.core import DiscreteDistribution, pairwise_cost
from kcompress.dual import (
    CERT_TOL,
    STALL_ITERS,
    SWEEP_BLOCK,
    DualState,
    SelectionResult,
    SolverConfig,
    batch_subgradient,
    dual_value,
    duality_gap,
    initial_state,
    inner_solution,
    repair_feasibility,
    run_subgradient,
    subgradient,
    _sweep,
)
from kcompress.errors import NegativeGapError, ValidationError
from kcompress.generators import (
    demo_mixture,
    sample_gaussian_mixture,
    sobol_lattice,
)
from kcompress.oracle import SelectionInstance, solve_exact
from kcompress.pipeline import build_stage_instance


def _zero_state(instance):
    return DualState(theta0=0.0, theta=np.zeros(instance.n_particles))


def _random_state(rng, instance, scale=1.0):
    return DualState(
        theta0=float(rng.uniform(0, scale)),
        theta=rng.uniform(-scale, scale, size=instance.n_particles),
    )


def _theta_groups(instance, theta):
    """Split a flat theta vector back into per-group vectors."""
    out = []
    start = 0
    for cloud in instance.clouds:
        out.append(theta[start : start + len(cloud)])
        start += len(cloud)
    return out


# ---------------------------------------------------------------------------
# inner solution / dual value / subgradient
# ---------------------------------------------------------------------------

def test_zero_multipliers_select_nothing():
    rng = np.random.default_rng(0)
    inst = random_tiny_instance(rng)
    gamma, beta = inner_solution(inst, _zero_state(inst))
    assert gamma.sum() == 0
    assert not beta.any()
    assert dual_value(inst, _zero_state(inst)) == 0.0


def test_huge_threshold_dominates():
    inst = SelectionInstance.build(
        [(1.0, [(0.0, 0.0)])], [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], 1.0, 1
    )
    state = DualState(theta0=0.0, theta=np.array([10.0]))
    gamma, beta = inner_solution(inst, state)
    np.testing.assert_array_equal(gamma, [1, 1, 1])
    assert beta.all()


def test_dual_value_large_theta0():
    rng = np.random.default_rng(1)
    inst = random_tiny_instance(rng)
    theta = rng.uniform(0, 1, size=inst.n_particles)
    state = DualState(theta0=1e6, theta=theta)
    expected = theta.sum() - inst.budget * 1e6
    assert dual_value(inst, state) == pytest.approx(expected, rel=1e-12)


def test_inner_attains_enumerated_minimum():
    rng = np.random.default_rng(7)
    for _ in range(15):
        inst = random_tiny_instance(rng, max_particles=4, max_k=8)
        state = _random_state(rng, inst, scale=0.3)
        value = dual_value(inst, state)
        blocks = [
            pairwise_cost(cloud, inst.candidates, inst.order).entries
            for cloud in inst.clouds
        ]
        brute = enumerate_lagrangian_min(
            inst.weights,
            blocks,
            inst.budget,
            state.theta0,
            _theta_groups(inst, state.theta),
        )
        assert value == pytest.approx(brute, abs=1e-12)


def test_dual_value_is_lagrangian_at_inner_solution():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        state = _random_state(rng, inst, scale=0.5)
        gamma, beta = inner_solution(inst, state)
        wd = inst.stacked_weighted_costs()
        lagrangian = (
            float((wd * beta).sum())
            + float(state.theta @ (1.0 - beta.sum(axis=1)))
            + state.theta0 * (float(gamma.sum()) - inst.budget)
        )
        assert dual_value(inst, state) == pytest.approx(lagrangian, abs=1e-12)


def test_beta_only_on_selected():
    rng = np.random.default_rng(4)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        gamma, beta = inner_solution(inst, _random_state(rng, inst))
        assert not beta[:, gamma == 0].any()


def test_subgradient_at_zero():
    rng = np.random.default_rng(5)
    inst = random_tiny_instance(rng)
    state = _zero_state(inst)
    g0, g = subgradient(inst, state, inner_solution(inst, state))
    assert g0 == -inst.budget
    np.testing.assert_array_equal(g, np.ones(inst.n_particles))


def test_supergradient_inequality():
    rng = np.random.default_rng(6)
    for _ in range(40):
        inst = random_tiny_instance(rng, max_particles=5, max_k=8)
        state = _random_state(rng, inst, scale=0.4)
        other = _random_state(rng, inst, scale=0.4)
        g0, g = subgradient(inst, state, inner_solution(inst, state))
        lhs = dual_value(inst, other)
        rhs = (
            dual_value(inst, state)
            + g0 * (other.theta0 - state.theta0)
            + float(g @ (other.theta - state.theta))
        )
        assert lhs <= rhs + 1e-12


def test_concavity_probe():
    rng = np.random.default_rng(8)
    for _ in range(20):
        inst = random_tiny_instance(rng, max_particles=5, max_k=8)
        a = _random_state(rng, inst, scale=0.4)
        b = _random_state(rng, inst, scale=0.4)
        t = float(rng.uniform(0.1, 0.9))
        mix = DualState(
            theta0=t * a.theta0 + (1 - t) * b.theta0,
            theta=t * a.theta + (1 - t) * b.theta,
        )
        assert dual_value(inst, mix) >= (
            t * dual_value(inst, a) + (1 - t) * dual_value(inst, b) - 1e-12
        )


def test_weak_duality_random_multipliers():
    rng = np.random.default_rng(9)
    inst = random_tiny_instance(rng)
    _, optimum, _ = solve_exact(inst)
    for _ in range(200):
        state = _random_state(rng, inst, scale=0.5)
        assert dual_value(inst, state) <= optimum + 1e-9


# ---------------------------------------------------------------------------
# the fused sweep kernel
# ---------------------------------------------------------------------------

def _reference_sweep(wd, theta, theta0):
    """The unfused per-block formula: a fresh slack array and a boolean
    cover mask per block, blocks reduced in index order."""
    n, k = wd.shape
    gamma, scores, cover, dual_neg = [], [], np.zeros(n), 0.0
    for s in range(0, k, SWEEP_BLOCK):
        slack = theta[:, None] - wd[:, s : s + SWEEP_BLOCK]
        block_scores = np.maximum(slack, 0.0).sum(axis=0)
        sel = block_scores > theta0
        cover += ((slack > 0.0) & sel[None, :]).sum(axis=1).astype(np.float64)
        dual_neg += float(np.minimum(0.0, theta0 - block_scores).sum())
        gamma.append(sel)
        scores.append(block_scores)
    return np.concatenate(gamma), cover, np.concatenate(scores), dual_neg


@pytest.mark.parametrize("k", [1, 511, 512, 513, 1500])
def test_fused_sweep_matches_reference(k):
    rng = np.random.default_rng(k)
    wd = rng.uniform(0.0, 1.0, size=(37, k)) / 37
    theta = rng.uniform(-0.005, 0.03, size=37)
    scores = np.maximum(theta[:, None] - wd, 0.0).sum(axis=0)
    # a threshold inside the score range, so some candidates are selected
    theta0 = float(np.quantile(scores, 0.7)) if k > 1 else scores[0] / 2
    expected = _reference_sweep(wd, theta, theta0)
    assert expected[0].any() and expected[1].any()
    for threads in (1, 2, 4):
        executor = ThreadPoolExecutor(threads) if threads > 1 else None
        try:
            got = _sweep(wd, theta, theta0, executor)
        finally:
            if executor is not None:
                executor.shutdown()
        for a, b in zip(got[:3], expected[:3]):
            np.testing.assert_array_equal(a, b)
        assert got[3] == expected[3]


def test_inner_solution_matches_unfused_formula():
    rng = np.random.default_rng(20)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        state = _random_state(rng, inst, scale=0.5)
        gamma, beta = inner_solution(inst, state)
        slack = state.theta[:, None] - inst.stacked_weighted_costs()
        expected = np.maximum(slack, 0.0).sum(axis=0) > state.theta0
        np.testing.assert_array_equal(gamma, expected.astype(np.int8))
        np.testing.assert_array_equal(beta, (slack > 0.0) & expected)


def test_stacked_matrix_built_once_per_instance(monkeypatch):
    rng = np.random.default_rng(21)
    inst = random_tiny_instance(rng, max_k=10)
    state = _random_state(rng, inst)
    reads = []
    accessor = SelectionInstance.stacked_weighted_costs

    def recording(self):
        reads.append(accessor(self))
        return reads[-1]

    monkeypatch.setattr(SelectionInstance, "stacked_weighted_costs", recording)
    entry_points = (
        lambda: inner_solution(inst, state),
        lambda: dual_value(inst, state),
        lambda: initial_state(inst),
        lambda: batch_subgradient(inst, state, [0, 2]),
        lambda: repair_feasibility(
            inst, np.ones(inst.n_candidates), inst.budget, state
        ),
        lambda: run_subgradient(inst, SolverConfig(max_iter=30)),
    )
    for entry in entry_points:
        before = len(reads)
        entry()
        assert len(reads) > before
    assert all(wd is reads[0] for wd in reads)
    assert not reads[0].flags.writeable


# ---------------------------------------------------------------------------
# stochastic estimates
# ---------------------------------------------------------------------------

def test_batch_estimates_unbiased():
    rng = np.random.default_rng(10)
    inst = random_tiny_instance(rng, max_k=8)
    state = _random_state(rng, inst, scale=0.4)
    gamma, beta = inner_solution(inst, state)
    g0_full = float(gamma.sum()) - inst.budget
    g_full = 1.0 - beta.sum(axis=1)
    k = inst.n_candidates
    for b in (2, 4):
        batches = list(combinations(range(k), b))
        avg0 = 0.0
        avg = np.zeros(inst.n_particles)
        for batch in batches:
            g0, g = batch_subgradient(inst, state, batch)
            avg0 += g0
            avg += g
        avg0 /= len(batches)
        avg /= len(batches)
        assert avg0 == pytest.approx(g0_full, abs=1e-12)
        np.testing.assert_allclose(avg, g_full, atol=1e-12)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_noop_when_feasible():
    rng = np.random.default_rng(12)
    inst = random_tiny_instance(rng)
    state = _random_state(rng, inst)
    gamma = np.zeros(inst.n_candidates, dtype=np.int8)
    gamma[: inst.budget] = 1
    np.testing.assert_array_equal(
        repair_feasibility(inst, gamma, inst.budget, state), gamma
    )


def test_repair_clears_marginal_candidate():
    """Scores 10, 10, 0.1 with theta0=0.05 and budget 2: the candidate whose
    score barely clears theta0 is removed first."""
    # clusters far apart so each particle contributes only to its own
    # candidate's score, making the scores exactly the theta entries
    particles = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]
    candidates = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]
    inst = SelectionInstance.build(
        [(1.0 / 3.0, particles)], candidates, 1.0, 2
    )
    state = DualState(theta0=0.05, theta=np.array([10.0, 10.0, 0.1]))
    gamma, _ = inner_solution(inst, state)
    np.testing.assert_array_equal(gamma, [1, 1, 1])
    wd = inst.stacked_weighted_costs()
    scores = np.maximum(state.theta[:, None] - wd, 0.0).sum(axis=0)
    np.testing.assert_allclose(scores, [10.0, 10.0, 0.1])
    repaired = repair_feasibility(inst, gamma, 2, state)
    np.testing.assert_array_equal(repaired, [1, 1, 0])


def test_gap_zero_when_equal():
    assert duality_gap(1.5, 1.5) == 0.0


def test_gap_negative_inside_tolerance_floors_to_zero():
    assert duality_gap(1.0, 1.0 + 5e-10) == 0.0
    # the tolerance scales with the objective beyond 1
    assert duality_gap(1e3, 1e3 + 5e-7) == 0.0


def test_gap_negative_beyond_tolerance_raises():
    with pytest.raises(NegativeGapError):
        duality_gap(1.0, 1.0 + 2e-9)
    with pytest.raises(NegativeGapError):
        duality_gap(1e3, 1e3 + 2e-6)


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def test_perfect_cover_reaches_zero():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(6, 2))
    distinct = np.unique(pts, axis=0)
    inst = SelectionInstance.build(
        [(1.0 / len(pts), pts)], distinct, 1.0, len(distinct)
    )
    result = run_subgradient(inst, SolverConfig(max_iter=400))
    assert result.objective == pytest.approx(0.0, abs=1e-9)


def test_run_matches_oracle_mostly():
    rng = np.random.default_rng(14)
    hits = 0
    for _ in range(20):
        inst = random_tiny_instance(rng)
        _, optimum, _ = solve_exact(inst)
        result = run_subgradient(inst, SolverConfig(max_iter=600))
        assert result.best_dual <= optimum + 1e-9
        assert result.gap >= -1e-9
        if result.objective <= optimum * 1.05 + 1e-12:
            hits += 1
    assert hits >= 18


def _mixture_instance(samples, count, budget, seed=0):
    """The desk experiment's mixture at a chosen size: `samples` per
    component, the first `count` Sobol points of [-12, 12]^2, order 1."""
    components = demo_mixture()
    marginal = DiscreteDistribution(
        np.array([c.mean for c in components]), np.full(5, 0.2)
    )
    box = (np.array([-12.0, -12.0]), np.array([12.0, 12.0]))
    clouds = sample_gaussian_mixture(components, samples, seed)
    return build_stage_instance(
        marginal, clouds, sobol_lattice(2, count, box), 1.0, budget
    )


def _replay_polyak(inst, result):
    """Replay the ascent from the initial state and check the Polyak
    identity alpha_j ||g_j||^2 = lambda_j (UB_j - L_j) at every iteration,
    with lambda starting at 1 and halving after STALL_ITERS iterations
    without a new best dual. Returns the last lambda."""
    state = initial_state(inst)
    step_scale, stall, best = 1.0, 0, -np.inf
    for j in range(result.iterations):
        g0, g = subgradient(inst, state, inner_solution(inst, state))
        dual = result.history_dual[j]
        assert dual_value(inst, state) == pytest.approx(dual, abs=1e-12)
        if dual > best:
            best, stall = dual, 0
        else:
            stall += 1
            if stall == STALL_ITERS:
                step_scale, stall = step_scale / 2.0, 0
        alpha = result.history_alpha[j]
        assert alpha * (g0 * g0 + float(g @ g)) == pytest.approx(
            step_scale * (result.history_primal[j] - dual), rel=1e-9, abs=1e-15
        )
        state = DualState(
            theta0=max(0.0, state.theta0 + alpha * g0),
            theta=state.theta + alpha * g,
        )
    return step_scale


def test_history_shapes_and_best_dual():
    rng = np.random.default_rng(15)
    inst = random_tiny_instance(rng)
    result = run_subgradient(inst, SolverConfig(max_iter=50))
    n = result.iterations
    assert len(result.history_dual) == n
    assert len(result.history_sum_gamma) == n
    assert len(result.history_alpha) == n
    assert result.best_dual == pytest.approx(result.history_dual.max())
    # best-so-far trace is non-decreasing by construction
    best_so_far = np.maximum.accumulate(result.history_dual)
    assert np.all(np.diff(best_so_far) >= 0)
    assert len(result.history_primal) == n
    _replay_polyak(inst, result)


def test_run_is_deterministic_across_threads():
    rng = np.random.default_rng(16)
    inst = random_tiny_instance(rng, max_particles=8, max_k=12)
    results = [
        run_subgradient(inst, SolverConfig(max_iter=120, threads=t))
        for t in (1, 4)
    ]
    _assert_same_run(*results)


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.gamma, b.gamma)
    np.testing.assert_array_equal(a.history_dual, b.history_dual)
    np.testing.assert_array_equal(a.history_primal, b.history_primal)
    np.testing.assert_array_equal(a.history_alpha, b.history_alpha)
    assert a.objective == b.objective
    assert a.best_dual == b.best_dual
    assert a.stop_reason == b.stop_reason


def test_multiblock_run_is_deterministic_across_threads():
    # three sweep blocks, so the worker pool takes part
    inst = _mixture_instance(10, 2 * SWEEP_BLOCK + 100, 11)
    _assert_same_run(*(
        run_subgradient(inst, SolverConfig(max_iter=200, threads=t))
        for t in (1, 4)
    ))


def test_selection_respects_budget():
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        result = run_subgradient(inst, SolverConfig(max_iter=200))
        assert result.gamma.sum() <= inst.budget
        selected = set(np.flatnonzero(result.gamma))
        for group in result.beta_assignment:
            assert set(group) <= selected


def test_polyak_step_scale_halves_on_stall():
    inst = _mixture_instance(30, 256, 11)
    result = run_subgradient(inst, SolverConfig(max_iter=150))
    assert result.stop_reason == "max_iter"
    assert result.iterations == 150
    assert _replay_polyak(inst, result) < 1.0


def test_primal_trace_is_best_feasible_so_far():
    inst = _mixture_instance(20, 128, 11)
    result = run_subgradient(inst, SolverConfig())
    primal = result.history_primal
    assert np.all(np.isfinite(primal))
    assert np.all(np.diff(primal) <= 0)
    assert primal[-1] == result.objective
    wd = inst.stacked_weighted_costs()
    selected = np.flatnonzero(result.gamma)
    assert 1 <= len(selected) <= inst.budget
    assert wd[:, selected].min(axis=1).sum() == result.objective
    # every iterate's dual value is a lower bound on every primal value
    assert result.history_dual.max() <= primal.min() + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_desk_seeds_certify(seed):
    # the paper's desk experiment: 5 x 100 particles, 256 candidates, M=51
    result = run_subgradient(
        _mixture_instance(100, 256, 51, seed), SolverConfig(seed=seed)
    )
    assert result.stop_reason == "certified"
    assert result.converged
    assert result.gap <= CERT_TOL * result.objective
    assert result.gap == result.objective - result.best_dual


def test_nested_candidates_do_not_worsen():
    # the first 64 Sobol points are a subset of the first 128
    small = run_subgradient(_mixture_instance(30, 64, 10), SolverConfig())
    large = run_subgradient(_mixture_instance(30, 128, 10), SolverConfig())
    assert small.stop_reason == large.stop_reason == "certified"
    assert large.objective <= (1 + CERT_TOL) * small.objective


@pytest.mark.parametrize("count, budget", [(64, 10), (128, 10), (128, 20)])
def test_larger_budget_does_not_worsen(count, budget):
    tight = run_subgradient(
        _mixture_instance(30, count, budget), SolverConfig()
    )
    loose = run_subgradient(
        _mixture_instance(30, count, budget + 1), SolverConfig()
    )
    assert tight.stop_reason == loose.stop_reason == "certified"
    assert loose.objective <= (1 + CERT_TOL) * tight.objective


@pytest.mark.parametrize("field, value", [
    ("max_iter", 2.5), ("max_iter", True), ("max_iter", 0),
    ("threads", 1.5), ("threads", False), ("threads", "2"),
])
def test_solver_config_needs_positive_integers(field, value):
    with pytest.raises(ValidationError, match=field):
        SolverConfig(**{field: value})
    assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3
