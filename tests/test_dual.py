from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import kcompress.core
from helpers import (
    below_reference,
    dense_weighted_costs,
    enumerate_lagrangian_min,
    random_tiny_instance,
)
from kcompress.core import DiscreteDistribution, pairwise_cost
from kcompress.dual import (
    CERT_TOL,
    STALL_ITERS,
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
    _repair_with_scores,
    _Screen,
)
from kcompress.errors import KCompressError, ValidationError
from kcompress.generators import (
    demo_mixture,
    sample_gaussian_mixture,
    sobol_lattice,
)
from kcompress.oracle import SelectionInstance, solve_exact
from kcompress.pipeline import (
    StageRule, build_stage_instance, stage_candidates,
)


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


def test_state_rejects_a_negative_theta0():
    with pytest.raises(ValidationError, match="theta0 must be nonnegative"):
        DualState(theta0=-1e-12, theta=np.zeros(3))


def test_dual_value_rejects_theta_of_the_wrong_length():
    inst = random_tiny_instance(np.random.default_rng(2))
    for n in (inst.n_particles - 1, inst.n_particles + 1):
        with pytest.raises(ValidationError,
                           match=f"theta has {n} entries for "
                           f"{inst.n_particles} particles"):
            dual_value(inst, DualState(theta0=0.0, theta=np.zeros(n)))


@pytest.mark.parametrize("batch", [[], [-1, 2], [6, 2], [1.5, 2]])
def test_batch_subgradient_rejects_what_is_not_a_batch(batch):
    # K = 6: an empty batch, indices outside [0, 6) and a fraction
    inst = SelectionInstance.build([(0.5, [(0.0,), (1.0,)])],
                                   [(float(k),) for k in range(6)], 1.0, 2)
    state = DualState(theta0=0.0, theta=np.full(2, 0.5))
    with pytest.raises(ValidationError, match="candidate indices"):
        batch_subgradient(inst, state, batch)


def test_inner_attains_enumerated_minimum():
    rng = np.random.default_rng(7)
    for _ in range(15):
        inst = random_tiny_instance(rng, max_particles=4, max_k=8)
        state = _random_state(rng, inst, scale=0.3)
        value = dual_value(inst, state)
        blocks = [
            pairwise_cost(cloud, inst.candidates, inst.order)
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
        wd = dense_weighted_costs(inst)
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
# the screened sweep kernel
# ---------------------------------------------------------------------------

class _DenseCosts:
    """A stand-in instance whose weighted costs are the given (N, K) array,
    answering the queries a _Screen makes with below_reference."""

    def __init__(self, wd):
        self.wd = wd
        self.n_particles, self.n_candidates = wd.shape

    def below(self, cap):
        return below_reference(self.wd, cap)


def _dense_sweep(wd, theta, theta0):
    """The dense formula over an (N, K) matrix: every slack
    max(0, theta_si - w_s d_sik), scores summed particle by particle in
    index order, cover counted over the selected candidates, and the
    negative dual part summed once."""
    slack = np.maximum(theta[:, None] - wd, 0.0)
    scores = np.zeros(wd.shape[1])
    for row in slack:
        scores += row
    gamma = scores > theta0
    cover = ((slack > 0.0) & gamma[None, :]).sum(axis=1)
    dual_neg = float(np.minimum(0.0, theta0 - scores).sum())
    return gamma, cover, scores, dual_neg


def _assert_sweep_is_dense(got, wd, theta, theta0):
    expected = _dense_sweep(wd, theta, theta0)
    for a, b in zip(got[:3], expected[:3]):
        np.testing.assert_array_equal(a, b)
    assert got.dual_neg == expected[3]
    return expected


@pytest.mark.parametrize("k", [1, 511, 512, 513, 1500])
def test_fused_sweep_matches_reference(k):
    rng = np.random.default_rng(k)
    wd = rng.uniform(0.0, 1.0, size=(37, k)) / 37
    theta = rng.uniform(-0.005, 0.03, size=37)
    scores = _dense_sweep(wd, theta, 0.0)[2]
    # a threshold inside the score range, so some candidates are selected
    theta0 = float(np.quantile(scores, 0.7)) if k > 1 else scores[0] / 2
    screen = _Screen(_DenseCosts(wd))
    expected = _assert_sweep_is_dense(
        screen.sweep(theta, theta0), wd, theta, theta0
    )
    assert expected[0].any() and expected[1].any()
    # at theta0 = 0 every positive score enters the dual part's sum
    _assert_sweep_is_dense(screen.sweep(theta, 0.0), wd, theta, 0.0)
    # a smaller theta reuses the screen and still sweeps exactly
    cap = screen.cap
    smaller = theta * rng.uniform(0.5, 1.0, size=37)
    _assert_sweep_is_dense(screen.sweep(smaller, theta0), wd, smaller, theta0)
    assert screen.cap is cap


def test_screen_is_exact_at_caps_ties_and_nonpositive_rows():
    rng = np.random.default_rng(30)
    n, k = 40, 300
    wd = rng.uniform(0.0, 1.0, size=(n, k)) / n
    wd[3, :] = 0.0  # a particle on top of every candidate
    screen = _Screen(_DenseCosts(wd))
    start = wd.min(axis=1) * 1.5
    _assert_sweep_is_dense(screen.sweep(start, 0.0), wd, start, 0.0)
    built = screen.cap

    theta = start.copy()
    theta[:5] = [0.0, -0.0, -0.01, 0.0, -1.0]  # rows with theta <= 0
    theta[5:10] = wd[5:10].min(axis=1)  # ties w d == theta
    theta0 = 0.001
    _assert_sweep_is_dense(screen.sweep(theta, theta0), wd, theta, theta0)
    assert screen.cap is built  # theta stayed under the caps

    # a row above its cap: the screen is rebuilt, and stays exact
    theta[20] = 2.5 * built[20] + 0.01
    theta[3] = 0.02
    theta[11:15] = wd[11:15, 100]  # ties away from the row minima
    _assert_sweep_is_dense(screen.sweep(theta, theta0), wd, theta, theta0)
    assert screen.cap is not built
    np.testing.assert_array_equal(screen.cap, 2.0 * np.maximum(theta, 0.0))
    assert screen.cap[3] > 0.0


def test_initial_state_is_the_dense_formula():
    """theta0 starts at half the budget-th largest score at the row
    minima, which is always 0."""
    rng = np.random.default_rng(31)
    instances = [random_tiny_instance(rng) for _ in range(100)]
    instances += [_mixture_instance(20, 64, 10, seed) for seed in range(3)]
    for inst in instances:
        wd = dense_weighted_costs(inst)
        theta = wd.min(axis=1)
        scores = _dense_sweep(wd, theta, 0.0)[2]
        kth = np.sort(scores)[-inst.budget]
        state = initial_state(inst)
        np.testing.assert_array_equal(state.theta, theta)
        assert state.theta0 == max(0.0, float(kth) / 2.0) == 0.0


def test_batch_subgradient_is_the_dense_formula():
    # half the batches drawn with replacement: a candidate drawn twice is
    # a repeated column of the dense matrix, counted twice
    rng = np.random.default_rng(32)
    for trial in range(40):
        inst = random_tiny_instance(rng, max_k=10)
        state = _random_state(rng, inst, scale=0.5)
        k = inst.n_candidates
        size = int(rng.integers(1, k + 1))
        if trial % 2:
            cols = rng.integers(0, k, size=size + 2)
            cols[-1] = cols[0]
        else:
            cols = rng.choice(k, size=size, replace=False)
        g0, g = batch_subgradient(inst, state, cols)
        wd = dense_weighted_costs(inst)[:, cols]
        sel, cover, _, _ = _dense_sweep(wd, state.theta, state.theta0)
        scale = k / len(cols)
        assert g0 == scale * float(sel.sum()) - inst.budget
        np.testing.assert_array_equal(g, 1.0 - scale * cover)


def test_inner_solution_matches_unfused_formula():
    rng = np.random.default_rng(20)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        state = _random_state(rng, inst, scale=0.5)
        gamma, beta = inner_solution(inst, state)
        slack = state.theta[:, None] - dense_weighted_costs(inst)
        expected = np.maximum(slack, 0.0).sum(axis=0) > state.theta0
        np.testing.assert_array_equal(gamma, expected.astype(np.int8))
        np.testing.assert_array_equal(beta, (slack > 0.0) & expected)


def test_dual_reads_costs_only_through_instance_queries(monkeypatch):
    # outside a query the instance's stored matrix is a bare shape, so any
    # other read of it by the dual fails; and nothing recomputes a cost
    rng = np.random.default_rng(21)
    inst = random_tiny_instance(rng, max_k=10)
    state = _random_state(rng, inst)
    stored = inst._wdt
    calls = []

    def counted(name):
        query = getattr(SelectionInstance, name)

        def read(self, *args):
            calls.append(name)
            object.__setattr__(self, "_wdt", stored)
            try:
                return query(self, *args)
            finally:
                object.__setattr__(self, "_wdt", SimpleNamespace(
                    shape=stored.shape))
        return read

    for name in ("below", "cheapest", "nearest"):
        monkeypatch.setattr(SelectionInstance, name, counted(name))
    object.__setattr__(inst, "_wdt", SimpleNamespace(shape=stored.shape))

    def no_cost(*args):
        raise AssertionError("distance_power called after the build")

    monkeypatch.setattr(kcompress.core, "distance_power", no_cost)
    entry_points = {
        "inner_solution": lambda: inner_solution(inst, state),
        "dual_value": lambda: dual_value(inst, state),
        "initial_state": lambda: initial_state(inst),
        "batch_subgradient": lambda: batch_subgradient(inst, state, [0, 2]),
        "repair_feasibility": lambda: repair_feasibility(
            inst, np.ones(inst.n_candidates), inst.budget, state
        ),
        "run_subgradient": lambda: run_subgradient(
            inst, SolverConfig(max_iter=30)
        ),
    }
    reads = {}
    for name, entry in entry_points.items():
        before = len(calls)
        entry()
        reads[name] = set(calls[before:])
    assert reads == {
        "inner_solution": {"below"},
        "dual_value": {"below"},
        "initial_state": {"cheapest"},
        "batch_subgradient": {"below"},
        "repair_feasibility": {"below"},
        "run_subgradient": {"below", "cheapest", "nearest"},
    }


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
    wd = dense_weighted_costs(inst)
    scores = np.maximum(state.theta[:, None] - wd, 0.0).sum(axis=0)
    np.testing.assert_allclose(scores, [10.0, 10.0, 0.1])
    repaired = repair_feasibility(inst, gamma, 2, state)
    np.testing.assert_array_equal(repaired, [1, 1, 0])


@pytest.mark.parametrize("size, budget, message", [
    (4, 2, r"gamma needs shape \(6,\)"),
    (8, 2, r"gamma needs shape \(6,\)"),
    (6, -1, r"budget -1 outside \[1, 6\]"),
    (6, 7, r"budget 7 outside \[1, 6\]"),
    (6, 2.5, "budget must be an integer"),
], ids=["short", "long", "negative", "above_k", "fractional"])
def test_repair_refuses_what_is_not_a_gamma_or_budget(size, budget, message):
    points = np.arange(12.0).reshape(6, 2)
    inst = SelectionInstance.build([(1.0 / 6.0, points)], points, 1.0, 2)
    with pytest.raises(ValidationError, match=message):
        repair_feasibility(inst, np.ones(size), budget, initial_state(inst))


def test_gap_zero_when_equal():
    assert duality_gap(1.5, 1.5) == 0.0


def test_gap_negative_inside_tolerance_floors_to_zero():
    assert duality_gap(1.0, 1.0 + 5e-10) == 0.0
    # the tolerance scales with the objective beyond 1
    assert duality_gap(1e3, 1e3 + 5e-7) == 0.0


def test_gap_negative_beyond_tolerance_raises():
    with pytest.raises(KCompressError, match="lies below the dual bound"):
        duality_gap(1.0, 1.0 + 2e-9)
    with pytest.raises(KCompressError, match="lies below the dual bound"):
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


def _highs_bounds(inst):
    """The selection problem's LP relaxation optimum and its MILP optimum,
    both by HiGHS over gamma (K) and beta (K x N, candidate-major): cover
    each particle once, beta_ki <= gamma_k, at most M candidates. The MILP
    optimum is its selection's objective recomputed by the instance."""
    wdt = dense_weighted_costs(inst).T
    k, n = wdt.shape
    cost = np.concatenate([np.zeros(k), wdt.ravel()])
    cover = sparse.hstack([sparse.csr_matrix((n, k)),
                           sparse.kron(np.ones((1, k)), sparse.eye(n))])
    link = sparse.hstack([-sparse.kron(sparse.eye(k), np.ones((n, 1))),
                          sparse.eye(k * n)])
    budget = sparse.hstack([np.ones((1, k)), sparse.csr_matrix((1, k * n))])
    a_ub = sparse.vstack([link, budget]).tocsr()
    b_ub = np.append(np.zeros(k * n), inst.budget)
    lp = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=cover, b_eq=np.ones(n),
                 bounds=(0, 1), method="highs")
    ip = milp(cost, integrality=np.r_[np.ones(k), np.zeros(k * n)],
              constraints=[LinearConstraint(a_ub, -np.inf, b_ub),
                           LinearConstraint(cover, 1, 1)],
              bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
    assert lp.status == 0 and ip.status == 0
    optimum = inst.objective(np.round(ip.x[:k]))
    assert optimum == pytest.approx(ip.fun, rel=1e-9)
    return lp.fun, optimum


@pytest.mark.parametrize("budget", [3, 6])
@pytest.mark.parametrize("seed", range(5))
def test_run_is_bracketed_by_highs(seed, budget):
    # 5 x 20 particles around random centres, 64 uniform candidates: every
    # dual value is at most the LP bound, the selection at least the MILP
    # optimum, and a certified one within CERT_TOL of it
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=4.0, size=(5, 2))
    masses = rng.dirichlet(np.ones(5))
    inst = SelectionInstance.build(
        [(m / 20, c + rng.normal(size=(20, 2)))
         for m, c in zip(masses, centres)],
        rng.uniform(-8.0, 8.0, size=(64, 2)), 1.0, budget,
    )
    lp, optimum = _highs_bounds(inst)
    result = run_subgradient(inst, SolverConfig())
    assert result.history_dual.max() <= lp * (1 + 1e-9)
    assert result.objective >= optimum * (1 - 1e-9)
    if result.converged:
        assert result.objective * (1 - CERT_TOL) <= optimum * (1 + 1e-9)


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


def _dense_run(inst, max_iter=5000):
    """run_subgradient's ascent written out over the dense (N, K) matrix:
    the dense initial state and sweep, the dense objective, and the same
    repair, step and stopping rules. Returns the histories and the answer."""
    wd = dense_weighted_costs(inst)
    m = inst.budget
    theta = wd.min(axis=1)
    kth = np.sort(_dense_sweep(wd, theta, 0.0)[2])[-m]
    theta0 = max(0.0, float(kth) / 2.0)
    hist = {"dual": [], "primal": [], "sum_gamma": [], "alpha": [],
            "theta0": []}
    best, upper, best_gamma = -np.inf, np.inf, None
    step_scale, stall, stop = 1.0, 0, "max_iter"
    for _ in range(max_iter):
        gamma, cover, scores, dual_neg = _dense_sweep(wd, theta, theta0)
        dual = dual_neg + float(theta.sum()) - m * theta0
        if gamma.any():
            feasible = _repair_with_scores(gamma, scores, theta0, m)
        else:
            feasible = np.zeros(len(gamma), dtype=np.int8)
            feasible[np.argsort(-scores, kind="stable")[:m]] = 1
        objective = float(wd[:, feasible == 1].min(axis=1).sum())
        if objective < upper:
            upper, best_gamma = objective, feasible
        if dual > best:
            best, stall = dual, 0
        else:
            stall += 1
            if stall == STALL_ITERS:
                step_scale, stall = step_scale / 2.0, 0
        g0 = float(gamma.sum() - m)
        g = 1.0 - cover
        norm2 = g0 * g0 + float(g @ g)
        alpha = step_scale * (upper - dual) / norm2 if norm2 > 0 else 0.0
        for key, value in zip(hist, (dual, upper, int(gamma.sum()), alpha,
                                     theta0)):
            hist[key].append(value)
        if upper - best <= CERT_TOL * upper:
            stop = "certified"
            break
        if norm2 == 0 or step_scale < 1e-6:
            stop = "stabilized"
            break
        theta0 = max(0.0, theta0 + alpha * g0)
        theta = theta + alpha * g
    return hist, best_gamma, upper, best, stop


def _assert_is_dense_run(inst, result):
    hist, gamma, objective, best, stop = _dense_run(inst)
    for key, values in hist.items():
        np.testing.assert_array_equal(
            getattr(result, f"history_{key}"), values, err_msg=key
        )
    np.testing.assert_array_equal(result.gamma, gamma)
    assert (result.objective, result.best_dual, result.stop_reason) == (
        objective, best, stop
    )


@pytest.mark.parametrize("seed", range(5))
def test_desk_run_is_the_dense_ascent(seed):
    inst = _mixture_instance(100, 256, 51, seed)
    _assert_is_dense_run(inst, run_subgradient(inst, SolverConfig()))


def test_subsample_run_is_the_dense_ascent(monkeypatch):
    # candidates on particles: their zero costs keep caps at 0 until theta
    # rises, so the screen is rebuilt again and again
    components = demo_mixture()
    marginal = DiscreteDistribution(
        np.array([c.mean for c in components]), np.full(5, 0.2)
    )
    clouds = sample_gaussian_mixture(components, 40, 4)
    candidates = stage_candidates(
        clouds, 100, StageRule("subsample"), np.random.default_rng(4)
    )
    inst = build_stage_instance(marginal, clouds, candidates, 1.0, 20)
    builds = []
    build = _Screen._build
    monkeypatch.setattr(
        _Screen, "_build",
        lambda self, theta: builds.append(1) or build(self, theta),
    )
    result = run_subgradient(inst, SolverConfig())
    assert len(builds) > 20
    _assert_is_dense_run(inst, result)


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
    inst = _mixture_instance(10, 1124, 11)
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
        assert result.beta_assignment.shape == (inst.n_particles,)
        assert set(result.beta_assignment) <= set(np.flatnonzero(result.gamma))


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
    wd = dense_weighted_costs(inst)
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
