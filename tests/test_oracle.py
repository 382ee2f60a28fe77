import numpy as np
import pytest

from helpers import enumerate_selection_optimum, random_tiny_instance
from kcompress.errors import EnumerationGuardError, InfeasibleBudgetError
from kcompress.oracle import SelectionInstance, solve_exact
from kcompress.transport import assignment_distance


def _single_group_instance(particles, candidates, p, budget):
    n = len(particles)
    return SelectionInstance.build([(1.0 / n, particles)], candidates, p, budget)


def test_budget_not_binding():
    rng = np.random.default_rng(0)
    inst = random_tiny_instance(rng, max_k=6, max_m=1)
    # lift the budget to K: the optimum is the unconstrained nearest cost
    free = SelectionInstance(
        inst.weights,
        inst.clouds,
        inst.candidates,
        inst.costs,
        inst.order,
        inst.n_candidates,
    )
    _, objective, _ = solve_exact(free)
    expected = float(free.stacked_weighted_costs().min(axis=1).sum())
    assert objective == pytest.approx(expected, abs=1e-12)


def test_hand_enumerated_singletons():
    """Three singleton choices cost exactly 5.0 each; ties go to index 0."""
    gamma, objective, assignment = solve_exact(
        _single_group_instance(
            [(0.0, 0.0), (10.0, 0.0)],
            [(0.0, 0.0), (10.0, 0.0), (5.0, 0.0)],
            1.0,
            1,
        )
    )
    assert objective == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_array_equal(gamma, [1, 0, 0])
    np.testing.assert_array_equal(assignment[0], [0, 0])


def test_exact_cover_reaches_zero():
    particles = [(0.0, 0.0), (3.0, 1.0), (0.0, 0.0)]
    candidates = [(3.0, 1.0), (0.0, 0.0), (7.0, 7.0)]
    _, objective, _ = solve_exact(
        _single_group_instance(particles, candidates, 2.0, 2)
    )
    assert objective == 0.0


def test_enumeration_guard():
    rng = np.random.default_rng(1)
    big = SelectionInstance.build(
        [(1.0 / 4, rng.normal(size=(4, 2)))], rng.normal(size=(21, 2)), 1.0, 2
    )
    with pytest.raises(EnumerationGuardError):
        solve_exact(big)


def test_zero_budget_rejected_at_build():
    with pytest.raises(InfeasibleBudgetError):
        SelectionInstance.build(
            [(1.0, [(0.0, 0.0)])], [(1.0, 1.0), (2.0, 2.0)], 1.0, 0
        )


def test_cost_blocks_are_required():
    inst = random_tiny_instance(np.random.default_rng(4))
    with pytest.raises(TypeError):
        SelectionInstance(
            inst.weights, inst.clouds, inst.candidates, None, inst.order,
            inst.budget,
        )


def test_budget_above_k_rejected():
    with pytest.raises(InfeasibleBudgetError):
        SelectionInstance.build([(1.0, [(0.0, 0.0)])], [(1.0, 1.0)], 1.0, 2)


def test_matches_independent_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        gamma, objective, _ = solve_exact(inst)
        blocks = [c.entries for c in inst.costs]
        oracle_val, oracle_subset = enumerate_selection_optimum(
            inst.weights, blocks, inst.budget
        )
        assert objective == pytest.approx(oracle_val, abs=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(gamma), oracle_subset)


def test_beats_random_subsets():
    rng = np.random.default_rng(5)
    inst = random_tiny_instance(rng)
    _, objective, _ = solve_exact(inst)
    wd = inst.stacked_weighted_costs()
    for _ in range(1000):
        size = int(rng.integers(1, inst.budget + 1))
        subset = rng.choice(inst.n_candidates, size=size, replace=False)
        val = float(wd[:, subset].min(axis=1).sum())
        assert objective <= val + 1e-12


def test_objective_nonincreasing_in_budget():
    rng = np.random.default_rng(9)
    inst = random_tiny_instance(rng, max_m=1)
    prev = np.inf
    for m in range(1, 5):
        sized = SelectionInstance(
            inst.weights, inst.clouds, inst.candidates, inst.costs, inst.order, m
        )
        _, objective, _ = solve_exact(sized)
        assert objective <= prev + 1e-15
        prev = objective


def test_objective_recomputable_via_assignment_distance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        gamma, objective, _ = solve_exact(inst)
        selected = inst.candidates[gamma.astype(bool)]
        total = 0.0
        for w, cloud in zip(inst.weights, inst.clouds):
            value, _ = assignment_distance(
                cloud, np.full(len(cloud), w), selected, inst.order
            )
            total += value
        assert total == pytest.approx(objective, abs=1e-12)


def test_assignment_refers_to_selected_only():
    rng = np.random.default_rng(21)
    inst = random_tiny_instance(rng)
    gamma, _, assignment = solve_exact(inst)
    selected = set(np.flatnonzero(gamma))
    for group in assignment:
        assert set(group) <= selected
