import numpy as np
import pytest

from helpers import enumerate_selection_optimum, random_tiny_instance
from kcompress.core import pairwise_cost
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


def test_budget_above_k_rejected():
    with pytest.raises(InfeasibleBudgetError):
        SelectionInstance.build([(1.0, [(0.0, 0.0)])], [(1.0, 1.0)], 1.0, 2)


def test_matches_independent_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        gamma, objective, _ = solve_exact(inst)
        blocks = [
            pairwise_cost(cloud, inst.candidates, inst.order).entries
            for cloud in inst.clouds
        ]
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
            inst.weights, inst.clouds, inst.candidates, inst.order, m
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


def test_weighted_costs_are_the_per_group_stack():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        direct = SelectionInstance(
            inst.weights, inst.clouds, inst.candidates, inst.order,
            inst.budget,
        )
        stack = np.vstack([
            pairwise_cost(cloud, inst.candidates, inst.order).entries * w
            for w, cloud in zip(inst.weights, inst.clouds)
        ])
        for built in (inst, direct):
            wd = built.stacked_weighted_costs()
            assert wd.dtype == np.float64 and not wd.flags.writeable
            np.testing.assert_array_equal(wd, stack)


def _brute_nearest(inst, gamma):
    """Per particle, the first selected candidate of least weighted cost,
    by a plain loop over the per-group cost blocks."""
    selected = np.flatnonzero(gamma)
    total, assignment = 0.0, []
    for w, cloud in zip(inst.weights, inst.clouds):
        block = pairwise_cost(cloud, inst.candidates, inst.order).entries * w
        picks = []
        for row in block:
            best = selected[0]
            for k in selected[1:]:
                if row[k] < row[best]:
                    best = k
            picks.append(best)
            total += row[best]
        assignment.append(picks)
    return total, assignment


def test_nearest_and_objective_match_brute_force():
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(10):
        inst = random_tiny_instance(rng)
        for _ in range(5):
            gamma = (rng.random(inst.n_candidates) < 0.5).astype(np.int8)
            gamma[rng.integers(inst.n_candidates)] = 1
            cases.append((inst, gamma))
    # candidates 1 and 3 are equidistant from every particle
    tied = SelectionInstance.build(
        [(0.25, [(0.0, 0.0), (0.0, 2.0)]), (0.25, [(0.0, -1.0), (0.0, 5.0)])],
        [(9.0, 9.0), (-1.0, 0.0), (4.0, 4.0), (1.0, 0.0)], 2.0, 2,
    )
    cases.append((tied, np.array([0, 1, 0, 1], dtype=np.int8)))
    for inst, gamma in cases:
        total, assignment = _brute_nearest(inst, gamma)
        assert inst.objective(gamma) == pytest.approx(total, rel=1e-12)
        got = inst.nearest(gamma)
        assert len(got) == inst.n_groups
        for ours, brute in zip(got, assignment):
            np.testing.assert_array_equal(ours, brute)
    np.testing.assert_array_equal(
        np.concatenate(tied.nearest([0, 1, 0, 1])), [1, 1, 1, 1]
    )
