import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    below_reference,
    dense_weighted_costs,
    enumerate_selection_optimum,
    random_tiny_instance,
)
from kcompress import core
from kcompress.core import pairwise_cost
from kcompress.errors import KCompressError, ValidationError
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
    expected = float(dense_weighted_costs(free).min(axis=1).sum())
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
    np.testing.assert_array_equal(assignment, [0, 0])


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
    with pytest.raises(KCompressError,
                       match="K=21, M=2 beyond the enumeration guard"):
        solve_exact(big)


def test_zero_budget_rejected_at_build():
    with pytest.raises(ValidationError, match=r"budget 0 outside \[1, 2\]"):
        SelectionInstance.build(
            [(1.0, [(0.0, 0.0)])], [(1.0, 1.0), (2.0, 2.0)], 1.0, 0
        )
    # a bool or a non-integral budget is not a count
    for budget in (2.5, True, 1.0):
        with pytest.raises(ValidationError,
                           match=f"budget must be an integer, got {budget}"):
            SelectionInstance.build(
                [(1.0, [(0.0, 0.0)])], [(1.0, 1.0), (2.0, 2.0)], 1.0, budget
            )
    inst = SelectionInstance.build(
        [(1.0, [(0.0, 0.0)])], [(1.0, 1.0), (2.0, 2.0)], 1.0, np.int64(2))
    assert inst.budget == 2


def test_budget_above_k_rejected():
    with pytest.raises(ValidationError, match=r"budget 2 outside \[1, 1\]"):
        SelectionInstance.build([(1.0, [(0.0, 0.0)])], [(1.0, 1.0)], 1.0, 2)


def test_matches_independent_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        gamma, objective, _ = solve_exact(inst)
        blocks = [
            pairwise_cost(cloud, inst.candidates, inst.order)
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
    wd = dense_weighted_costs(inst)
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
    assert assignment.shape == (inst.n_particles,)
    assert set(assignment) <= set(np.flatnonzero(gamma))


def test_weighted_costs_are_the_per_group_stack():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        direct = SelectionInstance(
            inst.weights, inst.clouds, inst.candidates, inst.order,
            inst.budget,
        )
        stack = dense_weighted_costs(inst)
        everything = np.full(inst.n_particles, np.inf)
        for built in (inst, direct):
            cand, part, cost = built.below(everything)
            assert cost.dtype == np.float64
            np.testing.assert_array_equal(cost.reshape(stack.T.shape), stack.T)
            np.testing.assert_array_equal(built.cheapest(), stack.min(axis=1))
            assert built.n_particles == len(stack)
            assert not built.sizes.flags.writeable
            np.testing.assert_array_equal(
                built.sizes, [len(c) for c in built.clouds])


def _brute_nearest(inst, gamma):
    """Per particle, the first selected candidate of least weighted cost,
    by a plain loop over the per-group cost blocks."""
    selected = np.flatnonzero(gamma)
    total, assignment = 0.0, []
    for w, cloud in zip(inst.weights, inst.clouds):
        block = pairwise_cost(cloud, inst.candidates, inst.order) * w
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
        np.testing.assert_array_equal(
            inst.nearest(gamma), np.concatenate(assignment))
    np.testing.assert_array_equal(tied.nearest([0, 1, 0, 1]), [1, 1, 1, 1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_queries_match_the_dense_reference(seed):
    # points on a coarse integer grid and repeated candidates, so equal
    # costs (ties at the cap and between candidates) are common
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(1, 4))
    sizes = rng.integers(1, 6, size=n_groups)
    lam = rng.dirichlet(np.ones(n_groups))
    groups = [(lam[s] / n, rng.integers(-2, 3, size=(n, 2)).astype(float))
              for s, n in enumerate(sizes)]
    base = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), 2))
    candidates = base[rng.integers(0, len(base), size=int(rng.integers(1, 9)))]
    order = float(rng.choice([1.0, 2.0]))
    inst = SelectionInstance.build(groups, candidates, order, 1)
    wd = dense_weighted_costs(inst)
    n, k = wd.shape
    # caps: an entry of the particle's row (a tie), at most zero, or between
    picks = rng.integers(0, 3, size=n)
    cap = np.where(picks == 0, wd[np.arange(n), rng.integers(0, k, size=n)],
                   np.where(picks == 1, -rng.choice([0.0, 1.0], size=n),
                            rng.uniform(0.0, wd.max() + 0.1, size=n)))
    for got, want in zip(inst.below(cap), below_reference(wd, cap)):
        np.testing.assert_array_equal(got, want)
    rows = rng.integers(0, k, size=int(rng.integers(1, 2 * k + 1)))
    for r in (None, rows):
        cols = np.arange(k) if r is None else r
        np.testing.assert_array_equal(inst.cheapest(r),
                                      wd[:, cols].min(axis=1))
    gamma = (rng.random(k) < 0.5).astype(np.int8)
    gamma[rng.integers(k)] = 1
    selected = np.flatnonzero(gamma)
    costs = wd[:, selected]
    first = selected[np.argmax(costs == costs.min(axis=1, keepdims=True),
                               axis=1)]
    np.testing.assert_array_equal(inst.nearest(gamma), first)


# K = 6; each query refuses what it cannot answer instead of reading a
# wrapped, truncated or empty selection
@pytest.mark.parametrize("query, arg, match", [
    ("objective", [1, 0, 0, 0, 1], r"a nonzero entry, got \(5,\)"),
    ("objective", [0] * 6, r"a nonzero entry, got \(6,\)"),
    ("nearest", [0] * 6, r"a nonzero entry, got \(6,\)"),
    ("nearest", [[1, 0, 0, 0, 0, 1]], r"a nonzero entry, got \(1, 6\)"),
    ("cheapest", [-1], "candidate indices"),
    ("cheapest", [6], "candidate indices"),
    ("cheapest", [], "candidate indices"),
    ("cheapest", [1.5], "candidate indices"),
    ("cheapest", [[0, 1]], "candidate indices"),
])
def test_selection_queries_refuse_what_they_cannot_answer(query, arg, match):
    inst = _single_group_instance(
        [(0.0, 0.0), (1.0, 0.0)], [(float(k), 1.0) for k in range(6)], 1.0, 2)
    with pytest.raises(ValidationError, match=match):
        getattr(inst, query)(arg)


_CLOUDS = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0)])
_CANDS = [(0.0, 0.0), (1.0, 1.0)]


# each case id numbers the case's inputs and names the kind of fault
@pytest.mark.parametrize("weights, clouds, match", [
    pytest.param([], (), "no particle groups",
                 id="weights0-clouds0-None-EmptyInstanceError"),
    pytest.param([0.5], _CLOUDS, "one weight per group required",
                 id="weights1-clouds1-None-LengthMismatchError"),
    pytest.param([[0.25, 0.5]], _CLOUDS, "one weight per group required",
                 id="weights2-clouds2-None-LengthMismatchError"),
    pytest.param([0.5, 0.0], _CLOUDS, "group weights must be positive",
                 id="weights3-clouds3-None-NegativeWeightError"),
    pytest.param([0.25, -0.5], _CLOUDS, "group weights must be positive",
                 id="weights4-clouds4-None-NegativeWeightError"),
    pytest.param([0.5, 1.0], ([(0.0, 0.0)], np.empty((0, 2))),
                 "empty particle group",
                 id="weights5-clouds5-None-EmptyInstanceError"),
    pytest.param([0.25, 0.25], _CLOUDS,
                 r"sum of w_s \* n_s is 0.75, expected 1",
                 id="weights6-clouds6-None-WeightsNotNormalizedError"),
])
def test_instance_rejects_inconsistent_groups(weights, clouds, match):
    with pytest.raises(ValidationError, match=match):
        SelectionInstance(weights, clouds, _CANDS, 1.0, 1)


def test_instance_rejects_an_overflowing_cost():
    # finite points whose squared distance overflows to infinity
    with pytest.raises(ValidationError, match="cost entries must be finite"):
        SelectionInstance([0.5], [[(1e200, 0.0), (0.0, 0.0)]],
                          [(-1e200, 0.0), (0.0, 0.0)], 2.0, 1)


def test_instance_build_freezes_each_array_once(monkeypatch):
    # the candidates and each cloud are copied and scanned once per build,
    # not again for every group's cost block
    frozen = []
    as_points = core.as_points
    monkeypatch.setattr(core, "as_points",
                        lambda points: frozen.append(1) or as_points(points))
    SelectionInstance([0.25, 0.5], _CLOUDS, _CANDS, 1.0, 1)
    assert len(frozen) == 1 + len(_CLOUDS)


def test_instance_rejects_mismatched_dimensions_and_order():
    with pytest.raises(ValidationError,
                       match="point dimensions differ: 2 vs 3"):
        SelectionInstance([0.5, 0.5], [[(0.0, 0.0)], [(0.0, 0.0, 0.0)]],
                          _CANDS, 1.0, 1)
    with pytest.raises(ValidationError, match="order p must be >= 1, got 0.5"):
        SelectionInstance([0.25, 0.5], _CLOUDS, _CANDS, 0.5, 1)


def test_instance_accepts_the_same_groups_when_consistent():
    inst = SelectionInstance([0.25, 0.5], _CLOUDS, _CANDS, 1.0, 1)
    assert inst.n_particles == 3
