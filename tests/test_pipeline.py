import gc
import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_discrete_system, ragged_system_dict
from kcompress import core
from kcompress.core import (
    DiscreteDistribution,
    DiscreteSystem,
    compose_marginal,
    dirac,
    load_system,
    system_from_dict,
    system_to_dict,
)
from kcompress.dual import SolverConfig, run_subgradient
from kcompress.errors import ValidationError
from kcompress.pipeline import (
    GenerativeSystem,
    StageRule,
    StageSpec,
    approximate_system,
    build_stage_instance,
    candidate_lattice,
    candidate_subsample,
    compress_stage,
    implied_kernel,
    stage_candidates,
)
from kcompress.transport import integrated_distance


def walk_system(sigma=0.7, dim=2):
    """Gaussian random walk: next state = source + sigma * N(0, I)."""

    def sampler(t, source, n, rng):
        return source + sigma * rng.standard_normal((n, dim))

    return GenerativeSystem(np.zeros(dim), sampler)


def walk_stages(horizon, n=40, k=24, m=5, p=1.0):
    return [StageSpec(n, k, m, p)] * horizon


def stage_clouds(system, marginal, t, stage, seed):
    """Re-draw the clouds approximate_system used at stage t."""
    clouds = []
    for s, source in enumerate(marginal.support):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(t, s))
        )
        clouds.append(
            system.sampler(t, source, stage.samples_per_source, rng)
        )
    return clouds


# ---------------------------------------------------------------------------
# StageSpec and instance construction
# ---------------------------------------------------------------------------

def test_stage_spec_rejects_bad_sizes():
    with pytest.raises(ValidationError):
        StageSpec(0, 8, 2, 1.0)
    with pytest.raises(ValidationError):
        StageSpec(5, 8, 2, 0.5)
    with pytest.raises(ValidationError,
                       match="budget 9 exceeds candidate count 8"):
        StageSpec(5, 8, 9, 1.0)
    for sizes, field in (((10, 8, 2.5), "budget"),
                         ((10.0, 8, 2), "samples_per_source"),
                         ((10, True, 1), "candidate_count")):
        with pytest.raises(ValidationError,
                           match=f"{field} must be an integer, got"):
            StageSpec(*sizes, 1.0)
    assert StageSpec(np.int64(10), np.int32(8), np.int64(2), 1.0).budget == 2


def test_build_stage_instance_weights():
    marginal = DiscreteDistribution([[0.0], [1.0]], [0.25, 0.75])
    clouds = [np.zeros((5, 1)), np.ones((3, 1))]
    inst = build_stage_instance(marginal, clouds, [[0.0], [2.0]], 2.0, 1)
    assert np.allclose(inst.weights, [0.25 / 5, 0.75 / 3])
    assert inst.order == 2.0
    assert inst.budget == 1


def test_build_stage_instance_cloud_count_mismatch():
    marginal = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValidationError, match="1 clouds for 2 marginal atoms"):
        build_stage_instance(marginal, [np.zeros((4, 1))], [[0.0]], 1.0, 1)


def test_build_stage_instance_empty_cloud():
    marginal = DiscreteDistribution([[0.0]], [1.0])
    with pytest.raises(ValidationError,
                       match="every source needs at least one particle"):
        build_stage_instance(marginal, [np.zeros((0, 1))], [[0.0]], 1.0, 1)


def test_build_stage_instance_budget_over_candidates():
    marginal = DiscreteDistribution([[0.0]], [1.0])
    with pytest.raises(ValidationError, match=r"budget 3 outside \[1, 2\]"):
        build_stage_instance(marginal, [np.zeros((4, 1))], [[0.0], [1.0]], 1.0, 3)


# ---------------------------------------------------------------------------
# implied kernel
# ---------------------------------------------------------------------------

def test_implied_kernel_counts_assignments():
    marginal = DiscreteDistribution([[0.0], [10.0]], [0.5, 0.5])
    clouds = [np.array([[0.0], [1.0], [1.1]]), np.array([[10.0], [11.0]])]
    candidates = np.array([[0.0], [1.0], [5.0], [10.0], [11.0]])
    inst = build_stage_instance(marginal, clouds, candidates, 1.0, 4)
    gamma = np.array([1, 1, 1, 1, 1], dtype=np.int8)
    assignment = np.array([0, 1, 1, 3, 4])
    kernel, columns = implied_kernel(inst, marginal.support, gamma,
                                     assignment)
    # candidate 2 (and nothing else unused) is dropped from the shared support
    assert np.array_equal(
        kernel.rows[0].support, [[0.0], [1.0], [10.0], [11.0]]
    )
    assert np.allclose(kernel.rows[0].weights, [1 / 3, 2 / 3, 0.0, 0.0])
    assert np.allclose(kernel.rows[1].weights, [0.0, 0.0, 0.5, 0.5])
    assert np.array_equal(kernel.sources, marginal.support)
    np.testing.assert_array_equal(columns, [0, 1, 1, 2, 3])


def test_implied_kernel_matches_per_particle_counts():
    # the per-particle counting loop as the reference, bit for bit
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_src, k = int(rng.integers(1, 5)), int(rng.integers(2, 12))
        marginal = DiscreteDistribution(
            rng.normal(size=(n_src, 2)), rng.dirichlet(np.ones(n_src))
        )
        clouds = [rng.normal(size=(int(rng.integers(1, 9)), 2))
                  for _ in range(n_src)]
        inst = build_stage_instance(
            marginal, clouds, rng.normal(size=(k, 2)), 1.0, k
        )
        groups = [rng.integers(0, k, size=len(c)) for c in clouds]
        kernel, _ = implied_kernel(inst, marginal.support,
                                   np.ones(k, dtype=np.int8),
                                   np.concatenate(groups))
        used = sorted({int(j) for group in groups for j in group})
        want = np.zeros((n_src, len(used)))
        for s, group in enumerate(groups):
            for j in group:
                want[s, used.index(int(j))] += 1.0
            want[s] /= len(group)
        assert kernel.support.tobytes() == inst.candidates[used].tobytes()
        assert kernel.matrix.tobytes() == want.tobytes()


def test_implied_kernel_merges_coinciding_candidates():
    marginal = DiscreteDistribution([[0.0], [10.0]], [0.5, 0.5])
    clouds = [np.array([[1.0], [1.0], [4.0]]), np.array([[1.0], [4.0]])]
    # candidates 0 and 2 are one point
    candidates = np.array([[1.0], [4.0], [1.0]])
    inst = build_stage_instance(marginal, clouds, candidates, 1.0, 3)
    gamma = np.array([1, 1, 1], dtype=np.int8)
    assignment = np.array([0, 2, 1, 2, 1])
    kernel, columns = implied_kernel(inst, marginal.support, gamma,
                                     assignment)
    np.testing.assert_array_equal(kernel.support, [[1.0], [4.0]])
    np.testing.assert_array_equal(columns, [0, 0, 1, 0, 1])
    np.testing.assert_array_equal(kernel.matrix, [[2 / 3, 1 / 3], [0.5, 0.5]])


def test_implied_kernel_rejects_unselected():
    marginal = DiscreteDistribution([[0.0]], [1.0])
    inst = build_stage_instance(
        marginal, [np.array([[0.0], [1.0]])], [[0.0], [1.0]], 1.0, 2
    )
    gamma = np.array([1, 0], dtype=np.int8)
    with pytest.raises(ValidationError,
                       match="assignment references unselected candidates"):
        implied_kernel(inst, marginal.support, gamma, np.array([0, 1]))


@pytest.mark.parametrize("assignment", [[0], [0, 1, 1], [[0, 1]]])
def test_implied_kernel_needs_one_entry_per_particle(assignment):
    marginal = DiscreteDistribution([[0.0]], [1.0])
    inst = build_stage_instance(
        marginal, [np.array([[0.0], [1.0]])], [[0.0], [1.0]], 1.0, 2
    )
    with pytest.raises(ValidationError,
                       match="assignment needs one entry per particle"):
        implied_kernel(inst, marginal.support, [1, 1], np.array(assignment))


# K = 2: an index of -1 (the last candidate, selected), one of K, a
# fraction, and a gamma one entry short
@pytest.mark.parametrize("gamma, assignment, match", [
    ([0, 1], [-1, -1], "candidate indices"),
    ([1, 1], [0, 2], "candidate indices"),
    ([1, 1], [0.0, 1.0], "candidate indices"),
    ([1], [0, 0], r"gamma needs shape \(2,\) and a nonzero entry"),
])
def test_implied_kernel_refuses_what_is_not_a_candidate(gamma, assignment,
                                                        match):
    marginal = DiscreteDistribution([[0.0]], [1.0])
    inst = build_stage_instance(
        marginal, [np.array([[0.0], [1.0]])], [[0.0], [1.0]], 1.0, 2
    )
    with pytest.raises(ValidationError, match=match):
        implied_kernel(inst, marginal.support, np.array(gamma),
                       np.array(assignment))


@pytest.mark.parametrize("sources", [[[0.0]], [[0.0], [1.0], [2.0]]])
def test_implied_kernel_needs_one_source_per_group(sources):
    marginal = DiscreteDistribution([[0.0], [5.0]], [0.5, 0.5])
    inst = build_stage_instance(marginal, [np.zeros((2, 1)), np.ones((1, 1))],
                                [[0.0], [1.0]], 1.0, 1)
    with pytest.raises(ValidationError,
                       match="one source point per group required"):
        implied_kernel(inst, sources, np.array([1, 0], dtype=np.int8),
                       np.array([0, 0, 0]))


# ---------------------------------------------------------------------------
# candidate construction
# ---------------------------------------------------------------------------

def test_candidate_lattice_inside_padded_box():
    rng = np.random.default_rng(3)
    clouds = [rng.normal(size=(30, 2)), rng.normal(size=(20, 2)) + 2.0]
    cands = candidate_lattice(clouds, 32, margin=0.05)
    pool = np.vstack(clouds)
    lo, hi = pool.min(axis=0), pool.max(axis=0)
    pad = 0.05 * (hi - lo)
    assert cands.shape == (32, 2)
    assert np.all(cands >= lo - pad - 1e-12)
    assert np.all(cands <= hi + pad + 1e-12)


def test_candidate_lattice_pads_flat_directions():
    clouds = [np.array([[0.0, 5.0], [1.0, 5.0]])]
    cands = candidate_lattice(clouds, 8)
    assert np.all(cands[:, 1] >= 4.0 - 1e-12)
    assert np.all(cands[:, 1] <= 6.0 + 1e-12)
    assert len(np.unique(cands[:, 1])) > 1


def test_candidate_subsample_draws_from_pool():
    rng = np.random.default_rng(11)
    clouds = [rng.normal(size=(15, 3)), rng.normal(size=(10, 3))]
    pool = {tuple(row) for row in np.vstack(clouds)}
    cands = candidate_subsample(clouds, 12, np.random.default_rng(0))
    assert cands.shape == (12, 3)
    assert all(tuple(row) in pool for row in cands)
    with pytest.raises(ValidationError):
        candidate_subsample(clouds, 26, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def test_system_shapes_and_invariants():
    system = walk_system()
    stages = walk_stages(3)
    rule = StageRule(solver=SolverConfig(max_iter=250))
    approx = approximate_system(system, stages, rule, seed=5)
    assert approx.horizon == 3
    assert len(approx.supports) == 4
    assert len(approx.marginals) == 4
    assert len(approx.kernels) == 3
    assert len(approx.deltas) == 3
    assert np.array_equal(approx.marginals[0].support, [system.x0])
    assert np.allclose(approx.marginals[0].weights, [1.0])
    for t, kernel in enumerate(approx.kernels):
        # marginals chain through the kernels
        recomposed = compose_marginal(approx.marginals[t], kernel)
        assert np.array_equal(recomposed.support, approx.marginals[t + 1].support)
        assert np.allclose(
            recomposed.weights, approx.marginals[t + 1].weights, atol=1e-12
        )
        next_support = {tuple(x) for x in approx.supports[t + 1]}
        for row in kernel.rows:
            assert {tuple(x) for x in row.support} <= next_support
        assert approx.deltas[t] >= 0.0
        assert len(approx.supports[t + 1]) <= stages[t].budget
        assert np.array_equal(kernel.sources, approx.supports[t])


def test_deltas_match_integrated_distance():
    system = walk_system()
    stages = walk_stages(2, n=30, k=20, m=4)
    rule = StageRule(solver=SolverConfig(max_iter=250))
    approx = approximate_system(system, stages, rule, seed=9)
    for t, stage in enumerate(stages):
        marginal = approx.marginals[t]
        clouds = stage_clouds(system, marginal, t, stage, 9)
        empirical = tuple(
            DiscreteDistribution(c, np.full(len(c), 1.0 / len(c)))
            for c in clouds
        )
        from kcompress.core import DiscreteKernel

        emp_kernel = DiscreteKernel.from_rows(marginal.support, empirical)
        itd = integrated_distance(
            marginal, emp_kernel, approx.kernels[t], stage.order
        )
        assert approx.deltas[t] == pytest.approx(itd, abs=1e-9)


def test_single_stage_matches_direct_solve():
    system = walk_system()
    stage = StageSpec(35, 16, 3, 2.0)
    solver = SolverConfig(max_iter=250)
    rule = StageRule(solver=solver)
    approx = approximate_system(system, [stage], rule, seed=21)

    marginal = dirac(system.x0)
    clouds = stage_clouds(system, marginal, 0, stage, 21)
    candidates = candidate_lattice(clouds, stage.candidate_count)
    inst = build_stage_instance(
        marginal, clouds, candidates, stage.order, stage.budget
    )
    result = run_subgradient(inst, solver)
    assert approx.deltas[0] == pytest.approx(
        result.objective ** (1.0 / stage.order), abs=1e-12
    )
    kernel, _ = implied_kernel(inst, marginal.support, result.gamma,
                               result.beta_assignment)
    assert np.array_equal(kernel.rows[0].support, approx.kernels[0].rows[0].support)
    assert np.allclose(kernel.rows[0].weights, approx.kernels[0].rows[0].weights)

    stage_step = compress_stage(
        marginal, clouds, stage, rule, None, time.perf_counter(),
    )
    assert np.array_equal(stage_step.result.gamma, result.gamma)
    assert np.array_equal(stage_step.kernel.support, kernel.support)
    assert np.array_equal(stage_step.kernel.matrix, kernel.matrix)
    assert stage_step.delta == result.objective ** (1.0 / stage.order)
    composed = compose_marginal(marginal, kernel)
    assert np.array_equal(stage_step.marginal.support, composed.support)
    assert np.array_equal(stage_step.marginal.weights, composed.weights)
    assert stage_step.wall_s > 0


def test_on_stage_gets_each_stage_of_the_system():
    system = walk_system()
    stages = walk_stages(3, n=20, k=16, m=4)
    seen = []
    approx = approximate_system(
        system, stages, StageRule(solver=SolverConfig(max_iter=200)), seed=8,
        on_stage=seen.append,
    )
    assert len(seen) == 3
    for t, stage in enumerate(seen):
        assert np.array_equal(stage.kernel.matrix, approx.kernels[t].matrix)
        assert np.array_equal(stage.kernel.support, approx.supports[t + 1])
        assert np.array_equal(stage.marginal.weights,
                              approx.marginals[t + 1].weights)
        assert stage.delta == approx.deltas[t]
        assert stage.instance.dim_gamma == 16
        assert stage.wall_s >= stage.result.history_elapsed_ms[-1] / 1e3


def test_stage_candidates_follows_the_mode():
    clouds = [np.arange(12.0).reshape(6, 2), np.ones((4, 2))]
    box = (np.zeros(2), np.full(2, 2.0))
    lattice = stage_candidates(clouds, 8, StageRule(), None)
    assert np.array_equal(lattice, candidate_lattice(clouds, 8, 0.05))
    fixed = stage_candidates(clouds, 8, StageRule(box=box), None)
    assert np.all((fixed >= 0.0) & (fixed <= 2.0))
    sub = stage_candidates(clouds, 5, StageRule("subsample", box=box),
                           np.random.default_rng(3))
    assert np.array_equal(
        sub, candidate_subsample(clouds, 5, np.random.default_rng(3))
    )
    with pytest.raises(ValidationError):
        stage_candidates(clouds, 5, StageRule("grid"), None)


def test_deterministic_kernel_compresses_exactly():
    # every draw lands on one point per source, so a particle subsample
    # candidate set contains it and the stage error vanishes
    def sampler(t, source, n, rng):
        return np.tile(source + 1.0, (n, 1))

    system = GenerativeSystem(np.zeros(2), sampler)
    stages = [StageSpec(10, 5, 1, 1.0)] * 2
    solver = SolverConfig(max_iter=100)
    approx = approximate_system(
        system, stages, StageRule("subsample", solver=solver), seed=2
    )
    assert np.allclose(approx.deltas, 0.0)
    assert len(approx.supports[1]) == 1
    assert np.allclose(approx.supports[1], [[1.0, 1.0]])
    assert np.allclose(approx.supports[2], [[2.0, 2.0]])


def test_same_seed_reproduces_system():
    system = walk_system()
    stages = walk_stages(2, n=25, k=16, m=4)
    rule = StageRule(solver=SolverConfig(max_iter=200))
    a = approximate_system(system, stages, rule, seed=77)
    b = approximate_system(system, stages, rule, seed=77)
    for t in range(2):
        assert np.array_equal(a.supports[t + 1], b.supports[t + 1])
        assert np.array_equal(a.marginals[t + 1].weights, b.marginals[t + 1].weights)
        assert a.deltas[t] == b.deltas[t]


def test_fixed_box_candidates():
    system = walk_system()
    stages = walk_stages(1, n=25, k=16, m=4)
    solver = SolverConfig(max_iter=200)
    box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    approx = approximate_system(system, stages,
                                StageRule(box=box, solver=solver), seed=4)
    for point in approx.supports[1]:
        assert np.all(point >= -3.0) and np.all(point <= 3.0)


def test_unknown_candidate_mode():
    system = walk_system()
    with pytest.raises(ValidationError):
        approximate_system(system, walk_stages(1), StageRule("grid"), seed=0)


def test_support_growth_is_budgeted():
    system = walk_system(sigma=1.5)
    stages = [
        StageSpec(60, 32, 6, 1.0),
        StageSpec(20, 32, 5, 1.0),
        StageSpec(15, 32, 3, 1.0),
    ]
    rule = StageRule(solver=SolverConfig(max_iter=300))
    approx = approximate_system(system, stages, rule, seed=13)
    assert len(approx.supports[1]) <= 6
    assert len(approx.supports[2]) <= 5
    assert len(approx.supports[3]) <= 3
    for marginal in approx.marginals:
        assert np.all(marginal.weights > 0)
        assert marginal.weights.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# reading system files
# ---------------------------------------------------------------------------

def small_system_dict():
    """Two stages in the file schema: kernel 1's first two rows share a
    support, its third row lives on part of it."""
    s0 = [[0.0, 0.0]]
    s1 = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]
    s2 = [[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    return {
        "supports": [s0, s1, s2],
        "kernels": [
            {"sources": s0,
             "rows": [{"support": s1, "weights": [0.25, 0.5, 0.25]}]},
            {"sources": s1, "rows": [
                {"support": s2, "weights": [0.5, 0.5, 0.0]},
                {"support": s2, "weights": [0.125, 0.375, 0.5]},
                {"support": s2[1:], "weights": [0.75, 0.25]},
            ]},
        ],
        "marginals": [
            {"support": s0, "weights": [1.0]},
            {"support": s1, "weights": [0.25, 0.5, 0.25]},
            {"support": s2, "weights": [0.25, 0.5, 0.25]},
        ],
        "deltas": [0.1, 0.2],
    }


def assert_same_system(a, b):
    assert len(a.supports) == len(b.supports)
    for x, y in zip(a.supports, b.supports):
        assert np.array_equal(x, y)
    for ka, kb in zip(a.kernels, b.kernels, strict=True):
        assert np.array_equal(ka.sources, kb.sources)
        for ra, rb in zip(ka.rows, kb.rows, strict=True):
            assert np.array_equal(ra.support, rb.support)
            assert np.array_equal(ra.weights, rb.weights)
    for ma, mb in zip(a.marginals, b.marginals, strict=True):
        assert np.array_equal(ma.support, mb.support)
        assert np.array_equal(ma.weights, mb.weights)
    assert a.deltas == b.deltas


def test_load_system_matches_json_load(tmp_path):
    approx = approximate_system(
        walk_system(), walk_stages(2, n=25, k=16, m=4),
        StageRule(solver=SolverConfig(max_iter=200)), seed=3,
    )
    for name, data in (("walk", system_to_dict(approx)),
                       ("small", small_system_dict())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert_same_system(load_system(path), system_from_dict(data))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same_bits(a, b):
    """Every support, kernel array, marginal and delta of a and b holds the
    same float64 bits."""
    pairs = list(zip(a.supports, b.supports, strict=True))
    for ka, kb in zip(a.kernels, b.kernels, strict=True):
        pairs += [(ka.sources, kb.sources), (ka.support, kb.support),
                  (ka.matrix, kb.matrix)]
    for ma, mb in zip(a.marginals, b.marginals, strict=True):
        pairs += [(ma.support, mb.support), (ma.weights, mb.weights)]
    pairs.append((a.deltas, b.deltas))
    for x, y in pairs:
        assert np.array_equal(_bits(x), _bits(y))


def _support_places(data, doc):
    """(the support's list in data, its nesting depth, the reader's array)
    for every support of a system document: the supports entries, each
    kernel's sources and row supports, each marginal's support."""
    places = [(s, 2, a) for s, a in zip(data["supports"], doc["supports"])]
    for kernel, read in zip(data["kernels"], doc["kernels"]):
        places.append((kernel["sources"], 3, read["sources"]))
        places += [(row["support"], 5, got["support"])
                   for row, got in zip(kernel["rows"], read["rows"])]
    places += [(m["support"], 3, got["support"])
               for m, got in zip(data["marginals"], doc["marginals"])]
    return places


def test_load_system_shares_each_support_text_in_both_layouts(tmp_path):
    rng = np.random.default_rng(47)
    base = random_discrete_system(rng, horizon=3, max_states=6)
    marginals = [dirac(base.supports[0][0])]
    for kernel in base.kernels:
        marginals.append(compose_marginal(marginals[-1], kernel))
    data = system_to_dict(DiscreteSystem(base.supports, base.kernels,
                                         marginals, (0.25, 0.5, 0.125)))
    layouts = {
        # the benchmark's and json.dumps' layout: each support one text
        "compact": (json.dumps(data), lambda v, depth: json.dumps(v)),
        # the CLI's layout: a support's text depends on its depth
        "cli": (json.dumps(data, indent=2, sort_keys=True),
                lambda v, depth: json.dumps(v, indent=2).replace(
                    "\n", "\n" + "  " * depth)),
    }
    for name, (text, text_of) in layouts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with open(path) as fh:
            want = system_from_dict(json.load(fh))
        assert_same_bits(load_system(path), want)
        # every repeat of a support's exact text is one array object
        arrays = {}
        for value, depth, array in _support_places(
                data, core._SystemReader(text).document()):
            assert text_of(value, depth) in text
            arrays.setdefault(text_of(value, depth), set()).add(id(array))
        assert all(len(ids) == 1 for ids in arrays.values()), name
        if name == "compact":
            # a stage's support, sources, rows and marginal share one text
            assert len(arrays) == len(data["supports"])


def test_load_system_reads_supports_that_begin_alike(tmp_path):
    # the rows cycle through six supports with one first point, more than
    # the reader keeps for one first point, so repeats are decoded again
    sources = [[float(i)] for i in range(12)]
    points = [[float(i)] for i in range(1, 7)]
    rows = [{"support": points[:1 + i % 6],
             "weights": [1.0 / (1 + i % 6)] * (1 + i % 6)} for i in range(12)]
    data = {"supports": [sources, points],
            "kernels": [{"sources": sources, "rows": rows}],
            "marginals": [], "deltas": [0.0]}
    assert_reads_as_json_load(tmp_path / "system.json", json.dumps(data))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_read_system_file_keeps_the_text_of_any_file(tmp_path):
    # a mapped file and a pipe keep every character, a '\r' and a two-byte
    # one included
    text = json.dumps({"note": "\u00e9t\u00e9"}, ensure_ascii=False) + "\r\n"
    path = tmp_path / "text.json"
    path.write_bytes(text.encode())
    assert core.read_system_file(path) == text
    read, write = os.pipe()
    with os.fdopen(write, "wb") as fh:
        fh.write(text.encode())
    try:
        assert core.read_system_file(f"/dev/fd/{read}") == text
    finally:
        os.close(read)
    # an empty file cannot be mapped; it is read, and refused as json refuses
    # its empty text
    empty = tmp_path / "empty.json"
    empty.write_bytes(b"")
    assert core.read_system_file(empty) == ""
    with pytest.raises(json.JSONDecodeError, match="Expecting value"):
        json.loads("")
    with pytest.raises(ValidationError, match="Expecting value") as exc:
        load_system(empty)
    assert str(empty) in str(exc.value)


def test_load_system_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "system.json"
    path.write_bytes(json.dumps(small_system_dict()).encode().replace(
        b'"deltas"', b'"d\xe9ltas"'))
    with pytest.raises(UnicodeDecodeError):
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    with pytest.raises(ValidationError, match="can't decode") as exc:
        load_system(path)
    assert str(path) in str(exc.value)


def test_load_system_leaves_no_reference_cycle(tmp_path):
    # the reader's closures must not refer to themselves: a cycle keeps the
    # file's text and arrays alive until the next garbage collection, so a
    # process that reads file after file grows by a file per read; nor may
    # the cursor's unread text, read again by json.loads
    unread = _repeated_key_text("support", '"x"')
    with pytest.raises(core._Unread):
        core._SystemReader(unread).document()
    path = tmp_path / "system.json"
    for text in (json.dumps(small_system_dict()), unread):
        path.write_text(text)
        gc.collect()
        gc.disable()
        try:
            load_system(path)
            assert gc.collect() == 0
        finally:
            gc.enable()


def assert_reads_as_json_load(path, text):
    """load_system reads text as system_from_dict(json.loads(text)) does:
    the same system, or an error of the same class."""
    path.write_text(text)
    try:
        want = system_from_dict(json.loads(text))
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            load_system(path)
        assert type(got.value) is type(exc)
        return
    assert_same_system(load_system(path), want)


def _spaced_dumps(data):
    """JSON with tabs, newlines and returns around every token."""
    return "\r\n\t" + json.dumps(data, indent="\t",
                                   separators=(" \t,\r\n", "\n:\t ")) + "\n "


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 3),
       ragged=st.booleans())
def test_load_system_reads_any_layout_as_json_load(tmp_path_factory, seed,
                                                   horizon, ragged):
    rng = np.random.default_rng(seed)
    if ragged:
        data = ragged_system_dict(rng, rng.integers(1, 5, size=horizon))
    else:
        dim = int(rng.integers(1, 3))
        data = system_to_dict(random_discrete_system(rng, horizon, dim=dim))
    path = tmp_path_factory.mktemp("layout") / "system.json"
    for text in (json.dumps(data), json.dumps(data, indent=2, sort_keys=True),
                 _spaced_dumps(data)):
        assert_reads_as_json_load(path, text)


def _one_kernel_text(rows, support=((1.0,), (2.0,))):
    """A one-stage system's text, its kernel's rows written as given."""
    support = json.dumps([list(x) for x in support])
    return ('{"supports": [[[0.0], [5.0]], %s], "kernels": [{"sources": '
            '[[0.0], [5.0]], "rows": [%s]}], "marginals": [], "deltas": []}'
            % (support, ", ".join(rows)))


def _row(support, weights):
    return '{"support": %s, "weights": %s}' % (support, weights)


def _repeated_key_text(key, first):
    """A one-kernel text whose first member named key is written twice, the
    first time holding first: json.loads keeps the second value."""
    member = '"%s": ' % key
    text = _one_kernel_text([_row("[[1.0], [2.0]]", "[0.25, 0.75]"),
                             _row("[[2.0]]", "[1.0]")])
    return text.replace(member, member + first + ", " + member, 1)


def _alternating_supports_text():
    """Kernel 1's five rows switch between two overlapping supports."""
    rng = np.random.default_rng(8)
    data = ragged_system_dict(rng, [5, 6])
    first, second = data["supports"][2][:3], data["supports"][2][2:]
    for i, row in enumerate(data["kernels"][1]["rows"]):
        support = (first, second)[i % 2]
        w = rng.uniform(0.1, 1.0, size=len(support))
        row.update(support=support, weights=(w / w.sum()).tolist())
    data["marginals"] = []
    return json.dumps(data)


def _duplicate_kernel_keys_text():
    """Each kernel's unknown key and first "rows" are dropped, and so is the
    first "kernels"."""
    text = json.dumps(small_system_dict()).replace(
        '{"sources": ', '{"note": 1, "rows": [5], "sources": ')
    garbage = '"kernels": [{"sources": [[0.0]], "rows": [[1.0]]}], '
    return text.replace('"kernels": ', garbage + '"kernels": ', 1)


@pytest.mark.parametrize("text", [
    pytest.param(_one_kernel_text([_row("[[1.0], [2.0]]", "[0.5, 0.5]"),
                                   _row("[[2.0]]", "[1.0]")]),
                 id="ragged-rows"),
    pytest.param(_one_kernel_text([_row("[[1.0]]", "[1.0]"),
                                   _row("[[1.0], [2.0]]", "[0.25, 0.75]")]),
                 id="prefix-of-next"),
    pytest.param(_one_kernel_text([_row("[[1.0], [2.0]]", "[0.25, 0.75]"),
                                   _row("[[1.0]]", "[1.0]")]),
                 id="next-is-prefix"),
    pytest.param(_one_kernel_text([_row("5", "[1.0]"), _row("56", "[1.0]")],
                                  support=((5.0,), (56.0,))),
                 id="bare-number-then-longer"),
    pytest.param(_one_kernel_text(
        [_row("[[1.0], [2.0]]", "[0.25, 0.75]"),
         '{"support": [[9.0]], "weights": [0.5, 0.5], '
         '"support": [[1.0], [2.0]]}']), id="duplicate-key"),
    pytest.param(_one_kernel_text(
        [_row("[[1.0], [2.0]]", "[0.25, 0.75]"),
         '{"support": [[1.0], [2.0]], "note": {"support": [[3.0]]}, '
         '"weights": [0.5, 0.5]}']), id="unknown-row-key"),
    pytest.param(_one_kernel_text(
        ['{"support": [[1.0], [2.0]], "weights": [0.25, 0.75]}',
         '{"support":[[1.0],[2.0]],"weights":[0.5,0.5]}']),
        id="same-support-other-spacing"),
    pytest.param(_one_kernel_text(["[[1.0]]", _row("[[1.0]]", "[1.0]")]),
                 id="row-not-an-object"),
    pytest.param(_alternating_supports_text(), id="alternating-supports"),
    pytest.param(_duplicate_kernel_keys_text(),
                 id="duplicate-kernel-keys"),
    # a row's support, a kernel's sources and the deltas
    *(pytest.param(_repeated_key_text(key, first), id=f"repeated-{key}-{kind}")
      for key in ("support", "sources", "deltas")
      for kind, first in (("string", '"x"'), ("boolean", "true"),
                          ("null", "null"))),
])
def test_load_system_reads_row_texts_as_json_load(tmp_path, text):
    assert_reads_as_json_load(tmp_path / "system.json", text)


def _nan_weight(data):
    data["kernels"][1]["rows"][1]["weights"][0] = float("nan")


def _negative_weight(data):
    data["kernels"][1]["rows"][1]["weights"][:2] = [0.625, -0.125]


def _unnormalized_row(data):
    data["kernels"][1]["rows"][2]["weights"] = [0.75, 0.5]


def _length_mismatch(data):
    data["kernels"][1]["rows"][0]["weights"] = [0.5, 0.5]


def _sources_differ(data):
    data["kernels"][1]["sources"] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.25]]


def _nan_support_point(data):
    data["supports"][2] = [[float("nan"), 0.0], [0.0, 2.0], [1.0, 1.0]]


def _marginal_off_support(data):
    data["marginals"][2]["support"] = data["supports"][1]


def _marginal_count(data):
    del data["marginals"][2]


def _delta_count(data):
    data["deltas"].append(0.3)


def _string_weight(data):
    data["kernels"][1]["rows"][1]["weights"] = [0.125, "0.375", 0.5]


def _string_row_support(data):
    data["kernels"][0]["rows"][0]["support"] = [
        [1.0, 0.0], ["0", 1.0], [-1.0, 0.5]]


def _boolean_coordinate(data):
    # numpy would read [true, 0.0] as the point (1.0, 0.0) of support 1
    data["supports"][1] = [[True, 0.0], [0.0, 1.0], [-1.0, 0.5]]


def _string_source(data):
    data["kernels"][1]["sources"] = [[1.0, 0.0], ["0", 1.0], [-1.0, 0.5]]


def _boolean_marginal_weight(data):
    data["marginals"][0]["weights"] = [True]


def _string_delta(data):
    data["deltas"] = [0.1, "0.2"]


def _null_weight(data):
    data["kernels"][1]["rows"][1]["weights"] = [0.125, None, 0.5]


def _null_delta(data):
    data["deltas"] = [0.1, None]


def _ragged_support(data):
    data["supports"][1] = [[1.0, 0.0], [0.0]]


def _ragged_row_support(data):
    data["kernels"][1]["rows"][2]["support"] = [[0.0, 2.0], [1.0]]


def _supports_object(data):
    data["supports"] = {}


def _kernels_object(data):
    data["kernels"] = {}


def _marginals_object(data):
    data["marginals"] = {}


def _deltas_object(data):
    data["deltas"] = {}


def _truncated(data):
    text = json.dumps(data)
    return text[: text.index("0.375")]


def _trailing_garbage(data):
    return json.dumps(data) + "\n]"


def _non_string_key(data):
    return json.dumps(data).replace('"weights"', "weights", 2)


def _missing_comma(data):
    return json.dumps(data).replace('], "weights"', '] "weights"', 1)


def _missing_colon(data):
    return json.dumps(data).replace('"rows": [', '"rows" [', 1)


def _list_root(data):
    return json.dumps([data])


def _nan_delta(data):
    data["deltas"] = [0.1, float("nan")]


def _huge_weight(data):
    # an integer past float64's range, which json reads as an int
    data["kernels"][1]["rows"][1]["weights"][0] = 10**400


# each case id names the corruption and the kind of fault it makes
@pytest.mark.parametrize("corrupt, error, match", [
    pytest.param(_nan_weight, ValidationError, "weights must be finite",
                 id="_nan_weight-NonFiniteError"),
    pytest.param(_negative_weight, ValidationError,
                 "weights must be nonnegative",
                 id="_negative_weight-NegativeWeightError"),
    pytest.param(_unnormalized_row, ValidationError, "weights sum to 1.25",
                 id="_unnormalized_row-WeightsNotNormalizedError"),
    pytest.param(_length_mismatch, ValidationError,
                 "a row needs one weight per point",
                 id="_length_mismatch-LengthMismatchError"),
    pytest.param(_sources_differ, ValidationError,
                 "kernel 1 sources do not match support 1",
                 id="_sources_differ-SourceMismatchError"),
    pytest.param(_nan_support_point, ValidationError,
                 "point coordinates must be finite",
                 id="_nan_support_point-NonFiniteError"),
    pytest.param(_marginal_off_support, ValidationError,
                 "marginal 2 does not live on support 2",
                 id="_marginal_off_support-SourceMismatchError"),
    pytest.param(_marginal_count, ValidationError,
                 "3 supports need 3 marginals, got 2",
                 id="_marginal_count-LengthMismatchError"),
    pytest.param(_delta_count, ValidationError,
                 "2 kernels need 2 deltas, got 3",
                 id="_delta_count-LengthMismatchError"),
    pytest.param(_string_weight, ValidationError, "string or boolean",
                 id="_string_weight-NonNumericError"),
    pytest.param(_string_row_support, ValidationError, "string or boolean",
                 id="_string_row_support-NonNumericError"),
    pytest.param(_boolean_coordinate, ValidationError, "string or boolean",
                 id="_boolean_coordinate-NonNumericError"),
    pytest.param(_string_source, ValidationError, "string or boolean",
                 id="_string_source-NonNumericError"),
    pytest.param(_boolean_marginal_weight, ValidationError,
                 "string or boolean",
                 id="_boolean_marginal_weight-NonNumericError"),
    pytest.param(_string_delta, ValidationError, "string or boolean",
                 id="_string_delta-NonNumericError"),
    pytest.param(_null_weight, ValidationError, "string or boolean",
                 id="_null_weight-NonNumericError"),
    pytest.param(_null_delta, ValidationError, "string or boolean",
                 id="_null_delta-NonNumericError"),
    pytest.param(_ragged_support, ValidationError,
                 "array element with a sequence",
                 id="_ragged_support-RaggedListError"),
    pytest.param(_ragged_row_support, ValidationError,
                 "array element with a sequence",
                 id="_ragged_row_support-RaggedListError"),
    pytest.param(_supports_object, ValidationError,
                 "system key 'supports' must be a list",
                 id="_supports_object-NotAListError"),
    pytest.param(_kernels_object, ValidationError,
                 "system key 'kernels' must be a list",
                 id="_kernels_object-NotAListError"),
    pytest.param(_marginals_object, ValidationError,
                 "system key 'marginals' must be a list",
                 id="_marginals_object-NotAListError"),
    pytest.param(_deltas_object, ValidationError,
                 "system key 'deltas' must be a list",
                 id="_deltas_object-NotAListError"),
    pytest.param(_truncated, ValueError, None,
                 id="_truncated-ValueError"),
    pytest.param(_trailing_garbage, ValueError, None,
                 id="_trailing_garbage-ValueError"),
    pytest.param(_non_string_key, ValueError, None,
                 id="_non_string_key-ValueError"),
    pytest.param(_missing_comma, ValueError, None,
                 id="_missing_comma-ValueError"),
    pytest.param(_missing_colon, ValueError, None,
                 id="_missing_colon-ValueError"),
    pytest.param(_list_root, ValidationError, "a system must be a JSON object",
                 id="_list_root-ValidationError"),
    pytest.param(_nan_delta, ValidationError, "deltas must be finite",
                 id="_nan_delta-NonFiniteError"),
    pytest.param(_huge_weight, ValidationError,
                 "int too large to convert to float",
                 id="_huge_weight-NonFiniteError"),
])
def test_load_system_rejects_like_json_load(tmp_path, corrupt, error, match):
    data = small_system_dict()
    # corrupt edits data in place, or returns the file's text
    text = corrupt(data)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data) if text is None else text)
    with pytest.raises(error, match=match):
        system_from_dict(json.loads(path.read_text()))
    with pytest.raises(error, match=match) as exc:
        load_system(path)
    assert isinstance(exc.value, ValidationError)
    # every fault the reader or system_from_dict finds names the file
    assert str(path) in str(exc.value)


def _weights_first(data):
    """data's text, marginals first, with every row's and marginal's keys
    weights-first: a layout the system file's cursor leaves to json.loads
    at the first marginal, before it reads a number."""
    flip = lambda row: {"weights": row["weights"], "support": row["support"]}
    return json.dumps({
        "marginals": [flip(m) for m in data["marginals"]],
        "supports": data["supports"], "deltas": data["deltas"],
        "kernels": [dict(k, rows=[flip(r) for r in k["rows"]])
                    for k in data["kernels"]]})


def _object_weight(data):
    data["kernels"][1]["rows"][1]["weights"] = [{}, 1.0, 0.0]


def _object_coordinate(data):
    data["kernels"][1]["rows"][0]["support"][1] = [{}, 2.0]


def _object_point(data):
    data["supports"][1][1] = {}


def _object_delta(data):
    data["deltas"] = [{}, 0.2]


@pytest.mark.parametrize("corrupt", [_object_weight, _object_coordinate,
                                     _object_point, _object_delta])
def test_an_object_where_a_number_belongs_is_refused_by_the_one_rule(
        tmp_path, corrupt):
    data = small_system_dict()
    corrupt(data)
    want = f"system file {{}}: {core._NOT_A_NUMBER}"
    # the cursor reads system_to_dict's layout; json.loads reads the other
    with pytest.raises(core._Unread):
        core._SystemReader(_weights_first(data)).document()
    for name, text in (("cursor", json.dumps(data)),
                       ("fallback", _weights_first(data))):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_system(path)
        assert str(exc.value) == want.format(path), name
    if corrupt is _object_delta:
        # the cursor reads this file whole; system_from_dict refuses it
        doc = core._SystemReader(json.dumps(data)).document()
        with pytest.raises(ValidationError, match=core._NOT_A_NUMBER):
            system_from_dict(doc)


def test_numbers_returns_the_cursors_arrays_unscanned():
    # an array the cursor built is returned as it is, so decoding a system
    # file checks each number once, in the cursor
    doc = core._SystemReader(json.dumps(small_system_dict())).document()
    arrays = [*doc["supports"], *(m[key] for m in doc["marginals"]
                                  for key in ("support", "weights"))]
    for kernel in doc["kernels"]:
        arrays += [kernel["sources"], *(r[key] for r in kernel["rows"]
                                        for key in ("support", "weights"))]
    assert len(arrays) == 3 + 6 + 2 + 8
    for array in arrays:
        assert type(array) is np.ndarray and array.dtype == np.float64
        assert core._numbers(array) is array
    assert core._numbers(doc["supports"]) is doc["supports"]
