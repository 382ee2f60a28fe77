import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_discrete_system, ragged_system_dict
from kcompress.core import DiscreteDistribution, compose_marginal, dirac
from kcompress.dual import SolverConfig, run_subgradient
from kcompress.errors import ValidationError
from kcompress.pipeline import (
    GenerativeSystem,
    StageSpec,
    approximate_system,
    build_stage_instance,
    candidate_lattice,
    candidate_subsample,
    compress_stage,
    implied_kernel,
    load_system,
    stage_candidates,
    system_from_dict,
    system_to_dict,
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


def test_build_stage_instance_weights():
    marginal = DiscreteDistribution([[0.0], [1.0]], [0.25, 0.75])
    clouds = [np.zeros((5, 1)), np.ones((3, 1))]
    inst = build_stage_instance(marginal, clouds, [[0.0], [2.0]], 2.0, 1)
    assert np.allclose(inst.weights, [0.25 / 5, 0.75 / 3])
    assert np.array_equal(inst.sources, marginal.support)
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
    assignment = (np.array([0, 1, 1]), np.array([3, 4]))
    kernel = implied_kernel(inst, gamma, assignment)
    # candidate 2 (and nothing else unused) is dropped from the shared support
    assert np.array_equal(
        kernel.rows[0].support, [[0.0], [1.0], [10.0], [11.0]]
    )
    assert np.allclose(kernel.rows[0].weights, [1 / 3, 2 / 3, 0.0, 0.0])
    assert np.allclose(kernel.rows[1].weights, [0.0, 0.0, 0.5, 0.5])
    assert np.array_equal(kernel.sources, marginal.support)


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
        assignment = tuple(rng.integers(0, k, size=len(c)) for c in clouds)
        kernel = implied_kernel(inst, np.ones(k, dtype=np.int8), assignment)
        used = sorted({int(j) for group in assignment for j in group})
        want = np.zeros((n_src, len(used)))
        for s, group in enumerate(assignment):
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
    assignment = (np.array([0, 2, 1]), np.array([2, 1]))
    kernel = implied_kernel(inst, gamma, assignment)
    np.testing.assert_array_equal(kernel.support, [[1.0], [4.0]])
    np.testing.assert_array_equal(kernel.matrix, [[2 / 3, 1 / 3], [0.5, 0.5]])


def test_implied_kernel_rejects_unselected():
    marginal = DiscreteDistribution([[0.0]], [1.0])
    inst = build_stage_instance(
        marginal, [np.array([[0.0], [1.0]])], [[0.0], [1.0]], 1.0, 2
    )
    gamma = np.array([1, 0], dtype=np.int8)
    with pytest.raises(ValidationError,
                       match="assignment references unselected candidates"):
        implied_kernel(inst, gamma, (np.array([0, 1]),))


def test_implied_kernel_needs_sources():
    from kcompress.oracle import SelectionInstance

    inst = SelectionInstance.build(
        [(0.5, np.zeros((2, 1)))], [[0.0], [1.0]], 1.0, 1
    )
    with pytest.raises(ValidationError,
                       match="instance carries no source coordinates"):
        implied_kernel(inst, np.array([1, 0], dtype=np.int8), (np.array([0, 0]),))


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
    solver = SolverConfig(max_iter=250)
    approx = approximate_system(system, stages, solver, seed=5)
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
    solver = SolverConfig(max_iter=250)
    approx = approximate_system(system, stages, solver, seed=9)
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
    approx = approximate_system(system, [stage], solver, seed=21)

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
    kernel = implied_kernel(inst, result.gamma, result.beta_assignment)
    assert np.array_equal(kernel.rows[0].support, approx.kernels[0].rows[0].support)
    assert np.allclose(kernel.rows[0].weights, approx.kernels[0].rows[0].weights)

    stage_step = compress_stage(
        marginal, clouds, candidates, stage.order, stage.budget, solver,
        time.perf_counter(),
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
        system, stages, SolverConfig(max_iter=200), seed=8,
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
    lattice = stage_candidates(clouds, 8, "lattice", 0.05, None, None)
    assert np.array_equal(lattice, candidate_lattice(clouds, 8, 0.05))
    fixed = stage_candidates(clouds, 8, "lattice", 0.05, box, None)
    assert np.all((fixed >= 0.0) & (fixed <= 2.0))
    sub = stage_candidates(clouds, 5, "subsample", 0.05, box,
                           np.random.default_rng(3))
    assert np.array_equal(
        sub, candidate_subsample(clouds, 5, np.random.default_rng(3))
    )
    with pytest.raises(ValidationError):
        stage_candidates(clouds, 5, "grid", 0.05, None, None)


def test_deterministic_kernel_compresses_exactly():
    # every draw lands on one point per source, so a particle subsample
    # candidate set contains it and the stage error vanishes
    def sampler(t, source, n, rng):
        return np.tile(source + 1.0, (n, 1))

    system = GenerativeSystem(np.zeros(2), sampler)
    stages = [StageSpec(10, 5, 1, 1.0)] * 2
    solver = SolverConfig(max_iter=100)
    approx = approximate_system(
        system, stages, solver, seed=2, candidate_mode="subsample"
    )
    assert np.allclose(approx.deltas, 0.0)
    assert len(approx.supports[1]) == 1
    assert np.allclose(approx.supports[1], [[1.0, 1.0]])
    assert np.allclose(approx.supports[2], [[2.0, 2.0]])


def test_same_seed_reproduces_system():
    system = walk_system()
    stages = walk_stages(2, n=25, k=16, m=4)
    solver = SolverConfig(max_iter=200)
    a = approximate_system(system, stages, solver, seed=77)
    b = approximate_system(system, stages, solver, seed=77)
    for t in range(2):
        assert np.array_equal(a.supports[t + 1], b.supports[t + 1])
        assert np.array_equal(a.marginals[t + 1].weights, b.marginals[t + 1].weights)
        assert a.deltas[t] == b.deltas[t]


def test_fixed_box_candidates():
    system = walk_system()
    stages = walk_stages(1, n=25, k=16, m=4)
    solver = SolverConfig(max_iter=200)
    box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    approx = approximate_system(system, stages, solver, seed=4, box=box)
    for point in approx.supports[1]:
        assert np.all(point >= -3.0) and np.all(point <= 3.0)


def test_unknown_candidate_mode():
    system = walk_system()
    with pytest.raises(ValidationError):
        approximate_system(
            system, walk_stages(1), SolverConfig(), seed=0,
            candidate_mode="grid"
        )


def test_support_growth_is_budgeted():
    system = walk_system(sigma=1.5)
    stages = [
        StageSpec(60, 32, 6, 1.0),
        StageSpec(20, 32, 5, 1.0),
        StageSpec(15, 32, 3, 1.0),
    ]
    solver = SolverConfig(max_iter=300)
    approx = approximate_system(system, stages, solver, seed=13)
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
        SolverConfig(max_iter=200), seed=3,
    )
    for name, data in (("walk", system_to_dict(approx)),
                       ("small", small_system_dict())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert_same_system(load_system(path), system_from_dict(data))


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
    if error is ValueError:  # not JSON: the error names the file
        assert str(path) in str(exc.value)
