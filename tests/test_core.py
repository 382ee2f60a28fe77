import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcompress.core import (
    DiscreteDistribution,
    DiscreteKernel,
    compose_marginal,
    distribution_from_dict,
    distribution_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    pairwise_cost,
    validate_distribution,
)
from kcompress.errors import (
    DimensionMismatchError,
    InvalidOrderError,
    LengthMismatchError,
    NegativeWeightError,
    NonFiniteError,
    SourceMismatchError,
    WeightsNotNormalizedError,
)


def test_single_atom_distribution():
    dist = validate_distribution([(0.0, 0.0)], [1.0])
    assert len(dist) == 1
    assert dist.dim == 2


def test_unnormalized_weights_rejected():
    with pytest.raises(WeightsNotNormalizedError):
        validate_distribution([(0, 0), (1, 1)], [0.5, 0.6])


def test_uniform_two_atom():
    dist = validate_distribution([(0, 0), (1, 1)], [0.5, 0.5])
    np.testing.assert_array_equal(dist.weights, [0.5, 0.5])


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeightError):
        validate_distribution([(0, 0), (1, 1)], [1.5, -0.5])


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        validate_distribution([(0, 0)], [0.5, 0.5])


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        validate_distribution([(np.nan, 0)], [1.0])
    with pytest.raises(NonFiniteError):
        validate_distribution([(0, 0)], [np.inf])


def test_arrays_are_frozen():
    dist = validate_distribution([(0, 0), (1, 1)], [0.5, 0.5])
    with pytest.raises(ValueError):
        dist.weights[0] = 0.9
    with pytest.raises(ValueError):
        dist.support[0, 0] = 7.0


def _kernel(sources, rows):
    return DiscreteKernel.from_rows(
        np.asarray(sources, dtype=float),
        tuple(DiscreteDistribution(s, w) for s, w in rows),
    )


def test_from_rows_puts_rows_on_their_union():
    rows = (
        DiscreteDistribution([[1.0, 0.0], [-0.0, 2.0]], [0.25, 0.75]),
        DiscreteDistribution([[1.0, 0.0], [-0.0, 2.0]], [0.5, 0.5]),
        DiscreteDistribution(
            [[0.0, 2.0], [3.0, 3.0], [3.0, 3.0]], [0.5, 0.25, 0.25]
        ),
    )
    kernel = DiscreteKernel.from_rows([[0.0], [1.0], [2.0]], rows)
    # first-seen order; 0.0 and -0.0 are one atom with its first coordinates
    np.testing.assert_array_equal(
        kernel.support, [[1.0, 0.0], [-0.0, 2.0], [3.0, 3.0]]
    )
    assert np.signbit(kernel.support[1, 0])
    # an atom repeated within a row carries the sum of its weights
    np.testing.assert_array_equal(
        kernel.matrix,
        [[0.25, 0.75, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
    )
    assert not kernel.matrix.flags.writeable
    for row, weights in zip(kernel.rows, kernel.matrix):
        np.testing.assert_array_equal(row.support, kernel.support)
        np.testing.assert_array_equal(row.weights, weights)


@pytest.mark.parametrize("matrix, error", [
    ([[0.5, 0.5]], LengthMismatchError),
    ([[0.5, 0.25, 0.5]], WeightsNotNormalizedError),
    ([[1.25, -0.25, 0.0]], NegativeWeightError),
    ([[np.nan, 0.5, 0.5]], NonFiniteError),
])
def test_kernel_matrix_checked(matrix, error):
    with pytest.raises(error):
        DiscreteKernel([[0.0]], [[1.0], [2.0], [3.0]], matrix)


def test_from_rows_needs_one_weight_per_point():
    with pytest.raises(LengthMismatchError):
        kernel_from_dict({"sources": [[0.0]], "rows": [
            {"support": [[1.0], [2.0]], "weights": [1.0]},
        ]})


def test_compose_adds_rows_in_order():
    rng = np.random.default_rng(12)
    for n in (1, 8, 9, 200):
        matrix = rng.random((n, 17))
        matrix /= matrix.sum(axis=1, keepdims=True)
        kernel = DiscreteKernel(
            rng.normal(size=(n, 2)), rng.normal(size=(17, 2)), matrix
        )
        lam = DiscreteDistribution(kernel.sources, rng.dirichlet(np.ones(n)))
        running = np.zeros(17)
        for s in range(n):
            running = running + lam.weights[s] * kernel.matrix[s]
        out = compose_marginal(lam, kernel)
        assert out.weights.tobytes() == running.tobytes()
        assert out.support.tobytes() == kernel.support.tobytes()


def test_compose_single_source():
    lam = validate_distribution([(0.0,)], [1.0])
    q = _kernel([(0.0,)], [([(1.0,), (2.0,)], [0.3, 0.7])])
    out = compose_marginal(lam, q)
    np.testing.assert_allclose(out.weights, [0.3, 0.7])


def test_compose_merges_identical_rows():
    lam = validate_distribution([(0.0,), (1.0,)], [0.5, 0.5])
    q = _kernel(
        [(0.0,), (1.0,)],
        [([(5.0,)], [1.0]), ([(5.0,)], [1.0])],
    )
    out = compose_marginal(lam, q)
    assert len(out) == 1
    np.testing.assert_allclose(out.weights, [1.0])


def test_compose_weighted_sum():
    """Mixture weights are lam-weighted sums of row weights, atom by atom."""
    a, b, c = (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)
    lam = validate_distribution([(0, 1), (0, 2)], [0.5, 0.5])
    q = _kernel(
        [(0, 1), (0, 2)],
        [([a, b], [0.2, 0.8]), ([b, c], [0.4, 0.6])],
    )
    out = compose_marginal(lam, q)
    # independent enumeration: accumulate lam_s * Q(y | z_s) per atom
    expected = {}
    for lam_w, (support, weights) in zip(
        [0.5, 0.5], [([a, b], [0.2, 0.8]), ([b, c], [0.4, 0.6])]
    ):
        for point, w in zip(support, weights):
            expected[point] = expected.get(point, 0.0) + lam_w * w
    got = {tuple(pt): w for pt, w in out.atoms()}
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == pytest.approx(expected[key], abs=1e-15)
    assert got[a] == pytest.approx(0.1)
    assert got[b] == pytest.approx(0.6)
    assert got[c] == pytest.approx(0.3)


def test_compose_source_mismatch():
    lam = validate_distribution([(9.0,)], [1.0])
    q = _kernel([(0.0,)], [([(1.0,)], [1.0])])
    with pytest.raises(SourceMismatchError):
        compose_marginal(lam, q)


def test_compose_output_normalized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_src = rng.integers(1, 5)
        sources = rng.normal(size=(n_src, 2))
        lam_w = rng.dirichlet(np.ones(n_src))
        rows = []
        for _ in range(n_src):
            n_at = rng.integers(1, 6)
            rows.append(
                DiscreteDistribution(
                    rng.normal(size=(n_at, 2)), rng.dirichlet(np.ones(n_at))
                )
            )
        out = compose_marginal(
            DiscreteDistribution(sources, lam_w),
            DiscreteKernel.from_rows(sources, tuple(rows)),
        )
        assert abs(out.weights.sum() - 1.0) <= 1e-12


def _compose_per_atom(lam, kernel):
    """A running total per exact point, in first-seen order."""
    accum, order = {}, []
    for lam_w, row in zip(lam.weights, kernel.rows):
        for point, w in row.atoms():
            key = tuple(point)
            if key not in accum:
                accum[key] = 0.0
                order.append(key)
            accum[key] += float(lam_w) * float(w)
    return np.array(order), np.array([accum[key] for key in order])


def test_compose_matches_per_atom_formula_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(200):
        # rows draw atoms from one small pool, so they share atoms, repeat
        # atoms within a row, and meet 0.0 and -0.0 as one coordinate
        pool = rng.normal(size=(int(rng.integers(1, 7)), 2))
        pool[0] = [0.0, 1.0]
        if len(pool) > 1:
            pool[1] = [-0.0, 1.0]
        n_src = int(rng.integers(1, 6))
        sources = rng.normal(size=(n_src, 2))
        rows = []
        for _ in range(n_src):
            n_at = int(rng.integers(1, 9))
            w = rng.dirichlet(np.ones(n_at))
            w[rng.random(n_at) < 0.2] = 0.0
            if w.sum() == 0.0:
                w[0] = 1.0
            rows.append(
                DiscreteDistribution(
                    pool[rng.integers(0, len(pool), n_at)], w / w.sum()
                )
            )
        lam = DiscreteDistribution(sources, rng.dirichlet(np.ones(n_src)))
        kernel = DiscreteKernel.from_rows(sources, tuple(rows))
        out = compose_marginal(lam, kernel)
        support, weights = _compose_per_atom(lam, kernel)
        assert out.support.tobytes() == support.tobytes()
        assert out.weights.tobytes() == weights.tobytes()


@st.composite
def kernel_with_two_marginals(draw):
    n_src = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10**6)))
    sources = rng.normal(size=(n_src, 2))
    rows = tuple(
        DiscreteDistribution(rng.normal(size=(3, 2)), rng.dirichlet(np.ones(3)))
        for _ in range(n_src)
    )
    lam_a = rng.dirichlet(np.ones(n_src))
    lam_b = rng.dirichlet(np.ones(n_src))
    t = draw(st.floats(min_value=0.01, max_value=0.99))
    return sources, rows, lam_a, lam_b, t


@given(kernel_with_two_marginals())
@settings(max_examples=25, deadline=None)
def test_compose_linear_in_marginal(case):
    sources, rows, lam_a, lam_b, t = case
    q = DiscreteKernel.from_rows(sources, rows)
    mix = DiscreteDistribution(sources, t * lam_a + (1 - t) * lam_b)
    out_mix = compose_marginal(mix, q)
    out_a = compose_marginal(DiscreteDistribution(sources, lam_a), q)
    out_b = compose_marginal(DiscreteDistribution(sources, lam_b), q)
    # atoms appear in first-seen row order, identical across the three calls
    np.testing.assert_array_equal(out_mix.support, out_a.support)
    np.testing.assert_allclose(
        out_mix.weights, t * out_a.weights + (1 - t) * out_b.weights, atol=1e-12
    )


def test_pairwise_cost_345():
    c = pairwise_cost([(0, 0)], [(3, 4)], 1)
    np.testing.assert_allclose(c.entries, [[5.0]])


def test_pairwise_cost_squared():
    c = pairwise_cost([(0, 0)], [(3, 4)], 2)
    np.testing.assert_allclose(c.entries, [[25.0]])


def test_pairwise_cost_column():
    c = pairwise_cost([(1, 1), (2, 2)], [(1, 1)], 1)
    np.testing.assert_allclose(c.entries, [[0.0], [np.sqrt(2)]])


def test_pairwise_cost_bad_order():
    with pytest.raises(InvalidOrderError):
        pairwise_cost([(0, 0)], [(1, 1)], 0.5)


def test_pairwise_cost_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        pairwise_cost([(0, 0)], [(1, 1, 1)], 1)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=25, deadline=None)
def test_pairwise_cost_symmetric_zero_diagonal(seed, p):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(5, 3))
    c = pairwise_cost(pts, pts, p).entries
    np.testing.assert_allclose(np.diag(c), 0.0, atol=1e-12)
    np.testing.assert_allclose(c, c.T, atol=1e-12)


def test_pairwise_cost_blocked_matches_unblocked(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(17, 2))
    b = rng.normal(size=(9, 2))
    full = pairwise_cost(a, b, 1.7).entries
    monkeypatch.setattr("kcompress.core._BLOCK", 4)
    blocked = pairwise_cost(a, b, 1.7).entries
    np.testing.assert_array_equal(full, blocked)


def test_distribution_json_round_trip():
    dist = validate_distribution([(0, 1), (2, 3)], [0.25, 0.75])
    data = distribution_to_dict(dist)
    assert data == {"support": [[0.0, 1.0], [2.0, 3.0]], "weights": [0.25, 0.75]}
    back = distribution_from_dict(data)
    np.testing.assert_array_equal(back.support, dist.support)
    np.testing.assert_array_equal(back.weights, dist.weights)


def test_kernel_json_round_trip():
    q = _kernel(
        [(0.0,), (1.0,)],
        [([(5.0,)], [1.0]), ([(6.0,), (7.0,)], [0.5, 0.5])],
    )
    back = kernel_from_dict(kernel_to_dict(q))
    assert len(back) == 2
    np.testing.assert_array_equal(back.sources, q.sources)
    # the rows live on their union support, in first-seen order
    np.testing.assert_array_equal(back.support, [[5.0], [6.0], [7.0]])
    np.testing.assert_array_equal(
        back.matrix, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]
    )
