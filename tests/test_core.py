import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcompress.core as core
from helpers import csv_module_bytes, ragged_system_dict
from kcompress.core import (
    CSV_BLOCK_ROWS,
    DiscreteDistribution,
    DiscreteKernel,
    as_points,
    compose_marginal,
    distance_power,
    distribution_from_dict,
    distribution_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    pairwise_cost,
    write_csv,
)
from kcompress.errors import ValidationError
from kcompress.oracle import SelectionInstance


def test_single_atom_distribution():
    dist = DiscreteDistribution([(0.0, 0.0)], [1.0])
    assert len(dist) == 1
    assert dist.dim == 2


def test_unnormalized_weights_rejected():
    with pytest.raises(ValidationError, match="weights sum to 1.1"):
        DiscreteDistribution([(0, 0), (1, 1)], [0.5, 0.6])


def test_uniform_two_atom():
    dist = DiscreteDistribution([(0, 0), (1, 1)], [0.5, 0.5])
    np.testing.assert_array_equal(dist.weights, [0.5, 0.5])


def test_negative_weight_rejected():
    with pytest.raises(ValidationError, match="weights must be nonnegative"):
        DiscreteDistribution([(0, 0), (1, 1)], [1.5, -0.5])


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError,
                       match="1 support points but 2 weights"):
        DiscreteDistribution([(0, 0)], [0.5, 0.5])


def test_weights_must_be_one_dimensional():
    with pytest.raises(ValidationError, match="weights must be a 1-D array"):
        DiscreteDistribution([(0, 0)], [[1.0]])


def test_nonfinite_rejected():
    with pytest.raises(ValidationError,
                       match="point coordinates must be finite"):
        DiscreteDistribution([(np.nan, 0)], [1.0])
    with pytest.raises(ValidationError, match="weights must be finite"):
        DiscreteDistribution([(0, 0)], [np.inf])


def test_arrays_are_frozen():
    dist = DiscreteDistribution([(0, 0), (1, 1)], [0.5, 0.5])
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


# each case id names the kind of fault the case checks
@pytest.mark.parametrize("matrix, match", [
    pytest.param([[0.5, 0.5]], r"matrix \(1, 2\), needs \(1, 3\)",
                 id="matrix0-LengthMismatchError"),
    pytest.param([[0.5, 0.25, 0.5]], "weights sum to 1.25",
                 id="matrix1-WeightsNotNormalizedError"),
    pytest.param([[1.25, -0.25, 0.0]], "weights must be nonnegative",
                 id="matrix2-NegativeWeightError"),
    pytest.param([[np.nan, 0.5, 0.5]], "weights must be finite",
                 id="matrix3-NonFiniteError"),
])
def test_kernel_matrix_checked(matrix, match):
    with pytest.raises(ValidationError, match=match):
        DiscreteKernel([[0.0]], [[1.0], [2.0], [3.0]], matrix)


def test_from_rows_needs_a_row():
    with pytest.raises(ValidationError,
                       match="a kernel needs at least one row"):
        DiscreteKernel.from_rows(np.zeros((0, 1)), ())


def test_from_rows_needs_one_weight_per_point():
    with pytest.raises(ValidationError, match="a row needs one weight per point"):
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
    lam = DiscreteDistribution([(0.0,)], [1.0])
    q = _kernel([(0.0,)], [([(1.0,), (2.0,)], [0.3, 0.7])])
    out = compose_marginal(lam, q)
    np.testing.assert_allclose(out.weights, [0.3, 0.7])


def test_compose_merges_identical_rows():
    lam = DiscreteDistribution([(0.0,), (1.0,)], [0.5, 0.5])
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
    lam = DiscreteDistribution([(0, 1), (0, 2)], [0.5, 0.5])
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
    lam = DiscreteDistribution([(9.0,)], [1.0])
    q = _kernel([(0.0,)], [([(1.0,)], [1.0])])
    with pytest.raises(ValidationError,
                       match="marginal support does not match kernel sources"):
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
    np.testing.assert_allclose(c, [[5.0]])


def test_pairwise_cost_squared():
    c = pairwise_cost([(0, 0)], [(3, 4)], 2)
    np.testing.assert_allclose(c, [[25.0]])


def test_pairwise_cost_column():
    c = pairwise_cost([(1, 1), (2, 2)], [(1, 1)], 1)
    np.testing.assert_allclose(c, [[0.0], [np.sqrt(2)]])


def test_pairwise_cost_bad_order():
    with pytest.raises(ValidationError, match="order p must be >= 1, got 0.5"):
        pairwise_cost([(0, 0)], [(1, 1)], 0.5)


def test_pairwise_cost_dim_mismatch():
    with pytest.raises(ValidationError, match="point dimensions differ: 2 vs 3"):
        pairwise_cost([(0, 0)], [(1, 1, 1)], 1)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=25, deadline=None)
def test_pairwise_cost_symmetric_zero_diagonal(seed, p):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(5, 3))
    c = pairwise_cost(pts, pts, p)
    np.testing.assert_allclose(np.diag(c), 0.0, atol=1e-12)
    np.testing.assert_allclose(c, c.T, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_pairwise_cost_agrees_with_distance_power(dim):
    # plan costs come from distance_power on gathered (particle, candidate)
    # pairs, so they must be the very entries of the cost matrix
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(23, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
    b = rng.normal(size=(11, dim))
    pick = rng.integers(0, len(b), size=len(a))
    for p in (1.0, 1.5, 2.0, 3.0):
        entries = pairwise_cost(a, b, p)
        np.testing.assert_array_equal(
            entries, distance_power(a[:, None, :], b[None, :, :], p)
        )
        np.testing.assert_array_equal(
            entries[np.arange(len(a)), pick], distance_power(a, b[pick], p)
        )
        # the instance's matrix is candidate-major: pairwise_cost(b, a)
        np.testing.assert_array_equal(entries, pairwise_cost(b, a, p).T)


def test_pairwise_cost_rejects_an_overflowing_cost():
    # finite points whose squared distance overflows to infinity
    for p in (1.0, 2.0, 3.0):
        with pytest.raises(ValidationError,
                           match="cost entries must be finite"):
            pairwise_cost([(1e200, 0.0)], [(-1e200, 0.0)], p)
    np.testing.assert_allclose(
        pairwise_cost([(1e100, 0.0)], [(0.0, 0.0)], 2), [[1e200]])


# a cost matrix, built either by pairwise_cost or by a selection instance,
# refuses what CostMatrix refused and finite points can still produce; each
# case id names the kind of fault the case checks
@pytest.mark.parametrize("a, b, order, match", [
    pytest.param([(1e200, 0.0)], [(-1e200, 0.0)], 1.0,
                 "cost entries must be finite",  # the square overflows
                 id="entries2-1.0-NonFiniteError"),
    pytest.param([(1.7e308, 0.0)], [(-1.7e308, 0.0)], 1.0,
                 "cost entries must be finite",  # the difference overflows
                 id="entries3-1.0-NonFiniteError"),
    pytest.param([(0.0, 0.0)], [(1.0, 0.0)], 0.5,
                 "order p must be >= 1, got 0.5",
                 id="entries5-0.5-InvalidOrderError"),
])
def test_cost_matrix_rejects(a, b, order, match):
    with pytest.raises(ValidationError, match=match):
        pairwise_cost(a, b, order)
    with pytest.raises(ValidationError, match=match):
        SelectionInstance.build([(1.0, a)], b, order, 1)


def test_as_points_rejects_a_3d_array():
    with pytest.raises(ValidationError, match=r"got shape \(2, 3, 2\)"):
        as_points(np.zeros((2, 3, 2)))


def _einsum_cost(a, b, p):
    diff = a[:, None, :] - b[None, :, :]
    sq = np.einsum("...d,...d->...", diff, diff)
    if p == 2:
        return sq
    return np.sqrt(sq) if p == 1 else np.sqrt(sq) ** p


def test_pairwise_cost_matches_einsum_form_up_to_two_dims():
    rng = np.random.default_rng(11)
    for case in range(200):
        dim = 1 + case % 2
        a = rng.normal(size=(rng.integers(1, 30), dim))
        b = rng.normal(size=(rng.integers(1, 30), dim)) * rng.uniform(0.1, 50)
        for p in (1.0, 1.5, 2.0, 3.0):
            np.testing.assert_array_equal(
                pairwise_cost(a, b, p), _einsum_cost(a, b, p)
            )


def test_distribution_json_round_trip():
    dist = DiscreteDistribution([(0, 1), (2, 3)], [0.25, 0.75])
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


def test_system_codec_calls_the_core_codecs_by_name(tmp_path, monkeypatch):
    # kcbench's core.json_decode_s and json_encode_s spans wrap these four
    # names in kcompress.core, so the system codec must look them up there:
    # once per kernel and once per marginal
    calls = Counter()
    for name in ("kernel_from_dict", "distribution_from_dict",
                 "kernel_to_dict", "distribution_to_dict"):
        def recorder(data, name=name, codec=getattr(core, name)):
            calls[name] += 1
            return codec(data)
        monkeypatch.setattr(core, name, recorder)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(
        ragged_system_dict(np.random.default_rng(5), [3, 2, 4])))
    system = core.load_system(path)
    assert calls == {"kernel_from_dict": 3, "distribution_from_dict": 4}
    calls.clear()
    core.system_to_dict(system)
    assert calls == {"kernel_to_dict": 3, "distribution_to_dict": 4}


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

CSV_FIELDS = [0, -7, 2**70, -0.0, 5e-324, 1e-05, 1e16, float("nan"),
              float("inf"), -float("inf"), 0.1, -2.5e-300, "certified", "x0",
              "", "a b", "\u00e9t\u00e9"]


def test_write_csv_matches_csv_module(tmp_path):
    # rows over two block boundaries, every field in every column
    rows = [tuple(CSV_FIELDS[(i + j) % len(CSV_FIELDS)] for j in range(3))
            for i in range(2 * CSV_BLOCK_ROWS + 5)]
    path = tmp_path / "f.csv"
    write_csv(path, ["a", "b", "c"], iter(rows))
    assert path.read_bytes() == csv_module_bytes(["a", "b", "c"], rows)
    for header, rows in ((["x"], [(1.5,), ("y",)]), (["x", "y"], [])):
        write_csv(path, header, rows)
        assert path.read_bytes() == csv_module_bytes(header, rows)


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "a\rb", "a\nb",
                                   "a\r\nb", ",", '"'])
def test_write_csv_refuses_fields_csv_would_quote(tmp_path, field):
    assert b'"' in csv_module_bytes(["h", "i"], [(field, 1)])
    path = tmp_path / "f.csv"
    with pytest.raises(ValueError, match="quoting"):
        write_csv(path, ["h", field], [])
    # in a later block, in the last column
    rows = [(1, 2.0)] * CSV_BLOCK_ROWS + [(3, field)]
    with pytest.raises(ValueError, match="quoting"):
        write_csv(path, ["h", "i"], rows)


def test_write_csv_refuses_an_empty_lone_field(tmp_path):
    # csv writes '""' for it, so that the row is not an empty line
    assert csv_module_bytes(["h"], [("",)]) == b'h\r\n""\r\n'
    with pytest.raises(ValueError, match="quoting"):
        write_csv(tmp_path / "f.csv", ["h"], [("x",), ("",)])
    with pytest.raises(ValueError, match="quoting"):
        write_csv(tmp_path / "f.csv", [""], [])


def test_write_csv_rows_match_the_header_length(tmp_path):
    for row in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "f.csv", ["a", "b"], [(0, 0), row])
