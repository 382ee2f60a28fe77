import numpy as np
import pytest

from helpers import (
    aggregate_one,
    discrete_lipschitz,
    path_expectation,
    perturb_system,
    random_discrete_system,
    value_at,
)
from kcompress.core import (
    DiscreteDistribution,
    DiscreteKernel,
    DiscreteSystem,
    compose_marginal,
    dirac,
)
from kcompress.errors import ValidationError
from kcompress.risk import (
    error_bound,
    evaluate_backward,
    expectation_mapping,
    lookup,
    semideviation_mapping,
    write_values_csv,
)
from kcompress.transport import integrated_distance


def two_point(a, b, wa=0.5):
    return DiscreteDistribution([[a], [b]], [wa, 1.0 - wa])


def at_atoms(mu, table):
    """table's value at each atom of mu, in mu's order."""
    return [table[tuple(p)] for p in np.asarray(mu.support)]


# ---------------------------------------------------------------------------
# risk mappings
# ---------------------------------------------------------------------------

def test_expectation_dirac():
    sigma = expectation_mapping()
    mu = dirac([3.0])
    assert aggregate_one(sigma, mu, [7.5]) == 7.5


def test_expectation_uniform_average():
    sigma = expectation_mapping()
    v = {(0.0,): 0.0, (1.0,): 2.0}
    mu = two_point(0.0, 1.0)
    assert aggregate_one(sigma, mu, at_atoms(mu, v)) == 1.0


def test_expectation_linearity():
    rng = np.random.default_rng(6)
    sigma = expectation_mapping()
    for _ in range(30):
        n = int(rng.integers(2, 6))
        support = rng.normal(size=(n, 2))
        w = rng.dirichlet(np.ones(n))
        mu = DiscreteDistribution(support, w)
        v = {tuple(p): float(rng.normal()) for p in support}
        u = {tuple(p): float(rng.normal()) for p in support}
        a, b = rng.normal(size=2)
        combined = {k: a * v[k] + b * u[k] for k in v}
        lhs = aggregate_one(sigma, mu, at_atoms(mu, combined))
        rhs = (a * aggregate_one(sigma, mu, at_atoms(mu, v))
               + b * aggregate_one(sigma, mu, at_atoms(mu, u)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_semideviation_zero_kappa_is_expectation():
    rng = np.random.default_rng(1)
    plain = expectation_mapping()
    degenerate = semideviation_mapping(0.0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        support = rng.normal(size=(n, 1))
        mu = DiscreteDistribution(support, rng.dirichlet(np.ones(n)))
        v = at_atoms(mu, {tuple(p): float(rng.normal()) for p in support})
        assert aggregate_one(degenerate, mu, v) == pytest.approx(
            aggregate_one(plain, mu, v), abs=1e-15
        )


def test_semideviation_two_point():
    sigma = semideviation_mapping(1.0)
    v = {(0.0,): 0.0, (1.0,): 2.0}
    mu = two_point(0.0, 1.0)
    assert aggregate_one(sigma, mu, at_atoms(mu, v)) == pytest.approx(1.5)


def test_semideviation_rejects_bad_kappa():
    with pytest.raises(ValidationError, match="kappa must lie in .*-0.1"):
        semideviation_mapping(-0.1)
    with pytest.raises(ValidationError, match="kappa must lie in .*1.01"):
        semideviation_mapping(1.01)


def test_mappings_monotone_in_values():
    rng = np.random.default_rng(44)
    mappings = [
        expectation_mapping(),
        semideviation_mapping(0.3),
        semideviation_mapping(1.0),
    ]
    for _ in range(100):
        n = int(rng.integers(2, 7))
        support = rng.normal(size=(n, 2))
        mu = DiscreteDistribution(support, rng.dirichlet(np.ones(n)))
        lo = {tuple(p): float(rng.normal()) for p in support}
        hi = {k: val + float(rng.uniform(0, 2)) for k, val in lo.items()}
        for sigma in mappings:
            assert aggregate_one(sigma, mu, at_atoms(mu, lo)) <= aggregate_one(
                sigma, mu, at_atoms(mu, hi)
            ) + 1e-12


# ---------------------------------------------------------------------------
# backward recursion
# ---------------------------------------------------------------------------

def test_zero_costs_give_zero_values():
    system = random_discrete_system(np.random.default_rng(2))
    costs = [lambda X: np.zeros(len(X))] * (system.horizon + 1)
    values = evaluate_backward(system, costs, expectation_mapping())
    for t in range(system.horizon + 1):
        for x in system.supports[t]:
            assert value_at(system, values, t, x) == 0.0


def test_deterministic_chain_sums_path():
    supports = ([[0.0]], [[1.0]], [[2.0]])
    kernels = (
        DiscreteKernel.from_rows([[0.0]], (dirac([1.0]),)),
        DiscreteKernel.from_rows([[1.0]], (dirac([2.0]),)),
    )
    system = DiscreteSystem(supports, kernels)
    costs = [lambda X: X[:, 0] + 1.0] * 3
    values = evaluate_backward(system, costs, expectation_mapping())
    assert value_at(system, values, 0, [0.0]) == pytest.approx(
        (0 + 1) + (1 + 1) + (2 + 1)
    )


def test_matches_path_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(50):
        horizon = int(rng.integers(1, 5))
        system = random_discrete_system(rng, horizon=horizon, max_states=6)
        coeff = rng.normal(size=(horizon + 1, 2))
        costs = [(lambda X, c=coeff[t]: X @ c) for t in range(horizon + 1)]
        values = evaluate_backward(system, costs, expectation_mapping())
        expected = path_expectation(system, costs)
        assert value_at(system, values, 0, system.supports[0][0]) == (
            pytest.approx(expected, abs=1e-12)
        )


def test_terminal_values_are_terminal_costs():
    system = random_discrete_system(np.random.default_rng(8))
    costs = [lambda X: np.sum(X * X, axis=1)] * (system.horizon + 1)
    values = evaluate_backward(system, costs, expectation_mapping())
    for x in system.supports[-1]:
        assert value_at(system, values, system.horizon, x) == float(
            np.sum(x * x)
        )


def test_identical_kernels_identical_values():
    rng = np.random.default_rng(17)
    system = random_discrete_system(rng)
    twin = DiscreteSystem(system.supports, system.kernels)
    costs = [lambda X: X[:, 0] - X[:, 1]] * (system.horizon + 1)
    sigma = semideviation_mapping(0.5)
    a = evaluate_backward(system, costs, sigma)
    b = evaluate_backward(twin, costs, sigma)
    for t in range(system.horizon + 1):
        for x in system.supports[t]:
            assert value_at(system, a, t, x) == value_at(system, b, t, x)


def test_missing_next_stage_point():
    kernel = DiscreteKernel.from_rows([[0.0]], (dirac([5.0]),))
    system = DiscreteSystem(([[0.0]], [[1.0]]), (kernel,))
    costs = [lambda X: np.zeros(len(X))] * 2
    with pytest.raises(ValidationError):
        evaluate_backward(system, costs, expectation_mapping())


def per_point_values(system, costs, kappa):
    """v_t as one dict per stage, by one lookup per atom and plain Python
    sums, each cost taken at one point at a time; kappa None is the
    expectation. A repeated point keeps its last value."""
    tables = [{tuple(x): costs[-1](x[None])[0] for x in system.supports[-1]}]
    for t in range(system.horizon - 1, -1, -1):
        nxt, cur = tables[0], {}
        for x, row in zip(system.supports[t], system.kernels[t].rows):
            v = [nxt[tuple(y)] for y in row.support]
            mean = sum(w * vi for w, vi in zip(row.weights, v))
            risk = mean
            if kappa is not None:
                risk += kappa * sum(
                    w * max(0.0, vi - mean) for w, vi in zip(row.weights, v)
                )
            cur[tuple(x)] = costs[t](x[None])[0] + risk
        tables.insert(0, cur)
    return tables


def ragged_system(rng, horizon=3, max_states=6):
    """Rows on distinct, partial supports of the next stage, with repeated
    points in the supports and in the rows, zero-weight atoms, and runs of
    consecutive rows on one support."""
    supports = [rng.normal(size=(1, 2))]
    for _ in range(horizon):
        n = int(rng.integers(2, max_states + 1))
        points = rng.normal(size=(n, 2))
        points[-1] = points[0]
        supports.append(points)
    kernels = []
    for t in range(horizon):
        nxt = supports[t + 1]
        rows = []
        for _ in range(len(supports[t])):
            if rows and rng.random() < 0.4:
                atoms = rows[-1].support
            else:
                atoms = nxt[rng.integers(0, len(nxt), int(rng.integers(1, 7)))]
            w = rng.uniform(0.1, 1.0, size=len(atoms))
            w[rng.random(len(atoms)) < 0.3] = 0.0
            if w.sum() == 0.0:
                w[-1] = 1.0
            rows.append(DiscreteDistribution(atoms, w / w.sum()))
        kernels.append(DiscreteKernel.from_rows(supports[t], tuple(rows)))
    return DiscreteSystem(tuple(supports), tuple(kernels))


@pytest.mark.parametrize("kappa", [None, 0.0, 0.4, 1.0])
def test_matches_per_point_reference(kappa):
    rng = np.random.default_rng(91)
    sigma = expectation_mapping() if kappa is None else semideviation_mapping(kappa)
    for _ in range(40):
        horizon = int(rng.integers(1, 5))
        system = ragged_system(rng, horizon=horizon)
        coeff = rng.normal(size=(horizon + 1, 2))
        costs = [
            (lambda X, c=coeff[t]: X @ c + np.sum(X * X, axis=1))
            for t in range(horizon + 1)
        ]
        values = evaluate_backward(system, costs, sigma)
        want = per_point_values(system, costs, kappa)
        for t in range(horizon + 1):
            assert values[t].shape == (len(system.supports[t]),)
            for key, value in want[t].items():
                assert value_at(system, values, t, key) == pytest.approx(
                    value, rel=1e-12, abs=1e-12
                )


def test_values_csv_one_row_per_distinct_point(tmp_path):
    # stage 0 repeats a point, once as -0.0: the row keeps the first
    # occurrence's coordinates and the last occurrence's value
    supports = (
        np.array([[1.0, -0.0], [0.5, 2.0], [1.0, 0.0]]),
        np.array([[3.0, 1.0], [-1.0, 4.0]]),
    )
    values = (np.array([1.5, 2.5, 3.5]), np.array([0.25, 0.125]))
    path = tmp_path / "values.csv"
    write_values_csv(path, supports, values)
    assert path.read_text().splitlines() == [
        "t,x0,x1,value",
        "0,0.5,2.0,2.5",
        "0,1.0,-0.0,3.5",
        "1,-1.0,4.0,0.125",
        "1,3.0,1.0,0.25",
    ]


def test_lookup_finds_last_occurrence():
    points = np.array([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]])
    assert lookup(points, [[2.0, 3.0], [0.0, 1.0]], 1).tolist() == [1, 2]
    with pytest.raises(ValidationError, match="stage 1"):
        lookup(points, [[2.0, 3.0], [5.0, 5.0]], 1)


def test_missing_point_after_shared_rows():
    # the first two rows share a support; the third reaches a point that
    # stage 1 lacks
    shared = DiscreteDistribution([[1.0], [2.0]], [0.5, 0.5])
    kernel = DiscreteKernel.from_rows(
        [[0.0], [0.5], [0.7]],
        (shared, DiscreteDistribution([[1.0], [2.0]], [0.2, 0.8]),
         DiscreteDistribution([[2.0], [3.0]], [0.5, 0.5])),
    )
    system = DiscreteSystem(([[0.0], [0.5], [0.7]], [[1.0], [2.0]]), (kernel,))
    with pytest.raises(ValidationError):
        evaluate_backward(system, [lambda X: np.zeros(len(X))] * 2,
                          expectation_mapping())


def test_row_count_checked():
    # one row for two support points: the system is refused when built, so
    # evaluate_backward never sees it
    kernel = DiscreteKernel.from_rows([[0.0]], (dirac([1.0]),))
    with pytest.raises(ValidationError,
                       match="kernel 0 has 1 rows for 2 points of support 0"):
        DiscreteSystem(([[0.0], [0.5]], [[1.0]]), (kernel,))


def test_each_stage_cost_is_called_once_on_its_whole_support():
    system = random_discrete_system(np.random.default_rng(12), horizon=3)
    calls = []

    def recording(t):
        def cost(points):
            calls.append((t, points))
            return points[:, 0]
        return cost

    evaluate_backward(system, [recording(t) for t in range(4)],
                      semideviation_mapping(0.5))
    assert [t for t, _ in calls] == [3, 2, 1, 0]
    for t, points in calls:
        assert np.array_equal(points, system.supports[t])


def _two_point_chain():
    kernel = DiscreteKernel.from_rows(
        [[0.0]], (DiscreteDistribution([[1.0], [2.0]], [0.5, 0.5]),))
    return DiscreteSystem(([[0.0]], [[1.0], [2.0]]), (kernel,))


@pytest.mark.parametrize("cost, match", [
    pytest.param(lambda X: np.where(X[:, 0] == 2.0, np.inf, 0.0),
                 r"cost at stage 1 for point \(2.0,\) is inf", id="inf-cost"),
    pytest.param(lambda X: np.where(X[:, 0] == 0.0, np.nan, 1.0),
                 r"cost at stage 0 for point \(0.0,\) is nan", id="nan-cost"),
    pytest.param(lambda X: np.full(len(X), 1e308),
                 r"value at stage 0 for point \(0.0,\) is inf",
                 id="overflowing-value"),
    pytest.param(lambda X: np.zeros(len(X) + 1),
                 r"cost at stage 1 gave shape \(3,\) for 2 points",
                 id="one-value-too-many"),
    pytest.param(lambda X: 0.0, r"cost at stage 1 gave shape \(\) for 2 points",
                 id="scalar"),
])
def test_bad_stage_cost_or_value_is_refused(cost, match):
    with pytest.raises(ValidationError, match=match):
        evaluate_backward(_two_point_chain(), [cost] * 2,
                          expectation_mapping())


def test_cost_count_checked():
    system = random_discrete_system(np.random.default_rng(3), horizon=2)
    with pytest.raises(ValidationError, match="need 3 cost functions, got 2"):
        evaluate_backward(system, [lambda X: np.zeros(len(X))] * 2,
                          expectation_mapping())


def test_discrete_system_validates_sources():
    kernel = DiscreteKernel.from_rows([[0.0]], (dirac([1.0]),))
    with pytest.raises(ValidationError,
                       match="kernel 0 sources do not match support 0"):
        DiscreteSystem(([[9.0]], [[1.0]]), (kernel,))
    with pytest.raises(ValidationError, match="1 supports need 0 kernels, got 1"):
        DiscreteSystem(([[0.0]],), (kernel,))


def test_discrete_system_refuses_empty_and_mixed_dimension_supports():
    flat = DiscreteKernel.from_rows([[0.0, 0.0]], (dirac([1.0, 0.0]),))
    deep = DiscreteKernel.from_rows([[0.0, 0.0]], (dirac([1.0, 0.0, 0.0]),))
    for supports, kernels, match in [
        (([[0.0, 0.0]], [[1.0, 0.0, 0.0]]), (deep,),
         "support 1 is 3-D, support 0 is 2-D"),
        (([[0.0, 0.0]], [[1.0, 0.0]]), (deep,),
         "kernel 0 support is 3-D, support 0 is 2-D"),
        (([],), (), "support 0 has no points"),
        ((np.zeros((0, 2)),), (), "support 0 has no points"),
        (([[0.0, 0.0]], np.zeros((0, 2))), (flat,), "support 1 has no points"),
    ]:
        with pytest.raises(ValidationError, match=match):
            DiscreteSystem(supports, kernels)
    assert DiscreteSystem(([[0.0, 0.0]], [[1.0, 0.0]]), (flat,)).dim == 2
    assert DiscreteSystem(([[0.0, 1.0, 2.0]],), ()).dim == 3


def chain_parts():
    """Supports, kernels, marginals and deltas of a consistent two-stage
    chain."""
    supports = ([[0.0]], [[1.0], [2.0]], [[3.0]])
    kernels = (
        DiscreteKernel.from_rows(
            [[0.0]], (DiscreteDistribution([[1.0], [2.0]], [0.5, 0.5]),)
        ),
        DiscreteKernel.from_rows([[1.0], [2.0]], (dirac([3.0]), dirac([3.0]))),
    )
    marginals = (
        dirac([0.0]),
        DiscreteDistribution([[1.0], [2.0]], [0.5, 0.5]),
        dirac([3.0]),
    )
    return supports, kernels, marginals, (0.1, 0.2)


def test_discrete_system_holds_consistent_parts():
    supports, kernels, marginals, deltas = chain_parts()
    system = DiscreteSystem(supports, kernels, marginals, deltas)
    assert system.horizon == 2
    assert system.deltas == deltas
    for t, support in enumerate(system.supports):
        assert np.array_equal(support, supports[t])
        assert not support.flags.writeable
    bare = DiscreteSystem(supports, kernels)
    assert bare.marginals == () and bare.deltas == ()


def _nan_point(parts):
    parts[0] = parts[0][:2] + ([[float("nan")]],)


def _marginal_off_support(parts):
    parts[2] = parts[2][:1] + (
        DiscreteDistribution([[2.0], [1.0]], [0.5, 0.5]),
    ) + parts[2][2:]


def _marginal_count(parts):
    parts[2] = parts[2][:2]


def _delta_count(parts):
    parts[3] = (0.1, 0.2, 0.3)


# each case id names the corruption and the kind of fault it makes
@pytest.mark.parametrize("corrupt, match", [
    pytest.param(_nan_point, "point coordinates must be finite",
                 id="_nan_point-NonFiniteError"),
    pytest.param(_marginal_off_support, "marginal 1 does not live on support 1",
                 id="_marginal_off_support-SourceMismatchError"),
    pytest.param(_marginal_count, "3 supports need 3 marginals, got 2",
                 id="_marginal_count-LengthMismatchError"),
    pytest.param(_delta_count, "2 kernels need 2 deltas, got 3",
                 id="_delta_count-LengthMismatchError"),
])
def test_discrete_system_rejects_inconsistent_parts(corrupt, match):
    parts = list(chain_parts())
    corrupt(parts)
    with pytest.raises(ValidationError, match=match):
        DiscreteSystem(*parts)


# ---------------------------------------------------------------------------
# the propagation bound
# ---------------------------------------------------------------------------

def test_bound_zero_deltas():
    assert error_bound([1.0, 2.0], [3.0], [0.0, 0.0], 0) == 0.0


def test_bound_direct_formula():
    assert error_bound([1.0, 1.0], [1.0], [0.1, 0.2], 0) == pytest.approx(0.3)
    assert error_bound([2.0, 3.0], [4.0], [0.1, 0.2], 0) == pytest.approx(
        2.0 * 0.1 + 3.0 * 4.0 * 0.2
    )


def test_bound_final_stage_single_term():
    assert error_bound([1.0, 5.0], [9.0], [0.1, 0.2], 1) == pytest.approx(1.0)


def test_bound_index_and_sign_errors():
    with pytest.raises(ValidationError, match=r"stage 2 outside \[0, 1\]"):
        error_bound([1.0, 1.0], [1.0], [0.1, 0.2], 2)
    with pytest.raises(ValidationError, match=r"stage -1 outside \[0, 1\]"):
        error_bound([1.0, 1.0], [1.0], [0.1, 0.2], -1)
    counts = "need 2 deltas and 1 kernel constants for 2 Lipschitz constants"
    with pytest.raises(ValidationError, match=counts):
        error_bound([1.0, 1.0], [], [0.1, 0.2], 0)
    with pytest.raises(ValidationError, match=counts):
        error_bound([1.0, 1.0], [1.0], [0.1], 0)
    with pytest.raises(ValidationError,
                       match="bound constants must be nonnegative"):
        error_bound([1.0, -1.0], [1.0], [0.1, 0.2], 0)


def test_bound_dominates_perturbed_value_error():
    # expectation mapping, p = 1, kernel constants 1: the weighted value
    # error under the perturbed marginals must stay below the bound built
    # from per-stage integrated distances and discrete Lipschitz constants
    rng = np.random.default_rng(23)
    for _ in range(50):
        horizon = int(rng.integers(1, 4))
        system = random_discrete_system(rng, horizon=horizon, max_states=5)
        approx = perturb_system(rng, system)
        coeff = rng.normal(size=(horizon + 1, 2))
        costs = [(lambda X, c=coeff[t]: X @ c) for t in range(horizon + 1)]
        sigma = expectation_mapping()
        exact = evaluate_backward(system, costs, sigma)
        tilde = evaluate_backward(approx, costs, sigma)

        marginals = [dirac(system.supports[0][0])]
        for t in range(horizon):
            marginals.append(
                compose_marginal(marginals[t], approx.kernels[t])
            )
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
