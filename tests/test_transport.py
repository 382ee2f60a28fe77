import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from helpers import matching_expansion_value, rational_distribution
from kcompress.core import (
    DiscreteDistribution,
    DiscreteKernel,
    compose_marginal,
)
from kcompress.errors import KCompressError, ValidationError
from kcompress import transport
from kcompress.transport import (
    TransportPlan,
    assignment_distance,
    integrated_distance,
    wasserstein_exact,
)


def _dirac(point):
    return DiscreteDistribution([point], [1.0])


def _random_distribution(rng, max_atoms=8, dim=2):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteDistribution(
        rng.normal(scale=2.0, size=(n, dim)), rng.dirichlet(np.ones(n))
    )


# ---------------------------------------------------------------------------
# wasserstein_exact
# ---------------------------------------------------------------------------

def test_single_atom_transport():
    d, plan = wasserstein_exact(_dirac((0, 0)), _dirac((3, 4)), 1)
    assert d == pytest.approx(5.0)
    np.testing.assert_allclose(plan.plan, [[1.0]])
    assert plan.value == pytest.approx(5.0)


def test_identical_measures_zero_distance():
    rng = np.random.default_rng(0)
    for p in (1, 2, 3):
        mu = _random_distribution(rng)
        d, _ = wasserstein_exact(mu, mu, p)
        assert d == 0.0


def test_half_mass_move():
    mu = DiscreteDistribution([(0, 0), (1, 0)], [0.5, 0.5])
    nu = DiscreteDistribution([(0, 0)], [1.0])
    d, plan = wasserstein_exact(mu, nu, 1)
    assert d == pytest.approx(0.5)
    np.testing.assert_allclose(plan.plan, [[0.5], [0.5]])


def test_matches_matching_expansion_oracle():
    """Exact value agrees with min-cost matching on the unit-mass expansion."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        mu, counts_mu = rational_distribution(rng, 6, 2, denominator=24)
        nu, counts_nu = rational_distribution(rng, 7, 2, denominator=24)
        p = float(rng.choice([1.0, 2.0]))
        d, plan = wasserstein_exact(mu, nu, p)
        oracle = matching_expansion_value(
            mu.support, counts_mu, nu.support, counts_nu, p
        )
        assert plan.value == pytest.approx(oracle, abs=1e-9)
        assert d == pytest.approx(oracle ** (1 / p), abs=1e-9)


def test_plan_marginals_match_inputs():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu = _random_distribution(rng)
        nu = _random_distribution(rng)
        _, plan = wasserstein_exact(mu, nu, 2)
        np.testing.assert_allclose(plan.plan.sum(axis=1), mu.weights, atol=1e-9)
        np.testing.assert_allclose(plan.plan.sum(axis=0), nu.weights, atol=1e-9)
        assert plan.value == pytest.approx(
            float(
                np.sum(
                    plan.plan
                    * np.linalg.norm(
                        mu.support[:, None, :] - nu.support[None, :, :], axis=2
                    )
                    ** 2
                )
            ),
            abs=1e-9,
        )


def test_metric_axioms():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = float(rng.choice([1.0, 2.0]))
        mu = _random_distribution(rng)
        nu = _random_distribution(rng)
        rho = _random_distribution(rng)
        d_mn, _ = wasserstein_exact(mu, nu, p)
        d_nm, _ = wasserstein_exact(nu, mu, p)
        d_mr, _ = wasserstein_exact(mu, rho, p)
        d_rn, _ = wasserstein_exact(rho, nu, p)
        assert d_mn == d_nm  # exact, by canonical orientation
        assert d_mn >= 0.0
        assert d_mn <= d_mr + d_rn + 1e-9
        d_mm, _ = wasserstein_exact(mu, mu, p)
        assert d_mm == 0.0


def test_zero_weight_atoms_dropped():
    mu = DiscreteDistribution([(0, 0), (99, 99)], [1.0, 0.0])
    nu = _dirac((3, 4))
    d, plan = wasserstein_exact(mu, nu, 1)
    assert d == pytest.approx(5.0)
    # the zero-weight atom carries no mass in the expanded plan
    np.testing.assert_allclose(plan.plan, [[1.0], [0.0]])


def test_transport_plan_must_be_finite_and_nonnegative():
    with pytest.raises(ValidationError, match="transport plan must be finite"):
        TransportPlan([[np.nan, 0.5]], 0.0)
    with pytest.raises(ValidationError,
                       match="transport plan must be nonnegative"):
        TransportPlan([[1.0, -1e-9]], 0.0)


def test_size_cap(monkeypatch):
    rng = np.random.default_rng(1)
    mu = _random_distribution(rng, max_atoms=8)
    nu = _random_distribution(rng, max_atoms=8)
    monkeypatch.setattr(transport, "SIZE_CAP", 3)
    with pytest.raises(KCompressError, match="exceeds cap 3"):
        wasserstein_exact(mu, nu, 1)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_degenerate_supports_still_solve(seed):
    """Repeated support points and tied costs must not trip the pivoting."""
    rng = np.random.default_rng(seed)
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    idx_mu = rng.integers(0, 4, size=5)
    idx_nu = rng.integers(0, 4, size=5)
    mu = DiscreteDistribution(grid[idx_mu], rng.dirichlet(np.ones(5)))
    nu = DiscreteDistribution(grid[idx_nu], rng.dirichlet(np.ones(5)))
    d, plan = wasserstein_exact(mu, nu, 1)
    assert d >= 0.0
    np.testing.assert_allclose(plan.plan.sum(axis=1), mu.weights, atol=1e-9)
    np.testing.assert_allclose(plan.plan.sum(axis=0), nu.weights, atol=1e-9)


# ---------------------------------------------------------------------------
# assignment_distance
# ---------------------------------------------------------------------------

def test_assignment_coincident_particle():
    value, assignment = assignment_distance([(0, 0)], [1.0], [(0, 0), (5, 5)], 1)
    assert value == 0.0
    np.testing.assert_array_equal(assignment, [0])


def test_assignment_both_distance_one():
    value, assignment = assignment_distance(
        [(0, 0), (2, 0)], [0.5, 0.5], [(1, 0)], 1
    )
    assert value == pytest.approx(1.0)
    np.testing.assert_array_equal(assignment, [0, 0])


def test_assignment_tie_lowest_index():
    value, assignment = assignment_distance([(0, 0)], [1.0], [(1, 0), (-1, 0)], 2)
    assert value == pytest.approx(1.0)
    np.testing.assert_array_equal(assignment, [0])


def test_assignment_empty_selection():
    with pytest.raises(ValidationError, match="selected set must be nonempty"):
        assignment_distance([(0, 0)], [1.0], np.zeros((0, 2)), 1)


def test_assignment_full_set_zero():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 2))
    w = rng.dirichlet(np.ones(6))
    value, assignment = assignment_distance(pts, w, pts, 2)
    assert value == 0.0
    np.testing.assert_array_equal(assignment, np.arange(6))


def test_assignment_equals_wasserstein_to_implied():
    """Nearest assignment is an optimal plan onto the implied weights."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = rng.normal(size=(10, 2))
        w = rng.dirichlet(np.ones(10))
        selected = rng.normal(size=(4, 2))
        p = float(rng.choice([1.0, 2.0]))
        value, assignment = assignment_distance(pts, w, selected, p)
        implied_w = np.zeros(4)
        np.add.at(implied_w, assignment, w)
        mu = DiscreteDistribution(pts, w)
        nu = DiscreteDistribution(selected, implied_w)
        _, plan = wasserstein_exact(mu, nu, p)
        assert value == pytest.approx(plan.value, abs=1e-9)


def test_assignment_monotone_in_selection():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pts = rng.normal(size=(8, 2))
        w = np.full(8, 1 / 8)
        selected = rng.normal(size=(3, 2))
        extra = np.vstack([selected, rng.normal(size=(1, 2))])
        v_small, _ = assignment_distance(pts, w, selected, 2)
        v_big, _ = assignment_distance(pts, w, extra, 2)
        assert v_big <= v_small + 1e-12


# ---------------------------------------------------------------------------
# integrated_distance
# ---------------------------------------------------------------------------

def _kernel_pair(rng, n_src=3):
    sources = rng.normal(size=(n_src, 2))
    lam = DiscreteDistribution(sources, rng.dirichlet(np.ones(n_src)))
    rows_q = tuple(_random_distribution(rng, max_atoms=5) for _ in range(n_src))
    rows_qt = tuple(_random_distribution(rng, max_atoms=5) for _ in range(n_src))
    return (
        lam,
        DiscreteKernel.from_rows(sources, rows_q),
        DiscreteKernel.from_rows(sources, rows_qt),
    )


def test_integrated_identical_kernels():
    rng = np.random.default_rng(3)
    lam, q, _ = _kernel_pair(rng)
    assert integrated_distance(lam, q, q, 1) == 0.0


def test_integrated_single_source_equals_row_distance():
    rng = np.random.default_rng(4)
    lam, q, qt = _kernel_pair(rng, n_src=1)
    lam = DiscreteDistribution(lam.support, [1.0])
    expected, _ = wasserstein_exact(q.rows[0], qt.rows[0], 2)
    assert integrated_distance(lam, q, qt, 2) == pytest.approx(expected, abs=1e-12)


def test_integrated_two_sources_hand_value():
    sources = np.array([[0.0], [10.0]])
    lam = DiscreteDistribution(sources, [0.5, 0.5])
    q = DiscreteKernel.from_rows(sources, (_dirac((0.0,)), _dirac((0.0,))))
    qt = DiscreteKernel.from_rows(sources, (_dirac((1.0,)), _dirac((3.0,))))
    # row distances are 1.0 and 3.0 by the single-atom transport rule
    assert wasserstein_exact(q.rows[0], qt.rows[0], 1)[0] == pytest.approx(1.0)
    assert wasserstein_exact(q.rows[1], qt.rows[1], 1)[0] == pytest.approx(3.0)
    assert integrated_distance(lam, q, qt, 1) == pytest.approx(2.0)


def test_integrated_skips_a_zero_weight_source(monkeypatch):
    sources = np.array([[0.0], [10.0]])
    lam = DiscreteDistribution(sources, [1.0, 0.0])
    q = DiscreteKernel.from_rows(sources, (_dirac((0.0,)), _dirac((0.0,))))
    qt = DiscreteKernel.from_rows(sources, (_dirac((1.0,)), _dirac((50.0,))))
    solved = []

    def recording(mu, nu, p):
        solved.append(nu)
        return wasserstein_exact(mu, nu, p)

    monkeypatch.setattr(transport, "wasserstein_exact", recording)
    assert integrated_distance(lam, q, qt, 1) == 1.0
    assert len(solved) == 1
    np.testing.assert_array_equal(solved[0].weights, qt.matrix[0])


def test_integrated_source_mismatch():
    rng = np.random.default_rng(6)
    lam, q, qt = _kernel_pair(rng)
    other = DiscreteDistribution(lam.support + 1.0, lam.weights)
    with pytest.raises(ValidationError,
                       match="marginal support does not match kernel sources"):
        integrated_distance(other, q, qt, 1)


def test_outer_composition_inequality():
    """Integrating row distances dominates the distance of the mixtures."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = float(rng.choice([1.0, 2.0]))
        lam, q, qt = _kernel_pair(rng, n_src=int(rng.integers(1, 4)))
        itd = integrated_distance(lam, q, qt, p)
        d_mix, _ = wasserstein_exact(
            compose_marginal(lam, q), compose_marginal(lam, qt), p
        )
        assert itd >= d_mix - 1e-9


def _linprog_value(cost, supply, demand):
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([supply, demand]), method="highs")
    assert res.status == 0
    return res.fun


def test_bland_fallback_reaches_the_optimum(monkeypatch):
    # uniform weights make the northwest-corner start degenerate, so with
    # no degenerate pivot tolerated the Bland rule takes over at once
    rng = np.random.default_rng(12)
    for _ in range(5):
        cost = rng.uniform(0.0, 1.0, size=(12, 9))
        supply, demand = np.full(12, 1 / 12), np.full(9, 1 / 9)
        default = transport._solve_transportation(cost, supply, demand)
        rules = []
        real_argwhere = np.argwhere

        def recording(a):
            rules.append("bland")
            return real_argwhere(a)

        with monkeypatch.context() as patch:
            patch.setattr(transport, "_DEGENERATE_RUN_LIMIT", 0)
            patch.setattr(transport.np, "argwhere", recording)
            bland = transport._solve_transportation(cost, supply, demand)
        assert rules
        np.testing.assert_allclose(bland.sum(axis=1), supply, atol=1e-15)
        np.testing.assert_allclose(bland.sum(axis=0), demand, atol=1e-15)
        assert np.all(bland >= 0)
        value = float(np.sum(cost * bland))
        assert value == pytest.approx(float(np.sum(cost * default)),
                                      rel=1e-12)
        assert value == pytest.approx(_linprog_value(cost, supply, demand),
                                      rel=1e-12)


def test_tied_instances_return_the_pinned_optimum(monkeypatch):
    # integer costs from {0, 1, 2, 3} under uniform weights leave many
    # optimal plans; the digest pins which one the pivoting returns
    digest = hashlib.sha256()
    for limit in (transport._DEGENERATE_RUN_LIMIT, 0):
        monkeypatch.setattr(transport, "_DEGENERATE_RUN_LIMIT", limit)
        for m, n in ((7, 5), (1, 6), (6, 1), (9, 9)):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                cost = rng.integers(0, 4, size=(m, n)).astype(np.float64)
                flow = transport._solve_transportation(
                    cost, np.full(m, 1 / m), np.full(n, 1 / n))
                digest.update(flow.tobytes())
    assert digest.hexdigest() == (
        "6c8185d76976127c7bb9156ee81d2f57bdd91173d332dd5134fe06c3a9eeffe2")
