"""Shared oracles and instance builders used across the test modules.

Everything here is deliberately independent of the package internals: the
matching-expansion oracle goes through scipy's assignment solver, and the
enumeration oracles below are pure brute force. They exist to cross-check the
library, so they must not share code with it.
"""

import csv
import io
from itertools import combinations

import numpy as np
from scipy.optimize import linear_sum_assignment

from kcompress.core import DiscreteDistribution, pairwise_cost
from kcompress.generators import _JOE_KUO
from kcompress.oracle import SelectionInstance


def random_tiny_instance(rng, max_groups=3, max_particles=8, max_k=12, max_m=4):
    """A random selection instance small enough for every enumeration oracle."""
    n_groups = int(rng.integers(1, max_groups + 1))
    lam = rng.dirichlet(np.ones(n_groups))
    groups = []
    for s in range(n_groups):
        n = int(rng.integers(2, max_particles + 1))
        centre = rng.normal(scale=3.0, size=2)
        groups.append((lam[s] / n, centre + rng.normal(size=(n, 2))))
    k = int(rng.integers(4, max_k + 1))
    candidates = rng.normal(scale=3.5, size=(k, 2))
    m = int(rng.integers(1, min(max_m, k) + 1))
    p = float(rng.choice([1.0, 2.0]))
    return SelectionInstance.build(groups, candidates, p, m)


def dense_weighted_costs(instance):
    """The (N, K) matrix of w_s * d(x_si, zeta_k)^p, rows in group order,
    built from pairwise_cost and the group weights rather than read back
    from the instance: the dense reference for its queries."""
    return np.vstack([
        pairwise_cost(cloud, instance.candidates, instance.order) * w
        for w, cloud in zip(instance.weights, instance.clouds)
    ])


def below_reference(wd, cap):
    """SelectionInstance.below over the dense (N, K) matrix wd: the
    (candidate, particle, cost) entries with cost < cap[particle],
    candidates ascending, each one's particles ascending."""
    block = wd.T
    cand, part = np.nonzero(block < np.asarray(cap)[None, :])
    return cand, part, block[cand, part]


def rational_distribution(rng, n, dim, denominator=24, spread=3.0):
    """Random distribution whose weights are multiples of 1/denominator."""
    cuts = rng.choice(np.arange(1, denominator), size=n - 1, replace=False)
    cuts.sort()
    counts = np.diff(np.concatenate([[0], cuts, [denominator]]))
    support = rng.normal(scale=spread, size=(n, dim))
    return DiscreteDistribution(support, counts / denominator), counts


def matching_expansion_value(support_mu, counts_mu, support_nu, counts_nu, p):
    """W_p^p via min-cost perfect matching on the unit-mass expansion.

    Both count vectors must sum to the same denominator D; atom i is split
    into counts_i copies of mass 1/D and the D x D assignment problem is
    solved exactly.
    """
    d_mu = int(np.sum(counts_mu))
    d_nu = int(np.sum(counts_nu))
    assert d_mu == d_nu, "expansion requires a common denominator"
    base = pairwise_cost(support_mu, support_nu, p)
    rows = np.repeat(np.arange(len(counts_mu)), counts_mu)
    cols = np.repeat(np.arange(len(counts_nu)), counts_nu)
    big = base[np.ix_(rows, cols)]
    r, c = linear_sum_assignment(big)
    return float(big[r, c].sum()) / d_mu


def enumerate_selection_optimum(weights, costs, budget):
    """Brute-force optimum of the selection problem.

    weights: per-group w_s. costs: list of (n_s, K) arrays d_sik. Returns
    (best objective, best subset as a sorted tuple of candidate indices),
    minimizing sum_s w_s sum_i min_{k in S} d_sik over all |S| <= budget.
    """
    n_cands = costs[0].shape[1]
    best_val = np.inf
    best_subset = None
    for size in range(1, budget + 1):
        for subset in combinations(range(n_cands), size):
            val = 0.0
            for w, block in zip(weights, costs):
                val += w * block[:, subset].min(axis=1).sum()
            if val < best_val - 1e-15 or (
                abs(val - best_val) <= 1e-15 and subset < best_subset
            ):
                best_val = val
                best_subset = subset
    return best_val, best_subset


def random_discrete_system(rng, horizon=3, max_states=5, dim=2):
    """A random fully discrete system with distinct support points and
    strictly positive kernel rows over the full next-stage support."""
    from kcompress.core import DiscreteKernel, DiscreteSystem

    supports = [rng.normal(scale=2.0, size=(1, dim))]
    for _ in range(horizon):
        n = int(rng.integers(2, max_states + 1))
        supports.append(rng.normal(scale=2.0, size=(n, dim)))
    kernels = []
    for t in range(horizon):
        rows = []
        for _ in range(len(supports[t])):
            w = rng.uniform(0.2, 1.0, size=len(supports[t + 1]))
            rows.append(DiscreteDistribution(supports[t + 1], w / w.sum()))
        kernels.append(DiscreteKernel.from_rows(supports[t], tuple(rows)))
    return DiscreteSystem(tuple(supports), tuple(kernels))


def ragged_system_dict(rng, sizes):
    """A system in the file schema whose rows sit on random subsets of the
    next support, some with zero-weight atoms."""
    supports = [[[0.0, 0.0]]] + [rng.normal(size=(n, 2)).tolist() for n in sizes]
    kernels = []
    for t in range(len(sizes)):
        rows = []
        for _ in supports[t]:
            idx = rng.choice(sizes[t], size=int(rng.integers(1, sizes[t] + 1)),
                             replace=False)
            w = rng.uniform(0.0, 1.0, size=len(idx))
            w[0] = 0.0 if len(idx) > 1 else 1.0
            rows.append({"support": [supports[t + 1][i] for i in idx],
                         "weights": (w / w.sum()).tolist()})
        kernels.append({"sources": supports[t], "rows": rows})
    marginals = [
        {"support": s, "weights": [1.0 / len(s)] * len(s)} for s in supports
    ]
    return {"supports": supports, "kernels": kernels,
            "marginals": marginals, "deltas": [0.0] * len(sizes)}


def path_expectation(system, costs):
    """E[sum_t c_t(X_t)] by exhaustive path enumeration from the single
    initial state, as a ground truth for the backward recursion; costs are
    functions of an (n, d) array of points."""
    lookup = [
        {tuple(point): i for i, point in enumerate(support)}
        for support in system.supports
    ]
    total = 0.0
    stack = [(0, 0, 1.0, float(costs[0](system.supports[0][:1])[0]))]
    while stack:
        t, idx, prob, acc = stack.pop()
        if t == system.horizon:
            total += prob * acc
            continue
        row = system.kernels[t].rows[idx]
        for point, w in zip(row.support, row.weights):
            stack.append(
                (
                    t + 1,
                    lookup[t + 1][tuple(point)],
                    prob * float(w),
                    acc + float(costs[t + 1](point[None])[0]),
                )
            )
    return total


def perturb_system(rng, system, scale=0.3):
    """Same supports and row atoms, randomly shifted row weights."""
    from kcompress.core import DiscreteKernel, DiscreteSystem

    kernels = []
    for kernel in system.kernels:
        rows = []
        for row in kernel.rows:
            w = np.asarray(row.weights) + rng.uniform(0.0, scale, size=len(row))
            rows.append(DiscreteDistribution(row.support, w / w.sum()))
        kernels.append(DiscreteKernel.from_rows(kernel.sources, tuple(rows)))
    return DiscreteSystem(system.supports, tuple(kernels))


def aggregate_one(sigma, mu, values):
    """sigma applied to the one distribution mu, values[j] the next-stage
    value at mu's atom j: sigma.aggregate on a one-row matrix."""
    values = np.asarray(values, dtype=np.float64)
    return float(sigma.aggregate(mu.weights[None, :], values)[0])


def value_at(system, values, t, point):
    """The value at `point` of stage t from evaluate_backward's value
    arrays: that of the point's last occurrence in support t."""
    point = np.asarray(point, dtype=np.float64).ravel()
    hits = np.flatnonzero(np.all(system.supports[t] == point, axis=1))
    assert len(hits), f"no point {point} in support {t}"
    return float(values[t][hits[-1]])


def discrete_lipschitz(points, values):
    """max |v_i - v_j| / |y_i - y_j| over distinct support pairs."""
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = float(np.linalg.norm(points[i] - points[j]))
            if d > 0:
                best = max(best, abs(values[i] - values[j]) / d)
    return best


def enumerate_lagrangian_min(weights, costs, budget, theta0, theta):
    """Minimum of the Lagrangian over the whole product set Gamma.

    Enumerates every gamma in {0,1}^K; given gamma, each beta_sik is free in
    {0,1} subject to beta <= gamma only (the relaxed set drops the assignment
    constraint), so the minimizing beta picks w_s*d_sik - theta_si when
    negative. theta is a list of per-group vectors aligned with costs.
    """
    n_cands = costs[0].shape[1]
    gain = np.zeros(n_cands)
    for w, block, th in zip(weights, costs, theta):
        gain += np.minimum(0.0, w * block - th[:, None]).sum(axis=0)
    const = sum(float(np.sum(th)) for th in theta) - budget * theta0
    best = np.inf
    for mask in range(2 ** n_cands):
        gamma = np.array([(mask >> k) & 1 for k in range(n_cands)], dtype=float)
        val = float(np.sum(gamma * (gain + theta0))) + const
        best = min(best, val)
    return best


def csv_module_bytes(header, rows) -> bytes:
    """header and rows as Python's csv.writer writes them, UTF-8 encoded."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue().encode()


def sobol_gray_code(dim, count):
    """The first count unscrambled Sobol points, point by point: point n is
    point n - 1 xor the direction integer of n's lowest set bit, with the
    direction integers built from the package's Joe-Kuo table one entry at
    a time. The per-point reference for generators.sobol_unit."""
    nbits = 32
    directions = np.zeros((dim, nbits), dtype=np.uint64)
    for d in range(dim):
        if d == 0:
            m = [1] * nbits
        else:
            s, a, m_init = _JOE_KUO[d - 1]
            m = list(m_init)
            for i in range(s, nbits):
                new = m[i - s] ^ (m[i - s] << s)
                for j in range(1, s):
                    if (a >> (s - 1 - j)) & 1:
                        new ^= m[i - j] << j
                m.append(new)
        for i in range(nbits):
            directions[d, i] = np.uint64(m[i]) << np.uint64(nbits - 1 - i)
    out = np.zeros((count, dim), dtype=np.uint64)
    state = np.zeros(dim, dtype=np.uint64)
    for n in range(1, count):
        c = (n & -n).bit_length() - 1
        state ^= directions[:, c]
        out[n] = state
    return out.astype(np.float64) / float(2**nbits)
