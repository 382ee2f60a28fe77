"""Exact optimal transport between finitely supported measures.

wasserstein_exact solves the discrete transportation problem by primal
network-simplex pivoting on the bipartite flow formulation: northwest-corner
start, one basis-tree pass per pivot for the potentials and the pivot cycle,
most-negative entering rule, and a Bland fallback after a run of degenerate
pivots so the method cannot cycle. No LP library is involved; this is meant
as a trusted oracle at moderate sizes, not a large-scale engine.

assignment_distance covers the fixed-support case (each particle moves to its
nearest selected point), and integrated_distance aggregates row-wise
Wasserstein distances of two kernels under a marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscreteDistribution,
    DiscreteKernel,
    as_points,
    pairwise_cost,
)
from .errors import KCompressError, ValidationError

SIZE_CAP = 2000 * 2000

# Consecutive zero-gain pivots tolerated before switching the entering rule
# to Bland's (smallest-index) rule, which cannot cycle.
_DEGENERATE_RUN_LIMIT = 64


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling. value is the p-th power of W_p (cost units)."""

    plan: np.ndarray
    value: float

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=np.float64)
        if not np.all(np.isfinite(plan)):
            raise ValidationError("transport plan must be finite")
        if np.any(plan < -1e-12):
            raise ValidationError("transport plan must be nonnegative")
        plan = np.maximum(plan, 0.0)
        plan.flags.writeable = False
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "value", float(self.value))


def _northwest_corner(supply: np.ndarray, demand: np.ndarray):
    """Initial basic feasible solution with exactly m+n-1 basic cells: the
    (m, n) flow and the basis tree's adjacency, one set per node (rows are
    nodes 0..m-1, columns m..m+n-1)."""
    m, n = len(supply), len(demand)
    s = supply.copy()
    d = demand.copy()
    flow = np.zeros((m, n))
    adj = [set() for _ in range(m + n)]
    i = j = 0
    while True:
        q = min(s[i], d[j])
        flow[i, j] = max(q, 0.0)
        adj[i].add(m + j)
        adj[m + j].add(i)
        s[i] -= q
        d[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if (s[i] <= d[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1
    return flow, adj


def _tree(cost: list, adj):
    """One pass over the basis tree from row 0; cost is nested lists.

    Returns the potentials (u, v), with c_ij = u_i + v_j on basic cells, and
    each node's parent and depth. Each potential follows from its parent's,
    so the order of the pass does not change a bit.
    """
    m, n = len(cost), len(cost[0])
    u = [0.0] * m
    v = [0.0] * n
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b == parent[a]:
                continue
            parent[b] = a
            depth[b] = depth[a] + 1
            if b < m:
                u[b] = cost[b][a - m] - v[a - m]
            else:
                v[b - m] = cost[a][b - m] - u[a]
            stack.append(b)
    return np.array(u), np.array(v), parent, depth


def _tree_path(ie, je, parent, depth, m):
    """Basic cells on the tree path from row ie to column je, in order."""
    ends = ([ie], [m + je])
    while ends[0][-1] != ends[1][-1]:
        side = ends[depth[ends[0][-1]] < depth[ends[1][-1]]]
        side.append(parent[side[-1]])
    nodes = ends[0] + ends[1][-2::-1]
    return [(min(a, b), max(a, b) - m) for a, b in zip(nodes, nodes[1:])]


def _solve_transportation(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Optimal flow matrix for the balanced transportation problem."""
    m, n = cost.shape
    if m == 0 or n == 0:
        return np.zeros((m, n))
    flow, adj = _northwest_corner(supply, demand)

    tol = 1e-10 * max(1.0, float(np.max(cost)))
    bland = False
    degenerate_run = 0
    max_pivots = 1000 + 8 * (m + n) * max(m, n)
    cost_rows = cost.tolist()
    for _ in range(max_pivots):
        u, v, parent, depth = _tree(cost_rows, adj)
        reduced = cost - u[:, None] - v[None, :]
        if bland:
            neg = np.argwhere(reduced < -tol)
            if len(neg) == 0:
                break
            ie, je = map(int, neg[0])
        else:
            flat = int(np.argmin(reduced))
            ie, je = divmod(flat, n)
            if reduced[ie, je] >= -tol:
                break
        # The entering cell closes one cycle with the basis tree. Cells at
        # even positions along the tree path lose flow, odd positions gain.
        path = _tree_path(ie, je, parent, depth, m)
        minus = path[0::2]
        theta = min(flow[c] for c in minus)
        tied = [c for c in minus if flow[c] <= theta]
        li, lj = min(tied) if bland else tied[0]
        for c in minus:
            flow[c] -= theta
        for c in path[1::2]:
            flow[c] += theta
        flow[ie, je] = theta
        adj[ie].add(m + je)
        adj[m + je].add(ie)
        adj[li].discard(m + lj)
        adj[m + lj].discard(li)
        if theta <= tol:
            degenerate_run += 1
            if degenerate_run > _DEGENERATE_RUN_LIMIT:
                bland = True
        else:
            degenerate_run = 0
    else:
        raise RuntimeError("transportation pivoting did not terminate")
    return flow


def _orientation_key(dist: DiscreteDistribution) -> bytes:
    return (
        len(dist).to_bytes(8, "little")
        + dist.support.tobytes()
        + dist.weights.tobytes()
    )


def wasserstein_exact(
    mu: DiscreteDistribution,
    nu: DiscreteDistribution,
    p: float,
):
    """Order-p Wasserstein distance and an optimal plan between mu and nu.

    Returns (distance, TransportPlan); plan.value is the transportation
    optimum, i.e. distance**p. Zero-weight atoms are dropped before pivoting
    and the plan is re-expanded to the original indexing.

    The two arguments are put in a canonical order before pivoting so that
    swapping them yields the bitwise-identical distance (the pivot sequence,
    hence rounding, would otherwise depend on the orientation).
    """
    if _orientation_key(nu) < _orientation_key(mu):
        distance, plan = wasserstein_exact(nu, mu, p)
        return distance, TransportPlan(plan.plan.T, plan.value)
    keep_mu = np.flatnonzero(mu.weights > 0)
    keep_nu = np.flatnonzero(nu.weights > 0)
    if len(keep_mu) * len(keep_nu) > SIZE_CAP:
        raise KCompressError(
            f"{len(keep_mu)}x{len(keep_nu)} exceeds cap {SIZE_CAP}"
        )
    cost = pairwise_cost(mu.support[keep_mu], nu.support[keep_nu], p)
    flow = _solve_transportation(cost, mu.weights[keep_mu], nu.weights[keep_nu])
    value = float(np.sum(cost * flow))
    plan = np.zeros((len(mu), len(nu)))
    plan[np.ix_(keep_mu, keep_nu)] = flow
    distance = value ** (1.0 / p) if value > 0 else 0.0
    return distance, TransportPlan(plan, value)


def assignment_distance(particles, weights, selected, p: float):
    """Weighted cost of sending each particle to its nearest selected point.

    Ties break to the lowest selected index. Returns (value, assignment)
    where value = sum_i weights_i * d(x_i, z_{assignment_i})**p.
    """
    sel = as_points(selected)
    if len(sel) == 0:
        raise ValidationError("selected set must be nonempty")
    pts = as_points(particles)
    w = np.asarray(weights, dtype=np.float64)
    cost = pairwise_cost(pts, sel, p)
    assignment = np.argmin(cost, axis=1)
    value = float(np.sum(w * cost[np.arange(len(pts)), assignment]))
    return value, assignment


def integrated_distance(
    lam: DiscreteDistribution,
    Q: DiscreteKernel,
    Qtilde: DiscreteKernel,
    p: float,
) -> float:
    """Integrated transportation distance of order p between two kernels
    sharing sources, weighted by the marginal lam:
    (sum_s lam_s * W_p(Q_s, Qtilde_s)**p)**(1/p).
    """
    for sources in (Q.sources, Qtilde.sources):
        if not np.array_equal(lam.support, sources):
            raise ValidationError("marginal support does not match kernel sources")
    total = 0.0
    for lam_w, row, row_t in zip(lam.weights, Q.rows, Qtilde.rows):
        if lam_w == 0.0:
            continue
        dist, _ = wasserstein_exact(row, row_t, p)
        total += float(lam_w) * dist**p
    return total ** (1.0 / p) if total > 0 else 0.0
