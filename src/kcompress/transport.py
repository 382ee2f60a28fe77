"""Exact optimal transport between finitely supported measures.

wasserstein_exact solves the discrete transportation problem by primal
network-simplex pivoting on the bipartite flow formulation: northwest-corner
start, potentials from the spanning-tree basis, most-negative entering rule,
and a Bland fallback that kicks in after a run of degenerate pivots so the
method cannot cycle. No LP library is involved; this is meant as a trusted
oracle at moderate sizes, not a large-scale engine.

assignment_distance covers the fixed-support case (each particle moves to its
nearest selected point), and integrated_distance aggregates row-wise
Wasserstein distances of two kernels under a marginal.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscreteDistribution,
    DiscreteKernel,
    as_points,
    pairwise_cost,
)
from .errors import KCompressError, ValidationError

DEFAULT_SIZE_CAP = 2000 * 2000

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
    """Initial basic feasible solution with exactly m+n-1 basic cells."""
    m, n = len(supply), len(demand)
    s = supply.copy()
    d = demand.copy()
    basis = []
    flow = {}
    i = j = 0
    while True:
        q = min(s[i], d[j])
        basis.append((i, j))
        flow[(i, j)] = max(q, 0.0)
        s[i] -= q
        d[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if (s[i] <= d[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1
    return basis, flow


def _potentials(m, n, cost, row_adj, col_adj):
    """Dual potentials (u, v) from the basis tree: c_ij = u_i + v_j on basics."""
    u = np.zeros(m)
    v = np.zeros(n)
    seen_u = np.zeros(m, dtype=bool)
    seen_v = np.zeros(n, dtype=bool)
    seen_u[0] = True
    queue = deque([("r", 0)])
    while queue:
        kind, idx = queue.popleft()
        if kind == "r":
            for j in row_adj[idx]:
                if not seen_v[j]:
                    v[j] = cost[idx, j] - u[idx]
                    seen_v[j] = True
                    queue.append(("c", j))
        else:
            for i in col_adj[idx]:
                if not seen_u[i]:
                    u[i] = cost[i, idx] - v[idx]
                    seen_u[i] = True
                    queue.append(("r", i))
    return u, v


def _tree_path(i0, j0, row_adj, col_adj):
    """Path of basic cells from row node i0 to column node j0 in the basis tree."""
    # parents: node -> (parent node, connecting cell); rows keyed ('r', i).
    parent = {("r", i0): None}
    queue = deque([("r", i0)])
    target = ("c", j0)
    while queue:
        node = queue.popleft()
        if node == target:
            break
        kind, idx = node
        if kind == "r":
            for j in row_adj[idx]:
                nxt = ("c", j)
                if nxt not in parent:
                    parent[nxt] = (node, (idx, j))
                    queue.append(nxt)
        else:
            for i in col_adj[idx]:
                nxt = ("r", i)
                if nxt not in parent:
                    parent[nxt] = (node, (i, idx))
                    queue.append(nxt)
    path = []
    node = target
    while parent[node] is not None:
        prev, cell = parent[node]
        path.append(cell)
        node = prev
    path.reverse()
    return path


def _solve_transportation(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Optimal flow matrix for the balanced transportation problem."""
    m, n = cost.shape
    if m == 0 or n == 0:
        return np.zeros((m, n))
    basis, flow = _northwest_corner(supply, demand)
    row_adj = [set() for _ in range(m)]
    col_adj = [set() for _ in range(n)]
    for (i, j) in basis:
        row_adj[i].add(j)
        col_adj[j].add(i)

    tol = 1e-10 * max(1.0, float(np.max(cost)))
    bland = False
    degenerate_run = 0
    max_pivots = 1000 + 8 * (m + n) * max(m, n)
    for _ in range(max_pivots):
        u, v = _potentials(m, n, cost, row_adj, col_adj)
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
        path = _tree_path(ie, je, row_adj, col_adj)
        minus = path[0::2]
        plus = path[1::2]
        theta = min(flow[c] for c in minus)
        leave = min(
            (c for c in minus if flow[c] <= theta),
            key=lambda c: (c[0], c[1]) if bland else minus.index(c),
        )
        for c in minus:
            flow[c] -= theta
        for c in plus:
            flow[c] += theta
        flow[(ie, je)] = theta
        del flow[leave]
        row_adj[ie].add(je)
        col_adj[je].add(ie)
        row_adj[leave[0]].discard(leave[1])
        col_adj[leave[1]].discard(leave[0])
        if theta <= tol:
            degenerate_run += 1
            if degenerate_run > _DEGENERATE_RUN_LIMIT:
                bland = True
        else:
            degenerate_run = 0
    else:
        raise RuntimeError("transportation pivoting did not terminate")

    out = np.zeros((m, n))
    for (i, j), q in flow.items():
        out[i, j] = q
    return out


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
    size_cap: int = DEFAULT_SIZE_CAP,
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
        distance, plan = wasserstein_exact(nu, mu, p, size_cap=size_cap)
        return distance, TransportPlan(plan.plan.T, plan.value)
    keep_mu = np.flatnonzero(mu.weights > 0)
    keep_nu = np.flatnonzero(nu.weights > 0)
    if len(keep_mu) * len(keep_nu) > size_cap:
        raise KCompressError(
            f"{len(keep_mu)}x{len(keep_nu)} exceeds cap {size_cap}"
        )
    cost = pairwise_cost(mu.support[keep_mu], nu.support[keep_nu], p).entries
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
    cost = pairwise_cost(pts, sel, p).entries
    assignment = np.argmin(cost, axis=1)
    value = float(np.sum(w * cost[np.arange(len(pts)), assignment]))
    return value, assignment


def integrated_distance(
    lam: DiscreteDistribution,
    Q: DiscreteKernel,
    Qtilde: DiscreteKernel,
    p: float,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> float:
    """Integrated transportation distance of order p between two kernels
    sharing sources, weighted by the marginal lam:
    (sum_s lam_s * W_p(Q_s, Qtilde_s)**p)**(1/p).
    """
    for sources in (Q.sources, Qtilde.sources):
        if lam.support.shape != sources.shape or not np.array_equal(
            lam.support, sources
        ):
            raise ValidationError("marginal support does not match kernel sources")
    total = 0.0
    for lam_w, row, row_t in zip(lam.weights, Q.rows, Qtilde.rows):
        if lam_w == 0.0:
            continue
        dist, _ = wasserstein_exact(row, row_t, p, size_cap=size_cap)
        total += float(lam_w) * dist**p
    return total ** (1.0 / p) if total > 0 else 0.0
