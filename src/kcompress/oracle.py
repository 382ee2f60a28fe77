"""The particle-selection problem and its exhaustive ground-truth solver.

A SelectionInstance holds per-source particle clouds with group weights
w_s = lambda_s / n_s, a candidate set of K points, the per-group cost blocks
d_sik = d(x_si, zeta_k)^p, and a budget M on the number of selected
candidates. solve_exact enumerates candidate subsets outright and is guarded
to tiny sizes; it exists so the dual method has an independent optimum to be
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import CostMatrix, as_points, pairwise_cost
from .errors import (
    DimensionMismatchError,
    EmptyInstanceError,
    EnumerationGuardError,
    InfeasibleBudgetError,
    LengthMismatchError,
    NegativeWeightError,
    WeightsNotNormalizedError,
)

ENUMERATION_MAX_K = 20
ENUMERATION_MAX_M = 6


@dataclass(frozen=True)
class SelectionInstance:
    """Data of the budgeted representative-point selection problem.

    weights[s] is the per-particle weight w_s of group s (so the group's
    total mass is weights[s] * len(clouds[s]) and all masses sum to 1).
    costs[s] is the (n_s, K) block of p-powered distances.
    """

    weights: np.ndarray
    clouds: tuple
    candidates: np.ndarray
    costs: tuple
    order: float
    budget: int
    sources: np.ndarray | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        clouds = tuple(as_points(c) for c in self.clouds)
        candidates = as_points(self.candidates)
        if len(clouds) == 0:
            raise EmptyInstanceError("no particle groups")
        if weights.ndim != 1 or len(weights) != len(clouds):
            raise LengthMismatchError("one weight per group required")
        if np.any(weights <= 0):
            raise NegativeWeightError("group weights must be positive")
        sizes = np.array([len(c) for c in clouds])
        if np.any(sizes == 0):
            raise EmptyInstanceError("empty particle group")
        total = float(np.sum(weights * sizes))
        if abs(total - 1.0) > 1e-12:
            raise WeightsNotNormalizedError(
                f"sum of w_s * n_s is {total!r}, expected 1"
            )
        k = len(candidates)
        if not (1 <= self.budget <= k):
            raise InfeasibleBudgetError(
                f"budget {self.budget} outside [1, {k}]"
            )
        costs = tuple(self.costs)
        if len(costs) != len(clouds):
            raise LengthMismatchError("one cost block per group required")
        for block, cloud in zip(costs, clouds):
            if block.entries.shape != (len(cloud), k):
                raise DimensionMismatchError(
                    f"cost block {block.entries.shape} does not match "
                    f"({len(cloud)}, {k})"
                )
        object.__setattr__(self, "costs", costs)
        if self.sources is not None:
            sources = as_points(self.sources)
            if len(sources) != len(clouds):
                raise LengthMismatchError("one source point per group required")
            object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "clouds", clouds)
        object.__setattr__(self, "candidates", candidates)

    @classmethod
    def build(
        cls, groups, candidates, p: float, budget: int, sources=None
    ) -> "SelectionInstance":
        """Build from (weight, particles) pairs, computing the cost blocks."""
        weights = np.array([w for w, _ in groups], dtype=np.float64)
        clouds = tuple(as_points(pts) for _, pts in groups)
        cands = as_points(candidates)
        costs = tuple(pairwise_cost(c, cands, p) for c in clouds)
        return cls(weights, clouds, cands, costs, float(p), budget, sources)

    @property
    def n_groups(self) -> int:
        return len(self.clouds)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    @property
    def n_particles(self) -> int:
        return sum(len(c) for c in self.clouds)

    @property
    def dim_beta(self) -> int:
        return self.n_particles * self.n_candidates

    @property
    def dim_gamma(self) -> int:
        return self.n_candidates

    def group_sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clouds])

    def cost_block(self, s: int, start: int, stop: int) -> np.ndarray:
        """The (n_s, stop-start) slice of d_sik."""
        return self.costs[s].entries[:, start:stop]

    def stacked_weighted_costs(self) -> np.ndarray:
        """All w_s * d_sik rows stacked into one read-only (N, K) array,
        built on the first call and shared by every later one."""
        stacked = self.__dict__.get("_stacked")
        if stacked is None:
            blocks = [
                self.cost_block(s, 0, self.n_candidates) * self.weights[s]
                for s in range(self.n_groups)
            ]
            stacked = np.vstack(blocks)
            stacked.flags.writeable = False
            object.__setattr__(self, "_stacked", stacked)
        return stacked


def solve_exact(instance: SelectionInstance):
    """Optimum of the selection problem by subset enumeration.

    Returns (gamma, objective, assignment): gamma is a 0/1 vector over
    candidates, assignment a tuple of per-group arrays of absolute candidate
    indices. Ties between optimal subsets break to the lexicographically
    smallest index tuple, so equal-cost candidates resolve to the lowest
    index.
    """
    k = instance.n_candidates
    m = instance.budget
    if k > ENUMERATION_MAX_K or m > ENUMERATION_MAX_M:
        raise EnumerationGuardError(
            f"K={k}, M={m} beyond the enumeration guard "
            f"(K<={ENUMERATION_MAX_K}, M<={ENUMERATION_MAX_M})"
        )
    wd = instance.stacked_weighted_costs()
    best_val = np.inf
    best_subset = None
    for size in range(1, m + 1):
        for subset in combinations(range(k), size):
            val = float(wd[:, subset].min(axis=1).sum())
            if val < best_val or (val == best_val and subset < best_subset):
                best_val = val
                best_subset = subset
    gamma = np.zeros(k, dtype=np.int8)
    gamma[list(best_subset)] = 1
    cols = np.array(best_subset)
    assignment = []
    for s in range(instance.n_groups):
        block = instance.cost_block(s, 0, k)[:, cols]
        assignment.append(cols[np.argmin(block, axis=1)])
    return gamma, best_val, tuple(assignment)
