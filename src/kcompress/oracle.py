"""The particle-selection problem and its exhaustive ground-truth solver.

A SelectionInstance holds per-source particle clouds with group weights
w_s = lambda_s / n_s, a candidate set of K points, the order p, and a budget
M on the number of selected candidates. From these it builds, once, the one
matrix every solver reads: the weighted costs w_s * d(x_si, zeta_k)^p of all
particles stacked in group order. solve_exact enumerates candidate subsets
outright and is guarded to tiny sizes; it exists so the dual method has an
independent optimum to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import as_points, pairwise_cost
from .errors import (
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
    The read-only (N, K) weighted cost matrix, row (s, i) holding
    w_s * d(x_si, zeta_k)^p, follows from the points and order and is
    built when the instance is.
    """

    weights: np.ndarray
    clouds: tuple
    candidates: np.ndarray
    order: float
    budget: int
    sources: np.ndarray | None = None
    _wd: np.ndarray = field(init=False, repr=False, compare=False)

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
        if self.sources is not None:
            sources = as_points(self.sources)
            if len(sources) != len(clouds):
                raise LengthMismatchError("one source point per group required")
            object.__setattr__(self, "sources", sources)
        order = float(self.order)
        wd = np.vstack([
            pairwise_cost(cloud, candidates, order).entries * w
            for w, cloud in zip(weights, clouds)
        ])
        wd.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "clouds", clouds)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_wd", wd)

    @classmethod
    def build(
        cls, groups, candidates, p: float, budget: int, sources=None
    ) -> "SelectionInstance":
        """Build from (weight, particles) pairs."""
        return cls([w for w, _ in groups], [pts for _, pts in groups],
                   candidates, p, budget, sources)

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

    def stacked_weighted_costs(self) -> np.ndarray:
        """The read-only (N, K) matrix of w_s * d_sik, rows in group order;
        every call returns the same array."""
        return self._wd

    def objective(self, gamma) -> float:
        """Selection objective of the 0/1 vector gamma: each particle's
        cheapest weighted cost over the selected candidates, summed."""
        return float(self._wd[:, np.flatnonzero(gamma)].min(axis=1).sum())

    def nearest(self, gamma) -> tuple:
        """Per group, each particle's cheapest selected candidate (absolute
        index) by the weighted costs objective reads; ties go to the lowest
        index."""
        sel = np.flatnonzero(gamma)
        cols = sel[np.argmin(self._wd[:, sel], axis=1)]
        return tuple(np.split(cols, np.cumsum(self.group_sizes())[:-1]))


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
    best_val = np.inf
    best_subset = None
    for size in range(1, m + 1):
        for subset in combinations(range(k), size):
            gamma = np.bincount(subset, minlength=k).astype(np.int8)
            val = instance.objective(gamma)
            if val < best_val or (val == best_val and subset < best_subset):
                best_val = val
                best_subset, best_gamma = subset, gamma
    return best_gamma, best_val, instance.nearest(best_gamma)
