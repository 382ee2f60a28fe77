"""The particle-selection problem and its exhaustive ground-truth solver.

A SelectionInstance holds per-source particle clouds with group weights
w_s = lambda_s / n_s, a candidate set of K points, the order p, and a budget
M on the number of selected candidates. From these it builds, once, the
weighted costs w_s * d(x_si, zeta_k)^p, a block per group from
core.frozen_pairwise_cost and its checks on the points it froze once, which
solvers read only through its queries below, cheapest and nearest; every
per-particle array is flat in group order. It holds no source points.
solve_exact enumerates candidate subsets outright and is guarded to tiny
sizes; it exists so the dual method has an independent optimum to be
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from numbers import Integral

import numpy as np

from . import core
from .errors import KCompressError, ValidationError

ENUMERATION_MAX_K = 20
ENUMERATION_MAX_M = 6


def check_budget(budget, k: int):
    """Refuse a budget that is not an integer in [1, k]."""
    if isinstance(budget, bool) or not isinstance(budget, Integral):
        raise ValidationError(f"budget must be an integer, got {budget!r}")
    if not 1 <= budget <= k:
        raise ValidationError(f"budget {budget} outside [1, {k}]")


@dataclass(frozen=True)
class SelectionInstance:
    """Data of the budgeted representative-point selection problem.

    weights[s] is the per-particle weight w_s of group s (so the group's
    total mass is weights[s] * len(clouds[s]) and all masses sum to 1), and
    sizes[s] is len(clouds[s]). The weighted costs w_s * d(x_si, zeta_k)^p
    of all pairs are built with the instance, candidate-major, (K, N), so
    the rows of a selection are contiguous; only its queries read them.
    """

    weights: np.ndarray
    clouds: tuple
    candidates: np.ndarray
    order: float
    budget: int
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _wdt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        clouds = tuple(core.as_points(c) for c in self.clouds)
        candidates = core.as_points(self.candidates)
        if len(clouds) == 0:
            raise ValidationError("no particle groups")
        if weights.ndim != 1 or len(weights) != len(clouds):
            raise ValidationError("one weight per group required")
        if np.any(weights <= 0):
            raise ValidationError("group weights must be positive")
        sizes = np.array([len(c) for c in clouds])
        if np.any(sizes == 0):
            raise ValidationError("empty particle group")
        total = float(np.sum(weights * sizes))
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(
                f"sum of w_s * n_s is {total!r}, expected 1"
            )
        check_budget(self.budget, len(candidates))
        order = float(self.order)
        wdt = np.empty((len(candidates), int(sizes.sum())))
        ends = np.cumsum(sizes)
        for w, cloud, end in zip(weights, clouds, ends):
            # w <= 1, so a finite cost stays finite
            np.multiply(core.frozen_pairwise_cost(candidates, cloud, order),
                        w, out=wdt[:, end - len(cloud):end])
        wdt.flags.writeable = sizes.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "clouds", clouds)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_wdt", wdt)

    @classmethod
    def build(
        cls, groups, candidates, p: float, budget: int
    ) -> "SelectionInstance":
        """Build from (weight, particles) pairs."""
        return cls([w for w, _ in groups], [pts for _, pts in groups],
                   candidates, p, budget)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    @property
    def n_particles(self) -> int:
        return self._wdt.shape[1]

    @property
    def dim_beta(self) -> int:
        return self.n_particles * self.n_candidates

    @property
    def dim_gamma(self) -> int:
        return self.n_candidates

    def candidate_indices(self, values) -> np.ndarray:
        """values as a nonempty 1-D intp array of candidate indices in
        [0, K), or ValidationError."""
        rows, k = np.asarray(values), self.n_candidates
        if (rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size == 0
                or rows.min() < 0 or rows.max() >= k):
            raise ValidationError("candidate indices must be a nonempty 1-D "
                                  f"integer array in [0, {k})")
        return rows.astype(np.intp, copy=False)

    def selected(self, gamma) -> np.ndarray:
        """The candidates a (K,) vector gamma selects (its nonzero entries),
        ascending; another shape, or no nonzero entry, is a ValidationError."""
        rows, shape = np.flatnonzero(gamma), (self.n_candidates,)
        if np.shape(gamma) != shape or rows.size == 0:
            raise ValidationError(f"gamma needs shape {shape} and a nonzero "
                                  f"entry, got {np.shape(gamma)}")
        return rows

    def below(self, cap):
        """The entries with w_s d_sik < cap_si, cap an (N,) array, as flat
        candidate, particle and cost arrays in candidate-major order
        (candidates ascending, each one's particles ascending)."""
        kept = np.flatnonzero(self._wdt < cap)
        cand, part = np.divmod(kept, self._wdt.shape[1])
        return cand, part, self._wdt.ravel()[kept]

    def cheapest(self, rows=None) -> np.ndarray:
        """Each particle's smallest weighted cost over the candidates of
        the index array rows (all of them when None)."""
        rows = slice(None) if rows is None else self.candidate_indices(rows)
        return self._wdt[rows].min(axis=0)

    def objective(self, gamma) -> float:
        """Selection objective of the 0/1 vector gamma: each particle's
        cheapest weighted cost over the selected candidates, summed."""
        return float(self.cheapest(self.selected(gamma)).sum())

    def nearest(self, gamma) -> np.ndarray:
        """Each particle's cheapest selected candidate (absolute index), by
        the weighted costs objective reads, as one (N,) array in particle
        order; ties go to the lowest index."""
        sel = self.selected(gamma)
        return sel[np.argmin(self._wdt[sel], axis=0)]


def solve_exact(instance: SelectionInstance):
    """Optimum of the selection problem by subset enumeration.

    Returns (gamma, objective, assignment): gamma is a 0/1 vector over
    candidates, assignment the (N,) array of each particle's absolute
    candidate index, as nearest gives it. Ties between optimal subsets break
    to the lexicographically smallest index tuple, so equal-cost candidates
    resolve to the lowest index.
    """
    k = instance.n_candidates
    m = instance.budget
    if k > ENUMERATION_MAX_K or m > ENUMERATION_MAX_M:
        raise KCompressError(
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
