"""Domain types for finitely supported measures, kernels, and cost matrices.

Points live in R^n and are stored as rows of float64 arrays. A
DiscreteDistribution pairs a support array with a normalized weight vector; a
DiscreteKernel attaches one conditional distribution to each source point; a
DiscreteSystem chains kernels over per-stage supports.
All containers are frozen and their arrays are marked read-only, so instances
can be shared freely across workers.

The ground metric is Euclidean; every optimization in this package consumes
p-th powers of distances, which is what pairwise_cost produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidOrderError,
    LengthMismatchError,
    NegativeWeightError,
    NonFiniteError,
    SourceMismatchError,
    WeightsNotNormalizedError,
)

WEIGHT_TOL = 1e-12


def as_points(points) -> np.ndarray:
    """Coerce a sequence of points into a read-only (n, dim) float64 array.

    The data is copied, so freezing never affects the caller's array.
    Raises NonFiniteError if any coordinate is NaN or infinite.
    """
    arr = np.array(points, dtype=np.float64, order="C")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"points must form a 2-D array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("point coordinates must be finite")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported probability measure sum_i w_i * delta_{x_i}.

    support has shape (n, dim); weights has shape (n,), is nonnegative, and
    sums to 1 within WEIGHT_TOL. Support points need not be distinct.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = as_points(self.support)
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise LengthMismatchError("weights must be a 1-D array")
        if len(support) != len(weights):
            raise LengthMismatchError(
                f"{len(support)} support points but {len(weights)} weights"
            )
        if not np.all(np.isfinite(weights)):
            raise NonFiniteError("weights must be finite")
        if np.any(weights < 0):
            raise NegativeWeightError("weights must be nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise WeightsNotNormalizedError(
                f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", _freeze(weights))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def atoms(self):
        """Iterate (point, weight) pairs."""
        return zip(self.support, self.weights)


@dataclass(frozen=True)
class DiscreteKernel:
    """A discrete stochastic kernel: one DiscreteDistribution row per source point."""

    sources: np.ndarray
    rows: tuple

    def __post_init__(self):
        sources = as_points(self.sources)
        rows = tuple(self.rows)
        if len(sources) != len(rows):
            raise LengthMismatchError(
                f"{len(sources)} sources but {len(rows)} rows"
            )
        for row in rows:
            if not isinstance(row, DiscreteDistribution):
                raise LengthMismatchError(
                    f"kernel rows must be DiscreteDistribution, got {type(row).__name__}"
                )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class DiscreteSystem:
    """A fully discrete Markov system: supports X_0..X_T and one kernel per
    transition, kernel t with one row per point of X_t.

    A compressed system also carries its marginals (T+1, marginal t on
    X_t) and its stage errors Delta_0..Delta_{T-1}; either may be empty.
    Supports are finite and read-only, and every count and source is
    checked here, so a system that exists is consistent.
    """

    supports: tuple
    kernels: tuple
    marginals: tuple = ()
    deltas: tuple = ()

    def __post_init__(self):
        supports = tuple(as_points(s) for s in self.supports)
        kernels = tuple(self.kernels)
        marginals = tuple(self.marginals)
        deltas = tuple(float(d) for d in self.deltas)
        if len(supports) != len(kernels) + 1:
            raise LengthMismatchError(
                f"{len(supports)} supports need {len(supports) - 1} kernels, "
                f"got {len(kernels)}"
            )
        for t, kernel in enumerate(kernels):
            if len(kernel) != len(supports[t]):
                raise LengthMismatchError(
                    f"kernel {t} has {len(kernel)} rows for "
                    f"{len(supports[t])} points of support {t}"
                )
            if not np.array_equal(kernel.sources, supports[t]):
                raise SourceMismatchError(
                    f"kernel {t} sources do not match support {t}"
                )
        if marginals and len(marginals) != len(supports):
            raise LengthMismatchError(
                f"{len(supports)} supports need {len(supports)} marginals, "
                f"got {len(marginals)}"
            )
        for t, marginal in enumerate(marginals):
            if not np.array_equal(marginal.support, supports[t]):
                raise SourceMismatchError(
                    f"marginal {t} does not live on support {t}"
                )
        if deltas and len(deltas) != len(kernels):
            raise LengthMismatchError(
                f"{len(kernels)} kernels need {len(kernels)} deltas, "
                f"got {len(deltas)}"
            )
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "deltas", deltas)

    @property
    def horizon(self) -> int:
        return len(self.kernels)


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs d(x_i, y_k)^p for two point sets."""

    entries: np.ndarray
    order: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2:
            raise DimensionMismatchError("cost entries must be 2-D")
        if not np.all(np.isfinite(entries)):
            raise NonFiniteError("cost entries must be finite")
        if np.any(entries < 0):
            raise NegativeWeightError("cost entries must be nonnegative")
        if self.order < 1:
            raise InvalidOrderError(f"order p must be >= 1, got {self.order}")
        object.__setattr__(self, "entries", _freeze(entries))
        object.__setattr__(self, "order", float(self.order))

    @property
    def shape(self):
        return self.entries.shape


def validate_distribution(support, weights) -> DiscreteDistribution:
    """Validate and build a DiscreteDistribution (constructors reject rather
    than silently renormalize)."""
    return DiscreteDistribution(support, weights)


def dirac(point) -> DiscreteDistribution:
    """The unit mass at a single point."""
    return DiscreteDistribution(as_points([np.asarray(point, dtype=float).ravel()]), [1.0])


def compose_marginal(lam: DiscreteDistribution, kernel: DiscreteKernel) -> DiscreteDistribution:
    """Push a marginal through a kernel: the mixture with mass
    sum_s lam_s * Q(y | z_s) at each atom y.

    lam.support must equal kernel.sources (same points, same order). Atoms
    that coincide exactly across rows are merged, in first-seen order; each
    merged mass is summed in row order, atom by atom.
    """
    if lam.support.shape != kernel.sources.shape or not np.array_equal(
        lam.support, kernel.sources
    ):
        raise SourceMismatchError("marginal support does not match kernel sources")
    points = np.concatenate([row.support for row in kernel.rows])
    masses = np.concatenate(
        [lam_w * row.weights for lam_w, row in zip(lam.weights, kernel.rows)]
    )
    # + 0.0 turns -0.0 into 0.0: the two are one atom, as they are one key
    _, first, label = np.unique(
        points + 0.0, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.argsort(order)
    # bincount adds in input order, so each sum matches a running total
    weights = np.bincount(rank[label.ravel()], masses, minlength=len(order))
    return DiscreteDistribution(points[first[order]], weights)


def pairwise_cost(a, b, order: float, block: int = 1024) -> CostMatrix:
    """Euclidean distances raised to the p-th power, entry (i, k) = |a_i - b_k|^p.

    Rows are processed in blocks to bound temporary memory for large inputs.
    """
    if order < 1:
        raise InvalidOrderError(f"order p must be >= 1, got {order}")
    pa = as_points(a)
    pb = as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise DimensionMismatchError(
            f"point dimensions differ: {pa.shape[1]} vs {pb.shape[1]}"
        )
    out = np.empty((len(pa), len(pb)), dtype=np.float64)
    for start in range(0, len(pa), block):
        stop = min(start + block, len(pa))
        diff = pa[start:stop, None, :] - pb[None, :, :]
        sq = np.einsum("ikd,ikd->ik", diff, diff)
        if order == 2:
            out[start:stop] = sq
        elif order == 1:
            out[start:stop] = np.sqrt(sq)
        else:
            out[start:stop] = np.sqrt(sq) ** order
    return CostMatrix(out, order)


# ---------------------------------------------------------------------------
# JSON schema helpers
# ---------------------------------------------------------------------------

def distribution_to_dict(dist: DiscreteDistribution) -> dict:
    return {
        "support": dist.support.tolist(),
        "weights": dist.weights.tolist(),
    }


def distribution_from_dict(data: dict) -> DiscreteDistribution:
    return DiscreteDistribution(data["support"], data["weights"])


def kernel_to_dict(kernel: DiscreteKernel) -> dict:
    return {
        "sources": kernel.sources.tolist(),
        "rows": [distribution_to_dict(row) for row in kernel.rows],
    }


def kernel_from_dict(data: dict) -> DiscreteKernel:
    rows = tuple(distribution_from_dict(row) for row in data["rows"])
    return DiscreteKernel(as_points(data["sources"]), rows)
