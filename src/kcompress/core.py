"""Domain types for finitely supported measures, kernels, and cost matrices.

Points live in R^n and are stored as rows of float64 arrays. A
DiscreteDistribution pairs a support array with a normalized weight vector; a
DiscreteKernel is a row-stochastic matrix over one support, a row per source
point; a DiscreteSystem chains kernels over per-stage supports.
All containers are frozen and their arrays are marked read-only, so instances
can be shared freely across workers.

The ground metric is Euclidean; every optimization in this package consumes
p-th powers of distances, which is what pairwise_cost produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError

WEIGHT_TOL = 1e-12
CSV_BLOCK_ROWS = 128


def as_points(points) -> np.ndarray:
    """Coerce a sequence of points into a read-only (n, dim) float64 array.

    The data is copied, so freezing never affects the caller's array.
    Raises ValidationError if any coordinate is NaN or infinite.
    """
    arr = np.array(points, dtype=np.float64, order="C")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 1)
    if arr.ndim != 2:
        raise ValidationError(
            f"points must form a 2-D array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("point coordinates must be finite")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def _check_weights(weights: np.ndarray):
    """Finite, nonnegative, and each vector along the last axis summing to 1
    within WEIGHT_TOL."""
    if not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite")
    if np.any(weights < 0):
        raise ValidationError("weights must be nonnegative")
    totals = np.sum(weights, axis=-1).ravel()
    off = totals[np.abs(totals - 1.0) > WEIGHT_TOL]
    if len(off):
        raise ValidationError(
            f"weights sum to {float(off[0])!r}, expected 1 within {WEIGHT_TOL}"
        )


def merge_atoms(points: np.ndarray):
    """Distinct points in first-seen order, and the index of each input
    point among them. Exactly equal points are one atom, 0.0 and -0.0
    alike; an atom keeps the coordinates of its first occurrence."""
    _, first, label = np.unique(
        points + 0.0, axis=0, return_index=True, return_inverse=True
    )
    rank = np.argsort(np.argsort(first))
    return points[np.sort(first)], rank[label.ravel()]


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
            raise ValidationError("weights must be a 1-D array")
        if len(support) != len(weights):
            raise ValidationError(
                f"{len(support)} support points but {len(weights)} weights"
            )
        _check_weights(weights)
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
    """A discrete stochastic kernel: row s of the (n, m) row-stochastic
    matrix is the next-state distribution from source s over the m points
    of one common support (from_rows takes rows on distinct supports)."""

    sources: np.ndarray
    support: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        sources = as_points(self.sources)
        support = as_points(self.support)
        matrix = _freeze(self.matrix)
        shape = (len(sources), len(support))
        if matrix.shape != shape:
            raise ValidationError(f"matrix {matrix.shape}, needs {shape}")
        _check_weights(matrix)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_rows(cls, sources, rows) -> "DiscreteKernel":
        """Kernel from one row (support and weights, as in a distribution)
        per source on any supports, put on their union (merge_atoms) once per
        run of rows on an equal support; a repeated atom sums its weights."""
        blocks = []  # (support points, weights of each row on it)
        last = None
        for row in rows:
            if row.support is not last:
                last, points = row.support, as_points(row.support)
                if not blocks or not np.array_equal(points, blocks[-1][0]):
                    blocks.append((points, []))
            blocks[-1][1].append(row.weights)
        if not blocks:
            raise ValidationError("a kernel needs at least one row")
        support, columns = merge_atoms(np.concatenate([b[0] for b in blocks]))
        m, n, cells, masses = len(support), 0, [], []
        for points, ws in blocks:
            if any(np.shape(w) != (len(points),) for w in ws):
                raise ValidationError("a row needs one weight per point")
            cols, columns = columns[: len(points)], columns[len(points) :]
            cells.append(np.arange(n, n + len(ws))[:, None] * m + cols)
            masses.append(ws)
            n += len(ws)
        # bincount adds in input order: a repeated atom sums as a running total
        matrix = np.bincount(
            np.concatenate(cells, axis=None),
            np.concatenate(masses, axis=None),
            minlength=n * m,
        )
        return cls(sources, support, matrix.reshape(n, m))

    @property
    def rows(self) -> tuple:
        """Each row as a DiscreteDistribution on the common support."""
        return tuple(DiscreteDistribution(self.support, w) for w in self.matrix)

    def __len__(self) -> int:
        return len(self.matrix)


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
            raise ValidationError(
                f"{len(supports)} supports need {len(supports) - 1} kernels, "
                f"got {len(kernels)}"
            )
        for t, kernel in enumerate(kernels):
            if len(kernel) != len(supports[t]):
                raise ValidationError(
                    f"kernel {t} has {len(kernel)} rows for "
                    f"{len(supports[t])} points of support {t}"
                )
            if not np.array_equal(kernel.sources, supports[t]):
                raise ValidationError(
                    f"kernel {t} sources do not match support {t}"
                )
        if marginals and len(marginals) != len(supports):
            raise ValidationError(
                f"{len(supports)} supports need {len(supports)} marginals, "
                f"got {len(marginals)}"
            )
        for t, marginal in enumerate(marginals):
            if not np.array_equal(marginal.support, supports[t]):
                raise ValidationError(
                    f"marginal {t} does not live on support {t}"
                )
        if deltas and len(deltas) != len(kernels):
            raise ValidationError(
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
            raise ValidationError("cost entries must be 2-D")
        if not np.all(np.isfinite(entries)):
            raise ValidationError("cost entries must be finite")
        if np.any(entries < 0):
            raise ValidationError("cost entries must be nonnegative")
        if self.order < 1:
            raise ValidationError(f"order p must be >= 1, got {self.order}")
        object.__setattr__(self, "entries", _freeze(entries))
        object.__setattr__(self, "order", float(self.order))

    @property
    def shape(self):
        return self.entries.shape


def dirac(point) -> DiscreteDistribution:
    """The unit mass at a single point."""
    return DiscreteDistribution(as_points([np.asarray(point, dtype=float).ravel()]), [1.0])


def compose_marginal(lam: DiscreteDistribution, kernel: DiscreteKernel) -> DiscreteDistribution:
    """Push a marginal through a kernel: the mixture lam @ P on the
    kernel's support.

    lam.support must equal kernel.sources (same points, same order). The
    mass at each atom is the sum of lam_s * P[s] in row order.
    """
    if lam.support.shape != kernel.sources.shape or not np.array_equal(
        lam.support, kernel.sources
    ):
        raise ValidationError("marginal support does not match kernel sources")
    # a reduction over the first axis adds the rows one after another
    weights = (lam.weights[:, None] * kernel.matrix).sum(axis=0)
    return DiscreteDistribution(kernel.support, weights)


def distance_power(a, b, order: float) -> np.ndarray:
    """|a - b|^order over the last axis, a broadcast against b: the
    Euclidean length of each difference raised to the p-th power. The
    squares are added coordinate by coordinate through one reused
    difference buffer, so no (..., dim) difference array is formed; this is
    the package's one distance kernel."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    sq = np.zeros(shape)
    diff = np.empty(shape)
    for j in range(a.shape[-1]):
        np.subtract(a[..., j], b[..., j], out=diff)
        diff *= diff
        sq += diff
    if order != 2:
        np.sqrt(sq, out=sq)
        if order != 1:
            sq **= order
    return sq


def pairwise_cost(a, b, order: float) -> CostMatrix:
    """Euclidean distances raised to the p-th power, entry (i, k) = |a_i - b_k|^p,
    by distance_power over every pair, so a cost matrix entry has the bits
    of distance_power on that one pair. Its two (n, m) arrays take no more
    memory than the result and the frozen copy CostMatrix makes of it."""
    if order < 1:
        raise ValidationError(f"order p must be >= 1, got {order}")
    pa = as_points(a)
    pb = as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValidationError(
            f"point dimensions differ: {pa.shape[1]} vs {pb.shape[1]}"
        )
    return CostMatrix(distance_power(pa[:, None], pb[None], order), order)


# ---------------------------------------------------------------------------
# artifact formats: JSON schema helpers and the CSV writer
# ---------------------------------------------------------------------------

def distribution_to_dict(dist: DiscreteDistribution) -> dict:
    return {
        "support": dist.support.tolist(),
        "weights": dist.weights.tolist(),
    }


def distribution_from_dict(data: dict) -> DiscreteDistribution:
    return DiscreteDistribution(data["support"], data["weights"])


def kernel_to_dict(kernel: DiscreteKernel) -> dict:
    """The file schema: every row is written on the common support."""
    support = kernel.support.tolist()
    rows = [{"support": support, "weights": w} for w in kernel.matrix.tolist()]
    return {"sources": kernel.sources.tolist(), "rows": rows}


def kernel_from_dict(data: dict) -> DiscreteKernel:
    rows = (SimpleNamespace(support=r["support"], weights=r["weights"])
            for r in data["rows"])
    return DiscreteKernel.from_rows(data["sources"], rows)


def write_csv(path, header, rows):
    """Write header and rows, tuples of ints, floats and strings as long as
    the header, with csv.writer's bytes in UTF-8, CSV_BLOCK_ROWS rows at a
    time. A row of another length raises TypeError, and a field that csv
    would quote (holding ',', '"', '\r' or '\n', or the empty only field
    of a row) ValueError."""
    width = len(header)
    line = ",".join(["%s"] * width) + "\r\n"
    rows = chain([tuple(header)], rows)
    with open(path, "wb") as fh:
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            data = "".join(map(line.__mod__, block)).encode()
            # each line holds width - 1 commas, a "\r" and a "\n" of its own
            special = len(data) - len(data.translate(None, b',"\r\n'))
            if special != len(block) * (width + 1) or (
                    width == 1 and b"\n\r\n" in b"\n" + data):
                raise ValueError(f"{path}: a field needs CSV quoting")
            fh.write(data)
