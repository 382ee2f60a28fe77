"""Backward value evaluation over discrete systems with risk mappings.

A value table v_t is computed from the terminal stage backward:
v_T = c_T and v_t(x) = c_t(x) + sigma(x, Q_t(x), v_{t+1}), where sigma is a
transition risk mapping aggregating next-stage values under the kernel row
at x. The module also provides the a-priori propagation bound
sum_tau L_tau * (prod_j K_j) * Delta_tau on the weighted value error
induced by replacing kernels with approximations at stage errors Delta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import DiscreteDistribution, DiscreteSystem
from .errors import (
    IndexRangeError,
    InvalidKappaError,
    LengthMismatchError,
    MissingValueError,
    ValidationError,
)


@dataclass(frozen=True)
class RiskMapping:
    """A transition risk mapping sigma(x, mu, v): aggregates the next-stage
    value map v under the next-state distribution mu at state x. Evaluators
    must be pure and monotone in v.

    aggregate(rows, weights, values, n) evaluates n kernel rows at once from
    flat atom arrays: atom i belongs to row rows[i] and carries weights[i]
    and the next-stage value values[i]. The mappings here do not depend on
    x, so it is not passed.
    """

    name: str
    aggregate: Callable

    def __call__(self, x, mu: DiscreteDistribution, v) -> float:
        values = np.array([v(y) for y in mu.support], dtype=np.float64)
        rows = np.zeros(len(mu), dtype=np.intp)
        return float(self.aggregate(rows, mu.weights, values, 1)[0])


def expectation_mapping() -> RiskMapping:
    """sigma(x, mu, v) = sum_y mu(y) v(y)."""

    def aggregate(rows, weights, values, n):
        return np.bincount(rows, weights * values, minlength=n)

    return RiskMapping("expectation", aggregate)


def semideviation_mapping(kappa: float) -> RiskMapping:
    """Mean plus kappa times the upper semideviation:
    sigma(x, mu, v) = E[v] + kappa * E[max(0, v - E[v])]."""
    if not 0.0 <= kappa <= 1.0:
        raise InvalidKappaError(f"kappa must lie in [0, 1], got {kappa}")

    def aggregate(rows, weights, values, n):
        mean = np.bincount(rows, weights * values, minlength=n)
        excess = np.maximum(0.0, values - mean[rows])
        return mean + kappa * np.bincount(rows, weights * excess, minlength=n)

    return RiskMapping(f"semideviation({kappa})", aggregate)


@dataclass
class ValueTable:
    """Per-stage maps from support point to value, keyed by exact coordinates."""

    dim: int
    stages: dict = field(default_factory=dict)

    def set_value(self, t: int, point, value: float):
        key = tuple(float(c) for c in np.asarray(point).ravel())
        self.stages.setdefault(int(t), {})[key] = float(value)

    def set_stage(self, t: int, points, values):
        """Set one value per point of stage t; a repeated point keeps its
        last value, as repeated set_value calls would."""
        points = np.asarray(points, dtype=np.float64)
        keys = map(tuple, points.reshape(len(points), -1).tolist())
        values = np.asarray(values, dtype=np.float64).tolist()
        self.stages.setdefault(int(t), {}).update(zip(keys, values))

    def value(self, t: int, point) -> float:
        key = tuple(float(c) for c in np.asarray(point).ravel())
        try:
            return self.stages[int(t)][key]
        except KeyError:
            raise MissingValueError(
                f"no value at stage {t} for point {key}"
            ) from None

    def stage_points(self, t: int):
        return sorted(self.stages.get(int(t), {}).keys())

    def to_csv(self, path):
        """Columns t, x0..x{dim-1}, value; floats written with full
        round-trip precision."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t"] + [f"x{i}" for i in range(self.dim)] + ["value"]
            )
            for t in sorted(self.stages):
                for key in sorted(self.stages[t]):
                    writer.writerow(
                        [t] + [repr(c) for c in key] + [repr(self.stages[t][key])]
                    )

    @classmethod
    def from_csv(cls, path) -> "ValueTable":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            dim = len(header) - 2
            table = cls(dim)
            for row in reader:
                table.set_value(
                    int(row[0]), [float(c) for c in row[1 : 1 + dim]], float(row[-1])
                )
        return table


def _flat_rows(kernel, index, t: int):
    """(row, column, weight) arrays over every atom of the kernel's rows,
    the columns indexing the stage-t support through `index` (point tuple
    to position). Consecutive rows on an equal support share one column
    array, so a kernel whose rows all share a support maps it once."""
    cols, weights = [], []
    support = mapped = None
    for row in kernel.rows:
        if support is None or not np.array_equal(row.support, support):
            try:
                mapped = np.array(
                    [index[key] for key in map(tuple, row.support.tolist())],
                    dtype=np.intp,
                )
            except KeyError as exc:
                raise MissingValueError(
                    f"no value at stage {t} for point {exc.args[0]}"
                ) from None
            support = row.support
        cols.append(mapped)
        weights.append(row.weights)
    rows = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    return rows, np.concatenate(cols), np.concatenate(weights)


def evaluate_backward(
    system: DiscreteSystem, costs, sigma: RiskMapping
) -> ValueTable:
    """Backward recursion v_T = c_T, v_t(x) = c_t(x) + sigma(x, Q_t(x), v_{t+1}).

    costs is a sequence of T+1 functions of a point. Each stage is one
    sigma.aggregate call over the flat atoms of its rows. Raises
    MissingValueError when a kernel row references a point absent from the
    next stage's support. A point repeated within a support takes the value
    of its last occurrence.
    """
    supports = system.supports
    kernels = system.kernels
    horizon = system.horizon
    if len(costs) != horizon + 1:
        raise LengthMismatchError(
            f"need {horizon + 1} cost functions, got {len(costs)}"
        )
    table = ValueTable(supports[0].shape[1])
    points = supports[horizon]
    values = np.array([float(costs[horizon](x)) for x in points])
    table.set_stage(horizon, points, values)
    for t in range(horizon - 1, -1, -1):
        # a repeated point maps to its last index, whose value the table kept
        index = {key: i for i, key in enumerate(map(tuple, points.tolist()))}
        points = supports[t]
        rows, cols, weights = _flat_rows(kernels[t], index, t + 1)
        step = np.array([float(costs[t](x)) for x in points])
        values = step + sigma.aggregate(rows, weights, values[cols], len(points))
        table.set_stage(t, points, values)
    return table


def error_bound(lipschitz, kernel_consts, deltas, t: int) -> float:
    """sum_{tau=t}^{T-1} L_tau * (prod_{j=t}^{tau-1} K_j) * Delta_tau.

    lipschitz and deltas index stages 0..T-1, kernel_consts 0..T-2; the
    empty product at tau = t is 1.
    """
    L = np.asarray(lipschitz, dtype=np.float64)
    Kc = np.asarray(kernel_consts, dtype=np.float64)
    D = np.asarray(deltas, dtype=np.float64)
    horizon = len(L)
    if len(D) != horizon or len(Kc) != max(horizon - 1, 0):
        raise IndexRangeError(
            f"need {horizon} deltas and {max(horizon - 1, 0)} kernel "
            f"constants for {horizon} Lipschitz constants"
        )
    if not 0 <= t <= horizon - 1:
        raise IndexRangeError(f"stage {t} outside [0, {horizon - 1}]")
    if min(L.min(), D.min(), Kc.min() if len(Kc) else 0.0) < 0:
        raise ValidationError("bound constants must be nonnegative")
    total = 0.0
    for tau in range(t, horizon):
        total += float(L[tau]) * float(np.prod(Kc[t:tau])) * float(D[tau])
    return total
