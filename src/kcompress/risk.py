"""Backward value evaluation over discrete systems with risk mappings.

Values are one array per stage support: v_T = c_T and v_t = c_t +
sigma(P_t, v_{t+1}), with P_t kernel t's row-stochastic matrix, v_{t+1}
read at the kernel's support, and sigma a transition risk mapping that
aggregates it under each row. The module also provides the a-priori bound
sum_tau L_tau * (prod_j K_j) * Delta_tau on the weighted value error
induced by replacing kernels with approximations at stage errors Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .core import DiscreteSystem, distance_power, write_csv
from .errors import ValidationError


@dataclass(frozen=True)
class RiskMapping:
    """A transition risk mapping sigma(x, mu, v): aggregates the next-stage
    value map v under the next-state distribution mu at state x. Evaluators
    must be pure and monotone in v.

    aggregate(matrix, values) evaluates every row of an (n, m)
    row-stochastic matrix at once, values[j] the next-stage value at column
    j. The mappings here do not depend on x, so it is not passed.
    """

    name: str
    aggregate: Callable


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right as a running total, so the
    result does not depend on how a BLAS build orders a matrix product."""
    return np.cumsum(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class Cost:
    """c(x) = offset + coeff.x + weight * |x - center|^power, the norm term
    only with has_norm, at each row x of an (n, d) array (empty center: 0)."""

    offset: float
    coeff: np.ndarray
    center: np.ndarray
    weight: float
    power: float
    has_norm: bool

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        values = np.full(len(points), self.offset)
        if self.coeff.size:
            values += _row_sums(points * self.coeff)
        if self.has_norm:
            origin = np.zeros(points.shape[1])
            center = self.center if self.center.size else origin
            values += self.weight * distance_power(points, center, self.power)
        return values


def expectation_mapping() -> RiskMapping:
    """sigma(x, mu, v) = sum_y mu(y) v(y)."""
    return RiskMapping("expectation", lambda P, v: _row_sums(P * v))


def semideviation_mapping(kappa: float) -> RiskMapping:
    """Mean plus kappa times the upper semideviation:
    sigma(x, mu, v) = E[v] + kappa * E[max(0, v - E[v])]."""
    if not 0.0 <= kappa <= 1.0:
        raise ValidationError(f"kappa must lie in [0, 1], got {kappa}")

    def aggregate(matrix, values):
        mean = _row_sums(matrix * values)
        excess = np.maximum(0.0, values - mean[:, None])
        return mean + kappa * _row_sums(matrix * excess)

    return RiskMapping(f"semideviation({kappa})", aggregate)


def lookup(points, queries, t: int) -> np.ndarray:
    """Index of the last exact occurrence in points (stage t's support) of
    each query point, 0.0 and -0.0 alike. Raises ValidationError naming
    the first query that points lacks."""
    n = len(points)
    # the first occurrence in the reversed points is the last one
    keys = np.concatenate([points[::-1], queries]) + 0.0
    _, first, label = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    first = first[label.ravel()[n:]]
    if np.any(first >= n):
        point = tuple(keys[n + np.argmax(first >= n)].tolist())
        raise ValidationError(f"no value at stage {t} for point {point}")
    return n - 1 - first


def evaluate_backward(
    system: DiscreteSystem, costs, sigma: RiskMapping
) -> tuple:
    """Backward recursion v_T = c_T, v_t = c_t + sigma(P_t, v_{t+1}).

    costs holds T+1 functions of an (n, d) array of points. Returns one
    value array per stage, entry i the value at point i of its support.
    Each stage calls its cost once on its support, looks the kernel's
    support up in the next one (see lookup) and calls sigma.aggregate once.
    A cost that does not give one value per point, or a cost or value that
    is not finite, raises ValidationError naming the stage.
    """
    supports = system.supports
    horizon = system.horizon
    if len(costs) != horizon + 1:
        raise ValidationError(
            f"need {horizon + 1} cost functions, got {len(costs)}"
        )
    # an overflow is refused by _finite, naming its point, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        values = [None] * horizon + [
            _cost_values(costs[horizon], supports[horizon], horizon)]
        for t in range(horizon - 1, -1, -1):
            kernel = system.kernels[t]
            nxt = values[t + 1][lookup(supports[t + 1], kernel.support, t + 1)]
            total = (_cost_values(costs[t], supports[t], t)
                     + sigma.aggregate(kernel.matrix, nxt))
            values[t] = _finite("value", t, supports[t], total)
    return tuple(values)


def _cost_values(cost, points, t: int) -> np.ndarray:
    """cost on stage t's whole support points, one finite value per point,
    in an array of its own (a cost may return a view of points)."""
    values = np.array(cost(points), dtype=np.float64)
    if values.shape != (len(points),):
        raise ValidationError(f"cost at stage {t} gave shape {values.shape}"
                              f" for {len(points)} points")
    return _finite("cost", t, points, values)


def _finite(what: str, t: int, points, values) -> np.ndarray:
    """values, or a ValidationError naming stage t and the first point of
    points whose value is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"{what} at stage {t} for point"
                              f" {tuple(points[i].tolist())} is {values[i]}")
    return values


def write_values_csv(path, supports, values):
    """Columns t, x0..x{dim-1}, value: one row per distinct point of each
    stage, sorted by coordinates, with the coordinates of its first
    occurrence and the value of its last; floats in full precision."""
    def rows():
        for t, (points, vals) in enumerate(zip(supports, values)):
            _, first = np.unique(points + 0.0, axis=0, return_index=True)
            last = lookup(points, points[first], t)
            yield from zip(repeat(t), *points[first].T.tolist(),
                           vals[last].tolist())

    header = ["t"] + [f"x{i}" for i in range(supports[0].shape[1])]
    write_csv(path, header + ["value"], rows())


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
        raise ValidationError(
            f"need {horizon} deltas and {max(horizon - 1, 0)} kernel "
            f"constants for {horizon} Lipschitz constants"
        )
    if not 0 <= t <= horizon - 1:
        raise ValidationError(f"stage {t} outside [0, {horizon - 1}]")
    if min(L.min(), D.min(), Kc.min() if len(Kc) else 0.0) < 0:
        raise ValidationError("bound constants must be nonnegative")
    total = 0.0
    for tau in range(t, horizon):
        total += float(L[tau]) * float(np.prod(Kc[t:tau])) * float(D[tau])
    return total
