"""Correctness gates: independent numpy recomputations of kcompress outputs.

Nothing here imports kcompress. Each check returns a list of failure
messages (empty when the output passes), so one operation can report every
gate it broke and the self-test can feed deliberately corrupted outputs.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def selection_objective(points, point_weights, selected, p: float) -> float:
    """sum_i w_i * min_k |x_i - z_k|^p: every particle goes to its nearest
    selected candidate."""
    points = np.asarray(points, dtype=np.float64)
    selected = np.asarray(selected, dtype=np.float64)
    sq = ((points[:, None, :] - selected[None, :, :]) ** 2).sum(axis=2)
    nearest = np.sqrt(sq.min(axis=1)) ** p
    return float(np.dot(point_weights, nearest))


def check_selection(result: dict, recomputed: float, budget: int) -> list:
    """Gates on one selection: objective equal to the recomputation,
    sum(gamma) <= M, relative gap >= -1e-9, and composed_distance equal to
    distance while the result still carries it."""
    failures = []
    objective = float(result["objective"])
    if not _close(objective, recomputed):
        failures.append(
            f"objective {objective!r} != recomputed {recomputed!r}"
        )
    if int(result["sum_gamma"]) > budget:
        failures.append(f"sum_gamma {result['sum_gamma']} > budget {budget}")
    rel_gap = (objective - float(result["best_dual"])) / objective
    if rel_gap < -REL_TOL:
        failures.append(f"negative relative gap {rel_gap!r}")
    if "composed_distance" in result and not _close(
        float(result["composed_distance"]), float(result["distance"])
    ):
        failures.append(
            f"composed_distance {result['composed_distance']!r} != "
            f"distance {result['distance']!r}"
        )
    return failures


def _keys(points) -> list:
    return [tuple(float(c) for c in p) for p in points]


def check_chain(system: dict, budget: int) -> list:
    """Gates on a pipeline system file: every kernel row sums to 1, kernel t
    starts from support t, rows land on support t+1 and together cover it,
    marginal t lives on support t, and no stage keeps more than M atoms."""
    failures = []
    supports = system["supports"]
    for t, kernel in enumerate(system["kernels"]):
        if _keys(kernel["sources"]) != _keys(supports[t]):
            failures.append(f"kernel {t} sources differ from support {t}")
        nxt = set(_keys(supports[t + 1]))
        if len(nxt) > budget:
            failures.append(f"support {t + 1} has {len(nxt)} > {budget} atoms")
        reached = set()
        for i, row in enumerate(kernel["rows"]):
            total = float(np.sum(row["weights"]))
            if abs(total - 1.0) > REL_TOL:
                failures.append(f"kernel {t} row {i} sums to {total!r}")
            row_keys = set(_keys(row["support"]))
            if not row_keys <= nxt:
                failures.append(f"kernel {t} row {i} leaves support {t + 1}")
            reached |= row_keys
        if reached != nxt:
            failures.append(f"support {t + 1} is not the union of kernel {t} rows")
    for t, marginal in enumerate(system["marginals"]):
        if _keys(marginal["support"]) != _keys(supports[t]):
            failures.append(f"marginal {t} support differs from support {t}")
    return failures


def transition_matrices(system: dict) -> list:
    """Dense row-stochastic P_t from a system file, columns in the order of
    support t+1."""
    mats = []
    for t, kernel in enumerate(system["kernels"]):
        col = {k: j for j, k in enumerate(_keys(system["supports"][t + 1]))}
        P = np.zeros((len(kernel["rows"]), len(col)))
        for i, row in enumerate(kernel["rows"]):
            for key, w in zip(_keys(row["support"]), row["weights"]):
                P[i, col[key]] += w
        mats.append(P)
    return mats


def affine_norm_cost(points, spec: dict) -> np.ndarray:
    """c(x) = offset + coeff.x + weight * |x - center|^power per point, the
    JSON cost grammar written out independently."""
    points = np.asarray(points, dtype=np.float64)
    affine = spec.get("affine") or {}
    norm = spec.get("norm") or {}
    value = np.full(len(points), float(affine.get("offset", 0.0)))
    if affine.get("coeff"):
        value += points @ np.asarray(affine["coeff"], dtype=np.float64)
    if norm:
        center = np.asarray(norm.get("center") or np.zeros(points.shape[1]))
        dist = np.sqrt(((points - center) ** 2).sum(axis=1))
        value += float(norm.get("weight", 1.0)) * dist ** float(
            norm.get("power", 1.0)
        )
    return value


def backward_values(supports, matrices, cost_spec: dict, kappa: float) -> np.ndarray:
    """v_T = c_T, v_t = c_t + sigma(P_t v_{t+1}) with sigma the mean plus
    kappa times the upper semideviation (kappa = 0 is the expectation).
    Returns v_0 over support 0."""
    v = affine_norm_cost(supports[-1], cost_spec)
    for t in range(len(matrices) - 1, -1, -1):
        P = matrices[t]
        mean = P @ v
        semidev = (P * np.maximum(0.0, v[None, :] - mean[:, None])).sum(axis=1)
        v = affine_norm_cost(supports[t], cost_spec) + mean + kappa * semidev
    return v


def check_value(got: float, want: float) -> list:
    want = float(want)
    if _close(got, want):
        return []
    return [f"root value {got!r} != recomputed {want!r}"]
