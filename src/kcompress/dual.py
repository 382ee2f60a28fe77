"""Dual subgradient method with momentum for the selection problem.

The budgeted selection problem relaxes into independent per-candidate
subproblems once the assignment and budget constraints are dualized with
multipliers theta_si and theta0 >= 0. Writing score_k for
sum_si max(0, theta_si - w_s d_sik), the dual function is

    L_D(theta) = sum_k min(0, theta0 - score_k) + sum_si theta_si - M theta0,

its inner minimizer selects candidate k iff score_k > theta0 and covers
particle (s,i) with k iff w_s d_sik < theta_si, and a supergradient is
g0 = sum_k gamma_k - M, g_si = 1 - sum_k beta_sik. run_subgradient ascends
L_D with momentum-smoothed supergradients and a 1/sqrt(j) step schedule,
then recovers a feasible selection by weighted averaging and rounding.

All per-candidate work is done in fixed-size column blocks reduced in block
order, so results are identical for any worker count. Each block is swept
in place in a per-thread buffer that lives as long as the solve, over the
instance's one cached stacked cost matrix.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyHistoryError,
    NegativeGapError,
    ValidationError,
)
from .oracle import SelectionInstance

# Candidate columns are processed in fixed blocks of this many entries; the
# block grid must not depend on the worker count or results would not be
# bitwise reproducible across --threads settings.
SWEEP_BLOCK = 512


@dataclass
class DualState:
    """Multipliers and momentum buffers of the dual ascent.

    theta is stored flat over all particles in group order; offsets are
    implied by the instance's group sizes. theta0 stays nonnegative (it is
    projected after every update).
    """

    theta0: float
    theta: np.ndarray
    m0: float = 0.0
    m: np.ndarray | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta0 < 0:
            raise ValidationError("theta0 must be nonnegative")
        if self.m is None:
            self.m = np.zeros_like(self.theta)


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the dual ascent (defaults follow the reference
    experiment: alpha0=0.01, epsilon=1e-7, kappa1=kappa2=0.35, band 5%)."""

    alpha0: float = 0.01
    epsilon: float = 1e-7
    kappa1: float = 0.35
    kappa2: float = 0.35
    band: float = 0.05
    max_iter: int = 5000
    window: int = 50
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.alpha0 <= 0 or self.epsilon <= 0:
            raise ValidationError("alpha0 and epsilon must be positive")
        if not (0 <= self.kappa1 < 1 and 0 <= self.kappa2 < 1):
            raise ValidationError("kappa1, kappa2 must lie in [0, 1)")
        if not (0 < self.band < 1):
            raise ValidationError("band must lie in (0, 1)")
        if self.max_iter < 1 or self.window < 1 or self.threads < 1:
            raise ValidationError("max_iter, window, threads must be >= 1")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of run_subgradient.

    history_* arrays are aligned per iteration: raw dual value, number of
    selected candidates of the inner solution, step size, theta0. gamma and
    beta_assignment describe the recovered feasible selection; gap is its
    objective minus the best dual value (nonnegative by weak duality).
    """

    gamma: np.ndarray
    beta_assignment: tuple
    objective: float
    best_dual: float
    gap: float
    converged: bool
    iterations: int
    history_dual: np.ndarray
    history_sum_gamma: np.ndarray
    history_alpha: np.ndarray
    history_theta0: np.ndarray
    history_elapsed_ms: np.ndarray


class _Scratch(threading.local):
    """Per-thread sweep buffer: room for one (N, SWEEP_BLOCK) block, made on
    a thread's first block and reused by every later block and call."""

    def __init__(self, n: int, width: int):
        self.flat = np.empty(n * width)
        self.n = n

    def block(self, width: int) -> np.ndarray:
        return self.flat[: self.n * width].reshape(self.n, width)


def _scratch_for(wd) -> _Scratch:
    n, k = wd.shape
    return _Scratch(n, min(k, SWEEP_BLOCK))


def _sweep_block(wd_block, theta, theta0, buf, beta_block=None):
    """One fused pass over a column block: buf ends as max(0, slack)."""
    np.subtract(theta[:, None], wd_block, out=buf)
    np.maximum(buf, 0.0, out=buf)
    scores = buf.sum(axis=0)
    sel = scores > theta0
    cover = np.count_nonzero(buf[:, sel], axis=1)
    dual_neg = float(np.minimum(0.0, theta0 - scores).sum())
    if beta_block is not None:
        np.greater(buf, 0.0, out=beta_block)
        beta_block &= sel
    return sel, cover, scores, dual_neg


def _sweep(wd, theta, theta0, executor=None, scratch=None, beta=None):
    """Inner solution summary over all candidates: per-candidate selection,
    per-particle cover counts, scores, and the negative dual part. Blocks
    are reduced in index order regardless of the executor. With beta given
    (a boolean (N, K) array), the inner assignment is written into it."""
    n, k = wd.shape
    if scratch is None:
        scratch = _scratch_for(wd)

    def run(s):
        stop = min(s + SWEEP_BLOCK, k)
        return _sweep_block(
            wd[:, s:stop],
            theta,
            theta0,
            scratch.block(stop - s),
            None if beta is None else beta[:, s:stop],
        )

    starts = range(0, k, SWEEP_BLOCK)
    # a single block gains nothing from a worker round trip
    if executor is None or len(starts) == 1:
        parts = [run(s) for s in starts]
    else:
        parts = list(executor.map(run, starts))
    gamma = np.concatenate([p[0] for p in parts])
    cover = np.zeros(n)
    for p in parts:
        cover += p[1]
    scores = np.concatenate([p[2] for p in parts])
    dual_neg = 0.0
    for p in parts:
        dual_neg += p[3]
    return gamma, cover, scores, dual_neg


def _check_state(instance: SelectionInstance, state: DualState):
    if len(state.theta) != instance.n_particles:
        raise DimensionMismatchError(
            f"theta has {len(state.theta)} entries for "
            f"{instance.n_particles} particles"
        )


def inner_solution(instance: SelectionInstance, state: DualState):
    """Closed-form minimizer of the Lagrangian at the given multipliers.

    Returns (gamma, beta) with beta dense boolean of shape (N, K); row order
    is the flat particle order. Exact equality in either comparison takes
    the zero branch.
    """
    _check_state(instance, state)
    wd = instance.stacked_weighted_costs()
    beta = np.empty(wd.shape, dtype=bool)
    gamma, _, _, _ = _sweep(wd, state.theta, state.theta0, beta=beta)
    return gamma.astype(np.int8), beta


def dual_value(instance: SelectionInstance, state: DualState) -> float:
    """L_D(theta) by the closed form."""
    _check_state(instance, state)
    wd = instance.stacked_weighted_costs()
    _, _, _, dual_neg = _sweep(wd, state.theta, state.theta0)
    return (
        dual_neg
        + float(state.theta.sum())
        - instance.budget * state.theta0
    )


def subgradient(instance: SelectionInstance, state: DualState, inner):
    """Supergradient of L_D at `state` given the inner solution (gamma, beta)."""
    gamma, beta = inner
    g0 = float(np.sum(gamma)) - instance.budget
    g = 1.0 - beta.sum(axis=1).astype(np.float64)
    return g0, g


def batch_subgradient(instance: SelectionInstance, state: DualState, batch):
    """Stochastic supergradient estimate from a subset of candidate columns.

    batch is a sequence of candidate indices; the estimates rescale the
    batch sums by K/B so they are unbiased under uniform batch draws.
    """
    _check_state(instance, state)
    wd = instance.stacked_weighted_costs()
    cols = np.asarray(batch, dtype=np.intp)
    sel, cover, _, _ = _sweep(wd[:, cols], state.theta, state.theta0)
    scale = wd.shape[1] / len(cols)
    g0 = scale * float(np.sum(sel)) - instance.budget
    g = 1.0 - scale * cover
    return g0, g


def initial_state(instance: SelectionInstance) -> DualState:
    """Starting multipliers: theta_si at each particle's cheapest weighted
    cost, theta0 at half the budget-th largest initial score."""
    wd = instance.stacked_weighted_costs()
    theta = wd.min(axis=1)
    _, _, scores, _ = _sweep(wd, theta, 0.0)
    kth = np.sort(scores)[-instance.budget]
    return DualState(theta0=max(0.0, float(kth) / 2.0), theta=theta)


def primal_recovery(entries, budget: int):
    """Average the recorded inner selections and round to a feasible one.

    entries: sequence of (gamma, alpha) pairs from near-optimal iterations.
    gamma_bar weighs each gamma by its step size; gamma_rounded keeps the
    budget largest averages (ties to the lowest index).
    """
    entries = list(entries)
    if not entries:
        raise EmptyHistoryError("primal recovery needs at least one iteration")
    alphas = np.array([a for _, a in entries], dtype=np.float64)
    weights = alphas / alphas.sum()
    gamma_bar = np.zeros(len(entries[0][0]))
    for (gamma, _), w in zip(entries, weights):
        gamma_bar += w * np.asarray(gamma, dtype=np.float64)
    top = np.argsort(-gamma_bar, kind="stable")[:budget]
    rounded = np.zeros(len(gamma_bar), dtype=np.int8)
    rounded[top] = 1
    return gamma_bar, rounded


def _repair_with_scores(gamma, scores, theta0, budget: int):
    gamma = np.asarray(gamma).astype(np.int8).copy()
    excess = int(gamma.sum()) - budget
    if excess <= 0:
        return gamma
    selected = np.flatnonzero(gamma)
    braces = theta0 - scores[selected]
    order = selected[np.argsort(-braces, kind="stable")]
    gamma[order[:excess]] = 0
    return gamma


def repair_feasibility(
    instance: SelectionInstance, gamma, budget: int, state: DualState
):
    """Drop selected candidates until at most `budget` remain.

    Candidates whose braces value theta0 - score_k is largest change the
    dual expression least when cleared, so they go first; ties clear the
    lowest index.
    """
    _check_state(instance, state)
    wd = instance.stacked_weighted_costs()
    _, _, scores, _ = _sweep(wd, state.theta, state.theta0)
    return _repair_with_scores(gamma, scores, state.theta0, budget)


def duality_gap(objective: float, best_dual: float) -> float:
    """Feasible objective minus best dual value.

    Weak duality makes the exact gap nonnegative; a difference inside float
    tolerance is floored at zero so rounding cannot produce a spurious
    negative. A larger negative breaks weak duality, so it raises
    NegativeGapError.
    """
    gap = objective - best_dual
    if gap < 0.0:
        tol = 1e-9 * max(1.0, abs(objective))
        if gap <= -tol:
            raise NegativeGapError(
                f"objective {objective!r} lies below the dual bound "
                f"{best_dual!r} by more than {tol!r}"
            )
        return 0.0
    return gap


def _objective_for(wd, gamma):
    sel = np.flatnonzero(gamma)
    if len(sel) == 0:
        return math.inf
    return float(wd[:, sel].min(axis=1).sum())


def _assignment_for(instance: SelectionInstance, gamma):
    sel = np.flatnonzero(gamma)
    assignment = []
    for s in range(instance.n_groups):
        block = instance.cost_block(s, 0, instance.n_candidates)[:, sel]
        assignment.append(sel[np.argmin(block, axis=1)])
    return tuple(assignment)


def run_subgradient(
    instance: SelectionInstance, config: SolverConfig
) -> SelectionResult:
    """Algorithm: ascend the dual with momentum, then recover a primal.

    Per iteration j (starting at 0) the inner solution at theta^(j) gives a
    supergradient; momenta are decayed with kappa1/kappa2 and applied with
    step alpha0/sqrt(j+1); theta0 is projected back to [0, inf). Iteration
    stops once the selected count lies within the band around the budget
    and the dual value has stabilized to epsilon, or at max_iter with
    converged=False. The returned gamma is the best-objective selection
    among the rounded recovery average, the repaired final inner solution,
    and the repaired near-best window iterates.
    """
    wd = instance.stacked_weighted_costs()
    n, k = wd.shape
    m_budget = instance.budget
    # one sweep buffer per worker thread for the whole solve
    scratch = _scratch_for(wd)

    state = initial_state(instance)
    executor = (
        ThreadPoolExecutor(max_workers=config.threads)
        if config.threads > 1
        else None
    )
    hist_dual, hist_sum, hist_alpha, hist_theta0, hist_ms = [], [], [], [], []
    # every inner selection, one bit per candidate, for the recovery average
    recovery: list = []
    # near-best inner selections with their scores, kept for end-of-run repair
    repair_ring: deque = deque(maxlen=config.window)
    best_dual = -math.inf
    converged = False
    last_entry = None
    t0 = time.perf_counter()
    try:
        for j in range(config.max_iter):
            gamma, cover, scores, dual_neg = _sweep(
                wd, state.theta, state.theta0, executor, scratch
            )
            dual = dual_neg + float(state.theta.sum()) - m_budget * state.theta0
            sum_gamma = int(gamma.sum())
            alpha = config.alpha0 / math.sqrt(j + 1)
            hist_dual.append(dual)
            hist_sum.append(sum_gamma)
            hist_alpha.append(alpha)
            hist_theta0.append(state.theta0)
            hist_ms.append((time.perf_counter() - t0) * 1e3)
            best_dual = max(best_dual, dual)
            recovery.append(np.packbits(gamma))
            last_entry = (gamma.astype(np.int8), scores, state.theta0)
            if dual >= best_dual - 0.01 * abs(best_dual):
                repair_ring.append(last_entry)
            in_band = (
                (1 - config.band) * m_budget
                <= sum_gamma
                <= (1 + config.band) * m_budget
            )
            if (
                j > 0
                and in_band
                and abs(dual - hist_dual[-2]) <= config.epsilon
            ):
                converged = True
                break
            g0 = float(sum_gamma) - m_budget
            g = 1.0 - cover
            state.m0 = (1 - config.kappa1) * g0 + config.kappa1 * state.m0
            state.theta0 = max(0.0, state.theta0 + alpha * state.m0)
            state.m = (1 - config.kappa2) * g + config.kappa2 * state.m
            state.theta = state.theta + alpha * state.m
    finally:
        if executor is not None:
            executor.shutdown()

    # recovery window: near-best iterations only, newest last, capped
    threshold = best_dual - 0.01 * abs(best_dual)
    near_iters = [j for j, d in enumerate(hist_dual) if d >= threshold]
    near = [
        (np.unpackbits(recovery[j], count=k), hist_alpha[j])
        for j in near_iters[-config.window :]
    ]
    _, rounded = primal_recovery(near, m_budget)
    # candidate selections: the rounded average, the repaired final inner
    # solution, and the repaired near-best window iterates; keep the best
    candidates = [_repair_with_scores(rounded, last_entry[1], last_entry[2],
                                      m_budget)]
    candidates.append(
        _repair_with_scores(last_entry[0], last_entry[1], last_entry[2],
                            m_budget)
    )
    for g, sc, th0 in repair_ring:
        candidates.append(_repair_with_scores(g, sc, th0, m_budget))
    final_gamma, objective = None, math.inf
    for gm in candidates:
        obj = _objective_for(wd, gm)
        if obj < objective:
            final_gamma, objective = gm, obj
    assignment = _assignment_for(instance, final_gamma)
    gap = duality_gap(objective, best_dual)
    return SelectionResult(
        gamma=final_gamma,
        beta_assignment=assignment,
        objective=objective,
        best_dual=best_dual,
        gap=gap,
        converged=converged,
        iterations=len(hist_dual),
        history_dual=np.array(hist_dual),
        history_sum_gamma=np.array(hist_sum),
        history_alpha=np.array(hist_alpha),
        history_theta0=np.array(hist_theta0),
        history_elapsed_ms=np.array(hist_ms),
    )
