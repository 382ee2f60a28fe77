"""Dual ascent for the selection problem, stopped on a duality certificate.

The budgeted selection problem relaxes into independent per-candidate
subproblems once the assignment and budget constraints are dualized with
multipliers theta_si and theta0 >= 0. Writing score_k for
sum_si max(0, theta_si - w_s d_sik), the dual function is

    L_D(theta) = sum_k min(0, theta0 - score_k) + sum_si theta_si - M theta0,

its inner minimizer selects candidate k iff score_k > theta0 and covers
particle (s,i) with k iff w_s d_sik < theta_si, and a supergradient is
g0 = sum_k gamma_k - M, g_si = 1 - sum_k beta_sik. run_subgradient ascends
L_D with the Polyak step towards the best feasible objective found so far
(Polyak 1969; Held, Wolfe & Crowder 1974). Every iterate's inner selection,
repaired to the budget, is a feasible selection, so its objective is an
upper bound UB on the optimum; every dual value is a lower bound (weak
duality). The run stops once UB is within CERT_TOL of the best dual value:
the returned selection is then provably within that share of the optimum.

All per-candidate work is done in fixed-size column blocks reduced in block
order, so results are identical for any worker count. Each block is swept
in place in a per-thread buffer that lives as long as the solve, over the
instance's one weighted cost matrix.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeGapError,
    ValidationError,
)
from .oracle import SelectionInstance

# Candidate columns are processed in fixed blocks of this many entries; the
# block grid must not depend on the worker count or results would not be
# bitwise reproducible across --threads settings.
SWEEP_BLOCK = 512

# A run is certified once UB - best dual <= CERT_TOL * UB.
CERT_TOL = 1e-4
# The Polyak step scale lambda halves after this many iterations without a
# new best dual value; once it falls below LAMBDA_FLOOR the ascent has
# stabilized short of the certificate (an integrality gap, or steps too
# small to matter).
STALL_ITERS = 20
LAMBDA_FLOOR = 1e-6


@dataclass
class DualState:
    """Multipliers of the dual ascent.

    theta is stored flat over all particles in group order; offsets are
    implied by the instance's group sizes. theta0 stays nonnegative (it is
    projected after every update).
    """

    theta0: float
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta0 < 0:
            raise ValidationError("theta0 must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the dual ascent: the iteration cap and the sweep's worker
    count (results are identical for any count). The step rule and the
    stopping test have no settings; see run_subgradient. No step of the
    solver reads seed."""

    max_iter: int = 5000
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        for name in ("max_iter", "threads"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Integral)
                    or value < 1):
                raise ValidationError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of run_subgradient.

    history_* arrays are aligned per iteration: raw dual value, best
    feasible objective so far (UB), number of selected candidates of the
    inner solution, step size, theta0, elapsed milliseconds. gamma and
    beta_assignment describe the selection that gives UB; gap is its
    objective minus the best dual value (nonnegative by weak duality).
    stop_reason is "certified", "stabilized" or "max_iter" (see
    run_subgradient).
    """

    gamma: np.ndarray
    beta_assignment: tuple
    objective: float
    best_dual: float
    gap: float
    stop_reason: str
    iterations: int
    history_dual: np.ndarray
    history_primal: np.ndarray
    history_sum_gamma: np.ndarray
    history_alpha: np.ndarray
    history_theta0: np.ndarray
    history_elapsed_ms: np.ndarray

    @property
    def converged(self) -> bool:
        """True when the run stopped on the duality certificate."""
        return self.stop_reason == "certified"


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


def run_subgradient(
    instance: SelectionInstance, config: SolverConfig
) -> SelectionResult:
    """Algorithm: Polyak ascent of the dual, stopped on a certificate.

    Per iteration j (starting at 0) one sweep at theta^(j) gives the dual
    value L_j, the supergradient g_j = (g0, g_si) and the scores. The
    inner selection, repaired to the budget (or, when empty, the budget
    highest-scoring candidates), is a feasible selection; UB_j is the best
    objective among those seen so far. The step is

        alpha_j = lambda_j (UB_j - L_j) / ||g_j||^2,

    theta += alpha_j g and theta0 = max(0, theta0 + alpha_j g0). lambda
    starts at 1 and halves after STALL_ITERS iterations without a new best
    dual. The run stops "certified" once UB_j - best dual <= CERT_TOL UB_j,
    "stabilized" when g_j = 0 or lambda falls below LAMBDA_FLOOR, and
    otherwise "max_iter". The returned gamma is the selection that gives UB.
    """
    wd = instance.stacked_weighted_costs()
    m_budget = instance.budget
    # one sweep buffer per worker thread for the whole solve
    scratch = _scratch_for(wd)

    state = initial_state(instance)
    executor = (
        ThreadPoolExecutor(max_workers=config.threads)
        if config.threads > 1
        else None
    )
    hist_dual, hist_primal, hist_sum, hist_alpha = [], [], [], []
    hist_theta0, hist_ms = [], []
    best_dual = -math.inf
    upper, best_gamma = math.inf, None
    step_scale, stall = 1.0, 0
    stop_reason = "max_iter"
    t0 = time.perf_counter()
    try:
        for _ in range(config.max_iter):
            gamma, cover, scores, dual_neg = _sweep(
                wd, state.theta, state.theta0, executor, scratch
            )
            dual = dual_neg + float(state.theta.sum()) - m_budget * state.theta0
            sum_gamma = int(gamma.sum())
            if sum_gamma:
                feasible = _repair_with_scores(
                    gamma, scores, state.theta0, m_budget
                )
            else:
                feasible = np.zeros(len(gamma), dtype=np.int8)
                feasible[np.argsort(-scores, kind="stable")[:m_budget]] = 1
            objective = instance.objective(feasible)
            if objective < upper:
                upper, best_gamma = objective, feasible
            if dual > best_dual:
                best_dual, stall = dual, 0
            else:
                stall += 1
                if stall == STALL_ITERS:
                    step_scale, stall = step_scale / 2.0, 0
            g0 = float(sum_gamma - m_budget)
            g = 1.0 - cover
            norm2 = g0 * g0 + float(g @ g)
            alpha = step_scale * (upper - dual) / norm2 if norm2 > 0 else 0.0
            hist_dual.append(dual)
            hist_primal.append(upper)
            hist_sum.append(sum_gamma)
            hist_alpha.append(alpha)
            hist_theta0.append(state.theta0)
            hist_ms.append((time.perf_counter() - t0) * 1e3)
            if upper - best_dual <= CERT_TOL * upper:
                stop_reason = "certified"
                break
            if norm2 == 0 or step_scale < LAMBDA_FLOOR:
                stop_reason = "stabilized"
                break
            state.theta0 = max(0.0, state.theta0 + alpha * g0)
            state.theta = state.theta + alpha * g
    finally:
        if executor is not None:
            executor.shutdown()

    return SelectionResult(
        gamma=best_gamma,
        beta_assignment=instance.nearest(best_gamma),
        objective=upper,
        best_dual=best_dual,
        gap=duality_gap(upper, best_dual),
        stop_reason=stop_reason,
        iterations=len(hist_dual),
        history_dual=np.array(hist_dual),
        history_primal=np.array(hist_primal),
        history_sum_gamma=np.array(hist_sum),
        history_alpha=np.array(hist_alpha),
        history_theta0=np.array(hist_theta0),
        history_elapsed_ms=np.array(hist_ms),
    )
