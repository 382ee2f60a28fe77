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

Every entry point sweeps the instance's one candidate-major weighted cost
matrix through a _Screen: it keeps only the entries w_s d_sik below
cap_si = 2 max(theta_si, 0), the only ones that can have a positive slack
theta_si - w_s d_sik while theta stays at or below its cap (safe screening;
El Ghaoui, Viallon & Rabbani 2012, and the Lagrangian p-median of Beasley
1993). A sweep then costs two bincounts over the kept entries, and the
screen is rebuilt only when some theta_si rises above its cap. Every dropped
entry contributes exactly +0.0, and the kept ones are summed in the dense
formula's particle order, so the results are those of the dense sweep to
the bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import KCompressError, ValidationError
from .oracle import SelectionInstance

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
    """Settings of the dual ascent: the iteration cap. The step rule and the
    stopping test have no settings; see run_subgradient. threads is checked
    but read by no step of the solver (the screened sweep runs on one
    thread); seed is read by nothing (approximate_system takes the sampling
    seed). Both stay because the benchmark's workloads pass them."""

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


class _Sweep(NamedTuple):
    """Inner solution summary of one sweep: selected candidates, per-particle
    cover counts over them, scores, the negative dual part sum_k min(0,
    theta0 - score_k), and which kept entries of the screen cover their
    particle (positive slack on a selected candidate)."""

    gamma: np.ndarray
    cover: np.ndarray
    scores: np.ndarray
    dual_neg: float
    active: np.ndarray


class _Screen:
    """The entries of a candidate-major (K, N) weighted cost matrix that can
    have a positive slack, as flat candidate, particle and cost arrays in
    row-major order.

    Built at theta, it keeps w_s d_sik < cap_si = 2 max(theta_si, 0). At any
    later theta <= cap every dropped entry has w_s d_sik >= theta_si, so its
    slack max(0, theta_si - w_s d_sik) is exactly 0; a sweep at a theta that
    exceeds its cap anywhere rebuilds the screen first.
    """

    def __init__(self, wdt: np.ndarray):
        self.wdt = wdt
        self.cap = None

    def _build(self, theta):
        self.cap = 2.0 * np.maximum(theta, 0.0)
        kept = np.flatnonzero(self.wdt < self.cap)
        self.cand, self.part = np.divmod(kept, self.wdt.shape[1])
        self.cost = self.wdt.ravel()[kept]

    def sweep(self, theta, theta0) -> _Sweep:
        if self.cap is None or np.any(theta > self.cap):
            self._build(theta)
        k, n = self.wdt.shape
        slack = theta[self.part] - self.cost
        np.maximum(slack, 0.0, out=slack)
        # per candidate, its particles in index order: the dense column sum
        scores = np.bincount(self.cand, weights=slack, minlength=k)
        gamma = scores > theta0
        active = slack > 0.0
        active &= gamma[self.cand]
        cover = np.bincount(self.part[active], minlength=n)
        dual_neg = float(np.minimum(0.0, theta0 - scores).sum())
        return _Sweep(gamma, cover, scores, dual_neg, active)


def _screen(instance: SelectionInstance) -> _Screen:
    return _Screen(instance.stacked_weighted_costs().T)


def _check_state(instance: SelectionInstance, state: DualState):
    if len(state.theta) != instance.n_particles:
        raise ValidationError(
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
    screen = _screen(instance)
    inner = screen.sweep(state.theta, state.theta0)
    beta = np.zeros((instance.n_particles, instance.n_candidates), dtype=bool)
    beta[screen.part[inner.active], screen.cand[inner.active]] = True
    return inner.gamma.astype(np.int8), beta


def dual_value(instance: SelectionInstance, state: DualState) -> float:
    """L_D(theta) by the closed form."""
    _check_state(instance, state)
    return (
        _screen(instance).sweep(state.theta, state.theta0).dual_neg
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
    wdt = instance.stacked_weighted_costs().T
    cols = np.asarray(batch, dtype=np.intp)
    inner = _Screen(wdt[cols]).sweep(state.theta, state.theta0)
    scale = len(wdt) / len(cols)
    g0 = scale * float(np.sum(inner.gamma)) - instance.budget
    g = 1.0 - scale * inner.cover
    return g0, g


def initial_state(instance: SelectionInstance) -> DualState:
    """Starting multipliers: theta_si at each particle's cheapest weighted
    cost, theta0 at half the budget-th largest score there. That score is
    0: at theta_si = min_k w_s d_sik no slack theta_si - w_s d_sik is
    positive, so every score is 0 and theta0 starts at 0.0."""
    theta = instance.stacked_weighted_costs().T.min(axis=0)
    return DualState(theta0=0.0, theta=theta)


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
    scores = _screen(instance).sweep(state.theta, state.theta0).scores
    return _repair_with_scores(gamma, scores, state.theta0, budget)


def duality_gap(objective: float, best_dual: float) -> float:
    """Feasible objective minus best dual value.

    Weak duality makes the exact gap nonnegative; a difference inside float
    tolerance is floored at zero so rounding cannot produce a spurious
    negative. A larger negative breaks weak duality, so it raises
    KCompressError.
    """
    gap = objective - best_dual
    if gap < 0.0:
        tol = 1e-9 * max(1.0, abs(objective))
        if gap <= -tol:
            raise KCompressError(
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
    m_budget = instance.budget
    # one screen for the whole solve, rebuilt only when theta outgrows it
    screen = _screen(instance)
    state = initial_state(instance)
    hist_dual, hist_primal, hist_sum, hist_alpha = [], [], [], []
    hist_theta0, hist_ms = [], []
    best_dual = -math.inf
    upper, best_gamma = math.inf, None
    step_scale, stall = 1.0, 0
    stop_reason = "max_iter"
    t0 = time.perf_counter()
    for _ in range(config.max_iter):
        gamma, cover, scores, dual_neg, _ = screen.sweep(
            state.theta, state.theta0
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
