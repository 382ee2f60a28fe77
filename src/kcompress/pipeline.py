"""Stage-by-stage compression of a sampled Markov system.

Each stage draws particle clouds from the current approximate marginal's
support points, selects at most M representative points from a candidate
set (Sobol lattice over the pooled clouds, or a seeded particle subsample),
and forms the implied kernel whose row weights are assignment fractions.
The achieved stage error Delta_t is the p-th root of the selection
objective, which equals the integrated transportation distance between the
empirical clouds and the implied kernel under the current marginal.
compress_stage is that one step, its sizes and order a StageSpec, its
candidates and solver a StageRule; approximate_system repeats it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .core import (
    DiscreteDistribution,
    DiscreteKernel,
    DiscreteSystem,
    as_points,
    compose_marginal,
    distance_power,
    merge_atoms,
)
from .dual import SelectionResult, SolverConfig, run_subgradient
from .errors import ValidationError
from .generators import sobol_lattice
from .oracle import SelectionInstance


@dataclass(frozen=True)
class StageSpec:
    """Per-stage sizes: samples per source, candidate count, budget, order."""

    samples_per_source: int
    candidate_count: int
    budget: int
    order: float

    def __post_init__(self):
        for name in ("samples_per_source", "candidate_count", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValidationError(
                    f"{name} must be an integer, got {value!r}")
        if min(self.samples_per_source, self.candidate_count, self.budget) < 1:
            raise ValidationError("stage sizes must be positive")
        if self.budget > self.candidate_count:
            raise ValidationError(
                f"budget {self.budget} exceeds candidate count "
                f"{self.candidate_count}"
            )
        if self.order < 1:
            raise ValidationError("order must be >= 1")


@dataclass(frozen=True)
class StageRule:
    """How every stage draws its candidates (stage_candidates) and solves
    (solver, the dual's settings)."""

    candidate_mode: str = "lattice"
    margin: float = 0.05
    box: tuple | None = None
    solver: SolverConfig = SolverConfig()


@dataclass(frozen=True)
class GenerativeSystem:
    """Sampling access to a Markov system: an initial state and a callable
    sampler(t, source_point, n, rng) returning an (n, dim) array of draws
    from the stage-t kernel at source_point."""

    x0: np.ndarray
    sampler: Callable

    def __post_init__(self):
        object.__setattr__(
            self, "x0", np.array(self.x0, dtype=np.float64).ravel()
        )


def build_stage_instance(
    marginal: DiscreteDistribution,
    clouds,
    candidates,
    p: float,
    budget: int,
) -> SelectionInstance:
    """Selection instance with group weights w_s = marginal_s / cloud size."""
    clouds = [as_points(c) for c in clouds]
    if len(clouds) != len(marginal):
        raise ValidationError(
            f"{len(clouds)} clouds for {len(marginal)} marginal atoms"
        )
    for cloud in clouds:
        if len(cloud) == 0:
            raise ValidationError("every source needs at least one particle")
    groups = [
        (float(w) / len(cloud), cloud)
        for w, cloud in zip(marginal.weights, clouds)
    ]
    return SelectionInstance.build(groups, candidates, p, budget)


def implied_kernel(instance: SelectionInstance, sources, gamma, assignment):
    """The kernel on sources, one point per group, whose row weights are
    per-source fractions of assignment (each particle's candidate index,
    one (N,) array in particle order), and each particle's column in the
    kernel's support: the candidates that received an assignment, in index
    order, coinciding points merged (merge_atoms).
    """
    sources = as_points(sources)
    if len(sources) != len(instance.sizes):
        raise ValidationError("one source point per group required")
    if np.shape(assignment) != (instance.n_particles,):
        raise ValidationError(
            f"assignment needs one entry per particle, got "
            f"{np.shape(assignment)} for {instance.n_particles}")
    used, inverse = np.unique(instance.candidate_indices(assignment),
                              return_inverse=True)
    if not np.isin(used, instance.selected(gamma)).all():
        raise ValidationError("assignment references unselected candidates")
    support, columns = merge_atoms(instance.candidates[used])
    columns = columns[inverse]
    sizes = instance.sizes
    cells = np.repeat(np.arange(len(sizes)), sizes) * len(support) + columns
    counts = np.bincount(cells, minlength=len(sizes) * len(support))
    return DiscreteKernel(
        sources, support, counts.reshape(len(sizes), -1) / sizes[:, None]
    ), columns


def assignment_plan(stage: Stage):
    """The coupling behind the stage's kernel: each particle, in flat group
    order, sends its whole group weight w_s to its assigned candidate.

    Returns (columns, masses, costs), one entry per particle: the column
    of the assigned candidate in the kernel's support (stage.columns), w_s,
    and d(x_si, zeta_k)^p. The first marginal is the pooled weighted clouds
    and the second is the marginal composed through implied_kernel. With
    every particle on its nearest selected candidate (as run_subgradient
    assigns them), the cost sum(masses * costs) attains the lower bound
    sum_i w_i min_k d^p of any coupling onto the selection, so the coupling
    is optimal and its cost is the selection objective.
    """
    instance, assignment = stage.instance, stage.result.beta_assignment
    costs = distance_power(np.concatenate(instance.clouds),
                           instance.candidates[assignment], instance.order)
    masses = np.repeat(instance.weights, instance.sizes)
    return stage.columns, masses, costs


def candidate_lattice(clouds, count: int, margin: float = StageRule.margin,
                      box=None) -> np.ndarray:
    """Sobol candidates over box, a (low, high) pair, or when box is None
    over the pooled bounding box expanded by `margin` per side; flat
    directions get a unit pad so the box stays proper."""
    if box is None:
        pool = np.vstack([as_points(c) for c in clouds])
        lo, hi = pool.min(axis=0), pool.max(axis=0)
        span = hi - lo
        pad = np.where(span > 0, margin * span, 1.0)
        box = (lo - pad, hi + pad)
    return sobol_lattice(as_points(clouds[0]).shape[1], count, box)


def candidate_subsample(clouds, count: int, rng) -> np.ndarray:
    """Seeded uniform subsample (without replacement) of the pooled particles."""
    pool = np.vstack([as_points(c) for c in clouds])
    if count > len(pool):
        raise ValidationError(
            f"cannot subsample {count} of {len(pool)} particles"
        )
    idx = np.sort(rng.choice(len(pool), size=count, replace=False))
    return pool[idx]


def stage_candidates(clouds, count: int, rule: StageRule, rng) -> np.ndarray:
    """The stage's count candidates: in rule's "lattice" mode
    candidate_lattice with its margin and box, in "subsample" mode
    candidate_subsample drawing with rng."""
    if rule.candidate_mode == "subsample":
        return candidate_subsample(clouds, count, rng)
    if rule.candidate_mode != "lattice":
        raise ValidationError(
            f"unknown candidate mode {rule.candidate_mode!r}")
    return candidate_lattice(clouds, count, rule.margin, rule.box)


@dataclass(frozen=True)
class Stage:
    """One compressed stage: the selection instance and its solve, the
    implied kernel and each particle's column in it, the marginal composed
    through it, the achieved error delta (objective ** (1/order)) and the
    stage's wall time in seconds, from the start of its sampling to the end
    of the composition."""

    instance: SelectionInstance
    result: SelectionResult
    kernel: DiscreteKernel
    columns: np.ndarray
    marginal: DiscreteDistribution
    delta: float
    wall_s: float


def compress_stage(marginal: DiscreteDistribution, clouds, spec: StageSpec,
                   rule: StageRule, rng, started: float) -> Stage:
    """Draw spec.candidate_count candidates under rule (rng is the stream a
    subsample draws from), select at most spec.budget of them for the
    clouds drawn from each marginal atom, form the implied kernel and push
    the marginal through it. started is the time.perf_counter() reading at
    which the stage's sampling began."""
    candidates = stage_candidates(clouds, spec.candidate_count, rule, rng)
    instance = build_stage_instance(marginal, clouds, candidates,
                                    spec.order, spec.budget)
    result = run_subgradient(instance, rule.solver)
    kernel, columns = implied_kernel(instance, marginal.support, result.gamma,
                                     result.beta_assignment)
    composed = compose_marginal(marginal, kernel)
    return Stage(instance, result, kernel, columns, composed,
                 result.objective ** (1.0 / spec.order),
                 time.perf_counter() - started)


def stage_stream(seed: int, t: int, index: int):
    """Stage t's random stream under seed: index s below the number of
    sources samples source s's cloud, and index equal to the number of
    sources draws the candidate subsample."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(t, index)))


def approximate_system(
    system: GenerativeSystem,
    stages,
    rule: StageRule = StageRule(),
    *,
    seed: int,
    on_stage=None,
) -> DiscreteSystem:
    """Run the per-stage sample/select/compose loop over the whole horizon.

    Stage t runs compress_stage with stages[t], a StageSpec, and rule, and
    calls the sampler with t. Sampling is reproducible: the cloud for
    source s at stage t comes from a generator seeded by (seed, t, s),
    independent of every other cloud, and a subsample of candidates from
    one seeded by (seed, t, number of sources). on_stage(stage) is called
    with each compress_stage result, for diagnostics collection.
    """
    marginals = [DiscreteDistribution([system.x0], [1.0])]
    kernels = []
    deltas = []
    for t, spec in enumerate(stages):
        started = time.perf_counter()
        marginal = marginals[-1]
        clouds = [
            as_points(system.sampler(t, source, spec.samples_per_source,
                                     stage_stream(seed, t, s)))
            for s, source in enumerate(marginal.support)
        ]
        stage = compress_stage(marginal, clouds, spec, rule,
                               stage_stream(seed, t, len(marginal)), started)
        if on_stage is not None:
            on_stage(stage)
        kernels.append(stage.kernel)
        deltas.append(stage.delta)
        marginals.append(stage.marginal)
    return DiscreteSystem(
        [m.support for m in marginals], kernels, marginals, deltas
    )
