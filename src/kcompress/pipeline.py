"""Stage-by-stage compression of a sampled Markov system.

Each stage draws particle clouds from the current approximate marginal's
support points, selects at most M representative points from a candidate
set (Sobol lattice over the pooled clouds, or a seeded particle subsample),
and forms the implied kernel whose row weights are assignment fractions.
The achieved stage error Delta_t is the p-th root of the selection
objective, which equals the integrated transportation distance between the
empirical clouds and the implied kernel under the current marginal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DiscreteDistribution,
    DiscreteKernel,
    DiscreteSystem,
    as_points,
    compose_marginal,
    merge_atoms,
)
from .dual import SolverConfig, run_subgradient
from .errors import (
    EmptyCloudError,
    InfeasibleBudgetError,
    SourceMismatchError,
    StageBudgetInfeasibleError,
    UnselectedAssignmentError,
    ValidationError,
)
from .generators import sobol_lattice
from .oracle import SelectionInstance


@dataclass(frozen=True)
class StageSpec:
    """Per-stage sizes: samples per source, candidate count, budget, order."""

    t: int
    samples_per_source: int
    candidate_count: int
    budget: int
    order: float

    def __post_init__(self):
        if self.t < 0:
            raise ValidationError("stage index must be >= 0")
        if min(self.samples_per_source, self.candidate_count, self.budget) < 1:
            raise ValidationError("stage sizes must be positive")
        if self.budget > self.candidate_count:
            raise StageBudgetInfeasibleError(
                f"budget {self.budget} exceeds candidate count "
                f"{self.candidate_count} at stage {self.t}"
            )
        if self.order < 1:
            raise ValidationError("order must be >= 1")


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
        raise SourceMismatchError(
            f"{len(clouds)} clouds for {len(marginal)} marginal atoms"
        )
    for cloud in clouds:
        if len(cloud) == 0:
            raise EmptyCloudError("every source needs at least one particle")
    groups = [
        (float(w) / len(cloud), cloud)
        for w, cloud in zip(marginal.weights, clouds)
    ]
    try:
        return SelectionInstance.build(
            groups, candidates, p, budget, sources=marginal.support
        )
    except InfeasibleBudgetError as exc:
        raise StageBudgetInfeasibleError(str(exc)) from exc


def _assigned_support(instance: SelectionInstance, assignment):
    """Assigned candidate indices, their points with coinciding ones merged
    (merge_atoms), and each particle's column in those points."""
    flat = np.concatenate(assignment).astype(np.intp)
    used, inverse = np.unique(flat, return_inverse=True)
    support, columns = merge_atoms(instance.candidates[used])
    return used, support, columns[inverse]


def implied_kernel(
    instance: SelectionInstance, gamma, assignment
) -> DiscreteKernel:
    """Kernel whose row weights are per-source assignment fractions.

    The support is the candidates that received an assignment, in index
    order, coinciding points merged. Requires the instance to carry source
    coordinates (build_stage_instance attaches them).
    """
    sources = instance.sources
    if sources is None:
        raise SourceMismatchError("instance carries no source coordinates")
    used, support, columns = _assigned_support(instance, assignment)
    if not np.all(np.asarray(gamma)[used]):
        raise UnselectedAssignmentError(
            "assignment references unselected candidates"
        )
    sizes = np.fromiter(map(len, assignment), dtype=np.intp)
    cells = np.repeat(np.arange(len(sizes)), sizes) * len(support) + columns
    counts = np.bincount(cells, minlength=len(sizes) * len(support))
    return DiscreteKernel(
        sources, support, counts.reshape(len(sizes), -1) / sizes[:, None]
    )


def assignment_plan(instance: SelectionInstance, assignment):
    """The coupling behind implied_kernel: each particle, in flat group
    order, sends its whole group weight w_s to its assigned candidate.

    Returns (columns, masses, costs), one entry per particle: the column
    of the assigned candidate in implied_kernel's support, w_s, and
    d(x_si, zeta_k)^p. The first marginal is the pooled weighted clouds and
    the second is the marginal composed through implied_kernel. With every
    particle on its nearest selected candidate (as run_subgradient assigns
    them), the cost sum(masses * costs) attains the lower bound
    sum_i w_i min_k d^p of any coupling onto the selection, so the coupling
    is optimal and its cost is the selection objective.
    """
    _, _, columns = _assigned_support(instance, assignment)
    costs = [
        instance.cost_block(s, 0, instance.n_candidates)[np.arange(len(g)), g]
        for s, g in enumerate(assignment)
    ]
    masses = np.repeat(instance.weights, instance.group_sizes())
    return columns, masses, np.concatenate(costs)


def candidate_lattice(clouds, count: int, margin: float = 0.05) -> np.ndarray:
    """Sobol candidates over the pooled bounding box, expanded by `margin`
    per side; flat directions get a unit pad so the box stays proper."""
    pool = np.vstack([as_points(c) for c in clouds])
    lo, hi = pool.min(axis=0), pool.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, margin * span, 1.0)
    return sobol_lattice(pool.shape[1], count, (lo - pad, hi + pad))


def candidate_subsample(clouds, count: int, rng) -> np.ndarray:
    """Seeded uniform subsample (without replacement) of the pooled particles."""
    pool = np.vstack([as_points(c) for c in clouds])
    if count > len(pool):
        raise ValidationError(
            f"cannot subsample {count} of {len(pool)} particles"
        )
    idx = np.sort(rng.choice(len(pool), size=count, replace=False))
    return pool[idx]


def approximate_system(
    system: GenerativeSystem,
    stages,
    solver: SolverConfig,
    candidate_mode: str = "lattice",
    margin: float = 0.05,
    box=None,
    on_stage=None,
) -> DiscreteSystem:
    """Run the per-stage sample/select/compose loop over the whole horizon.

    Sampling is reproducible: the cloud for source s at stage t comes from
    a generator seeded by (solver.seed, t, s), independent of every other
    cloud. With box set, the stage candidate lattice uses that fixed box
    instead of the pooled bounding box. on_stage(stage, instance, result)
    is called after each stage's solve, for diagnostics collection.
    """
    if candidate_mode not in ("lattice", "subsample"):
        raise ValidationError(f"unknown candidate mode {candidate_mode!r}")
    x0 = system.x0
    marginal = DiscreteDistribution([x0], [1.0])
    supports = [marginal.support]
    marginals = [marginal]
    kernels = []
    deltas = []
    for stage in stages:
        clouds = []
        for s, source in enumerate(marginal.support):
            rng = np.random.default_rng(
                np.random.SeedSequence(solver.seed, spawn_key=(stage.t, s))
            )
            cloud = as_points(
                system.sampler(stage.t, source, stage.samples_per_source, rng)
            )
            clouds.append(cloud)
        if candidate_mode == "lattice":
            if box is not None:
                candidates = sobol_lattice(
                    clouds[0].shape[1], stage.candidate_count, box
                )
            else:
                candidates = candidate_lattice(
                    clouds, stage.candidate_count, margin
                )
        else:
            sub_rng = np.random.default_rng(
                np.random.SeedSequence(
                    solver.seed, spawn_key=(stage.t, len(marginal))
                )
            )
            candidates = candidate_subsample(
                clouds, stage.candidate_count, sub_rng
            )
        instance = build_stage_instance(
            marginal, clouds, candidates, stage.order, stage.budget
        )
        result = run_subgradient(instance, solver)
        if on_stage is not None:
            on_stage(stage, instance, result)
        kernel = implied_kernel(instance, result.gamma, result.beta_assignment)
        delta = result.objective ** (1.0 / stage.order)
        marginal = compose_marginal(marginal, kernel)
        kernels.append(kernel)
        deltas.append(delta)
        marginals.append(marginal)
        supports.append(marginal.support)
    return DiscreteSystem(supports, kernels, marginals, deltas)


def system_to_dict(approx: DiscreteSystem) -> dict:
    """JSON-ready form: per-stage supports, kernel rows, marginals, deltas."""
    from .core import distribution_to_dict, kernel_to_dict

    return {
        "supports": [s.tolist() for s in approx.supports],
        "kernels": [kernel_to_dict(k) for k in approx.kernels],
        "marginals": [distribution_to_dict(m) for m in approx.marginals],
        "deltas": [float(d) for d in approx.deltas],
    }


def system_from_dict(data: dict) -> DiscreteSystem:
    """Inverse of system_to_dict, validated as distributions and as a
    DiscreteSystem; a malformed document raises ValidationError."""
    from .core import distribution_from_dict, kernel_from_dict

    if not isinstance(data, dict):
        raise ValidationError("a system must be a JSON object")
    try:
        return DiscreteSystem(
            data["supports"],
            tuple(kernel_from_dict(k) for k in data["kernels"]),
            tuple(distribution_from_dict(m) for m in data["marginals"]),
            data["deltas"],
        )
    except KeyError as exc:
        raise ValidationError(f"system lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValidationError(f"malformed system: {exc}") from None


def load_system(path) -> DiscreteSystem:
    """Read a system file written from system_to_dict.

    Each {"support", "weights"} object becomes float64 arrays as soon as the
    parser closes it, so the rows' nested lists never exist all at once; a
    row whose support list equals the previous row's shares its array.
    system_from_dict then validates the system as for a plain json.load.
    A file that is not JSON, or holds a non-numeric coordinate or weight,
    raises ValidationError naming the file.
    """
    last = [None, None]  # the previous support list and its array

    def decode(obj):
        if obj.keys() != {"support", "weights"}:
            return obj
        if obj["support"] != last[0]:
            last[:] = obj["support"], np.asarray(obj["support"], np.float64)
        return {
            "support": last[1],
            "weights": np.asarray(obj["weights"], np.float64),
        }

    try:
        with open(path) as fh:
            return system_from_dict(json.load(fh, object_hook=decode))
    except ValidationError:
        raise
    except ValueError as exc:
        # not JSON, or a coordinate or weight that is not a number
        raise ValidationError(f"system file {path}: {exc}") from None
