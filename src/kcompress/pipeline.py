"""Stage-by-stage compression of a sampled Markov system.

Each stage draws particle clouds from the current approximate marginal's
support points, selects at most M representative points from a candidate
set (Sobol lattice over the pooled clouds, or a seeded particle subsample),
and forms the implied kernel whose row weights are assignment fractions.
The achieved stage error Delta_t is the p-th root of the selection
objective, which equals the integrated transportation distance between the
empirical clouds and the implied kernel under the current marginal.
compress_stage is that one step, and stage_candidates the one candidate
rule; approximate_system repeats them over a horizon.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
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
    return SelectionInstance.build(
        groups, candidates, p, budget, sources=marginal.support
    )


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
        raise ValidationError("instance carries no source coordinates")
    used, support, columns = _assigned_support(instance, assignment)
    if not np.all(np.asarray(gamma)[used]):
        raise ValidationError(
            "assignment references unselected candidates"
        )
    sizes = np.fromiter(map(len, assignment), dtype=np.intp)
    cells = np.repeat(np.arange(len(sizes)), sizes) * len(support) + columns
    counts = np.bincount(cells, minlength=len(sizes) * len(support))
    return DiscreteKernel(
        sources, support, counts.reshape(len(sizes), -1) / sizes[:, None]
    )


def assignment_plan(stage: Stage):
    """The coupling behind the stage's kernel: each particle, in flat group
    order, sends its whole group weight w_s to its assigned candidate.

    Returns (columns, masses, costs), one entry per particle: the column
    of the assigned candidate in the kernel's support, w_s, and
    d(x_si, zeta_k)^p. The first marginal is the pooled weighted clouds and
    the second is the marginal composed through implied_kernel. With every
    particle on its nearest selected candidate (as run_subgradient assigns
    them), the cost sum(masses * costs) attains the lower bound
    sum_i w_i min_k d^p of any coupling onto the selection, so the coupling
    is optimal and its cost is the selection objective.
    """
    instance, assignment = stage.instance, stage.result.beta_assignment
    columns = _assigned_support(instance, assignment)[2]
    assigned = instance.candidates[np.concatenate(assignment)]
    costs = distance_power(np.concatenate(instance.clouds), assigned,
                           instance.order)
    masses = np.repeat(instance.weights, instance.group_sizes())
    return columns, masses, costs


def candidate_lattice(clouds, count: int, margin: float = 0.05,
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


def stage_candidates(clouds, count: int, mode: str, margin: float, box,
                     rng) -> np.ndarray:
    """The stage's candidate set: in "lattice" mode a Sobol lattice over box,
    or over the pooled bounding box padded by margin (candidate_lattice)
    when box is None; in "subsample" mode count pooled particles drawn
    with rng (candidate_subsample)."""
    if mode == "subsample":
        return candidate_subsample(clouds, count, rng)
    if mode != "lattice":
        raise ValidationError(f"unknown candidate mode {mode!r}")
    return candidate_lattice(clouds, count, margin, box)


@dataclass(frozen=True)
class Stage:
    """One compressed stage: the selection instance and its solve, the
    implied kernel, the marginal composed through it, the achieved error
    delta (objective ** (1/order)) and the stage's wall time in seconds, from
    the start of its sampling to the end of the composition."""

    instance: SelectionInstance
    result: SelectionResult
    kernel: DiscreteKernel
    marginal: DiscreteDistribution
    delta: float
    wall_s: float


def compress_stage(marginal: DiscreteDistribution, clouds, candidates,
                   order: float, budget: int, solver: SolverConfig,
                   started: float) -> Stage:
    """Select at most budget candidates for the clouds drawn from each
    marginal atom, form the implied kernel and push the marginal through
    it. started is the time.perf_counter() reading at which the stage's
    sampling began."""
    instance = build_stage_instance(marginal, clouds, candidates, order, budget)
    result = run_subgradient(instance, solver)
    kernel = implied_kernel(instance, result.gamma, result.beta_assignment)
    composed = compose_marginal(marginal, kernel)
    return Stage(instance, result, kernel, composed,
                 result.objective ** (1.0 / order),
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
    solver: SolverConfig,
    *,
    seed: int,
    candidate_mode: str = "lattice",
    margin: float = 0.05,
    box=None,
    on_stage=None,
) -> DiscreteSystem:
    """Run the per-stage sample/select/compose loop over the whole horizon.

    Stage t runs stages[t], a StageSpec, and calls the sampler with t.
    Sampling is reproducible: the cloud for source s at stage t comes from
    a generator seeded by (seed, t, s), independent of every other cloud,
    and a subsample of candidates from one seeded by (seed, t, number of
    sources). With box set, the stage candidate lattice uses that fixed
    box instead of the pooled bounding box. on_stage(stage) is called with
    each compress_stage result, for diagnostics collection.
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
        candidates = stage_candidates(
            clouds, spec.candidate_count, candidate_mode, margin, box,
            stage_stream(seed, t, len(marginal)),
        )
        stage = compress_stage(marginal, clouds, candidates, spec.order,
                               spec.budget, solver, started)
        if on_stage is not None:
            on_stage(stage)
        kernels.append(stage.kernel)
        deltas.append(stage.delta)
        marginals.append(stage.marginal)
    return DiscreteSystem(
        [m.support for m in marginals], kernels, marginals, deltas
    )


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


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


class _Reader:
    """A cursor over a JSON text. It walks the objects and arrays its
    caller names and hands every other value to json's own scanner, so
    what it reads means exactly what it means to json.load."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def skip(self) -> int:
        """Move past whitespace; returns the new position."""
        self.pos = _WHITESPACE.match(self.text, self.pos).end()
        return self.pos

    def _take(self, char: str) -> bool:
        if self.text.startswith(char, self.skip()):
            self.pos += 1
            return True
        return False

    def _fail(self, message: str):
        raise json.JSONDecodeError(message, self.text, self.pos)

    def value(self):
        value, self.pos = _DECODER.raw_decode(self.text, self.skip())
        return value

    def _items(self, close: str):
        # the opening bracket is taken; yield with the cursor at each item
        if self._take(close):
            return
        while True:
            yield
            if self._take(close):
                return
            if not self._take(","):
                self._fail("Expecting ',' delimiter")

    def object(self, read):
        """The object at the cursor with read(key) reading each member's
        value (the last of a repeated key wins); any other value as json
        reads it."""
        if not self._take("{"):
            return self.value()
        out = {}
        for _ in self._items("}"):
            if not self.text.startswith('"', self.skip()):
                self._fail("Expecting property name enclosed in double quotes")
            key = self.value()
            if not self._take(":"):
                self._fail("Expecting ':' delimiter")
            out[key] = read(key)
        return out

    def array(self, read):
        """The array at the cursor with read() reading each element; any
        other value as json reads it."""
        if not self._take("["):
            return self.value()
        return [read() for _ in self._items("]")]

    def end(self):
        if self.skip() != len(self.text):
            self._fail("Extra data")


def _read_system_text(text: str):
    """The system file's document, with each kernel row's support and
    weights as float64 arrays. A row support whose text repeats the previous
    row support's text is skipped and shares that row's array."""
    reader = _Reader(text)
    last = (None, None)  # the previous row support's text and its array

    def support():
        nonlocal last
        start = reader.skip()
        if last[0] is not None and text.startswith(last[0], start):
            reader.pos += len(last[0])
            return last[1]
        points = np.asarray(reader.value(), np.float64)
        if text.startswith("[", start):
            # a bracketed text ends where its value ends, so a later text
            # that begins with it holds the same value there
            last = text[start:reader.pos], points
        return points

    def row(key):
        if key == "support":
            return support()
        value = reader.value()
        return np.asarray(value, np.float64) if key == "weights" else value

    def kernel(key):
        if key == "rows":
            return reader.array(lambda: reader.object(row))
        return reader.value()

    def top(key):
        if key == "kernels":
            return reader.array(lambda: reader.object(kernel))
        return reader.value()

    data = reader.object(top)
    reader.end()
    return data


def load_system(path) -> DiscreteSystem:
    """Read a system file written from system_to_dict.

    Every row of a kernel is written on the kernel's common support, so most
    of the file is one support list repeated row after row. The reader walks
    the top object, the kernels and their rows itself; a row support whose
    text starts exactly as the previous row support's is skipped and shares
    its float64 array, so each support is decoded once and each kernel
    merges it once. Every other value is decoded by json's own scanner, and
    row weights become float64 arrays. The result equals
    system_from_dict(json.load(f)), which validates it.
    A file that is not JSON, or holds a non-numeric coordinate or weight,
    raises ValidationError naming the file.
    """
    try:
        with open(path) as fh:
            return system_from_dict(_read_system_text(fh.read()))
    except ValidationError:
        raise
    except ValueError as exc:
        # not JSON, or a coordinate or weight that is not a number
        raise ValidationError(f"system file {path}: {exc}") from None
