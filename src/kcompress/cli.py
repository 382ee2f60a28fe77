"""The `kcompress` command: generate | select | pipeline | evaluate.

A single JSON config document drives each mode; any scalar field can be
overridden on the command line with its dotted path (for example
``--solver.max_iter 200`` or ``--candidates.count=64``). Runs write their
artifacts into the output directory:

* result JSON per seed (byte-identical for identical config and seed;
  wall-clock data goes to metadata.json instead),
* per-iteration diagnostics CSV (j, dual, sum_gamma, alpha, theta0,
  elapsed_ms, primal, gap),
* summary.csv with one row per solve (dim_beta, dim_gamma, the stage's wall
  time from sampling through composition, achieved distance, duality gap,
  stop_reason; pipeline rows add the solver loop's own time as solve_s),
* with --emit-plot-data: sample/candidate/selected point CSVs and the
  nearest-assignment transport plan (i, k, mass).

KC_LOG={error,info,debug} controls logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    WEIGHT_TOL,
    DiscreteDistribution,
    distribution_to_dict,
    kernel_to_dict,
)
from .dual import SolverConfig
from .errors import ConfigError, KCompressError, ValidationError
from .generators import GaussianComponent, demo_mixture, sample_gaussian_mixture
from .pipeline import (
    GenerativeSystem,
    StageSpec,
    approximate_system,
    assignment_plan,
    compress_stage,
    load_system,
    stage_candidates,
    system_to_dict,
)
from .risk import (
    evaluate_backward,
    expectation_mapping,
    lookup,
    semideviation_mapping,
    write_values_csv,
)

log = logging.getLogger("kcompress")

_MODES = ("generate", "select", "pipeline", "evaluate")

_TOP_KEYS = {
    "mode",
    "out",
    "seeds",
    "emit_plot_data",
    "mixture",
    "candidates",
    "margin",
    "budget",
    "order",
    "solver",
    "system",
    "stages",
    "candidate_mode",
    "system_path",
    "costs",
    "mapping",
}

_SOLVER_KEYS = {
    f.name for f in dataclass_fields(SolverConfig) if f.name != "seed"
}


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _set_path(data: dict, dotted: str, value):
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(
                f"override path {dotted!r} crosses a non-object field",
                field=dotted,
            )
    node[keys[-1]] = value


def parse_overrides(tokens) -> dict:
    """Turn leftover ``--dotted.path value`` (or =value) tokens into a map."""
    overrides = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key, raw = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigError(f"flag --{key} is missing a value", field=key)
            raw = tokens[i + 1]
            i += 2
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _require(data: dict, key: str, mode: str):
    if data.get(key) is None:
        raise ConfigError(
            f"missing required field {key!r} for mode {mode}", field=key
        )
    return data[key]


def _as(kind, value, field: str):
    """value as a finite float, or for kind int as an integral int (2.0 but
    not 2.7); anything else, a bool too, is a ConfigError naming field."""
    try:
        if not isinstance(value, bool):
            number = kind(value)
            exact = kind is float or isinstance(value, str) or number == value
            if exact and math.isfinite(number):
                return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{field} must be {what}, got {value!r}", field)


def _typed(raw, kind, field: str):
    """raw when it is a kind (dict: a JSON object, list: a JSON list), an
    empty one when it is absent."""
    if raw is None:
        return kind()
    if not isinstance(raw, kind):
        name = "an object" if kind is dict else "a list"
        raise ConfigError(f"{field} must be {name}, got {raw!r}", field)
    return raw


def _floats(raw, field: str) -> np.ndarray:
    """raw as a flat array of finite floats."""
    try:
        values = np.asarray(raw, dtype=np.float64).ravel()
        if np.all(np.isfinite(values)):
            return values
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{field} must be finite numbers, got {raw!r}", field)


def _components_from(data: dict):
    if data.get("components") is None:
        return tuple(demo_mixture())
    out = []
    for i, comp in enumerate(
        _typed(data["components"], list, "mixture.components")
    ):
        try:
            out.append(GaussianComponent(comp["mean"], comp["cov"]))
        except (KeyError, TypeError, KCompressError) as exc:
            raise ConfigError(
                f"bad mixture component {i}: {exc}",
                field=f"mixture.components[{i}]",
            ) from exc
    if len({c.mean.shape for c in out}) != 1:
        raise ConfigError("mixture.components needs one or more components"
                          " of one dimension", "mixture.components")
    return tuple(out)


def _box_from(raw, field: str):
    if raw is None:
        return None
    try:
        low = np.asarray(raw[0], dtype=np.float64).ravel()
        high = np.asarray(raw[1], dtype=np.float64).ravel()
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad box {raw!r}", field=field) from exc
    if len(low) != len(high) or np.any(low >= high):
        raise ConfigError(
            f"box needs low < high per coordinate, got {raw!r}", field=field
        )
    return low, high


@dataclass
class ExperimentConfig:
    """Validated experiment description; built before any computation runs."""

    mode: str
    out: Path
    seeds: tuple
    emit_plot_data: bool
    components: tuple
    mixture_weights: np.ndarray
    samples_per_component: int
    candidate_count: int | None
    candidate_box: tuple | None
    margin: float
    budget: int | None
    order: float
    solver: dict
    system: dict | None
    stages: tuple
    candidate_mode: str
    system_path: str | None
    costs: tuple
    mapping: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigError(
                f"unknown config field {sorted(unknown)[0]!r}",
                field=sorted(unknown)[0],
            )
        mode = data.get("mode")
        if mode not in _MODES:
            raise ConfigError(
                f"mode must be one of {', '.join(_MODES)}, got {mode!r}",
                field="mode",
            )
        out = _require(data, "out", mode)
        seeds = data.get("seeds", [0])
        if not isinstance(seeds, (list, tuple)) or not seeds:
            raise ConfigError("seeds must be a nonempty list", field="seeds")
        seeds = tuple(_as(int, s, "seeds") for s in seeds)

        mixture = _typed(data.get("mixture"), dict, "mixture")
        components = _components_from(mixture)
        weights = mixture.get("weights")
        if weights is None:
            weights = np.full(len(components), 1.0 / len(components))
        else:
            weights = _floats(weights, "mixture.weights")
            if (len(weights) != len(components) or np.any(weights <= 0)
                    or abs(weights.sum() - 1.0) > WEIGHT_TOL):
                raise ConfigError(
                    "mixture.weights needs one positive weight per component,"
                    f" summing to 1; got {mixture['weights']!r}",
                    field="mixture.weights",
                )
        samples = mixture.get("samples_per_component", 100)
        samples = _as(int, samples, "mixture.samples_per_component")
        if samples < 1:
            raise ConfigError(
                "samples_per_component must be positive",
                field="mixture.samples_per_component",
            )

        cand = _typed(data.get("candidates"), dict, "candidates")
        count = cand.get("count")
        count = None if count is None else _as(int, count, "candidates.count")
        box = _box_from(cand.get("box"), "candidates.box")
        margin = _as(float, data.get("margin", 0.05), "margin")
        if margin < 0:
            raise ConfigError("margin must be >= 0", field="margin")

        budget = data.get("budget")
        budget = None if budget is None else _as(int, budget, "budget")
        order = _as(float, data.get("order", 1.0), "order")
        if order < 1:
            raise ConfigError("order must be >= 1", field="order")

        solver = dict(_typed(data.get("solver"), dict, "solver"))
        bad = set(solver) - _SOLVER_KEYS
        if bad:
            raise ConfigError(
                f"unknown solver field {sorted(bad)[0]!r}",
                field=f"solver.{sorted(bad)[0]}",
            )
        for name, value in solver.items():
            try:
                SolverConfig(**{name: value})
            except ValidationError as exc:
                raise ConfigError(f"bad solver.{name}: {exc}",
                                  f"solver.{name}") from None

        candidate_mode = data.get("candidate_mode", "lattice")
        if candidate_mode not in ("lattice", "subsample"):
            raise ConfigError(
                f"candidate_mode must be lattice or subsample, got"
                f" {candidate_mode!r}",
                field="candidate_mode",
            )

        stages = []
        for i, raw in enumerate(_typed(data.get("stages"), list, "stages")):
            at = f"stages[{i}]"
            try:
                sizes = {k: _as(int, raw[k], f"{at}.{k}") for k in (
                    "samples_per_source", "candidate_count", "budget")}
                stages.append(StageSpec(t=i, **sizes, order=_as(
                    float, raw.get("order", order), f"{at}.order")))
            except (AttributeError, KeyError, TypeError,
                    ValidationError) as exc:
                raise ConfigError(f"bad stage {i}: {exc}", at) from exc

        system = data.get("system")
        if mode == "pipeline":
            system = _typed(_require(data, "system", mode), dict, "system")
            if system.get("type") != "gaussian_walk":
                raise ConfigError(
                    f"unknown system type {system.get('type')!r}"
                    " (supported: gaussian_walk)",
                    field="system.type",
                )
            sigma = _as(float, system.get("sigma", 0), "system.sigma")
            if "x0" not in system or sigma <= 0:
                raise ConfigError(
                    "gaussian_walk needs x0 and sigma > 0", field="system"
                )
            if _floats(system["x0"], "system.x0").size == 0:
                raise ConfigError("system.x0 needs a coordinate", "system.x0")
            if not stages:
                raise ConfigError(
                    "missing required field 'stages' for mode pipeline",
                    field="stages",
                )

        if mode == "select":
            _require(data, "budget", mode)
            if count is None:
                raise ConfigError(
                    "missing required field 'candidates.count' for mode"
                    " select",
                    field="candidates.count",
                )
            if not 1 <= budget <= count:
                raise ConfigError(
                    f"budget {budget} outside [1, {count}]", field="budget"
                )
            pool = len(components) * samples
            if candidate_mode == "subsample" and count > pool:
                raise ConfigError(f"candidates.count {count} exceeds the"
                                  f" {pool} particles to subsample",
                                  "candidates.count")
        if candidate_mode == "subsample":
            # box and margin shape the lattice; a subsample never reads them
            for field, given in (("candidates.box", box is not None),
                                 ("margin", "margin" in data)):
                if given:
                    raise ConfigError(f"{field} applies to lattice candidates"
                                      " only, not subsample", field)

        mapping = (_typed(data.get("mapping"), dict, "mapping")
                   or {"type": "expectation"})
        if mapping.get("type") not in ("expectation", "semideviation"):
            raise ConfigError(
                f"unknown mapping type {mapping.get('type')!r}", field="mapping"
            )
        kappa = _as(float, mapping.get("kappa", 0.0), "mapping.kappa")
        if not 0.0 <= kappa <= 1.0:
            raise ConfigError(f"mapping.kappa must lie in [0, 1], got {kappa}",
                              "mapping.kappa")
        costs = tuple(_typed(spec, dict, f"costs[{i}]") for i, spec in
                      enumerate(_typed(data.get("costs"), list, "costs")))
        for i, spec in enumerate(costs):
            bad = set(spec) - {"affine", "norm"}
            if bad:
                raise ConfigError(
                    f"unknown cost term {sorted(bad)[0]!r}",
                    field=f"costs[{i}]",
                )
            try:
                cost_function(spec)
            except ConfigError as exc:
                raise ConfigError(f"costs[{i}].{exc}",
                                  f"costs[{i}].{exc.field}") from None
        if mode == "evaluate":
            _require(data, "system_path", mode)

        return cls(
            mode=mode,
            out=Path(out),
            seeds=seeds,
            emit_plot_data=bool(data.get("emit_plot_data", False)),
            components=components,
            mixture_weights=weights,
            samples_per_component=samples,
            candidate_count=count,
            candidate_box=box,
            margin=margin,
            budget=budget,
            order=order,
            solver=solver,
            system=system,
            stages=tuple(stages),
            candidate_mode=candidate_mode,
            system_path=data.get("system_path"),
            costs=costs,
            mapping=mapping,
        )

    def solver_config(self, seed: int) -> SolverConfig:
        return SolverConfig(**self.solver, seed=seed)


def load_config(path, overrides) -> ExperimentConfig:
    if path is None:
        data = {}
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config does not parse as JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    for dotted, value in (overrides or {}).items():
        _set_path(data, dotted, value)
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _point_rows(points, prefix=()):
    return [list(prefix) + [repr(float(c)) for c in p] for p in points]


def _coord_header(dim: int):
    return [f"x{i}" for i in range(dim)]


def _write_samples(path: Path, clouds):
    """The clouds' points, each row led by its cloud's index."""
    _write_csv(path, ["group"] + _coord_header(clouds[0].shape[1]),
               (row for s, cloud in enumerate(clouds)
                for row in _point_rows(cloud, prefix=(s,))))


def _write_stage(cfg: ExperimentConfig, tag: str, stage):
    """diagnostics_{tag}.csv for one compressed stage and, with
    emit_plot_data, its samples_/candidates_/selected_{tag}.csv."""
    result = stage.result
    # primal is the best feasible objective so far, gap its distance to the
    # best dual value so far; rows are streamed, never held
    gaps = result.history_primal - np.maximum.accumulate(result.history_dual)
    rows = (
        [
            j,
            repr(float(result.history_dual[j])),
            int(result.history_sum_gamma[j]),
            repr(float(result.history_alpha[j])),
            repr(float(result.history_theta0[j])),
            repr(float(result.history_elapsed_ms[j])),
            repr(float(result.history_primal[j])),
            repr(float(gaps[j])),
        ]
        for j in range(result.iterations)
    )
    _write_csv(
        cfg.out / f"diagnostics_{tag}.csv",
        ["j", "dual", "sum_gamma", "alpha", "theta0", "elapsed_ms", "primal",
         "gap"],
        rows,
    )
    if not cfg.emit_plot_data:
        return
    _write_samples(cfg.out / f"samples_{tag}.csv", stage.instance.clouds)
    candidates = stage.instance.candidates
    header = _coord_header(candidates.shape[1])
    _write_csv(cfg.out / f"candidates_{tag}.csv", header,
               _point_rows(candidates))
    _write_csv(cfg.out / f"selected_{tag}.csv", header,
               _point_rows(candidates[np.flatnonzero(result.gamma)]))


def _write_plan(path: Path, columns, masses):
    rows = (
        [i, int(k), repr(float(m))]
        for i, (k, m) in enumerate(zip(columns, masses))
    )
    _write_csv(path, ["i", "k", "mass"], rows)


def _write_metadata(cfg: ExperimentConfig, wall: float, extra=None):
    payload = {
        "mode": cfg.mode,
        "seeds": list(cfg.seeds),
        "version": __version__,
        "wall_time_s": wall,
        "written_utc": datetime.now(timezone.utc).isoformat(),
    }
    payload.update(extra or {})
    _write_json(cfg.out / "metadata.json", payload)


# ---------------------------------------------------------------------------
# cost grammar and risk mappings
# ---------------------------------------------------------------------------

def cost_function(spec: dict):
    """Build c(x) = offset + coeff.x + weight * |x - center|^power from the
    JSON cost grammar; an empty spec is the zero cost."""
    affine = _typed(spec.get("affine"), dict, "affine")
    norm = _typed(spec.get("norm"), dict, "norm")
    coeff = _floats(affine.get("coeff", []), "affine.coeff")
    offset = _as(float, affine.get("offset", 0.0), "affine.offset")
    center = _floats(norm.get("center", []), "norm.center")
    weight = _as(float, norm.get("weight", 1.0), "norm.weight") if norm else 0.0
    power = _as(float, norm.get("power", 1.0), "norm.power")
    if power < 0:
        raise ConfigError(f"norm.power must be >= 0, got {power!r}",
                          "norm.power")

    def cost(x):
        x = np.asarray(x, dtype=np.float64).ravel()
        value = offset
        if coeff.size:
            value += float(np.dot(coeff, x))
        if norm:
            shift = x - center if center.size else x
            value += weight * float(np.linalg.norm(shift)) ** power
        return value

    return cost


def _mapping_from(config: dict):
    if config["type"] == "expectation":
        return expectation_mapping()
    return semideviation_mapping(float(config.get("kappa", 0.0)))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _sample_clouds(cfg: ExperimentConfig, seed: int):
    return sample_gaussian_mixture(
        cfg.components, cfg.samples_per_component, seed
    )


def run_generate(cfg: ExperimentConfig):
    start = time.perf_counter()
    for seed in cfg.seeds:
        clouds = _sample_clouds(cfg, seed)
        for s, cloud in enumerate(clouds):
            _write_csv(
                cfg.out / f"cloud_{s:02d}_seed{seed}.csv",
                _coord_header(cloud.shape[1]),
                _point_rows(cloud),
            )
        # the empirical kernel: each component mean to its own cloud
        kernel = {
            "sources": [c.mean.tolist() for c in cfg.components],
            "rows": [{"support": c.tolist(), "weights": [1 / len(c)] * len(c)}
                     for c in clouds],
        }
        _write_json(cfg.out / f"empirical_kernel_seed{seed}.json", kernel)
        if cfg.emit_plot_data:
            _write_samples(cfg.out / f"samples_seed{seed}.csv", clouds)
        log.info(
            "generate seed=%d: %d clouds of %d points",
            seed,
            len(clouds),
            cfg.samples_per_component,
        )
    _write_metadata(cfg, time.perf_counter() - start)


def run_select(cfg: ExperimentConfig):
    start = time.perf_counter()
    summary = []
    marginal = DiscreteDistribution(
        [c.mean for c in cfg.components], cfg.mixture_weights
    )
    for seed in cfg.seeds:
        started = time.perf_counter()
        clouds = _sample_clouds(cfg, seed)
        # a subsample draws from the stream of the pipeline's stage 0
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0, len(clouds)))
        )
        candidates = stage_candidates(
            clouds, cfg.candidate_count, cfg.candidate_mode, cfg.margin,
            cfg.candidate_box, rng,
        )
        stage = compress_stage(marginal, clouds, candidates, cfg.order,
                               cfg.budget, cfg.solver_config(seed), started)
        instance, result = stage.instance, stage.result
        # the nearest-assignment coupling is an optimal plan between the
        # pooled clouds and the composed marginal (see assignment_plan)
        columns, masses, costs = assignment_plan(instance, result.beta_assignment)
        plan_value = float(np.sum(masses * costs))
        composed_distance = (
            plan_value ** (1.0 / cfg.order) if plan_value > 0 else 0.0
        )

        payload = {
            "assignment": [a.tolist() for a in result.beta_assignment],
            "best_dual": float(result.best_dual),
            "budget": cfg.budget,
            "composed_distance": float(composed_distance),
            "converged": bool(result.converged),
            "dim_beta": instance.dim_beta,
            "dim_gamma": instance.dim_gamma,
            "distance": float(stage.delta),
            "gamma": result.gamma.tolist(),
            "gap": float(result.gap),
            "iterations": int(result.iterations),
            "objective": float(result.objective),
            "order": cfg.order,
            "seed": seed,
            "selected_distribution": distribution_to_dict(stage.marginal),
            "selected_indices": np.flatnonzero(result.gamma).tolist(),
            "stop_reason": result.stop_reason,
            "sum_gamma": int(result.gamma.sum()),
        }
        _write_json(cfg.out / f"result_seed{seed}.json", payload)
        _write_stage(cfg, f"seed{seed}", stage)
        summary.append([
            seed, instance.dim_beta, instance.dim_gamma,
            repr(round(stage.wall_s, 6)), repr(float(stage.delta)),
            repr(float(result.gap)), result.stop_reason,
        ])
        if cfg.emit_plot_data:
            _write_plan(cfg.out / f"plan_seed{seed}.csv", columns, masses)
        log.info(
            "select seed=%d: distance=%.6f gap=%.3e (%s) sum_gamma=%d"
            " wall=%.2fs", seed, stage.delta, result.gap, result.stop_reason,
            int(result.gamma.sum()), stage.wall_s,
        )
    _write_csv(
        cfg.out / "summary.csv",
        ["seed", "dim_beta", "dim_gamma", "wall_time_s", "distance", "gap",
         "stop_reason"],
        summary,
    )
    _write_metadata(cfg, time.perf_counter() - start)


def _walk_system(spec: dict) -> GenerativeSystem:
    x0 = np.asarray(spec["x0"], dtype=np.float64).ravel()
    sigma = float(spec["sigma"])

    def sampler(t, source, n, rng):
        return source + sigma * rng.standard_normal((n, len(x0)))

    return GenerativeSystem(x0, sampler)


def run_pipeline(cfg: ExperimentConfig):
    start = time.perf_counter()
    summary = []
    for seed in cfg.seeds:
        stages = []
        t0 = time.perf_counter()
        approx = approximate_system(
            _walk_system(cfg.system),
            cfg.stages,
            cfg.solver_config(seed),
            candidate_mode=cfg.candidate_mode,
            margin=cfg.margin,
            box=cfg.candidate_box,
            on_stage=stages.append,
        )
        wall = time.perf_counter() - t0
        _write_json(
            cfg.out / f"system_seed{seed}.json", system_to_dict(approx)
        )
        for t, stage in enumerate(stages):
            _write_json(
                cfg.out / f"stage_{t}_seed{seed}.json",
                {
                    "delta": float(stage.delta),
                    "kernel": kernel_to_dict(stage.kernel),
                    "marginal": distribution_to_dict(stage.marginal),
                    "support": stage.marginal.support.tolist(),
                },
            )
            _write_stage(cfg, f"stage{t}_seed{seed}", stage)
            result = stage.result
            solve = float(result.history_elapsed_ms[-1]) / 1000.0
            summary.append([
                seed, t, stage.instance.dim_beta, stage.instance.dim_gamma,
                repr(round(stage.wall_s, 6)), repr(round(solve, 6)),
                repr(float(stage.delta)), repr(float(result.gap)),
                result.stop_reason,
            ])
            log.info(
                "pipeline seed=%d stage=%d: delta=%.6f gap=%.3e (%s)"
                " support=%d", seed, t, stage.delta, result.gap,
                result.stop_reason, len(stage.marginal),
            )
        log.info("pipeline seed=%d: wall=%.2fs", seed, wall)
    _write_csv(
        cfg.out / "summary.csv",
        ["seed", "stage", "dim_beta", "dim_gamma", "wall_time_s", "solve_s",
         "delta", "gap", "stop_reason"],
        summary,
    )
    _write_metadata(cfg, time.perf_counter() - start)


def run_evaluate(cfg: ExperimentConfig):
    start = time.perf_counter()
    system = load_system(cfg.system_path)
    decoded = time.perf_counter()
    horizon = system.horizon
    specs = cfg.costs
    if len(specs) == 0:
        specs = ({},) * (horizon + 1)
    elif len(specs) == 1:
        specs = tuple(specs) * (horizon + 1)
    elif len(specs) != horizon + 1:
        raise ConfigError(
            f"need 1 or {horizon + 1} cost entries for a {horizon}-stage"
            f" system, got {len(specs)}",
            field="costs",
        )
    dim = system.supports[0].shape[1]
    for i, spec in enumerate(cfg.costs):
        for term, key in (("affine", "coeff"), ("norm", "center")):
            raw = (spec.get(term) or {}).get(key, [])
            if np.shape(raw) not in ((dim,), (0,)):
                raise ConfigError(f"costs[{i}] {term}.{key} needs {dim}"
                                  f" numbers, got {raw!r}", f"costs[{i}]")
    costs = [cost_function(spec) for spec in specs]
    sigma = _mapping_from(cfg.mapping)
    evaluating = time.perf_counter()
    values = evaluate_backward(system, costs, sigma)
    writing = time.perf_counter()
    write_values_csv(cfg.out / "values.csv", system.supports, values)
    root = system.supports[0][:1]
    payload = {
        "mapping": sigma.name,
        "root_state": root[0].tolist(),
        "root_value": float(values[0][lookup(system.supports[0], root, 0)[0]]),
        "stages": horizon,
    }
    _write_json(cfg.out / "evaluate_result.json", payload)
    log.info(
        "evaluate: stages=%d mapping=%s root_value=%.6f",
        horizon,
        sigma.name,
        payload["root_value"],
    )
    end = time.perf_counter()
    phases = {
        "decode_s": decoded - start,
        "evaluate_s": writing - evaluating,
        "write_s": end - writing,
    }
    _write_metadata(cfg, end - start, {
        "phases": phases,
        "system_bytes": Path(cfg.system_path).stat().st_size,
        "kernel_rows": sum(len(kernel) for kernel in system.kernels),
    })


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_experiment(config_path, overrides=None) -> int:
    """Load, validate, and execute one experiment config; returns 0."""
    cfg = load_config(config_path, overrides)
    cfg.out.mkdir(parents=True, exist_ok=True)
    runner = {
        "generate": run_generate,
        "select": run_select,
        "pipeline": run_pipeline,
        "evaluate": run_evaluate,
    }[cfg.mode]
    runner(cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcompress",
        description="Compress empirical Markov kernels onto small supports.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode, help=f"run an experiment in {mode} mode")
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="single seed")
        p.add_argument(
            "--threads", type=int, default=None, help="solver worker threads"
        )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--emit-plot-data",
            action="store_true",
            help="write sample/candidate/selected CSVs",
        )
    return parser


def _configure_logging():
    level = os.environ.get("KC_LOG", "info").lower()
    chosen = {
        "error": logging.ERROR,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(level, logging.INFO)
    logging.basicConfig(level=chosen, format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
        overrides["mode"] = args.mode
        if args.seed is not None:
            overrides["seeds"] = [args.seed]
        if args.threads is not None:
            overrides["solver.threads"] = args.threads
        if args.out is not None:
            overrides["out"] = args.out
        if args.emit_plot_data:
            overrides["emit_plot_data"] = True
        return run_experiment(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KCompressError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
