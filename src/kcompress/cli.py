"""The `kcompress` command: generate | select | pipeline | evaluate.

A single JSON config document drives each mode; any scalar field can be
overridden on the command line with its dotted path (for example
``--solver.max_iter 200`` or ``--candidates.count=64``). Each mode has its
own config type and accepts only the keys it reads. Runs write their
artifacts into the output directory:

* result JSON per seed (byte-identical for identical config and seed;
  wall-clock data goes to metadata.json instead),
* per-iteration diagnostics CSV (j, dual, sum_gamma, alpha, theta0,
  elapsed_ms, primal, gap),
* summary.csv with one row per compressed stage, in one schema for select
  and pipeline (_SUMMARY),
* with --emit-plot-data: sample/candidate/selected point CSVs and, from
  select only, the nearest-assignment transport plan (i, k, mass).

Options and overrides may come before or after MODE. Each solve, stage
or evaluation prints an INFO line on stderr unless KC_LOG=error, which is
read at every line.
"""

from __future__ import annotations

import argparse
import json
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
    _numbers,
    decode_system,
    distribution_to_dict,
    read_system_file,
    rows_to_dict,
    system_to_dict,
    write_csv,
)
from .dual import SolverConfig
from .errors import ConfigError, KCompressError, ValidationError
from .generators import GaussianComponent, demo_mixture, sample_gaussian_mixture
from .pipeline import (
    GenerativeSystem,
    StageRule,
    StageSpec,
    approximate_system,
    assignment_plan,
    compress_stage,
    stage_stream,
)
from .risk import (
    Cost,
    RiskMapping,
    evaluate_backward,
    expectation_mapping,
    lookup,
    semideviation_mapping,
    write_values_csv,
)

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
    """Turn leftover ``--dotted.path value`` (or =value) tokens into a map.
    The first token that is neither a --key nor that key's value is MODE,
    kept as the ``mode`` field; a second such token is an error."""
    overrides = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            if "mode" in overrides:
                raise ConfigError(f"unexpected argument {token!r}")
            overrides["mode"] = token
            i += 1
            continue
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


def _require(data: dict, key: str, mode: str, at: str = ""):
    if data.get(key) is None:
        raise ConfigError(
            f"missing required field {at + key!r} for mode {mode}", at + key
        )
    return data[key]


def _as(kind, value, field: str):
    """value, a number (core._numbers), as a finite float or, for kind int,
    an integral int (2.0 but not 2.7); else a ConfigError naming field."""
    try:
        number = kind(_numbers(value))
        if (kind is float or number == value) and math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{field} must be {what}, got {value!r}", field)


def _typed(raw, kind, field: str):
    """raw when it is a kind (dict: a JSON object, list: a JSON list, str,
    bool), an empty one (False for bool) when it is absent."""
    if raw is None:
        return kind()
    if not isinstance(raw, kind):
        name = {dict: "an object", list: "a list", str: "a string",
                bool: "true or false"}[kind]
        raise ConfigError(f"{field} must be {name}, got {raw!r}", field)
    return raw


def _object(raw, field: str, keys: str, mode: str) -> dict:
    """raw, the object at field ("" for the root), as a dict (empty when
    absent) that sets no key but keys (space-separated), those mode reads;
    another key is a ConfigError naming its dotted path."""
    data = _typed(raw, dict, field)
    unknown = sorted(set(data) - set(keys.split()))
    if unknown:
        raise _unknown(f"{field}.{unknown[0]}" if field else unknown[0], mode)
    return data


def _unknown(path: str, mode: str) -> ConfigError:
    return ConfigError(f"unknown config field {path!r} for mode {mode}", path)


def _floats(raw, field: str, shape: tuple, message: str = "") -> np.ndarray:
    """raw, numbers (core._numbers), as a float64 array of finite values in
    shape, where None is a dimension d of any length; anything else is a
    ConfigError naming field, with message or one that gives the shape."""
    try:
        values = np.asarray(_numbers(raw), dtype=np.float64)
        if (values.ndim == len(shape) and np.all(np.isfinite(values)) and all(
                n in (None, m) for n, m in zip(shape, values.shape))):
            return values
    except (ValueError, OverflowError):  # not numbers, ragged, past float64
        pass
    raise ConfigError(message or f"{field} must be finite numbers in shape"
                      f" {str(shape).replace('None', 'd')}, got {raw!r}", field)


def _components_from(data: dict):
    if data.get("components") is None:
        return tuple(demo_mixture())
    out = []
    components = _typed(data["components"], list, "mixture.components")
    for i, comp in enumerate(components):
        at = f"mixture.components[{i}]"
        try:
            mean = _floats(comp["mean"], at + ".mean", (None,))
            out.append(GaussianComponent(mean, _floats(
                comp["cov"], at + ".cov", (mean.size, mean.size))))
        except (KeyError, TypeError, ValidationError) as exc:
            raise ConfigError(f"bad mixture component {i}: {exc}", at) from exc
    if len({c.mean.shape for c in out}) != 1:
        raise ConfigError("mixture.components needs one or more components"
                          " of one dimension", "mixture.components")
    return tuple(out)


def _out(data: dict, mode: str) -> Path:
    out = _typed(_require(data, "out", mode), str, "out")
    if not out:
        raise ConfigError(f"out must be a nonempty string, got {out!r}", "out")
    return Path(out)


def _run(data: dict, mode: str, keys: str) -> dict:
    """out, seeds and emit_plot_data, which every mode that samples reads,
    once data sets no top-level key but those, mode and keys."""
    _object(data, "", "mode out seeds emit_plot_data " + keys, mode)
    out = _out(data, mode)
    emit_plot_data = _typed(data.get("emit_plot_data"), bool,
                            "emit_plot_data")
    seeds = data.get("seeds", [0])
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError("seeds must be a nonempty list", field="seeds")
    seeds = tuple(_as(int, s, "seeds") for s in seeds)
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be distinct integers >= 0, got"
                          f" {data['seeds']!r}", "seeds")
    return {"out": out, "seeds": seeds, "emit_plot_data": emit_plot_data}


def _mixture(data: dict, mode: str, keys: str):
    """The mixture object, its components (the built-in five when it names
    none) and its samples_per_component."""
    mixture = _object(data.get("mixture"), "mixture", keys, mode)
    samples = _as(int, mixture.get("samples_per_component", 100),
                  "mixture.samples_per_component")
    if samples < 1:
        raise ConfigError("samples_per_component must be positive",
                          "mixture.samples_per_component")
    return mixture, _components_from(mixture), samples


# the top-level keys _stage_fields reads, in both modes that compress stages
_STAGE_KEYS = " candidates margin order solver candidate_mode"


def _stage_fields(data: dict, candidates: dict):
    """What select and pipeline read alike to compress a stage: the
    StageRule of candidate_mode, candidates.box, margin and solver (each
    absent key at the rule's default), and the order a stage takes unless
    it sets its own."""
    margin = _as(float, data.get("margin", StageRule.margin), "margin")
    if margin < 0:
        raise ConfigError("margin must be >= 0", field="margin")
    order = _as(float, data.get("order", 1.0), "order")
    if order < 1:
        raise ConfigError("order must be >= 1", field="order")
    solver = _typed(data.get("solver"), dict, "solver")
    bad = sorted(set(solver) - {f.name for f in dataclass_fields(SolverConfig)
                                if f.name != "seed"})
    if bad:
        raise ConfigError(f"unknown solver field {bad[0]!r}",
                          f"solver.{bad[0]}")
    for name, value in solver.items():
        try:
            SolverConfig(**{name: value})
        except ValidationError as exc:
            raise ConfigError(f"bad solver.{name}: {exc}",
                              f"solver.{name}") from None
    candidate_mode = data.get("candidate_mode", StageRule.candidate_mode)
    if candidate_mode not in ("lattice", "subsample"):
        raise ConfigError("candidate_mode must be lattice or subsample, got"
                          f" {candidate_mode!r}", "candidate_mode")
    box = candidates.get("box")
    if box is not None:
        low, high = _floats(box, "candidates.box", (2, None),
                            f"bad box {box!r}")
        if np.any(low >= high):
            raise ConfigError("box needs low < high per coordinate, got"
                              f" {box!r}", "candidates.box")
        box = tuple(low.tolist()), tuple(high.tolist())
    return (StageRule(candidate_mode, margin, box, SolverConfig(**solver)),
            order)


def _check_candidates(data: dict, rule: StageRule, dim: int, field: str,
                      count: int, pool: int):
    """Refuse, for a subsample, more candidates (count, named by field)
    than the pool of particles, and box or margin, which it never reads;
    and a box whose corners do not have dim coordinates."""
    box = rule.box
    if rule.candidate_mode == "subsample":
        if count > pool:
            raise ConfigError(f"{field} {count} exceeds the {pool} particles"
                              " to subsample", field)
        for key, given in (("candidates.box", box is not None),
                           ("margin", "margin" in data)):
            if given:
                raise ConfigError(f"{key} applies to lattice candidates"
                                  " only, not subsample", key)
    if box is not None and len(box[0]) != dim:
        raise ConfigError(f"candidates.box corners need {dim} coordinates,"
                          f" got {len(box[0])}", "candidates.box")


@dataclass(frozen=True)
class GenerateConfig:
    """A checked generate config: the mixture to sample and its seeds."""

    mode = "generate"
    out: Path
    seeds: tuple
    emit_plot_data: bool
    components: tuple
    samples_per_component: int

    @classmethod
    def from_dict(cls, data: dict) -> "GenerateConfig":
        run = _run(data, cls.mode, "mixture")
        _, components, samples = _mixture(
            data, cls.mode, "components samples_per_component")
        return cls(**run, components=components,
                   samples_per_component=samples)


@dataclass(frozen=True)
class SelectConfig:
    """A checked select config: the mixture and its one stage, whose
    samples_per_source is the mixture's samples_per_component."""

    mode = "select"
    out: Path
    seeds: tuple
    emit_plot_data: bool
    components: tuple
    mixture_weights: np.ndarray
    stage: StageSpec
    rule: StageRule

    @classmethod
    def from_dict(cls, data: dict) -> "SelectConfig":
        run = _run(data, cls.mode, "mixture budget" + _STAGE_KEYS)
        mixture, components, samples = _mixture(
            data, cls.mode, "components weights samples_per_component")
        raw = mixture.get("weights")
        n = len(components)
        weights = (np.full(n, 1.0 / n) if raw is None
                   else _floats(raw, "mixture.weights", (n,)))
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise ConfigError("mixture.weights needs one positive weight per"
                              f" component, summing to 1; got {raw!r}",
                              "mixture.weights")
        candidates = _object(data.get("candidates"), "candidates",
                             "count box", cls.mode)
        rule, order = _stage_fields(data, candidates)
        count = _as(int, _require(candidates, "count", cls.mode,
                                  "candidates."), "candidates.count")
        budget = _as(int, _require(data, "budget", cls.mode), "budget")
        if not 1 <= budget <= count:
            raise ConfigError(f"budget {budget} outside [1, {count}]",
                              "budget")
        _check_candidates(data, rule, components[0].dim, "candidates.count",
                          count, len(components) * samples)
        return cls(**run, components=components, mixture_weights=weights,
                   stage=StageSpec(samples, count, budget, order), rule=rule)


@dataclass(frozen=True)
class PipelineConfig:
    """A checked pipeline config: the sampled system and its stages."""

    mode = "pipeline"
    out: Path
    seeds: tuple
    emit_plot_data: bool
    system: GenerativeSystem
    stages: tuple
    rule: StageRule

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        run = _run(data, cls.mode, "system stages" + _STAGE_KEYS)
        rule, order = _stage_fields(data, _object(
            data.get("candidates"), "candidates", "box", cls.mode))
        stages = []
        for i, raw in enumerate(_typed(data.get("stages"), list, "stages")):
            at = f"stages[{i}]"
            raw = _object(raw, at, "samples_per_source candidate_count budget"
                          " order", cls.mode)
            try:
                sizes = {k: _as(int, raw[k], f"{at}.{k}") for k in (
                    "samples_per_source", "candidate_count", "budget")}
                stages.append(StageSpec(**sizes, order=_as(
                    float, raw.get("order", order), f"{at}.order")))
            except (KeyError, ValidationError) as exc:
                raise ConfigError(f"bad stage {i}: {exc}", at) from exc
        system = _object(_require(data, "system", cls.mode), "system",
                         "type x0 sigma", cls.mode)
        if system.get("type") != "gaussian_walk":
            raise ConfigError(f"unknown system type {system.get('type')!r}"
                              " (supported: gaussian_walk)", "system.type")
        sigma = _as(float, system.get("sigma", 0), "system.sigma")
        if "x0" not in system or sigma <= 0:
            raise ConfigError("gaussian_walk needs x0 and sigma > 0", "system")
        x0 = _floats(system["x0"], "system.x0", (None,))
        if x0.size == 0:
            raise ConfigError("system.x0 needs a coordinate", "system.x0")
        if not stages:
            raise ConfigError(
                "missing required field 'stages' for mode pipeline", "stages")
        # stage 0 has one source, x0, so its pool is its sample count;
        # later pools hang on the support each stage keeps
        _check_candidates(data, rule, x0.size, "stages[0].candidate_count",
                          stages[0].candidate_count,
                          stages[0].samples_per_source)

        def walk(t, source, n, rng):
            return source + sigma * rng.standard_normal((n, x0.size))

        return cls(**run, system=GenerativeSystem(x0, walk),
                   stages=tuple(stages), rule=rule)


@dataclass(frozen=True)
class EvaluateConfig:
    """A checked evaluate config: the system file, its costs, the mapping."""

    mode = "evaluate"
    out: Path
    system_path: str
    costs: tuple
    mapping: RiskMapping

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluateConfig":
        _object(data, "", "mode out system_path costs mapping", cls.mode)
        out = _out(data, cls.mode)
        system_path = _typed(_require(data, "system_path", cls.mode), str,
                             "system_path")
        mapping = (_object(data.get("mapping"), "mapping", "type kappa",
                           cls.mode) or {"type": "expectation"})
        if mapping.get("type") not in ("expectation", "semideviation"):
            raise ConfigError(f"unknown mapping type {mapping.get('type')!r}",
                              "mapping")
        if mapping["type"] == "expectation" and "kappa" in mapping:
            raise ConfigError("mapping.kappa applies to semideviation only,"
                              " not expectation", "mapping.kappa")
        kappa = _as(float, mapping.get("kappa", 0.0), "mapping.kappa")
        if not 0.0 <= kappa <= 1.0:
            raise ConfigError(f"mapping.kappa must lie in [0, 1], got {kappa}",
                              "mapping.kappa")
        costs = []
        for i, spec in enumerate(_typed(data.get("costs"), list, "costs")):
            spec = _typed(spec, dict, f"costs[{i}]")
            bad = sorted(set(spec) - {"affine", "norm"})
            if bad:
                raise ConfigError(f"unknown cost term {bad[0]!r}",
                                  f"costs[{i}]")
            for term, keys in (("affine", "coeff offset"),
                               ("norm", "center weight power")):
                _object(spec.get(term), f"costs[{i}].{term}", keys, cls.mode)
            try:
                costs.append(cost_function(spec))
            except ConfigError as exc:
                raise ConfigError(f"costs[{i}].{exc}",
                                  f"costs[{i}].{exc.field}") from None
        return cls(out, system_path, tuple(costs),
                   expectation_mapping() if mapping["type"] == "expectation"
                   else semideviation_mapping(kappa))


def load_config(path, overrides):
    """The checked config of the mode that the mode field names, from the
    JSON file at path (an empty one when path is None) with overrides."""
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
    mode = data.get("mode")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {', '.join(_MODES)}, got"
                          f" {mode!r}", "mode")
    config, _ = _MODES[mode]
    return config.from_dict(data)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _coord_header(dim: int):
    return [f"x{i}" for i in range(dim)]


def _write_points(path: Path, points):
    write_csv(path, _coord_header(points.shape[1]), zip(*points.T.tolist()))


def _write_samples(path: Path, clouds):
    """The clouds' points, each row led by its cloud's index."""
    groups = np.repeat(np.arange(len(clouds)), [len(c) for c in clouds])
    write_csv(path, ["group"] + _coord_header(clouds[0].shape[1]),
              zip(groups.tolist(), *np.concatenate(clouds).T.tolist()))


# select's one stage is stage 0; wall_time_s runs from the stage's sampling
# through its composition, solve_s is the solver loop alone
_SUMMARY = ["seed", "stage", "dim_beta", "dim_gamma", "wall_time_s",
            "solve_s", "distance", "gap", "stop_reason"]


def _write_stage(cfg: SelectConfig | PipelineConfig, tag: str, seed: int,
                 t: int, stage) -> tuple:
    """diagnostics_{tag}.csv for stage t of seed's run and, with
    emit_plot_data, its samples_/candidates_/selected_{tag}.csv; returns
    the stage's summary.csv row."""
    result = stage.result
    # primal is the best feasible objective so far, gap its distance to the
    # best dual value so far; rows are streamed, never held
    gaps = result.history_primal - np.maximum.accumulate(result.history_dual)
    rows = zip(
        range(result.iterations),
        *(column.tolist() for column in (
            result.history_dual, result.history_sum_gamma,
            result.history_alpha, result.history_theta0,
            result.history_elapsed_ms, result.history_primal, gaps,
        )),
    )
    write_csv(
        cfg.out / f"diagnostics_{tag}.csv",
        ["j", "dual", "sum_gamma", "alpha", "theta0", "elapsed_ms", "primal",
         "gap"],
        rows,
    )
    if cfg.emit_plot_data:
        _write_samples(cfg.out / f"samples_{tag}.csv", stage.instance.clouds)
        candidates = stage.instance.candidates
        _write_points(cfg.out / f"candidates_{tag}.csv", candidates)
        _write_points(cfg.out / f"selected_{tag}.csv",
                      candidates[np.flatnonzero(result.gamma)])
    solve = float(result.history_elapsed_ms[-1]) / 1000.0
    return (seed, t, stage.instance.dim_beta, stage.instance.dim_gamma,
            round(stage.wall_s, 6), round(solve, 6), float(stage.delta),
            float(result.gap), result.stop_reason)


def _write_metadata(cfg, wall: float, extra: dict):
    _write_json(cfg.out / "metadata.json", {
        "mode": cfg.mode, "version": __version__, "wall_time_s": wall,
        "written_utc": datetime.now(timezone.utc).isoformat(), **extra})


def _write_summary(cfg: SelectConfig | PipelineConfig, start: float,
                   phases: dict, summary: list):
    """summary.csv, its time added to write_s, then metadata.json."""
    writing = time.perf_counter()
    write_csv(cfg.out / "summary.csv", _SUMMARY, summary)
    end = time.perf_counter()
    phases["write_s"] += end - writing
    _write_metadata(cfg, end - start,
                    {"seeds": list(cfg.seeds), "phases": phases})


# ---------------------------------------------------------------------------
# cost grammar and risk mappings
# ---------------------------------------------------------------------------

def cost_function(spec: dict) -> Cost:
    """spec, in the JSON cost grammar, as a Cost; {} is the zero cost."""
    affine = _typed(spec.get("affine"), dict, "affine")
    norm = _typed(spec.get("norm"), dict, "norm")
    coeff = _floats(affine.get("coeff", []), "affine.coeff", (None,))
    offset = _as(float, affine.get("offset", 0.0), "affine.offset")
    center = _floats(norm.get("center", []), "norm.center", (None,))
    weight = _as(float, norm.get("weight", 1.0), "norm.weight")
    power = _as(float, norm.get("power", 1.0), "norm.power")
    if power < 0:
        raise ConfigError(f"norm.power must be >= 0, got {power!r}",
                          "norm.power")
    # an empty norm object is the default term 1 * |x - 0|^1, not no term
    return Cost(offset, coeff, center, weight, power,
                spec.get("norm") is not None)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _log(message: str, *args):
    """One progress line, message % args, on stderr unless KC_LOG is error
    (read at every call)."""
    if os.environ.get("KC_LOG", "info").lower() != "error":
        print("INFO " + message % args, file=sys.stderr)


def run_generate(cfg: GenerateConfig, start: float):
    for seed in cfg.seeds:
        clouds = sample_gaussian_mixture(cfg.components,
                                         cfg.samples_per_component, seed)
        for s, cloud in enumerate(clouds):
            _write_points(cfg.out / f"cloud_{s:02d}_seed{seed}.csv", cloud)
        # the empirical kernel: each component mean to its own cloud
        kernel = rows_to_dict([c.mean.tolist() for c in cfg.components],
                              ((c.tolist(), [1 / len(c)] * len(c))
                               for c in clouds))
        _write_json(cfg.out / f"empirical_kernel_seed{seed}.json", kernel)
        if cfg.emit_plot_data:
            _write_samples(cfg.out / f"samples_seed{seed}.csv", clouds)
        _log(
            "generate seed=%d: %d clouds of %d points",
            seed,
            len(clouds),
            cfg.samples_per_component,
        )
    _write_metadata(cfg, time.perf_counter() - start,
                    {"seeds": list(cfg.seeds)})


def _phases(start: float) -> dict:
    """Seconds spent in each part of a select or pipeline run: config_s to
    read and check the config (up to now), stage_s to compress the stages
    and write_s to form and write the artifacts but metadata.json."""
    return {"config_s": time.perf_counter() - start, "stage_s": 0.0,
            "write_s": 0.0}


def run_select(cfg: SelectConfig, start: float):
    phases = _phases(start)
    summary = []
    marginal = DiscreteDistribution(
        [c.mean for c in cfg.components], cfg.mixture_weights
    )
    for seed in cfg.seeds:
        started = time.perf_counter()
        clouds = sample_gaussian_mixture(cfg.components,
                                         cfg.stage.samples_per_source, seed)
        # a subsample draws from the stream of the pipeline's stage 0
        stage = compress_stage(marginal, clouds, cfg.stage, cfg.rule,
                               stage_stream(seed, 0, len(clouds)), started)
        phases["stage_s"] += stage.wall_s
        writing = time.perf_counter()
        instance, result = stage.instance, stage.result
        # the nearest-assignment coupling is an optimal plan between the
        # pooled clouds and the composed marginal (see assignment_plan)
        columns, masses, costs = assignment_plan(stage)
        plan_value = float(np.sum(masses * costs))
        composed_distance = (
            plan_value ** (1.0 / cfg.stage.order) if plan_value > 0 else 0.0
        )

        payload = {
            "assignment": [a.tolist() for a in np.split(
                result.beta_assignment, np.cumsum(instance.sizes)[:-1])],
            "best_dual": float(result.best_dual),
            "budget": cfg.stage.budget,
            "composed_distance": float(composed_distance),
            "converged": bool(result.converged),
            "dim_beta": instance.dim_beta,
            "dim_gamma": instance.dim_gamma,
            "distance": float(stage.delta),
            "gamma": result.gamma.tolist(),
            "gap": float(result.gap),
            "iterations": int(result.iterations),
            "objective": float(result.objective),
            "order": cfg.stage.order,
            "seed": seed,
            "selected_distribution": distribution_to_dict(stage.marginal),
            "selected_indices": np.flatnonzero(result.gamma).tolist(),
            "stop_reason": result.stop_reason,
            "sum_gamma": int(result.gamma.sum()),
        }
        _write_json(cfg.out / f"result_seed{seed}.json", payload)
        summary.append(_write_stage(cfg, f"seed{seed}", seed, 0, stage))
        if cfg.emit_plot_data:
            write_csv(cfg.out / f"plan_seed{seed}.csv", ["i", "k", "mass"],
                      zip(range(len(columns)), columns.tolist(),
                          masses.tolist()))
        phases["write_s"] += time.perf_counter() - writing
        _log(
            "select seed=%d: distance=%.6f gap=%.3e (%s) sum_gamma=%d"
            " wall=%.2fs", seed, stage.delta, result.gap, result.stop_reason,
            int(result.gamma.sum()), stage.wall_s,
        )
    _write_summary(cfg, start, phases, summary)


def run_pipeline(cfg: PipelineConfig, start: float):
    phases = _phases(start)
    summary = []
    for seed in cfg.seeds:
        stages = []
        t0 = time.perf_counter()
        approx = approximate_system(cfg.system, cfg.stages, cfg.rule,
                                    seed=seed, on_stage=stages.append)
        writing = time.perf_counter()
        wall = writing - t0
        phases["stage_s"] += wall
        _write_json(
            cfg.out / f"system_seed{seed}.json", system_to_dict(approx)
        )
        for t, stage in enumerate(stages):
            summary.append(
                _write_stage(cfg, f"stage{t}_seed{seed}", seed, t, stage))
            _log(
                "pipeline seed=%d stage=%d: delta=%.6f gap=%.3e (%s)"
                " support=%d", seed, t, stage.delta, stage.result.gap,
                stage.result.stop_reason, len(stage.marginal),
            )
        phases["write_s"] += time.perf_counter() - writing
        _log("pipeline seed=%d: wall=%.2fs", seed, wall)
    _write_summary(cfg, start, phases, summary)


def run_evaluate(cfg: EvaluateConfig, start: float):
    reading = time.perf_counter()
    text = read_system_file(cfg.system_path)
    loading = time.perf_counter()
    system = decode_system(text, cfg.system_path)
    del text  # the file's text is not needed past the decode
    decoded = time.perf_counter()
    horizon = system.horizon
    costs = cfg.costs or (cost_function({}),)  # the zero cost at each stage
    if len(costs) not in (1, horizon + 1):
        raise ConfigError(f"need 1 or {horizon + 1} cost entries for a"
                          f" {horizon}-stage system, got {len(costs)}",
                          "costs")
    if len(costs) == 1:
        costs *= horizon + 1
    dim = system.dim
    for i, cost in enumerate(cfg.costs):
        for term, key in (("affine", "coeff"), ("norm", "center")):
            if getattr(cost, key).size not in (dim, 0):
                raise ConfigError(f"costs[{i}] {term}.{key} needs {dim}"
                                  " numbers or none", f"costs[{i}]")
    evaluating = time.perf_counter()
    values = evaluate_backward(system, costs, cfg.mapping)
    writing = time.perf_counter()
    write_values_csv(cfg.out / "values.csv", system.supports, values)
    root = system.supports[0][:1]
    payload = {
        "mapping": cfg.mapping.name,
        "root_state": root[0].tolist(),
        "root_value": float(values[0][lookup(system.supports[0], root, 0)[0]]),
        "stages": horizon,
    }
    _write_json(cfg.out / "evaluate_result.json", payload)
    _log(
        "evaluate: stages=%d mapping=%s root_value=%.6f",
        horizon,
        cfg.mapping.name,
        payload["root_value"],
    )
    end = time.perf_counter()
    phases = {
        "read_s": loading - reading,
        "decode_s": decoded - loading,
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

# each mode's config type and the function that runs it
_MODES = {config.mode: (config, run) for config, run in (
    (GenerateConfig, run_generate), (SelectConfig, run_select),
    (PipelineConfig, run_pipeline), (EvaluateConfig, run_evaluate))}


def run_experiment(config_path, overrides=None) -> int:
    """Load, validate, and execute one experiment config; returns 0.

    A run that fails before its first artifact removes the directories it
    made for it; a directory that was there before stays."""
    start = time.perf_counter()
    cfg = load_config(config_path, overrides)
    made = [path for path in (cfg.out, *cfg.out.parents) if not path.exists()]
    cfg.out.mkdir(parents=True, exist_ok=True)
    _, runner = _MODES[cfg.mode]
    try:
        runner(cfg, start)
    except BaseException:
        for path in made:  # innermost first
            if any(path.iterdir()):
                break
            path.rmdir()
        raise
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcompress",
        usage="%(prog)s [options] {" + ",".join(_MODES)
        + "} [--dotted.key VALUE ...]",
        description="Compress empirical Markov kernels onto small supports.",
    )
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="single seed")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="solver.threads (select, pipeline; checked, not used by the"
        " solver)"
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--emit-plot-data",
        action="store_true",
        help="write sample/candidate/selected CSVs",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
        mode = overrides.get("mode")
        if mode not in _MODES:
            parser.error(
                "the following arguments are required: mode" if mode is None
                else f"argument mode: invalid choice: {mode!r} (choose from "
                f"{', '.join(map(repr, _MODES))})"
            )
        if args.seed is not None:
            overrides["seeds"] = [args.seed]
        if args.threads is not None:
            # named by the key it writes, which a mode's stage rule holds
            if "rule" not in _MODES[mode][0].__dataclass_fields__:
                raise _unknown("solver.threads", mode)
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
