import contextlib
import csv
import importlib.util
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import csv_module_bytes, ragged_system_dict
from kcompress import cli, risk
from kcompress.cli import (
    cost_function,
    load_config,
    main,
    parse_overrides,
)
from kcompress.core import DiscreteDistribution, write_csv
from kcompress.dual import SolverConfig
from kcompress.errors import ConfigError
from kcompress.generators import sample_gaussian_mixture
from kcompress.pipeline import StageRule, StageSpec, compress_stage, stage_stream
from kcompress.transport import wasserstein_exact


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def select_config(out, seeds=(3,), k=24, m=6, n=25, max_iter=150):
    return {
        "mode": "select",
        "out": str(out),
        "seeds": list(seeds),
        "mixture": {"samples_per_component": n},
        "candidates": {"count": k, "box": [[-12, -12], [12, 12]]},
        "budget": m,
        "order": 1,
        "solver": {"max_iter": max_iter},
    }


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# select and pipeline write one summary.csv schema, a row per stage
SUMMARY_HEADER = ["seed", "stage", "dim_beta", "dim_gamma", "wall_time_s",
                  "solve_s", "distance", "gap", "stop_reason"]


def assert_phases(meta, *names):
    """metadata.json times the named phases, which fit in the wall time."""
    phases = meta["phases"]
    assert set(phases) == set(names)
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= meta["wall_time_s"]


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_overrides_parse_values_and_strings():
    got = parse_overrides(
        ["--solver.max_iter", "200", "--candidates.box=null", "--note", "abc"]
    )
    assert got == {"solver.max_iter": 200, "candidates.box": None, "note": "abc"}


def test_overrides_take_the_first_bare_token_as_mode():
    got = parse_overrides(["--budget", "3", "select", "--seed=2", "--x", "a"])
    assert got == {"budget": 3, "mode": "select", "seed": 2, "x": "a"}
    with pytest.raises(ConfigError, match="unexpected argument 'pipeline'"):
        parse_overrides(["select", "--budget", "3", "pipeline"])


def test_override_reaches_nested_field(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", select_config(tmp_path / "o"))
    cfg = load_config(cfg_path, {"solver.max_iter": 7, "budget": 4})
    assert cfg.rule.solver.max_iter == 7
    assert cfg.stage.budget == 4


def test_missing_budget_names_field(tmp_path):
    data = select_config(tmp_path / "o")
    del data["budget"]
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "budget" in str(err.value)


def test_malformed_config_exits_2(tmp_path, capsys):
    data = select_config(tmp_path / "o")
    del data["budget"]
    cfg_path = write_config(tmp_path / "c.json", data)
    assert main(["select", "--config", cfg_path]) == 2
    assert "budget" in capsys.readouterr().err


def test_unparseable_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["select", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def _pipeline_config(out):
    return {
        "mode": "pipeline",
        "out": str(out),
        "system": {"type": "gaussian_walk", "x0": [0.0, 0.0], "sigma": 0.8},
        "stages": [
            {"samples_per_source": 10, "candidate_count": 8, "budget": 2}
        ],
    }


def _mode_config(tmp_path, mode):
    """A valid config for mode, written to c.json, with output dir o."""
    data = {
        "generate": {"mode": "generate", "out": str(tmp_path / "o")},
        "select": select_config(tmp_path / "o"),
        "pipeline": _pipeline_config(tmp_path / "o"),
        "evaluate": {"mode": "evaluate", "out": str(tmp_path / "o")},
    }[mode]
    return write_config(tmp_path / "c.json", data)


def test_a_minimal_select_config_takes_the_rule_defaults(tmp_path):
    cfg = load_config(None, {"mode": "select", "out": str(tmp_path / "o"),
                             "candidates.count": 8, "budget": 2})
    assert cfg.rule == StageRule()
    assert cfg.stage == StageSpec(100, 8, 2, 1.0)


@pytest.mark.parametrize("keys, rule", [
    ({"margin": 0.2, "solver.max_iter": 40},
     StageRule(margin=0.2, solver=SolverConfig(max_iter=40))),
    ({"candidate_mode": "subsample", "solver.threads": 2},
     StageRule("subsample", solver=SolverConfig(threads=2))),
    ({"candidates.box": [[-3, -3], [3, 3]], "margin": 0.1},
     StageRule(margin=0.1, box=((-3.0, -3.0), (3.0, 3.0)))),
], ids=["lattice", "subsample", "box"])
def test_select_and_pipeline_hold_one_rule(tmp_path, keys, rule):
    select = {"mode": "select", "out": str(tmp_path / "s"),
              "candidates.count": 8, "budget": 2}
    pipeline = write_config(tmp_path / "p.json",
                            _pipeline_config(tmp_path / "p"))
    assert load_config(None, {**select, **keys}).rule == rule
    assert load_config(pipeline, keys).rule == rule


def test_threads_flag_runs_pipeline(tmp_path):
    data = _mode_config(tmp_path, "pipeline")
    assert main(["pipeline", "--config", data, "--threads", "1"]) == 0


@pytest.mark.parametrize("argv, field", [
    (["select", "--margin", "abc"], "margin"),
    (["select", "--seeds", '["x"]'], "seeds"),
    (["select", "--budget", "x"], "budget"),
    (["pipeline", "--stages",
      '[{"samples_per_source": 10, "candidate_count": 8, "budget": "x"}]'],
     "stages[0].budget"),
    (["evaluate", "--system_path", "s.json",
      '--mapping={"type": "semideviation", "kappa": 1.5}'], "mapping.kappa"),
    (["evaluate", "--system_path", "s.json",
      '--mapping={"type": "semideviation", "kappa": "half"}'],
     "mapping.kappa"),
    (["select", "--mixture.weights", '["a", 1, 1, 1, 1]'], "mixture.weights"),
    (["select", "--mixture.weights", "[0.5, 0.5, 0.5, -0.5, 0]"],
     "mixture.weights"),
    (["select", "--mixture.weights", "[1, 1, 1, 1, 1]"], "mixture.weights"),
    (["select", "--mixture.components",
      '[{"mean": [0, 0], "cov": [[1, 0], [0, 1]]}, {"mean": [0], "cov": [[1]]}]'],
     "mixture.components"),
    (["select", "--mixture.components", "[]"], "mixture.components"),
    (["pipeline", "--system",
      '{"type": "gaussian_walk", "x0": ["a", 0], "sigma": 1}'], "system.x0"),
    (["pipeline", "--stages", "5"], "stages"),
    (["select", "--candidate_mode", "subsample", "--candidates.count", "200"],
     "candidates.count"),
    (["select", "--solver", "[1]"], "solver"),
    (["select", "--solver.max_iter", "2.5"], "solver.max_iter"),
    (["select", "--solver.max_iter", "true"], "solver.max_iter"),
    (["select", "--solver.threads", "1.5"], "solver.threads"),
    (["evaluate", "--system_path", "s.json", "--costs", "[5]"], "costs[0]"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"weight": "x"}}]'], "costs[0].norm.weight"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"power": "x"}}]'], "costs[0].norm.power"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"affine": {"offset": "x"}}]'], "costs[0].affine.offset"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{}, {"affine": {"coeff": ["a", 1]}}]'],
     "costs[1].affine.coeff"),
    (["evaluate", "--system_path", "s.json", "--mapping", '"x"'], "mapping"),
    (["select", "--candidate_mode", "subsample"], "candidates.box"),
    (["pipeline", "--candidate_mode", "subsample", "--margin", "0.1"],
     "margin"),
    (["select", "--budget", "2.7"], "budget"),
    (["select", "--budget", "true"], "budget"),
    (["select", "--budget", "Infinity"], "budget"),
    (["select", "--mixture.samples_per_component", "10.9"],
     "mixture.samples_per_component"),
    (["select", "--margin", "NaN"], "margin"),
    (["select", "--order", "NaN"], "order"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"affine": {"offset": NaN}}]'], "costs[0].affine.offset"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"affine": {"offset": Infinity}}]'], "costs[0].affine.offset"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"weight": NaN}}]'], "costs[0].norm.weight"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"weight": -Infinity}}]'], "costs[0].norm.weight"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"power": NaN}}]'], "costs[0].norm.power"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"power": Infinity}}]'], "costs[0].norm.power"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"norm": {"power": -1}}]'], "costs[0].norm.power"),
    (["evaluate", "--system_path", "5"], "system_path"),
    (["evaluate", "--system_path", "0"], "system_path"),
    (["select", "--emit_plot_data", '"no"'], "emit_plot_data"),
    (["select", "--candidates.box", "[[0, 0, 0], [1, 1, 1]]"],
     "candidates.box"),
    (["pipeline", "--system.x0", "[0, 0, 0]",
      "--candidates.box", "[[0, 0], [1, 1]]"], "candidates.box"),
    (["select", "--seeds", "[-1]"], "seeds"),
    (["pipeline", "--seeds", "[3, -2]"], "seeds"),
    (["select", "--out", ""], "out"),
    (["pipeline", "--candidate_mode", "subsample", "--stages",
      '[{"samples_per_source": 10, "candidate_count": 20, "budget": 2}]'],
     "stages[0].candidate_count"),
    (["generate", "--mixture", "5"], "mixture"),
    (["generate", "--seeds", "[-1]"], "seeds"),
    (["generate", "--emit_plot_data", '"no"'], "emit_plot_data"),
    (["select", "--seeds", "[0, 0]"], "seeds"),
    (["pipeline", "--seeds", "[1, 1]"], "seeds"),
    (["evaluate", "--system_path", "s.json",
      '--mapping={"type": "expectation", "kappa": 0.7}'], "mapping.kappa"),
    # an integer past float64's range, which json reads as an int
    (["pipeline", "--system.x0", "[1%s, 0]" % ("0" * 400)], "system.x0"),
])
def test_bad_config_scalar_exits_2(tmp_path, capsys, monkeypatch, argv,
                                   field):
    monkeypatch.chdir(tmp_path)  # an empty out would name the working dir
    mode = argv[0]
    cfg_path = _mode_config(tmp_path, mode)
    assert main([mode, "--config", cfg_path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError) as exc:
        load_config(cfg_path, parse_overrides(argv[1:]))
    assert exc.value.field == field


@pytest.mark.parametrize("argv, field, message", [
    (["select", "--budget.x", "1"], "budget.x",
     "override path 'budget.x' crosses a non-object field"),
    (["select", "--budget"], "budget", "flag --budget is missing a value"),
    (["select", "--mixture.components", '[{"mean": [0, 0]}]'],
     "mixture.components[0]", "bad mixture component 0: 'cov'"),
    (["select", "--candidates.box", "[[0, 0]]"], "candidates.box",
     "bad box [[0, 0]]"),
    (["select", "--seeds", "[]"], "seeds", "seeds must be a nonempty list"),
    (["select", "--mixture.samples_per_component", "0"],
     "mixture.samples_per_component",
     "samples_per_component must be positive"),
    (["select", "--margin", "-0.1"], "margin", "margin must be >= 0"),
    (["select", "--order", "0.5"], "order", "order must be >= 1"),
    (["select", "--candidate_mode", "grid"], "candidate_mode",
     "candidate_mode must be lattice or subsample, got 'grid'"),
    (["select", "--candidates.count", "null"], "candidates.count",
     "missing required field 'candidates.count' for mode select"),
    (["pipeline", "--stages", '[{"samples_per_source": 10, "budget": 2}]'],
     "stages[0]", "bad stage 0: 'candidate_count'"),
    (["pipeline", "--system.type", "ou"], "system.type",
     "unknown system type 'ou' (supported: gaussian_walk)"),
    (["pipeline", "--system.sigma", "0"], "system",
     "gaussian_walk needs x0 and sigma > 0"),
    (["pipeline", "--system.x0", "[]"], "system.x0",
     "system.x0 needs a coordinate"),
    (["evaluate", "--system_path", "s.json", '--costs=[{"quad": {}}]'],
     "costs[0]", "unknown cost term 'quad'"),
    (["pipeline", "--stages",
      '[{"samples_per_source": 10, "candidate_count": 8, "budget": 9}]'],
     "stages[0]", "bad stage 0: budget 9 exceeds candidate count 8"),
    (["pipeline", "--candidate_mode", "subsample", "--stages",
      '[{"samples_per_source": 10, "candidate_count": 20, "budget": 2}]'],
     "stages[0].candidate_count",
     "stages[0].candidate_count 20 exceeds the 10 particles to subsample"),
    (["pipeline", "--stages", "[5]"], "stages[0]",
     "stages[0] must be an object, got 5"),
    (["evaluate", "--system_path", "s.json", '--costs=[{"norm": 5}]'],
     "costs[0].norm", "costs[0].norm must be an object, got 5"),
    (["generate", "--mixture.samples_per_component", "0"],
     "mixture.samples_per_component",
     "samples_per_component must be positive"),
    (["select", "--seeds", "[0, 0]"], "seeds",
     "seeds must be distinct integers >= 0, got [0, 0]"),
    (["pipeline", "--seeds", "[1, 1]"], "seeds",
     "seeds must be distinct integers >= 0, got [1, 1]"),
    (["evaluate", "--system_path", "s.json",
      '--mapping={"type": "expectation", "kappa": 0.7}'], "mapping.kappa",
     "mapping.kappa applies to semideviation only, not expectation"),
    (["select", "--candidates.box", "[[-1, -1], [1, 1], [9, 9]]"],
     "candidates.box", "bad box [[-1, -1], [1, 1], [9, 9]]"),
    (["select", "--candidates.box", "[[[-1, -1]], [[1, 1]]]"],
     "candidates.box", "bad box [[[-1, -1]], [[1, 1]]]"),
    # a number is a JSON number that is finite, in its field's shape
    (["select", "--mixture",
      '{"components": [{"mean": ["a", 0], "cov": [[1, 0], [0, 1]]}]}'],
     "mixture.components[0].mean", "mixture.components[0].mean must be"
     " finite numbers in shape (d,), got ['a', 0]"),
    (["select", "--mixture",
      '{"components": [{"mean": [1, true], "cov": [[1, 0], [0, 1]]}]}'],
     "mixture.components[0].mean", "mixture.components[0].mean must be"
     " finite numbers in shape (d,), got [1, True]"),
    (["select", "--mixture",
      '{"components": [{"mean": [0, 0], "cov": [["1", 0], [0, 1]]}]}'],
     "mixture.components[0].cov", "mixture.components[0].cov must be"
     " finite numbers in shape (2, 2), got [['1', 0], [0, 1]]"),
    (["select", "--candidates.box", '[["-1", "-1"], ["1", "1"]]'],
     "candidates.box", "bad box [['-1', '-1'], ['1', '1']]"),
    (["select", "--candidates.box", "[[false, false], [true, true]]"],
     "candidates.box", "bad box [[False, False], [True, True]]"),
    (["select", "--candidates.box", "[[NaN, 0], [1, 1]]"],
     "candidates.box", "bad box [[nan, 0], [1, 1]]"),
    (["select", "--mixture",
      '{"components": [{"mean": [Infinity, 0], "cov": [[1, 0], [0, 1]]}]}'],
     "mixture.components[0].mean", "mixture.components[0].mean must be"
     " finite numbers in shape (d,), got [inf, 0]"),
    (["select", "--mixture",
      '{"components": [{"mean": [0, 0], "cov": [[NaN, 0], [0, 1]]}]}'],
     "mixture.components[0].cov", "mixture.components[0].cov must be"
     " finite numbers in shape (2, 2), got [[nan, 0], [0, 1]]"),
    (["select", "--mixture.weights", "[[0.2], [0.2], [0.2], [0.2], [0.2]]"],
     "mixture.weights", "mixture.weights must be finite numbers in shape"
     " (5,), got [[0.2], [0.2], [0.2], [0.2], [0.2]]"),
    (["select", "--mixture", '{"components": [{"mean": [0, 0],'
      ' "cov": [[1, 0], [0, 1]]}], "weights": 1}'],
     "mixture.weights", "mixture.weights must be finite numbers in shape"
     " (1,), got 1"),
    (["select", "--mixture",
      '{"components": [{"mean": [[0, 0]], "cov": [[1, 0], [0, 1]]}]}'],
     "mixture.components[0].mean", "mixture.components[0].mean must be"
     " finite numbers in shape (d,), got [[0, 0]]"),
    (["pipeline", "--system.x0", '["0", false]'], "system.x0",
     "system.x0 must be finite numbers in shape (d,), got ['0', False]"),
    (["evaluate", "--system_path", "s.json",
      '--costs=[{"affine": {"coeff": ["1", true]}}]'],
     "costs[0].affine.coeff", "costs[0].affine.coeff must be finite numbers"
     " in shape (d,), got ['1', True]"),
    (["select", "--budget", '"3"'], "budget",
     "budget must be an integer, got '3'"),
])
def test_config_check_exits_2_with_its_message(tmp_path, capsys, argv, field,
                                               message):
    # the message alone tells these checks apart, so it is pinned whole
    mode = argv[0]
    cfg_path = _mode_config(tmp_path, mode)
    assert main([mode, "--config", cfg_path, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError, match=re.escape(message)) as exc:
        load_config(cfg_path, parse_overrides(argv[1:]))
    assert exc.value.field == field


# The top-level keys each mode reads besides mode, as the README's config
# table gives them, and a value of the right kind for each key but out,
# which every mode reads.
MODE_READS = {
    "generate": {"out", "seeds", "emit_plot_data", "mixture"},
    "select": {"out", "seeds", "emit_plot_data", "mixture", "candidates",
               "margin", "budget", "order", "solver", "candidate_mode"},
    "pipeline": {"out", "seeds", "emit_plot_data", "system", "stages",
                 "solver", "candidate_mode", "candidates", "margin", "order"},
    "evaluate": {"out", "system_path", "costs", "mapping"},
}
KEY_VALUES = {
    "seeds": [1], "emit_plot_data": True,
    "mixture": {"samples_per_component": 10},
    "candidates": {"count": 8}, "margin": 0.1, "budget": 3, "order": 2,
    "solver": {"max_iter": 9}, "candidate_mode": "lattice",
    "system": {"type": "gaussian_walk", "x0": [0.0, 0.0], "sigma": 0.8},
    "stages": [{"samples_per_source": 10, "candidate_count": 8, "budget": 2}],
    "system_path": "s.json", "costs": [{"norm": {"power": 2}}],
    "mapping": {"type": "expectation"},
}


@pytest.mark.parametrize("mode, overrides, field", [
    *(pytest.param(mode, {key: KEY_VALUES[key]}, key, id=f"{mode}-{key}")
      for mode, reads in MODE_READS.items()
      for key in sorted(set(KEY_VALUES) - reads)),
    pytest.param("generate", {"mixture.weights": [1.0]}, "mixture.weights",
                 id="generate-mixture.weights"),
    pytest.param("select", {"candidates.cnt": 9}, "candidates.cnt",
                 id="select-candidates.cnt"),
    pytest.param("pipeline", {"candidates.count": 8}, "candidates.count",
                 id="pipeline-candidates.count"),
    pytest.param("pipeline", {"stages": [{
        "samples_per_source": 10, "candidate_count": 8, "budgett": 2}]},
        "stages[0].budgett", id="pipeline-stages[0].budgett"),
    pytest.param("pipeline", {"system.drift": 1}, "system.drift",
                 id="pipeline-system.drift"),
    pytest.param("evaluate", {"system_path": "s.json", "mapping.kapa": 0.5},
                 "mapping.kapa", id="evaluate-mapping.kapa"),
    pytest.param("evaluate", {"system_path": "s.json",
                              "costs": [{"norm": {"powr": 2}}]},
                 "costs[0].norm.powr", id="evaluate-costs[0].norm.powr"),
])
def test_a_key_the_mode_never_reads_exits_2(tmp_path, capsys, mode,
                                            overrides, field):
    cfg_path = _mode_config(tmp_path, mode)
    argv = [f"--{key}={json.dumps(value)}" for key, value in overrides.items()]
    assert main([mode, "--config", cfg_path, *argv]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown config field {field!r} for mode {mode}\n")
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError) as exc:
        load_config(cfg_path, overrides)
    assert exc.value.field == field


@pytest.mark.parametrize("argv, field", [
    (["evaluate", "--seed", "1"], "seeds"),
    (["evaluate", "--emit-plot-data"], "emit_plot_data"),
    (["evaluate", "--threads", "1"], "solver.threads"),
    (["generate", "--threads", "1"], "solver.threads"),
])
def test_an_option_the_mode_never_reads_exits_2(tmp_path, capsys, argv,
                                               field):
    mode = argv[0]
    cfg_path = _mode_config(tmp_path, mode)
    assert main([*argv, "--config", cfg_path]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown config field {field!r} for mode {mode}\n")
    assert not (tmp_path / "o").exists()


# A valid config of each mode with every numeric key it reads set, and the
# path of each such key or of one entry of its value. At the keys in
# NULL_IS_ABSENT a null means "not given", which runs.
NUMERIC_CONFIGS = {
    "generate": {"mode": "generate", "seeds": [0],
                 "mixture": {"samples_per_component": 10}},
    "select": {
        "mode": "select", "seeds": [3], "budget": 3, "margin": 0.5,
        "order": 1, "solver": {"max_iter": 20, "threads": 1},
        "candidates": {"count": 8, "box": [[-2, -2], [2, 2]]},
        "mixture": {"samples_per_component": 10, "weights": [0.25, 0.75],
                    "components": [
                        {"mean": [0, 0], "cov": [[1, 0], [0, 1]]},
                        {"mean": [1, 0.5], "cov": [[2, 0.5], [0.5, 1]]}]},
    },
    "pipeline": {
        "mode": "pipeline", "seeds": [0], "order": 1,
        "system": {"type": "gaussian_walk", "x0": [0.0, 0.0], "sigma": 0.8},
        "stages": [{"samples_per_source": 10, "candidate_count": 8,
                    "budget": 2, "order": 2}],
    },
    "evaluate": {
        "mode": "evaluate", "system_path": "s.json",
        "mapping": {"type": "semideviation", "kappa": 0.5},
        "costs": [{"affine": {"coeff": [1, 2], "offset": 0.5},
                   "norm": {"center": [0, 0], "weight": 1, "power": 2}}],
    },
}
NUMERIC_KEYS = [
    ("generate", ("seeds", 0)),
    ("generate", ("mixture", "samples_per_component")),
    *(("select", path) for path in (
        ("seeds", 0), ("budget",), ("margin",), ("order",),
        ("solver", "max_iter"), ("solver", "threads"),
        ("candidates", "count"), ("candidates", "box"),
        ("candidates", "box", 1), ("candidates", "box", 1, 0),
        ("mixture", "samples_per_component"), ("mixture", "weights"),
        ("mixture", "weights", 1), ("mixture", "components", 1, "mean"),
        ("mixture", "components", 1, "mean", 0),
        ("mixture", "components", 0, "cov"),
        ("mixture", "components", 0, "cov", 1),
        ("mixture", "components", 1, "cov", 0, 1))),
    *(("pipeline", path) for path in (
        ("seeds", 0), ("order",), ("system", "x0"), ("system", "x0", 1),
        ("system", "sigma"), ("stages", 0, "samples_per_source"),
        ("stages", 0, "candidate_count"), ("stages", 0, "budget"),
        ("stages", 0, "order"))),
    *(("evaluate", path) for path in (
        ("mapping", "kappa"), ("costs", 0, "affine", "coeff"),
        ("costs", 0, "affine", "coeff", 0), ("costs", 0, "affine", "offset"),
        ("costs", 0, "norm", "center"), ("costs", 0, "norm", "center", 1),
        ("costs", 0, "norm", "weight"), ("costs", 0, "norm", "power"))),
]
NULL_IS_ABSENT = {("candidates", "box"), ("mixture", "weights")}


def test_the_numeric_configs_are_valid(tmp_path):
    for mode, config in NUMERIC_CONFIGS.items():
        load_config(None, {**config, "out": str(tmp_path / "o")})


def _field(path):
    """The config field of a NUMERIC_KEYS path: its key, no entry index."""
    while isinstance(path[-1], int):
        path = path[:-1]
    return path[0] + "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])


@st.composite
def refused_configs(draw):
    """(mode, path, config): a NUMERIC_CONFIGS config with the value at one
    NUMERIC_KEYS path replaced by a value the number rule refuses."""
    mode, path = draw(st.sampled_from(NUMERIC_KEYS))
    config = json.loads(json.dumps(NUMERIC_CONFIGS[mode]))
    node = config
    for key in path[:-1]:
        node = node[key]
    valid = node[path[-1]]
    refused = [
        st.integers(-5, 300).map(str),  # a quoted number
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.booleans(), st.just({}), st.just(math.nan),
        st.sampled_from([math.inf, -math.inf]),
        st.just([valid]),  # one level too deep
    ]
    if isinstance(valid, list):
        refused.append(st.just(valid[0]))  # one level too shallow
    if path not in NULL_IS_ABSENT:
        refused.append(st.none())
    node[path[-1]] = draw(st.one_of(refused))
    return mode, path, config


@settings(max_examples=300, deadline=None)
@given(case=refused_configs())
def test_a_value_that_is_not_a_number_exits_2(tmp_path_factory, case):
    # no example is a valid config, so none starts a run
    mode, path, config = case
    work = tmp_path_factory.mktemp("refused")
    config["out"] = str(work / "o")
    cfg_path = write_config(work / "c.json", config)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([mode, "--config", cfg_path]) == 2, config
    assert err.getvalue().startswith("config error: "), err.getvalue()
    assert not (work / "o").exists()
    with pytest.raises(ConfigError) as exc:
        load_config(cfg_path, {})
    assert exc.value.field == _field(path)


def test_load_config_rejects_an_unknown_mode():
    with pytest.raises(ConfigError, match="mode must be one of generate, "
                       "select, pipeline, evaluate, got 'fit'") as exc:
        load_config(None, {"mode": "fit", "out": "o"})
    assert exc.value.field == "mode"


def test_config_root_must_be_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("[1]")
    assert main(["select", "--config", str(cfg_path)]) == 2
    assert (capsys.readouterr().err
            == "config error: config root must be a JSON object\n")


def test_out_must_be_a_string(tmp_path, capsys, monkeypatch):
    # argparse reads --out as a string, so only a config file can give
    # another type
    monkeypatch.chdir(tmp_path)
    data = select_config(tmp_path / "o")
    data["out"] = 123
    cfg_path = write_config(tmp_path / "c.json", data)
    assert main(["select", "--config", cfg_path]) == 2
    assert (capsys.readouterr().err
            == "config error: out must be a string, got 123\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


def test_unknown_field_rejected(tmp_path):
    data = select_config(tmp_path / "o")
    data["budgett"] = 3
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "budgett" in str(err.value)


def test_budget_beyond_candidates_rejected(tmp_path):
    data = select_config(tmp_path / "o", k=8, m=9)
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "budget" in str(err.value)


def test_bad_box_rejected(tmp_path):
    data = select_config(tmp_path / "o")
    data["candidates"]["box"] = [[0, 0], [0, 1]]
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "box" in str(err.value)


def test_bad_mapping_rejected(tmp_path):
    data = {
        "mode": "evaluate",
        "out": str(tmp_path / "o"),
        "system_path": "x.json",
        "mapping": {"type": "cvar"},
    }
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "mapping" in str(err.value)


def test_solver_field_validated(tmp_path):
    data = select_config(tmp_path / "o")
    data["solver"]["alpha9"] = 1
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "alpha9" in str(err.value)


def test_solver_batch_is_unknown(tmp_path):
    data = select_config(tmp_path / "o")
    data["solver"]["batch"] = 4
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert err.value.field == "solver.batch"


def test_solver_recovery_sampling_is_unknown(tmp_path):
    data = select_config(tmp_path / "o")
    data["solver"]["recovery_sampling"] = True
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert err.value.field == "solver.recovery_sampling"


@pytest.mark.parametrize(
    "name", ["alpha0", "epsilon", "kappa1", "kappa2", "band", "window"]
)
def test_deleted_step_schedule_fields_are_unknown(tmp_path, name):
    data = select_config(tmp_path / "o")
    data["solver"][name] = 0.5
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert err.value.field == f"solver.{name}"
    assert "unknown solver field" in str(err.value)


def test_default_mixture_is_five_components(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", select_config(tmp_path / "o"))
    cfg = load_config(cfg_path, {})
    assert len(cfg.components) == 5
    assert np.allclose(cfg.mixture_weights, 0.2)


# ---------------------------------------------------------------------------
# cost grammar
# ---------------------------------------------------------------------------

def test_cost_grammar_terms():
    # a cost takes an (n, d) array of points and returns n values
    zero = cost_function({})
    assert zero(np.array([[3.0, 4.0], [1.0, 2.0]])).tolist() == [0.0, 0.0]
    affine = cost_function({"affine": {"coeff": [2.0, -1.0], "offset": 0.5}})
    assert affine(np.array([[1.0, 1.0]])) == pytest.approx([1.5])
    norm = cost_function(
        {"norm": {"center": [1.0, 1.0], "weight": 2.0, "power": 2}}
    )
    assert norm(np.array([[4.0, 5.0]])) == pytest.approx([2 * 25.0])
    both = cost_function(
        {
            "affine": {"coeff": [1.0, 0.0]},
            "norm": {"center": [0.0, 0.0], "weight": 1.0, "power": 1},
        }
    )
    assert both(np.array([[3.0, 4.0]])) == pytest.approx([3.0 + 5.0])
    # an empty norm object is the default term 1 * |x - 0|^1
    assert cost_function({"norm": {}})(np.array([[3.0, 4.0]])) == (
        pytest.approx([5.0]))


def test_squared_norm_cost_is_exact():
    # the sum of squares itself, not the square of its square root
    cost = cost_function({"norm": {"power": 2}})
    assert cost(np.array([[1.0, 1.0], [1.0, 2.0]])).tolist() == [2.0, 5.0]


def _random_cost_spec(rng, dim):
    """A cost spec whose coeff and center are empty or full, with norm
    powers 0, 1, 2 or 1.7."""
    spec = {}
    if rng.random() < 0.7:
        spec["affine"] = {"offset": float(rng.normal())}
        if rng.random() < 0.5:
            spec["affine"]["coeff"] = rng.normal(size=dim).tolist()
    if rng.random() < 0.7:
        spec["norm"] = {"weight": float(rng.uniform(0.0, 3.0)),
                        "power": float(rng.choice([0.0, 1.0, 2.0, 1.7]))}
        if rng.random() < 0.5:
            spec["norm"]["center"] = rng.normal(size=dim).tolist()
    return spec


def test_cost_matches_a_per_point_formula():
    rng = np.random.default_rng(71)
    eps = np.finfo(np.float64).eps
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        spec = _random_cost_spec(rng, dim)
        points = rng.normal(scale=3.0, size=(int(rng.integers(1, 6)), dim))
        got = cost_function(spec)(points)
        assert got.shape == (len(points),)
        affine = spec.get("affine", {})
        norm = spec.get("norm")
        for x, value in zip(points.tolist(), got.tolist()):
            terms = [affine.get("offset", 0.0)]
            terms += [c * xi for c, xi in zip(affine.get("coeff", []), x)]
            if norm is not None:
                center = norm.get("center", [0.0] * dim)
                terms.append(norm["weight"]
                             * math.dist(x, center) ** norm["power"])
            want = sum(terms)
            assert abs(value - want) <= 4 * eps * sum(map(abs, terms)), (
                spec, x)


# ---------------------------------------------------------------------------
# mode runs
# ---------------------------------------------------------------------------

def test_generate_writes_clouds(tmp_path):
    out = tmp_path / "gen"
    cfg_path = write_config(
        tmp_path / "c.json",
        {
            "mode": "generate",
            "out": str(out),
            "seeds": [5],
            "mixture": {"samples_per_component": 12},
        },
    )
    assert main(["generate", "--config", cfg_path]) == 0
    clouds = sorted(out.glob("cloud_*_seed5.csv"))
    assert len(clouds) == 5
    rows = read_csv(clouds[0])
    assert rows[0] == ["x0", "x1"]
    assert len(rows) == 13
    kernel = json.loads((out / "empirical_kernel_seed5.json").read_text())
    assert len(kernel["sources"]) == 5
    assert len(kernel["rows"][0]["support"]) == 12


def test_select_artifacts_and_summary(tmp_path):
    out = tmp_path / "sel"
    cfg_path = write_config(
        tmp_path / "c.json", select_config(out, seeds=(2,), k=24, m=6, n=25)
    )
    assert main(["select", "--config", cfg_path, "--emit-plot-data"]) == 0
    result = json.loads((out / "result_seed2.json").read_text())
    assert result["dim_beta"] == 5 * 25 * 24
    assert result["dim_gamma"] == 24
    assert result["sum_gamma"] <= 6
    assert result["distance"] == pytest.approx(result["objective"], abs=1e-12)
    assert len(result["gamma"]) == 24
    assert result["selected_indices"] == [
        k for k, g in enumerate(result["gamma"]) if g
    ]
    assert result["best_dual"] <= result["objective"] + 1e-9
    # the plan is optimal between the pooled clouds and the composed
    # marginal, so the two distances are one sum
    assert result["composed_distance"] == result["distance"]

    summary = read_csv(out / "summary.csv")
    assert summary[0] == SUMMARY_HEADER
    assert summary[1][:2] == ["2", "0"]
    assert int(summary[1][2]) == 5 * 25 * 24
    assert summary[1][8] == result["stop_reason"]
    assert result["stop_reason"] in ("certified", "stabilized", "max_iter")
    assert result["converged"] == (result["stop_reason"] == "certified")

    diag = read_csv(out / "diagnostics_seed2.csv")
    assert diag[0] == ["j", "dual", "sum_gamma", "alpha", "theta0",
                       "elapsed_ms", "primal", "gap"]
    assert len(diag) - 1 == result["iterations"]
    best_dual = -np.inf
    for row in diag[1:]:
        best_dual = max(best_dual, float(row[1]))
        assert float(row[7]) == float(row[6]) - best_dual
    assert float(diag[-1][6]) == result["objective"]

    samples = read_csv(out / "samples_seed2.csv")
    assert samples[0] == ["group", "x0", "x1"]
    assert len(samples) - 1 == 5 * 25
    selected = read_csv(out / "selected_seed2.csv")
    assert len(selected) - 1 == result["sum_gamma"]
    plan = read_csv(out / "plan_seed2.csv")
    assert plan[0] == ["i", "k", "mass"]
    mass = sum(float(r[2]) for r in plan[1:])
    assert mass == pytest.approx(1.0, abs=1e-9)

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mode"] == "select"
    assert_phases(meta, "config_s", "stage_s", "write_s")


@pytest.mark.parametrize("candidate_mode", ["lattice", "subsample"])
def test_select_result_is_the_one_stage_step(tmp_path, candidate_mode):
    data = select_config(tmp_path / "sel", seeds=(0,), k=24, m=6, n=20)
    if candidate_mode == "subsample":
        data["candidate_mode"] = "subsample"
        del data["candidates"]["box"]
    cfg_path = write_config(tmp_path / "c.json", data)
    assert main(["select", "--config", cfg_path]) == 0
    result = json.loads((tmp_path / "sel" / "result_seed0.json").read_text())
    cfg = load_config(cfg_path, {})
    marginal = DiscreteDistribution([c.mean for c in cfg.components],
                                    cfg.mixture_weights)
    clouds = sample_gaussian_mixture(cfg.components,
                                     cfg.stage.samples_per_source, 0)
    stage = compress_stage(marginal, clouds, cfg.stage, cfg.rule,
                           stage_stream(0, 0, 5), time.perf_counter())
    assert result["gamma"] == stage.result.gamma.tolist()
    assert result["objective"] == stage.result.objective
    assert result["stop_reason"] == stage.result.stop_reason


def test_select_and_pipeline_write_one_summary_schema(tmp_path):
    sel = tmp_path / "sel"
    cfg_path = write_config(tmp_path / "c.json", select_config(
        sel, seeds=(1, 2), k=16, m=4, n=15))
    assert main(["select", "--config", cfg_path]) == 0
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--out", str(pipe), "--seeds", "[0, 3]",
                 "--system",
                 '{"type": "gaussian_walk", "x0": [0.0, 0.0], "sigma": 0.8}',
                 "--stages", json.dumps([{"samples_per_source": 20,
                                          "candidate_count": 16,
                                          "budget": 3}] * 2)]) == 0
    select_rows, pipeline_rows = (read_csv(out / "summary.csv")
                                  for out in (sel, pipe))
    assert select_rows[0] == pipeline_rows[0] == SUMMARY_HEADER
    assert [r[:2] for r in select_rows[1:]] == [["1", "0"], ["2", "0"]]
    for row in select_rows[1:]:
        row = dict(zip(SUMMARY_HEADER, row))
        result = json.loads((sel / f"result_seed{row['seed']}.json")
                            .read_text())
        assert float(row["distance"]) == result["distance"]
        assert float(row["gap"]) == result["gap"]
        assert row["stop_reason"] == result["stop_reason"]
        assert float(row["wall_time_s"]) >= float(row["solve_s"]) > 0.0
    assert [r[:2] for r in pipeline_rows[1:]] == [
        ["0", "0"], ["0", "1"], ["3", "0"], ["3", "1"]]
    for row in pipeline_rows[1:]:
        row = dict(zip(SUMMARY_HEADER, row))
        system = json.loads((pipe / f"system_seed{row['seed']}.json")
                            .read_text())
        assert float(row["distance"]) == system["deltas"][int(row["stage"])]


def test_select_subsample_candidates_are_particles(tmp_path):
    out = tmp_path / "sel"
    data = select_config(out, seeds=(5,), k=24, m=6, n=20)
    data["candidate_mode"] = "subsample"
    del data["candidates"]["box"]  # a lattice setting, refused here
    cfg_path = write_config(tmp_path / "c.json", data)
    assert main(["select", "--config", cfg_path, "--emit-plot-data"]) == 0
    particles = {tuple(r[1:]) for r in read_csv(out / "samples_seed5.csv")[1:]}
    candidates = read_csv(out / "candidates_seed5.csv")[1:]
    assert len(candidates) == 24
    assert all(tuple(r) in particles for r in candidates)


def test_select_plan_is_optimal_coupling(tmp_path):
    out = tmp_path / "sel"
    data = select_config(out, seeds=(4,), k=24, m=6, n=20)
    data["order"] = 2
    cfg_path = write_config(tmp_path / "c.json", data)
    assert main(["select", "--config", cfg_path, "--emit-plot-data"]) == 0
    result = json.loads((out / "result_seed4.json").read_text())
    p = result["order"]
    samples = read_csv(out / "samples_seed4.csv")[1:]
    groups = np.array([int(r[0]) for r in samples])
    points = np.array([[float(c) for c in r[1:]] for r in samples])
    weights = load_config(cfg_path, {}).mixture_weights
    pooled_w = weights[groups] / 20
    selected = DiscreteDistribution(
        result["selected_distribution"]["support"],
        result["selected_distribution"]["weights"],
    )

    rows = read_csv(out / "plan_seed4.csv")[1:]
    i = np.array([int(r[0]) for r in rows])
    k = np.array([int(r[1]) for r in rows])
    mass = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(
        np.bincount(i, mass, minlength=len(points)), pooled_w, atol=1e-15
    )
    np.testing.assert_allclose(
        np.bincount(k, mass, minlength=len(selected)),
        selected.weights,
        atol=1e-12,
    )
    moved = np.linalg.norm(points[i] - selected.support[k], axis=1) ** p
    cost = float(np.sum(mass * moved))
    assert cost == pytest.approx(result["distance"] ** p, abs=1e-12)
    assert result["composed_distance"] == result["distance"]
    _, exact = wasserstein_exact(
        DiscreteDistribution(points, pooled_w), selected, p
    )
    assert cost == pytest.approx(exact.value, abs=1e-12)


def test_result_bytes_stable_across_runs_and_threads(tmp_path):
    blobs = []
    for run, threads in ((0, "1"), (1, "1"), (2, "4")):
        out = tmp_path / f"run{run}"
        cfg_path = write_config(
            tmp_path / f"c{run}.json",
            select_config(out, seeds=(7,), k=16, m=4, n=20),
        )
        assert (
            main(
                ["select", "--config", cfg_path, "--threads", threads]
            )
            == 0
        )
        blobs.append((out / "result_seed7.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_seed_flag_overrides_seed_list(tmp_path):
    out = tmp_path / "sel"
    cfg_path = write_config(
        tmp_path / "c.json", select_config(out, seeds=(1, 2, 3), k=16, m=4, n=15)
    )
    assert main(["select", "--config", cfg_path, "--seed", "9"]) == 0
    assert (out / "result_seed9.json").exists()
    assert not (out / "result_seed1.json").exists()


def test_options_may_precede_the_mode(tmp_path):
    out = tmp_path / "sel"
    cfg_path = write_config(
        tmp_path / "c.json", select_config(out, seeds=(1,), k=16, m=4, n=15)
    )
    assert main(["--seed", "3", "--threads", "1", "select",
                 "--config", cfg_path]) == 0
    assert (out / "result_seed3.json").exists()
    assert not (out / "result_seed1.json").exists()


@pytest.mark.parametrize("before", [["--budget", "3"], ["--budget=3"]])
def test_dotted_overrides_may_precede_the_mode(tmp_path, before):
    out = tmp_path / "sel"
    cfg_path = write_config(
        tmp_path / "c.json", select_config(out, seeds=(1,), k=24, m=6, n=15)
    )
    assert main([*before, "--candidates.count", "16", "select",
                 "--config", cfg_path, "--solver.max_iter", "20"]) == 0
    result = json.loads((out / "result_seed1.json").read_text())
    assert result["budget"] == 3 and result["dim_gamma"] == 16


@pytest.mark.parametrize("argv", [["--budget", "3"], ["--out", "o"], []])
def test_missing_mode_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "required: mode" in capsys.readouterr().err


def test_unknown_mode_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'compress'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dotted_overrides_after_the_mode(tmp_path, monkeypatch):
    seen = []

    def recording(tokens):
        seen.append(list(tokens))
        return parse_overrides(tokens)

    monkeypatch.setattr(cli, "parse_overrides", recording)
    out = tmp_path / "sel"
    cfg_path = write_config(
        tmp_path / "c.json", select_config(out, seeds=(1,), k=16, m=4, n=15)
    )
    assert main(["select", "--config", cfg_path, "--solver.max_iter", "3",
                 "--budget=2", "--seed", "5", "--candidates.count", "12"]) == 0
    assert seen == [["select", "--solver.max_iter", "3", "--budget=2",
                     "--candidates.count", "12"]]
    result = json.loads((out / "result_seed5.json").read_text())
    assert result["budget"] == 2 and result["dim_gamma"] == 12
    assert result["iterations"] <= 3


def test_plot_data_flag_does_not_carry_into_the_next_call(tmp_path):
    cfg_path = write_config(
        tmp_path / "c.json",
        select_config(tmp_path / "unused", seeds=(1,), k=16, m=4, n=15),
    )
    assert main(["select", "--config", cfg_path, "--emit-plot-data",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["select", "--config", cfg_path,
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "samples_seed1.csv").exists()
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
        "diagnostics_seed1.csv", "metadata.json", "result_seed1.json",
        "summary.csv",
    ]


def test_csv_artifacts_are_csv_module_bytes(tmp_path, monkeypatch):
    """Every CSV file of the four modes, with plot data, holds the bytes
    csv.writer writes for the same rows."""
    written = []

    def checked(path, header, rows):
        rows = list(rows)
        write_csv(path, header, rows)
        assert Path(path).read_bytes() == csv_module_bytes(header, rows)
        written.append(Path(path))

    monkeypatch.setattr(cli, "write_csv", checked)
    monkeypatch.setattr(risk, "write_csv", checked)
    sel = write_config(tmp_path / "s.json", select_config(
        tmp_path / "sel", seeds=(1, 2), k=16, m=4, n=15))
    assert main(["select", "--config", sel, "--emit-plot-data"]) == 0
    gen = write_config(tmp_path / "g.json", {
        "mode": "generate", "out": str(tmp_path / "gen"), "seeds": [1, 2],
        "mixture": {"samples_per_component": 15}})
    assert main(["generate", "--config", gen, "--emit-plot-data"]) == 0
    assert main(["pipeline", "--out", str(tmp_path / "pipe"),
                 "--emit-plot-data", "--system",
                 '{"type": "gaussian_walk", "x0": [0.0, 0.0], "sigma": 0.8}',
                 "--stages", json.dumps([{"samples_per_source": 20,
                                          "candidate_count": 16,
                                          "budget": 3}] * 2)]) == 0
    assert main(["evaluate", "--out", str(tmp_path / "eval"),
                 "--system_path", str(tmp_path / "pipe" / "system_seed0.json"),
                 "--costs", '[{"norm": {"power": 2}}]',
                 "--mapping", '{"type": "semideviation", "kappa": 0.5}']) == 0
    assert sorted(written) == sorted(p for p in tmp_path.rglob("*.csv"))
    assert {p.name for p in written} >= {
        "plan_seed2.csv", "samples_stage1_seed0.csv", "cloud_04_seed1.csv",
        "values.csv", "summary.csv"}


def test_pipeline_then_evaluate(tmp_path):
    pipe_out = tmp_path / "pipe"
    pipe_cfg = write_config(
        tmp_path / "p.json",
        {
            "mode": "pipeline",
            "out": str(pipe_out),
            "seeds": [1],
            "system": {"type": "gaussian_walk", "x0": [0.0, 0.0], "sigma": 0.8},
            "stages": [
                {"samples_per_source": 30, "candidate_count": 20, "budget": 4},
                {"samples_per_source": 20, "candidate_count": 20, "budget": 3},
            ],
            "solver": {"max_iter": 150},
        },
    )
    assert main(["pipeline", "--config", pipe_cfg]) == 0
    system = json.loads((pipe_out / "system_seed1.json").read_text())
    assert len(system["kernels"]) == 2
    assert len(system["supports"]) == 3
    assert len(system["supports"][1]) <= 4
    assert not list(pipe_out.glob("stage_*"))
    summary = read_csv(pipe_out / "summary.csv")
    assert len(summary) == 3
    assert summary[0] == SUMMARY_HEADER
    assert {row[-1] for row in summary[1:]} <= {
        "certified", "stabilized", "max_iter"
    }
    for row in summary[1:]:
        # the stage's wall time covers sampling and building around the solve
        assert float(row[4]) >= float(row[5]) > 0.0
    meta = json.loads((pipe_out / "metadata.json").read_text())
    assert_phases(meta, "config_s", "stage_s", "write_s")

    eval_out = tmp_path / "eval"
    eval_cfg = write_config(
        tmp_path / "e.json",
        {
            "mode": "evaluate",
            "out": str(eval_out),
            "system_path": str(pipe_out / "system_seed1.json"),
            "costs": [
                {"norm": {"center": [0.0, 0.0], "weight": 1.0, "power": 2}}
            ],
            "mapping": {"type": "expectation"},
        },
    )
    assert main(["evaluate", "--config", eval_cfg]) == 0
    result = json.loads((eval_out / "evaluate_result.json").read_text())
    assert result["stages"] == 2
    values = read_csv(eval_out / "values.csv")
    assert values[0] == ["t", "x0", "x1", "value"]
    # every terminal value is the terminal cost |x|^2
    by_stage = [r for r in values[1:] if r[0] == "2"]
    for row in by_stage:
        x = np.array([float(row[1]), float(row[2])])
        assert float(row[3]) == pytest.approx(float(x @ x), abs=1e-12)


def test_evaluate_values_csv_and_phases(tmp_path):
    rng = np.random.default_rng(29)
    data = ragged_system_dict(rng, [5, 7, 4])
    (tmp_path / "system.json").write_text(json.dumps(data))
    kappa = 0.5
    eval_cfg = write_config(
        tmp_path / "e.json",
        {
            "mode": "evaluate",
            "out": str(tmp_path / "eval"),
            "system_path": str(tmp_path / "system.json"),
            "costs": [{"affine": {"coeff": [0.5, -0.25], "offset": 1.0},
                       "norm": {"center": [0.0, 0.0], "weight": 1.0,
                                "power": 2}}],
            "mapping": {"type": "semideviation", "kappa": kappa},
        },
    )
    assert main(["evaluate", "--config", eval_cfg]) == 0

    def cost(x):
        return 1.0 + 0.5 * x[0] - 0.25 * x[1] + x[0] ** 2 + x[1] ** 2

    # the per-point recursion over the file's lists
    want = [None] * len(data["supports"])
    want[-1] = {tuple(x): cost(x) for x in data["supports"][-1]}
    for t in range(len(data["kernels"]) - 1, -1, -1):
        want[t] = {}
        for x, row in zip(data["supports"][t], data["kernels"][t]["rows"]):
            v = [want[t + 1][tuple(y)] for y in row["support"]]
            mean = sum(w * vi for w, vi in zip(row["weights"], v))
            semi = sum(
                w * max(0.0, vi - mean) for w, vi in zip(row["weights"], v)
            )
            want[t][tuple(x)] = cost(x) + mean + kappa * semi
    rows = read_csv(tmp_path / "eval" / "values.csv")
    assert rows[0] == ["t", "x0", "x1", "value"]
    expected = [
        [str(t)] + [repr(c) for c in key]
        for t in range(len(want)) for key in sorted(want[t])
    ]
    assert [r[:-1] for r in rows[1:]] == expected
    for row in rows[1:]:
        value = want[int(row[0])][(float(row[1]), float(row[2]))]
        assert float(row[3]) == pytest.approx(value, rel=1e-12)

    meta = json.loads((tmp_path / "eval" / "metadata.json").read_text())
    # evaluate draws nothing at random, so it reports no seeds
    assert set(meta) == {"mode", "version", "wall_time_s", "written_utc",
                         "phases", "system_bytes", "kernel_rows"}
    # reading the file, then parsing and checking it
    assert_phases(meta, "read_s", "decode_s", "evaluate_s", "write_s")
    # what the decode read: the file's size and the rows of all kernels
    assert meta["system_bytes"] == (tmp_path / "system.json").stat().st_size
    assert meta["kernel_rows"] == 1 + 5 + 7


def test_evaluate_missing_system_file_exits_1(tmp_path, capsys):
    eval_cfg = write_config(
        tmp_path / "e.json",
        {
            "mode": "evaluate",
            "out": str(tmp_path / "o"),
            "system_path": str(tmp_path / "absent.json"),
        },
    )
    assert main(["evaluate", "--config", eval_cfg]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_failed_run_removes_only_the_directories_it_made(tmp_path, capsys):
    absent = str(tmp_path / "absent.json")
    nested = tmp_path / "a" / "b" / "o"
    assert main(["evaluate", "--out", str(nested),
                 "--system_path", absent]) == 1
    assert not (tmp_path / "a").exists()
    (tmp_path / "a").mkdir()
    assert main(["evaluate", "--out", str(nested),
                 "--system_path", absent]) == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "a"]
    assert list((tmp_path / "a").iterdir()) == []


def _evaluate_config(tmp_path, system, **extra):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    return write_config(
        tmp_path / "e.json",
        {"mode": "evaluate", "out": str(tmp_path / "o"),
         "system_path": str(path), **extra},
    )


@pytest.mark.parametrize("term", [
    {"norm": {"center": [0, 0, 0]}},
    {"affine": {"coeff": [1.0]}},
])
def test_evaluate_cost_of_wrong_dimension_exits_2(tmp_path, capsys, term):
    data = ragged_system_dict(np.random.default_rng(3), [3, 2])
    eval_cfg = _evaluate_config(tmp_path, data, costs=[{}, term, {}])
    assert main(["evaluate", "--config", eval_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "costs[1]" in err
    assert not (tmp_path / "o").exists()


def test_evaluate_builds_each_cost_once(tmp_path, monkeypatch):
    built = []

    def counted(spec):
        built.append(spec)
        return cost_function(spec)

    monkeypatch.setattr(cli, "cost_function", counted)
    data = ragged_system_dict(np.random.default_rng(3), [3, 2])
    costs = [{}, {"norm": {"power": 2}}, {"affine": {"offset": 1.0}}]
    eval_cfg = _evaluate_config(tmp_path, data, costs=costs)
    assert main(["evaluate", "--config", eval_cfg]) == 0
    assert built == costs


def test_evaluate_non_finite_cost_exits_1(tmp_path, capsys):
    # 1e308 * |x|^3 overflows: no Infinity in evaluate_result.json, no inf
    # rows in values.csv, and no output directory
    data = ragged_system_dict(np.random.default_rng(3), [3, 2])
    eval_cfg = _evaluate_config(
        tmp_path, data, costs=[{"norm": {"weight": 1e308, "power": 3}}])
    assert main(["evaluate", "--config", eval_cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cost at stage 2 for point (")
    assert err.endswith(") is inf\n")
    assert not (tmp_path / "o").exists()


def test_evaluate_cost_count_must_fit_the_horizon(tmp_path, capsys):
    data = ragged_system_dict(np.random.default_rng(3), [3, 2])
    eval_cfg = _evaluate_config(tmp_path, data, costs=[{}, {}])
    assert main(["evaluate", "--config", eval_cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: need 1 or 3 cost entries for a 2-stage system, got 2\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mangle, named", [
    pytest.param(
        lambda data: {k: v for k, v in data.items() if k != "supports"},
        "supports", id="missing-key",
    ),
    pytest.param(lambda data: [data], "object", id="list-root"),
])
def test_evaluate_malformed_system_file_exits_1(tmp_path, capsys, mangle,
                                               named):
    data = mangle(ragged_system_dict(np.random.default_rng(3), [3, 2]))
    eval_cfg = _evaluate_config(tmp_path, data)
    assert main(["evaluate", "--config", eval_cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "o").exists()


def test_evaluate_row_off_the_next_support_exits_1(tmp_path, capsys):
    # the kernel's one row sits on (3, 0), which support 1 lacks; the
    # message prints as written, unquoted
    data = {"supports": [[[0.0, 0.0]], [[1.0, 0.0]]],
            "kernels": [{"sources": [[0.0, 0.0]], "rows": [
                {"support": [[3.0, 0.0]], "weights": [1.0]}]}],
            "marginals": [], "deltas": []}
    eval_cfg = _evaluate_config(tmp_path, data)
    assert main(["evaluate", "--config", eval_cfg]) == 1
    assert capsys.readouterr().err == (
        "error: no value at stage 1 for point (3.0, 0.0)\n")
    assert not (tmp_path / "o").exists()


_FLAT_TO_DEEP = {
    "supports": [[[0.0, 0.0]], [[1.0, 0.0, 0.0]]],
    "kernels": [{"sources": [[0.0, 0.0]], "rows": [
        {"support": [[1.0, 0.0, 0.0]], "weights": [1.0]}]}],
    "marginals": [], "deltas": []}


@pytest.mark.parametrize("system, extra, message", [
    pytest.param(_FLAT_TO_DEEP,
                 {"costs": [{"affine": {"coeff": [1, 2]}}]},
                 "support 1 is 3-D, support 0 is 2-D", id="mixed-with-cost"),
    pytest.param(_FLAT_TO_DEEP, {},
                 "support 1 is 3-D, support 0 is 2-D", id="mixed"),
    pytest.param({**_FLAT_TO_DEEP, "supports": [[[0.0, 0.0]], [[1.0, 0.0]]]},
                 {}, "kernel 0 support is 3-D, support 0 is 2-D",
                 id="deep-kernel-row"),
    pytest.param({"supports": [[]], "kernels": [], "marginals": [],
                  "deltas": []}, {}, "support 0 has no points",
                 id="empty-support"),
])
def test_evaluate_inconsistent_system_exits_1(tmp_path, capsys, system,
                                             extra, message):
    # each used to end in a traceback, two of them after writing values.csv
    eval_cfg = _evaluate_config(tmp_path, system, **extra)
    assert main(["evaluate", "--config", eval_cfg]) == 1
    path = tmp_path / "system.json"
    assert capsys.readouterr().err == f"error: system file {path}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [
    pytest.param("{not json", id="not-json"),
    pytest.param(
        json.dumps({"supports": [[["a", 1]]], "kernels": [], "marginals": [],
                    "deltas": []}),
        id="non-numeric-coordinate",
    ),
    pytest.param(
        json.dumps({"supports": [[[0.0, 0.0]], [[1.0, 0.0]]], "kernels": [
            {"sources": [[0.0, 0.0]],
             "rows": [{"support": [[1.0, 0.0]], "weights": ["1.0"]}]}],
            "marginals": [], "deltas": []}),
        id="string-weight",
    ),
    pytest.param(
        json.dumps({"supports": [[[0.0, True]]], "kernels": [],
                    "marginals": [], "deltas": []}),
        id="boolean-coordinate",
    ),
    pytest.param(
        json.dumps({"supports": [[[0.0, 0.0]], [[1.0, 0.0]]], "kernels": [
            {"sources": [[0.0, 0.0]],
             "rows": [{"support": {}, "weights": [1.0]}]}],
            "marginals": [], "deltas": []}),
        id="object-row-support",
    ),
])
def test_evaluate_unreadable_system_file_exits_1(tmp_path, capsys, text):
    path = tmp_path / "system.json"
    path.write_text(text)
    eval_cfg = write_config(
        tmp_path / "e.json",
        {"mode": "evaluate", "out": str(tmp_path / "o"),
         "system_path": str(path)},
    )
    assert main(["evaluate", "--config", eval_cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert not (tmp_path / "o").exists()


def test_pipeline_config_requires_stages(tmp_path):
    data = {
        "mode": "pipeline",
        "out": str(tmp_path / "o"),
        "system": {"type": "gaussian_walk", "x0": [0.0], "sigma": 1.0},
    }
    cfg_path = write_config(tmp_path / "c.json", data)
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path, {})
    assert "stages" in str(err.value)


def test_kc_log_is_read_at_every_call(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(
        tmp_path / "c.json",
        select_config(tmp_path / "sel", seeds=(1,), k=16, m=4, n=15),
    )
    for level, printed in (("info", True), ("error", False),
                           ("debug", True), ("ERROR", False)):
        monkeypatch.setenv("KC_LOG", level)
        assert main(["select", "--config", cfg_path]) == 0
        err = capsys.readouterr().err
        assert err.startswith("INFO select seed=1: ") == printed, (level, err)
        assert printed or err == ""


def _desk_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "table1_desk.py"
    spec = importlib.util.spec_from_file_location("table1_desk", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("max_iter", [5000, 1])
def test_desk_script_prints_the_select_run(tmp_path, capsys, max_iter):
    code = _desk_script().main([
        "--seeds", "0", "1", "--samples", "15", "--candidates", "16",
        "--budget", "4", "--max-iter", str(max_iter), "--out", str(tmp_path),
    ])
    lines = capsys.readouterr().out.splitlines()
    rows = read_csv(tmp_path / "summary.csv")[1:]
    assert len(lines) == 2 + len(rows) == 4
    for line, row in zip(lines[1:], rows):
        seed, dim_beta, distance, gap, iters, stop, wall = line.split()
        result = json.loads(
            (tmp_path / f"result_seed{row[0]}.json").read_text())
        assert [seed, dim_beta, stop] == [row[0], row[2], row[8]]
        assert float(distance) == round(result["distance"], 4)
        assert int(iters) == result["iterations"] <= max_iter
    assert code == (0 if all(r[8] == "certified" for r in rows) else 1)
    assert code == (0 if max_iter > 1 else 1)
