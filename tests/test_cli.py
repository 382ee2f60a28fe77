import csv
import json

import numpy as np
import pytest

from helpers import ragged_system_dict
from kcompress.cli import (
    ExperimentConfig,
    cost_function,
    load_config,
    main,
    parse_overrides,
)
from kcompress.core import DiscreteDistribution
from kcompress.errors import ConfigError
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


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_overrides_parse_values_and_strings():
    got = parse_overrides(
        ["--solver.max_iter", "200", "--candidates.box=null", "--note", "abc"]
    )
    assert got == {"solver.max_iter": 200, "candidates.box": None, "note": "abc"}


def test_override_reaches_nested_field(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", select_config(tmp_path / "o"))
    cfg = load_config(cfg_path, {"solver.max_iter": 7, "budget": 4})
    assert cfg.solver["max_iter"] == 7
    assert cfg.budget == 4


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
])
def test_bad_config_scalar_exits_2(tmp_path, capsys, argv, field):
    mode = argv[0]
    data = {
        "select": select_config(tmp_path / "o"),
        "pipeline": _pipeline_config(tmp_path / "o"),
        "evaluate": {"mode": "evaluate", "out": str(tmp_path / "o")},
    }[mode]
    cfg_path = write_config(tmp_path / "c.json", data)
    assert main([mode, "--config", cfg_path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    with pytest.raises(ConfigError) as exc:
        load_config(cfg_path, parse_overrides(argv[1:]))
    assert exc.value.field == field


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
    zero = cost_function({})
    assert zero([3.0, 4.0]) == 0.0
    affine = cost_function({"affine": {"coeff": [2.0, -1.0], "offset": 0.5}})
    assert affine([1.0, 1.0]) == pytest.approx(1.5)
    norm = cost_function(
        {"norm": {"center": [1.0, 1.0], "weight": 2.0, "power": 2}}
    )
    assert norm([4.0, 5.0]) == pytest.approx(2 * 25.0)
    both = cost_function(
        {
            "affine": {"coeff": [1.0, 0.0]},
            "norm": {"center": [0.0, 0.0], "weight": 1.0, "power": 1},
        }
    )
    assert both([3.0, 4.0]) == pytest.approx(3.0 + 5.0)


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
    # composed marginal distance can only undershoot the integrated distance
    assert result["composed_distance"] <= result["distance"] + 1e-9

    summary = read_csv(out / "summary.csv")
    assert summary[0] == [
        "seed",
        "dim_beta",
        "dim_gamma",
        "wall_time_s",
        "distance",
        "gap",
        "stop_reason",
    ]
    assert summary[1][0] == "2"
    assert int(summary[1][1]) == 5 * 25 * 24
    assert summary[1][6] == result["stop_reason"]
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
    assert "wall_time_s" in meta


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
    assert result["composed_distance"] == pytest.approx(
        result["distance"], abs=1e-12
    )
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
    stage0 = json.loads((pipe_out / "stage_0_seed1.json").read_text())
    assert stage0["delta"] == system["deltas"][0]
    assert len(stage0["support"]) <= 4
    summary = read_csv(pipe_out / "summary.csv")
    assert len(summary) == 3
    header = summary[0]
    assert header[4:6] == ["wall_time_s", "solve_s"]
    assert header[-1] == "stop_reason"
    assert {row[-1] for row in summary[1:]} <= {
        "certified", "stabilized", "max_iter"
    }
    for row in summary[1:]:
        # the stage's wall time covers sampling and building around the solve
        assert float(row[4]) >= float(row[5]) > 0.0

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
    phases = meta["phases"]
    assert set(phases) == {"decode_s", "evaluate_s", "write_s"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= meta["wall_time_s"]
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


@pytest.mark.parametrize("text", [
    pytest.param("{not json", id="not-json"),
    pytest.param(
        json.dumps({"supports": [[["a", 1]]], "kernels": [], "marginals": [],
                    "deltas": []}),
        id="non-numeric-coordinate",
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
