"""The four benchmark workloads.

Every workload is a closed loop: one caller runs an operation, waits for
it, checks it, and starts the next. ``setup`` makes the inputs from the
workload seed and warms the code paths; ``operation`` is the timed part;
``collect`` (untimed) reads what the operation produced, recomputes it
independently with the gates, and returns an Outcome.

Operations reach kcompress through module attributes (``cli.main``,
``pipeline.build_stage_instance``, ...), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kcompress import cli, dual, generators, pipeline
from kcompress.core import DiscreteDistribution

import gates

BOX = [[-12.0, -12.0], [12.0, 12.0]]


@dataclass
class Outcome:
    """What one operation produced, as the benchmark measured it.

    solves holds (objective, best_dual) per dual solve; answer is the value
    the run's `objective` metric averages; value is (computed, true) when
    the operation yields a value with a known truth; artifacts is (files,
    bytes) written by a CLI run.
    """

    answer: float
    solves: list = field(default_factory=list)
    value: tuple | None = None
    artifacts: tuple = (0, 0)
    failures: list = field(default_factory=list)


def _write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def _read_points(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) for c in r] for r in rows], dtype=np.float64)


def _artifacts(out: Path) -> tuple:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _cli(argv, what: str):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"kcompress {what} exited with code {code}")


class SelectDesk:
    """`kcompress select --emit-plot-data` on the paper's desk experiment."""

    name = "select_desk"

    def __init__(self, samples=100, count=256, budget=51):
        self.samples, self.count, self.budget = samples, count, budget

    def setup(self, work: Path, seed: int):
        self.config = work / "select.json"
        _write_json(self.config, {
            "mode": "select",
            "out": str(work / "unused"),
            "mixture": {"samples_per_component": self.samples},
            "candidates": {"count": self.count, "box": BOX},
            "budget": self.budget,
            "order": 1,
        })
        _cli(["select", "--config", self.config, "--seed", seed,
              "--threads", 1, "--emit-plot-data", "--out", work / "warm",
              "--mixture.samples_per_component", 10,
              "--candidates.count", 16, "--budget", 3,
              "--solver.max_iter", 20], "select warm-up")

    def operation(self, op_seed: int, out: Path):
        _cli(["select", "--config", self.config, "--seed", op_seed,
              "--threads", 1, "--emit-plot-data", "--out", out], "select")

    def collect(self, op_seed: int, out: Path, raw) -> Outcome:
        result = json.loads((out / f"result_seed{op_seed}.json").read_text())
        with open(out / f"samples_seed{op_seed}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        groups = np.array([int(r[0]) for r in rows])
        points = np.array([[float(c) for c in r[1:]] for r in rows])
        sizes = np.bincount(groups)
        # uniform mixture weights, spread evenly over each group's particles
        weights = (1.0 / len(sizes)) / sizes[groups]
        candidates = _read_points(out / f"candidates_seed{op_seed}.csv")
        selected = _read_points(out / f"selected_seed{op_seed}.csv")
        failures = []
        if not np.array_equal(candidates[result["selected_indices"]], selected):
            failures.append("selected points differ from selected_indices")
        recomputed = gates.selection_objective(
            points, weights, selected, float(result["order"])
        )
        failures += gates.check_selection(result, recomputed, self.budget)
        return Outcome(
            answer=float(result["distance"]),
            solves=[(float(result["objective"]), float(result["best_dual"]))],
            artifacts=_artifacts(out),
            failures=failures,
        )


class SelectLarge:
    """build_stage_instance + run_subgradient called directly at a size whose
    stacked cost matrix is far larger than L2."""

    name = "select_large"

    def __init__(self, samples=500, count=2048, budget=51, max_iter=100):
        self.samples, self.count, self.budget = samples, count, budget
        self.max_iter = max_iter

    def setup(self, work: Path, seed: int):
        self.components = generators.demo_mixture()
        means = np.array([c.mean for c in self.components])
        self.mixture_weights = np.full(len(means), 1.0 / len(means))
        self.marginal = DiscreteDistribution(means, self.mixture_weights)
        clouds = generators.sample_gaussian_mixture(self.components, 20, seed)
        cands = generators.sobol_lattice(2, 64, BOX)
        instance = pipeline.build_stage_instance(
            self.marginal, clouds, cands, 1.0, 5
        )
        dual.run_subgradient(instance, dual.SolverConfig(max_iter=5))

    def operation(self, op_seed: int, out: Path):
        clouds = generators.sample_gaussian_mixture(
            self.components, self.samples, op_seed
        )
        candidates = generators.sobol_lattice(2, self.count, BOX)
        instance = pipeline.build_stage_instance(
            self.marginal, clouds, candidates, 1.0, self.budget
        )
        config = dual.SolverConfig(
            max_iter=self.max_iter, seed=op_seed, threads=1
        )
        return clouds, candidates, dual.run_subgradient(instance, config)

    def collect(self, op_seed: int, out: Path, raw) -> Outcome:
        clouds, candidates, result = raw
        points = np.vstack(clouds)
        weights = np.repeat(
            self.mixture_weights / [len(c) for c in clouds],
            [len(c) for c in clouds],
        )
        selected = candidates[np.flatnonzero(result.gamma)]
        recomputed = gates.selection_objective(points, weights, selected, 1.0)
        summary = {
            "objective": result.objective,
            "best_dual": result.best_dual,
            "sum_gamma": int(np.sum(result.gamma)),
        }
        return Outcome(
            answer=float(result.objective),
            solves=[(float(result.objective), float(result.best_dual))],
            failures=gates.check_selection(summary, recomputed, self.budget),
        )


class PipelineWalk:
    """`kcompress pipeline` on the 2-D Gaussian walk, then `kcompress
    evaluate` of |x|^2 under the expectation mapping on its system file."""

    name = "pipeline_walk"
    COST = {"norm": {"center": [0.0, 0.0], "weight": 1.0, "power": 2}}

    def __init__(self, stages=3, samples=80, count=48, budget=8, sigma=0.8):
        self.stages, self.samples = stages, samples
        self.count, self.budget, self.sigma = count, budget, sigma
        # E|X_t|^2 = 2 t sigma^2 for the walk from the origin in 2-D
        self.true_value = sum(2 * t * sigma**2 for t in range(stages + 1))

    def setup(self, work: Path, seed: int):
        self.pipe_config = work / "pipeline.json"
        self.eval_config = work / "evaluate.json"
        stage = {"samples_per_source": self.samples,
                 "candidate_count": self.count, "budget": self.budget}
        _write_json(self.pipe_config, {
            "mode": "pipeline",
            "out": str(work / "unused"),
            "system": {"type": "gaussian_walk", "x0": [0.0, 0.0],
                       "sigma": self.sigma},
            "stages": [stage] * self.stages,
        })
        _write_json(self.eval_config, {
            "mode": "evaluate",
            "out": str(work / "unused"),
            "system_path": str(work / "unused.json"),
            "costs": [self.COST],
            "mapping": {"type": "expectation"},
        })
        self._run(seed, work / "warm", [
            "--stages", json.dumps([{"samples_per_source": 8,
                                     "candidate_count": 8, "budget": 2}]),
            "--solver.max_iter", 20,
        ])

    def _run(self, op_seed, out: Path, pipe_overrides=()):
        _cli(["pipeline", "--config", self.pipe_config, "--seed", op_seed,
              "--threads", 1, "--out", out / "pipe", *pipe_overrides],
             "pipeline")
        system = out / "pipe" / f"system_seed{op_seed}.json"
        _cli(["evaluate", "--config", self.eval_config, "--out", out / "eval",
              f"--system_path={system}"], "evaluate")

    def operation(self, op_seed: int, out: Path):
        self._run(op_seed, out)

    def collect(self, op_seed: int, out: Path, raw) -> Outcome:
        system = json.loads(
            (out / "pipe" / f"system_seed{op_seed}.json").read_text()
        )
        root = json.loads((out / "eval" / "evaluate_result.json").read_text())
        failures = gates.check_chain(system, self.budget)
        if not failures:
            want = gates.backward_values(
                system["supports"], gates.transition_matrices(system),
                self.COST, 0.0,
            )[0]
            failures += gates.check_value(float(root["root_value"]), want)
        solves = []
        for t, delta in enumerate(system["deltas"]):
            diag = out / "pipe" / f"diagnostics_stage{t}_seed{op_seed}.csv"
            with open(diag, newline="") as fh:
                best_dual = max(float(r["dual"]) for r in csv.DictReader(fh))
            solves.append((float(delta), best_dual))  # order 1: objective = delta
        return Outcome(
            answer=float(sum(system["deltas"])),
            solves=solves,
            value=(float(root["root_value"]), self.true_value),
            artifacts=_artifacts(out),
            failures=failures,
        )


class EvaluateWide:
    """`kcompress evaluate` with the semideviation mapping on a seeded dense
    synthetic system written in the JSON schema at set-up."""

    name = "evaluate_wide"
    KAPPA = 0.5
    COST = {
        "affine": {"coeff": [0.5, -0.25], "offset": 1.0},
        "norm": {"center": [0.0, 0.0], "weight": 1.0, "power": 2},
    }

    def __init__(self, stages=4, atoms=300):
        self.stages, self.atoms = stages, atoms

    @staticmethod
    def _system(rng, stages, atoms):
        """Supports, row-stochastic matrices, and the system file's text.

        Every row of kernel t repeats support t+1, so its JSON is encoded
        once and spliced into each row."""
        supports = []
        for t in range(stages + 1):
            # standardized per coordinate, so the value's scale does not
            # drift with the seed
            x = rng.normal(size=(atoms, 2))
            x = (x - x.mean(axis=0)) / x.std(axis=0) * (1.0 + 0.5 * t)
            supports.append(x)
        supports[0][0] = 0.0  # the root state, whose value evaluate reports
        matrices = []
        for _ in range(stages):
            P = rng.random((atoms, atoms))
            matrices.append(P / P.sum(axis=1, keepdims=True))
        marginal = np.full(atoms, 1.0 / atoms)
        marginals = [marginal]
        for P in matrices:
            marginal = marginal @ P
            marginals.append(marginal / marginal.sum())
        enc = [json.dumps(s.tolist()) for s in supports]
        kernels = [
            '{"sources": %s, "rows": [%s]}' % (enc[t], ", ".join(
                '{"support": %s, "weights": %s}' % (enc[t + 1],
                                                    json.dumps(row.tolist()))
                for row in P
            ))
            for t, P in enumerate(matrices)
        ]
        margs = [
            '{"support": %s, "weights": %s}' % (e, json.dumps(m.tolist()))
            for e, m in zip(enc, marginals)
        ]
        text = '{"supports": [%s], "kernels": [%s], "marginals": [%s], ' \
            '"deltas": %s}' % (", ".join(enc), ", ".join(kernels),
                               ", ".join(margs), json.dumps([0.0] * stages))
        return supports, matrices, text

    def _write(self, path: Path, config: Path, rng, stages, atoms):
        supports, matrices, text = self._system(rng, stages, atoms)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        _write_json(config, {
            "mode": "evaluate",
            "out": str(path.parent / "unused"),
            "system_path": str(path),
            "costs": [self.COST],
            "mapping": {"type": "semideviation", "kappa": self.KAPPA},
        })
        return supports, matrices

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.config = work / "evaluate.json"
        supports, matrices = self._write(
            work / "system.json", self.config, rng, self.stages, self.atoms
        )
        self.root = supports[0][0]
        self.want = gates.backward_values(
            supports, matrices, self.COST, self.KAPPA
        )[0]
        warm_config = work / "warm" / "evaluate.json"
        self._write(work / "warm" / "system.json", warm_config, rng, 2, 8)
        _cli(["evaluate", "--config", warm_config,
              "--out", work / "warm" / "out"], "evaluate warm-up")

    def operation(self, op_seed: int, out: Path):
        _cli(["evaluate", "--config", self.config, "--out", out], "evaluate")

    def collect(self, op_seed: int, out: Path, raw) -> Outcome:
        root = json.loads((out / "evaluate_result.json").read_text())
        got = float(root["root_value"])
        failures = gates.check_value(got, self.want)
        if not np.array_equal(root["root_state"], self.root):
            failures.append("root_state is not the first atom of support 0")
        return Outcome(
            answer=got,
            value=(got, self.want),
            artifacts=_artifacts(out),
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (SelectDesk, SelectLarge, PipelineWalk,
                                 EvaluateWide)}


def clear(path: Path):
    shutil.rmtree(path, ignore_errors=True)
