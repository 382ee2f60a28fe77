"""Span tracing from outside the program, and the per-layer metrics.

Each layer's public functions are wrapped at the module attribute their
callers resolve (``kcompress.cli.run_subgradient`` and
``kcompress.pipeline.run_subgradient`` are separate names for one
function). A span records its name, start, end, parent span and operation
id; spans stay in memory until the run writes them out once. A wrapped name
that no longer exists is skipped, so it records zero spans.

Self time is a span's duration minus the time its direct children cover.
Within one operation the self times of all spans, the operation's root span
included, add up to the operation's wall time; the root span's self time is
the part no layer span covers ("untraced").
"""

from __future__ import annotations

import functools
import importlib
import time
from statistics import median

import numpy as np

LAYERS = (
    "generators", "core", "oracle", "dual", "transport", "pipeline", "risk",
    "cli",
)
ROOT = "bench.op"
# a solve counts as certified once its best dual is within this share of
# its objective
CERTIFIED_GAP = 1e-2


def _dual_attrs(args, kwargs, result):
    instance = args[0]
    hist = np.asarray(result.history_dual)
    best = np.maximum.accumulate(hist)
    reached = result.objective - best <= CERTIFIED_GAP * result.objective
    cert = int(np.argmax(reached)) if reached.any() else len(hist)
    elapsed = np.asarray(result.history_elapsed_ms)
    return {
        "iters": int(result.iterations),
        "loop_s": float(elapsed[-1]) / 1e3,
        "cells": int(instance.n_particles) * int(instance.n_candidates),
        "cert_iter": cert,
        "cert_s": float(elapsed[min(cert, len(elapsed) - 1)]) / 1e3,
        "converged": bool(result.converged),
    }


def _cost_attrs(args, kwargs, result):
    return {"entries": int(np.prod(result.entries.shape))}


def _transport_attrs(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[1])}


def _sources_attrs(args, kwargs, result):
    return {"sources": len(args[0])}


def _lookup_attrs(args, kwargs, result):
    system = args[0]
    return {"lookups": sum(len(row) for k in system.kernels for row in k.rows)}


# (module, attribute path, span name, attribute extractor)
TARGETS = (
    ("kcompress.cli", "main", "cli.main", None),
    ("kcompress.cli", "sample_gaussian_mixture",
     "generators.sample_gaussian_mixture", None),
    ("kcompress.generators", "sample_gaussian_mixture",
     "generators.sample_gaussian_mixture", None),
    ("kcompress.cli", "sobol_lattice", "generators.sobol_lattice", None),
    ("kcompress.pipeline", "sobol_lattice", "generators.sobol_lattice", None),
    ("kcompress.generators", "sobol_lattice", "generators.sobol_lattice", None),
    ("kcompress.oracle", "pairwise_cost", "core.pairwise_cost", _cost_attrs),
    ("kcompress.transport", "pairwise_cost", "core.pairwise_cost", _cost_attrs),
    ("kcompress.cli", "compose_marginal", "core.compose_marginal", None),
    ("kcompress.pipeline", "compose_marginal", "core.compose_marginal", None),
    ("kcompress.core", "kernel_from_dict", "core.kernel_from_dict", None),
    ("kcompress.core", "distribution_from_dict",
     "core.distribution_from_dict", None),
    ("kcompress.core", "kernel_to_dict", "core.kernel_to_dict", None),
    ("kcompress.core", "distribution_to_dict", "core.distribution_to_dict",
     None),
    ("kcompress.cli", "kernel_to_dict", "core.kernel_to_dict", None),
    ("kcompress.cli", "distribution_to_dict", "core.distribution_to_dict",
     None),
    ("kcompress.oracle", "SelectionInstance.build",
     "oracle.SelectionInstance.build", None),
    ("kcompress.oracle", "SelectionInstance.stacked_weighted_costs",
     "oracle.SelectionInstance.stacked_weighted_costs", None),
    ("kcompress.cli", "run_subgradient", "dual.run_subgradient", _dual_attrs),
    ("kcompress.pipeline", "run_subgradient", "dual.run_subgradient",
     _dual_attrs),
    ("kcompress.dual", "run_subgradient", "dual.run_subgradient", _dual_attrs),
    ("kcompress.cli", "wasserstein_exact", "transport.wasserstein_exact",
     _transport_attrs),
    ("kcompress.cli", "approximate_system", "pipeline.approximate_system",
     None),
    ("kcompress.cli", "build_stage_instance", "pipeline.build_stage_instance",
     _sources_attrs),
    ("kcompress.pipeline", "build_stage_instance",
     "pipeline.build_stage_instance", _sources_attrs),
    ("kcompress.cli", "implied_kernel", "pipeline.implied_kernel", None),
    ("kcompress.pipeline", "implied_kernel", "pipeline.implied_kernel", None),
    ("kcompress.cli", "candidate_lattice", "pipeline.candidate_lattice", None),
    ("kcompress.pipeline", "candidate_lattice", "pipeline.candidate_lattice",
     None),
    ("kcompress.cli", "system_to_dict", "pipeline.system_to_dict", None),
    ("kcompress.cli", "system_from_dict", "pipeline.system_from_dict", None),
    ("kcompress.cli", "evaluate_backward", "risk.evaluate_backward",
     _lookup_attrs),
)


class Tracer:
    """In-memory span recorder; install() wraps the targets, uninstall()
    puts the original attributes back."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent, op_id, attrs]
        self._stack = []
        self._saved = []
        self.op_id = None

    def _wrap(self, name, func, attrs):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.op_id, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, path, name, attrs in self.targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, attrs))
            else:
                wrapped = self._wrap(name, getattr(owner, attr), attrs)
                raw = getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def operation(self, op_id, fn, *args):
        """Run fn(*args) under a root span for one operation, with the
        targets wrapped only for its duration; returns fn's result."""
        self.op_id = op_id
        self.install()
        root = [ROOT, time.perf_counter(), None, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            return fn(*args)
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            self.uninstall()
            self.op_id = None

    def records(self):
        """Spans as JSON-ready lists [name, start, end, parent, op_id]."""
        return [s[:5] for s in self.spans]


def _self_times(spans):
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outer_time(spans, idx, names):
    """Time covered by spans in `names` that have no ancestor in `names`."""
    total = 0.0
    for i in idx:
        if spans[i][0] not in names:
            continue
        parent = spans[i][3]
        nested = False
        while parent >= 0:
            if spans[parent][0] in names:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            total += spans[i][2] - spans[i][1]
    return total


_INCLUSIVE = {
    "dual.solve_s": ("dual.run_subgradient",),
    "transport.wasserstein_s": ("transport.wasserstein_exact",),
    "oracle.build_s": ("oracle.SelectionInstance.build",),
    "core.pairwise_cost_s": ("core.pairwise_cost",),
    "core.compose_s": ("core.compose_marginal",),
    "core.json_decode_s": ("core.kernel_from_dict",
                           "core.distribution_from_dict"),
    "core.json_encode_s": ("core.kernel_to_dict", "core.distribution_to_dict"),
    "pipeline.approximate_s": ("pipeline.approximate_system",),
    "pipeline.build_s": ("pipeline.build_stage_instance",),
    "pipeline.implied_kernel_s": ("pipeline.implied_kernel",),
    "risk.evaluate_s": ("risk.evaluate_backward",),
    "generators.sample_s": ("generators.sample_gaussian_mixture",),
    "generators.sobol_s": ("generators.sobol_lattice",),
    "cli.run_s": ("cli.main",),
}


def layer_metrics(spans, op_extra):
    """Per-layer metrics from the spans of the traced operations.

    Times and counts are means per operation; ratios are formed from run
    totals. op_extra maps op_id to counts the benchmark measured itself
    (artifact bytes and files). Raises if an operation's self times do not
    add up to its wall time.
    """
    own = _self_times(spans)
    ops = {}
    for i, s in enumerate(spans):
        ops.setdefault(s[4], []).append(i)
    n = len(ops)
    out = {}
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    duals = []
    for op_id, idx in ops.items():
        root = [i for i in idx if spans[i][0] == ROOT]
        if len(root) != 1:
            raise ValueError(f"operation {op_id} has {len(root)} root spans")
        wall = spans[root[0]][2] - spans[root[0]][1]
        self_sum = sum(own[i] for i in idx)
        if abs(self_sum - wall) > 1e-6 * max(1.0, wall):
            raise ValueError(
                f"operation {op_id}: self times {self_sum} != wall {wall}"
            )
        add("trace.op_s", wall)
        add("trace.untraced_s", own[root[0]])
        add("trace.spans", len(idx))
        for layer in LAYERS:
            add(f"{layer}.self_s", sum(
                own[i] for i in idx if spans[i][0].startswith(layer + ".")
            ))
        for key, names in _INCLUSIVE.items():
            add(key, _outer_time(spans, idx, set(names)))
        for i in idx:
            name, attrs = spans[i][0], spans[i][5]
            if name == "oracle.SelectionInstance.stacked_weighted_costs":
                add("oracle.stacked_calls", 1)
            elif name == "transport.wasserstein_exact":
                add("transport.calls", 1)
                add("transport.cells", attrs["cells"])
            elif name == "core.pairwise_cost":
                add("core.cost_entries", attrs["entries"])
            elif name == "risk.evaluate_backward":
                add("risk.lookups", attrs["lookups"])
            elif name == "pipeline.build_stage_instance":
                out["pipeline.sources_max"] = max(
                    out.get("pipeline.sources_max", 0), attrs["sources"]
                )
            elif name == "dual.run_subgradient":
                duals.append(attrs)
                add("dual.loop_s", attrs["loop_s"])
                add("dual.iters", attrs["iters"])
                add("dual.sweep_bytes_computed",
                    8.0 * attrs["iters"] * attrs["cells"])
        for key, value in op_extra.get(op_id, {}).items():
            add(key, value)

    for key, value in totals.items():
        out[key] = value / n if n else 0.0
    out["trace.ops"] = n
    out["dual.post_s"] = out.get("dual.solve_s", 0.0) - out.get("dual.loop_s", 0.0)
    iters = totals.get("dual.iters", 0.0)
    out["dual.ms_per_iter"] = 1e3 * totals.get("dual.loop_s", 0.0) / iters if iters else 0.0
    lookups = totals.get("risk.lookups", 0.0)
    out["risk.ns_per_lookup"] = (
        1e9 * totals.get("risk.evaluate_s", 0.0) / lookups if lookups else 0.0
    )
    out["dual.cert_iter"] = median(d["cert_iter"] for d in duals) if duals else 0
    out["dual.cert_s"] = median(d["cert_s"] for d in duals) if duals else 0.0
    out["dual.converged_frac"] = (
        sum(d["converged"] for d in duals) / len(duals) if duals else 0.0
    )
    return out
