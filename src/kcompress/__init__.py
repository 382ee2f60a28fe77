"""kcompress: compression of empirical Markov kernels onto small supports.

The package splits into layers:

* core: distributions, kernels, systems, pairwise costs; the system file.
* transport: exact Wasserstein distances and assignment distances.
* oracle: exhaustive solver for the selection problem on tiny instances.
* dual: the certified dual subgradient method (the workhorse).
* pipeline: stage-by-stage approximation of a Markov system.
* risk: backward value evaluation with pluggable risk mappings.
* generators: seeded Gaussian mixture sampling and Sobol lattices.
* cli: the `kcompress` command.
"""

from .core import (
    DiscreteDistribution,
    DiscreteKernel,
    DiscreteSystem,
    compose_marginal,
    pairwise_cost,
)
from .transport import (
    TransportPlan,
    assignment_distance,
    integrated_distance,
    wasserstein_exact,
)
from .oracle import SelectionInstance, solve_exact
from .dual import SelectionResult, SolverConfig, run_subgradient
from .pipeline import (
    GenerativeSystem,
    StageRule,
    StageSpec,
    approximate_system,
    build_stage_instance,
    implied_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteDistribution",
    "DiscreteKernel",
    "DiscreteSystem",
    "GenerativeSystem",
    "SelectionInstance",
    "SelectionResult",
    "SolverConfig",
    "StageRule",
    "StageSpec",
    "TransportPlan",
    "approximate_system",
    "assignment_distance",
    "build_stage_instance",
    "compose_marginal",
    "implied_kernel",
    "integrated_distance",
    "pairwise_cost",
    "run_subgradient",
    "solve_exact",
    "wasserstein_exact",
]
