"""Multiobjective accelerated gradient methods and inertial gradient flows.

Core surface:

* :mod:`mograd.simplex_qp` - the two simplex-constrained hull QPs.
* :mod:`mograd.problems` - benchmark problems, KKT residual, registry.
* :mod:`mograd.solvers` - the discrete methods, one step template with two
  choices: momentum (corrected, accelerated, none) and step rule (constant
  or backtracking).
* :mod:`mograd.flow` - explicit integration of the inertial flows.
* :mod:`mograd.merit` - merit function evaluator and 2-D grid oracle.
* :mod:`mograd.harness` - deterministic batch experiment runner.
"""

from .flow import FlowConfig, Trajectory, attach_merit, mavd_integrate, mavng_integrate, merit_bound_scan
from .harness import ExperimentConfig, flow_experiment, pareto_scan, run_batch, run_trace
from .merit import MeritResult, merit_grid_oracle, merit_value
from .problems import (
    InvalidConfig,
    ProblemInstance,
    available_problems,
    get_problem,
    jos1,
    kkt_residual,
    logsumexp_pair,
    quadratic_pair,
    regularized_least_squares_triple,
    regularized_logsumexp_triple,
    sd,
    toi4,
)
from .simplex_qp import HullSolution, min_norm_in_hull, project_onto_scaled_hull
from .solvers import (
    IterationTrace,
    SolverConfig,
    line_search_backtracking,
    mfisc_momentum,
    run_solver,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "FlowConfig",
    "HullSolution",
    "InvalidConfig",
    "IterationTrace",
    "MeritResult",
    "ProblemInstance",
    "SolverConfig",
    "Trajectory",
    "attach_merit",
    "available_problems",
    "flow_experiment",
    "get_problem",
    "jos1",
    "kkt_residual",
    "line_search_backtracking",
    "logsumexp_pair",
    "mavd_integrate",
    "mavng_integrate",
    "merit_bound_scan",
    "merit_grid_oracle",
    "merit_value",
    "mfisc_momentum",
    "min_norm_in_hull",
    "pareto_scan",
    "project_onto_scaled_hull",
    "quadratic_pair",
    "regularized_least_squares_triple",
    "regularized_logsumexp_triple",
    "run_batch",
    "run_solver",
    "run_trace",
    "sd",
    "toi4",
]
