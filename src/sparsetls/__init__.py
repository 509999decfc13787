"""Sparse recovery from fully-perturbed linear systems.

A proximal-gradient solver for the l1-regularized total-least-squares
quotient cost, an alternating-direction coordinate-descent baseline, a
deterministic synthetic-instance generator, and a benchmark experiment
suite with CSV output.  Every name stays importable from its submodule;
the package re-exports the ones its callers use.
"""

from .adcd import adcd_coordinate_update, adcd_init, adcd_solve, adcd_step
from .cli import cli_main
from .experiments import (
    ExperimentConfig,
    default_lambda_grid,
    default_xi_grid,
    iteration_schedule,
    solve_instance,
)
from .kernel import eval_cost, gradient, shrink
from .metrics import squared_error, support_errors
from .problems import (
    Ensemble,
    ScenarioConfig,
    gaussian_matrix,
    generate_instance,
    instance_digest,
    load_instance,
    rademacher_matrix,
    save_instance,
    scenario_config,
    sparse_signal,
)
from .prox_solver import (
    BacktrackingError,
    TraceRecord,
    adaptive_step,
    line_search_ok,
    pg_init,
    pg_solve,
    pg_step,
)
from .rng import derive_stream

__version__ = "0.1.0"

__all__ = [
    "BacktrackingError", "Ensemble", "ExperimentConfig", "ScenarioConfig",
    "TraceRecord",
    "adaptive_step", "adcd_coordinate_update", "adcd_init", "adcd_solve",
    "adcd_step", "cli_main", "default_lambda_grid", "default_xi_grid",
    "derive_stream", "eval_cost", "gaussian_matrix", "generate_instance",
    "gradient", "instance_digest", "iteration_schedule", "line_search_ok",
    "load_instance", "pg_init", "pg_solve", "pg_step", "rademacher_matrix",
    "save_instance", "scenario_config", "shrink", "solve_instance",
    "sparse_signal", "squared_error", "support_errors",
]
