"""Least-squares Monte Carlo solvers for decoupled forward-backward
stochastic differential equations, with a regression-later scheme, the
classical regression-now implicit scheme, and closed-form oracles for
error measurement."""

from .basis import BASIS_FAMILIES, MAX_DEGREE, BasisSet
from .cli import ReportRow, RunConfig, run
from .model import (CATALOG_DEFAULTS, FbsdeProblem, ProblemCatalogEntry,
                    TimeGrid, make_problem, make_uniform_grid)
from .oracle import (NestedEstimate, ReferenceValue, arctan_solution,
                     black_scholes, nested_mc_y0, reference_for)
from .regress import project
from .simulate import PathEnsemble, euler_states, simulate_paths
from .solver import (NumericalError, SolverResult, solve_regress_later,
                     solve_regress_now)

__all__ = [
    "BASIS_FAMILIES",
    "MAX_DEGREE",
    "BasisSet",
    "ReportRow",
    "RunConfig",
    "run",
    "CATALOG_DEFAULTS",
    "FbsdeProblem",
    "ProblemCatalogEntry",
    "TimeGrid",
    "make_problem",
    "make_uniform_grid",
    "NestedEstimate",
    "ReferenceValue",
    "arctan_solution",
    "black_scholes",
    "nested_mc_y0",
    "reference_for",
    "project",
    "PathEnsemble",
    "euler_states",
    "simulate_paths",
    "NumericalError",
    "SolverResult",
    "solve_regress_later",
    "solve_regress_now",
]

__version__ = "0.1.0"
