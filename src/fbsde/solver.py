"""Backward sweeps: the regression-later scheme and the classical
regression-now implicit scheme.

Regression-later fits the *next-time* value as a function of the next
state (coefficients alpha), reads Z off that fit by differentiation, fits
the driver the same way (beta), and steps backward through the exact
one-step conditional expectation of the basis:

    Y_{t_i} = (alpha + beta * delta_i) . E[e_i(X_{t_{i+1}}) | X_{t_i}].

One regression target per step is a conditional expectation; Z needs no
increment-weighted regression.  Regression-now approximates both
E[Y_{t_{i+1}} | F_{t_i}] and the increment-weighted expectation defining Z
by regressions on the time-t_i design and resolves the implicit Y equation
with a short Picard iteration.

Both schemes run the same sweep over one ensemble and differ only in the
step rule that maps the values at t_{i+1} to those at t_i.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet
from .model import FbsdeProblem, TimeGrid
from .regress import FactoredDesign, project
from .simulate import NumericalError, PathEnsemble

__all__ = [
    "SolverResult",
    "NumericalError",
    "solve_regress_later",
    "solve_regress_now",
]


@dataclass(eq=False)
class SolverResult:
    """Initial-time estimates plus the per-step record of one backward sweep.

    ``diagnostics`` maps each field to a list of N values, entry i for step
    i: ``condition`` and ``max_abs_y`` for both schemes, ``alpha`` and
    ``beta`` for the later scheme, ``picard_iterations`` and
    ``picard_gap`` for the now scheme.
    """

    y0: float
    z0: float
    scheme: str
    runtime_ms: float
    diagnostics: dict

    @property
    def max_condition(self) -> float:
        return max(self.diagnostics["condition"])


def _require_finite(arr: np.ndarray, step: int, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite {what} at step {step}")


def _sweep(scheme, problem, grid, basis, paths, step, initial_z) -> SolverResult:
    """Shared backward sweep.

    ``step(i, y)`` maps the pathwise values at t_{i+1} to those at t_i and
    returns them with the step's diagnostic fields; ``initial_z(diagnostics)``
    reads z0 off the step-0 outcome.  y0 is the step-0 value, which every
    path shares, since all start at x0.
    """
    started = time.perf_counter()
    if paths.grid != grid:
        raise ValueError("path ensemble was generated on a different grid")
    if basis.grid != grid:
        raise ValueError("basis transition was built on a different grid")
    if basis.problem is not problem:
        raise ValueError("basis transition was built for a different problem")
    if not np.all(paths.states[:, 0] == problem.initial_state):
        raise ValueError("path ensemble does not start at the problem's initial state")

    N = grid.n_steps
    y = np.asarray(problem.terminal(paths.states[:, N]), dtype=np.float64)
    _require_finite(y, N, "terminal values")
    diagnostics: dict = {}
    for i in range(N - 1, -1, -1):
        # An overflow, invalid value or division by zero fails the step at
        # once, with the operation in the message, and never warns.
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                y, record = step(i, y)
        except FloatingPointError as exc:
            raise NumericalError(f"{exc} at step {i}") from exc
        # One reduction both records and checks: np.max propagates NaN and inf.
        record["max_abs_y"] = float(np.max(np.abs(y)))
        if not np.isfinite(record["max_abs_y"]):
            raise NumericalError(f"non-finite fitted values at step {i}")
        for name, value in record.items():
            diagnostics.setdefault(name, [None] * N)[i] = value

    y0, z0 = float(y[0]), initial_z(diagnostics)
    if not (np.isfinite(y0) and np.isfinite(z0)):
        raise NumericalError("non-finite initial values at step 0")
    return SolverResult(y0=y0, z0=z0, scheme=scheme,
                        runtime_ms=(time.perf_counter() - started) * 1e3,
                        diagnostics=diagnostics)


def solve_regress_later(
    problem: FbsdeProblem,
    grid: TimeGrid,
    basis: BasisSet,
    paths: PathEnsemble,
    ridge: float = 0.0,
) -> SolverResult:
    """Run the regression-later backward sweep on a simulated ensemble.

    Per step i (from N-1 down to 0): project the pathwise next-time value
    onto the basis at X_{t_{i+1}} (alpha), differentiate that fit for the
    pathwise Z at t_{i+1}, project the driver values (beta), then evaluate
    the fitted value at t_i through the exact conditional expectation.
    Only one combination of the basis is needed at a time, so Z and the
    expectation come from the basis operations on coefficient vectors
    (``grad_dot``, ``cond_exp_dot``), and every step's design is written
    into one (k, M) buffer: no other (M, k) array is formed.
    The initial pair is read off the step-0 fit:
    y0 = (alpha + beta*delta_0) . cond_exp(0, x0), the step-0 value, and
    z0 = sigma(0, x0) * (alpha + beta*delta_0) . cond_exp_grad(0, x0).
    """
    times, deltas, states = grid.times, grid.deltas, paths.states
    design_rows = np.empty((basis.k, states.shape[0]))

    def step(i, target):
        x_next = states[:, i + 1]
        design = basis.eval(i, x_next, out=design_rows)
        _require_finite(design, i, "basis values")
        fit = FactoredDesign(design, ridge=ridge)
        alpha = fit.solve(target)

        z_next = basis.grad_dot(i, x_next, alpha) * problem.diffusion(times[i + 1], x_next)
        f_next = np.asarray(
            problem.driver(times[i + 1], x_next, target, z_next), dtype=np.float64
        )
        _require_finite(f_next, i, "driver values")
        beta = fit.solve(f_next)
        condition = fit.condition
        # Free the factored design (every block's Q^T) and the pathwise
        # fields before cond_exp_dot allocates its moment buffers: this
        # keeps the sweep's peak down.
        del fit, f_next, z_next

        y = basis.cond_exp_dot(i, states[:, i], alpha + deltas[i] * beta)
        return y, {"condition": condition, "alpha": alpha, "beta": beta}

    def initial_z(diagnostics):
        x0 = np.array([problem.initial_state])
        weights = diagnostics["alpha"][0] + deltas[0] * diagnostics["beta"][0]
        sigma0 = np.asarray(problem.diffusion(times[0], x0))[0]
        return float(sigma0) * float(basis.cond_exp_grad_dot(0, x0, weights)[0])

    return _sweep("later", problem, grid, basis, paths, step, initial_z)


def solve_regress_now(
    problem: FbsdeProblem,
    grid: TimeGrid,
    basis: BasisSet,
    paths: PathEnsemble,
    picard_iters: int = 5,
    picard_tol: float = 1e-10,
    ridge: float = 0.0,
) -> SolverResult:
    """Run the implicit backward sweep with regression-now conditional
    expectations on the same ensemble interface as the later scheme.

    Per step i >= 1: regress the pathwise next-time values and their
    increment-weighted counterparts on the basis at X_{t_i}, then solve the
    implicit equation y = E_hat[Y_{t_{i+1}}] + delta_i * f(t_i, x, y, z) by
    Picard iteration (delta * Lipschitz(f) < 1 makes it a contraction; a
    capped iteration that stops short is reported, not raised).  At i = 0
    the sigma-algebra is trivial and both regressions collapse to sample
    means.
    """
    if picard_iters < 1:
        raise ValueError("picard_iters must be at least 1")
    times, deltas = grid.times, grid.deltas
    states, increments = paths.states, paths.increments
    z0 = float("nan")
    # Every step's design and its two targets reuse one buffer each.
    design_rows = np.empty((basis.k, states.shape[0]))
    target_rows = np.empty((2, states.shape[0]))

    def step(i, y):
        nonlocal z0
        if i == 0:
            # At t_0 the conditioning sigma-algebra is trivial: regressions are means.
            x = np.asarray([problem.initial_state], dtype=np.float64)
            e_y = np.array([float(y.mean())])
            z0 = float((y * increments[:, 0]).mean() / deltas[0])
            z = np.asarray([z0])
            condition = 1.0
        else:
            x = states[:, i]
            design = basis.eval(i, x, out=design_rows)
            _require_finite(design, i, "basis values")
            # Both targets are known up front: one factorisation serves both.
            target_rows[0] = y
            np.multiply(y, increments[:, i], out=target_rows[1])
            target_rows[1] /= deltas[i]
            coefs, condition = project(design, target_rows.T, ridge=ridge)
            e_y = design @ coefs[:, 0]
            z = design @ coefs[:, 1]

        # Picard iteration on y = e_y + delta_i * f(t_i, x, y, z).
        current = e_y.copy()
        for iterations in range(1, picard_iters + 1):
            proposal = e_y + deltas[i] * np.asarray(
                problem.driver(times[i], x, current, z), dtype=np.float64)
            gap = float(np.max(np.abs(proposal - current)))
            current = proposal
            # Converged, or a NaN or infinite gap: stop; a non-finite
            # iterate then fails the sweep's finite check.
            if not picard_tol <= gap < np.inf:
                break
        return current, {"condition": condition, "picard_iterations": iterations,
                         "picard_gap": gap}

    return _sweep("now", problem, grid, basis, paths, step, lambda diagnostics: z0)
