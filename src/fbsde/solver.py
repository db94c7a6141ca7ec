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

Both schemes are step functions, from the values at t_{i+1} to those at
t_i, of one backward loop over the time columns j = N down to 0: the later
step j-1, then the now step j.  Both read column j's design, e_{j-1} at
X_{t_j}.  The later step factors it in place and hands the factorisation to
the now step, so one k x M array serves each column; a now step alone
factors its column itself.
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
    "solve",
    "solve_regress_later",
    "solve_regress_now",
]

SCHEMES = ("later", "now")

# The per-step record of each scheme's step, in the order the step makes it.
_FIELDS = {"later": ("condition", "alpha", "beta", "max_abs_y"),
           "now": ("condition", "picard_iterations", "picard_gap", "max_abs_y")}


@dataclass(eq=False)
class SolverResult:
    """Initial-time estimates plus the per-step record of one backward sweep.

    ``diagnostics`` maps each field to a list of N values, entry i for step
    i: ``condition`` and ``max_abs_y`` for both schemes, ``alpha`` and
    ``beta`` for the later scheme, ``picard_iterations`` and
    ``picard_gap`` for the now scheme.  ``runtime_ms`` is the set-up plus
    this scheme's own steps; with both schemes the later steps factor the
    designs the two share.
    """

    y0: float
    z0: float
    scheme: str
    runtime_ms: float
    diagnostics: dict

    @property
    def max_condition(self) -> float:
        return max(self.diagnostics["condition"])


def solve(problem: FbsdeProblem, grid: TimeGrid, basis: BasisSet, paths: PathEnsemble,
          schemes=SCHEMES, ridge: float = 0.0, picard_iters: int = 5,
          picard_tol: float = 1e-10) -> list[SolverResult]:
    """One result per scheme, in the given order, from one sweep over the
    time columns j = N down to 0 that runs the later step j-1 and then the
    now step j, whatever the given order; the later step hands its factored
    column to the now step when both run.  Each result is bit for bit its
    scheme's alone, the first failing step in loop order fails the sweep, and
    y0 is the step-0 value at the one initial state all paths share."""
    started = time.perf_counter()
    if paths.grid != grid:
        raise ValueError("path ensemble was generated on a different grid")
    if basis.grid != grid:
        raise ValueError("basis transition was built on a different grid")
    if basis.problem is not problem:
        raise ValueError("basis transition was built for a different problem")
    if not np.all(paths.states[:, 0] == problem.initial_state):
        raise ValueError("path ensemble does not start at the problem's initial state")
    if not schemes or len(set(schemes)) < len(schemes) or not set(schemes) <= set(SCHEMES):
        raise ValueError(f"schemes must be distinct members of {SCHEMES}, got {schemes!r}")
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
    if "now" in schemes and picard_iters < 1:
        raise ValueError("picard_iters must be at least 1")
    if "now" in schemes and not picard_tol >= 0.0:
        raise ValueError(f"picard_tol must be nonnegative, got {picard_tol!r}")

    times, deltas = grid.times, grid.deltas
    states, increments = paths.states, paths.increments
    N = grid.n_steps
    x0 = np.array([problem.initial_state], dtype=np.float64)  # every path's X_{t_0}
    x0.setflags(write=False)
    handed = None  # column j's factorisation, from the later step j-1 to the now step j
    z0 = {}  # each scheme's step 0 reads its initial Z

    def column(j):
        """Basis j-1 at X_{t_j}, a fresh (k, M) array for a factorisation to consume."""
        design = basis.eval(j - 1, states[:, j])
        if not np.all(np.isfinite(design)):  # an invalid value: fails the asking step
            raise FloatingPointError("non-finite basis values")
        return design

    def later(i, y):
        nonlocal handed
        x_next = states[:, i + 1]
        alpha, condition, fit = project(column(i + 1), y, ridge=ridge)
        z_next = basis.grad_dot(i, x_next, alpha) * problem.diffusion(times[i + 1], x_next)
        f_next = np.asarray(problem.driver(times[i + 1], x_next, y, z_next), dtype=np.float64)
        if not np.all(np.isfinite(f_next)):
            raise NumericalError(f"non-finite driver values at step {i}")
        beta = fit.solve(f_next)
        if "now" in schemes and i + 1 < N:
            handed = fit
        # Free the factored design (every block's Q^T), unless handed on, and the
        # pathwise fields before cond_exp_dot allocates: this keeps the peak down.
        del fit, f_next, z_next
        weights = alpha + deltas[i] * beta
        y = basis.cond_exp_dot(i, states[:, i] if i else x0, weights)
        if i == 0:  # the initial Z is read off the step-0 fit too
            sigma0 = np.asarray(problem.diffusion(times[0], x0))[0]
            z0["later"] = float(sigma0) * float(basis.cond_exp_grad_dot(0, x0, weights)[0])
        return y, {"condition": condition, "alpha": alpha, "beta": beta}

    def now(i, y):
        nonlocal handed
        if i == 0:
            # At t_0 the conditioning sigma-algebra is trivial: regressions are means.
            x = x0
            e_y = np.array([float(y.mean())])
            z0["now"] = float((y * increments[:, 0]).mean() / deltas[0])
            z = np.asarray([z0["now"]])
            condition = 1.0
        else:
            x = states[:, i]
            fit = handed if handed is not None else FactoredDesign(column(i), ridge=ridge)
            handed = None
            condition = fit.condition
            e_y = fit.fitted(y)
            z = fit.fitted(y * increments[:, i] / deltas[i])
            del fit

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

    ys = dict.fromkeys(schemes, np.asarray(problem.terminal(states[:, N]), dtype=np.float64))
    if not np.all(np.isfinite(ys[schemes[0]])):
        raise NumericalError(f"non-finite terminal values at step {N}")
    diagnostics = {scheme: {name: [None] * N for name in _FIELDS[scheme]}
                   for scheme in schemes}
    spent = dict.fromkeys(schemes, time.perf_counter() - started)

    def run(scheme, step, i):
        began = time.perf_counter()
        # An overflow, invalid value or division by zero fails the step at
        # once, with the operation in the message, and never warns.
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                ys[scheme], record = step(i, ys[scheme])
        except FloatingPointError as exc:
            raise NumericalError(f"{exc} at step {i}") from exc
        # One reduction both records and checks: np.max propagates NaN and inf.
        record["max_abs_y"] = float(np.max(np.abs(ys[scheme])))
        if not np.isfinite(record["max_abs_y"]):
            raise NumericalError(f"non-finite fitted values at step {i}")
        for name, value in record.items():
            diagnostics[scheme][name][i] = value
        spent[scheme] += time.perf_counter() - began

    for j in range(N, -1, -1):
        if "later" in schemes and j > 0:
            run("later", later, j - 1)
        if "now" in schemes and j < N:
            run("now", now, j)

    results = [SolverResult(float(ys[scheme][0]), z0[scheme], scheme, spent[scheme] * 1e3,
                            diagnostics[scheme]) for scheme in schemes]
    if not all(np.isfinite(result.y0) and np.isfinite(result.z0) for result in results):
        raise NumericalError("non-finite initial values at step 0")
    return results


def solve_regress_later(problem: FbsdeProblem, grid: TimeGrid, basis: BasisSet,
                        paths: PathEnsemble, ridge: float = 0.0) -> SolverResult:
    """Run the regression-later backward sweep on a simulated ensemble.

    Per step i (from N-1 down to 0): project the pathwise next-time value
    onto the basis at X_{t_{i+1}} (alpha), differentiate that fit for the
    pathwise Z at t_{i+1}, project the driver values (beta), then evaluate
    the fitted value at t_i through the exact conditional expectation.
    Z and the expectation come from the basis operations on coefficient
    vectors (``grad_dot``, ``cond_exp_dot``), and each step's design is one
    (k, M) array that its factorisation overwrites.
    The initial pair is read off the step-0 fit:
    y0 = (alpha + beta*delta_0) . cond_exp(0, x0), the step-0 value, and
    z0 = sigma(0, x0) * (alpha + beta*delta_0) . cond_exp_grad(0, x0).
    """
    return solve(problem, grid, basis, paths, ("later",), ridge=ridge)[0]


def solve_regress_now(problem: FbsdeProblem, grid: TimeGrid, basis: BasisSet,
                      paths: PathEnsemble, picard_iters: int = 5, picard_tol: float = 1e-10,
                      ridge: float = 0.0) -> SolverResult:
    """Run the implicit backward sweep with regression-now conditional
    expectations on the same ensemble interface as the later scheme.

    Per step i >= 1: regress the pathwise next-time values and their
    increment-weighted counterparts on the basis at X_{t_i}, taking the
    fitted values straight from the design's factorisation, then solve the
    implicit equation y = E_hat[Y_{t_{i+1}}] + delta_i * f(t_i, x, y, z) by
    Picard iteration (delta * Lipschitz(f) < 1 makes it a contraction; a
    capped iteration that stops short is reported, not raised).  At i = 0
    the sigma-algebra is trivial and both regressions collapse to sample
    means.
    """
    return solve(problem, grid, basis, paths, ("now",), ridge=ridge,
                 picard_iters=picard_iters, picard_tol=picard_tol)[0]
