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

Both schemes are step rules, from the values at t_{i+1} to those at t_i,
of one backward loop; ``solve`` runs them in lockstep, the later step j-1
and then the now step j at each time column j, sharing that column's one
design, e_{j-1} at X_{t_j}, and its factorisation, which overwrites it:
one k x M array per column.
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


@dataclass(eq=False)
class SolverResult:
    """Initial-time estimates plus the per-step record of one backward sweep.

    ``diagnostics`` maps each field to a list of N values, entry i for step
    i: ``condition`` and ``max_abs_y`` for both schemes, ``alpha`` and
    ``beta`` for the later scheme, ``picard_iterations`` and
    ``picard_gap`` for the now scheme.  ``runtime_ms`` is the set-up plus
    this scheme's own steps, which include any shared design they factored.
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


class _SharedDesign:
    """The last factorisation, keyed by its time column j, of basis j-1 at
    X_{t_j}, evaluated into a fresh (k, M) array that it consumes; ``project``
    factors it if the first read gives a target, which the now step never does.
    Dropped once every rule has read it or another column is asked for, so a
    rule alone frees it after every step."""

    def __init__(self, basis: BasisSet, states: np.ndarray, ridge: float, users: int):
        self._basis, self._states, self._ridge, self._users = basis, states, ridge, users
        self._column, self._fit, self._reads = None, None, 0

    def fit(self, j: int, target=None):
        """Coefficients of ``target`` (None if not given) and column j's factorisation."""
        coefs = None
        if j != self._column:
            self._column = self._fit = None
            design = self._basis.eval(j - 1, self._states[:, j])
            if not np.all(np.isfinite(design)):
                # An invalid value, which the sweep reports at the asking step.
                raise FloatingPointError("non-finite basis values")
            if target is None:
                self._fit = FactoredDesign(design, ridge=self._ridge)
            else:
                coefs, _, self._fit = project(design, target, ridge=self._ridge)
            self._column, self._reads = j, 0
        elif target is not None:
            coefs = self._fit.solve(target)
        fit, self._reads = self._fit, self._reads + 1
        if self._reads == self._users:
            self._column = self._fit = None
        return coefs, fit


def _later_rule(problem, grid, basis, paths, designs):
    """Step rule and z0 read-off of the regression-later scheme."""
    times, deltas, states = grid.times, grid.deltas, paths.states

    def step(i, target):
        x_next = states[:, i + 1]
        alpha, fit = designs.fit(i + 1, target)
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

    return step, initial_z


def _now_rule(problem, grid, paths, designs, picard_iters, picard_tol):
    """Step rule and z0 read-off of the regression-now scheme, whose two
    regressions are fitted values of column i's shared factorisation."""
    times, deltas = grid.times, grid.deltas
    states, increments = paths.states, paths.increments
    z0 = float("nan")

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
            _, fit = designs.fit(i)
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

    return step, lambda diagnostics: z0


def solve(problem: FbsdeProblem, grid: TimeGrid, basis: BasisSet, paths: PathEnsemble,
          schemes=SCHEMES, ridge: float = 0.0, picard_iters: int = 5,
          picard_tol: float = 1e-10) -> list[SolverResult]:
    """One result per scheme, in the given order, from one lockstep sweep over
    the time columns j = N down to 0, where the later scheme takes its step
    j-1 and the now scheme its step j: each result is bit for bit its
    scheme's alone, and the first failing (step, scheme) in loop order fails
    the sweep.  y0 is the step-0 value of every path."""
    started = time.perf_counter()
    if paths.grid != grid:
        raise ValueError("path ensemble was generated on a different grid")
    if basis.grid != grid:
        raise ValueError("basis transition was built on a different grid")
    if basis.problem is not problem:
        raise ValueError("basis transition was built for a different problem")
    if not np.all(paths.states[:, 0] == problem.initial_state):
        raise ValueError("path ensemble does not start at the problem's initial state")
    if not schemes or any(scheme not in SCHEMES for scheme in schemes):
        raise ValueError(f"schemes must be drawn from {SCHEMES}, got {schemes!r}")
    if "now" in schemes and picard_iters < 1:
        raise ValueError("picard_iters must be at least 1")

    designs = _SharedDesign(basis, paths.states, ridge, len(schemes))
    rules = [_later_rule(problem, grid, basis, paths, designs) if scheme == "later"
             else _now_rule(problem, grid, paths, designs, picard_iters, picard_tol)
             for scheme in schemes]
    N = grid.n_steps
    ys = [np.asarray(problem.terminal(paths.states[:, N]), dtype=np.float64)] * len(rules)
    _require_finite(ys[0], N, "terminal values")
    diagnostics: list[dict] = [{} for _ in rules]
    spent = [time.perf_counter() - started] * len(rules)
    for j in range(N, -1, -1):
        for r, (step, _) in enumerate(rules):
            i = j - 1 if schemes[r] == "later" else j
            if not 0 <= i < N:
                continue
            began = time.perf_counter()
            # An overflow, invalid value or division by zero fails the step
            # at once, with the operation in the message, and never warns.
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    ys[r], record = step(i, ys[r])
            except FloatingPointError as exc:
                raise NumericalError(f"{exc} at step {i}") from exc
            # One reduction both records and checks: np.max propagates NaN and inf.
            record["max_abs_y"] = float(np.max(np.abs(ys[r])))
            if not np.isfinite(record["max_abs_y"]):
                raise NumericalError(f"non-finite fitted values at step {i}")
            for name, value in record.items():
                diagnostics[r].setdefault(name, [None] * N)[i] = value
            spent[r] += time.perf_counter() - began

    results = [SolverResult(float(y[0]), initial_z(record), scheme, seconds * 1e3, record)
               for scheme, (_, initial_z), y, record, seconds
               in zip(schemes, rules, ys, diagnostics, spent)]
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
    Only one combination of the basis is needed at a time, so Z and the
    expectation come from the basis operations on coefficient vectors
    (``grad_dot``, ``cond_exp_dot``), and every step's design is evaluated
    into one (k, M) buffer that its factorisation then overwrites: no other
    (M, k) array is formed.
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
