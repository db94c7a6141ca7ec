"""Polynomial basis families with exact one-step conditional expectations.

Under the Euler transition from state x over step i, the next state is
conditionally Gaussian:

    X' = m + s*G,   m = x + delta_i * b(t_i, x),   s = sigma(t_i, x) * sqrt(delta_i),

with G standard normal.  Every basis function here is a polynomial in an
affinely scaled state u = (x - shift_i) / scale_i, so its conditional
expectation reduces to Gaussian moments E[(m' + s'G)^d] of the scaled
transition (m' = (m - shift_i)/scale_i, s' = s/scale_i), which satisfy
mu_0 = 1, mu_1 = m', mu_d = m' * mu_{d-1} + (d-1) * s'^2 * mu_{d-2}.
That makes the conditional expectation (and its x-derivative) exact up to
rounding, never a quadrature.

Families: ``laguerre`` (unit-norm for the exp(-u) weight on [0, inf) as
standard), ``hermite`` (probabilists', unnormalized), ``monomial``.
Each family is one three-term recurrence for the values and one derivative
rule p'_{n+1} = d_n p'_n + e_n p_n.  The rule has constant coefficients, so
it also maps E[p_n(U)] to E[p'_n(U)], and it gives the monomial table as
the Taylor coefficients at u = 0.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

import numpy as np

from .model import FbsdeProblem, TimeGrid

__all__ = [
    "BasisSet",
    "BASIS_FAMILIES",
    "MAX_DEGREE",
    "gaussian_moments",
    "gaussian_poly_expectation",
]

BASIS_FAMILIES = ("laguerre", "hermite", "monomial")

# Moment expansions degrade in double precision past this degree.
MAX_DEGREE = 30


def _recurrence_coefficients(family: str, n: int) -> tuple[float, float, float, float, float]:
    """(a_n, b_n, c_n, d_n, e_n) of the recurrence
    p_{n+1}(u) = (a_n u + b_n) p_n(u) - c_n p_{n-1}(u) and the derivative
    rule p'_{n+1}(u) = d_n p'_n(u) + e_n p_n(u)."""
    if family == "monomial":
        # u^{n+1}' = (n+1) u^n
        return 1.0, 0.0, 0.0, 0.0, n + 1.0
    if family == "hermite":
        # He_{n+1} = u He_n - n He_{n-1};  He_{n+1}' = (n+1) He_n
        return 1.0, 0.0, float(n), 0.0, n + 1.0
    # (n+1) L_{n+1} = (2n+1-u) L_n - n L_{n-1};  L_{n+1}' = L_n' - L_n
    return -1 / (n + 1), (2 * n + 1) / (n + 1), n / (n + 1), 1.0, -1.0


def gaussian_moments(mean: np.ndarray, std: np.ndarray, max_degree: int) -> np.ndarray:
    """Raw moments E[(mean + std*G)^d], d = 0..max_degree, G ~ N(0,1).

    ``mean`` and ``std`` broadcast together; returns shape
    (max_degree+1,) + broadcast shape.
    """
    if max_degree > MAX_DEGREE:
        raise ValueError(f"degree {max_degree} exceeds supported maximum {MAX_DEGREE}")
    mean, std = np.broadcast_arrays(np.asarray(mean, dtype=np.float64),
                                    np.asarray(std, dtype=np.float64))
    mu = np.empty((max_degree + 1,) + mean.shape)
    mu[0] = 1.0
    if max_degree >= 1:
        mu[1] = mean
    var = std * std
    for d in range(2, max_degree + 1):
        mu[d] = mean * mu[d - 1] + (d - 1) * var * mu[d - 2]
    return mu


def gaussian_poly_expectation(coeffs: Sequence[float], mean, std) -> np.ndarray:
    """E[p(mean + std*G)] for the polynomial p given by monomial coeffs
    (ascending degree)."""
    c = np.asarray(coeffs, dtype=np.float64)
    mu = gaussian_moments(mean, std, c.size - 1)
    return np.tensordot(c, mu, axes=(0, 0))


class BasisSet:
    """Per-time-index polynomial basis tied to one (problem, grid) pair.

    ``eval``/``grad`` evaluate the k basis functions and their state
    derivatives; ``cond_exp``/``cond_exp_grad`` give the exact one-step
    conditional expectation E[e_i(X_{t_{i+1}}) | X_{t_i} = x] under the
    Euler transition of step i, and its x-derivative.

    All operations accept a scalar state (returning shape (k,)) or a state
    vector of shape (M,) (returning (M, k)).
    """

    def __init__(self, family: str, k: int, problem: FbsdeProblem, grid: TimeGrid) -> None:
        if family not in BASIS_FAMILIES:
            raise ValueError(f"unknown basis family {family!r}")
        if k < 1:
            raise ValueError(f"basis size must be at least 1, got k={k}")
        if k - 1 > MAX_DEGREE:
            raise ValueError(
                f"k={k} needs degree {k - 1} > {MAX_DEGREE}; larger bases are rejected"
            )
        self.family = family
        self.k = k
        self.problem = problem
        self.grid = grid
        self._coefficients = [_recurrence_coefficients(family, n) for n in range(k - 1)]
        self._shift, self._scale = self._scaling(family, problem, grid)
        self._table = self._taylor_table()

    @staticmethod
    def _scaling(family: str, problem: FbsdeProblem, grid: TimeGrid):
        n = grid.n_steps
        if family == "hermite":
            # Standardize around the start state; sqrt(t_i) tracks the
            # diffusive spread.  t_0 = 0 falls back to the identity map.
            shift = np.full(n + 1, problem.initial_state)
            scale = np.sqrt(grid.times)
            shift[0] = 0.0
            scale[0] = 1.0
            return shift, scale
        # laguerre/monomial: map the state to O(1) by the start value when
        # it is positive (pricing-style problems), identity otherwise.
        x0 = problem.initial_state
        shift = np.zeros(n + 1)
        scale = np.full(n + 1, x0 if x0 > 0 else 1.0)
        return shift, scale

    # -- helpers -----------------------------------------------------------

    def _as_vector(self, x):
        arr = np.asarray(x, dtype=np.float64)
        return np.atleast_1d(arr), arr.ndim == 0

    def _check_step(self, i: int) -> int:
        if not 0 <= i < self.grid.n_steps:
            raise IndexError(f"step index {i} out of range [0, {self.grid.n_steps})")
        return i

    def _transition(self, i: int, x: np.ndarray):
        """Scaled mean/std of the step-i Euler transition started at x."""
        t = self.grid.times[i]
        dt = self.grid.deltas[i]
        m = x + dt * np.asarray(self.problem.drift(t, x), dtype=np.float64)
        s = np.asarray(self.problem.diffusion(t, x), dtype=np.float64) * np.sqrt(dt)
        return (m - self._shift[i]) / self._scale[i], s / self._scale[i]

    def _polys(self, u: np.ndarray) -> np.ndarray:
        """p_0..p_{k-1} at the scaled states u: one (k, M) buffer, returned
        transposed, since a factorisation copies a column-major design straight."""
        p = np.empty((self.k, u.size))
        p[0] = 1.0
        tmp = np.empty_like(u)
        for n, (a, b, c, _, _) in enumerate(self._coefficients):
            nxt = p[n + 1]
            np.multiply(u, a, out=nxt)
            if b:
                nxt += b
            nxt *= p[n]
            if c:
                nxt -= np.multiply(p[n - 1], c, out=tmp)
        return p.T

    def _differentiate(self, rows: np.ndarray) -> np.ndarray:
        """Overwrite the (k, M) rows p_0..p_{k-1} (values, or conditional
        expectations of the values) with their u-derivatives, by the rule
        p'_{n+1} = d_n p'_n + e_n p_n, elementwise.  Returns ``rows``."""
        p, saved, tmp = rows[0].copy(), np.empty_like(rows[0]), np.empty_like(rows[0])
        rows[0] = 0.0
        for n, (_, _, _, d, e) in enumerate(self._coefficients):
            nxt = rows[n + 1]
            saved[...] = nxt
            np.multiply(p, e, out=nxt)
            if d:
                nxt += np.multiply(rows[n], d, out=tmp)
            p, saved = saved, p
        return rows

    def _taylor_table(self) -> np.ndarray:
        """Entry (j, d) is p_j^(d)(0)/d!: row j holds the monomial coefficients of p_j."""
        rows = self._polys(np.zeros(1)).T
        table = np.empty((self.k, self.k))
        for d in range(self.k):
            table[:, d] = rows[:, 0] / float(factorial(d))
            self._differentiate(rows)
        return table

    # -- operations --------------------------------------------------------

    def eval(self, i: int, x) -> np.ndarray:
        """Basis values e_i(x); component j is the degree-j polynomial of
        the scaled state."""
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        out = self._polys((xv - self._shift[i]) / self._scale[i])
        return out[0] if scalar else out

    def grad(self, i: int, x) -> np.ndarray:
        """State derivative of eval, including the chain-rule scaling factor."""
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        rows = self._differentiate(self._polys((xv - self._shift[i]) / self._scale[i]).T)
        rows /= self._scale[i]
        out = rows.T
        return out[0] if scalar else out

    def _expectations(self, m: np.ndarray, s: np.ndarray) -> np.ndarray:
        """(k, M) rows E[p_j(m + s*G)]: moments times the Taylor table."""
        mu = gaussian_moments(m, s, self.k - 1)          # (k, M)
        return np.tensordot(self._table, mu, axes=(1, 0))

    def cond_exp(self, i: int, x) -> np.ndarray:
        """Exact E[e_i(X_{t_{i+1}}) | X_{t_i} = x] under the Euler transition."""
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        out = self._expectations(*self._transition(i, xv)).T
        return out[0] if scalar else out

    def cond_exp_grad(self, i: int, x) -> np.ndarray:
        """Exact x-derivative of cond_exp.

        With U = m' + s'G, d/dx E[p(U)] = m'' E[p'(U)] + s'' E[p'(U) G], and
        Gaussian integration by parts, E[p'(U) G] = s' E[p''(U)], gives
        m'' D(h) + s' s'' D(D(h)), where h are the cond_exp rows, D is the
        derivative rule, m'' = dm'/dx and s'' = ds'/dx.
        """
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        t = self.grid.times[i]
        dt = self.grid.deltas[i]
        m, s = self._transition(i, xv)
        dm = (1.0 + dt * self.problem.drift_x(t, xv)) / self._scale[i]
        ds = self.problem.diffusion_x(t, xv) * np.sqrt(dt) / self._scale[i]

        first = self._differentiate(self._expectations(m, s))
        second = self._differentiate(first.copy())
        first *= dm
        second *= s * ds
        first += second
        out = first.T
        return out[0] if scalar else out
