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
Values and state derivatives are evaluated by each family's three-term
recurrence, one pass per basis function.  The monomial coefficient tables
that the conditional expectations need are built from the same
recurrences in exact rational arithmetic and then rounded once to float64.
"""

from __future__ import annotations

from fractions import Fraction
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


def _recurrence_coefficients(family: str, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(a_n, b_n, c_n) of p_{n+1}(u) = (a_n u + b_n) p_n(u) - c_n p_{n-1}(u)."""
    if family == "monomial":
        return Fraction(1), Fraction(0), Fraction(0)
    if family == "hermite":
        # He_{n+1} = u He_n - n He_{n-1}
        return Fraction(1), Fraction(0), Fraction(n)
    # (n+1) L_{n+1} = (2n+1-u) L_n - n L_{n-1}
    return Fraction(-1, n + 1), Fraction(2 * n + 1, n + 1), Fraction(n, n + 1)


def _coefficient_table(family: str, k: int) -> np.ndarray:
    """k x k lower-triangular table; row j holds the monomial coefficients
    of the degree-j family polynomial, exact until the final rounding."""
    rows = [[Fraction(1)]]
    for n in range(k - 1):
        a, b, c = _recurrence_coefficients(family, n)
        new = [Fraction(0)] * (n + 2)
        for d, coef in enumerate(rows[n]):
            new[d] += b * coef
            new[d + 1] += a * coef
        if n >= 1:
            for d, coef in enumerate(rows[n - 1]):
                new[d] -= c * coef
        rows.append(new)
    table = np.zeros((k, k))
    for j, row in enumerate(rows):
        for d, coef in enumerate(row):
            table[j, d] = float(coef)
    return table


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
        self._table = _coefficient_table(family, k)
        self._recurrence = [tuple(float(v) for v in _recurrence_coefficients(family, n))
                            for n in range(k - 1)]
        self._shift, self._scale = self._scaling(family, problem, grid)

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

    # -- operations --------------------------------------------------------

    def eval(self, i: int, x) -> np.ndarray:
        """Basis values e_i(x); component j is the degree-j polynomial of
        the scaled state."""
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        u = (xv - self._shift[i]) / self._scale[i]
        # Rows of one (k, M) buffer, returned transposed: the (M, k) design
        # is column-major, the layout a factorisation copies straight.
        p = np.empty((self.k, u.size))
        p[0] = 1.0
        tmp = np.empty_like(u)
        for n, (a, b, c) in enumerate(self._recurrence):
            nxt = p[n + 1]
            np.multiply(u, a, out=nxt)
            if b:
                nxt += b
            nxt *= p[n]
            if c:
                nxt -= np.multiply(p[n - 1], c, out=tmp)
        out = p.T
        return out[0] if scalar else out

    def grad(self, i: int, x) -> np.ndarray:
        """State derivative of eval, including the chain-rule scaling factor.

        Differentiates the recurrence:
        p'_{n+1} = a_n p_n + (a_n u + b_n) p'_n - c_n p'_{n-1}.
        """
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        u = (xv - self._shift[i]) / self._scale[i]
        dp = np.empty((self.k, u.size))
        dp[0] = 0.0
        p_prev, p = np.zeros_like(u), np.ones_like(u)
        factor, tmp = np.empty_like(u), np.empty_like(u)
        for n, (a, b, c) in enumerate(self._recurrence):
            np.multiply(u, a, out=factor)
            if b:
                factor += b
            nxt = dp[n + 1]
            np.multiply(factor, dp[n], out=nxt)
            nxt += np.multiply(p, a, out=tmp)
            factor *= p
            if c:
                nxt -= np.multiply(dp[n - 1], c, out=tmp)
                factor -= np.multiply(p_prev, c, out=tmp)
            # factor now holds p_{n+1}; the buffer of p_{n-1} is free.
            p_prev, p, factor = p, factor, p_prev
        dp /= self._scale[i]
        out = dp.T
        return out[0] if scalar else out

    def cond_exp(self, i: int, x) -> np.ndarray:
        """Exact E[e_i(X_{t_{i+1}}) | X_{t_i} = x] under the Euler transition."""
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        m, s = self._transition(i, xv)
        mu = gaussian_moments(m, s, self.k - 1)          # (k, M)
        out = np.tensordot(self._table, mu, axes=(1, 0)).T
        return out[0] if scalar else out

    def cond_exp_grad(self, i: int, x) -> np.ndarray:
        """Exact x-derivative of cond_exp.

        Differentiates the moment expansion through the x-dependence of the
        transition mean and standard deviation:
        d mu_d / dx = d*m'' * mu_{d-1} + d*(d-1) * s' * s'' * mu_{d-2},
        with m'' = dm'/dx and s'' = ds'/dx.
        """
        self._check_step(i)
        xv, scalar = self._as_vector(x)
        t = self.grid.times[i]
        dt = self.grid.deltas[i]
        m, s = self._transition(i, xv)
        dm = (1.0 + dt * self.problem.drift_x(t, xv)) / self._scale[i]
        ds = self.problem.diffusion_x(t, xv) * np.sqrt(dt) / self._scale[i]
        dm, ds = np.broadcast_arrays(dm, ds)

        mu = gaussian_moments(m, s, self.k - 1)
        dmu = np.zeros_like(mu)
        if self.k > 1:
            dmu[1] = dm
        s_ds = np.broadcast_to(s, dm.shape) * ds
        for d in range(2, self.k):
            dmu[d] = d * dm * mu[d - 1] + d * (d - 1) * s_ds * mu[d - 2]
        out = np.tensordot(self._table, dmu, axes=(1, 0)).T
        return out[0] if scalar else out
