"""Polynomial basis families with exact one-step conditional expectations.

Under the Euler transition from state x over step i, the next state is
conditionally Gaussian:

    X' = m + s*G,   m = x + delta_i * b(t_i, x),   s = sigma(t_i, x) * sqrt(delta_i),

with G standard normal.  Step i regresses on the time column t_{i+1}, so
basis i lives there: every basis function is a polynomial in the scaled
state u = (x - shift) / scale_i of that column.  Its conditional
expectation reduces to Gaussian moments E[(m' + s'G)^d] of the scaled
transition (m' = (m - shift)/scale_i, s' = s/scale_i), which satisfy
mu_0 = 1, mu_1 = m', mu_d = m' * mu_{d-1} + (d-1) * s'^2 * mu_{d-2}.
That makes the conditional expectation (and its x-derivative) exact up to
rounding, never a quadrature.

Families: ``laguerre`` (unit-norm for the exp(-u) weight on [0, inf) as
standard), ``hermite`` (probabilists', unnormalized), ``monomial``.
Each family is one three-term recurrence for the values and one derivative
rule p'_{n+1} = d_n p'_n + e_n p_n.  Applied repeatedly at one point, the
rule gives the Taylor coefficients of every p_n there: at u = 0 that is
the monomial table.

Each basis quantity has one evaluator, on Taylor coefficients c[..., d] in
powers of u - centre: Horner's rule for the derivative, a running Gaussian
moment sum for the expectation, and the two combined for the expectation's
derivative.  The regression-later sweep needs only one combination
sum_j w_j e_j at a time: the ``*_dot`` operations fold w into one such
polynomial about the scaled start state, with no (M, k) matrix.  Every
step maps the start state to one centre, so one table, built once per
basis, serves every step.  The matrix operations pass the
centre-0 table, one polynomial per basis function.

The values and the three evaluators run over blocks of _BLOCK states, so
that their temporaries stay in cache.  Every operation is elementwise in
the states, so no bit depends on the block size.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .model import FbsdeProblem, TimeGrid

__all__ = [
    "BasisSet",
    "BASIS_FAMILIES",
    "MAX_DEGREE",
    "gaussian_moments",
]

BASIS_FAMILIES = ("laguerre", "hermite", "monomial")

# Moment expansions degrade in double precision past this degree.
MAX_DEGREE = 30

# States per block of the values and the evaluators: their (k, block)
# temporaries stay in L2.
_BLOCK = 16_384


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


class BasisSet:
    """Per-step polynomial basis tied to one (problem, grid) pair.

    Basis i lives on the column t_{i+1} that step i regresses on: hermite
    standardises by the start state and sqrt(t_{i+1}), laguerre and
    monomial scale by one constant.

    ``eval``/``grad`` evaluate the k basis functions and their state
    derivatives; ``cond_exp``/``cond_exp_grad`` give the exact one-step
    conditional expectation E[e_i(X_{t_{i+1}}) | X_{t_i} = x] under the
    Euler transition of step i, and its x-derivative.

    ``grad_dot``/``cond_exp_dot``/``cond_exp_grad_dot`` give the same
    quantities for one coefficient vector w, e.g. ``grad(i, x) @ w``, from
    the same evaluators as the matrix operations.

    States are read as a vector of M values, a scalar as M = 1.  The matrix
    operations return shape (M, k), the ``*_dot`` operations (M,).  Every
    operation is elementwise in the states, so a state's result does not
    depend on how many states are passed with it.
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
        # u = (x - shift) / scale[i] on the column t_{i+1} of step i.
        x0 = float(problem.initial_state)
        if family == "hermite":
            # Standardize around the start state; sqrt(t_{i+1}) tracks the
            # diffusive spread.
            self._shift, self._scale = x0, np.sqrt(grid.times[1:])
        else:
            # laguerre/monomial: map the state to O(1) by the start value
            # when it is positive (pricing-style problems), identity otherwise.
            self._shift, self._scale = 0.0, np.full(grid.n_steps, x0 if x0 > 0 else 1.0)
        self._table = self._taylor_table(0.0)
        # The combination ops fold their coefficients about the scaled start
        # state: hermite shifts by it and the other maps are constant, so
        # every step maps it to this one centre.
        self._centre = (x0 - self._shift) / float(self._scale[0])
        self._fold_table = self._taylor_table(self._centre)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _as_vector(x) -> np.ndarray:
        return np.atleast_1d(np.asarray(x, dtype=np.float64))

    def _check_step(self, i: int) -> int:
        if not 0 <= i < self.grid.n_steps:
            raise IndexError(f"step index {i} out of range [0, {self.grid.n_steps})")
        return i

    def _scaled(self, i: int, x) -> np.ndarray:
        """The states as scaled values u = (x - shift) / scale_i."""
        u = self._as_vector(x) - self._shift
        u /= self._scale[i]
        return u

    def _transition(self, i: int, x: np.ndarray):
        """Scaled mean/std of the step-i Euler transition started at x."""
        t = self.grid.times[i]
        dt = self.grid.deltas[i]
        m = x + dt * np.asarray(self.problem.drift(t, x), dtype=np.float64)
        s = np.asarray(self.problem.diffusion(t, x), dtype=np.float64) * np.sqrt(dt)
        return (m - self._shift) / self._scale[i], s / self._scale[i]

    def _slopes(self, i: int, x: np.ndarray):
        """x-derivatives of the scaled transition mean and std of step i."""
        t = self.grid.times[i]
        dt = self.grid.deltas[i]
        b_x = np.asarray(self.problem.drift_dx(t, x), dtype=np.float64)
        sigma_x = np.asarray(self.problem.diffusion_dx(t, x), dtype=np.float64)
        return (1.0 + dt * b_x) / self._scale[i], sigma_x * np.sqrt(dt) / self._scale[i]

    def _polys(self, u: np.ndarray) -> np.ndarray:
        """p_0..p_{k-1} at the scaled states u, block by block: one (k, M)
        array, returned transposed, the layout a factorisation consumes."""
        p = np.empty((self.k, u.size))
        tmp = np.empty(min(u.size, _BLOCK))
        for lo in range(0, u.size, _BLOCK):
            ub, pb = u[lo:lo + _BLOCK], p[:, lo:lo + _BLOCK]
            pb[0] = 1.0
            for n, (a, b, c, _, _) in enumerate(self._coefficients):
                nxt = pb[n + 1]
                np.multiply(ub, a, out=nxt)
                if b:
                    nxt += b
                nxt *= pb[n]
                if c:
                    nxt -= np.multiply(pb[n - 1], c, out=tmp[:ub.size])
        return p.T

    def _differentiate(self, p: np.ndarray) -> np.ndarray:
        """u-derivatives of the values p_0..p_{k-1} at one point, by the rule
        p'_{n+1} = d_n p'_n + e_n p_n."""
        out = np.zeros_like(p)
        for n, (_, _, _, d, e) in enumerate(self._coefficients):
            out[n + 1] = e * p[n] + d * out[n] if d else e * p[n]
        return out

    def _taylor_table(self, centre: float) -> np.ndarray:
        """Entry (j, d) is p_j^(d)(centre)/d!: row j holds the coefficients
        of p_j in powers of u - centre."""
        if self.family == "laguerre" and centre == 0.0:
            # L_n(0) = 1 exactly; the float recurrence is a few ulps off at high n.
            p = np.ones(self.k)
        else:
            p = self._polys(np.array([centre]))[0]
        table = np.empty((self.k, self.k))
        for d in range(self.k):
            table[:, d] = p / float(factorial(d))
            p = self._differentiate(p)
        return table

    def _fold(self, i: int, weights):
        """Taylor coefficients c_d of q = sum_j w_j p_j in powers of
        u - centre, summed over j in a fixed order, and the centre."""
        self._check_step(i)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.k,):
            raise ValueError(f"weights shape {w.shape} does not match basis size {self.k}")
        return (w[:, None] * self._fold_table).sum(axis=0), self._centre

    @staticmethod
    def _gaussian_sum(coefs: np.ndarray, mean: np.ndarray, std: np.ndarray,
                      acc: np.ndarray) -> np.ndarray:
        """sum_d coefs[..., d] E[(mean + std*G)^d] into ``acc``, running the
        moment recurrence with an accumulator: elementwise in the states, so
        a state's result does not depend on how many are passed.  A (k,)
        ``coefs`` fills shape (M,), a (k, k) table fills (k, M) rows."""
        acc[...] = coefs[..., 0, None] if coefs.shape[-1] else 0.0
        if coefs.shape[-1] < 2:
            return acc
        tmp = np.empty_like(acc)
        acc += np.multiply(coefs[..., 1, None], mean, out=tmp)
        var = std * std
        prev, cur, nxt = np.ones_like(mean), mean.copy(), np.empty_like(mean)
        for d in range(2, coefs.shape[-1]):
            # mu_d = mean * mu_{d-1} + (d-1) * var * mu_{d-2}
            np.multiply(var, d - 1, out=nxt)
            nxt *= prev
            np.multiply(mean, cur, out=prev)
            prev += nxt
            prev, cur = cur, prev
            acc += np.multiply(coefs[..., d, None], cur, out=tmp)
        return acc

    # -- one evaluator per quantity, on Taylor coefficients in u - centre --
    # Each fills ``out``, of shape coefs.shape[:-1] + x.shape, for one block
    # of states x; ``_over_blocks`` runs it over all of them.

    def _over_blocks(self, evaluate, i: int, x, coefs: np.ndarray, centre: float) -> np.ndarray:
        x = self._as_vector(x)
        out = np.empty(coefs.shape[:-1] + x.shape)
        for lo in range(0, x.size, _BLOCK):
            evaluate(i, x[lo:lo + _BLOCK], coefs, centre, out[..., lo:lo + _BLOCK])
        return out

    def _slope(self, i: int, x, coefs: np.ndarray, centre: float, out: np.ndarray) -> None:
        """q'(u) by Horner's rule, times the chain-rule factor 1/scale_i."""
        v = self._scaled(i, x)
        v -= centre
        out[...] = (self.k - 1) * coefs[..., -1, None]
        for d in range(self.k - 2, 0, -1):
            out *= v
            out += d * coefs[..., d, None]
        out /= self._scale[i]

    def _expectation(self, i: int, x, coefs: np.ndarray, centre: float,
                     out: np.ndarray) -> None:
        """E[q(U)] from the moments of U - centre."""
        m, s = self._transition(i, x)
        m -= centre
        self._gaussian_sum(coefs, m, s, out)

    def _expectation_slope(self, i: int, x, coefs: np.ndarray, centre: float,
                           out: np.ndarray) -> None:
        """d/dx E[q(U)] for U = m' + s'G.

        d/dx E[q(U)] = m'' E[q'(U)] + s'' E[q'(U) G], and Gaussian
        integration by parts, E[q'(U) G] = s' E[q''(U)], gives
        m'' E[q'(U)] + s' s'' E[q''(U)], with m'' = dm'/dx, s'' = ds'/dx.
        """
        m, s = self._transition(i, x)
        m -= centre
        dm, ds = self._slopes(i, x)
        d = np.arange(self.k, dtype=np.float64)
        self._gaussian_sum(d[1:] * coefs[..., 1:], m, s, out)
        second = self._gaussian_sum(d[2:] * d[1:-1] * coefs[..., 2:], m, s,
                                    np.empty_like(out))
        out *= dm
        second *= s * ds
        out += second

    # -- operations --------------------------------------------------------

    def eval(self, i: int, x) -> np.ndarray:
        """Basis values e_i(x), the transpose of a C-contiguous (k, M) array;
        component j is the degree-j polynomial of the scaled state."""
        return self._polys(self._scaled(self._check_step(i), x))

    def grad(self, i: int, x) -> np.ndarray:
        """State derivative of eval, including the chain-rule scaling factor."""
        return self._over_blocks(self._slope, self._check_step(i), x, self._table, 0.0).T

    def cond_exp(self, i: int, x) -> np.ndarray:
        """Exact E[e_i(X_{t_{i+1}}) | X_{t_i} = x] under the Euler transition."""
        return self._over_blocks(self._expectation, self._check_step(i), x,
                                 self._table, 0.0).T

    def cond_exp_grad(self, i: int, x) -> np.ndarray:
        """Exact x-derivative of cond_exp."""
        return self._over_blocks(self._expectation_slope, self._check_step(i), x,
                                 self._table, 0.0).T

    def grad_dot(self, i: int, x, weights) -> np.ndarray:
        """grad(i, x) @ weights."""
        return self._over_blocks(self._slope, i, x, *self._fold(i, weights))

    def cond_exp_dot(self, i: int, x, weights) -> np.ndarray:
        """cond_exp(i, x) @ weights."""
        return self._over_blocks(self._expectation, i, x, *self._fold(i, weights))

    def cond_exp_grad_dot(self, i: int, x, weights) -> np.ndarray:
        """cond_exp_grad(i, x) @ weights."""
        return self._over_blocks(self._expectation_slope, i, x, *self._fold(i, weights))
