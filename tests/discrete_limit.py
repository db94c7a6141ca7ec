"""Noise-free references for the later scheme's discrete limit, the
recursion it converges to as M, k -> infinity:

    y_N = phi,
    y_i(x) = E[s_{i+1}(X')],  s_{i+1} = y_{i+1} + delta_i * f(t_{i+1}, X', y_{i+1},
                                                            sigma(t_{i+1}, X') * y'_{i+1}),

with X' the Euler step from x, so Z is read off the derivative of the next
values, as the later step reads it with ``grad_dot``.  Both references are
deterministic and built from ``numpy.polynomial`` alone, with neither
``BasisSet`` nor ``fbsde.oracle``, so that they check the solver and the
nested oracle independently.
"""

import math

import numpy as np
from numpy.polynomial import Chebyshev, hermite_e, legendre

# y0 of the 60-node tree on arctan at N = 2 under the later rule
ARCTAN_N2_LATER_Y0 = 0.0314364102

_SPAN = 12.0  # half-width of every interval, in standard deviations


def _state_moments(problem, grid):
    """Mean and standard deviation of the Euler state X_{t_i}, by the delta
    method: exact when the drift and the diffusion are affine in x."""
    mean, var = [float(problem.initial_state)], [0.0]
    for t, dt in zip(grid.times[:-1], grid.deltas):
        x = np.array([mean[-1]])
        b, s = problem.drift(t, x)[0], problem.diffusion(t, x)[0]
        b_x, s_x = problem.drift_dx(t, x)[0], problem.diffusion_dx(t, x)[0]
        var.append((1.0 + dt * b_x) ** 2 * var[-1] + dt * (s * s + s_x * s_x * var[-1]))
        mean.append(mean[-1] + dt * b)
    return mean, np.sqrt(var)


def later_limit(problem, grid, kink=None, nodes=250, points=60):
    """y0 of the later scheme's discrete limit.

    Each y_i, i >= 1, is a Chebyshev interpolant with ``nodes`` nodes on
    mean +- 12 sd of X_{t_i}, and y'_i is its derivative.  Outside the
    interval both are read at the clamped state and y_i is continued
    linearly: the polynomial itself overflows at the outer quadrature nodes,
    and a constant continuation made the call at sigma = 0.2, N = 10 move by
    2e-5 between resolutions.  Each step's expectation is ``points``-point Gauss-
    Hermite quadrature, except the terminal step's when the payoff has a
    ``kink`` (K for call and put): that one is ``points``-point
    Gauss-Legendre on each side of the kink, over +- 12 sd of the step.
    """
    N, times, deltas = grid.n_steps, grid.times, grid.deltas
    mean, sd = _state_moments(problem, grid)
    g, g_weights = hermite_e.hermegauss(points)
    g_weights = g_weights / math.sqrt(2.0 * math.pi)
    u, u_weights = legendre.leggauss(points)

    def normals(cut):
        """Gauss-Legendre nodes and weights of the standard normal law on
        [-12, cut] and [cut, 12], one row per cut."""
        halves = [((cut - _SPAN) / 2, (cut + _SPAN) / 2), ((cut + _SPAN) / 2, (_SPAN - cut) / 2)]
        nodes_ = np.concatenate([mid[:, None] + half[:, None] * u for mid, half in halves], axis=1)
        weights = np.concatenate([half[:, None] * u_weights for _, half in halves], axis=1)
        return nodes_, weights * np.exp(-0.5 * nodes_ * nodes_) / math.sqrt(2.0 * math.pi)

    def step(x, i, values):
        """y_i at the states x, from values(X') = (y_{i+1}, y'_{i+1})."""
        dt = deltas[i]
        centre = x + dt * problem.drift(times[i], x)
        scale = problem.diffusion(times[i], x) * math.sqrt(dt)
        if kink is not None and i + 1 == N:
            with np.errstate(divide="ignore", invalid="ignore"):
                cut = np.clip(np.nan_to_num((kink - centre) / scale), -_SPAN, _SPAN)
            draws, weights = normals(cut)
        else:
            draws, weights = g[None, :], g_weights[None, :]
        kids = centre[:, None] + scale[:, None] * draws
        y, slope = values(kids)
        s = y + dt * problem.driver(times[i + 1], kids, y,
                                    problem.diffusion(times[i + 1], kids) * slope)
        return (weights * s).sum(axis=1)

    def continued(fit):
        """(y, y') of the interpolant, continued linearly outside its interval."""
        derivative = fit.deriv()

        def values(x):
            edge = np.clip(x, *fit.domain)
            slope = derivative(edge)
            return fit(edge) + slope * (x - edge), slope
        return values

    values = lambda x: (problem.terminal(x), problem.terminal_gradient(x))
    for i in range(N - 1, 0, -1):
        domain = (mean[i] - _SPAN * sd[i], mean[i] + _SPAN * sd[i])
        values = continued(Chebyshev.interpolate(step, nodes - 1, domain, args=(i, values)))
    return float(step(np.array([float(problem.initial_state)]), 0, values)[0])


def gauss_hermite_tree(problem, grid, z_from, nodes=60):
    """y0 of the nested recursion with every mean over a node's children
    replaced by ``nodes``-point Gauss-Hermite quadrature: y_i = E[s] over
    the children's summands s = v + delta_i * f(t_{i+1}, X', v, z'), and
    z_i = E[w * dW_i] / delta_i with w = z_from(s, v), v the children's
    values.  It has n^N leaves, so it serves N <= 4, and it has no kink
    split, so it is no reference for call and put."""
    N, times, deltas = grid.n_steps, grid.times, grid.deltas
    xi, weights = hermite_e.hermegauss(nodes)
    weights = weights / math.sqrt(2.0 * math.pi)

    def node(i, x):
        dt = deltas[i]
        kids = (x + dt * problem.drift(times[i], x)
                + problem.diffusion(times[i], x) * math.sqrt(dt) * xi[:, None])
        if i + 1 == N:
            v = problem.terminal(kids)
            z = problem.diffusion(times[N], kids) * problem.terminal_gradient(kids)
        else:
            v, z = node(i + 1, kids.reshape(-1)).reshape(2, *kids.shape)
        s = v + dt * problem.driver(times[i + 1], kids, v, z)
        return np.stack((weights @ s, weights @ (z_from(s, v) * xi[:, None]) / math.sqrt(dt)))

    return float(node(0, np.array([problem.initial_state]))[0, 0])
