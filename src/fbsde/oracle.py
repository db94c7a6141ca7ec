"""Reference solutions: closed forms for the shipped problems and a nested
Monte Carlo brute-force estimator for cross-checks.

The normal CDF is evaluated through the C library's erfc, whose absolute
error is a few ulps (far below 1e-12), so oracle error is negligible
against Monte Carlo tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FbsdeProblem, ProblemCatalogEntry, TimeGrid
from .simulate import _validate_seed, counter_normals

__all__ = [
    "ReferenceValue",
    "NestedEstimate",
    "norm_cdf",
    "black_scholes",
    "arctan_solution",
    "reference_for",
    "nested_mc_y0",
]


@dataclass(frozen=True)
class ReferenceValue:
    y0_ref: float
    z0_ref: float
    source: str


@dataclass(frozen=True)
class NestedEstimate:
    """Root value of a nested Monte Carlo run plus its standard error."""

    y0: float
    standard_error: float


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc (absolute error well below 1e-12)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes(kind: str, S0: float, K: float, r: float, sigma: float,
                  T: float) -> ReferenceValue:
    """Initial (Y, Z) of the pricing problem in closed form.

    Call: y0 = exp(-rT) * (F*N(d+) - K*N(d-)) with F = S0*exp(rT) and
    d+- = (log(F/K) +- sigma^2 T / 2) / (sigma*sqrt(T)); z0 = sigma*N(d+)*S0.
    Put follows by parity: y0_put = y0_call - S0 + K*exp(-rT) and
    z0_put = sigma*S0*(N(d+) - 1).
    """
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    for name, value in (("S0", S0), ("K", K), ("sigma", sigma), ("T", T)):
        if not value > 0.0:
            raise ValueError(f"parameter {name!r} must be positive, got {value}")
    forward = S0 * math.exp(r * T)
    vol = sigma * math.sqrt(T)
    d_plus = (math.log(forward / K) + 0.5 * sigma * sigma * T) / vol
    d_minus = d_plus - vol
    discount = math.exp(-r * T)
    call_y0 = discount * (forward * norm_cdf(d_plus) - K * norm_cdf(d_minus))
    if kind == "call":
        return ReferenceValue(call_y0, sigma * norm_cdf(d_plus) * S0, "black_scholes_call")
    put_y0 = call_y0 - S0 + K * discount
    put_z0 = sigma * S0 * (norm_cdf(d_plus) - 1.0)
    return ReferenceValue(put_y0, put_z0, "black_scholes_put")


def arctan_solution(t: float, w):
    """Exact (y, z) of the arctan problem along a Brownian path at state w:
    y = -ln(1 + w^2)/2 + w*arctan(w), z = arctan(w)."""
    w = np.asarray(w, dtype=np.float64)
    y = -0.5 * np.log1p(w * w) + w * np.arctan(w)
    z = np.arctan(w)
    if w.ndim == 0:
        return float(y), float(z)
    return y, z


def reference_for(entry: ProblemCatalogEntry) -> ReferenceValue | None:
    """Closed-form reference for a catalog entry; None when there is none."""
    if entry.name in ("call", "put"):
        p = entry.parameters
        return black_scholes(entry.name, p["S0"], p["K"], p["r"], p["sigma"], p["T"])
    if entry.name == "arctan":
        return ReferenceValue(0.0, 0.0, "arctan_closed_form")
    return None


# Streams of the nested estimator are keyed away from path simulation.
_NESTED_STREAM_BASE = 0x6E65_7374  # "nest"

# Children evaluated per slab of the nested tree.  Below the root a slab
# holds whole rows of ``inner`` children, so it bounds the temporaries
# (draws, callables, summands) by max(_SLAB_LEAVES, inner) values per level
# rather than by the leaf count; no bit depends on it.
_SLAB_LEAVES = 1 << 15


def nested_mc_y0(
    problem: FbsdeProblem,
    grid: TimeGrid,
    outer: int,
    inner: int,
    seed: int,
    node_budget: int = 20_000_000,
) -> NestedEstimate:
    """Brute-force Y0 estimate: the backward recursion with every
    conditional expectation replaced by an inner re-simulation.

    From each node the one-step values satisfy
    y_i = mean[y_{i+1} + delta_i * f(t_{i+1}, X_{i+1}, y_{i+1}, z_{i+1})]
    (explicit driver evaluation at t_{i+1}, so no Picard loop) and
    z_i = mean[y_{i+1} * dW_i] / delta_i, with terminal values phi(X_T) and
    sigma(T, X_T)*phi'(X_T).  The fan-out is ``outer`` at the root and
    ``inner`` below.  Meant for coarse grids (N <= 4).

    The tree is evaluated depth first in slabs of whole child rows, and
    child j of the level-i node with flat index p draws entry p*fan + j of
    the level's counter stream, so the estimate does not depend on the
    slab size and memory stays bounded by the slab, not by the leaf count.
    ``node_budget`` therefore only guards the run time: configurations
    whose leaf count exceeds it are rejected.
    """
    if outer < 2 or inner < 2:
        raise ValueError("outer and inner sample counts must be at least 2")
    seed = _validate_seed(seed)
    N = grid.n_steps
    leaves = outer * inner ** max(N - 1, 0)
    if leaves > node_budget:
        raise ValueError(
            f"nested run needs {leaves} leaf nodes, over the budget of {node_budget}"
        )
    times, deltas = grid.times, grid.deltas

    def children(level: int, x: np.ndarray, start: int, fan: int):
        """One-step summands y_{next} + dt*f(...) of ``fan`` children of
        each node in x (a column), at flat indices start, start+1, ... of
        the level's stream, plus the increment-weighted summands defining
        z.  Shape (x.size, fan)."""
        dt = deltas[level]
        dw = counter_normals(seed, _NESTED_STREAM_BASE + level, start,
                             start + x.size * fan).reshape(x.size, fan)
        dw *= math.sqrt(dt)
        kids = (
            x
            + dt * np.asarray(problem.drift(times[level], x), dtype=np.float64)
            + np.asarray(problem.diffusion(times[level], x), dtype=np.float64) * dw
        )
        if level + 1 == N:
            v_next = np.asarray(problem.terminal(kids), dtype=np.float64)
            z_next = (
                np.asarray(problem.diffusion(times[N], kids), dtype=np.float64)
                * np.asarray(problem.terminal_gradient(kids), dtype=np.float64)
            )
        else:
            v_next, z_next = node_means(level + 1, kids.reshape(-1), start)
            v_next, z_next = v_next.reshape(kids.shape), z_next.reshape(kids.shape)
        summands = v_next + dt * np.asarray(
            problem.driver(times[level + 1], kids, v_next, z_next), dtype=np.float64
        )
        return summands, v_next * dw / dt

    def node_means(level: int, x: np.ndarray, first: int):
        """(y, z) at the level's nodes x, flat indices first, first+1, ...:
        the means over each node's own row of ``inner`` children."""
        y, z = np.empty_like(x), np.empty_like(x)
        nodes = max(1, _SLAB_LEAVES // inner)
        for a in range(0, x.size, nodes):
            b = min(a + nodes, x.size)
            s, zw = children(level, x[a:b, None], (first + a) * inner, inner)
            y[a:b], z[a:b] = s.mean(axis=-1), zw.mean(axis=-1)
        return y, z

    # The root's row is split into slabs too; y0 and its SE are taken over
    # all ``outer`` summands at once.
    root = np.asarray([[problem.initial_state]], dtype=np.float64)
    root_summands = np.empty(outer)
    for a in range(0, outer, _SLAB_LEAVES):
        b = min(a + _SLAB_LEAVES, outer)
        root_summands[a:b] = children(0, root, a, b - a)[0][0]
    y0 = float(root_summands.mean())
    se = float(root_summands.std(ddof=1) / math.sqrt(outer))
    return NestedEstimate(y0=y0, standard_error=se)
