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
from .simulate import _numerical_guard, _validate_seed, counter_normals

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

# Values per slab of the nested tree.  A slab evaluates whole rows of
# ``inner`` children of at most max(1, _SLAB_LEAVES // inner) members of a
# group tree at a time, so the temporaries (draws, callables, summands) stay
# within max(_SLAB_LEAVES, inner) values per level, not the leaf count.  A
# slab draws one contiguous range of its level's keys once for all its
# members; no bit depends on it.  At 1 << 15 glibc trimmed and refaulted the
# heap slab after slab: 8 200 minor faults per warm 4000 x 2000 call against
# 300 at 1 << 14, at the same speed.
_SLAB_LEAVES = 1 << 14

# Root children per group: the subtrees of a group share their draws below
# the root (common random numbers), and the SE is taken over group totals.
_GROUP = 8

_NODE_BUDGET = 20_000_000  # leaf count above which a nested run is rejected


def nested_mc_y0(
    problem: FbsdeProblem,
    grid: TimeGrid,
    outer: int,
    inner: int,
    seed: int,
) -> NestedEstimate:
    """Brute-force Y0 estimate: the backward recursion with every
    conditional expectation replaced by an inner re-simulation.

    From each node the one-step values are y_i = mean[s] and
    z_i = mean[s * dW_i] / delta_i over the children's summands
    s = y_{i+1} + delta_i * f(t_{i+1}, X_{i+1}, y_{i+1}, z_{i+1}) (explicit
    driver evaluation, no Picard loop; z by the later scheme's rule, not
    mean[y_{i+1} * dW_i] / delta_i), with terminal values phi(X_T) and
    sigma(T, X_T)*phi'(X_T).  The fan-out is ``outer`` at the root and
    ``inner`` below.  Meant for coarse grids (N <= 4).

    The children of a level-i node draw from the counter stream (seed,
    0x6E657374 + i).  The root's are independent: child j draws entry j.
    They form C = ceil(outer/G) groups of G = min(8, outer // 2)
    consecutive indices (the last group may be short), and the subtrees of
    a group are one tree whose nodes hold one state per member: root child
    g*G + m is member m of level-1 node g, and node q's children are the
    next level's nodes q*inner + j.  Node q draws h = ceil(inner/2) entries
    q*h + j, j < h, which all its members share (common random numbers).
    A member's children sit at mu + sd*xi_0, ..., mu + sd*xi_{h-1}, then
    mu - sd*xi_0, ..., mu - sd*xi_{inner-h-1} (antithetic pairs; with an odd
    inner the last draw has no partner), mu and sd the member's Euler mean
    and standard deviation of the step, and its z is the antithetic
    difference sum_j xi_j (s_j - s_{h+j}) / (inner * sqrt(delta)).  Each
    mean stays unbiased, and the groups are independent, so
    SE^2 = C/(C-1) * sum_g (sum_{r in g} (S_r - y0))^2 / outer^2 over the
    root summands S_r is honest; with G = 1 it is the i.i.d. formula.

    The trees are evaluated depth first in slabs of whole child rows, and
    every draw is addressed by its entry in the level's stream, so the
    estimate does not depend on the slab size and memory stays bounded by
    the slab; ``_NODE_BUDGET`` therefore only guards the run time.  A slab
    draws its keys once and evaluates its members in chunks of
    max(1, _SLAB_LEAVES // inner); at N >= 3 the deeper levels redraw their
    keys for each chunk of level-1 members.  An overflow, invalid value or
    division by zero raises NumericalError and never warns.
    """
    if outer < 2 or inner < 2:
        raise ValueError("outer and inner sample counts must be at least 2")
    seed = _validate_seed(seed)
    N = grid.n_steps
    leaves = outer * inner ** max(N - 1, 0)
    if leaves > _NODE_BUDGET:
        raise ValueError(
            f"nested run needs {leaves} leaf nodes, over the budget of {_NODE_BUDGET}"
        )
    times, deltas = grid.times, grid.deltas
    group = min(_GROUP, outer // 2)
    groups = -(-outer // group)
    half, pairs = (inner + 1) // 2, inner // 2

    def summands(level: int, x: np.ndarray, xi: np.ndarray, fan: int, start: int):
        """Summands y_{next} + dt*f(...) of ``fan`` children of each member
        of the nodes x, shape (members, nodes, 1), the first child being the
        next level's node ``start``; shape (members, nodes, fan).  Child j
        sits at mu + sd*xi_j for j < xi.shape[-1] and the rest at mu - sd*xi_j."""
        t, dt = times[level], deltas[level]
        mean = x + dt * np.asarray(problem.drift(t, x), dtype=np.float64)
        sd = np.asarray(problem.diffusion(t, x), dtype=np.float64) * math.sqrt(dt)
        drawn = xi.shape[-1]
        kids = np.empty(x.shape[:-1] + (fan,))
        np.multiply(sd, xi, out=kids[..., :drawn])
        np.subtract(mean, kids[..., :fan - drawn], out=kids[..., drawn:])
        kids[..., :drawn] += mean
        if level + 1 == N:
            v_next = np.asarray(problem.terminal(kids), dtype=np.float64)
            z_next = (
                np.asarray(problem.diffusion(times[N], kids), dtype=np.float64)
                * np.asarray(problem.terminal_gradient(kids), dtype=np.float64)
            )
        else:
            v_next, z_next = node_means(level + 1, kids.reshape(len(kids), -1), start)
            v_next, z_next = v_next.reshape(kids.shape), z_next.reshape(kids.shape)
        return v_next + dt * np.asarray(
            problem.driver(times[level + 1], kids, v_next, z_next), dtype=np.float64
        )

    def node_means(level: int, x: np.ndarray, first: int):
        """(y, z) of the members x, shape (members, nodes), of the level's
        nodes first, first+1, ...: each member's means over its own children."""
        y, z = np.empty_like(x), np.empty_like(x)
        scale = inner * math.sqrt(deltas[level])
        chunk = max(1, _SLAB_LEAVES // inner)
        nodes = max(1, _SLAB_LEAVES // (inner * min(len(x), chunk)))
        for a in range(0, x.shape[1], nodes):
            b = min(a + nodes, x.shape[1])
            xi = counter_normals(seed, _NESTED_STREAM_BASE + level, (first + a) * half,
                                 (first + b) * half).reshape(b - a, half)
            for m in range(0, len(x), chunk):
                s = summands(level, x[m:m + chunk, a:b, None], xi, inner, (first + a) * inner)
                y[m:m + chunk, a:b] = s.mean(axis=-1)
                antithetic = s[..., :half].copy()  # s_j - s_{h+j}, and s_{h-1} unpaired
                antithetic[..., :pairs] -= s[..., half:]
                z[m:m + chunk, a:b] = (xi * antithetic).sum(axis=-1) / scale
        return y, z

    # Root child g*G + m is the one child of member m's own copy of the
    # root, in slabs of groups; a short last group is padded with zero draws
    # whose summands are dropped.
    span = max(1, _SLAB_LEAVES // group)
    root_summands = np.empty((groups, group))
    with _numerical_guard("in the nested estimate"):
        for a in range(0, groups, span):
            b = min(a + span, groups)
            stop = min(b * group, outer)
            xi = np.zeros((b - a) * group)
            xi[:stop - a * group] = counter_normals(seed, _NESTED_STREAM_BASE, a * group, stop)
            xi = xi.reshape(b - a, group).T[..., None]  # (members, groups, 1)
            root = np.full((group, b - a, 1), problem.initial_state)
            root_summands[a:b] = summands(0, root, xi, 1, a)[..., 0].T
        root_summands = root_summands.reshape(-1)[:outer]
        y0 = float(root_summands.mean())
        totals = np.bincount(np.arange(outer) // group, weights=root_summands - y0)
        se = math.sqrt(groups / (groups - 1) * float((totals * totals).sum())) / outer
    return NestedEstimate(y0=y0, standard_error=se)
