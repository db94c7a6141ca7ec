"""Problem definitions: time grids, FBSDE coefficient bundles, and the
built-in problem catalog.

A problem couples a forward diffusion dX = b(t,X)dt + sigma(t,X)dW with a
backward equation driven by f(t,x,y,z) and closed by a terminal condition
phi(X_T).  Everything here is one-dimensional: scalar state, scalar
Brownian motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "TimeGrid",
    "FbsdeProblem",
    "ProblemCatalogEntry",
    "make_uniform_grid",
    "make_problem",
    "CATALOG_DEFAULTS",
]

# Driver of the arctan problem clamps its z argument away from the tan poles.
Z_CLAMP = math.pi / 2 - 1e-9


class TimeGrid:
    """Partition 0 = t_0 < t_1 < ... < t_N = T of the solve horizon."""

    __slots__ = ("times", "deltas")

    def __init__(self, times) -> None:
        t = np.array(times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a time grid needs at least the two endpoints")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        d = np.diff(t)
        if np.any(d <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        t.setflags(write=False)
        d.setflags(write=False)
        self.times = t
        self.deltas = d

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def mesh(self) -> float:
        """Largest step width max_i (t_{i+1} - t_i)."""
        return float(self.deltas.max())

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and np.array_equal(self.times, other.times)

    def __hash__(self) -> int:
        return hash(self.times.tobytes())

    def __repr__(self) -> str:
        return f"TimeGrid(N={self.n_steps}, T={self.horizon})"


def make_uniform_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with times[i] = i*T/N (mesh T/N)."""
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    if N < 1:
        raise ValueError(f"step count must be at least 1, got N={N}")
    step = T / N
    times = step * np.arange(N + 1, dtype=np.float64)
    times[-1] = T
    return TimeGrid(times)


@dataclass(frozen=True, eq=False)
class FbsdeProblem:
    """Coefficient bundle of one decoupled forward-backward equation.

    The coefficient callables must be vectorized and elementwise in the
    state.  Each receives a float time ``t`` and float64 ndarrays:
    ``drift(t, x)`` and ``diffusion(t, x)`` the states, ``driver(t, x, y, z)``
    additionally the current value/control arrays, ``terminal(x)`` and
    ``terminal_gradient(x)`` the terminal states, mapped to payoff values
    and their a.e. derivative.  Results are read as float64 arrays of
    x's shape.

    ``drift_dx`` / ``diffusion_dx`` are the spatial derivatives of the
    forward coefficients, with the signature of ``drift``; they feed the
    analytic differentiation of the one-step conditional expectations.
    """

    drift: Callable
    diffusion: Callable
    driver: Callable
    terminal: Callable
    terminal_gradient: Callable
    initial_state: float
    horizon: float
    drift_dx: Callable
    diffusion_dx: Callable

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True)
class ProblemCatalogEntry:
    """A named catalog problem plus its scalar parameters."""

    name: str
    parameters: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def with_defaults(cls, name: str, **overrides: float) -> "ProblemCatalogEntry":
        """Entry with the shipped default parameters, selectively overridden."""
        if name not in CATALOG_DEFAULTS:
            raise ValueError(f"unknown problem {name!r}")
        params = dict(CATALOG_DEFAULTS[name])
        params.update(overrides)
        return cls(name, params)


# Default parameters of the shipped experiment configurations.
CATALOG_DEFAULTS: dict[str, dict[str, float]] = {
    "call": {"S0": 100.0, "K": 100.0, "r": 0.01, "mu": 0.01, "sigma": 0.02, "T": 1.0},
    "put": {"S0": 100.0, "K": 100.0, "r": 0.01, "mu": 0.01, "sigma": 0.02, "T": 1.0},
    "arctan": {"T": 1.0},
    "custom": {"b0": 0.0, "s0": 1.0, "x0": 0.0, "T": 1.0},
}


def make_problem(entry: ProblemCatalogEntry) -> FbsdeProblem:
    """Instantiate a catalog problem from its entry.

    call/put: geometric Brownian dynamics dS = mu*S dt + sigma*S dW with
    linear driver f = -(r*y + theta*z), theta = (mu - r)/sigma, and payoff
    (S-K)+ resp. (K-S)+.  The payoff kink at K carries gradient 0 (it is a
    null set under the diffusion law).

    arctan: the forward process is a standard Brownian motion started at 0,
    f(t,x,y,z) = -1/(2*(1 + tan(z)^2)) with z clamped into
    (-pi/2, pi/2), and phi(x) = x*arctan(x) - ln(sqrt(1 + x^2)).

    custom: constant coefficients dX = b0 dt + s0 dW, zero driver, linear
    terminal phi(x) = x.
    """
    name = entry.name
    if name not in CATALOG_DEFAULTS:
        raise ValueError(f"unknown problem {name!r}")
    if name in ("call", "put"):
        p = _require(entry, "S0", "K", "r", "mu", "sigma")
        T = float(entry.parameters.get("T", 1.0))
        _check_positive(K=p["K"], S0=p["S0"], sigma=p["sigma"], T=T)
        return _pricing_problem(kind=name, T=T, **p)
    if name == "arctan":
        T = float(entry.parameters.get("T", 1.0))
        return _arctan_problem(T)
    p = {k: float(entry.parameters.get(k, default))
         for k, default in CATALOG_DEFAULTS["custom"].items()}
    if not p["s0"] > 0.0:
        raise ValueError("custom problem requires s0 > 0")
    if not p["T"] > 0.0:
        raise ValueError("custom problem requires T > 0")
    return _linear_brownian_problem(**p)


def _require(entry: ProblemCatalogEntry, *keys: str) -> dict[str, float]:
    out = {}
    for key in keys:
        if key not in entry.parameters:
            raise ValueError(f"problem {entry.name!r} requires parameter {key!r}")
        out[key] = float(entry.parameters[key])
    return out


def _check_positive(**values: float) -> None:
    for key, value in values.items():
        if not value > 0.0:
            raise ValueError(f"parameter {key!r} must be positive, got {value}")


def _pricing_problem(kind: str, S0: float, K: float, r: float, mu: float,
                     sigma: float, T: float) -> FbsdeProblem:
    theta = (mu - r) / sigma

    if kind == "call":
        def terminal(x):
            return np.maximum(x - K, 0.0)

        def terminal_gradient(x):
            return np.where(x > K, 1.0, 0.0)
    else:
        def terminal(x):
            return np.maximum(K - x, 0.0)

        def terminal_gradient(x):
            return np.where(x < K, -1.0, 0.0)

    return FbsdeProblem(
        drift=lambda t, x: mu * x,
        diffusion=lambda t, x: sigma * x,
        driver=lambda t, x, y, z: -(r * y + theta * z),
        terminal=terminal,
        terminal_gradient=terminal_gradient,
        initial_state=S0,
        horizon=T,
        drift_dx=lambda t, x: np.full_like(x, mu),
        diffusion_dx=lambda t, x: np.full_like(x, sigma),
    )


def _arctan_problem(T: float) -> FbsdeProblem:
    def driver(t, x, y, z):
        zc = np.clip(z, -Z_CLAMP, Z_CLAMP)
        return -1.0 / (2.0 * (1.0 + np.tan(zc) ** 2))

    return FbsdeProblem(
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: np.ones_like(x),
        driver=driver,
        terminal=lambda x: x * np.arctan(x) - 0.5 * np.log1p(x * x),
        terminal_gradient=np.arctan,
        initial_state=0.0,
        horizon=T,
        drift_dx=lambda t, x: np.zeros_like(x),
        diffusion_dx=lambda t, x: np.zeros_like(x),
    )


def _linear_brownian_problem(b0: float, s0: float, x0: float, T: float) -> FbsdeProblem:
    return FbsdeProblem(
        drift=lambda t, x: np.full_like(x, b0),
        diffusion=lambda t, x: np.full_like(x, s0),
        driver=lambda t, x, y, z: np.zeros_like(y),
        terminal=lambda x: x.copy(),
        terminal_gradient=np.ones_like,
        initial_state=x0,
        horizon=T,
        drift_dx=lambda t, x: np.zeros_like(x),
        diffusion_dx=lambda t, x: np.zeros_like(x),
    )
