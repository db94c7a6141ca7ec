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
from typing import Callable, Mapping, Optional

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

_EPS = np.finfo(np.float64).eps


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
    state: ``drift(t, x)`` and ``diffusion(t, x)`` take a scalar time and
    an array of states, ``driver(t, x, y, z)`` additionally the current
    value/control arrays, ``terminal(x)`` and ``terminal_gradient(x)`` map
    terminal states to payoff values and their a.e. derivative.

    ``drift_dx`` / ``diffusion_dx`` are the spatial derivatives of the
    forward coefficients; they feed the analytic differentiation of the
    one-step conditional expectations.  When omitted they are replaced by
    central finite differences.
    """

    drift: Callable
    diffusion: Callable
    driver: Callable
    terminal: Callable
    terminal_gradient: Callable
    initial_state: float
    horizon: float
    drift_dx: Optional[Callable] = None
    diffusion_dx: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def drift_x(self, t: float, x: np.ndarray) -> np.ndarray:
        """d(drift)/dx, analytic when supplied, else central differences."""
        if self.drift_dx is not None:
            return np.asarray(self.drift_dx(t, x), dtype=np.float64)
        return _central_diff(lambda v: self.drift(t, v), x)

    def diffusion_x(self, t: float, x: np.ndarray) -> np.ndarray:
        """d(diffusion)/dx, analytic when supplied, else central differences."""
        if self.diffusion_dx is not None:
            return np.asarray(self.diffusion_dx(t, x), dtype=np.float64)
        return _central_diff(lambda v: self.diffusion(t, v), x)


def _central_diff(func, x):
    x = np.asarray(x, dtype=np.float64)
    h = _EPS ** (1.0 / 3.0) * np.maximum(1.0, np.abs(x))
    return (func(x + h) - func(x - h)) / (2.0 * h)


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

    def drift(t, x):
        return mu * np.asarray(x, dtype=np.float64)

    def diffusion(t, x):
        return sigma * np.asarray(x, dtype=np.float64)

    def driver(t, x, y, z):
        return -(r * np.asarray(y, dtype=np.float64) + theta * np.asarray(z, dtype=np.float64))

    if kind == "call":
        def terminal(x):
            return np.maximum(np.asarray(x, dtype=np.float64) - K, 0.0)

        def terminal_gradient(x):
            return np.where(np.asarray(x, dtype=np.float64) > K, 1.0, 0.0)
    else:
        def terminal(x):
            return np.maximum(K - np.asarray(x, dtype=np.float64), 0.0)

        def terminal_gradient(x):
            return np.where(np.asarray(x, dtype=np.float64) < K, -1.0, 0.0)

    return FbsdeProblem(
        drift=drift,
        diffusion=diffusion,
        driver=driver,
        terminal=terminal,
        terminal_gradient=terminal_gradient,
        initial_state=S0,
        horizon=T,
        drift_dx=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), mu),
        diffusion_dx=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), sigma),
    )


def _arctan_problem(T: float) -> FbsdeProblem:
    def driver(t, x, y, z):
        zc = np.clip(np.asarray(z, dtype=np.float64), -Z_CLAMP, Z_CLAMP)
        return -1.0 / (2.0 * (1.0 + np.tan(zc) ** 2))

    def terminal(x):
        x = np.asarray(x, dtype=np.float64)
        return x * np.arctan(x) - 0.5 * np.log1p(x * x)

    return FbsdeProblem(
        drift=lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=lambda t, x: np.ones_like(np.asarray(x, dtype=np.float64)),
        driver=driver,
        terminal=terminal,
        terminal_gradient=lambda x: np.arctan(np.asarray(x, dtype=np.float64)),
        initial_state=0.0,
        horizon=T,
        drift_dx=lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion_dx=lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


def _linear_brownian_problem(b0: float, s0: float, x0: float, T: float) -> FbsdeProblem:
    def _zeros(x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    return FbsdeProblem(
        drift=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), b0),
        diffusion=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), s0),
        driver=lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=np.float64)),
        terminal=lambda x: np.asarray(x, dtype=np.float64).copy(),
        terminal_gradient=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        initial_state=x0,
        horizon=T,
        drift_dx=lambda t, x: _zeros(x),
        diffusion_dx=lambda t, x: _zeros(x),
    )
