"""Euler-Maruyama forward path generation with counter-based randomness.

Randomness contract
-------------------
Normals come from the Philox counter-based generator.  Each path owns a
fixed range of counter blocks: with B = ceil(N/4) blocks per path (Philox
emits four 64-bit words per block), the normal for (path m, step i) is a
pure function of (seed, m, i).  Generating any contiguous path range is
therefore a matter of advancing the counter to the range start, so chunked
or multi-worker generation is bit-identical to single-shot generation.

Each 64-bit word is reduced to its top 52 bits and mapped through the
midpoint uniform u = (bits + 1/2) * 2**-52, which lies strictly inside
(0, 1), then through the inverse normal CDF.  No rejection loops, so the
draw count per path is fixed.

The time dimension is the fast axis of the draw layout: increments for a
path are consecutive, and states/increments arrays are stored so that one
time-column across all paths is contiguous (the backward sweep consumes
columns).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .model import FbsdeProblem, TimeGrid

__all__ = [
    "PathEnsemble",
    "simulate_paths",
    "euler_states",
    "WORKERS_ENV",
]

# Optional worker count for path generation; results never depend on it.
WORKERS_ENV = "FBSDE_WORKERS"

_CHUNK = 16_384  # paths per generation task; fixed, not tied to worker count


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """M simulated forward paths and the Brownian increments that drove them.

    states[m, i] is the Euler state at times[i] on path m (column-contiguous,
    M x (N+1)); increments[m, i] is the Brownian increment over
    [times[i], times[i+1]] (M x N).  Both arrays are read-only; states are
    bit-reconstructible from the increments via :func:`euler_states`.
    """

    states: np.ndarray
    increments: np.ndarray
    grid: TimeGrid
    seed: int

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def _philox_key(seed: int, stream: int = 0) -> np.ndarray:
    return np.array([seed, stream], dtype=np.uint64)


def _validate_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def counter_normals(key: np.ndarray, block_start: int, n_blocks: int) -> np.ndarray:
    """Standard normals for a contiguous counter-block range of one stream.

    Returns 4*n_blocks values; entry j is a pure function of (key,
    block_start*4 + j), independent of how the range is chunked.
    """
    bg = Philox(key=key)
    if block_start:
        bg.advance(block_start)
    words = Generator(bg).integers(0, 2**64, size=4 * n_blocks, dtype=np.uint64)
    u = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    return ndtri(u)


def _blocks_per_path(n_steps: int) -> int:
    return (n_steps + 3) // 4


def _path_normals(seed: int, m_start: int, m_stop: int, n_steps: int) -> np.ndarray:
    """Unit normals for paths [m_start, m_stop), shape (m_stop-m_start, N)."""
    B = _blocks_per_path(n_steps)
    z = counter_normals(_philox_key(seed), m_start * B, (m_stop - m_start) * B)
    return z.reshape(m_stop - m_start, 4 * B)[:, :n_steps]


def euler_states(problem: FbsdeProblem, grid: TimeGrid, increments: np.ndarray) -> np.ndarray:
    """Apply the Euler recursion to given Brownian increments.

    states[:, i+1] = states[:, i] + delta_i * b(t_i, states[:, i])
                     + sigma(t_i, states[:, i]) * increments[:, i]
    """
    increments = np.asarray(increments, dtype=np.float64)
    m, n = increments.shape
    if n != grid.n_steps:
        raise ValueError("increments have wrong number of steps for this grid")
    times, deltas = grid.times, grid.deltas
    states = np.empty((n + 1, m))  # time-major while filling; transposed below
    states[0] = problem.initial_state
    for i in range(n):
        xi = states[i]
        states[i + 1] = (
            xi
            + deltas[i] * problem.drift(times[i], xi)
            + problem.diffusion(times[i], xi) * increments[:, i]
        )
    return states.T  # F-ordered view: time columns stay contiguous


def simulate_paths(
    problem: FbsdeProblem,
    grid: TimeGrid,
    M: int,
    seed: int,
    workers: int | None = None,
) -> PathEnsemble:
    """Simulate M Euler-Maruyama paths of the forward process.

    Identical (problem, grid, M, seed) produce bit-identical ensembles at
    any worker count (``workers`` falls back to the FBSDE_WORKERS
    environment variable, default 1).
    """
    if M < 1:
        raise ValueError(f"path count must be at least 1, got M={M}")
    seed = _validate_seed(seed)
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    workers = max(1, workers)

    N = grid.n_steps
    sqrt_dt = np.sqrt(grid.deltas)
    increments = np.empty((N, M))  # time-major; transposed below

    bounds = list(range(0, M, _CHUNK)) + [M]

    def fill(a: int, b: int) -> np.ndarray:
        dw = _path_normals(seed, a, b, N) * sqrt_dt[None, :]
        increments[:, a:b] = dw.T
        return euler_states(problem, grid, dw)

    if workers == 1 or len(bounds) == 2:
        chunks = [fill(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(fill, bounds[:-1], bounds[1:]))

    states = np.empty((N + 1, M))
    offset = 0
    for chunk in chunks:
        states[:, offset:offset + chunk.shape[0]] = chunk.T
        offset += chunk.shape[0]

    states_mi = states.T
    increments_mi = increments.T
    states_mi.setflags(write=False)
    increments_mi.setflags(write=False)
    return PathEnsemble(states=states_mi, increments=increments_mi, grid=grid, seed=seed)
