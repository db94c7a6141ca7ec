import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox

import fbsde
from fbsde.model import FbsdeProblem, ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.simulate import (NumericalError, _ndtri_centred, counter_normals, euler_states,
                            simulate_paths)

EXPM2 = 0.13533528323661269189  # Cephes' exp(-2): its tails are u <= EXPM2, u > 1 - EXPM2

# scipy.special.ndtri of the midpoint uniform u = (bits + 1/2) * 2**-52, by
# the 52-bit word, at the edges of Cephes' branches
NDTRI_EDGES = [
    (0x0, "-0x1.06b48528cea52p+3"),  # u = 2**-53
    (0xfffffffffffff, "0x1.06b48528cea52p+3"),  # u = 1 - 2**-53
    (0x38, "-0x1.e7c542344a945p+2"),  # last u < exp(-32): x >= 8
    (0x39, "-0x1.e7a027f3bb461p+2"),  # first x < 8
    (0xfffffffffffc7, "0x1.e7c542344a945p+2"),
    (0xfffffffffffc6, "0x1.e7a027f3bb461p+2"),
    (0x22a555477f039, "-0x1.19fd30bc4de02p+0"),  # last u <= exp(-2)
    (0x22a555477f03a, "-0x1.19fd30bc4ddfep+0"),  # first central u
    (0xdd5aaab880fc6, "0x1.19fd30bc4de03p+0"),  # last central u
    (0xdd5aaab880fc7, "0x1.19fd30bc4de09p+0"),  # first u > 1 - exp(-2)
    (0x7ffffffffffff, "-0x1.40d931ff62706p-52"),  # u = 1/2 - 2**-53
    (0x8000000000000, "0x1.40d931ff62706p-52"),  # u = 1/2 + 2**-53
]


def constant_problem(x0=7.0):
    zero = lambda t, x: np.zeros_like(x)
    return FbsdeProblem(drift=zero, diffusion=zero,
                        driver=lambda t, x, y, z: np.zeros_like(y),
                        terminal=lambda x: x, terminal_gradient=lambda x: np.ones_like(x),
                        initial_state=x0, horizon=1.0,
                        drift_dx=zero, diffusion_dx=zero)


def gbm_problem(mu=0.01, sigma=0.02, x0=100.0):
    return make_problem(ProblemCatalogEntry.with_defaults("call", mu=mu, sigma=sigma, S0=x0))


def test_degenerate_dynamics_stay_constant():
    grid = make_uniform_grid(1.0, 5)
    ens = simulate_paths(constant_problem(7.0), grid, 50, seed=3)
    assert np.all(ens.states == 7.0)


def test_single_euler_step_with_forced_increment():
    # X1 = 100*(1 + 0.01*0.5) + 100*0.02*0.1 = 100.7
    grid = make_uniform_grid(0.5, 1)
    problem = gbm_problem()
    states = euler_states(problem, grid, np.array([[0.1]]))
    assert states[0, 1] == pytest.approx(100.7, abs=1e-12)


def test_overflow_fails_the_simulation_step_without_warning():
    # x0 * (1 + mu*dt) overflows in the second step's drift
    grid = make_uniform_grid(1.0, 2)
    problem = gbm_problem(mu=1e110, x0=1e110)
    with pytest.raises(NumericalError, match="overflow .* at simulation step 1$"):
        simulate_paths(problem, grid, 50, seed=0)


def test_terminal_mean_matches_exact_euler_expectation():
    # E[X_{i+1}] = E[X_i] (1 + mu*dt), so E[X_N] = x0 (1 + mu*T/N)^N
    mu, N, M = 0.05, 8, 40_000
    problem = gbm_problem(mu=mu, sigma=0.1)
    grid = make_uniform_grid(1.0, N)
    ens = simulate_paths(problem, grid, M, seed=2024)
    terminal = ens.states[:, N]
    expected = 100.0 * (1.0 + mu / N) ** N
    stderr = terminal.std(ddof=1) / np.sqrt(M)
    assert abs(terminal.mean() - expected) <= 4 * stderr


def test_increment_column_is_read_only():
    grid = make_uniform_grid(1.0, 2)
    ens = simulate_paths(gbm_problem(), grid, 100, seed=1)
    col = ens.increments[:, 0]
    with pytest.raises(ValueError):
        col[0] = 1.0  # read-only view


def test_increment_column_mean_clt_bound():
    M = 20_000
    grid = make_uniform_grid(1.0, 4)
    ens = simulate_paths(gbm_problem(), grid, M, seed=77)
    for i in range(4):
        col = ens.increments[:, i]
        assert abs(col.mean()) <= 4 * np.sqrt(grid.deltas[i] / M)


def test_increment_column_variance():
    # sample variance of N(0, dt) has relative s.e. sqrt(2/(M-1))
    M = 30_000
    grid = make_uniform_grid(1.0, 5)
    ens = simulate_paths(gbm_problem(), grid, M, seed=13)
    for i in range(5):
        dt = grid.deltas[i]
        var = ens.increments[:, i].var(ddof=1)
        assert abs(var - dt) <= 5 * dt * np.sqrt(2.0 / (M - 1))


def test_determinism_same_arguments():
    problem = gbm_problem()
    grid = make_uniform_grid(1.0, 10)
    a = simulate_paths(problem, grid, 5000, seed=42)
    b = simulate_paths(problem, grid, 5000, seed=42)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)
    c = simulate_paths(problem, grid, 5000, seed=43)
    assert not np.array_equal(a.increments, c.increments)


def test_determinism_across_chunk_sizes(monkeypatch):
    # splitting the counter range into draws of any size changes no bit
    problem = gbm_problem()
    grid = make_uniform_grid(1.0, 3)
    base = simulate_paths(problem, grid, 10_000, seed=5)
    for chunk in (1000, 7, 10_000):
        monkeypatch.setattr("fbsde.simulate._CHUNK", chunk)
        other = simulate_paths(problem, grid, 10_000, seed=5)
        assert np.array_equal(base.states, other.states)
        assert np.array_equal(base.increments, other.increments)


def test_counter_normals_golden_values():
    # the randomness contract: Philox words -> midpoint uniforms -> ndtri
    z = counter_normals(101, 0, 0, 12)
    assert z.shape == (12,)
    assert [z[j].hex() for j in (0, 5, 11)] == [
        "-0x1.1d474152b11c0p-1", "-0x1.3dd81f000bc48p-1", "0x1.072b2c8bbdd42p-2"]
    z = counter_normals(2**64 - 1, 0x6E657375, 4 * 123456, 4 * 123458)
    assert [z[j].hex() for j in (0, 7)] == ["-0x1.ea32cde0e1d6fp-2", "-0x1.9f3f19fd393e6p+0"]


def philox_words(n, seed):
    """n 52-bit words of one Philox stream."""
    return Philox(key=np.array([seed, 5], dtype=np.uint64)).random_raw(n) >> np.uint64(12)


def midpoint_ndtri(bits):
    """ndtri of the midpoint uniforms u = (bits + 1/2) * 2**-52; u - 1/2 is
    exact, a multiple of 2**-53 below 1/2 in size."""
    return _ndtri_centred((bits + 0.5) * 2.0**-52 - 0.5)


def test_ndtri_matches_pinned_values_at_branch_edges():
    bits = np.array([b for b, _ in NDTRI_EDGES], dtype=np.uint64)
    assert [z.hex() for z in midpoint_ndtri(bits)] == [h for _, h in NDTRI_EDGES]


def test_ndtri_inverts_the_normal_cdf():
    # A relative error e in z moves w = min(u, 1 - u) = Phi(-|z|) by
    # e |z| phi(z) / Phi(-|z|) <= e (z^2 + |z|) relative (Mills' ratio), so
    # with z within 4 ulp and erfc within 2, w comes back within
    # 2 + 6 (1 + z^2) ulp of w.  The worst case seen is 3.4 (1 + z^2).
    bits = np.concatenate([philox_words(100_000, 1),
                           np.array([b for b, _ in NDTRI_EDGES], dtype=np.uint64)])
    z = midpoint_ndtri(bits)
    u = (bits + 0.5) * 2.0**-52
    w = np.minimum(u, 1.0 - u)
    back = np.array([0.5 * math.erfc(abs(v) / math.sqrt(2.0)) for v in z])
    assert np.all(np.abs(back - w) <= (2 + 6 * (1 + z * z)) * 2.0**-52 * w)
    assert np.array_equal(np.sign(z), np.sign(u - 0.5))


def test_ndtri_matches_scipy_up_to_tail_rounding():
    # The tails take two logarithms, log(w) and log(x), which numpy may round
    # differently from the C library's.  A draw may differ from scipy's only
    # where one of them does; the central branch takes none.
    special = pytest.importorskip("scipy.special")
    low = np.arange(200_000, dtype=np.uint64)  # the whole of x >= 8, and more
    bits = np.concatenate([philox_words(1_000_000, 2), low, 2**52 - 1 - low])
    u = (bits + 0.5) * 2.0**-52
    z, ref = midpoint_ndtri(bits), special.ndtri(u)
    differ = z != ref
    assert not np.any(differ[(u > EXPM2) & (u <= 1.0 - EXPM2)])
    tail = np.flatnonzero((u <= EXPM2) | (u > 1.0 - EXPM2))
    w = np.minimum(u[tail], 1.0 - u[tail])
    x = np.sqrt(-2.0 * np.array([math.log(v) for v in w]))
    same_logs = ((np.log(w) == [math.log(v) for v in w])
                 & (np.log(x) == [math.log(v) for v in x]))
    assert not np.any(differ[tail[same_logs]])
    assert np.count_nonzero(differ) <= 1e-3 * z.size
    assert np.all(np.abs(z - ref) <= 8 * np.spacing(np.abs(ref)))


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, fbsde, fbsde.cli, fbsde.oracle; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(fbsde.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("width", [1, 2, 4, 5, 10])
def test_counter_normals_width_keeps_row_prefixes(width):
    row = 4 * ((width + 3) // 4)
    full = counter_normals(7, 3, 5 * row, 14 * row)
    rows = counter_normals(7, 3, 5 * row, 14 * row, width)
    assert rows.shape == (9, width)
    assert np.array_equal(rows, full.reshape(9, row)[:, :width])


@pytest.mark.parametrize("start, stop", [(0, 1), (1, 7), (3, 4), (5, 13), (8, 8), (6, 6)])
def test_counter_normals_ranges_are_slices_of_one_stream(start, stop):
    # any word range, block-aligned or not, is the matching slice of one draw
    z = counter_normals(11, 2, start, stop)
    assert z.shape == (stop - start,)
    assert np.array_equal(z, counter_normals(11, 2, 0, 16)[start:stop])


def test_euler_reconstruction_is_bitwise():
    problem = gbm_problem()
    grid = make_uniform_grid(1.0, 10)
    ens = simulate_paths(problem, grid, 3000, seed=11)
    rebuilt = euler_states(problem, grid, ens.increments)
    assert np.array_equal(rebuilt, ens.states)
    assert np.all(ens.states[:, 0] == problem.initial_state)


def test_time_columns_are_contiguous():
    ens = simulate_paths(gbm_problem(), make_uniform_grid(1.0, 4), 500, seed=9)
    assert ens.states[:, 2].flags["C_CONTIGUOUS"]
    assert ens.increments[:, 1].flags["C_CONTIGUOUS"]


def test_input_validation():
    problem = gbm_problem()
    grid = make_uniform_grid(1.0, 2)
    with pytest.raises(ValueError):
        simulate_paths(problem, grid, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_paths(problem, grid, 10, seed=-1)
    with pytest.raises(ValueError):
        simulate_paths(problem, grid, 10, seed=2**64)
    with pytest.raises(ValueError, match="wrong number of steps"):
        euler_states(problem, grid, np.zeros((10, 3)))
