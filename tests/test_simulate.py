import numpy as np
import pytest

from fbsde.model import FbsdeProblem, ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.simulate import euler_states, simulate_paths


def constant_problem(x0=7.0):
    zero = lambda t, x: np.zeros_like(x)
    return FbsdeProblem(drift=zero, diffusion=zero,
                        driver=lambda t, x, y, z: np.zeros_like(y),
                        terminal=lambda x: x, terminal_gradient=lambda x: np.ones_like(x),
                        initial_state=x0, horizon=1.0)


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


def test_determinism_across_worker_counts(monkeypatch):
    problem = gbm_problem()
    grid = make_uniform_grid(1.0, 3)
    # force several chunks so the worker pool actually splits the work
    monkeypatch.setattr("fbsde.simulate._CHUNK", 1000)
    base = simulate_paths(problem, grid, 10_000, seed=5, workers=1)
    for workers in (2, 5):
        other = simulate_paths(problem, grid, 10_000, seed=5, workers=workers)
        assert np.array_equal(base.states, other.states)
        assert np.array_equal(base.increments, other.increments)


def test_workers_env_variable(monkeypatch):
    problem = gbm_problem()
    grid = make_uniform_grid(1.0, 3)
    base = simulate_paths(problem, grid, 2000, seed=5)
    monkeypatch.setenv("FBSDE_WORKERS", "4")
    env = simulate_paths(problem, grid, 2000, seed=5)
    assert np.array_equal(base.states, env.states)


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
