import numpy as np
import pytest

from fbsde.model import (CATALOG_DEFAULTS, FbsdeProblem, ProblemCatalogEntry,
                         TimeGrid, make_problem, make_uniform_grid)


def entry(name, **overrides):
    return ProblemCatalogEntry.with_defaults(name, **overrides)


# ---------------------------------------------------------------- grids


def test_uniform_grid_two_points():
    grid = make_uniform_grid(1.0, 1)
    assert grid.times.tolist() == [0.0, 1.0]
    assert grid.mesh == 1.0


def test_uniform_grid_ten_steps():
    grid = make_uniform_grid(1.0, 10)
    assert grid.mesh == pytest.approx(0.1)
    assert grid.times[3] == pytest.approx(0.3)
    assert grid.n_steps == 10


def test_uniform_grid_horizon_two():
    grid = make_uniform_grid(2.0, 4)
    assert grid.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("T,N", [(1.0, 0), (0.0, 4), (-1.0, 4)])
def test_uniform_grid_rejects_bad_inputs(T, N):
    with pytest.raises(ValueError):
        make_uniform_grid(T, N)


def test_grid_requires_increasing_times_from_zero():
    with pytest.raises(ValueError):
        TimeGrid([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        TimeGrid([0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        TimeGrid([0.0])


def test_grid_equality_and_immutability():
    g1 = make_uniform_grid(1.0, 4)
    g2 = make_uniform_grid(1.0, 4)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != make_uniform_grid(1.0, 5)
    with pytest.raises(ValueError):
        g1.times[0] = 3.0


# ---------------------------------------------------------------- catalog


def test_call_payoff_and_gradient():
    problem = make_problem(entry("call", K=100.0))
    assert problem.terminal(np.array([105.0]))[0] == pytest.approx(5.0)
    assert problem.terminal_gradient(np.array([105.0]))[0] == 1.0
    # kink convention: gradient 0 at the strike, for both payoffs
    assert problem.terminal_gradient(np.array([100.0]))[0] == 0.0
    put = make_problem(entry("put", K=100.0))
    assert put.terminal(np.array([95.0]))[0] == pytest.approx(5.0)
    assert put.terminal_gradient(np.array([95.0]))[0] == -1.0
    assert put.terminal_gradient(np.array([100.0]))[0] == 0.0


def test_arctan_terminal_at_zero():
    problem = make_problem(entry("arctan"))
    assert problem.terminal(np.array([0.0]))[0] == 0.0
    assert problem.terminal_gradient(np.array([0.0]))[0] == 0.0


def test_call_with_mu_equal_r_has_theta_zero():
    problem = make_problem(entry("call", mu=0.01, r=0.01))
    y = np.array([2.0, -1.0, 0.5])
    z = np.array([10.0, -5.0, 100.0])
    x = np.array([90.0, 100.0, 110.0])
    expected = -0.01 * y
    np.testing.assert_allclose(problem.driver(0.3, x, y, z), expected, rtol=0, atol=0)


def test_unknown_problem_and_missing_parameter_default():
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem(ProblemCatalogEntry("bermudan", {}))
    missing_k = ProblemCatalogEntry("call", {"S0": 100.0, "r": 0.01,
                                             "mu": 0.01, "sigma": 0.02})
    assert missing_k.parameters["K"] == CATALOG_DEFAULTS["call"]["K"]
    with pytest.raises(ValueError, match="'K' must be positive"):
        make_problem(entry("call", K=-1.0))


def test_entry_fills_the_defaults_as_floats():
    assert (ProblemCatalogEntry("call", {"S0": 90}).parameters
            == {**CATALOG_DEFAULTS["call"], "S0": 90.0})
    assert ProblemCatalogEntry("arctan").parameters == CATALOG_DEFAULTS["arctan"]
    assert entry("put", sigma=0.3) == ProblemCatalogEntry("put", {"sigma": 0.3})
    with pytest.raises(TypeError):
        entry("call").parameters["S0"] = float("nan")


def test_entry_rejects_a_name_that_is_not_a_parameter():
    with pytest.raises(ValueError, match="'sigam'"):
        entry("call", sigam=0.3)
    with pytest.raises(ValueError, match="'sigam'"):
        ProblemCatalogEntry("call", {"sigam": 0.3})
    with pytest.raises(ValueError, match="'K' is not a parameter of problem 'arctan'"):
        ProblemCatalogEntry("arctan", {"K": 5.0})
    with pytest.raises(ValueError, match="unknown problem 'bermudan'"):
        entry("bermudan")


@pytest.mark.parametrize("key, value", [("S0", float("nan")), ("T", float("inf")),
                                        ("sigma", -float("inf"))])
def test_entry_rejects_a_non_finite_value(key, value):
    with pytest.raises(ValueError, match=f"parameter '{key}' must be finite"):
        entry("call", **{key: value})


def test_custom_problem_is_linear_brownian():
    problem = make_problem(entry("custom"))
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(problem.drift(0.0, x), 0.0)
    np.testing.assert_array_equal(problem.diffusion(0.5, x), 1.0)
    np.testing.assert_array_equal(problem.driver(0.5, x, x, x), 0.0)
    np.testing.assert_array_equal(problem.terminal(x), x)
    with pytest.raises(ValueError):
        make_problem(entry("custom", s0=0.0))


def test_problem_requires_coefficient_derivatives():
    base = make_problem(entry("call"))
    fields = dict(drift=base.drift, diffusion=base.diffusion, driver=base.driver,
                  terminal=base.terminal, terminal_gradient=base.terminal_gradient,
                  initial_state=base.initial_state, horizon=base.horizon)
    with pytest.raises(TypeError, match="drift_dx"):
        FbsdeProblem(**fields)
    with pytest.raises(TypeError, match="diffusion_dx"):
        FbsdeProblem(**fields, drift_dx=base.drift_dx)


# ------------------------------------------------------- model invariants


def test_arctan_gradient_matches_finite_differences():
    problem = make_problem(entry("arctan"))
    rng = np.random.default_rng(1234)
    x = rng.uniform(-5.0, 5.0, size=100)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (problem.terminal(x + h) - problem.terminal(x - h)) / (2 * h)
    grad = problem.terminal_gradient(x)
    np.testing.assert_allclose(grad, np.arctan(x), rtol=0, atol=0)
    np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-9)


def test_arctan_driver_bounded_by_half():
    problem = make_problem(entry("arctan"))
    rng = np.random.default_rng(99)
    z = np.concatenate([rng.uniform(-50, 50, 500),
                        [np.pi / 2, -np.pi / 2, np.pi / 2 - 1e-12]])
    x = np.zeros_like(z)
    values = problem.driver(0.5, x, x, z)
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values) <= 0.5 + 1e-15)


@pytest.mark.parametrize("name", ["call", "put"])
def test_payoff_is_lipschitz_one(name):
    problem = make_problem(entry(name))
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 250.0, 500)
    b = rng.uniform(0.0, 250.0, 500)
    gap = np.abs(problem.terminal(a) - problem.terminal(b))
    assert np.all(gap <= np.abs(a - b) + 1e-12)


@pytest.mark.parametrize("name", ["call", "put"])
def test_payoff_gradient_matches_fd_away_from_kink(name):
    problem = make_problem(entry(name))
    rng = np.random.default_rng(11)
    x = rng.uniform(50.0, 150.0, 200)
    x = x[np.abs(x - 100.0) > 1e-3]  # stay off the strike
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (problem.terminal(x + h) - problem.terminal(x - h)) / (2 * h)
    np.testing.assert_allclose(problem.terminal_gradient(x), fd, rtol=1e-6, atol=1e-9)


def test_driver_finite_at_origin_on_grid():
    # f(t, 0, 0, 0) stays bounded along the grid for every catalog problem
    grid = make_uniform_grid(1.0, 10)
    zero = np.array([0.0])
    for name in ("call", "put", "arctan", "custom"):
        problem = make_problem(entry(name))
        for t in grid.times:
            value = problem.driver(float(t), zero, zero, zero)
            assert np.isfinite(value).all()


def test_diffusion_positive_along_simulated_paths():
    # 1d ellipticity spot check on the shipped pricing dynamics
    from fbsde.simulate import simulate_paths

    problem = make_problem(entry("call"))
    grid = make_uniform_grid(1.0, 10)
    ens = simulate_paths(problem, grid, 2000, 5)
    for i in range(grid.n_steps):
        assert np.all(problem.diffusion(grid.times[i], ens.states[:, i]) > 0.0)


def test_defaults_match_shipped_experiments():
    assert CATALOG_DEFAULTS["call"]["S0"] == 100.0
    assert CATALOG_DEFAULTS["call"]["r"] == 0.01
    assert CATALOG_DEFAULTS["put"]["sigma"] == 0.02
