import math

import numpy as np
import pytest

from fbsde.basis import BasisSet
from fbsde.model import ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.oracle import (arctan_solution, black_scholes, nested_mc_y0,
                          norm_cdf, reference_for)
from fbsde.simulate import simulate_paths
from fbsde.solver import solve_regress_later

# exact values of the shipped pricing configuration (40-digit arithmetic,
# frozen): forward 100*exp(0.01), d+ = 0.51, d- = 0.49
CALL_Y0 = 1.388626674261007561
CALL_Z0 = 1.3899485382049611652
PUT_Y0 = 0.39361004917781291837
PUT_Z0 = -0.61005146179503883478


def test_call_reference_values():
    ref = black_scholes("call", 100.0, 100.0, 0.01, 0.02, 1.0)
    assert ref.y0_ref == pytest.approx(CALL_Y0, abs=1e-12)
    assert ref.z0_ref == pytest.approx(CALL_Z0, abs=1e-12)
    assert ref.y0_ref == pytest.approx(1.3886, abs=5e-5)
    assert ref.z0_ref == pytest.approx(1.39, abs=1e-3)
    assert ref.source == "black_scholes_call"


def test_put_reference_values():
    ref = black_scholes("put", 100.0, 100.0, 0.01, 0.02, 1.0)
    assert ref.y0_ref == pytest.approx(PUT_Y0, abs=1e-12)
    assert ref.z0_ref == pytest.approx(PUT_Z0, abs=1e-12)
    assert ref.y0_ref == pytest.approx(0.39, abs=4e-3)
    assert ref.z0_ref == pytest.approx(-0.60, abs=2e-2)


def test_vanishing_strike_limit():
    ref = black_scholes("call", 100.0, 1e-12, 0.01, 0.02, 1.0)
    assert ref.y0_ref == pytest.approx(100.0, rel=1e-10)
    assert ref.z0_ref == pytest.approx(2.0, rel=1e-10)


def test_put_call_parity():
    for (S0, K, r, sigma, T) in [(100, 100, 0.01, 0.02, 1.0),
                                 (90, 110, 0.03, 0.25, 0.7),
                                 (120, 80, -0.01, 0.4, 2.0)]:
        call = black_scholes("call", S0, K, r, sigma, T)
        put = black_scholes("put", S0, K, r, sigma, T)
        assert call.y0_ref - put.y0_ref == pytest.approx(
            S0 - K * math.exp(-r * T), abs=1e-12)


def test_black_scholes_input_validation():
    with pytest.raises(ValueError):
        black_scholes("straddle", 100, 100, 0.01, 0.02, 1.0)
    with pytest.raises(ValueError):
        black_scholes("call", -100, 100, 0.01, 0.02, 1.0)
    with pytest.raises(ValueError):
        black_scholes("call", 100, 100, 0.01, 0.0, 1.0)


def test_call_price_monotone_in_sigma_and_spot():
    prices_sigma = [black_scholes("call", 100, 100, 0.01, s, 1.0).y0_ref
                    for s in (0.01, 0.05, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(prices_sigma, prices_sigma[1:]))
    prices_spot = [black_scholes("call", s0, 100, 0.01, 0.2, 1.0).y0_ref
                   for s0 in (80, 90, 100, 110, 120)]
    assert all(a < b for a, b in zip(prices_spot, prices_spot[1:]))


def test_norm_cdf_basics():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(0.51) == pytest.approx(0.6949742691024806, abs=1e-12)
    assert norm_cdf(-8.0) + norm_cdf(8.0) == pytest.approx(1.0, abs=1e-15)


# ----------------------------------------------------------- arctan form


def test_arctan_solution_values():
    assert arctan_solution(0.3, 0.0) == (0.0, 0.0)
    y, z = arctan_solution(0.0, 1.0)
    assert y == pytest.approx(math.pi / 4 - math.log(2) / 2, abs=1e-15)
    assert z == pytest.approx(math.pi / 4, abs=1e-15)


def test_arctan_solution_symmetry():
    w = np.linspace(-3.0, 3.0, 31)
    y_pos, z_pos = arctan_solution(0.5, w)
    y_neg, z_neg = arctan_solution(0.5, -w)
    np.testing.assert_allclose(y_pos, y_neg, rtol=0, atol=1e-15)
    np.testing.assert_allclose(z_pos, -z_neg, rtol=0, atol=1e-15)


def test_arctan_solution_solves_its_pde():
    # u(t,x) = -ln(1+x^2)/2 + x*arctan(x) is time-independent, so the
    # residual du/dt + u_xx/2 + f(t, x, u, u_x) must vanish; derivatives by
    # high-order finite differences
    problem = make_problem(ProblemCatalogEntry.with_defaults("arctan"))
    rng = np.random.default_rng(6021)
    x = rng.uniform(-3.0, 3.0, 100)
    t = rng.uniform(0.0, 1.0, 100)
    h = 1e-3

    def u(v):
        return arctan_solution(0.0, v)[0]

    u_x = (-u(x + 2 * h) + 8 * u(x + h) - 8 * u(x - h) + u(x - 2 * h)) / (12 * h)
    u_xx = (-u(x + 2 * h) + 16 * u(x + h) - 30 * u(x)
            + 16 * u(x - h) - u(x - 2 * h)) / (12 * h * h)
    residual = 0.5 * u_xx + problem.driver(t, x, u(x), u_x)
    np.testing.assert_allclose(residual, 0.0, rtol=0, atol=1e-8)


def test_reference_lookup():
    call_entry = ProblemCatalogEntry.with_defaults("call")
    assert reference_for(call_entry).source == "black_scholes_call"
    arctan_entry = ProblemCatalogEntry.with_defaults("arctan")
    assert reference_for(arctan_entry) == reference_for(arctan_entry)
    assert reference_for(arctan_entry).y0_ref == 0.0
    assert reference_for(ProblemCatalogEntry.with_defaults("custom")) is None


# ------------------------------------------------------------- nested MC


def test_nested_mc_martingale_mean_zero():
    problem = make_problem(ProblemCatalogEntry.with_defaults("custom"))
    grid = make_uniform_grid(1.0, 2)
    est = nested_mc_y0(problem, grid, outer=4000, inner=200, seed=3)
    assert abs(est.y0) <= 4 * est.standard_error
    assert float(est) == est.y0


def test_nested_mc_second_moment():
    # phi(x) = x^2 on Brownian motion: E[W_1^2] = 1
    from fbsde.model import FbsdeProblem

    base = make_problem(ProblemCatalogEntry.with_defaults("custom"))
    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=base.driver,
        terminal=lambda x: x * x, terminal_gradient=lambda x: 2.0 * x,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    grid = make_uniform_grid(1.0, 2)
    est = nested_mc_y0(problem, grid, outer=4000, inner=400, seed=4)
    assert abs(est.y0 - 1.0) <= 4 * est.standard_error


def test_nested_mc_cross_checks_regress_later():
    # same 2-step discretization, independent estimators
    problem = make_problem(ProblemCatalogEntry.with_defaults("call"))
    grid = make_uniform_grid(1.0, 2)
    nested = nested_mc_y0(problem, grid, outer=2000, inner=2000, seed=42)
    basis = BasisSet("laguerre", 6, problem, grid)
    values = []
    for seed in (101, 102, 103, 104, 105):
        ens = simulate_paths(problem, grid, 100_000, seed)
        values.append(solve_regress_later(problem, grid, basis, ens).y0)
    later_mean = float(np.mean(values))
    later_se = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    combined = math.hypot(nested.standard_error, later_se)
    assert abs(later_mean - nested.y0) <= 4 * combined


def test_nested_mc_budget_and_determinism():
    problem = make_problem(ProblemCatalogEntry.with_defaults("custom"))
    grid = make_uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match="budget"):
        nested_mc_y0(problem, grid, outer=2000, inner=2000, seed=1)
    grid2 = make_uniform_grid(1.0, 2)
    a = nested_mc_y0(problem, grid2, outer=500, inner=50, seed=9)
    b = nested_mc_y0(problem, grid2, outer=500, inner=50, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        nested_mc_y0(problem, grid2, outer=1, inner=50, seed=9)
