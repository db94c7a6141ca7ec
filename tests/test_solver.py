from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from fbsde.basis import BasisSet
from fbsde.model import (FbsdeProblem, ProblemCatalogEntry, make_problem,
                         make_uniform_grid)
from fbsde.oracle import black_scholes
from fbsde.simulate import simulate_paths
from fbsde.solver import (NumericalError, solve_regress_later,
                          solve_regress_now)

GRID = make_uniform_grid(1.0, 10)


def linear_brownian():
    # zero driver, phi(x) = x, X a standard Brownian motion
    return make_problem(ProblemCatalogEntry.with_defaults("custom"))


def call_problem(**overrides):
    return make_problem(ProblemCatalogEntry.with_defaults("call", **overrides))


def solve_both(problem, grid, family, k, M, seed, **now_kwargs):
    basis = BasisSet(family, k, problem, grid)
    ens = simulate_paths(problem, grid, M, seed)
    later = solve_regress_later(problem, grid, basis, ens)
    now = solve_regress_now(problem, grid, basis, ens, **now_kwargs)
    return later, now


def assert_per_step_record(result, n_steps, fields):
    assert set(result.diagnostics) == {"condition", "max_abs_y", *fields}
    assert all(len(v) == n_steps for v in result.diagnostics.values())
    assert result.max_condition == max(result.diagnostics["condition"])


# --------------------------------------------------------- later scheme


def test_zero_driver_linear_problem_is_exact():
    problem = linear_brownian()
    basis = BasisSet("hermite", 4, problem, GRID)
    ens = simulate_paths(problem, GRID, 2000, seed=9)
    result = solve_regress_later(problem, GRID, basis, ens)
    # Y is the martingale E[W_T | F_t] = W_t; linear targets are in-span
    assert result.y0 == pytest.approx(0.0, abs=1e-10)
    assert result.z0 == pytest.approx(1.0, abs=1e-10)
    assert all(len(v) == GRID.n_steps for v in result.diagnostics.values())
    assert result.runtime_ms >= 0.0


def test_call_price_close_to_black_scholes():
    ref = black_scholes("call", 100.0, 100.0, 0.01, 0.02, 1.0)
    later, now = solve_both(call_problem(), GRID, "laguerre", 6, 100_000, seed=101)
    assert later.y0 == pytest.approx(1.3886, abs=0.05)
    assert later.z0 == pytest.approx(1.39, abs=0.10)
    assert abs(later.y0 - ref.y0_ref) < 0.05
    # scheme agreement on the shared ensemble: within 2x the summed
    # acceptance tolerances
    assert abs(later.y0 - now.y0) <= 2 * (0.05 + 0.05)


def test_arctan_problem_close_to_zero():
    problem = make_problem(ProblemCatalogEntry.with_defaults("arctan"))
    basis = BasisSet("hermite", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 100_000, seed=101)
    result = solve_regress_later(problem, GRID, basis, ens)
    assert abs(result.y0) <= 0.02
    assert abs(result.z0) <= 0.05


def test_span_exactness_polynomial_terminal():
    # f = 0 and a polynomial terminal inside every step's span: the sweep
    # reproduces E[phi(X_T)] with no statistical error beyond rounding
    base = linear_brownian()
    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=base.driver,
        terminal=lambda x: 2.0 + 3.0 * x + x * x,
        terminal_gradient=lambda x: 3.0 + 2.0 * x,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    basis = BasisSet("hermite", 4, problem, GRID)
    ens = simulate_paths(problem, GRID, 500, seed=33)
    result = solve_regress_later(problem, GRID, basis, ens)
    # E[2 + 3 W_T + W_T^2] = 2 + T, and the Euler chain keeps it exact
    assert result.y0 == pytest.approx(3.0, abs=1e-9)
    assert result.z0 == pytest.approx(3.0, abs=1e-9)  # d/dx at x0=0


def test_terminal_alpha_independent_of_driver():
    # alpha at the last step projects phi(X_T): changing the driver may only
    # change beta
    base = call_problem()
    other = call_problem(r=0.005)  # same dynamics, different driver
    grid = make_uniform_grid(1.0, 5)
    ens = simulate_paths(base, grid, 20_000, seed=55)
    res_a = solve_regress_later(base, grid, BasisSet("laguerre", 6, base, grid), ens)
    res_b = solve_regress_later(other, grid,
                                BasisSet("laguerre", 6, other, grid), ens)
    last = grid.n_steps - 1
    np.testing.assert_array_equal(res_a.diagnostics["alpha"][last],
                                  res_b.diagnostics["alpha"][last])
    assert not np.array_equal(res_a.diagnostics["beta"][last],
                              res_b.diagnostics["beta"][last])


def test_repeated_solve_is_bit_identical():
    problem = call_problem()
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 10_000, seed=3)
    r1 = solve_regress_later(problem, GRID, basis, ens)
    r2 = solve_regress_later(problem, GRID, basis, ens)
    assert r1.y0 == r2.y0 and r1.z0 == r2.z0
    n1 = solve_regress_now(problem, GRID, basis, ens)
    n2 = solve_regress_now(problem, GRID, basis, ens)
    assert n1.y0 == n2.y0 and n1.z0 == n2.z0


def test_y0_is_the_sweeps_step_zero_value():
    # every path starts at x0, so the step-0 values are one number; y0 must
    # be that number bit for bit, for both schemes
    problem = make_problem(ProblemCatalogEntry.with_defaults("put"))
    grid = make_uniform_grid(1.0, 20)
    for result in solve_both(problem, grid, "laguerre", 6, 1000, seed=1):
        assert abs(result.y0) == result.diagnostics["max_abs_y"][0], result.scheme


def test_error_median_nonincreasing_in_steps():
    # empirical convergence-scaling trend at large M: finer partitions do
    # not worsen the median y0 error (N = 16 added to the acceptance range)
    ref = black_scholes("call", 100.0, 100.0, 0.01, 0.02, 1.0)
    problem = call_problem()
    medians = []
    for n_steps in (2, 4, 8, 16):
        grid = make_uniform_grid(1.0, n_steps)
        basis = BasisSet("laguerre", 6, problem, grid)
        errs = []
        for seed in range(101, 111):
            ens = simulate_paths(problem, grid, 100_000, seed)
            res = solve_regress_later(problem, grid, basis, ens)
            errs.append(abs(res.y0 - ref.y0_ref))
        medians.append(float(np.median(errs)))
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians


def test_later_bias_is_first_order_when_z_drives_y():
    # mu != r gives theta = 0.2, so Z enters the driver; the y0 bias of the
    # Euler scheme should halve with each doubling of N
    ref = black_scholes("call", 100.0, 100.0, 0.01, 0.2, 1.0)
    problem = call_problem(mu=0.05, sigma=0.2)
    biases, errors = [], []
    for n_steps in (5, 10, 20):
        grid = make_uniform_grid(1.0, n_steps)
        basis = BasisSet("laguerre", 6, problem, grid)
        errs = [solve_regress_later(problem, grid, basis,
                                    simulate_paths(problem, grid, 30_000, seed)).y0
                - ref.y0_ref for seed in range(1, 9)]
        biases.append(float(np.mean(errs)))
        errors.append(float(np.std(errs, ddof=1) / np.sqrt(len(errs))))
    for j in range(2):
        # the seed panel resolves each gap, and each doubling shrinks the bias
        assert 3 * max(errors[j], errors[j + 1]) < abs(biases[j] - biases[j + 1]), errors
        assert 1.5 <= biases[j] / biases[j + 1] <= 3.0, biases


def test_combination_ops_are_no_less_accurate_than_matrix_forms():
    # The sweep's own weights (call, laguerre k=6, M=2e4, seed 102, |w| up
    # to ~3e6): on 64 states per step, each op on the coefficient vector is
    # at least as close to the exact rational value of the same combination
    # as the matrix form times the vector.
    problem = call_problem()
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 20_000, seed=102)
    result = solve_regress_later(problem, GRID, basis, ens)
    # L_n(u) = sum_j (-1)^j C(n, j) u^j / j!, row n
    rows = [[Fraction((-1) ** j * comb(n, j), factorial(j)) for j in range(n + 1)]
            for n in range(6)]

    def exact(weights, powers):
        return float(sum(Fraction(w) * sum(c * p for c, p in zip(row, powers))
                         for w, row in zip(weights, rows)))

    picks = np.linspace(0, 19_999, 64).astype(int)
    worst = np.zeros((3, 2))  # (grad, cond_exp, cond_exp_grad) x (matrix, vector)
    for i in range(GRID.n_steps):
        alpha = result.diagnostics["alpha"][i]
        weights = alpha + GRID.deltas[i] * result.diagnostics["beta"][i]
        scale = Fraction(basis._scale[i])
        x_next, x = ens.states[picks, i + 1], ens.states[picks, i]
        got = [(basis.grad(i, x_next) @ alpha, basis.grad_dot(i, x_next, alpha)),
               (basis.cond_exp(i, x) @ weights, basis.cond_exp_dot(i, x, weights)),
               (basis.cond_exp_grad(i, x) @ weights, basis.cond_exp_grad_dot(i, x, weights))]
        m, s = basis._transition(i, x)
        dm, ds = basis._slopes(i, x)
        for n in range(picks.size):
            u = Fraction(x_next[n]) / scale
            slopes = [d * u ** (d - 1) / scale if d else Fraction(0) for d in range(6)]
            # E[U^d] and its x-derivative for U = m + s G at this state's
            # (float) scaled transition, taken exactly
            mn, sn, dmn, dsn = (Fraction(v[n]) for v in (m, s, dm, ds))
            mu, dmu = [Fraction(1), mn], [Fraction(0), dmn]
            for d in range(2, 6):
                mu.append(mn * mu[d - 1] + (d - 1) * sn * sn * mu[d - 2])
                dmu.append(d * dmn * mu[d - 1] + d * (d - 1) * sn * dsn * mu[d - 2])
            want = (exact(alpha, slopes), exact(weights, mu), exact(weights, dmu))
            for op, (matrix, vector) in enumerate(got):
                worst[op] = np.maximum(worst[op], [abs(matrix[n] - want[op]),
                                                   abs(vector[n] - want[op])])
    assert np.all(worst[:, 1] <= worst[:, 0]), worst


# ----------------------------------------------------------- now scheme


def test_now_scheme_zero_driver_martingale():
    problem = linear_brownian()
    M = 20_000
    basis = BasisSet("hermite", 4, problem, GRID)
    ens = simulate_paths(problem, GRID, M, seed=12)
    result = solve_regress_now(problem, GRID, basis, ens)
    # y0 is the sample mean of W_T-projections: 0 within 4 s.e.
    assert abs(result.y0) <= 4 * np.sqrt(1.0 / M)
    # the dW-weighted regression recovers z0 = 1 but with Monte Carlo noise
    assert abs(result.z0 - 1.0) <= 4 * np.sqrt(2.0 / (M * GRID.deltas[0]))
    assert all(len(v) == GRID.n_steps for v in result.diagnostics.values())


def test_now_scheme_constant_terminal():
    base = linear_brownian()
    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=base.driver,
        terminal=lambda x: np.full_like(x, 5.0),
        terminal_gradient=lambda x: np.zeros_like(x),
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    M = 20_000
    basis = BasisSet("hermite", 4, problem, GRID)
    ens = simulate_paths(problem, GRID, M, seed=8)
    result = solve_regress_now(problem, GRID, basis, ens)
    assert result.y0 == pytest.approx(5.0, abs=1e-12)
    # z0 = mean(5 * dW)/dt: zero within 4 s.e. of that average
    assert abs(result.z0) <= 4 * 5.0 / np.sqrt(M * GRID.deltas[0])


def test_now_scheme_picard_diagnostics():
    problem = call_problem()
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 5000, seed=77)
    later = solve_regress_later(problem, GRID, basis, ens)
    result = solve_regress_now(problem, GRID, basis, ens, picard_iters=5,
                               picard_tol=1e-10)
    assert_per_step_record(later, GRID.n_steps, ("alpha", "beta"))
    assert_per_step_record(result, GRID.n_steps, ("picard_iterations", "picard_gap"))
    assert all(n <= 5 for n in result.diagnostics["picard_iterations"])
    # contraction factor dt*r is tiny
    assert all(gap < 1e-10 for gap in result.diagnostics["picard_gap"])
    with pytest.raises(ValueError):
        solve_regress_now(problem, GRID, basis, ens, picard_iters=0)


def test_later_sweep_matches_hand_computation():
    # tiny case, fully recomputed with normal equations and explicit
    # Gaussian moments: catches any index slip in the backward recursion
    b0, s0 = 0.2, 1.1
    problem = FbsdeProblem(
        drift=lambda t, x: np.full_like(x, b0),
        diffusion=lambda t, x: np.full_like(x, s0),
        driver=lambda t, x, y, z: -0.3 * y + 0.1 * z + 0.05 * x,
        terminal=lambda x: x * x, terminal_gradient=lambda x: 2.0 * x,
        initial_state=0.0, horizon=1.0,
        drift_dx=lambda t, x: np.zeros_like(x),
        diffusion_dx=lambda t, x: np.zeros_like(x))
    grid = make_uniform_grid(1.0, 2)
    basis = BasisSet("monomial", 3, problem, grid)  # identity scaling at x0=0
    ens = simulate_paths(problem, grid, 50, seed=99)
    result = solve_regress_later(problem, grid, basis, ens)

    dt = 0.5
    states = ens.states

    def fit(E, target):
        return np.linalg.solve(E.T @ E, E.T @ target)

    def design_at(x):
        return np.column_stack([np.ones_like(x), x, x * x])

    def cond_exp_rows(x):
        m = x + dt * b0
        return np.column_stack([np.ones_like(x), m, m * m + s0 * s0 * dt])

    # step 1: target phi(X_T), design at X_{t_2}
    target = states[:, 2] ** 2
    E1 = design_at(states[:, 2])
    a2 = fit(E1, target)
    z2 = (np.column_stack([np.zeros_like(states[:, 2]),
                           np.ones_like(states[:, 2]),
                           2 * states[:, 2]]) @ a2) * s0
    f2 = -0.3 * target + 0.1 * z2 + 0.05 * states[:, 2]
    b2 = fit(E1, f2)
    y1 = cond_exp_rows(states[:, 1]) @ (a2 + dt * b2)

    # step 0: same pattern one level down
    E0 = design_at(states[:, 1])
    a1 = fit(E0, y1)
    z1 = (np.column_stack([np.zeros_like(states[:, 1]),
                           np.ones_like(states[:, 1]),
                           2 * states[:, 1]]) @ a1) * s0
    f1 = -0.3 * y1 + 0.1 * z1 + 0.05 * states[:, 1]
    b1 = fit(E0, f1)
    w = a1 + dt * b1
    m0 = 0.0 + dt * b0
    y0 = w @ np.array([1.0, m0, m0 * m0 + s0 * s0 * dt])
    z0 = s0 * (w @ np.array([0.0, 1.0, 2.0 * m0]))

    assert result.y0 == pytest.approx(y0, rel=1e-10)
    assert result.z0 == pytest.approx(z0, rel=1e-10)
    np.testing.assert_allclose(result.diagnostics["alpha"][1], a2, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(result.diagnostics["beta"][0], b1, rtol=1e-9, atol=1e-12)


def test_now_sweep_matches_hand_computation():
    # same tiny case for the implicit scheme: both regressions and the
    # Picard loop recomputed with plain numpy
    b0, s0 = 0.2, 1.1
    problem = FbsdeProblem(
        drift=lambda t, x: np.full_like(x, b0),
        diffusion=lambda t, x: np.full_like(x, s0),
        driver=lambda t, x, y, z: -0.3 * y + 0.1 * z + 0.05 * x,
        terminal=lambda x: x * x, terminal_gradient=lambda x: 2.0 * x,
        initial_state=0.0, horizon=1.0,
        drift_dx=lambda t, x: np.zeros_like(x),
        diffusion_dx=lambda t, x: np.zeros_like(x))
    grid = make_uniform_grid(1.0, 2)
    basis = BasisSet("monomial", 3, problem, grid)
    ens = simulate_paths(problem, grid, 50, seed=99)
    result = solve_regress_now(problem, grid, basis, ens, picard_iters=5,
                               picard_tol=1e-10)

    dt = 0.5
    states, dw = ens.states, ens.increments

    def fit(E, target):
        return np.linalg.solve(E.T @ E, E.T @ target)

    def picard(e_y, x, z, t):
        y = e_y.copy()
        for _ in range(5):
            prev = y
            y = e_y + dt * (-0.3 * prev + 0.1 * z + 0.05 * x)
            if np.max(np.abs(y - prev)) < 1e-10:
                break
        return y

    y2 = states[:, 2] ** 2
    E = np.column_stack([np.ones(50), states[:, 1], states[:, 1] ** 2])
    e_y1 = E @ fit(E, y2)
    z1 = E @ fit(E, y2 * dw[:, 1] / dt)
    y1 = picard(e_y1, states[:, 1], z1, grid.times[1])

    e_y0 = np.array([y1.mean()])
    z0 = float((y1 * dw[:, 0]).mean() / dt)
    y0 = float(picard(e_y0, np.array([0.0]), np.array([z0]), 0.0)[0])

    assert result.y0 == pytest.approx(y0, rel=1e-10)
    assert result.z0 == pytest.approx(z0, rel=1e-10)


def test_condition_is_that_of_each_step_design():
    # one factorisation per step: its condition must still be the singular
    # value ratio lstsq sees on that step's design (call config, one seed)
    problem = call_problem()
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 100_000, seed=101)
    later = solve_regress_later(problem, GRID, basis, ens)
    now = solve_regress_now(problem, GRID, basis, ens)
    rcond = 100_000 * np.finfo(np.float64).eps
    target = np.ones(100_000)
    for i in range(GRID.n_steps):
        sv = np.linalg.lstsq(basis.eval(i, ens.states[:, i + 1]), target, rcond=rcond)[3]
        assert later.diagnostics["condition"][i] == pytest.approx(sv[0] / sv[-1], rel=1e-3)
        if i >= 1:
            sv = np.linalg.lstsq(basis.eval(i, ens.states[:, i]), target, rcond=rcond)[3]
            assert now.diagnostics["condition"][i] == pytest.approx(sv[0] / sv[-1], rel=1e-3)
    assert now.diagnostics["condition"][0] == 1.0


def test_single_step_grid():
    # N = 1: one backward step, the now-scheme goes straight to the t0 means
    problem = call_problem()
    grid = make_uniform_grid(1.0, 1)
    basis = BasisSet("laguerre", 6, problem, grid)
    ens = simulate_paths(problem, grid, 20_000, seed=4)
    later = solve_regress_later(problem, grid, basis, ens)
    now = solve_regress_now(problem, grid, basis, ens)
    assert_per_step_record(later, 1, ("alpha", "beta"))
    assert_per_step_record(now, 1, ("picard_iterations", "picard_gap"))
    for res in (later, now):
        assert res.y0 == pytest.approx(1.3886, abs=0.1)


def test_constant_only_basis_degenerates_gracefully():
    # k = 1: fits are means; the later-scheme gradient is identically zero
    problem = linear_brownian()
    basis = BasisSet("hermite", 1, problem, GRID)
    ens = simulate_paths(problem, GRID, 5000, seed=6)
    later = solve_regress_later(problem, GRID, basis, ens)
    assert later.z0 == 0.0
    assert abs(later.y0) <= 4 / np.sqrt(5000)


# ------------------------------------------------------------ guardrails


def test_mismatched_inputs_rejected():
    problem = call_problem()
    other_grid = make_uniform_grid(1.0, 5)
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 100, seed=1)
    with pytest.raises(ValueError):
        solve_regress_later(problem, other_grid, basis, ens)
    with pytest.raises(ValueError):
        solve_regress_later(problem, GRID,
                            BasisSet("laguerre", 6, problem, other_grid), ens)
    other_problem = call_problem(S0=90.0)
    with pytest.raises(ValueError):
        solve_regress_later(other_problem, GRID,
                            BasisSet("laguerre", 6, other_problem, GRID), ens)


def test_nonfinite_values_flag_offending_step():
    base = linear_brownian()
    exploding = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion,
        driver=lambda t, x, y, z: np.full_like(y, np.inf),
        terminal=base.terminal, terminal_gradient=base.terminal_gradient,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    basis = BasisSet("hermite", 3, exploding, GRID)
    ens = simulate_paths(exploding, GRID, 200, seed=2)
    with pytest.raises(NumericalError, match="step 9"):
        solve_regress_later(exploding, GRID, basis, ens)


def test_nonfinite_terminal_values_flag_step_n():
    base = linear_brownian()
    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=base.driver,
        terminal=lambda x: np.where(x > 0.0, np.nan, x),
        terminal_gradient=base.terminal_gradient,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    basis = BasisSet("hermite", 3, problem, GRID)
    ens = simulate_paths(problem, GRID, 200, seed=2)
    for solve in (solve_regress_later, solve_regress_now):
        with pytest.raises(NumericalError, match="terminal values at step 10$"):
            solve(problem, GRID, basis, ens)


def test_nan_driver_stops_picard_at_first_iteration():
    # a NaN gap is not progress: the loop stops and the finite check raises
    base = linear_brownian()
    calls = []

    def nan_driver(t, x, y, z):
        calls.append(t)
        return np.full_like(y, np.nan)

    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=nan_driver,
        terminal=base.terminal, terminal_gradient=base.terminal_gradient,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    basis = BasisSet("hermite", 3, problem, GRID)
    ens = simulate_paths(problem, GRID, 200, seed=2)
    with pytest.raises(NumericalError, match="fitted values at step 9$"):
        solve_regress_now(problem, GRID, basis, ens, picard_iters=50)
    assert calls == [GRID.times[9]]


def test_infinite_gap_stops_picard():
    # an overflowing proposal gives an infinite gap: no further iterations
    base = linear_brownian()
    calls = []

    def overflowing_driver(t, x, y, z):
        calls.append(t)
        return -1e308 * y

    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=overflowing_driver,
        terminal=lambda x: x + 3.0, terminal_gradient=base.terminal_gradient,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    grid = make_uniform_grid(1.0, 4)
    basis = BasisSet("hermite", 3, problem, grid)
    ens = simulate_paths(problem, grid, 500, seed=2)
    with pytest.raises(NumericalError):
        solve_regress_now(problem, grid, basis, ens, picard_iters=50)
    assert len(calls) <= 3


def test_infinite_driver_value_stops_picard():
    # an infinite driver value raises no floating-point error, but its
    # infinite gap ends the Picard loop after one iteration
    base = linear_brownian()
    calls = []

    def infinite_driver(t, x, y, z):
        calls.append(t)
        return np.full_like(y, np.inf)

    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion, driver=infinite_driver,
        terminal=base.terminal, terminal_gradient=base.terminal_gradient,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    grid = make_uniform_grid(1.0, 4)
    basis = BasisSet("hermite", 3, problem, grid)
    ens = simulate_paths(problem, grid, 500, seed=2)
    with pytest.raises(NumericalError, match="fitted values at step 3$"):
        solve_regress_now(problem, grid, basis, ens, picard_iters=50)
    assert calls == [grid.times[3]]
