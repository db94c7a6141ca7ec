import dataclasses
import weakref
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from fbsde.basis import BasisSet
from fbsde.model import (FbsdeProblem, ProblemCatalogEntry, TimeGrid, make_problem,
                         make_uniform_grid)
from fbsde.oracle import black_scholes
from fbsde.regress import _BLOCK_ROWS, FactoredDesign
from fbsde.simulate import PathEnsemble, euler_states, simulate_paths
import fbsde.solver as solver_module
from fbsde.solver import (NumericalError, solve, solve_regress_later,
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


@pytest.mark.parametrize("family, factorisations", [("laguerre", 10), ("monomial", 10),
                                                    ("hermite", 10)])
def test_lockstep_factors_each_shared_time_column_once(monkeypatch, family,
                                                       factorisations):
    # the now step i design is the later step i-1 design, so 1 + 9
    # factorisations, and the two record the same condition; the later step
    # solves for alpha and beta at each of its 10 steps, the now step, which
    # reads only fitted values, for nothing, also where it factors a column
    calls, solves = [], []
    real, real_solve = solver_module.project, FactoredDesign.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def counting_solve(self, target):
        solves.append(target)
        return real_solve(self, target)

    monkeypatch.setattr(solver_module, "project", counting)
    monkeypatch.setattr(FactoredDesign, "solve", counting_solve)
    problem = call_problem()
    basis = BasisSet(family, 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 2000, seed=5)
    both = solve(problem, GRID, basis, ens)
    assert (len(calls), len(solves)) == (factorisations, 20)
    assert [result.scheme for result in both] == ["later", "now"]
    later, now = (result.diagnostics["condition"] for result in both)
    assert later[:-1] == now[1:]
    # the given order only orders the results: the loop, and so every bit, is the same
    calls.clear()
    solves.clear()
    reversed_order = solve(problem, GRID, basis, ens, ("now", "later"))
    assert (len(calls), len(solves)) == (factorisations, 20)
    assert [result.scheme for result in reversed_order] == ["now", "later"]
    alone = []
    for single, solved in ((solve_regress_later, 20), (solve_regress_now, 0)):
        solves.clear()
        alone.append(single(problem, GRID, basis, ens))
        assert len(solves) == solved
    for shared, single in [*zip(both, alone), *zip(reversed_order[::-1], alone)]:
        assert (shared.y0, shared.z0) == (single.y0, single.z0)
        assert shared.diagnostics.keys() == single.diagnostics.keys()
        for name, values in single.diagnostics.items():
            np.testing.assert_array_equal(np.array(shared.diagnostics[name], dtype=float),
                                          np.array(values, dtype=float), err_msg=name)


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_each_column_is_factored_in_its_evaluated_design(monkeypatch, ridge):
    # one k * M array per time column: the factorisation overwrites the
    # design it was handed instead of copying it
    pairs = []
    real = solver_module.project

    def recording(design, *args, **kwargs):
        result = real(design, *args, **kwargs)
        pairs.append((design, result[2]))
        return result

    monkeypatch.setattr(solver_module, "project", recording)
    problem = call_problem()
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 2 * _BLOCK_ROWS, seed=5)  # two row blocks
    solve(problem, GRID, basis, ens, ridge=ridge)
    assert len(pairs) == GRID.n_steps
    for design, factored in pairs:
        assert all(np.shares_memory(design, qt) for qt, _ in factored._blocks)


@pytest.mark.parametrize("schemes", [("later", "now"), ("now", "later"), ("later",),
                                     ("now",)])
def test_no_factorisation_outlives_its_last_reader(monkeypatch, schemes):
    # a factored column (k * M words) lives from its factoring to its last
    # reader: with the now scheme, through the later step's cond_exp_dot to
    # the now step's fitted values, never into a Picard loop or past solve
    live = weakref.WeakSet()
    at_cond_exp, at_picard = {}, []
    picard = False  # set by the now step's fitted values, before its Picard loop
    real_init, real_fitted = FactoredDesign.__init__, FactoredDesign.fitted
    real_cond_exp_dot = BasisSet.cond_exp_dot

    def tracking_init(self, *args, **kwargs):
        nonlocal picard
        picard = False
        real_init(self, *args, **kwargs)
        live.add(self)

    def tracking_fitted(self, target):
        nonlocal picard
        picard = True
        return real_fitted(self, target)

    def tracking_cond_exp_dot(self, i, *args):
        nonlocal picard
        picard = False
        at_cond_exp[i] = len(live)
        return real_cond_exp_dot(self, i, *args)

    def tracking_driver(t, x, y, z):
        if picard or x.shape == (1,):  # the now step's Picard loop, at t_0 too
            at_picard.append(len(live))
        return base.driver(t, x, y, z)

    monkeypatch.setattr(FactoredDesign, "__init__", tracking_init)
    monkeypatch.setattr(FactoredDesign, "fitted", tracking_fitted)
    monkeypatch.setattr(BasisSet, "cond_exp_dot", tracking_cond_exp_dot)
    base = call_problem()
    problem = dataclasses.replace(base, driver=tracking_driver)
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 2000, seed=5)
    solve(problem, GRID, basis, ens, schemes)
    assert len(live) == 0
    N = GRID.n_steps
    if "later" in schemes:
        # column i+1 waits for the now step i+1; column N has no now step
        assert sorted(at_cond_exp) == list(range(N))
        held = 1 if "now" in schemes else 0
        assert [at_cond_exp[i] for i in range(N - 1)] == [held] * (N - 1)
        assert at_cond_exp[N - 1] <= held
    if "now" in schemes:
        assert len(at_picard) >= N and not any(at_picard)
    else:
        assert at_picard == []


def test_lockstep_fails_at_first_failing_step_in_loop_order():
    # an infinite driver at t_9 fails the later scheme at its step 8 and
    # the now scheme at its step 9: both steps of time column 9, which the
    # lockstep loop takes later step first, whatever the given scheme order
    base = linear_brownian()
    problem = FbsdeProblem(
        drift=base.drift, diffusion=base.diffusion,
        driver=lambda t, x, y, z: np.full_like(y, np.inf if t == GRID.times[9] else 0.0),
        terminal=base.terminal, terminal_gradient=base.terminal_gradient,
        initial_state=0.0, horizon=1.0,
        drift_dx=base.drift_dx, diffusion_dx=base.diffusion_dx)
    basis = BasisSet("hermite", 3, problem, GRID)
    ens = simulate_paths(problem, GRID, 200, seed=2)
    with pytest.raises(NumericalError, match="driver values at step 8$"):
        solve_regress_later(problem, GRID, basis, ens)
    with pytest.raises(NumericalError, match="fitted values at step 9$"):
        solve_regress_now(problem, GRID, basis, ens)
    with pytest.raises(NumericalError, match="driver values at step 8$"):
        solve(problem, GRID, basis, ens)
    with pytest.raises(NumericalError, match="driver values at step 8$"):
        solve(problem, GRID, basis, ens, ("now", "later"))


def test_unknown_scheme_rejected():
    problem = call_problem()
    basis = BasisSet("laguerre", 3, problem, GRID)
    ens = simulate_paths(problem, GRID, 100, seed=1)
    for schemes in ((), ("later", "sideways"), ("later", "later")):
        with pytest.raises(ValueError, match="schemes"):
            solve(problem, GRID, basis, ens, schemes)


def test_y0_is_the_sweeps_step_zero_value():
    # every path starts at x0, so the step-0 values are one number; y0 must
    # be that number bit for bit, for both schemes
    problem = make_problem(ProblemCatalogEntry.with_defaults("put"))
    grid = make_uniform_grid(1.0, 20)
    for result in solve_both(problem, grid, "laguerre", 6, 1000, seed=1):
        assert abs(result.y0) == result.diagnostics["max_abs_y"][0], result.scheme


@pytest.mark.parametrize("family", ["laguerre", "hermite"])
def test_later_step_zero_reads_the_one_initial_state(monkeypatch, family):
    # every path starts at x0, so the later step 0 takes its conditional
    # expectation at that one state, not at M copies; the value is the one
    # every copy would get, bit for bit
    shapes, real_cond_exp_dot = {}, BasisSet.cond_exp_dot

    def tracking_cond_exp_dot(self, i, x, weights):
        shapes[i] = x.shape
        return real_cond_exp_dot(self, i, x, weights)

    monkeypatch.setattr(BasisSet, "cond_exp_dot", tracking_cond_exp_dot)
    problem = call_problem()
    basis = BasisSet(family, 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 2000, seed=5)
    result = solve_regress_later(problem, GRID, basis, ens)
    assert shapes == {0: (1,), **{i: (2000,) for i in range(1, GRID.n_steps)}}
    record = result.diagnostics
    weights = record["alpha"][0] + GRID.deltas[0] * record["beta"][0]
    copies = real_cond_exp_dot(basis, 0, ens.states[:, 0], weights)
    assert np.all(copies == result.y0)


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


def coarsen(problem, paths, factor):
    """The ensemble on every ``factor``-th time point of ``paths``' grid,
    driven by the sums of consecutive increments: the same Brownian paths
    seen on a coarser grid."""
    m, n = paths.increments.shape
    grid = TimeGrid(paths.grid.times[::factor])
    increments = paths.increments.reshape(m, n // factor, factor).sum(axis=2)
    return PathEnsemble(states=euler_states(problem, grid, increments),
                        increments=increments, grid=grid, seed=paths.seed)


def test_now_bias_is_first_order_on_coupled_grids():
    # theta = 0.2 as above.  The now scheme's seed-to-seed spread hides its
    # bias on independent ensembles; on grids N = 5, 10, 20 that share each
    # seed's Brownian paths the spread cancels in the bias differences
    # b_N - b_2N, which should halve with each doubling of N.
    problem = call_problem(mu=0.05, sigma=0.2)
    gaps = []
    for seed in range(1, 9):
        fine = simulate_paths(problem, make_uniform_grid(1.0, 20), 30_000, seed)
        y0 = [solve_regress_now(problem, paths.grid,
                                BasisSet("laguerre", 6, problem, paths.grid), paths).y0
              for paths in (coarsen(problem, fine, 4), coarsen(problem, fine, 2), fine)]
        gaps.append(np.diff(y0))
    means = -np.mean(gaps, axis=0)  # b_N - b_2N for N = 5, 10
    errors = np.std(gaps, axis=0, ddof=1) / np.sqrt(len(gaps))
    # the seed panel resolves each gap, and the second is half the first
    assert np.all(3 * errors < np.abs(means)), (means, errors)
    assert 1.5 <= means[0] / means[1] <= 3.0, means


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


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1e-5])
def test_ridge_outside_its_range_rejected(ridge):
    # nan > 0 is false, so a NaN ridge would silently be no ridge; a now-only
    # sweep on a one-step grid factors nothing, so solve checks up front
    problem = call_problem()
    one_step = make_uniform_grid(1.0, 1)
    for grid, schemes in ((GRID, ("later", "now")), (one_step, ("now",))):
        basis = BasisSet("laguerre", 3, problem, grid)
        ens = simulate_paths(problem, grid, 100, seed=1)
        with pytest.raises(ValueError, match="ridge"):
            solve(problem, grid, basis, ens, schemes, ridge=ridge)


@pytest.mark.parametrize("picard_tol", [float("nan"), -1e-10])
def test_picard_tol_outside_its_range_rejected(picard_tol):
    # a NaN tolerance would stop every Picard loop after one iteration
    problem = call_problem()
    basis = BasisSet("laguerre", 3, problem, GRID)
    ens = simulate_paths(problem, GRID, 100, seed=1)
    for schemes in (("now",), ("later", "now")):
        with pytest.raises(ValueError, match="picard_tol"):
            solve(problem, GRID, basis, ens, schemes, picard_tol=picard_tol)
    # the later scheme runs no Picard loop: the tolerance is not its input
    solve(problem, GRID, basis, ens, ("later",), picard_tol=picard_tol)


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
