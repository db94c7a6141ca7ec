from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from fbsde.basis import _BLOCK, MAX_DEGREE, BasisSet, gaussian_moments
from fbsde.model import ProblemCatalogEntry, make_problem, make_uniform_grid

GRID = make_uniform_grid(1.0, 10)


def gaussian_poly_expectation(coeffs, mean, std):
    """E[p(mean + std*G)] for the monomial coefficients of p (ascending)."""
    mu = gaussian_moments(mean, std, len(coeffs) - 1)
    return np.tensordot(np.asarray(coeffs, dtype=np.float64), mu, axes=(0, 0))


def brownian_problem(b0=0.0):
    return make_problem(ProblemCatalogEntry.with_defaults("custom", b0=b0))


def gbm_problem():
    return make_problem(ProblemCatalogEntry.with_defaults("call"))


# ----------------------------------------------------------------- eval


def test_monomial_values():
    basis = BasisSet("monomial", 3, brownian_problem(), GRID)
    np.testing.assert_allclose(basis.eval(0, np.array([2.0])), [[1.0, 2.0, 4.0]], rtol=0, atol=0)


def test_hermite_values_at_zero():
    # probabilists' Hermite: He0=1, He1=x, He2=x^2-1
    basis = BasisSet("hermite", 3, brownian_problem(), GRID)
    np.testing.assert_allclose(basis.eval(0, np.array([0.0])), [[1.0, 0.0, -1.0]], rtol=0, atol=0)


def test_laguerre_values_at_zero():
    basis = BasisSet("laguerre", 3, brownian_problem(), GRID)
    np.testing.assert_allclose(basis.eval(0, np.array([0.0])), [[1.0, 1.0, 1.0]], rtol=0, atol=0)


def test_first_component_is_constant():
    for family in ("laguerre", "hermite", "monomial"):
        basis = BasisSet(family, 5, gbm_problem(), GRID)
        x = np.linspace(60.0, 140.0, 7)
        np.testing.assert_array_equal(basis.eval(4, x)[:, 0], 1.0)


def test_vectorized_eval_matches_scalar():
    basis = BasisSet("laguerre", 4, gbm_problem(), GRID)
    x = np.array([80.0, 100.0, 120.0])
    rows = basis.eval(3, x)
    for i in range(x.size):
        np.testing.assert_array_equal(rows[i:i + 1], basis.eval(3, x[i:i + 1]))


def test_oversized_basis_rejected():
    with pytest.raises(ValueError):
        BasisSet("monomial", MAX_DEGREE + 2, brownian_problem(), GRID)
    with pytest.raises(ValueError):
        BasisSet("splines", 4, brownian_problem(), GRID)
    with pytest.raises(ValueError):
        BasisSet("hermite", 0, brownian_problem(), GRID)


def test_step_index_bounds():
    basis = BasisSet("hermite", 3, brownian_problem(), GRID)
    with pytest.raises(IndexError):
        basis.eval(GRID.n_steps, 0.0)
    with pytest.raises(IndexError):
        basis.cond_exp(-1, 0.0)


# ----------------------------------------------------------------- grad


def test_monomial_gradient():
    basis = BasisSet("monomial", 3, brownian_problem(), GRID)
    np.testing.assert_allclose(basis.grad(0, np.array([2.0])), [[0.0, 1.0, 4.0]], rtol=0, atol=0)


def test_hermite_gradient_at_zero():
    # He_n' = n He_{n-1}, times the chain-rule factor 1/sqrt(t_1) of step 0
    basis = BasisSet("hermite", 3, brownian_problem(), GRID)
    np.testing.assert_allclose(basis.grad(0, np.array([0.0])),
                               [[0.0, 1.0 / np.sqrt(GRID.times[1]), 0.0]], rtol=0, atol=0)


@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
def test_gradient_matches_central_difference(family):
    basis = BasisSet(family, 6, brownian_problem(), GRID)
    x, h = np.array([0.7]), 1e-5
    fd = (basis.eval(2, x + h) - basis.eval(2, x - h)) / (2 * h)
    np.testing.assert_allclose(basis.grad(2, x), fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("family", ["laguerre", "hermite"])
def test_gradient_matches_fd_with_state_scaling(family):
    # scaling chain-rule factor must survive on pricing problems
    basis = BasisSet(family, 6, gbm_problem(), GRID)
    x, h = np.array([104.0]), 1e-3
    fd = (basis.eval(5, x + h) - basis.eval(5, x - h)) / (2 * h)
    np.testing.assert_allclose(basis.grad(5, x), fd, rtol=1e-6, atol=1e-12)


# ----------------------------------------------- recurrence exactness


def closed_form_rows(family, k):
    """Monomial coefficients of the first k family polynomials, in exact
    arithmetic from their closed forms (independent of the recurrence)."""
    rows = []
    for n in range(k):
        if family == "monomial":
            rows.append([Fraction(0)] * n + [Fraction(1)])
        elif family == "hermite":
            # He_n(u) = n! sum_m (-1)^m u^(n-2m) / (m! (n-2m)! 2^m)
            row = [Fraction(0)] * (n + 1)
            for m in range(n // 2 + 1):
                row[n - 2 * m] = Fraction((-1) ** m * factorial(n),
                                          factorial(m) * factorial(n - 2 * m) * 2 ** m)
            rows.append(row)
        else:
            # L_n(u) = sum_j (-1)^j C(n, j) u^j / j!
            rows.append([Fraction((-1) ** j * comb(n, j), factorial(j))
                         for j in range(n + 1)])
    return rows


# Scaled states u, exact in binary, on both sides of the shift.
RATIONAL_U = (0.0, -2.75, -0.5, 0.25, 1.75, 3.5)


@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
@pytest.mark.parametrize("k", [1, 2, 6, 12])
def test_recurrence_matches_exact_polynomials(family, k):
    # x0 = 1.5 on a T=1, N=4 grid: step 0, on the column t_1 = 0.25, scales
    # by sqrt(0.25) = 0.5 around 1.5 (hermite) or by 1.5 around 0 (laguerre,
    # monomial), so each x below is exact and maps back to its u without
    # rounding.
    problem = make_problem(ProblemCatalogEntry.with_defaults("custom", x0=1.5))
    grid = make_uniform_grid(1.0, 4)
    basis = BasisSet(family, k, problem, grid)
    shift, scale = (1.5, 0.5) if family == "hermite" else (0.0, 1.5)
    x = np.array([shift + scale * u for u in RATIONAL_U])
    values, grads = basis.eval(0, x), basis.grad(0, x)
    assert values.shape == grads.shape == (x.size, k)
    rows = closed_form_rows(family, k)
    for m, u in enumerate(RATIONAL_U):
        q = Fraction(u)
        for j, row in enumerate(rows):
            value = sum(c * q ** d for d, c in enumerate(row))
            slope = sum(d * c * q ** (d - 1) for d, c in enumerate(row) if d) / Fraction(scale)
            # rounding scale of the polynomial at u: sum of |terms|
            size = float(sum(abs(c * q ** d) for d, c in enumerate(row)))
            dsize = float(sum(abs(d * c * q ** (d - 1)) for d, c in enumerate(row) if d)) / scale
            assert abs(values[m, j] - float(value)) <= 1e-13 * size
            assert abs(grads[m, j] - float(slope)) <= 1e-13 * dsize
        # one state alone: shape (1, k), same numbers
        np.testing.assert_array_equal(basis.eval(0, x[m:m + 1]), values[m:m + 1])
        np.testing.assert_array_equal(basis.grad(0, x[m:m + 1]), grads[m:m + 1])


# ------------------------------------------------------------- cond_exp


def test_cond_exp_linear_is_drifted_state():
    # e(x) = x: E[x + dt*b + s*G] = x + dt*b
    basis = BasisSet("monomial", 2, brownian_problem(b0=0.3), GRID)
    for i, x in [(0, 0.0), (4, -1.2), (9, 2.5)]:
        expected = x + GRID.deltas[i] * 0.3
        np.testing.assert_allclose(basis.cond_exp(i, np.array([x])), [[1.0, expected]],
                                   rtol=1e-15, atol=1e-15)


def test_cond_exp_square_brownian():
    # e(x) = x^2 with b=0, sigma=1: E[(x+sqrt(dt) G)^2] = x^2 + dt
    basis = BasisSet("monomial", 3, brownian_problem(), GRID)
    for i, x in [(0, 0.0), (3, 1.5), (8, -0.7)]:
        got = basis.cond_exp(i, np.array([x]))[0]
        assert got[2] == pytest.approx(x * x + GRID.deltas[i], rel=1e-14, abs=1e-14)


def test_cond_exp_cube_brownian_with_mc_cross_check():
    # odd Gaussian moments: E[(x+sqrt(dt) G)^3] = x^3 + 3 x dt
    basis = BasisSet("monomial", 4, brownian_problem(), GRID)
    i, x = 5, 0.8
    dt = GRID.deltas[i]
    expected = x**3 + 3 * x * dt
    got = basis.cond_exp(i, np.array([x]))[0, 3]
    assert got == pytest.approx(expected, rel=1e-14)
    g = np.random.default_rng(2718).standard_normal(1_000_000)
    samples = (x + np.sqrt(dt) * g) ** 3
    stderr = samples.std(ddof=1) / 1000.0
    assert abs(samples.mean() - got) <= 4 * stderr


@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
def test_cond_exp_matches_one_step_monte_carlo(family):
    # every component, 1e5 fresh one-step Euler samples, 4 s.e.
    problem = gbm_problem()
    basis = BasisSet(family, 6, problem, GRID)
    i, x, n = 4, 96.0, 100_000
    t, dt = GRID.times[i], GRID.deltas[i]
    m = x + dt * problem.drift(t, np.array([x]))[0]
    s = problem.diffusion(t, np.array([x]))[0] * np.sqrt(dt)
    draws = m + s * np.random.default_rng(31415).standard_normal(n)
    values = basis.eval(i, draws)
    mc = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(n)
    exact = basis.cond_exp(i, np.array([x]))[0]
    assert np.all(np.abs(mc - exact) <= 4 * stderr + 1e-15)


# -------------------------------------------------------- cond_exp_grad


def test_cond_exp_grad_linear_brownian_is_one():
    basis = BasisSet("monomial", 2, brownian_problem(), GRID)
    for i, x in [(0, 0.0), (6, 1.1)]:
        np.testing.assert_allclose(basis.cond_exp_grad(i, np.array([x])), [[0.0, 1.0]],
                                   rtol=0, atol=1e-15)


def test_cond_exp_grad_square_brownian_is_2x():
    basis = BasisSet("monomial", 3, brownian_problem(), GRID)
    for i, x in [(2, 0.4), (7, -1.3)]:
        got = basis.cond_exp_grad(i, np.array([x]))[0]
        assert got[2] == pytest.approx(2 * x, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
def test_cond_exp_grad_matches_fd_on_gbm(family):
    # state-dependent drift and diffusion exercise the full chain rule;
    # 5-point central stencil keeps the oracle's own truncation far below
    # the 1e-6 comparison tolerance
    basis = BasisSet(family, 6, gbm_problem(), GRID)
    i, x, h = 3, np.array([102.0]), 1e-2
    f = lambda v: basis.cond_exp(i, v)
    fd = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
    np.testing.assert_allclose(basis.cond_exp_grad(i, x), fd, rtol=1e-6, atol=1e-12)


# ------------------------------------------------------------ invariants


def spacetime_hermite_coeffs(n, t):
    """Monomial coefficients of H_n(x, t): H_0=1, H_1=x,
    H_{n+1} = x H_n - n t H_{n-1}.  Martingales of Brownian motion."""
    rows = [np.array([1.0]), np.array([0.0, 1.0])]
    for m in range(1, n):
        up = np.concatenate([[0.0], rows[m]])
        down = m * t * np.concatenate([rows[m - 1], [0.0, 0.0]])
        rows.append(up - down)
    return rows[n]


def test_spacetime_hermite_martingale_exactness():
    # conditional expectation through one Euler step of Brownian motion
    # maps H_n(., t_{i+1}) to H_n(., t_i), exactly.  The hermite basis on
    # the column of step i is He_n(x / sqrt(t_{i+1})) = t_{i+1}^{-n/2}
    # H_n(x, t_{i+1}), so its cond_exp is t_{i+1}^{-n/2} H_n(x, t_i).
    basis = BasisSet("hermite", 8, brownian_problem(), GRID)
    xs = np.array([-1.7, 0.0, 0.9, 2.4])
    for i in (0, 4, 9):
        t_now, dt = GRID.times[i], GRID.deltas[i]
        t_next = GRID.times[i + 1]
        values = basis.cond_exp(i, xs)
        for n in range(1, 8):
            coeffs = spacetime_hermite_coeffs(n, t_next)
            want = np.polynomial.polynomial.polyval(xs, spacetime_hermite_coeffs(n, t_now))
            for x, w in zip(xs, want):
                got = float(gaussian_poly_expectation(coeffs, x, np.sqrt(dt)))
                assert got == pytest.approx(float(w), abs=1e-12)
            np.testing.assert_allclose(values[:, n], want / t_next ** (n / 2),
                                       rtol=1e-12, atol=1e-12)


def test_tower_property_by_binning():
    # bin a fresh ensemble on X_{t_i}; per bin the mean of e(X_{t_{i+1}})
    # must match the mean of cond_exp(i, X_{t_i}) within 4 s.e.
    from fbsde.simulate import simulate_paths

    problem = gbm_problem()
    basis = BasisSet("laguerre", 6, problem, GRID)
    ens = simulate_paths(problem, GRID, 100_000, seed=808)
    i = 5
    x_now = ens.states[:, i]
    e_next = basis.eval(i, ens.states[:, i + 1])
    ce_now = basis.cond_exp(i, x_now)
    order = np.argsort(x_now, kind="stable")
    bins = np.array_split(order, 20)  # 5000 samples per bin
    for idx in bins:
        assert idx.size >= 1000
        diff = e_next[idx] - ce_now[idx]
        mean = diff.mean(axis=0)
        stderr = diff.std(axis=0, ddof=1) / np.sqrt(idx.size)
        assert np.all(np.abs(mean) <= 4 * stderr + 1e-14)


def test_cond_exp_linearity():
    basis = BasisSet("hermite", 6, brownian_problem(), GRID)
    combo = np.array([0.5, -2.0, 1.25, 0.0, 3.0, -0.75])
    i = 3
    x = np.linspace(-2.0, 2.0, 9)
    per_component = basis.cond_exp(i, x) @ combo
    # same combination folded into a single polynomial of the scaled state
    coeffs = combo @ basis._table
    scale = np.sqrt(GRID.times[i + 1])  # hermite scaling on the column of step i
    m = x / scale  # zero drift, shift x0 = 0
    s = np.full_like(x, np.sqrt(GRID.deltas[i]) / scale)
    folded = gaussian_poly_expectation(coeffs, m, s)
    np.testing.assert_allclose(per_component, folded, rtol=1e-13, atol=1e-13)


def test_gaussian_moments_against_closed_forms():
    # E[(m+sG)^4] = m^4 + 6 m^2 s^2 + 3 s^4
    m, s = 0.7, 1.3
    mu = gaussian_moments(np.array(m), np.array(s), 4)
    assert mu[4] == pytest.approx(m**4 + 6 * m**2 * s**2 + 3 * s**4, rel=1e-14)
    assert mu[3] == pytest.approx(m**3 + 3 * m * s**2, rel=1e-14)


# ------------------------------------- exact conditional expectations


def exact_moments(m, s, dm, ds, degree):
    """E[U^d] and d/dx E[U^d], d = 0..degree, for U = m + s*G, in exact
    arithmetic; dm and ds are the x-derivatives of m and s."""
    mu, dmu = [Fraction(1), m], [Fraction(0), dm]
    for d in range(2, degree + 1):
        mu.append(m * mu[d - 1] + (d - 1) * s * s * mu[d - 2])
        dmu.append(d * dm * mu[d - 1] + d * (d - 1) * s * ds * mu[d - 2])
    return mu[:degree + 1], dmu[:degree + 1]


# Step 0 of a T=1, N=4 grid: one Euler step of length 1/4 (sqrt = 1/2) onto
# the column t_1 = 1/4.  With x0 = 2 the scaled transition is exact in
# binary: hermite scales by sqrt(t_1) = 1/2 around 2, laguerre and monomial
# by 2 around 0.
# Each entry: the problem, and x -> (b(x), sigma(x), b'(x), sigma'(x)) exactly.
EXACT_PROBLEMS = {
    "brownian": (ProblemCatalogEntry.with_defaults("custom", b0=0.75, s0=1.5, x0=2.0),
                 lambda x: (Fraction(3, 4), Fraction(3, 2), Fraction(0), Fraction(0))),
    "gbm": (ProblemCatalogEntry.with_defaults("call", S0=2.0, mu=0.5, sigma=0.25),
            lambda x: (x / 2, x / 4, Fraction(1, 2), Fraction(1, 4))),
}
EXACT_X = (-2.75, -0.5, 0.0, 0.25, 1.75, 2.0, 3.5)


@pytest.mark.parametrize("name", sorted(EXACT_PROBLEMS))
@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
@pytest.mark.parametrize("k", [1, 2, 6, 12, 31])
def test_cond_exp_matches_exact_rational_moments(name, family, k):
    entry, coefficients = EXACT_PROBLEMS[name]
    basis = BasisSet(family, k, make_problem(entry), make_uniform_grid(1.0, 4))
    shift, scale = (Fraction(2), Fraction(1, 2)) if family == "hermite" else (0, Fraction(2))
    dt = Fraction(1, 4)
    rows = closed_form_rows(family, k)

    # The monomial table: Taylor coefficients of the family polynomials,
    # exactly rounded at low degree and within a few ulps above (one for
    # Laguerre, whose table starts from the exact L_n(0) = 1).
    exact_table = np.array([[float(row[d]) if d < len(row) else 0.0 for d in range(k)]
                            for row in rows])
    if k <= 6:
        np.testing.assert_array_equal(basis._table, exact_table)
    ulps = np.abs(basis._table - exact_table) / np.spacing(np.abs(exact_table))
    assert np.all(ulps <= (1 if family == "laguerre" else 8))

    x = np.array(EXACT_X)
    values, grads = basis.cond_exp(0, x), basis.cond_exp_grad(0, x)
    assert values.shape == grads.shape == (x.size, k)
    eps = np.finfo(float).eps
    for n, xf in enumerate(EXACT_X):
        q = Fraction(xf)
        b, sigma, b_x, sigma_x = coefficients(q)
        m, s = (q + dt * b - shift) / scale, sigma * Fraction(1, 2) / scale
        dm, ds = (1 + dt * b_x) / scale, sigma_x * Fraction(1, 2) / scale
        mu, dmu = exact_moments(m, s, dm, ds, k - 1)
        # the same sums with every term made positive: the rounding scale
        bar, dbar = exact_moments(abs(m), abs(s), abs(dm), abs(ds), k - 1)
        for j, row in enumerate(rows):
            value = sum(c * mu[d] for d, c in enumerate(row))
            slope = sum(c * dmu[d] for d, c in enumerate(row))
            size = float(sum(abs(c) * bar[d] for d, c in enumerate(row)))
            dsize = float(sum(abs(c) * dbar[d] for d, c in enumerate(row)))
            assert abs(values[n, j] - float(value)) <= 16 * eps * size
            assert abs(grads[n, j] - float(slope)) <= 16 * eps * dsize


# --------------------------------------------- operations on combinations


def shifted_rows(rows, k, centre):
    """Exact coefficients of each row's polynomial in powers of u - centre."""
    return [[sum(row[e] * comb(e, d) * centre ** (e - d) for e in range(d, len(row)))
             for d in range(k)] for row in rows]


@pytest.mark.parametrize("name", sorted(EXACT_PROBLEMS))
@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
@pytest.mark.parametrize("k", [1, 2, 6, 12, 31])
def test_combination_ops_match_exact_values(name, family, k):
    # grad_dot, cond_exp_dot and cond_exp_grad_dot against exact rational
    # values of one fixed combination, at the states whose step-0 scaled
    # value is RATIONAL_U.  The rounding scale is the sum of |terms| of the
    # folded form the ops evaluate: |w_j| |Taylor coefficient about the
    # centre| times the powers (or moments) of |u - centre|.
    entry, coefficients = EXACT_PROBLEMS[name]
    basis = BasisSet(family, k, make_problem(entry), make_uniform_grid(1.0, 4))
    shift, scale = (Fraction(2), Fraction(1, 2)) if family == "hermite" else (0, Fraction(2))
    centre = Fraction(basis._centre)
    dt = Fraction(1, 4)
    rows = closed_form_rows(family, k)
    folded = shifted_rows(rows, k, centre)
    w = np.random.default_rng(k).standard_normal(k)
    wq = [Fraction(v) for v in w]

    x = np.array([float(shift + scale * Fraction(u)) for u in RATIONAL_U])
    slopes = basis.grad_dot(0, x, w)
    values, grads = basis.cond_exp_dot(0, x, w), basis.cond_exp_grad_dot(0, x, w)
    assert slopes.shape == values.shape == grads.shape == (x.size,)
    eps = np.finfo(float).eps
    for n, xf in enumerate(x):
        q = Fraction(xf)
        u = (q - shift) / scale
        slope = sum(wj * sum(d * c * u ** (d - 1) for d, c in enumerate(row) if d)
                    for wj, row in zip(wq, rows)) / scale
        dsize = sum(abs(wj) * sum(d * abs(c) * abs(u - centre) ** (d - 1)
                                  for d, c in enumerate(row) if d)
                    for wj, row in zip(wq, folded)) / scale
        assert abs(slopes[n] - float(slope)) <= 16 * eps * float(dsize)

        b, sigma, b_x, sigma_x = coefficients(q)
        m, s = (q + dt * b - shift) / scale, sigma * Fraction(1, 2) / scale
        dm, ds = (1 + dt * b_x) / scale, sigma_x * Fraction(1, 2) / scale
        mu, dmu = exact_moments(m, s, dm, ds, k - 1)
        bar, dbar = exact_moments(abs(m - centre), abs(s), abs(dm), abs(ds), k - 1)
        value = sum(wj * sum(c * mu[d] for d, c in enumerate(row)) for wj, row in zip(wq, rows))
        slope = sum(wj * sum(c * dmu[d] for d, c in enumerate(row)) for wj, row in zip(wq, rows))
        size = sum(abs(wj) * sum(abs(c) * bar[d] for d, c in enumerate(row))
                   for wj, row in zip(wq, folded))
        dsize = sum(abs(wj) * sum(abs(c) * dbar[d] for d, c in enumerate(row))
                    for wj, row in zip(wq, folded))
        assert abs(values[n] - float(value)) <= 16 * eps * float(size)
        assert abs(grads[n] - float(slope)) <= 16 * eps * float(dsize)


def all_ops(basis):
    """The seven operations as op(i, x); the ``*_dot`` ones for a fixed w."""
    w = np.array([0.5, -2.0, 1.25, 3.0, -0.75, 0.125])
    return {"eval": basis.eval, "grad": basis.grad, "cond_exp": basis.cond_exp,
            "cond_exp_grad": basis.cond_exp_grad,
            "grad_dot": lambda i, x: basis.grad_dot(i, x, w),
            "cond_exp_dot": lambda i, x: basis.cond_exp_dot(i, x, w),
            "cond_exp_grad_dot": lambda i, x: basis.cond_exp_grad_dot(i, x, w)}


@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
def test_one_state_agrees_bitwise_with_many(family):
    # Every op is elementwise in the states, so a state's result does not
    # depend on how many states are passed with it; a 0-d state is M = 1.
    entry, _ = EXACT_PROBLEMS["brownian"]
    grid = make_uniform_grid(1.0, 4)
    k = 6
    basis = BasisSet(family, k, make_problem(entry), grid)
    ops = all_ops(basis)
    x = np.array([2.0, -0.5, 0.25, 1.75, 3.5, -2.75, 5.0])
    for i in range(grid.n_steps):
        for name, op in ops.items():
            together = op(i, x)
            for n in range(x.size):
                np.testing.assert_array_equal(op(i, x[n:n + 1]), together[n:n + 1],
                                              err_msg=name)
            alone = op(i, x[0])
            assert alone.shape == ((1,) if name.endswith("_dot") else (1, k)), name
            np.testing.assert_array_equal(alone, together[:1], err_msg=name)


@pytest.mark.parametrize("family", ["laguerre", "hermite", "monomial"])
def test_blocks_of_states_agree_bitwise_with_slices(family):
    # The ops run over blocks of _BLOCK states; slices that straddle the
    # block boundaries give the same bits as the whole vector.
    problem = gbm_problem()
    ops = all_ops(BasisSet(family, 6, problem, GRID))
    m = 2 * _BLOCK + 3
    x = problem.initial_state * np.exp(np.random.default_rng(8).normal(0.0, 0.3, m))
    cuts = [0, 5, _BLOCK - 2, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1, m]
    for i in (0, 4):
        for name, op in ops.items():
            pieces = [op(i, x[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(op(i, x), np.concatenate(pieces), err_msg=name)


def test_combination_ops_reject_mismatched_weights():
    basis = BasisSet("laguerre", 4, gbm_problem(), GRID)
    with pytest.raises(ValueError):
        basis.grad_dot(0, 100.0, np.ones(3))
    with pytest.raises(IndexError):
        basis.cond_exp_dot(GRID.n_steps, 100.0, np.ones(4))
