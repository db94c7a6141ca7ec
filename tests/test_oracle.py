import math
import tracemalloc

import numpy as np
import pytest

from fbsde import oracle
from fbsde.basis import BasisSet
from fbsde.model import ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.oracle import (arctan_solution, black_scholes, nested_mc_y0,
                          norm_cdf, reference_for)
from fbsde.simulate import NumericalError, counter_normals, simulate_paths
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


def test_nested_mc_cross_checks_regress_later_on_arctan():
    # the nested-check benchmark's shape, scaled down: hermite k = 6 at
    # N = 2, each path seed judged by its 4-standard-error rule, with the
    # later SE the spread of the exact Y(t_1) over the simulated states
    problem = make_problem(ProblemCatalogEntry.with_defaults("arctan"))
    grid = make_uniform_grid(1.0, 2)
    nested = nested_mc_y0(problem, grid, outer=2000, inner=1000, seed=1101)
    basis = BasisSet("hermite", 6, problem, grid)
    for seed in (101, 102, 103, 104, 105):
        ens = simulate_paths(problem, grid, 100_000, seed)
        later = solve_regress_later(problem, grid, basis, ens)
        y1, _ = arctan_solution(grid.times[1], ens.states[:, 1])
        later_se = float(np.std(y1, ddof=1)) / math.sqrt(y1.size)
        combined = math.hypot(nested.standard_error, later_se)
        assert abs(later.y0 - nested.y0) <= 4 * combined


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


def _nested_arctan(N, outer, inner, seed):
    problem = make_problem(ProblemCatalogEntry.with_defaults("arctan"))
    return nested_mc_y0(problem, make_uniform_grid(1.0, N), outer, inner, seed)


def _whole_tree(problem, grid, outer, inner, seed):
    """The nested estimate from its definition, one whole level at a time.
    The root's children take entries 0..outer-1 of stream 0x6E657374 and
    form groups of G = min(8, outer // 2).  Level i + 1 (i >= 0) reads a
    table of C*W rows of h = ceil(inner/2) entries of stream
    0x6E657374 + i + 1, C = ceil(outer/G) and W = inner^i; the node at
    place c of root child r's subtree takes row (r // G)*W + c.  Its
    children sit at m + s*xi and then m - s*xi for the first inner - h
    draws, m and s the Euler mean and standard deviation, and its z pairs
    each draw with its two children (an unpaired last draw has only one).
    The SE runs over the C group totals of the root summands."""
    N, times, deltas = grid.n_steps, grid.times, grid.deltas
    half = (inner + 1) // 2
    group = min(8, outer // 2)
    groups = -(-outer // group)

    def level(i, x, xi, fan):
        # (summands, values) of the children of the nodes x (a column)
        dt = deltas[i]
        mean = x + dt * problem.drift(times[i], x)
        sd = problem.diffusion(times[i], x) * math.sqrt(dt)
        kids = np.concatenate((mean + sd * xi, mean - sd * xi[:, :fan - xi.shape[1]]), axis=1)
        if i + 1 == N:
            v = problem.terminal(kids)
            z = problem.diffusion(times[N], kids) * problem.terminal_gradient(kids)
        else:
            width = inner ** i
            table = counter_normals(seed, 0x6E657374 + i + 1, 0, groups * width * half)
            root_child, place = np.divmod(np.arange(kids.size), width)
            child_xi = table.reshape(-1, half)[root_child // group * width + place]
            s, w = level(i + 1, kids.reshape(-1, 1), child_xi, inner)
            partner = np.pad(w[:, half:], ((0, 0), (0, inner % 2)))  # 0 for an unpaired draw
            v = s.mean(axis=1).reshape(kids.shape)
            z = (child_xi * (w[:, :half] - partner)).sum(axis=1).reshape(kids.shape)
            z /= inner * math.sqrt(deltas[i + 1])
        return v + dt * problem.driver(times[i + 1], kids, v, z), v

    root = np.full((1, 1), problem.initial_state)
    summands = level(0, root, counter_normals(seed, 0x6E657374, 0, outer)[None], outer)[0][0]
    y0 = summands.mean()
    totals = np.array([np.cumsum(summands[a:a + group] - y0)[-1]
                       for a in range(0, outer, group)])
    return y0, math.sqrt(groups / (groups - 1) * (totals * totals).sum()) / outer


def test_nested_mc_matches_pinned_values():
    # float.hex of _whole_tree, pinned so that a change to either the
    # estimator or the reference shows; inner = 41 and 7 leave one draw
    # unpaired, and outer = 9 makes groups of 4 with a short last one
    problem = make_problem(ProblemCatalogEntry.with_defaults("arctan"))
    for N, outer, inner, seed, pinned in [
        (2, 500, 50, 9, ("0x1.579f09e53969ap-5", "0x1.1f3a5b693eba7p-6")),
        (3, 37, 41, 5, ("0x1.5495e7ec83f41p-6", "0x1.cfbb637b3655ap-5")),
        (4, 9, 7, 2, ("-0x1.404daad812b42p-7", "0x1.6e251e813825bp-6")),
    ]:
        grid = make_uniform_grid(1.0, N)
        ref_y0, ref_se = _whole_tree(problem, grid, outer, inner, seed)
        assert (ref_y0.hex(), ref_se.hex()) == pinned
        est = nested_mc_y0(problem, grid, outer, inner, seed)
        assert (est.y0.hex(), est.standard_error.hex()) == pinned


@pytest.mark.parametrize("N, outer, inner", [(2, 30, 8), (2, 30, 7), (3, 6, 8), (3, 6, 7),
                                             (3, 37, 41)])
def test_nested_mc_draws_once_per_group_key(monkeypatch, N, outer, inner):
    # the root draws one word per child; below it each node of the C group
    # trees draws ceil(inner/2) words once whenever a slab holds the rows of
    # all G members.  A slab of 100 holds 2 of 37 x 41's 8 members, so each
    # chunk of members draws the keys once: words = outer + 4 * keys * h
    drawn = []

    def counting(seed, stream, start, stop, width=None):
        drawn.append(stop - start)
        return counter_normals(seed, stream, start, stop, width)

    monkeypatch.setattr("fbsde.oracle.counter_normals", counting)
    groups = -(-outer // min(8, outer // 2))
    keys = sum(groups * inner ** (level - 1) for level in range(1, N))
    for slab in (oracle._SLAB_LEAVES, 100):
        monkeypatch.setattr("fbsde.oracle._SLAB_LEAVES", slab)
        drawn.clear()
        _nested_arctan(N, outer, inner, 5)
        chunks = 4 if (inner, slab) == (41, 100) else 1
        assert sum(drawn) == outer + chunks * keys * ((inner + 1) // 2), slab


def test_nested_mc_pairs_cancel_an_odd_payoff():
    # phi(x) = x with zero drift and driver: with an even inner every
    # level-1 node's children pair off around it, so each level-1 mean is the
    # node's state up to rounding, y0 the mean of the root children's, and
    # the SE the group-total formula on them: 300 = 37 groups of 8 and one of 4
    problem = make_problem(ProblemCatalogEntry.with_defaults("custom"))
    grid = make_uniform_grid(1.0, 2)
    outer, seed = 300, 7
    est = nested_mc_y0(problem, grid, outer=outer, inner=64, seed=seed)
    states = counter_normals(seed, 0x6E657374, 0, outer) * math.sqrt(grid.deltas[0])
    assert est.y0 == pytest.approx(states.mean(), rel=0, abs=1e-14)
    totals = [(states[a:a + 8] - states.mean()).sum() for a in range(0, outer, 8)]
    se = math.sqrt(len(totals) / (len(totals) - 1) * sum(t * t for t in totals)) / outer
    assert est.standard_error == pytest.approx(se, rel=1e-12)
    assert est.standard_error != pytest.approx(
        states.std(ddof=1) / math.sqrt(outer), rel=1e-3)


def test_nested_mc_standard_error_is_honest():
    # At inner = 20 the draws a group shares move its subtrees' means
    # together.  Over 200 seeds the spread of y0 must match the RMS SE:
    # 199 s^2 / SE^2 lies within the two-sided 0.1 % chi-square bounds of
    # 199 degrees of freedom (Wilson-Hilferty).  The i.i.d. formula on the
    # same draws read s^2 / SE^2 = 2.14; the group-total one reads 1.18.
    problem = make_problem(ProblemCatalogEntry.with_defaults("arctan"))
    grid = make_uniform_grid(1.0, 2)
    runs = [nested_mc_y0(problem, grid, outer=400, inner=20, seed=seed)
            for seed in range(1, 201)]
    y0 = np.array([run.y0 for run in runs])
    mean_square_se = np.mean([run.standard_error ** 2 for run in runs])
    df = y0.size - 1
    lower, upper = (df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
                    for z in (-3.29, 3.29))
    assert lower <= df * y0.var(ddof=1) / mean_square_se <= upper


@pytest.mark.parametrize("N, outer, inner", [(1, 37, 41), (2, 37, 41), (3, 37, 41),
                                             (4, 9, 7), (2, 150, 33)])
def test_nested_mc_independent_of_slab_size(monkeypatch, N, outer, inner):
    # the slab size bounds temporaries only: every draw is addressed by its
    # flat index in the level's stream and every mean runs over one row
    base = _nested_arctan(N, outer, inner, 5)
    for slab in (1, 7, 1000, 10**9):
        monkeypatch.setattr("fbsde.oracle._SLAB_LEAVES", slab)
        assert _nested_arctan(N, outer, inner, 5) == base


@pytest.mark.parametrize("name, outer, inner", [("call", 2000, 2000), ("arctan", 16, 100_000)])
def test_nested_mc_memory_is_bounded_by_the_slab(name, outer, inner):
    # 4M leaves, where the whole-tree evaluation peaked at 183 MiB, and 1.6M
    # leaves under 2 groups of 8 members with inner > _SLAB_LEAVES / 8,
    # where slabs of whole groups peaked at 52 MiB
    problem = make_problem(ProblemCatalogEntry.with_defaults(name))
    grid = make_uniform_grid(1.0, 2)
    tracemalloc.start()
    try:
        nested_mc_y0(problem, grid, outer=outer, inner=inner, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("name, parameter, value", [("call", "sigma", 1e200),
                                                     ("custom", "s0", 1e300)])
def test_nested_mc_overflow_raises_numerical_error(name, parameter, value):
    # the package's numerical-failure contract: an overflow fails the
    # estimate at once, names the operation, and never warns
    problem = make_problem(ProblemCatalogEntry.with_defaults(name, **{parameter: value}))
    with pytest.raises(NumericalError, match="overflow"):
        nested_mc_y0(problem, make_uniform_grid(1.0, 2), outer=20, inner=10, seed=1)
