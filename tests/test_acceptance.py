"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
All randomness is pinned to the fixed seed set below, so outcomes are
reproducible bit-for-bit.
"""

import math
import time

import numpy as np
import pytest

from fbsde.basis import BasisSet, gaussian_moments
from fbsde.cli import main
from fbsde.model import ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.oracle import black_scholes, nested_mc_y0
from fbsde.regress import project
from fbsde.simulate import simulate_paths
from fbsde.solver import solve_regress_later, solve_regress_now

from discrete_limit import ARCTAN_N2_LATER_Y0, later_limit

SEEDS = tuple(range(101, 111))

CALL_TARGET_Y0, CALL_TARGET_Z0 = 1.3886, 1.39
PUT_TARGET_Y0, PUT_TARGET_Z0 = 0.39, -0.60

CALL_REF = black_scholes("call", 100.0, 100.0, 0.01, 0.02, 1.0)


def gaussian_poly_expectation(coeffs, mean, std):
    """E[p(mean + std*G)] for the monomial coefficients of p (ascending)."""
    mu = gaussian_moments(mean, std, len(coeffs) - 1)
    return np.tensordot(np.asarray(coeffs, dtype=np.float64), mu, axes=(0, 0))


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} — {detail}")
    assert ok, detail


def solve_catalog(name, family, M, N, seed, scheme="later"):
    problem = make_problem(ProblemCatalogEntry.with_defaults(name))
    grid = make_uniform_grid(problem.horizon, N)
    basis = BasisSet(family, 6, problem, grid)
    ensemble = simulate_paths(problem, grid, M, seed)
    solve = solve_regress_later if scheme == "later" else solve_regress_now
    return solve(problem, grid, basis, ensemble)


@pytest.fixture(scope="module")
def call_results():
    results, per_seed = [], []
    for seed in SEEDS:
        t0 = time.perf_counter()
        results.append(solve_catalog("call", "laguerre", 100_000, 10, seed))
        per_seed.append(time.perf_counter() - t0)
    return results, max(per_seed)


def test_criterion_1_call_pricing(call_results):
    results, worst_seed_time = call_results
    med_y = float(np.median([abs(r.y0 - CALL_TARGET_Y0) for r in results]))
    med_z = float(np.median([abs(r.z0 - CALL_TARGET_Z0) for r in results]))
    ok = med_y <= 0.05 and med_z <= 0.10 and worst_seed_time < 30.0
    report(1, ok,
           f"call pricing: median |y0-{CALL_TARGET_Y0}| = {med_y:.2e} (tol 0.05), "
           f"median |z0-{CALL_TARGET_Z0}| = {med_z:.2e} (tol 0.10), "
           f"worst seed runtime {worst_seed_time:.1f}s (< 30s)")


def test_criterion_2_put_pricing():
    results = [solve_catalog("put", "laguerre", 100_000, 10, seed) for seed in SEEDS]
    med_y = float(np.median([abs(r.y0 - PUT_TARGET_Y0) for r in results]))
    med_z = float(np.median([abs(r.z0 - PUT_TARGET_Z0) for r in results]))
    ok = med_y <= 0.05 and med_z <= 0.10
    report(2, ok,
           f"put pricing: median |y0-{PUT_TARGET_Y0}| = {med_y:.2e} (tol 0.05), "
           f"median |z0-({PUT_TARGET_Z0})| = {med_z:.2e} (tol 0.10)")


def test_criterion_3_arctan():
    results = [solve_catalog("arctan", "hermite", 100_000, 10, seed) for seed in SEEDS]
    med_y = float(np.median([abs(r.y0) for r in results]))
    med_z = float(np.median([abs(r.z0) for r in results]))
    ok = med_y <= 0.02 and med_z <= 0.05
    report(3, ok,
           f"arctan: median |y0| = {med_y:.2e} (tol 0.02), "
           f"median |z0| = {med_z:.2e} (tol 0.05)")


def test_criterion_4_m_convergence(call_results):
    results_hi, _ = call_results
    med_hi = float(np.median([abs(r.y0 - CALL_REF.y0_ref) for r in results_hi]))
    results_lo = [solve_catalog("call", "laguerre", 1000, 10, seed) for seed in SEEDS]
    med_lo = float(np.median([abs(r.y0 - CALL_REF.y0_ref) for r in results_lo]))
    ok = med_hi < med_lo
    report(4, ok,
           f"M-convergence: median error {med_lo:.2e} at M=1e3 "
           f"-> {med_hi:.2e} at M=1e5 (strictly smaller)")


def test_criterion_5_n_scaling():
    medians = []
    for n_steps in (2, 4, 8):
        errs = [abs(solve_catalog("call", "laguerre", 100_000, n_steps, seed).y0
                    - CALL_REF.y0_ref) for seed in SEEDS]
        medians.append(float(np.median(errs)))
    ok = medians[0] >= medians[1] >= medians[2]
    report(5, ok,
           "N-scaling: median errors " +
           " >= ".join(f"{m:.2e}" for m in medians) + " across N in {2, 4, 8}")


def test_criterion_6_exactness_suite():
    t0 = time.perf_counter()
    checks = []

    # zero-driver linear problem: (y0, z0) = (0, 1) by regress-later
    problem = make_problem(ProblemCatalogEntry.with_defaults("custom"))
    grid = make_uniform_grid(1.0, 10)
    basis = BasisSet("hermite", 4, problem, grid)
    ens = simulate_paths(problem, grid, 2000, seed=17)
    res = solve_regress_later(problem, grid, basis, ens)
    checks.append(abs(res.y0) <= 1e-9 and abs(res.z0 - 1.0) <= 1e-9)

    # space-time Hermite martingales through one Brownian Euler step, 1e-12
    def st_hermite(n, t):
        rows = [np.array([1.0]), np.array([0.0, 1.0])]
        for m in range(1, n):
            rows.append(np.concatenate([[0.0], rows[m]])
                        - m * t * np.concatenate([rows[m - 1], [0.0, 0.0]]))
        return rows[n]

    martingale_ok = True
    for i in (0, 5):
        dt = grid.deltas[i]
        for n in range(1, 7):
            for x in (-1.1, 0.0, 1.8):
                got = float(gaussian_poly_expectation(
                    st_hermite(n, grid.times[i + 1]), x, math.sqrt(dt)))
                want = float(np.polynomial.polynomial.polyval(
                    x, st_hermite(n, grid.times[i])))
                martingale_ok &= abs(got - want) <= 1e-12
    checks.append(martingale_ok)

    # put-call parity to 1e-12
    call = black_scholes("call", 100, 100, 0.01, 0.02, 1.0)
    put = black_scholes("put", 100, 100, 0.01, 0.02, 1.0)
    checks.append(abs((call.y0_ref - put.y0_ref)
                      - (100 - 100 * math.exp(-0.01))) <= 1e-12)

    # projection recovers in-span coefficients to 1e-10
    rng = np.random.default_rng(77)
    design = rng.standard_normal((200, 5))
    c0 = rng.standard_normal(5)
    coeffs, _, _ = project(design, design @ c0)
    checks.append(float(np.max(np.abs(coeffs - c0))) <= 1e-10 * max(1.0, float(np.max(np.abs(c0)))))

    # basis gradient and conditional-expectation gradient vs central
    # differences, 1e-6 relative
    pricing = make_problem(ProblemCatalogEntry.with_defaults("call"))
    grad_ok = True
    for family in ("laguerre", "hermite", "monomial"):
        b = BasisSet(family, 6, pricing, grid)
        x, h = 103.0, 1e-3
        fd = (b.eval(4, x + h) - b.eval(4, x - h)) / (2 * h)
        grad_ok &= bool(np.all(np.abs(b.grad(4, x) - fd)
                               <= 1e-6 * np.maximum(np.abs(fd), 1e-9)))
        f = lambda v: b.cond_exp(4, v)
        fd_ce = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        grad_ok &= bool(np.all(np.abs(b.cond_exp_grad(4, x) - fd_ce)
                               <= 1e-6 * np.maximum(np.abs(fd_ce), 1e-9)))
    checks.append(grad_ok)

    elapsed = time.perf_counter() - t0
    labels = ("zero-driver (0,1)", "hermite martingale 1e-12", "parity 1e-12",
              "in-span projection 1e-10", "gradients vs FD 1e-6")
    detail = ", ".join(f"{lbl}: {'ok' if c else 'FAILED'}"
                       for lbl, c in zip(labels, checks))
    ok = all(checks) and elapsed < 5.0
    report(6, ok, f"exactness suite ({elapsed:.2f}s < 5s): {detail}")


def test_criterion_7_nested_mc_cross_check():
    t0 = time.perf_counter()
    problem = make_problem(ProblemCatalogEntry.with_defaults("call"))
    grid = make_uniform_grid(1.0, 2)
    nested = nested_mc_y0(problem, grid, outer=2000, inner=2000, seed=424242)
    basis = BasisSet("laguerre", 6, problem, grid)
    values = []
    for seed in SEEDS[:5]:
        ens = simulate_paths(problem, grid, 100_000, seed)
        values.append(solve_regress_later(problem, grid, basis, ens).y0)
    later_mean = float(np.mean(values))
    later_se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    combined = math.hypot(nested.standard_error, later_se)
    gap = abs(later_mean - nested.y0)
    elapsed = time.perf_counter() - t0
    ok = gap <= 4 * combined and elapsed < 60.0
    report(7, ok,
           f"nested MC cross-check at N=2: |{later_mean:.4f} - {nested.y0:.4f}| "
           f"= {gap:.2e} <= 4 x {combined:.2e} ({elapsed:.1f}s < 60s)")


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    # The simulation chunk and the basis block split the work but, by the
    # randomness contract, change no bit; the regression's row blocks are
    # not varied, since their near-equal split moves bits by design.
    cfg = tmp_path / "det.cfg"
    cfg.write_text("problem = call\nscheme = both\npaths = 20000\nsteps = 5\n"
                   "k = 6\nfamily = laguerre\nseed = 21,22\n")
    outputs = []
    for label, chunk, block in (("a", None, None), ("b", None, None),
                                ("c", 1000, 777), ("d", 1000, 1234)):
        if chunk is not None:
            monkeypatch.setattr("fbsde.simulate._CHUNK", chunk)
            monkeypatch.setattr("fbsde.basis._BLOCK", block)
        out = tmp_path / f"{label}.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = all(blob == outputs[0] for blob in outputs[1:])
    report(8, ok,
           f"CLI determinism: {len(outputs)} runs (two at the shipped sizes, two "
           f"with simulation chunk 1000 and basis blocks 777, 1234) produced "
           f"byte-identical CSVs: {ok}")


def test_criterion_9_scheme_z_comparison():
    problem = make_problem(ProblemCatalogEntry.with_defaults("custom"))
    grid = make_uniform_grid(1.0, 10)
    basis = BasisSet("hermite", 6, problem, grid)
    wins = 0
    for seed in SEEDS:
        ens = simulate_paths(problem, grid, 10_000, seed)
        later = solve_regress_later(problem, grid, basis, ens)
        now = solve_regress_now(problem, grid, basis, ens)
        if abs(later.z0 - 1.0) <= abs(now.z0 - 1.0):
            wins += 1
    ok = wins >= 8
    report(9, ok,
           f"scheme comparison: later-scheme z0 error <= now-scheme in "
           f"{wins}/10 paired seeds (need >= 8)")


# ------------------------------------------- where the error lives
# With mu = r the pricing drivers are -r*y, linear in y alone.  Then the
# later scheme's target is the Euler scheme's own price, and the now y0 is
# a plain Monte Carlo price of the same paths.


def euler_discrete_reference(name, n_steps, paths=2_000_000, seed=2024, chunk=200_000):
    """(y0, y0 SE, z0, z0 SE) of the catalog pricing problem with n_steps
    Euler steps and the explicit discount (1 - r dt) per step, the values the
    later scheme converges to: (1 - r dt)^N E[phi(X_N)] and its S0-sensitivity
    times sigma S0.  Each is the closed form plus a paired Monte Carlo
    estimate of the Euler-minus-exact difference, on normals of its own."""
    p = ProblemCatalogEntry.with_defaults(name).parameters
    S0, K, r, sigma, T = (float(p[key]) for key in ("S0", "K", "r", "sigma", "T"))
    assert p["mu"] == p["r"]
    dt, sign = T / n_steps, 1.0 if name == "call" else -1.0
    rng = np.random.default_rng(seed)
    dy, dz = [], []
    for a in range(0, paths, chunk):
        g = rng.standard_normal((n_steps, min(chunk, paths - a)))
        ends = (S0 * np.prod(1.0 + r * dt + sigma * math.sqrt(dt) * g, axis=0),
                S0 * np.exp((r - 0.5 * sigma**2) * T + sigma * math.sqrt(dt) * g.sum(axis=0)))
        discounts = ((1.0 - r * dt) ** n_steps, math.exp(-r * T))
        # payoff, and S0 times its S0-derivative: both paths are S0 * (a factor)
        pay = [d * np.maximum(sign * (s - K), 0.0) for d, s in zip(discounts, ends)]
        delta = [d * sign * (sign * (s - K) > 0.0) * s for d, s in zip(discounts, ends)]
        dy.append(pay[0] - pay[1])
        dz.append(sigma * (delta[0] - delta[1]))
    exact = black_scholes(name, S0, K, r, sigma, T)
    dy, dz = np.concatenate(dy), np.concatenate(dz)
    se = lambda v: float(v.std(ddof=1) / math.sqrt(v.size))
    return exact.y0_ref + float(dy.mean()), se(dy), exact.z0_ref + float(dz.mean()), se(dz)


@pytest.fixture(scope="module")
def now_pricing():
    """Per pricing problem and acceptance seed: the now y0 and the discounted
    mean payoff (1 + r dt)^-N mean phi(X_N) of the same paths."""
    out = {}
    for name in ("call", "put"):
        problem = make_problem(ProblemCatalogEntry.with_defaults(name))
        grid = make_uniform_grid(problem.horizon, 10)
        basis = BasisSet("laguerre", 6, problem, grid)
        r = float(ProblemCatalogEntry.with_defaults(name).parameters["r"])
        discount = float(np.prod(1.0 / (1.0 + r * grid.deltas)))
        rows = []
        for seed in SEEDS:
            ens = simulate_paths(problem, grid, 100_000, seed)
            payoff = float(np.mean(problem.terminal(ens.states[:, -1])))
            rows.append((solve_regress_now(problem, grid, basis, ens).y0, discount * payoff))
        out[name] = np.array(rows)
    return out


def test_later_mean_is_within_4_se_of_the_euler_discrete_reference(call_results):
    # the later scheme's error is its time discretisation: the discrete
    # reference sits ~7e-4 below the closed form in y0, and a y0 defect of
    # about 1e-3 would show here although the criteria pass it
    results, _ = call_results
    y_ref, y_ref_se, z_ref, z_ref_se = euler_discrete_reference("call", 10)
    for values, ref, ref_se in (([r.y0 for r in results], y_ref, y_ref_se),
                                ([r.z0 for r in results], z_ref, z_ref_se)):
        se = math.hypot(np.std(values, ddof=1) / math.sqrt(len(values)), ref_se)
        assert abs(np.mean(values) - ref) <= 4 * se, (np.mean(values), ref, se)


# The discrete limit's two resolutions, (Chebyshev nodes, quadrature points),
# and the bound within which they agree: twice the largest gap measured
# between them, 4.7e-8 on arctan at N = 2, whose payoff has complex
# singularities at +-i (the call's gaps were 2e-12 and 3.5e-10).
RESOLUTIONS = ((150, 40), (250, 60))
LIMIT_TOL = 1e-7

# theta = (mu - r) / sigma = 0.2: the call's driver reads z
THETA_CALL = {"mu": 0.05, "sigma": 0.2}


def discrete_limits(name, n_steps, **overrides):
    """The later scheme's discrete limit at each of RESOLUTIONS."""
    entry = ProblemCatalogEntry.with_defaults(name, **overrides)
    problem = make_problem(entry)
    grid = make_uniform_grid(problem.horizon, n_steps)
    kink = entry.parameters["K"] if name in ("call", "put") else None
    return [later_limit(problem, grid, kink, *resolution) for resolution in RESOLUTIONS]


@pytest.fixture(scope="module")
def call_limits():
    return {"call": discrete_limits("call", 10),
            "theta": discrete_limits("call", 10, **THETA_CALL)}


def test_discrete_limit_agrees_across_resolutions(call_limits):
    for coarse, fine in (*call_limits.values(), discrete_limits("arctan", 2)):
        assert abs(coarse - fine) <= LIMIT_TOL, (coarse, fine)


def test_discrete_limit_matches_the_gauss_hermite_tree():
    # two independent quadratures of one recursion: the grid, and the tree
    # that holds the nested oracle to the later rule
    assert abs(discrete_limits("arctan", 2)[-1] - ARCTAN_N2_LATER_Y0) <= LIMIT_TOL


def test_later_mean_is_within_4_se_of_the_discrete_limit(call_results, call_limits):
    # the shipped call, laguerre k = 6 (+1.25 SE when this test was written)
    values = [r.y0 for r in call_results[0]]
    se = np.std(values, ddof=1) / math.sqrt(len(values))
    assert abs(np.mean(values) - call_limits["call"][-1]) <= 4 * se


def test_later_mean_is_within_4_se_of_the_discrete_limit_where_z_drives_y(call_limits):
    # mu = 0.05, sigma = 0.2, hermite k = 6 (+1.89 SE when this test was
    # written), where no closed form gives the discrete scheme's value
    problem = make_problem(ProblemCatalogEntry.with_defaults("call", **THETA_CALL))
    grid = make_uniform_grid(problem.horizon, 10)
    basis = BasisSet("hermite", 6, problem, grid)
    values = [solve_regress_later(problem, grid, basis,
                                  simulate_paths(problem, grid, 100_000, seed)).y0
              for seed in SEEDS]
    se = np.std(values, ddof=1) / math.sqrt(len(values))
    assert abs(np.mean(values) - call_limits["theta"][-1]) <= 4 * se, (np.mean(values), se)


@pytest.mark.parametrize("name", ["call", "put"])
def test_now_y0_is_the_discounted_mean_payoff(now_pricing, name):
    # a fit with the constant in its span keeps the mean, and the implicit
    # step divides it by 1 + r dt
    now_y0, discounted = now_pricing[name].T
    assert np.all(np.abs(now_y0 - discounted) <= 1e-11 * np.abs(discounted))


def test_later_y0_spreads_at_most_a_quarter_of_the_now_y0_over_seeds(call_results,
                                                                     now_pricing):
    # regress-later's variance claim, on the same paths
    later_sd = np.std([r.y0 for r in call_results[0]], ddof=1)
    now_sd = np.std(now_pricing["call"][:, 0], ddof=1)
    assert now_sd >= 4 * later_sd, (now_sd, later_sd)
