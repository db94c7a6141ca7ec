import numpy as np
import pytest

from fbsde.basis import BasisSet
from fbsde.model import ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.regress import project
from fbsde.simulate import simulate_paths


def random_design(rng, m=50, k=4):
    return rng.standard_normal((m, k))


def test_recovers_coefficients_in_span():
    rng = np.random.default_rng(0)
    design = random_design(rng)
    c0 = np.array([1.0, -2.5, 0.25, 3.0])
    coeffs, cond = project(design, design @ c0)
    np.testing.assert_allclose(coeffs, c0, rtol=1e-10)
    assert cond >= 1.0


def test_duplicate_columns_split_weight_equally():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(60)
    other = rng.standard_normal(60)
    design = np.column_stack([col, col, other])
    target = 2.0 * col + 0.5 * other
    coeffs, cond = project(design, target)
    # minimal-norm solution spreads the duplicate weight evenly
    assert coeffs[0] == pytest.approx(coeffs[1], rel=1e-10)
    assert coeffs[0] == pytest.approx(1.0, rel=1e-8)
    assert coeffs[2] == pytest.approx(0.5, rel=1e-8)
    assert cond > 1e10  # rank-deficient design is flagged via the condition


def test_matches_normal_equations_solve():
    rng = np.random.default_rng(2)
    design = random_design(rng, 50, 4)
    target = rng.standard_normal(50)
    coeffs, _ = project(design, target)
    brute = np.linalg.solve(design.T @ design, design.T @ target)
    np.testing.assert_allclose(coeffs, brute, rtol=1e-8)


def test_projection_idempotence():
    rng = np.random.default_rng(3)
    design = random_design(rng, 80, 5)
    target = rng.standard_normal(80)
    coeffs, _ = project(design, target)
    again, _ = project(design, design @ coeffs)
    np.testing.assert_allclose(again, coeffs, rtol=1e-10, atol=1e-12)


def test_residual_orthogonal_to_columns():
    rng = np.random.default_rng(4)
    design = random_design(rng, 100, 6)
    target = rng.standard_normal(100)
    coeffs, _ = project(design, target)
    residual = target - design @ coeffs
    bound = 1e-10 * np.linalg.norm(design) * np.linalg.norm(target)
    assert np.linalg.norm(design.T @ residual) <= bound


def test_fit_never_beats_plain_mean_backwards():
    # with a constant column in the basis, fitted MSE <= target variance
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    target = rng.standard_normal(200) + 3.0
    coeffs, _ = project(design, target)
    fitted_sse = np.sum((target - design @ coeffs) ** 2)
    centered_sse = np.sum((target - target.mean()) ** 2)
    assert fitted_sse <= centered_sse + 1e-12


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        project(random_design(rng, 50, 4), np.zeros(49))
    with pytest.raises(ValueError):
        project(np.zeros(5), np.zeros(5))


def test_single_row_design_allowed():
    coeffs, cond = project(np.array([[2.0, 1.0]]), np.array([4.0]))
    # minimal-norm underdetermined solution
    np.testing.assert_allclose(coeffs, [1.6, 0.8], rtol=1e-12)
    assert cond == 1.0


def test_ridge_shrinks_solution():
    rng = np.random.default_rng(7)
    design = random_design(rng, 40, 3)
    target = rng.standard_normal(40)
    plain, _ = project(design, target)
    shrunk, _ = project(design, target, ridge=1e3)
    assert np.linalg.norm(shrunk) < np.linalg.norm(plain)
    with pytest.raises(ValueError):
        project(design, target, ridge=-1.0)


def test_project_on_basis_design():
    problem = make_problem(ProblemCatalogEntry.with_defaults("call"))
    grid = make_uniform_grid(1.0, 4)
    basis = BasisSet("laguerre", 5, problem, grid)
    ens = simulate_paths(problem, grid, 300, seed=21)
    design = basis.eval(2, ens.states[:, 3])
    assert design.shape == (300, 5)
    coeffs, cond = project(design, np.ones(300))
    assert np.isfinite(coeffs).all() and cond >= 1.0
