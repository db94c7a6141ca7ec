import numpy as np
import pytest

from fbsde.basis import MAX_DEGREE, BasisSet
from fbsde.model import ProblemCatalogEntry, make_problem, make_uniform_grid
from fbsde.regress import _BLOCK_ROWS, FactoredDesign, _thin_qr, project
from fbsde.simulate import simulate_paths


def random_design(rng, m=50, k=4):
    return rng.standard_normal((m, k))


def test_recovers_coefficients_in_span():
    rng = np.random.default_rng(0)
    design = random_design(rng)
    c0 = np.array([1.0, -2.5, 0.25, 3.0])
    coeffs, cond, _ = project(design, design @ c0)
    np.testing.assert_allclose(coeffs, c0, rtol=1e-10)
    assert cond >= 1.0


def test_duplicate_columns_split_weight_equally():
    rng = np.random.default_rng(1)
    col = rng.standard_normal(60)
    other = rng.standard_normal(60)
    design = np.column_stack([col, col, other])
    target = 2.0 * col + 0.5 * other
    coeffs, cond, _ = project(design, target)
    # minimal-norm solution spreads the duplicate weight evenly
    assert coeffs[0] == pytest.approx(coeffs[1], rel=1e-10)
    assert coeffs[0] == pytest.approx(1.0, rel=1e-8)
    assert coeffs[2] == pytest.approx(0.5, rel=1e-8)
    assert cond > 1e10  # rank-deficient design is flagged via the condition


def test_matches_normal_equations_solve():
    rng = np.random.default_rng(2)
    design = random_design(rng, 50, 4)
    target = rng.standard_normal(50)
    coeffs, _, _ = project(design, target)
    brute = np.linalg.solve(design.T @ design, design.T @ target)
    np.testing.assert_allclose(coeffs, brute, rtol=1e-8)


def test_projection_idempotence():
    rng = np.random.default_rng(3)
    design = random_design(rng, 80, 5)
    target = rng.standard_normal(80)
    coeffs, _, _ = project(design, target)
    again, _, _ = project(design, design @ coeffs)
    np.testing.assert_allclose(again, coeffs, rtol=1e-10, atol=1e-12)


def test_residual_orthogonal_to_columns():
    rng = np.random.default_rng(4)
    design = random_design(rng, 100, 6)
    target = rng.standard_normal(100)
    coeffs, _, _ = project(design, target)
    residual = target - design @ coeffs
    bound = 1e-10 * np.linalg.norm(design) * np.linalg.norm(target)
    assert np.linalg.norm(design.T @ residual) <= bound


def test_fit_never_beats_plain_mean_backwards():
    # with a constant column in the basis, fitted MSE <= target variance
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    target = rng.standard_normal(200) + 3.0
    coeffs, _, _ = project(design, target)
    fitted_sse = np.sum((target - design @ coeffs) ** 2)
    centered_sse = np.sum((target - target.mean()) ** 2)
    assert fitted_sse <= centered_sse + 1e-12


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        project(random_design(rng, 50, 4), np.zeros(49))
    with pytest.raises(ValueError):
        project(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        project(random_design(rng, 50, 4), np.zeros((50, 2)))


def test_single_row_design_allowed():
    coeffs, cond, _ = project(np.array([[2.0, 1.0]]), np.array([4.0]))
    # minimal-norm underdetermined solution
    np.testing.assert_allclose(coeffs, [1.6, 0.8], rtol=1e-12)
    assert cond == 1.0


def test_ridge_shrinks_solution():
    rng = np.random.default_rng(7)
    design = random_design(rng, 40, 3)
    target = rng.standard_normal(40)
    plain, _, _ = project(design, target)
    shrunk, _, _ = project(design, target, ridge=1e3)
    assert np.linalg.norm(shrunk) < np.linalg.norm(plain)
    with pytest.raises(ValueError):
        project(design, target, ridge=-1.0)


@pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
def test_nonfinite_ridge_rejected(ridge):
    # a NaN ridge would fit without ridge rows; an infinite one fails in the SVD
    rng = np.random.default_rng(7)
    design = random_design(rng, 40, 3)
    with pytest.raises(ValueError, match="ridge"):
        FactoredDesign(design, ridge=ridge)
    with pytest.raises(ValueError, match="ridge"):
        project(design, rng.standard_normal(40), ridge=ridge)


def test_project_on_basis_design():
    problem = make_problem(ProblemCatalogEntry.with_defaults("call"))
    grid = make_uniform_grid(1.0, 4)
    basis = BasisSet("laguerre", 5, problem, grid)
    ens = simulate_paths(problem, grid, 300, seed=21)
    design = basis.eval(2, ens.states[:, 3])
    assert design.shape == (300, 5)
    coeffs, cond, _ = project(design, np.ones(300))
    assert np.isfinite(coeffs).all() and cond >= 1.0


def test_projects_factorisation_solves_like_a_fresh_project():
    # a further target on the returned factorisation, as the sweeps reuse it
    rng = np.random.default_rng(8)
    design = rng.standard_normal((2 * _BLOCK_ROWS + 7, 5))
    first, second = rng.standard_normal((2, design.shape[0]))
    for ridge in (0.0, 0.5):
        coeffs, cond, factored = project(design, first, ridge=ridge)
        fresh, fresh_cond, _ = project(design, second, ridge=ridge)
        np.testing.assert_array_equal(factored.solve(second), fresh)
        assert factored.condition == cond == fresh_cond


# ------------------------------------------------- one factorisation


def duplicated_column_design(rng):
    col = rng.standard_normal(300)
    return np.column_stack([col, rng.standard_normal(300), col])


def call_step4_design():
    # The later scheme's step-4 design on the shipped call problem:
    # s_min/s_max ~ 3e-12 falls below rcond = M * eps ~ 2.2e-11.
    problem = make_problem(ProblemCatalogEntry.with_defaults("call"))
    grid = make_uniform_grid(1.0, 10)
    basis = BasisSet("laguerre", 6, problem, grid)
    ens = simulate_paths(problem, grid, 100_000, seed=101)
    return basis.eval(4, ens.states[:, 5])


FACTOR_CASES = {
    # name: (design builder, ridge, condition rtol or None if rank deficient)
    "well_conditioned": (lambda rng: rng.standard_normal((500, 5)), 0.0, 1e-12),
    "duplicated_column": (duplicated_column_design, 0.0, None),
    "ridge": (lambda rng: rng.standard_normal((200, 4)), 0.5, 1e-12),
    # Two row blocks of unequal length, and three blocks with ridge rows;
    # call_step4 (M = 1e5) has six blocks.
    "two_ragged_blocks": (lambda rng: rng.standard_normal((2 * _BLOCK_ROWS + 7, 5)),
                          0.0, 1e-12),
    "ridge_three_blocks": (lambda rng: rng.standard_normal((3 * _BLOCK_ROWS + 1, 4)),
                           0.5, 1e-12),
    "call_step4": (lambda rng: call_step4_design(), 0.0, 1e-3),
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_factorisation_matches_lstsq_for_two_targets(case):
    build, ridge, cond_rtol = FACTOR_CASES[case]
    rng = np.random.default_rng(11)
    design = build(rng)
    rows, k = design.shape
    targets = np.column_stack([np.sin(design[:, 1]) + design[:, 0],
                               rng.standard_normal(rows)])
    # a copy in BasisSet.eval's layout, which the factorisation consumes
    fit = FactoredDesign(np.array(design, order="F"), ridge=ridge)
    first, second = fit.solve(targets[:, 0]), fit.solve(targets[:, 1])

    stacked, padded = design, targets
    if ridge > 0.0:
        stacked = np.vstack([design, np.sqrt(ridge) * np.eye(k)])
        padded = np.vstack([targets, np.zeros((k, 2))])
    eps = np.finfo(np.float64).eps
    rcond = stacked.shape[0] * eps
    sv = np.linalg.svd(stacked, compute_uv=False)
    kept = sv[sv > rcond * sv[0]]
    # rounding of a backward-stable solve, amplified by the condition of
    # the directions that are kept
    coef_rtol = 100 * eps * kept[0] / kept[-1]
    for got, target in zip((first, second), padded.T):
        want = np.linalg.lstsq(stacked, target, rcond=rcond)[0]
        assert np.max(np.abs(got - want)) <= coef_rtol * np.max(np.abs(want))

    if cond_rtol is None:
        # exactly rank deficient: flagged as singular or beyond 1/rcond
        assert fit.condition == np.inf or fit.condition > 1.0 / rcond
    else:
        assert fit.condition == pytest.approx(sv[0] / sv[-1], rel=cond_rtol)
    if case == "call_step4":
        assert sv[-1] / sv[0] < rcond  # the dropped direction is really dropped


# ------------------------------------------------- the LAPACK contract


class ReferenceFit:
    """FactoredDesign's block QR, rank rule and solve, with each block's QR
    taken by np.linalg.qr(mode="reduced"): the same bits are expected from
    in-place dgeqrf and dorgqr."""

    def __init__(self, design, ridge):
        a = np.asarray(design, dtype=np.float64)
        self.rows, k = a.shape
        n_blocks = max(1, self.rows // _BLOCK_ROWS)
        self.starts = [b * self.rows // n_blocks for b in range(n_blocks + 1)]
        factors = [np.linalg.qr(a[lo:hi], mode="reduced")
                   for lo, hi in zip(self.starts, self.starts[1:])]
        # Q^T stored row by row, as FactoredDesign keeps it
        self.qt = [np.ascontiguousarray(q.T) for q, _ in factors]
        self.r = [r for _, r in factors]
        r = np.vstack(self.r)
        stacked_rows = r.shape[0]
        solved_rows = self.rows
        if ridge > 0.0:
            r = np.vstack([r, np.sqrt(ridge) * np.eye(k)])
            solved_rows += k
        u, s, self.vt = np.linalg.svd(r, full_matrices=False)
        self.ut = u[:stacked_rows].T
        keep = s > solved_rows * np.finfo(np.float64).eps * s[0]
        self.inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        self.condition = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")

    def solve(self, target):
        blocks = zip(self.qt, self.starts, self.starts[1:])
        qt = np.concatenate([qt_b @ target[lo:hi] for qt_b, lo, hi in blocks])
        return self.vt.T @ ((self.ut @ qt) * self.inv_s)


K_MAX = MAX_DEGREE + 1  # 31

CONTRACT_CASES = {
    **{name: (build, ridge) for name, (build, ridge, _) in FACTOR_CASES.items()},
    # fewer rows than columns: a thin Q with fewer columns than the design
    "one_row": (lambda rng: rng.standard_normal((1, 5)), 0.0),
    "k_minus_one_rows": (lambda rng: rng.standard_normal((4, 5)), 0.0),
    "k_minus_one_rows_ridge": (lambda rng: rng.standard_normal((4, 5)), 0.5),
    # the smallest design with two blocks: each of exactly _BLOCK_ROWS
    "two_exact_blocks": (lambda rng: rng.standard_normal((2 * _BLOCK_ROWS, 6)), 0.0),
    # the largest k that BasisSet accepts, where the fixed k-word workspace
    # is tightest: one row, k rows, k + 1 rows and a full single block
    **{f"k_max_{rows}_rows": (lambda rng, rows=rows: rng.standard_normal((rows, K_MAX)), 0.0)
       for rows in (1, K_MAX, K_MAX + 1, 16_666)},
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_in_place_dgeqrf_matches_numpy_qr_bit_for_bit(case):
    build, ridge = CONTRACT_CASES[case]
    rng = np.random.default_rng(12)
    original = np.array(build(rng))
    rows = original.shape[0]
    targets = np.column_stack([np.cos(original[:, 0]), rng.standard_normal(rows)])
    reference = ReferenceFit(original, ridge)
    blocks = list(zip(reference.starts, reference.starts[1:], reference.qt, reference.r))
    # each block's Q^T and R, as np.linalg.qr returns them, with the block
    # alone (leading dimension hi - lo) and inside the whole (k, M) array
    # (leading dimension M)
    whole = original.T.copy()
    for lo, hi, qt, r in blocks:
        block = original[lo:hi].T.copy()
        np.testing.assert_array_equal(_thin_qr(block, 0, hi - lo), r)
        np.testing.assert_array_equal(block[:r.shape[0]], qt)
        np.testing.assert_array_equal(_thin_qr(whole, lo, hi), r)
        np.testing.assert_array_equal(whole[:r.shape[0], lo:hi], qt)
    want = [reference.solve(target) for target in targets.T]
    # BasisSet.eval's layout, a transposed C-contiguous (k, M) array, is
    # factored in place: each block's Q^T lands in design.T[:, lo:hi]
    design = original.T.copy().T
    fit = FactoredDesign(design, ridge=ridge)
    for lo, hi, qt, _ in blocks:
        np.testing.assert_array_equal(design.T[:qt.shape[0], lo:hi], qt)
    assert fit.condition == reference.condition
    for target, coefficients in zip(targets.T, want):
        np.testing.assert_array_equal(fit.solve(target), coefficients)
    # a C-ordered design, and a read-only column-major one, are copied and
    # come back unchanged, with the same bits; a single row is in eval's
    # layout as well, and consumed
    read_only = np.asfortranarray(original)
    read_only.setflags(write=False)
    for design in (original.copy(), read_only)[rows == 1:]:
        fit = FactoredDesign(design, ridge=ridge)
        np.testing.assert_array_equal(design, original)
        assert fit.condition == reference.condition
        for target, coefficients in zip(targets.T, want):
            np.testing.assert_array_equal(fit.solve(target), coefficients)


@pytest.mark.parametrize("rows", [500, 3 * _BLOCK_ROWS + 1])
def test_solve_never_writes_its_target(rows):
    # one block, and three; the fitted values read the target alike
    rng = np.random.default_rng(13)
    fit = FactoredDesign(rng.standard_normal((rows, 4)))
    for method in (fit.solve, fit.fitted):
        original = rng.standard_normal(rows)
        target = original.copy()
        target.setflags(write=False)
        got = method(target)
        np.testing.assert_array_equal(target, original)
        np.testing.assert_array_equal(got, method(original.copy()))


# ------------------------------------------------- fitted values from Q


@pytest.mark.parametrize("rows", [500, 3 * _BLOCK_ROWS + 1])
@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_fitted_values_match_design_times_coefficients(rows, ridge):
    # one block, and three; ridge rows change the fit but not the identity
    # A x = diag(Q) U_keep U_keep^T Q^T t
    rng = np.random.default_rng(14)
    design = rng.standard_normal((rows, 5))
    target = np.sin(design[:, 1]) + design[:, 0] + rng.standard_normal(rows)
    fit = FactoredDesign(design.copy(), ridge=ridge)
    want = design @ fit.solve(target)
    # rounding of two backward-stable routes on a well-conditioned design
    bound = 100 * np.finfo(np.float64).eps * np.max(np.abs(want))
    assert np.max(np.abs(fit.fitted(target) - want)) <= bound
    if ridge == 0.0:
        # a target in the span is its own fit
        in_span = design @ rng.standard_normal(5)
        bound = 100 * np.finfo(np.float64).eps * np.max(np.abs(in_span))
        assert np.max(np.abs(fit.fitted(in_span) - in_span)) <= bound


def test_fitted_values_drop_what_the_solve_drops():
    # rank deficient: the fit is still the projection onto the span
    rng = np.random.default_rng(15)
    design = duplicated_column_design(rng)
    fit = FactoredDesign(design.copy())
    target = rng.standard_normal(design.shape[0])
    want = design @ np.linalg.lstsq(design, target, rcond=None)[0]
    bound = 100 * np.finfo(np.float64).eps * np.max(np.abs(want))
    assert np.max(np.abs(fit.fitted(target) - want)) <= bound
