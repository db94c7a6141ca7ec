"""Empirical least-squares projections onto the basis span.

A design is factored once and then solved against as many targets as
needed.  The M rows are split into max(1, M // _BLOCK_ROWS) near-equal row
blocks, and each block A_b gets a thin QR, A_b = Q_b R_b, while it sits in
cache.  Then A = diag(Q_1, ..., Q_n) [R_1; ...; R_n] with orthonormal
columns on the left, so A and the stacked R factors share their singular
values and right singular vectors: one singular-value decomposition of the
stacked R gives the minimal-norm solution, for rank-deficient designs too.

A design in ``BasisSet.eval``'s layout, the transpose of a C-contiguous
(k, M) float64 array, is consumed; any other is first copied into it.
LAPACK ``dgeqrf`` factors each block in place, with leading dimension M,
and ``dorgqr`` overwrites it with its thin Q, so Q_b^T ends up in
``design.T[:, lo:hi]``, both through numpy's private ``numpy.linalg.lapack_lite``
in k words of workspace.  Below LAPACK's crossover to blocked code (128 columns
in reference LAPACK) they run unblocked in at most k words and leave exactly the
Q and R of ``numpy.linalg.qr(mode="reduced")``, as tests/test_regress.py pins
for k <= 31; past it, so few words keep them unblocked: a valid QR, not numpy's.

A solve is one product Q_b^T t_b per block, concatenated and carried
through the SVD factors; the fitted values A x need neither x nor A, and
the target is only read.  No normal equations are formed, so the
conditioning of the solve is that of the design itself.  Singular values
at or below rows * eps * s_max are treated as zero; rank deficiency is
surfaced through the reported condition estimate rather than as an error.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import lapack_lite

__all__ = ["FactoredDesign", "project"]

# Rows per block: a (16 384, k) float64 block (768 KiB at k = 6) stays in L2
# while LAPACK factors it.  Blocks hold at least this many rows, so every
# design with M < 2 * _BLOCK_ROWS is one block.
_BLOCK_ROWS = 16_384


def _thin_qr(h: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Thin QR of rows lo:hi of the C-contiguous (k, M) float64 ``h``, LAPACK's
    column-major M x k matrix, in place: returns the n x k triangular
    factor, n = min(k, hi - lo), and leaves Q^T in ``h[:n, lo:hi]``.  Each
    routine needs max(1, columns) words of workspace; with k words it runs
    unblocked for any k, and unblocked it uses no more."""
    k, lda = h.shape
    rows, n = hi - lo, min(k, hi - lo)
    block = h.reshape(-1)[lo:]  # from the block's first entry; C-contiguous for lapack_lite
    tau, work = np.empty(n), np.empty(max(1, k))
    info = lapack_lite.dgeqrf(rows, k, block, lda, tau, work, work.size, 0)["info"]
    r = np.triu(h[:, lo:hi].T[:n])
    if info == 0:
        info = lapack_lite.dorgqr(rows, n, n, block, lda, tau, work, work.size, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"QR of rows {lo}:{hi} failed with info = {info}")
    return r


class FactoredDesign:
    """Least-squares factorisation of one design, solvable for several
    targets.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states; ``ridge``, finite and nonnegative, adds Tikhonov
    rows sqrt(ridge)*I.  A float64 design whose transpose is C-contiguous
    and writable, as ``eval`` returns it, is consumed and holds each block's
    Q^T in ``design.T[:, lo:hi]``; any other is copied once and never written.
    ``condition`` is s_max/s_min of the solved matrix (ridge rows
    included), inf for an exactly singular one.
    """

    def __init__(self, design, ridge: float = 0.0) -> None:
        a = np.asarray(design)
        if a.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        if not 0.0 <= ridge < np.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
        h = a.T
        if not (h.dtype == np.float64 and h.flags.c_contiguous and h.flags.writeable):
            h = np.array(h, dtype=np.float64, order="C")
        k, self._rows = h.shape
        n_blocks = max(1, self._rows // _BLOCK_ROWS)
        starts = [b * self._rows // n_blocks for b in range(n_blocks + 1)]
        self._blocks, factors = [], []  # (Q_b^T, its rows)
        for lo, hi in zip(starts, starts[1:]):
            factors.append(_thin_qr(h, lo, hi))
            self._blocks.append((h[:factors[-1].shape[0], lo:hi], slice(lo, hi)))
        # A = diag(Q_1, ..., Q_n) [R_1; ...; R_n]
        r = np.vstack(factors)
        stacked_rows = r.shape[0]
        solved_rows = self._rows
        if ridge > 0.0:
            # [A; sqrt(ridge) I] = diag(Q_1, ..., Q_n, I) [R_1; ...; R_n; sqrt(ridge) I]
            r = np.vstack([r, np.sqrt(ridge) * np.eye(k)])
            solved_rows += k
        u, s, self._vt = np.linalg.svd(r, full_matrices=False)
        # Only the rows of U that meet the Q_b^T t_b are needed: the ridge
        # rows of the target are zero.
        self._ut = u[:stacked_rows].T
        rcond = solved_rows * np.finfo(np.float64).eps
        self._keep = s > rcond * s[0]
        self._inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=self._keep)
        self.condition = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")

    def _qt_target(self, target) -> np.ndarray:
        """The stacked Q_b^T t_b for a target of shape (M,), which is only read."""
        t = np.asarray(target, dtype=np.float64)
        if t.shape != (self._rows,):
            raise ValueError(f"target shape {t.shape} does not match design rows {self._rows}")
        return np.concatenate([qt_b @ t[rows] for qt_b, rows in self._blocks])

    def solve(self, target) -> np.ndarray:
        """Minimal-norm least-squares coefficients x for ``target`` of shape (M,)."""
        return self._vt.T @ ((self._ut @ self._qt_target(target)) * self._inv_s)

    def fitted(self, target) -> np.ndarray:
        """A x for x = solve(target), as diag(Q_1, ..., Q_n) U_R U_R^T Q^T t:
        U_R is U's rows for the stacked R factors, dropped directions zeroed."""
        w = self._ut.T @ ((self._ut @ self._qt_target(target)) * self._keep)
        # min(k, rows) entries per block (with several blocks, rows > k),
        # each block's product written in place: no per-block temporaries
        out = np.empty(self._rows)
        for (qt_b, rows), w_b in zip(self._blocks, w.reshape(len(self._blocks), -1)):
            np.matmul(qt_b.T, w_b, out=out[rows])
        return out


def project(design, target, ridge: float = 0.0) -> tuple[np.ndarray, float, FactoredDesign]:
    """Minimal-norm least-squares fit of target on the design columns.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states, and ``target`` has length M.  A design in ``eval``'s
    layout is consumed and holds Q^T afterwards (see ``FactoredDesign``).

    Returns (coefficients, condition_estimate, factored): s_max/s_min of the
    solved matrix (inf for an exactly singular design) and the
    ``FactoredDesign``, on which a further target solves as in a fresh call.
    ``ridge`` adds Tikhonov rows sqrt(ridge)*I, default off.
    """
    factored = FactoredDesign(design, ridge=ridge)
    return factored.solve(target), factored.condition, factored
