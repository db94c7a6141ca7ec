"""Empirical least-squares projections onto the basis span.

A design is factored once and then solved against as many targets as
needed.  The M rows are split into max(1, M // _BLOCK_ROWS) near-equal row
blocks, and each block A_b gets a thin QR, A_b = Q_b R_b, while it sits in
cache.  Then A = diag(Q_1, ..., Q_n) [R_1; ...; R_n] with orthonormal
columns on the left, so A and the stacked R factors share their singular
values and right singular vectors: one singular-value decomposition of the
stacked R gives the minimal-norm solution, for rank-deficient designs too.

The design is copied once, block by block, into one array of k * M
values.  LAPACK ``dgeqrf`` factors each block in place there and
``dorgqr`` then overwrites the block with its explicit thin Q, stored as
the rows of Q_b^T.  Both are called through ``numpy.linalg.lapack_lite``,
a private-but-present numpy module; they leave exactly the Q and R that
``numpy.linalg.qr`` returns in reduced mode, and tests/test_regress.py
pins that contract bit for bit.

A solve is one product Q_b^T t_b per block, concatenated and carried
through the SVD factors; the target is only read.  No normal equations
are formed, so the conditioning of the solve is that of the design
itself.  Singular values at or below rows * eps * s_max are treated as
zero; rank deficiency is surfaced through the reported condition estimate
rather than as an error.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import lapack_lite

__all__ = ["FactoredDesign", "project"]

# Rows per block: a (16 384, k) float64 block (768 KiB at k = 6) stays in L2
# while LAPACK factors it.  Blocks hold at least this many rows, so every
# design with M < 2 * _BLOCK_ROWS is one block.
_BLOCK_ROWS = 16_384


def _lapack(routine, *args) -> None:
    """Run a ``lapack_lite`` routine whose second argument is its column
    count after one workspace query (lwork = -1), as numpy's QR runs it."""
    work = np.empty(1)
    routine(*args, work, -1, 0)
    lwork = max(1, args[1], int(work[0]))
    work = np.empty(lwork)
    info = routine(*args, work, lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info = {info}")


def _thin_qr(h: np.ndarray) -> np.ndarray:
    """Thin QR of one block, in place: ``h`` is a C-contiguous (k, rows)
    float64 array, which is LAPACK's column-major rows x k block.  Returns
    the n x k triangular factor, n = min(k, rows), and leaves Q^T in
    ``h[:n]``."""
    k, rows = h.shape
    lda = max(1, rows)
    n = min(k, rows)
    tau = np.empty(n)
    _lapack(lapack_lite.dgeqrf, rows, k, h, lda, tau)
    r = np.triu(h.T[:n])
    _lapack(lapack_lite.dorgqr, rows, n, n, h, lda, tau)
    return r


class FactoredDesign:
    """Least-squares factorisation of one design, solvable for several
    targets.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states; ``ridge`` adds Tikhonov rows sqrt(ridge)*I.  The
    design is copied once, block by block, into one array of k * M values,
    which then holds each block's Q^T; the caller's design is never
    written, and the caller may drop it afterwards.  ``condition`` is
    s_max/s_min of the solved matrix (ridge rows included), inf for an
    exactly singular one.
    """

    def __init__(self, design, ridge: float = 0.0) -> None:
        a = np.asarray(design, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        if ridge < 0.0:
            raise ValueError("ridge must be nonnegative")
        self._rows, k = a.shape
        n_blocks = max(1, self._rows // _BLOCK_ROWS)
        self._starts = [b * self._rows // n_blocks for b in range(n_blocks + 1)]
        q = np.empty(k * self._rows)
        self._qt, factors = [], []
        for lo, hi in zip(self._starts, self._starts[1:]):
            block = q[k * lo:k * hi].reshape(k, hi - lo)
            block[...] = a[lo:hi].T
            factors.append(_thin_qr(block))
            self._qt.append(block[:factors[-1].shape[0]])
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
        keep = s > rcond * s[0]
        self._inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        self.condition = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")

    def solve(self, target) -> np.ndarray:
        """Minimal-norm least-squares coefficients for ``target`` of shape
        (M,), or (M, n) for n targets (coefficients (k, n)); each target is
        solved exactly as it would be alone, and none is written."""
        t = np.asarray(target, dtype=np.float64)
        if t.ndim == 2 and t.shape[0] == self._rows:
            return np.stack([self._solve(column) for column in t.T], axis=1)
        if t.shape != (self._rows,):
            raise ValueError(
                f"target shape {t.shape} does not match design rows {self._rows}"
            )
        return self._solve(t)

    def _solve(self, target: np.ndarray) -> np.ndarray:
        blocks = zip(self._qt, self._starts, self._starts[1:])
        qt = np.concatenate([qt_b @ target[lo:hi] for qt_b, lo, hi in blocks])
        return self._vt.T @ ((self._ut @ qt) * self._inv_s)


def project(design, target, ridge: float = 0.0) -> tuple[np.ndarray, float, FactoredDesign]:
    """Minimal-norm least-squares fit of target on the design columns.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states, and ``target`` has length M (or shape (M, n) for n
    targets on one factorisation).

    Returns (coefficients, condition_estimate, factored): s_max/s_min of the
    solved matrix (inf for an exactly singular design) and the
    ``FactoredDesign``, on which a further target solves as in a fresh call.
    ``ridge`` adds Tikhonov rows sqrt(ridge)*I, default off.
    """
    factored = FactoredDesign(design, ridge=ridge)
    return factored.solve(target), factored.condition, factored
