"""Empirical least-squares projections onto the basis span.

A design is factored once and then solved against as many targets as
needed.  The factorisation is a two-level Householder QR (TSQR; Demmel,
Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 2012): the M rows are
split into max(1, M // _BLOCK_ROWS) near-equal row blocks, each block is
factored while it sits in cache, and the stacked k x k triangular factors
of the blocks are factored once more.  A design with one block (M below
2 * _BLOCK_ROWS) has no top level: its R is the block's, with the same
bits as a single Householder QR.  A singular-value decomposition of R
then gives the minimal-norm solution for rank-deficient designs.

The design is copied once, block by block, into one array of k * M
values, and LAPACK ``dgeqrf`` factors each block in place there, with no
further per-block copy.  It is called through ``numpy.linalg.lapack_lite``,
a private-but-present numpy module; it leaves exactly the reflectors, tau
and R that ``numpy.linalg.qr`` returns in raw mode, and
tests/test_regress.py pins that contract bit for bit.

A solve applies each block's reflectors to its own slice of the target,
gathers the leading k entries of every block and applies the top-level
reflectors to them.  No normal equations are formed, so the conditioning
of the solve is that of the design itself.  Singular values at or below
rows * eps * s_max are treated as zero; rank deficiency is surfaced
through the reported condition estimate rather than as an error.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import lapack_lite

__all__ = ["FactoredDesign", "project"]

# Rows per block of the two-level factorisation: a (16 384, k) float64 block
# (768 KiB at k = 6) stays in L2 while LAPACK factors it.  Blocks hold at
# least this many rows, so every design with M < 2 * _BLOCK_ROWS is one block.
_BLOCK_ROWS = 16_384


class _Householder:
    """Householder QR of one block, factored in place: ``h`` is a
    C-contiguous (k, rows) float64 array, which is LAPACK's column-major
    rows x k block.  ``r`` is its triangular factor, and ``apply`` maps t
    to Q^T t in place."""

    def __init__(self, h: np.ndarray) -> None:
        k, rows = h.shape
        lda = max(1, rows)
        self._tau = np.empty(min(k, rows))
        # One workspace query, then the factorisation, as numpy's QR runs them.
        work = np.empty(1)
        lapack_lite.dgeqrf(rows, k, h, lda, self._tau, work, -1, 0)
        lwork = max(1, k, int(work[0]))
        work = np.empty(lwork)
        info = lapack_lite.dgeqrf(rows, k, h, lda, self._tau, work, lwork, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrf failed with info = {info}")
        # The reflectors, one per row (contiguous rows keep each dot product
        # on the BLAS kernel), with the diagonal set to their implicit
        # leading 1.
        self._h = h
        self.r = np.triu(h.T[:self._tau.size])
        np.fill_diagonal(h, 1.0)

    def apply(self, t: np.ndarray) -> None:
        # One Householder reflector at a time.
        for j in range(self._tau.size):
            v = self._h[j, j:]
            t[j:] -= (self._tau[j] * (v @ t[j:])) * v


class FactoredDesign:
    """Least-squares factorisation of one design, solvable for several
    targets.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states; ``ridge`` adds Tikhonov rows sqrt(ridge)*I.  The
    design is copied once, block by block, into one array of k * M values
    in which LAPACK factors each block in place; the caller's design is
    never written, and the caller may drop it afterwards.  ``condition``
    is s_max/s_min of the solved matrix (ridge rows included), inf for an
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
        h = np.empty(k * self._rows)
        self._blocks = []
        for lo, hi in zip(self._starts, self._starts[1:]):
            block = h[k * lo:k * hi].reshape(k, hi - lo)
            block[...] = a[lo:hi].T
            self._blocks.append(_Householder(block))
        if n_blocks == 1:
            self._top = None
            r = self._blocks[0].r
        else:
            # The stacked R factors, copied into LAPACK's column-major layout.
            stacked = np.vstack([block.r for block in self._blocks])
            self._top = _Householder(stacked.T.copy())
            r = self._top.r
        self._n_reflectors = r.shape[0]
        solved_rows = self._rows
        if ridge > 0.0:
            # [A; sqrt(ridge) I] = diag(Q, I) [R; sqrt(ridge) I]
            r = np.vstack([r, np.sqrt(ridge) * np.eye(k)])
            solved_rows += k
        u, s, self._vt = np.linalg.svd(r, full_matrices=False)
        # Only the rows of U that meet Q^T t are needed: the ridge rows of
        # the target are zero.
        self._ut = u[:self._n_reflectors].T
        rcond = solved_rows * np.finfo(np.float64).eps
        keep = s > rcond * s[0]
        self._inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        self.condition = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")

    def solve(self, target) -> np.ndarray:
        """Minimal-norm least-squares coefficients for ``target`` of shape
        (M,), or (M, n) for n targets (coefficients (k, n)); each target is
        solved exactly as it would be alone."""
        t = np.asarray(target, dtype=np.float64)
        if t.ndim == 2 and t.shape[0] == self._rows:
            return np.stack([self._solve(column) for column in t.T], axis=1)
        if t.shape != (self._rows,):
            raise ValueError(
                f"target shape {t.shape} does not match design rows {self._rows}"
            )
        return self._solve(t)

    def _solve(self, target: np.ndarray) -> np.ndarray:
        qt = np.array(target)
        for block, lo, hi in zip(self._blocks, self._starts, self._starts[1:]):
            block.apply(qt[lo:hi])
        if self._top is not None:
            # The leading entries of each block meet the stacked R factors.
            qt = np.concatenate([qt[lo:lo + block.r.shape[0]]
                                 for block, lo in zip(self._blocks, self._starts)])
            self._top.apply(qt)
        return self._vt.T @ ((self._ut @ qt[:self._n_reflectors]) * self._inv_s)


def project(design, target, ridge: float = 0.0) -> tuple[np.ndarray, float]:
    """Minimal-norm least-squares fit of target on the design columns.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states, and ``target`` has length M (or shape (M, n) for n
    targets on one factorisation).

    Returns (coefficients, condition_estimate) where the condition estimate
    is s_max/s_min of the solved matrix (inf for an exactly singular
    design).  ``ridge`` adds Tikhonov rows sqrt(ridge)*I, default off.
    """
    factored = FactoredDesign(design, ridge=ridge)
    return factored.solve(target), factored.condition
