"""Empirical least-squares projections onto the basis span.

A design is factored once, by Householder QR followed by a singular-value
decomposition of the small triangular factor R, and then solved against as
many targets as needed: the reflectors apply Q^T to each target, and the
SVD of R gives the minimal-norm solution for rank-deficient designs.  No
normal equations are formed, so the conditioning of the solve is that of
the design itself.  Singular values at or below rows * eps * s_max are
treated as zero; rank deficiency is surfaced through the reported
condition estimate rather than as an error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FactoredDesign", "project"]


class FactoredDesign:
    """Least-squares factorisation of one design, solvable for several
    targets.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states; ``ridge`` adds Tikhonov rows sqrt(ridge)*I.  The
    design is copied once; the caller may drop it afterwards.
    ``condition`` is s_max/s_min of the solved matrix (ridge rows
    included), inf for an exactly singular one.
    """

    def __init__(self, design, ridge: float = 0.0) -> None:
        a = np.asarray(design, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        if ridge < 0.0:
            raise ValueError("ridge must be nonnegative")
        self._rows, k = a.shape
        solved_rows = self._rows
        # The reflectors, one per row (LAPACK's column storage, transposed;
        # contiguous rows keep each dot product on the BLAS kernel), with
        # the diagonal set to their implicit leading 1.
        h, self._tau = np.linalg.qr(a, mode="raw")
        self._h = np.ascontiguousarray(h)
        self._n_reflectors = self._tau.size
        r = np.triu(self._h.T[:self._n_reflectors])
        np.fill_diagonal(self._h, 1.0)
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
        # Q^T t, one Householder reflector at a time.
        for j in range(self._n_reflectors):
            v = self._h[j, j:]
            qt[j:] -= (self._tau[j] * (v @ qt[j:])) * v
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
