"""Empirical least-squares projections onto the basis span.

The projection is solved by singular-value decomposition of the design
matrix (minimal-norm solution for rank-deficient designs), never by normal
equations, so the conditioning of the solve is that of the design itself.
Singular values below rows * eps * s_max are treated as zero; rank
deficiency is surfaced through the reported condition estimate rather than
as an error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project"]


def project(design, target, ridge: float = 0.0) -> tuple[np.ndarray, float]:
    """Minimal-norm least-squares fit of target on the design columns.

    ``design`` is an M x k array, typically ``BasisSet.eval`` at the M
    regression states, and ``target`` has length M.

    Returns (coefficients, condition_estimate) where the condition estimate
    is s_max/s_min of the solved matrix (inf for an exactly singular
    design).  ``ridge`` adds Tikhonov rows sqrt(ridge)*I, default off.
    """
    a = np.asarray(design, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    if t.shape != (a.shape[0],):
        raise ValueError(
            f"target length {t.shape} does not match design rows {a.shape[0]}"
        )
    if ridge < 0.0:
        raise ValueError("ridge must be nonnegative")
    if ridge > 0.0:
        k = a.shape[1]
        a = np.vstack([a, np.sqrt(ridge) * np.eye(k)])
        t = np.concatenate([t, np.zeros(k)])
    rcond = a.shape[0] * np.finfo(np.float64).eps
    coeffs, _, _, sv = np.linalg.lstsq(a, t, rcond=rcond)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    return coeffs, condition
