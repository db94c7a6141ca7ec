"""Euler-Maruyama forward path generation with counter-based randomness.

Randomness contract
-------------------
Normals come from the Philox counter-based generator, one stream per key
(seed, stream); Philox emits four 64-bit words per counter block, and word
j of a stream is a pure function of (seed, stream, j).  The paths use
stream (seed, 0): with rows of R = 4*ceil(N/4) words, the normal for path
m, step i is word m*R + i; the nested oracle's level i uses stream
(seed, 0x6E657374 + i).  Drawing any contiguous range of words is a matter
of advancing the counter to the range start, so chunked generation is
bit-identical to single-shot generation.

Each 64-bit word is reduced to its top 52 bits and mapped through the
midpoint uniform u = (bits + 1/2) * 2**-52, which lies strictly inside
(0, 1), then through the inverse normal CDF, computed by Cephes' ``ndtri``
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989),
the algorithm ``scipy.special.ndtri`` runs, here written in numpy.  No
rejection loops, so the draw count per path is fixed.

The time dimension is the fast axis of the draw layout: increments for a
path are consecutive, and states/increments arrays are stored so that one
time-column across all paths is contiguous (the backward sweep consumes
columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.random import Philox

from .model import FbsdeProblem, TimeGrid

__all__ = [
    "NumericalError",
    "PathEnsemble",
    "simulate_paths",
    "euler_states",
]

# Paths drawn per Philox/ndtri call.  It bounds the draw temporaries (words,
# uniforms, normals) by _CHUNK x N rather than M x N; no bit depends on it.
_CHUNK = 16_384


# Cephes ndtri.  Central branch: (y + y*y2*P0(y2)/Q0(y2)) * sqrt(2 pi) for
# y = u - 1/2.  Tails: x - log(x)/x - z*P(z)/Q(z) for x = sqrt(-2 log w),
# w = min(u, 1 - u) and z = 1/x, with (P1, Q1) for x < 8 and (P2, Q2)
# beyond, negated below u = 1/2.  Each Q is monic (Cephes p1evl), written
# here with its leading 1.0 so that one Horner loop (polevl) serves all six.
_S2PI = 2.50662827463100050242E0
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


# Cephes takes the lower tail for u <= EXPM2 and the upper one for
# u > 1 - EXPM2 (in double).  On the midpoint uniforms u = (2*bits + 1) *
# 2**-53 these are exact bounds on y, set by the last lower and the first
# upper word: y <= _Y_LOWER and y >= _Y_UPPER.
_Y_LOWER, _Y_UPPER = (float(Fraction(2 * b + 1 - 2**52, 2**53)) for b in (
    (Fraction(_EXPM2) * 2**53 - 1) // 2, (Fraction(1.0 - _EXPM2) * 2**53 - 1) // 2 + 1))

# Values per inverse-CDF block: its scratch and tail gathers stay in cache.
_NDTRI_BLOCK = 16_384


def _polevl(z: np.ndarray, coefs, out=None) -> np.ndarray:
    """Horner's rule from the leading coefficient, in Cephes' order."""
    out = np.multiply(z, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def _ndtri_tail(y: np.ndarray) -> np.ndarray:
    """Cephes ndtri in its tails, for y = u - 1/2: there min(u, 1 - u) is
    1/2 - |y| exactly, and the result has the sign of y."""
    x = np.sqrt(-2.0 * np.log(0.5 - np.abs(y)))
    z = 1.0 / x
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _polevl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)  # u < exp(-32)
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
    return np.copysign((x - np.log(x) / x) - x1, y)


def _ndtri_centred(y: np.ndarray) -> np.ndarray:
    """Cephes ndtri of u = y + 1/2, in place on a C-contiguous y."""
    flat = y.reshape(-1)
    scratch = np.empty((3, min(flat.size, _NDTRI_BLOCK)))
    for lo in range(0, flat.size, _NDTRI_BLOCK):
        yb = flat[lo:lo + _NDTRI_BLOCK]
        tails = np.flatnonzero((yb <= _Y_LOWER) | (yb >= _Y_UPPER))
        tail_x = _ndtri_tail(yb[tails])
        # Centre: (y + y * (y2 * P0(y2) / Q0(y2))) * sqrt(2 pi)
        y2, num, den = scratch[:, :yb.size]
        np.multiply(yb, yb, out=y2)
        _polevl(y2, _P0, out=num)
        num *= y2
        num /= _polevl(y2, _Q0, out=den)
        num *= yb
        yb += num
        yb *= _S2PI
        yb[tails] = tail_x
    return y


class NumericalError(RuntimeError):
    """A simulation or a backward sweep produced non-finite values."""


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """M simulated forward paths and the Brownian increments that drove them.

    states[m, i] is the Euler state at times[i] on path m (column-contiguous,
    M x (N+1)); increments[m, i] is the Brownian increment over
    [times[i], times[i+1]] (M x N).  Both arrays are read-only; states are
    bit-reconstructible from the increments via :func:`euler_states`.
    """

    states: np.ndarray
    increments: np.ndarray
    grid: TimeGrid
    seed: int


def _validate_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def counter_normals(seed: int, stream: int, start: int, stop: int,
                    width: int | None = None) -> np.ndarray:
    """Standard normals for words [start, stop) of the Philox stream keyed
    by (seed, stream).

    Entry j is a pure function of (seed, stream, start + j), independent of
    how the range is split.  With ``width``, the range is read as rows of
    4*ceil(width/4) words and only the first ``width`` of each row are
    converted: the result is the (rows, width) array of those entries.
    """
    first = start // 4  # the covering counter blocks are [first, ceil(stop/4))
    bg = Philox(key=np.array([seed, stream], dtype=np.uint64))
    if first:
        bg.advance(first)
    bits = bg.random_raw(4 * ((stop + 3) // 4 - first))[start - 4 * first:stop - 4 * first]
    bits >>= np.uint64(12)
    if width is not None:
        bits = bits.reshape(-1, 4 * ((width + 3) // 4))[:, :width]
    # y = u - 1/2 for the midpoint uniform u, exactly: the product is exact,
    # and so is the sum, a multiple of 2**-53 below 1/2 in size.
    y = np.empty(bits.shape)
    np.multiply(bits, 2.0**-52, out=y)
    y += 2.0**-53 - 0.5
    # Free the words first: the inverse CDF's scratch can then reuse them.
    del bits
    return _ndtri_centred(y)


def euler_states(problem: FbsdeProblem, grid: TimeGrid, increments: np.ndarray) -> np.ndarray:
    """Apply the Euler recursion to given Brownian increments.

    states[:, i+1] = states[:, i] + delta_i * b(t_i, states[:, i])
                     + sigma(t_i, states[:, i]) * increments[:, i]

    An overflow, invalid value or division by zero raises NumericalError
    naming the step, and never warns.
    """
    increments = np.asarray(increments, dtype=np.float64)
    m, n = increments.shape
    if n != grid.n_steps:
        raise ValueError("increments have wrong number of steps for this grid")
    times, deltas = grid.times, grid.deltas
    states = np.empty((n + 1, m))  # time-major while filling; transposed below
    states[0] = problem.initial_state
    for i in range(n):
        xi = states[i]
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                states[i + 1] = (
                    xi
                    + deltas[i] * problem.drift(times[i], xi)
                    + problem.diffusion(times[i], xi) * increments[:, i]
                )
        except FloatingPointError as exc:
            raise NumericalError(f"{exc} at simulation step {i}") from exc
    return states.T  # F-ordered view: time columns stay contiguous


def simulate_paths(problem: FbsdeProblem, grid: TimeGrid, M: int, seed: int) -> PathEnsemble:
    """Simulate M Euler-Maruyama paths of the forward process.

    Identical (problem, grid, M, seed) produce bit-identical ensembles.
    """
    if M < 1:
        raise ValueError(f"path count must be at least 1, got M={M}")
    seed = _validate_seed(seed)

    N = grid.n_steps
    row = 4 * ((N + 3) // 4)  # words per path: whole counter blocks
    sqrt_dt = np.sqrt(grid.deltas)
    increments = np.empty((N, M))  # time-major; transposed below
    for a in range(0, M, _CHUNK):
        b = min(a + _CHUNK, M)
        increments[:, a:b] = (counter_normals(seed, 0, a * row, b * row, N) * sqrt_dt).T

    increments_mi = increments.T
    states_mi = euler_states(problem, grid, increments_mi)
    states_mi.setflags(write=False)
    increments_mi.setflags(write=False)
    return PathEnsemble(states=states_mi, increments=increments_mi, grid=grid, seed=seed)
