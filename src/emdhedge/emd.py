"""Empirical mode decomposition: sifting, IMF tests, adaptive cycle estimates.

The decomposition repeatedly subtracts the mean of the cubic-spline envelopes
through the local maxima and minima until the candidate satisfies the two IMF
conditions (extrema/zero-crossing balance; near-zero envelope mean), then peels
the IMF off and continues on the remainder until only a trend is left.

Envelopes use natural cubic splines with ``boundary_mirror_count`` extrema
mirrored beyond each end to suppress end swings. Each spline is built by one
direct tridiagonal solve of the natural end-condition system, a Python
replica of LAPACK ``dgtsv`` (Anderson et al., *LAPACK Users' Guide*, 3rd
ed., 1999), with the same arithmetic as ``scipy.interpolate.CubicSpline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InsufficientDataError, NumericError

MIN_SAMPLES = 8  # shortest series ``decompose`` accepts

__all__ = [
    "MIN_SAMPLES",
    "SiftConfig",
    "Imf",
    "ImfSet",
    "SiftResult",
    "find_extrema",
    "envelope_mean",
    "is_imf",
    "sift",
    "decompose",
    "cycle",
]


@dataclass(frozen=True)
class SiftConfig:
    """Stopping rules and boundary handling for the sifting loop."""

    envelope_tolerance: float = 0.05  # rms(envelope mean) <= tol * rms(candidate)
    max_sifts_per_imf: int = 64
    max_imfs: int = 16
    boundary_mirror_count: int = 2

    def __post_init__(self):
        if not (0.0 < self.envelope_tolerance < 1.0):
            raise ValueError("envelope_tolerance must be in (0, 1)")
        if min(self.max_sifts_per_imf, self.max_imfs, self.boundary_mirror_count) < 1:
            raise ValueError("sift config counts must be positive")


@dataclass(frozen=True)
class Imf:
    """One intrinsic mode function extracted by the decomposition."""

    values: np.ndarray
    index: int  # 1-based position in the decomposition
    cycle: float  # mean period in days
    n_maxima: int
    n_minima: int
    n_zero_crossings: int
    n_sifts: int
    converged: bool


@dataclass(frozen=True)
class ImfSet:
    """Ordered IMFs plus the residue from one decomposition."""

    imfs: tuple[Imf, ...]
    residue: np.ndarray
    source_len: int

    def reconstruct(self) -> np.ndarray:
        out = self.residue.copy()
        for imf in self.imfs:
            out += imf.values
        return out


@dataclass(frozen=True)
class SiftResult:
    values: np.ndarray
    n_sifts: int
    converged: bool
    n_maxima: int  # extrema counts of ``values``, from the last pass
    n_minima: int
    n_zero_crossings: int
    residue_like: bool = False


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Start index of each run of equal consecutive values in x."""
    change = np.empty(len(x), dtype=bool)
    change[0] = True
    np.not_equal(x[1:], x[:-1], out=change[1:])
    return np.flatnonzero(change)


def find_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Locate strict local maxima/minima and count zero crossings.

    A flat plateau dominating both neighbours contributes one extremum at its
    midpoint. Zero crossings are sign changes between consecutive nonzero
    samples; an exact zero between opposite signs counts once.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 3:
        raise InsufficientDataError("need at least 3 samples for extrema detection")

    starts = _run_starts(x)
    rv = x[starts]
    inner = rv[1:-1]
    mids = (starts[1:-1] + starts[2:] - 1) // 2  # an inner run stops where the next starts
    maxima = mids[(inner > rv[:-2]) & (inner > rv[2:])]
    minima = mids[(inner < rv[:-2]) & (inner < rv[2:])]

    sign = np.sign(x[x != 0.0])
    crossings = int(np.count_nonzero(sign[1:] != sign[:-1]))
    return maxima, minima, crossings


def _mirrored_knots(idx: np.ndarray, vals: np.ndarray, n: int, mirror: int):
    """Extend extrema by reflecting ``mirror`` of them beyond each end."""
    m = min(mirror, len(idx))
    left_i = -idx[:m][::-1]
    left_v = vals[:m][::-1]
    right_i = 2 * (n - 1) - idx[-m:][::-1]
    right_v = vals[-m:][::-1]
    knots_i = np.concatenate([left_i, idx, right_i])
    knots_v = np.concatenate([left_v, vals, right_v])
    if (knots_i[1:] > knots_i[:-1]).all():
        return knots_i, knots_v
    # dedupe any coincident knots from the reflection (an extremum at an end)
    knots_i, keep = np.unique(knots_i, return_index=True)
    return knots_i, knots_v[keep]


def _dgtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve one tridiagonal system as LAPACK ``dgtsv`` does, for one right-hand side.

    ``dl``, ``d`` and ``du`` are the sub-, main and super-diagonal. Gaussian
    elimination with partial pivoting: rows i and i+1 are interchanged when
    the sub-diagonal entry is larger in magnitude than the pivot, which
    fills in a second super-diagonal. The back-solve is ``(b - du*x[i+1] -
    du2*x[i+2]) / d`` with the zero ``du2`` entries of non-interchanged rows
    kept. Every operation and its order match the reference routine, so the
    result is bit-identical to it. Row i's current pivot, super-diagonal and
    right-hand side are carried in locals; the inputs are not modified. A
    zero pivot (LAPACK ``info = i > 0``) raises ``NumericError``.
    """
    n = len(d)
    piv = [0.0] * n
    sup1 = [0.0] * n
    sup2 = [0.0] * n
    x = [0.0] * n  # the eliminated right-hand side, then the solution
    dc, uc, bc = d[0], du[0] if n > 1 else 0.0, b[0]
    i = 0
    for li, dn, bn, un in zip(dl, d[1:], b[1:], du[1:] + [0.0]):  # row i + 1
        if (dc if dc >= 0.0 else -dc) >= (li if li >= 0.0 else -li):
            if dc == 0.0:
                raise NumericError(f"envelope spline system is singular (dgtsv info={i + 1})")
            fact = li / dc
            piv[i], sup1[i], x[i] = dc, uc, bc
            dc, uc, bc = dn - fact * uc, un, bn - fact * bc
        else:  # interchange rows i and i + 1
            fact = dc / li
            piv[i], sup1[i], sup2[i], x[i] = li, dn, un, bn
            dc, uc, bc = uc - fact * dn, -fact * un, bc - fact * bn
        i += 1
    if dc == 0.0:
        raise NumericError(f"envelope spline system is singular (dgtsv info={n})")
    x1 = x[n - 1] = bc / dc
    if n > 1:
        x1, x2 = (x[n - 2] - sup1[n - 2] * x1) / piv[n - 2], x1
        x[n - 2] = x1
        for i in range(n - 3, -1, -1):
            x1, x2 = (x[i] - sup1[i] * x1 - sup2[i] * x2) / piv[i], x1
            x[i] = x1
    return x


def _natural_spline(knots: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (knots, values), evaluated at t = 0, 1, ..., n-1.

    Knot slopes solve the tridiagonal system that ``CubicSpline(...,
    bc_type="natural")`` builds, by a replica of the routine it calls
    (``_dgtsv``); the Hermite coefficients and the piecewise evaluation
    repeat ``PPoly``'s operations, so the result is bit-identical. The knots
    are strictly increasing integers with ``knots[0] <= 0`` and ``knots[-1]
    >= n - 1``, as ``_mirrored_knots`` makes them, so each interval's points
    are counted rather than searched for.
    """
    x = knots.astype(float)
    y = values
    dx = x[1:] - x[:-1]
    slope = (y[1:] - y[:-1]) / dx
    d = np.empty(len(x))
    d[0] = 2 * dx[0]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    d[-1] = 2 * dx[-1]
    b = np.empty(len(x))
    b[0] = 3 * (y[1] - y[0])
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = 3 * (y[-1] - y[-2]) + 0.0  # CubicSpline adds 0.5 * 0 * dx**2 here
    h = dx.tolist()
    s = np.fromiter(_dgtsv(h[1:] + h[-1:], d.tolist(), h[:1] + h[:-1], b.tolist()), float, len(x))
    tc = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = tc / dx
    c1 = (slope - s[:-1]) / dx - tc
    # interval of each t, as PPoly finds it: the last knot <= t, and the
    # last interval for t at or beyond the last knot
    n = len(t)
    edges = np.minimum(np.maximum(knots, 0), n)
    counts = edges[1:] - edges[:-1]
    counts[-1] = n - edges[-2]
    i = np.repeat(np.arange(len(x) - 1), counts)
    z = t - x[i]
    z2 = z * z
    # PPoly sums from the constant term up, starting from 0.0
    return (((0.0 + y[i]) + s[i] * z) + c1[i] * z2) + c0[i] * (z2 * z)


def envelope_mean(
    x: np.ndarray,
    maxima: np.ndarray,
    minima: np.ndarray,
    mirror: int = 2,
) -> np.ndarray | None:
    """Pointwise mean of the upper and lower natural cubic spline envelopes.

    Each envelope is one direct tridiagonal solve (``_natural_spline``).
    Returns None when either side has fewer than 2 extrema, which signals
    decomposition termination rather than a failure.
    """
    x = np.asarray(x, dtype=float)
    if len(maxima) < 2 or len(minima) < 2:
        return None
    n = len(x)
    t = np.arange(n, dtype=float)
    ui, uv = _mirrored_knots(np.asarray(maxima), x[maxima], n, mirror)
    li, lv = _mirrored_knots(np.asarray(minima), x[minima], n, mirror)
    upper = _natural_spline(ui, uv, t)
    lower = _natural_spline(li, lv, t)
    return 0.5 * (upper + lower)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def is_imf(x: np.ndarray, envelope_tolerance: float = 0.05, mirror: int = 2) -> tuple[bool, dict]:
    """Test the two IMF conditions.

    Condition 1: |#extrema - #zero crossings| <= 1.
    Condition 2: rms of the envelope mean <= tolerance * rms(x).
    """
    maxima, minima, crossings = find_extrema(x)
    counts = {
        "n_maxima": len(maxima),
        "n_minima": len(minima),
        "n_zero_crossings": crossings,
    }
    n_ext = len(maxima) + len(minima)
    if abs(n_ext - crossings) > 1:
        return False, counts
    m = envelope_mean(x, maxima, minima, mirror)
    if m is None:
        return False, counts
    rx = _rms(x)
    if rx == 0.0:
        return False, counts
    return _rms(m) <= envelope_tolerance * rx, counts


def sift(x: np.ndarray, cfg: SiftConfig = SiftConfig()) -> SiftResult:
    """Refine a candidate by repeated envelope-mean subtraction.

    Stops at the first iterate satisfying both IMF conditions, or after
    ``max_sifts_per_imf`` subtractions (flagged non-converged). If the
    envelopes vanish mid-sift the current iterate is returned residue-like.
    """
    h = np.asarray(x, dtype=float).copy()
    n_sifts = 0
    while True:
        maxima, minima, crossings = find_extrema(h)
        counts = (len(maxima), len(minima), crossings)
        m = envelope_mean(h, maxima, minima, cfg.boundary_mirror_count)
        if m is None:
            return SiftResult(h, n_sifts, False, *counts, residue_like=True)
        n_ext = len(maxima) + len(minima)
        rx = _rms(h)
        balanced = abs(n_ext - crossings) <= 1
        if balanced and rx > 0.0 and _rms(m) <= cfg.envelope_tolerance * rx:
            return SiftResult(h, n_sifts, True, *counts)
        if n_sifts >= cfg.max_sifts_per_imf:
            return SiftResult(h, n_sifts, False, *counts)
        h = h - m
        n_sifts += 1


def cycle(n_maxima: int, n_minima: int, series_len: int) -> float:
    """Mean period estimate from extrema counts: 2 * len / (#max + #min - 1)."""
    denom = n_maxima + n_minima - 1
    if denom < 1:
        raise DataError("cycle undefined: fewer than 2 extrema (residue/trend case)")
    return series_len / denom * 2.0


def _is_monotone(x: np.ndarray) -> bool:
    d = x[1:] - x[:-1]
    return bool((d >= 0).all() or (d <= 0).all())


def decompose(x: np.ndarray, cfg: SiftConfig = SiftConfig()) -> ImfSet:
    """Full decomposition: extract IMFs until only a trend remains.

    Reconstruction is exact up to float error because sifting is pure
    subtraction. Each emitted IMF carries its extrema counts and cycle.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_SAMPLES} samples to decompose")
    residue = x.copy()
    imfs: list[Imf] = []
    while len(imfs) < cfg.max_imfs:
        maxima, minima, _ = find_extrema(residue)
        if len(maxima) < 2 or len(minima) < 2 or _is_monotone(residue):
            break
        result = sift(residue, cfg)
        if result.residue_like:
            break
        if result.n_maxima + result.n_minima < 2:
            break
        imfs.append(
            Imf(
                values=result.values,
                index=len(imfs) + 1,
                cycle=cycle(result.n_maxima, result.n_minima, len(x)),
                n_maxima=result.n_maxima,
                n_minima=result.n_minima,
                n_zero_crossings=result.n_zero_crossings,
                n_sifts=result.n_sifts,
                converged=result.converged,
            )
        )
        residue = residue - result.values
    return ImfSet(imfs=tuple(imfs), residue=residue, source_len=len(x))
