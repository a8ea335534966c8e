"""Empirical mode decomposition: sifting, IMF tests, adaptive cycle estimates.

The decomposition repeatedly subtracts the mean of the cubic-spline envelopes
through the local maxima and minima until the candidate satisfies the two IMF
conditions (extrema/zero-crossing balance; near-zero envelope mean), then peels
the IMF off and continues on the remainder until only a trend is left (Huang
et al., Proc. R. Soc. A 454, 1998).

Envelopes use natural cubic splines with ``boundary_mirror_count`` extrema
mirrored beyond each end to suppress end swings. The knots are integers, so
every row of a spline's natural end-condition system is strictly diagonally
dominant: the system is never singular and needs no pivoting. All envelope
systems of a step are solved together by one parallel cyclic reduction over
their block-diagonal stack (Hockney, J. ACM 12, 1965); the splines agree
with ``scipy.interpolate.CubicSpline`` within 1e-11 of the largest knot
value, the round-off of another elimination order.

``decompose_all`` sifts a list of independent series in lockstep on one
ragged concatenation, so numpy's per-call overhead is paid once per step,
not once per series. Each step runs one segmented extrema pass (runs and
zero crossings never span two series), builds both envelope systems of
every series still sifting as segmented array operations, solves them all
in one cyclic reduction, evaluates every spline in one gather, and then
applies each series' stop rules; a series leaves the batch when its
decomposition ends. Each series' result is bit for bit the one it gets
alone: the cyclic reduction leaves each system's solution independent of
the systems stacked with it, and its rms is numpy's pairwise sum over its
own slice.
``decompose``, ``sift``, ``find_extrema`` and ``envelope_mean`` are the
one-series calls of the same kernels.

A step's working memory, with S the samples of the batch: the extrema pass
makes its masks, run starts and the nonzero positions (their signs taken in
place in the gathered values). The envelope systems and their solve are
sized by the knots; the cyclic reduction reuses four buffers across its
strides, and the solve's arrays are freed before the evaluation. The
evaluation makes five 2S repeats of the interval coefficients (both
envelopes of every series) and reuses them for z, z^2, z^3 and the running
sum. The envelope mean is formed in the first half of the sum's buffer, and
the stop rules' squares go into that mean's buffer and the spare second
half, so the next candidate ``h - m`` is the step's only other S-sized
array. No step writes an array a caller passed in, nor a ``_Layout`` array:
a batch's layout is read by every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmdHedgeError, InsufficientDataError

MIN_SAMPLES = 8  # shortest series ``decompose`` accepts
# most samples sifted in one lockstep batch: bounds the batch's working arrays
# (a per-segment CV stage at T=4000 sifts ~190k samples), which then stay in
# cache; on a 2-vCPU host that stage ran ~5 % slower at 2**14 or 2**16
_LOCKSTEP_SAMPLES = 1 << 15

__all__ = [
    "MIN_SAMPLES",
    "SiftConfig",
    "Imf",
    "ImfSet",
    "SiftResult",
    "find_extrema",
    "envelope_mean",
    "sift",
    "decompose",
    "decompose_all",
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


class _Layout:
    """Where each series of a ragged concatenation lies: built once per set
    of series, so the sifting steps add no pass to find it."""

    def __init__(self, n: np.ndarray):
        self.n = n
        self.stop = np.cumsum(n)
        self.start = self.stop - n
        self.edges = np.append(self.start, self.stop[-1])
        self.bounds = list(zip(self.start.tolist(), self.stop.tolist()))
        self.first = np.zeros(int(self.stop[-1]), dtype=bool)  # a series' first sample
        self.first[self.start] = True
        # the envelope systems: each series' upper, then each series' lower
        t = np.arange(self.stop[-1]) - np.repeat(self.start, n)  # sample index within its series
        self.n2 = np.concatenate([n, n])
        self.start2 = np.concatenate([self.start, self.start])
        self.t2 = np.concatenate([t, t]).astype(float)


def _extrema(x: np.ndarray, lay: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strict local maxima and minima (ascending positions in x) and the zero
    crossing count of each series of the concatenation x; no run of equal
    values and no crossing spans two series."""
    change = np.empty(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=change[1:])
    change[lay.start] = True
    starts = change.nonzero()[0]
    rv = x[starts]
    inner = rv[1:-1]
    own = ~lay.first[starts]  # the run continues its predecessor's series
    interior = own[1:-1] & own[2:]
    mids = (starts[1:-1] + starts[2:] - 1) // 2  # an inner run stops where the next starts
    maxima = mids[interior & (inner > rv[:-2]) & (inner > rv[2:])]
    minima = mids[interior & (inner < rv[:-2]) & (inner < rv[2:])]

    nz = x.nonzero()[0]
    sign = x[nz]
    np.sign(sign, out=sign)
    flip = np.zeros(len(nz) + 1, dtype=bool)  # flip[j]: the sign changes from nz[j - 1] to nz[j]
    np.not_equal(sign[1:], sign[:-1], out=flip[1:-1])
    lo = nz.searchsorted(lay.edges)  # series s holds nz[lo[s]:lo[s + 1]]
    flip[lo] = False  # no crossing into a series from the one before
    flips_before = flip.nonzero()[0].searchsorted(lo)
    return maxima, minima, flips_before[1:] - flips_before[:-1]


def _unsiftable(x: np.ndarray, fewest: int = 3, purpose: str = "for extrema detection") -> DataError | None:
    """The error of a series the sift cannot take, or None: one not
    one-dimensional, holding a NaN or an infinity, or under ``fewest`` samples."""
    if x.ndim != 1:
        return DataError(f"a series to sift must be one-dimensional, not of shape {x.shape}")
    if not np.isfinite(x).all():
        return DataError("a series to sift must hold only finite values")
    return InsufficientDataError(f"need at least {fewest} samples {purpose}") if len(x) < fewest else None


def find_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Locate strict local maxima/minima and count zero crossings.

    A flat plateau dominating both neighbours contributes one extremum at its
    midpoint. Zero crossings are sign changes between consecutive nonzero
    samples; an exact zero between opposite signs counts once.
    """
    x = np.asarray(x, dtype=float)
    if error := _unsiftable(x):
        raise error
    maxima, minima, crossings = _extrema(x, _Layout(np.array([len(x)])))
    return maxima, minima, int(crossings[0])


def _knots(e: np.ndarray, v: np.ndarray, count: np.ndarray, n: np.ndarray, mirror: int):
    """Envelope knots of each system: its ``count`` extrema (positions e,
    ascending within a system, and values v, grouped by system) with
    ``mirror`` of them reflected beyond each end of its series of ``n``
    samples. Returns the concatenated knots, their values and each system's
    knot count."""
    m = np.minimum(count, mirror)
    size = count + 2 * m
    first = count.cumsum() - count  # each system's first extremum
    stop = first + count
    system = np.arange(len(count)).repeat(size)  # of each knot
    # a system's knots stand for extrema q = first - m .. stop + m - 1,
    # counted on past both ends; past an end, q reflects extremum r
    # (first - 1 - i reflects first + i, and stop + i reflects stop - 1 - i)
    q = np.arange(len(system)) + (first - m - (size.cumsum() - size))[system]
    r = np.minimum(np.maximum(q, (2 * first - 1)[system] - q), (2 * stop - 1)[system] - q)
    pos = e[r]
    knots = np.where(r > q, -pos, np.where(r < q, (2 * (n - 1))[system] - pos, pos))
    values = v[r]
    # two knots of a system coincide only where an extremum at an end of its
    # series reflects onto itself: keep the first (both carry its value)
    same = knots[1:] == knots[:-1]
    if same.any():
        keep = np.append(True, ~same)
        knots, values = knots[keep], values[keep]
        size = np.diff(np.cumsum(keep)[np.cumsum(size) - 1], prepend=0)
    return knots, values, size


def _pcr(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, longest: int) -> np.ndarray:
    """Solve the tridiagonal systems a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i,
    stacked as one block-diagonal matrix (a is 0 on each system's first row,
    c on its last), by parallel cyclic reduction (Hockney, J. ACM 12, 1965).

    The stride-s step substitutes rows i - s and i + s into row i, which then
    couples to rows i - 2s and i + 2s; after the strides 1, 2, 4, ... below
    ``longest`` (the most rows of one system) every coupling is zero and
    x = d / b. Rows past either end of the stack are pad rows with b = 1 and
    a = c = d = 0. The steps divide by b, which strict diagonal dominance
    keeps nonzero.

    A system's couplings to rows outside it are exact zeros at every step, so
    whatever its neighbours hold adds only signed zeros to its rows: b, never
    zero, keeps every bit, and so does d, which holds no -0.0 (adding a zero
    to it can then only give back d). Each system's solution is therefore
    the one it gets alone.
    """
    n = len(b)
    top = 1 << ((longest - 1).bit_length() - 1)  # the last stride
    rows = slice(top, top + n)
    e, f, r = np.zeros((3, n + 2 * top))
    diag = np.ones(n + 2 * top)
    # the couplings negated: b_i x_i = d_i + e_i x_{i-1} + f_i x_{i+1}; d + 0.0 turns -0.0 to +0.0
    e[rows], diag[rows], f[rows], r[rows] = -a, b, -c, d + 0.0
    alpha, gamma, p, q = np.empty((4, n))  # each stride's quotients and products
    s = 1
    while s < longest:
        lo, hi = slice(top - s, top - s + n), slice(top + s, top + s + n)
        np.divide(e[rows], diag[lo], out=alpha)
        np.divide(f[rows], diag[hi], out=gamma)
        diag[rows] -= np.multiply(alpha, f[lo], out=p)
        diag[rows] -= np.multiply(gamma, e[hi], out=q)
        np.multiply(alpha, r[lo], out=p)
        np.multiply(gamma, r[hi], out=q)
        r[rows] += p
        r[rows] += q
        np.multiply(alpha, e[lo], out=p)
        np.multiply(gamma, f[hi], out=q)
        e[rows], f[rows] = p, q
        s *= 2
    return r[rows] / diag[rows]


def _splines(knots: np.ndarray, y: np.ndarray, size: np.ndarray, n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Natural cubic splines through each system's (knots, y), evaluated at
    its series' sample indices t = 0, 1, ..., n - 1 (concatenated).

    The knot slopes s solve the system ``CubicSpline(..., bc_type="natural")``
    builds. With knot gaps h, row i reads h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i
    + h_{i-1} s_{i+1} = r_i, the first row 2 h_0 s_0 + h_0 s_1 = r_0 and the
    last h s_{m-2} + 2 h s_{m-1} = r_{m-1}, h its one gap. The knots are
    strictly increasing integers, so every gap is at least 1 and every row
    is strictly diagonally dominant: 2 (h_{i-1} + h_i) > h_{i-1} + h_i and
    2 h > h. No pivot of the elimination is ever zero, so the system is never
    singular and needs no pivoting (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, ch. 9). All systems are solved
    together by one parallel cyclic reduction (``_pcr``). The Hermite
    coefficients and the piecewise evaluation repeat ``PPoly``'s operations;
    the splines differ from ``CubicSpline``'s only by the round-off of another
    elimination order, within 1e-11 of the largest knot value. Each system's
    knots have ``knots[0] <= 0`` and ``knots[-1] >= n - 1``, as ``_knots``
    makes them, so each interval's points are counted rather than searched for.
    """
    x, s, c1, c0, counts = _coefficients(knots, y, size, n)
    # PPoly's (((0.0 + y) + s z) + c1 z^2) + c0 (z^2 z), from the constant
    # term up, accumulated in place: each sample sees the same operations
    z = x[:-1].repeat(counts)
    np.subtract(t, z, out=z)
    env = y[:-1].repeat(counts)
    env += 0.0
    term = s[:-1].repeat(counts)
    term *= z
    env += term
    z2 = np.multiply(z, z, out=term)
    term = c1.repeat(counts)
    term *= z2
    env += term
    del term  # freed before c0's repeat is made
    z2 *= z
    term = c0.repeat(counts)
    term *= z2
    env += term
    return env


def _coefficients(knots: np.ndarray, y: np.ndarray, size: np.ndarray, n: np.ndarray):
    """The knots as floats, the knot slopes s, the cubic Hermite coefficients
    c1 and c0 of each interval, and the number of sample indices in each
    interval, for ``_splines``; the solve's working arrays are freed on
    return, before the evaluation makes its sample-sized ones."""
    x = knots.astype(float)
    end = size.cumsum()
    first, last = end - size, end - 1
    dx = x[1:] - x[:-1]  # the entries between two systems are never read
    dy = y[1:] - y[:-1]
    slope = dy / dx
    gaps = np.concatenate([[0.0], dx, [0.0]])
    gaps[first] = 0.0  # the knot gaps either side of each knot, 0 past a system's end
    left, right = gaps[:-1], gaps[1:]
    lower, upper = right.copy(), left.copy()  # interior rows
    lower[last], upper[first] = left[last], right[first]  # the end rows
    lower[first] = upper[last] = 0.0  # no coupling between two systems
    r = np.empty(len(x))
    r[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    r[first] = 3 * dy[first]
    r[last] = 3 * dy[last - 1]
    s = _pcr(lower, 2 * (left + right), upper, r, int(size.max()))
    tc = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = tc / dx
    c1 = (slope - s[:-1]) / dx - tc
    # interval of each t, as PPoly finds it: the last knot <= t, and the
    # last interval for t at or beyond the last knot
    edges = np.minimum(np.maximum(knots, 0), n.repeat(size))
    counts = edges[1:] - edges[:-1]
    counts[last[:-1]] = 0  # between two systems
    counts[last - 1] = n - edges[last - 1]
    return x, s, c1, c0, counts


def _envelope_means(lay: _Layout, e: np.ndarray, v: np.ndarray, count: np.ndarray, mirror: int):
    """Pointwise mean of the upper and lower envelopes of each series of
    ``lay``, concatenated. ``e``, ``v`` and ``count`` give each system's
    extrema (local positions and values): every series' maxima, then every
    series' minima. The mean is formed in the first half of the evaluation
    buffer; its second half, free once the mean is formed, is returned
    with it for the caller to reuse."""
    knots, values, size = _knots(e, v, count, lay.n2, mirror)
    env = _splines(knots, values, size, lay.n2, lay.t2)
    half = len(env) // 2
    m, spare = env[:half], env[half:]
    m += spare
    m *= 0.5
    return m, spare


def _envelopes_vanish(n_maxima: int, n_minima: int) -> bool:
    """Whether a series with these extrema counts has no envelope pair: a
    spline envelope needs 2 knots, so fewer than 2 extrema on either side
    ends sifting (a trend) rather than failing it."""
    return n_maxima < 2 or n_minima < 2


def envelope_mean(
    x: np.ndarray,
    maxima: np.ndarray,
    minima: np.ndarray,
    mirror: int = 2,
) -> np.ndarray | None:
    """Pointwise mean of the upper and lower natural cubic spline envelopes.

    Both envelopes come from one batched spline solve (``_splines``). Returns
    None when the envelopes vanish (``_envelopes_vanish``).
    """
    x = np.asarray(x, dtype=float)
    if _envelopes_vanish(len(maxima), len(minima)):
        return None
    e = np.concatenate([maxima, minima])
    count = np.array([len(maxima), len(minima)])
    return _envelope_means(_Layout(np.array([len(x)])), e, x[e], count, mirror)[0]


def _rms_of(sq: np.ndarray, a: int, b: int) -> float:
    """The rms ``np.sqrt(np.mean(np.square(x[a:b])))`` from the squares
    ``sq[a:b]``, bit for bit: np.mean sums the slice by numpy's pairwise sum,
    which np.add.reduceat (a running sum) would not reproduce."""
    return math.sqrt(np.add.reduce(sq[a:b]) / (b - a))


def _sift_all(xs: list[np.ndarray], cfg: SiftConfig, max_imfs: int) -> list:
    """Sift every series of xs (each of at least 3 samples) in lockstep,
    peeling off up to ``max_imfs`` IMFs each.

    Returns, per series, its sift results and its residue: one result per
    IMF, in order, then a residue-like one if its envelopes vanished first. A candidate is one
    IMF when it is balanced and its envelope mean is small, or after
    ``max_sifts_per_imf`` subtractions (flagged non-converged); vanishing
    envelopes (``_envelopes_vanish``) end the series: at its first sift this
    is the trend test of the residue.
    The array work of a step runs once on the concatenation; the stop rules
    are a few scalar tests per series, cheaper in Python than as numpy
    masks at the batch widths the callers run.
    """
    out: list = [None] * len(xs)  # None while the series still sifts
    if not xs:
        return out
    lay = _Layout(np.array([len(x) for x in xs]))
    h = np.concatenate(xs)  # each series' candidate
    residue = h.copy()
    ids = list(range(len(xs)))  # each batch member's position in xs
    n_sifts = [0] * len(xs)
    results: list[list[SiftResult]] = [[] for _ in xs]
    tol = cfg.envelope_tolerance
    while True:
        maxima, minima, crossings = _extrema(h, lay)
        ext = np.concatenate([maxima, minima])
        ends = np.concatenate([maxima.searchsorted(lay.start), minima.searchsorted(lay.edges) + len(maxima)])
        count = ends[1:] - ends[:-1]  # extrema per system: every series' maxima, then minima
        e, v = ext - lay.start2.repeat(count), h[ext]
        counts = list(zip(count[: len(ids)].tolist(), count[len(ids) :].tolist(), crossings.tolist()))
        for s, ((a, b), i, c) in enumerate(zip(lay.bounds, ids, counts)):
            if out[i] is None and _envelopes_vanish(*c[:2]):
                last = SiftResult(h[a:b].copy(), n_sifts[s], False, *c, residue_like=True)
                out[i] = (results[i] + [last], residue[a:b].copy())
        keep = [out[i] is None for i in ids]
        if not all(keep):  # the series that ended leave the batch
            ids, n_sifts, counts = ([a for a, k in zip(seq, keep) if k] for seq in (ids, n_sifts, counts))
            if not ids:
                return out
            rows, samples = np.repeat(keep + keep, count), np.repeat(keep, lay.n)
            e, v, count = e[rows], v[rows], count[keep + keep]
            lay, h, residue = _Layout(lay.n[keep]), h[samples], residue[samples]

        m, spare = _envelope_means(lay, e, v, count, cfg.boundary_mirror_count)
        h_next = h - m
        # m is spent: its buffer takes its squares, and env's spare half h's
        sq_m, sq_h = np.square(m, out=m), np.square(h, out=spare)
        for s, ((a, b), i, (n_max, n_min, crossings)) in enumerate(zip(lay.bounds, ids, counts)):
            rx = _rms_of(sq_h, a, b)
            converged = abs(n_max + n_min - crossings) <= 1 and rx > 0.0 and _rms_of(sq_m, a, b) <= tol * rx
            if not converged and n_sifts[s] < cfg.max_sifts_per_imf:
                n_sifts[s] += 1
                continue
            results[i].append(SiftResult(h[a:b].copy(), n_sifts[s], converged, n_max, n_min, crossings))
            residue[a:b] -= h[a:b]
            h_next[a:b] = residue[a:b]  # the next IMF's sifting starts from the residue
            n_sifts[s] = 0
            if len(results[i]) == max_imfs:
                out[i] = (results[i], residue[a:b].copy())
        h = h_next


def sift(x: np.ndarray, cfg: SiftConfig = SiftConfig()) -> SiftResult:
    """Refine a candidate by repeated envelope-mean subtraction.

    Stops at the first iterate satisfying both IMF conditions, or after
    ``max_sifts_per_imf`` subtractions (flagged non-converged). If the
    envelopes vanish mid-sift the current iterate is returned residue-like.
    """
    x = np.asarray(x, dtype=float)
    if error := _unsiftable(x):
        raise error
    ((results, _),) = _sift_all([x], cfg, 1)
    return results[-1]


def cycle(n_maxima: int, n_minima: int, series_len: int) -> float:
    """Mean period estimate from extrema counts: 2 * len / (#max + #min - 1)."""
    denom = n_maxima + n_minima - 1
    if denom < 1:
        raise DataError("cycle undefined: fewer than 2 extrema (residue/trend case)")
    return series_len / denom * 2.0


def decompose_all(xs: list[np.ndarray], cfg: SiftConfig = SiftConfig()) -> list[ImfSet | DataError]:
    """Decompose each series of xs in lockstep: per series, its ImfSet, or
    the error raised for it (``_unsiftable``'s, at ``MIN_SAMPLES``). Each
    result is the one ``decompose`` gives for that series alone. Consecutive
    series are sifted together in batches of at most ``_LOCKSTEP_SAMPLES``."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    out: list = [None] * len(xs)
    batches, size = [[]], 0
    for i, x in enumerate(xs):
        if (error := _unsiftable(x, MIN_SAMPLES, "to decompose")) is not None:
            out[i] = error
            continue
        if size + len(x) > _LOCKSTEP_SAMPLES:
            batches.append([])
            size = 0
        batches[-1].append(i)
        size += len(x)
    for batch in batches:
        for i, result in zip(batch, _sift_all([xs[i] for i in batch], cfg, cfg.max_imfs)):
            out[i] = _imf_set(*result, len(xs[i]))
    return out


def _decomposed(result: ImfSet | EmdHedgeError) -> ImfSet:
    """One series' ``decompose_all`` result: its ImfSet, or its error raised
    without an earlier raise's traceback (a stored error is raised again)."""
    if isinstance(result, EmdHedgeError):
        raise result.with_traceback(None)
    return result


def _imf_set(sifted: list[SiftResult], residue: np.ndarray, n: int) -> ImfSet:
    """The decomposition of a series of n samples from its sift results and residue."""
    imfs = []
    for k, r in enumerate((r for r in sifted if not r.residue_like), start=1):
        counts = (r.n_maxima, r.n_minima, r.n_zero_crossings)
        imfs.append(Imf(r.values, k, cycle(r.n_maxima, r.n_minima, n), *counts, r.n_sifts, r.converged))
    return ImfSet(imfs=tuple(imfs), residue=residue, source_len=n)


def decompose(x: np.ndarray, cfg: SiftConfig = SiftConfig()) -> ImfSet:
    """Full decomposition: extract IMFs until only a trend remains.

    Reconstruction is exact up to float error because sifting is pure
    subtraction. Each emitted IMF carries its extrema counts and cycle.
    """
    return _decomposed(*decompose_all([x], cfg))
