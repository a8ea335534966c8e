"""Bridges the six estimators into the cross-validation harness.

A ratio function maps the merged training index ranges to one hedge ratio.
EMD methods support two decomposition scopes:

- ``full``: decompose the whole series once and restrict regression samples
  to the training indices (matches single-decomposition reporting, but the
  decomposition itself sees test data);
- ``per-segment``: re-run the decomposition on each contiguous training
  segment and pool regression observations, eliminating look-ahead.

Full-scope and conventional ratios come from one row builder, shared with
the public estimators: ``design_rows`` forms a method's regression rows
[1, design | y] over the whole series once. Row i has the footprint
[i, i + back], the indices it reads: back is h for MV, ECM and VEMD, h +
max_lag for EECM and 0 for SEMD and AEMD. A training sample uses a row iff
its footprint lies inside one training segment.

A ratio function buckets the rows by the (first, last) partition group their
footprint touches and keeps one thin QR factor R per bucket. A split stacks
the R of the buckets inside its training segments and takes one QR of the
stack (TSQR's stacked-R reduction); that small R gives the split's slope,
rank rule and residual sums of squares, at O(N p^2) per split, not O(T p).
QR, never X'X: ECM's log levels are nearly collinear, and X'X would square
their condition number.

Per-segment decompositions are memoized in a dict keyed by (leg, start,
stop). The CLI's CV stage passes one dict to every ratio function it builds,
so each distinct training segment of each leg is decomposed once per stage,
however many methods, rows and splits reuse it. That scope pools its rows and
fits them with ``ols``, as decomposition dominates its cost.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .emd import ImfSet, SiftConfig, decompose
from .errors import DataError, InsufficientDataError, SingularDesignError
from .estimators import (
    MIN_OBS,
    Method,
    _check_futures_variance,
    _check_rows,
    _ecm_fallback,
    _eecm_select,
    _full_rank,
    _with_u,
    aggregate_imfs,
    ols,
    pair_imfs,
)
from .series import PriceSeries

__all__ = ["RatioFn", "design_rows", "pool", "make_ratio_fn"]

RatioFn = Callable[[tuple[range, ...]], float]

EMD_FAMILY = (Method.VEMD, Method.SEMD, Method.AEMD)


def design_rows(
    method: Method,
    s: np.ndarray,
    f: np.ndarray,
    horizon: int,
    max_lag: int = 0,
    log_levels: bool = True,
) -> tuple[np.ndarray, int]:
    """(rows, back): the regression rows [1, design | y] of ``method`` and
    their footprint length, row i reading indices [i, i + back].

    ``s`` and ``f`` are prices for MV, ECM and EECM, IMF levels for the EMD
    family. EECM's rows are [1, dF, S, F, dS lags 1..L, dF lags 1..L | dS]
    with S, F the (log) levels at the earlier endpoint, which
    ``estimators._with_u`` turns into the cointegration residual.
    """
    if method in (Method.SEMD, Method.AEMD):
        return np.column_stack([np.ones(len(s)), f, s]), 0
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    ls, lf = (s, f) if method is Method.VEMD else (np.log(s), np.log(f))
    ds, df = ls[horizon:] - ls[:-horizon], lf[horizon:] - lf[:-horizon]
    if method in (Method.MV, Method.VEMD):
        return np.column_stack([np.ones(len(ds)), df, ds]), horizon
    if method is Method.ECM:
        return np.column_stack([np.ones(len(ds)), df, ls[:-horizon], lf[:-horizon], ds]), horizon
    if max_lag < 0:
        raise DataError("max_lag must be >= 0")
    lag, n = max_lag, len(ds) - max_lag
    if n <= 0:
        return np.empty((0, 5 + 2 * lag)), horizon + lag
    level = np.log if log_levels else np.asarray
    cols = [np.ones(n), df[lag:], level(s)[lag : lag + n], level(f)[lag : lag + n]]
    cols += [d[lag - i : lag - i + n] for d in (ds, df) for i in range(1, lag + 1)]
    return np.column_stack(cols + [ds[lag:]]), horizon + lag


def pool(rows: np.ndarray, back: int, segments: tuple[range, ...]) -> np.ndarray:
    """The rows whose footprint lies inside one of ``segments``, in order."""
    return np.concatenate([rows[g.start : max(g.start, g.stop - back)] for g in segments])


class _Buckets:
    """One thin R factor per run of rows whose footprints touch the same
    (first, last) groups; ``groups`` tile the series in order."""

    def __init__(self, rows: np.ndarray, back: int, groups: tuple[range, ...]):
        gid = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        first, last = gid[: len(rows)], gid[back : back + len(rows)]
        new = np.flatnonzero(np.diff(first, prepend=-1) | np.diff(last, prepend=-1))
        self.spans = list(zip(new.tolist(), new[1:].tolist() + [len(rows)]))
        self.rows = rows
        self.first, self.last = first[new], last[new]
        self.count = np.diff(np.append(new, len(rows)))
        q = rows.shape[1]
        self.r = np.zeros((len(new), q, q))
        for b, (lo, hi) in enumerate(self.spans):
            self.r[b, : min(hi - lo, q)] = np.linalg.qr(rows[lo:hi], mode="r")
        x = rows[:, 1]  # the futures column
        self.x_min = np.array([x[lo:hi].min() for lo, hi in self.spans])
        self.x_max = np.array([x[lo:hi].max() for lo, hi in self.spans])
        self.starts = {g.start: i for i, g in enumerate(groups)}
        self.stops = {g.stop: i for i, g in enumerate(groups)}

    def select(self, segments: tuple[range, ...]) -> np.ndarray:
        """The buckets inside one of ``segments``, unions of whole groups."""
        seg_of = np.full(len(self.starts), -1)
        for k, seg in enumerate(segments):
            seg_of[self.starts[seg.start] : self.stops[seg.stop] + 1] = k
        a = seg_of[self.first]
        return np.flatnonzero((a >= 0) & (a == seg_of[self.last]))

    def stack(self, sel: np.ndarray) -> tuple[int, np.ndarray]:
        """(row count, stacked R factors) of the selected buckets."""
        return int(self.count[sel].sum()), self.r[sel].reshape(-1, self.r.shape[2])

    def check_futures_variance(self, sel: np.ndarray) -> None:
        """``_check_futures_variance`` on the selected rows' futures column; a
        spread above 1e-140 bounds its variance above spread^2 / 4n > 1e-300."""
        if self.x_max[sel].max() - self.x_min[sel].min() <= 1e-140:
            _check_futures_variance(
                np.concatenate([self.rows[lo:hi, 1] for lo, hi in (self.spans[b] for b in sel)])
            )


def _coef(n: int, r: np.ndarray, p: int) -> np.ndarray:
    """``ols``'s checks and coefficients for y (the last column of the R
    factor ``r`` of n rows) on the first p columns."""
    if n <= p + 1:
        raise InsufficientDataError(f"{n} observations for {p} coefficients")
    if not _full_rank(np.linalg.svd(r[:p, :p], compute_uv=False), n, p):
        raise SingularDesignError("regressor matrix is rank deficient")
    return np.linalg.solve(r[:p, :p], r[:p, -1])


def _split_ratio(method: Method, horizon: int, max_lag: int, rows: _Buckets, levels, segments) -> float:
    """The estimator's ratio on the rows inside ``segments``, from bucket Rs."""
    sel = rows.select(segments)
    n, stack = rows.stack(sel)
    if method is Method.EECM:  # the cointegrating regression comes first
        n_lv, lv = levels.stack(levels.select(segments))
        a, b = _coef(n_lv, np.linalg.qr(lv, mode="r"), 2)
        stack = _with_u(stack, a, b, include_u=True)
    _check_rows(method, n, horizon)
    rows.check_futures_variance(sel)
    r = np.linalg.qr(stack, mode="r")
    if method is Method.EECM:
        m, n_, rm = _eecm_select(r, n, 3, max_lag)
        p = 3 + m + n_
        return float(np.linalg.solve(rm[:p, :p], rm[:p, -1])[1])
    if method is Method.ECM:
        return float(_ecm_fallback(lambda p: _coef(n, r, p))[1])
    return float(_coef(n, r, 2)[1])


def make_ratio_fn(
    method: Method,
    spot: PriceSeries,
    fut: PriceSeries,
    horizon: int,
    imf_index: int | None = None,
    spot_set: ImfSet | None = None,
    fut_set: ImfSet | None = None,
    scope: str = "full",
    max_lag: int = 10,
    cfg: SiftConfig = SiftConfig(),
    log_levels: bool = True,
    decompositions: dict | None = None,
    groups: tuple[range, ...] | None = None,
) -> RatioFn:
    """Ratio function of one (method, horizon) on the given series pair.

    ``groups``, the CV partition's groups, lets a full-scope function bucket
    its rows once for all its calls, whose segments must then be unions of
    groups; without them each call buckets by its own segments.
    ``decompositions`` memoizes the per-segment scope's decompositions; share
    one dict between ratio functions of the same series pair and SiftConfig.
    """
    if method in EMD_FAMILY and (spot_set is None or fut_set is None):
        raise ValueError("EMD methods need both decompositions")
    if method in EMD_FAMILY and scope != "full":
        cache = {} if decompositions is None else decompositions

        def imfs(leg: str, series: PriceSeries, seg: range) -> ImfSet:
            key = (leg, seg.start, seg.stop)
            if key not in cache:
                cache[key] = decompose(series.values[seg.start : seg.stop], cfg)
            return cache[key]

        def per_segment_fn(segments: tuple[range, ...]) -> float:
            ys, xs = [], []
            for seg in segments:
                if len(seg) < 8:
                    continue
                s_set, f_set = imfs("spot", spot, seg), imfs("fut", fut, seg)
                if method is Method.AEMD:
                    try:
                        y, x = aggregate_imfs(s_set, f_set, horizon)
                    except DataError:  # no IMF of this segment is under the horizon
                        continue
                elif imf_index is None or min(len(s_set.imfs), len(f_set.imfs)) < imf_index:
                    continue
                else:
                    y, x = s_set.imfs[imf_index - 1].values, f_set.imfs[imf_index - 1].values
                rows, _ = design_rows(method, y, x, horizon)
                if len(rows):
                    ys.append(rows[:, -1])
                    xs.append(rows[:, 1])
            if not ys:
                raise InsufficientDataError("no training segment yields the requested IMF")
            y, x = np.concatenate(ys), np.concatenate(xs)
            if len(y) < MIN_OBS:
                raise InsufficientDataError(f"{len(y)} pooled observations")
            return ols(y, x, intercept=True).slope

        return per_segment_fn

    built: dict = {}  # groups -> (row buckets, EECM's level buckets)

    def buckets(groups: tuple[range, ...]):
        # built on first use, so a sample that cannot be formed (AEMD with
        # no IMF under the horizon) fails each call, as the estimator does
        if method is Method.AEMD:
            s, f = aggregate_imfs(spot_set, fut_set, horizon)
        elif method in EMD_FAMILY:
            pair = pair_imfs(spot_set, fut_set)[0][imf_index - 1]
            s, f = pair.spot, pair.fut
        else:
            s, f = spot.values, fut.values
        rows = _Buckets(*design_rows(method, s, f, horizon, max_lag, log_levels), groups)
        if method is not Method.EECM:
            return rows, None
        level = np.log if log_levels else np.asarray
        # the cointegrating regression has SEMD's rows [1, F | S], on levels
        return rows, _Buckets(*design_rows(Method.SEMD, level(s), level(f), 0), groups)

    def fn(segments: tuple[range, ...]) -> float:
        key = groups
        if key is None:  # the call's segments and the gaps between them
            cuts = sorted({0, len(spot), *(i for g in segments for i in (g.start, g.stop))})
            key = tuple(range(a, b) for a, b in zip(cuts[:-1], cuts[1:]))
        if key not in built:
            built[key] = buckets(key)
        return _split_ratio(method, horizon, max_lag, *built[key], tuple(segments))

    return fn
