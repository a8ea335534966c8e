"""Bridges the six estimators into the cross-validation harness.

A ratio function (``cpcv.RatioFn``) takes the training segments (merged
index ranges) of a batch of CV splits and returns each split's hedge ratio,
or the error its fit raises. EMD methods support two decomposition scopes:

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
their condition number. All splits of a call are fitted together: their
stacks, zero-padded to one array, take one batched QR, and the estimator's
checks, rank rule, solve, ECM fallback and EECM lag search each run once
over the batch as array masks, so numpy's per-call overhead is paid per
call, not per split.

Per-segment decompositions are memoized in a dict keyed by (leg, start,
stop). The CLI's CV stage passes one dict to every ratio function it builds,
so each distinct training segment of each leg is decomposed once per stage,
however many methods, rows and splits reuse it. That scope pools its rows and
fits them with ``ols``, as decomposition dominates its cost.
"""

from __future__ import annotations

import numpy as np

from .cpcv import RatioFn
from .emd import MIN_SAMPLES, ImfSet, SiftConfig, decompose
from .errors import DataError, InsufficientDataError, NumericError, SingularDesignError
from .estimators import (
    ECM_RANK_DEFICIENT,
    MIN_OBS,
    NO_EECM_FIT,
    Method,
    _check_futures_variance,
    _check_rows,
    _eecm_select,
    _full_rank,
    _with_u,
    aggregate_imfs,
    ols,
    pair_imfs,
)
from .series import PriceSeries

__all__ = ["design_rows", "pool", "make_ratio_fn"]

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
        self.start = np.flatnonzero(np.diff(first, prepend=-1) | np.diff(last, prepend=-1))
        self.rows = rows
        self.first, self.last = first[self.start], last[self.start]
        self.count = np.diff(np.append(self.start, len(rows)))
        # one batched QR of the zero-padded bucket blocks (zero rows leave R
        # as it is), plus a zero R that pads the split stacks
        q = rows.shape[1]
        offset = np.arange(max(q, int(self.count.max(initial=0))))
        inside = offset < self.count[:, None]
        blocks = np.zeros((len(self.start), len(offset), q))
        blocks[inside] = rows[(self.start[:, None] + offset)[inside]]
        self.r = np.concatenate([np.linalg.qr(blocks, mode="r"), np.zeros((1, q, q))])
        x = rows[:, 1]  # the futures column
        self.x_min, self.x_max = np.minimum.reduceat(x, self.start), np.maximum.reduceat(x, self.start)

    def select(self, train: np.ndarray) -> np.ndarray:
        """(splits, buckets) mask of the buckets each split uses, from its
        training groups ``train`` (splits, groups): those whose groups, first
        to last, all train."""
        gaps = np.cumsum(~train, axis=1)
        return train[:, self.first] & (gaps[:, self.last] == gaps[:, self.first])

    def stack(self, use: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row counts, R stacks): per split, the used buckets' R factors in
        bucket order, zero-padded to one (splits, kmax * q, q) array."""
        slot = np.full((len(use), max(int(use.sum(axis=1).max(initial=0)), 1)), len(self.count))
        s, b = np.nonzero(use)
        slot[s, (np.cumsum(use, axis=1) - 1)[s, b]] = b
        return use @ self.count, self.r[slot].reshape(len(use), -1, self.r.shape[2])

    def check_futures_variance(self, out: _Outcomes, use: np.ndarray) -> None:
        """``_check_futures_variance`` on each split's used rows. Only splits
        whose futures spread by at most 1e-140 can fail it: a larger spread
        bounds the variance above spread^2 / 4n > 1e-300."""
        def check(s: int) -> None:
            spans = zip(self.start[use[s]], self.count[use[s]])
            _check_futures_variance(np.concatenate([self.rows[a : a + c, 1] for a, c in spans]))

        hi = np.where(use, self.x_max, -np.inf).max(axis=1, initial=-np.inf)
        lo = np.where(use, self.x_min, np.inf).min(axis=1, initial=np.inf)
        out.check(hi - lo <= 1e-140, check)


class _Outcomes:
    """Per split of a batch, its ratio or the first exception it raises."""

    def __init__(self, n: int):
        self.errors: list = [None] * n
        self.live = np.ones(n, dtype=bool)

    def check(self, mask: np.ndarray, check) -> None:
        """Run ``check(s)`` on each live split s in ``mask``; a split whose
        check raises fails with that exception."""
        for s in np.flatnonzero(self.live & mask).tolist():
            try:
                check(s)
            except (DataError, NumericError) as exc:
                self.errors[s], self.live[s] = exc, False

    def fail(self, mask: np.ndarray, error) -> None:
        """Fail each live split s in ``mask`` with the exception ``error(s)``."""
        self.check(mask, lambda s: _raise(error(s)))


def _raise(exc: Exception):
    raise exc


def _solve(r: np.ndarray, p: int, ok: np.ndarray) -> np.ndarray:
    """Coefficients of y (the last column of each R factor in ``r``) on the
    first p columns, for the factors in ``ok``; zeros elsewhere. Only those
    are solved: one singular factor would fail a batched solve."""
    coef = np.zeros((len(r), p))
    if ok.any():
        coef[ok] = np.linalg.solve(r[ok, :p, :p], r[ok, :p, -1:])[..., 0]
    return coef


def _coef(out: _Outcomes, n: np.ndarray, r: np.ndarray, p: int, fit: np.ndarray):
    """``ols``'s checks for y on the first p columns of the R factors in
    ``r`` (of n rows) of the splits in ``fit``: too few rows fail the split
    in ``out``; returns (full-rank mask, coefficients of those splits)."""
    out.fail(fit & (n <= p + 1), lambda s: InsufficientDataError(f"{n[s]} observations for {p} coefficients"))
    ok = fit & out.live
    ok[ok] = _full_rank(np.linalg.svd(r[ok, :p, :p], compute_uv=False), n[ok], p)
    return ok, _solve(r, p, ok)


def _slope(out: _Outcomes, n: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``ols`` of y on [1, x] for every live split; a rank-deficient split fails."""
    ok, coef = _coef(out, n, r, 2, out.live)
    out.fail(~ok, lambda s: SingularDesignError("regressor matrix is rank deficient"))
    return coef


def _fit_splits(method: Method, horizon: int, max_lag: int, rows: _Buckets, levels, train: np.ndarray) -> list:
    """The estimator's ratio, or the exception it raises, on each split's
    rows inside its training groups ``train`` (splits, groups), from bucket
    Rs: the same checks in the same order, each as a mask over the batch."""
    out = _Outcomes(len(train))
    use = rows.select(train)
    n, stack = rows.stack(use)
    if method is Method.EECM:  # the cointegrating regression comes first
        n_lv, lv = levels.stack(levels.select(train))
        coef = _slope(out, n_lv, np.linalg.qr(lv, mode="r"))
        stack = _with_u(stack, coef[:, 0, None, None], coef[:, 1, None, None], include_u=True)
    out.check(n < MIN_OBS, lambda s: _check_rows(method, int(n[s]), horizon))
    rows.check_futures_variance(out, use)
    r = np.linalg.qr(stack, mode="r")
    ratio = np.full(len(train), np.nan)
    if method is Method.EECM:
        m, n_, rms = _eecm_select(r, np.where(out.live, n, 0), 3, max_lag)  # 0 rows: no candidate
        out.fail(m < 0, lambda s: SingularDesignError(NO_EECM_FIT))
        for mi, ni in set(zip(m[out.live].tolist(), n_[out.live].tolist())):
            won = out.live & (m == mi) & (n_ == ni)
            ratio[won] = _solve(rms[mi], 3 + mi + ni, won)[won, 1]
    elif method is Method.ECM:  # ``_ecm_fallback``: each p fits the splits p + 1 left
        pending = out.live.copy()
        for p in (4, 3, 2):
            ok, coef = _coef(out, n, r, p, pending)
            ratio[ok] = coef[ok, 1]
            pending &= out.live & ~ok
        out.fail(pending, lambda s: SingularDesignError(ECM_RANK_DEFICIENT))
    else:
        ratio = _slope(out, n, r)[:, 1]
    return [r if e is None else e for r, e in zip(ratio.tolist(), out.errors)]


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
    """Batched ratio function (``cpcv.RatioFn``) of one (method, horizon) on
    the given series pair.

    Full-scope and conventional ratios fit a whole batch at once from the
    bucket R factors. They bucket the rows by ``groups``, the CV partition's
    groups (default: the whole series as one group), so each split's
    segments must be unions of groups. The per-segment scope fits split by
    split; ``decompositions`` memoizes its decompositions: share one dict
    between ratio functions of the same series pair and SiftConfig.
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

        def per_segment_ratio(segments: tuple[range, ...]) -> float:
            ys, xs = [], []
            for seg in segments:
                if len(seg) < MIN_SAMPLES:
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

        def per_segment_fn(batch) -> list:
            out = []
            for segments in batch:
                try:
                    out.append(per_segment_ratio(segments))
                except (DataError, NumericError) as exc:
                    out.append(exc)
            return out

        return per_segment_fn

    groups = groups or (range(0, len(spot)),)
    first = {g.start: i for i, g in enumerate(groups)}
    last = {g.stop: i for i, g in enumerate(groups)}
    built: list = []  # (row buckets, EECM's level buckets) once built

    def buckets():
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

    def fn(batch) -> list:
        if not built:
            # built on first use and kept only once built, so a sample that
            # cannot be formed (AEMD with no IMF under the horizon) fails
            # every split of every call, as the estimator does
            try:
                built.append(buckets())
            except (DataError, NumericError) as exc:
                return [exc] * len(batch)
        train = np.zeros((len(batch), len(groups)), dtype=bool)
        for s, segments in enumerate(batch):
            for seg in segments:
                train[s, first[seg.start] : last[seg.stop] + 1] = True
        return _fit_splits(method, horizon, max_lag, *built[0], train)

    return fn
