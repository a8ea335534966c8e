"""Bridges the six estimators into the cross-validation harness.

A ratio function maps the merged training index ranges to one hedge ratio.
EMD methods support two decomposition scopes:

- ``full``: decompose the whole series once and restrict regression samples
  to the training indices (matches single-decomposition reporting, but the
  decomposition itself sees test data);
- ``per-segment``: re-run the decomposition on each contiguous training
  segment and pool regression observations, eliminating look-ahead.

Per-segment decompositions are memoized in a dict keyed by (leg, start,
stop). The CLI's CV stage passes one dict to every ratio function it builds,
so each distinct training segment of each leg is decomposed once per stage,
however many methods, rows and splits reuse it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .emd import ImfSet, SiftConfig, decompose
from .errors import InsufficientDataError
from .estimators import (
    MIN_OBS,
    Method,
    ecm_ratio,
    eecm_ratio,
    mv_ratio,
    ols,
    pair_imfs,
    semd_ratio,
    vemd_ratio,
    aemd_ratio,
)
from .series import PriceSeries, SegmentedSeries

__all__ = ["RatioFn", "conventional_ratio_fn", "emd_ratio_fn", "make_ratio_fn"]

RatioFn = Callable[[tuple[range, ...]], float]

CONVENTIONAL = (Method.MV, Method.ECM, Method.EECM)
EMD_FAMILY = (Method.VEMD, Method.SEMD, Method.AEMD)


def conventional_ratio_fn(
    method: Method,
    spot: PriceSeries,
    fut: PriceSeries,
    horizon: int,
    max_lag: int = 10,
    log_levels: bool = True,
) -> RatioFn:
    def fn(segments: tuple[range, ...]) -> float:
        s = SegmentedSeries(spot, tuple(segments))
        f = SegmentedSeries(fut, tuple(segments))
        if method is Method.MV:
            return mv_ratio(s, f, horizon).ratio
        if method is Method.ECM:
            return ecm_ratio(s, f, horizon).ratio
        return eecm_ratio(s, f, horizon, max_lag=max_lag, log_levels=log_levels).ratio

    return fn


def _segment_imfs(
    cache: dict, leg: str, series: PriceSeries, seg: range, cfg: SiftConfig
) -> ImfSet:
    key = (leg, seg.start, seg.stop)
    if key not in cache:
        cache[key] = decompose(series.values[seg.start : seg.stop], cfg)
    return cache[key]


def _per_segment_design(
    method: Method,
    spot: PriceSeries,
    fut: PriceSeries,
    segments: tuple[range, ...],
    horizon: int,
    imf_index: int | None,
    cfg: SiftConfig,
    cache: dict,
) -> tuple[np.ndarray, np.ndarray]:
    ys, xs = [], []
    for seg in segments:
        if len(seg) < 8:
            continue
        s_set = _segment_imfs(cache, "spot", spot, seg, cfg)
        f_set = _segment_imfs(cache, "fut", fut, seg, cfg)
        if method is Method.AEMD:
            s_sel = [i.values for i in s_set.imfs if i.cycle <= horizon]
            f_sel = [i.values for i in f_set.imfs if i.cycle <= horizon]
            if not s_sel or not f_sel:
                continue
            ys.append(np.sum(s_sel, axis=0))
            xs.append(np.sum(f_sel, axis=0))
            continue
        if imf_index is None or min(len(s_set.imfs), len(f_set.imfs)) < imf_index:
            continue
        y = s_set.imfs[imf_index - 1].values
        x = f_set.imfs[imf_index - 1].values
        if method is Method.VEMD:
            if len(y) <= horizon:
                continue
            ys.append(y[horizon:] - y[:-horizon])
            xs.append(x[horizon:] - x[:-horizon])
        else:  # SEMD
            ys.append(y)
            xs.append(x)
    if not ys:
        raise InsufficientDataError("no training segment yields the requested IMF")
    return np.concatenate(ys), np.concatenate(xs)


def emd_ratio_fn(
    method: Method,
    spot: PriceSeries,
    fut: PriceSeries,
    horizon: int,
    imf_index: int | None,
    spot_set: ImfSet,
    fut_set: ImfSet,
    scope: str = "full",
    cfg: SiftConfig = SiftConfig(),
    decompositions: dict | None = None,
) -> RatioFn:
    """Ratio function for an EMD method.

    ``decompositions`` memoizes the per-segment scope's decompositions; share
    one dict between ratio functions of the same series pair and SiftConfig.
    """
    if scope == "full":
        pairs, _ = pair_imfs(spot_set, fut_set)

        def fn(segments: tuple[range, ...]) -> float:
            if method is Method.AEMD:
                return aemd_ratio(spot_set, fut_set, horizon, segments=tuple(segments)).ratio
            pair = pairs[imf_index - 1]
            if method is Method.VEMD:
                return vemd_ratio(pair, horizon, segments=tuple(segments)).ratio
            return semd_ratio(pair, horizon, segments=tuple(segments)).ratio

        return fn

    cache = {} if decompositions is None else decompositions

    def fn(segments: tuple[range, ...]) -> float:
        y, x = _per_segment_design(
            method, spot, fut, tuple(segments), horizon, imf_index, cfg, cache
        )
        if len(y) < MIN_OBS:
            raise InsufficientDataError(f"{len(y)} pooled observations")
        return ols(y, x, intercept=True).slope

    return fn


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
) -> RatioFn:
    if method in CONVENTIONAL:
        return conventional_ratio_fn(method, spot, fut, horizon, max_lag, log_levels)
    if spot_set is None or fut_set is None:
        raise ValueError("EMD methods need both decompositions")
    return emd_ratio_fn(
        method, spot, fut, horizon, imf_index, spot_set, fut_set, scope, cfg, decompositions
    )
