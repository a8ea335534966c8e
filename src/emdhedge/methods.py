"""Bridges the six estimators into the cross-validation harness.

A ratio function (``cpcv.RatioFn``) takes the training mask (splits,
partition groups) of a batch of CV splits and returns each split's hedge
ratio, or the error its fit gives. EMD methods support two decomposition
scopes:

- ``full``: decompose the whole series once and restrict regression samples
  to the training indices (matches single-decomposition reporting, but the
  decomposition itself sees test data);
- ``per-segment``: re-run the decomposition on each training segment (a
  maximal run of adjacent training groups, ``training_segments``) and pool
  the segments' rows, eliminating look-ahead: a split's outcome (ratio or
  error) reads no price of its test groups, as an MV, ECM or EECM one does.

Rows come from the estimators' row builder, ``estimators.design_rows``: a
method's regression rows [1, design | y], each with its footprint [i, i +
back], the indices it reads. Both scopes fit from row blocks, each with the
(first, last) partition groups its rows read and one thin QR factor R. The
full scope's blocks are the runs of whole-series rows whose footprints touch
the same groups, and a split uses those whose groups all train; the
per-segment scope's blocks are a batch's training segments, and a split uses
those that are exactly its own. A split stacks the R of its blocks and takes
one QR of the stack (TSQR's stacked-R reduction); that small R gives the
split's slope, rank rule and residual sums of squares, at O(N p^2) per
split, not O(T p). QR, never X'X: ECM's log levels are nearly collinear, and
X'X would square their condition number. All splits of a call are fitted
together: their stacks, zero-padded to the widest, take a batched QR in
chunks of splits, and the checks, rank rule, solve, ECM fallback and EECM
lag search each run once over the batch as array masks, so numpy's per-call
overhead is paid per call, not per split. A split's outcome is the one it
gets alone bit for bit up to 128 design columns, within round-off above.
"""

from __future__ import annotations

import numpy as np

from .cpcv import RatioFn
from .emd import ImfSet, _decomposed
from .errors import DataError, InsufficientDataError, NumericError, SingularDesignError
from .estimators import (
    ECM_RANK_DEFICIENT,
    ECM_REDUCTIONS,
    MIN_OBS,
    NO_EECM_FIT,
    RANK_DEFICIENT,
    Method,
    _eecm_factor,
    _eecm_select,
    _full_rank,
    _legs,
    _min_rows,
    _too_few_obs,
    _too_few_rows,
    _with_u,
    design_rows,
)
from .series import PriceSeries

__all__ = ["make_ratio_fn", "training_segments"]

EMD_FAMILY = (Method.VEMD, Method.SEMD, Method.AEMD)
# most floats of split stacks built and factored at once (256 KB, as the sift's
# lockstep arrays); every chunk keeps the batch's zero padding: past 128 columns
# (EECM's 2L + 5) LAPACK's blocked QR changes bits with the number of zero rows.
# Only the stacking is chunked: at this rule an EECM chunk is often one split, and also
# chunking the lag search, winners' factors and solves cut an EECM call over 4,845 splits
# (T=4000 seed-3 synth, equal:20, k=4, h=5, one BLAS thread) from 88 to 14 MB of tracemalloc
# peak, same ratios, but took 3.2-3.8 s, not 1.4 s; in chunks of 64 splits, 1.3-1.4 s
_STACK_FLOATS = 1 << 15


def training_segments(groups: tuple[range, ...], train: np.ndarray) -> dict[tuple[int, int], range]:
    """The distinct training segments of the splits whose training groups are
    ``train`` (splits, groups): each maximal run a..b of adjacent training
    groups, as (a, b) -> its observations, in sorted (a, b) order."""
    # a segment a..b starts where a split's mask steps up and ends before it steps down
    step = np.diff(np.pad(train, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    starts, stops = np.nonzero(step == 1)[1], np.nonzero(step == -1)[1]
    spans = sorted(set(zip(starts.tolist(), (stops - 1).tolist())))
    return {(a, b): range(groups[a].start, groups[b].stop) for a, b in spans}


class _Buckets:
    """One thin R factor per block: a run of ``rows`` that read the same
    (first, last) partition groups, given per row. Per-segment blocks
    (``left_out`` not None) are training segments, and ``left_out`` says why
    each other training segment of the batch has no block."""

    def __init__(self, rows: np.ndarray, first: np.ndarray, last: np.ndarray, left_out: dict | None = None):
        self.start = np.flatnonzero(np.diff(first, prepend=-1) | np.diff(last, prepend=-1))
        self.left_out = left_out
        self.first, self.last = first[self.start], last[self.start]
        self.count = np.diff(np.append(self.start, len(rows)))
        # one batched QR of the zero-padded blocks (zero rows leave R as it
        # is), plus a zero R that pads the split stacks; no rows build neither
        q = rows.shape[1]
        offset = np.arange(max(q, int(self.count.max(initial=0))) if len(rows) else 0)
        inside = offset < self.count[:, None]
        blocks = np.zeros((len(self.start), len(offset), q))
        blocks[inside] = rows[(self.start[:, None] + offset)[inside]]
        r = np.linalg.qr(blocks, mode="r")
        self.r = np.concatenate([r, np.zeros_like(r[:1])])

    def why_no_rows(self, train: np.ndarray, horizon: int) -> InsufficientDataError:
        """Per-segment: the error of a split training on groups ``train`` that
        has no rows, naming why its first training segment has none."""
        a = int(train.argmax())
        why = self.left_out[a, a + int(np.append(train[a:], False).argmin()) - 1]
        return InsufficientDataError(f"no training segment yields rows at horizon {horizon} ({why})")

    def stack(self, train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row counts, slots): per split training on groups ``train`` (splits,
        groups), the indices into ``r`` of the blocks it uses, padded with the
        zero R's to one (splits, kmax) array: those whose groups, first to last,
        all train, and for per-segment blocks neither neighbour does."""
        gaps = np.cumsum(~train, axis=1)
        use = train[:, self.first] & (gaps[:, self.last] == gaps[:, self.first])
        if self.left_out is not None:
            edged = np.pad(train, ((0, 0), (1, 1)))
            use &= ~edged[:, self.first] & ~edged[:, self.last + 2]
        slot = np.full((len(use), max(int(use.sum(axis=1).max(initial=0)), 1)), len(self.count))
        s, b = np.nonzero(use)
        slot[s, (np.cumsum(use, axis=1) - 1)[s, b]] = b
        return use @ self.count, slot

    def stacks(self, slot: np.ndarray) -> np.ndarray:
        """The R stacks of ``slot``'s splits, as one (splits, kmax * q, q) array."""
        return self.r[slot].reshape(len(slot), -1, self.r.shape[2])


class _Outcomes:
    """Per split of a batch, its ratio or the first error its fit gives."""

    def __init__(self, n: int):
        self.errors: list = [None] * n
        self.live = np.ones(n, dtype=bool)

    def fail(self, mask: np.ndarray, error) -> None:
        """Fail each live split s in ``mask`` with the exception ``error(s)``."""
        for s in np.flatnonzero(self.live & mask).tolist():
            self.errors[s], self.live[s] = error(s), False


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
    out.fail(fit & (n < _min_rows(p)), lambda s: _too_few_rows(n[s], p))
    ok = fit & out.live
    ok[ok] = _full_rank(np.linalg.svd(r[ok, :p, :p], compute_uv=False), n[ok], p)
    return ok, _solve(r, p, ok)


def _slope(out: _Outcomes, n: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``ols`` of y on [1, x] for every live split; a rank-deficient split fails."""
    ok, coef = _coef(out, n, r, 2, out.live)
    out.fail(~ok, lambda s: SingularDesignError(RANK_DEFICIENT))
    return coef


def _fit_splits(method: Method, horizon: int, max_lag: int, rows: _Buckets, levels, train: np.ndarray) -> list:
    """The estimator's ratio, or the error its fit gives, on each split's
    rows inside its training groups ``train`` (splits, groups), from bucket Rs:
    the same checks in the same order, each a mask over the batch for ``out.fail``."""
    out = _Outcomes(len(train))
    n, slot = rows.stack(train)
    if method is Method.EECM:  # the cointegrating regression comes first
        n_lv, lv = levels.stack(train)
        coef = _slope(out, n_lv, np.linalg.qr(levels.stacks(lv), mode="r"))
    if rows.left_out is not None:
        out.fail(n == 0, lambda s: rows.why_no_rows(train[s], horizon))
    out.fail(n < MIN_OBS, lambda s: _too_few_obs(method, int(n[s]), horizon))
    if not out.live.any():  # every split has failed: nothing left to fit
        return list(out.errors)

    def factor(s: slice) -> np.ndarray:
        """The R factors of the stacks of splits ``s``, EECM's after ``_with_u``."""
        stack = rows.stacks(slot[s])
        if method is Method.EECM:
            stack = _with_u(stack, coef[s, 0, None, None], coef[s, 1, None, None])
        return np.linalg.qr(stack, mode="r")

    step = max(1, _STACK_FLOATS // slot[0].size // rows.r[0].size)
    r = np.concatenate([factor(slice(i, i + step)) for i in range(0, len(slot), step)])
    ratio = np.full(len(train), np.nan)
    if method is Method.EECM:
        m, n_ = _eecm_select(r, np.where(out.live, n, 0), 3, max_lag)  # 0 rows: no candidate
        out.fail(m < 0, lambda s: SingularDesignError(NO_EECM_FIT))
        for mi, ni in set(zip(m[out.live].tolist(), n_[out.live].tolist())):
            won = out.live & (m == mi) & (n_ == ni)
            ratio[won] = _solve(_eecm_factor(r[won], mi, 3, max_lag), 3 + mi + ni, won[won])[:, 1]
    elif method is Method.ECM:  # ``ECM_REDUCTIONS`` in order: each p fits the splits p + 1 left
        pending = out.live.copy()
        for p in ECM_REDUCTIONS:
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
    imfs: tuple[ImfSet, ImfSet] | dict[range, tuple] | None = None,
    max_lag: int = 10,
    log_levels: bool = True,
    groups: tuple[range, ...] | None = None,
) -> RatioFn:
    """Batched ratio function (``cpcv.RatioFn``) of one (method, horizon) on
    the given series pair.

    A batch is a training mask (splits, ``groups``) over the CV partition's
    groups (default: the whole series as group 0). Each call builds its row
    blocks and fits the batch from them at once. An EMD method's ``imfs``
    sets its decomposition scope: the whole-series (spot, futures)
    decompositions give the full scope, blocks from the whole series; a dict
    of each training segment's (spot, futures) decompositions, each an
    ImfSet or the error decomposing it raised, gives the per-segment scope,
    blocks from the batch's training segments. The other methods take their
    blocks from the whole series and read no ``imfs``.
    """
    if method in EMD_FAMILY and imfs is None:
        raise ValueError("EMD methods need decompositions")
    groups = groups or (range(0, len(spot)),)

    def segment_buckets(train: np.ndarray) -> _Buckets:
        """One block per distinct training segment a..b of the batch, left
        out if decomposing it or ``_legs`` raise ``DataError`` or it has no rows."""
        blocks, left_out = {}, {}
        for (a, b), seg in training_segments(groups, train).items():
            try:
                s_set, f_set = map(_decomposed, imfs[seg])  # spot first
                s, f = _legs(method, s_set, f_set, horizon, imf_index)
                rows, _ = design_rows(method, s, f, horizon)
                if not len(rows):
                    raise _too_few_obs(method, 0, horizon)
            except DataError as exc:
                left_out[a, b] = f"groups {a}-{b}: {exc}"
                continue
            blocks[a, b] = rows
        labels = np.array(list(blocks), dtype=int).reshape(-1, 2)  # (first, last) of each block
        first, last = np.repeat(labels, [len(r) for r in blocks.values()], axis=0).T
        return _Buckets(np.concatenate([*blocks.values(), np.empty((0, 3))]), first, last, left_out)

    def buckets():  # full scope: row i reads groups gid[i] to gid[i + back]
        if method in EMD_FAMILY:
            s, f = _legs(method, *imfs, horizon, imf_index)
        else:
            s, f = spot.values, fut.values
        gid = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        rows, back = design_rows(method, s, f, horizon, max_lag, log_levels)
        rows = _Buckets(rows, gid[: len(rows)], gid[back : back + len(rows)])
        if method is not Method.EECM:
            return rows, None
        level = np.log if log_levels else np.asarray
        # the cointegrating regression has SEMD's rows [1, F | S], on levels
        lv, _ = design_rows(Method.SEMD, level(s), level(f), 0)
        return rows, _Buckets(lv, gid[: len(lv)], gid[: len(lv)])

    def fn(train: np.ndarray) -> list:
        if method in EMD_FAMILY and isinstance(imfs, dict):  # the per-segment scope
            return _fit_splits(method, horizon, max_lag, segment_buckets(train), None, train)
        try:
            rows, levels = buckets()
        except (DataError, NumericError) as exc:  # no sample (AEMD with no IMF under the horizon)
            return [exc] * len(train)  # fails every split, as the estimator does
        return _fit_splits(method, horizon, max_lag, rows, levels, train)

    return fn
