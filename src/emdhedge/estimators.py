"""Hedge-ratio estimators: shared OLS engine plus the six methods.

Conventional estimators (MV, ECM, EECM) regress horizon-h log-price
differences; the EMD family (vanilla, sample-saving, aggregate) regresses
price-level IMFs. When the training sample is a SegmentedSeries, differences
and lags are formed within each contiguous segment and pooled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .emd import Imf, ImfSet
from .errors import (
    DataError,
    DegenerateInputError,
    InsufficientDataError,
    SingularDesignError,
)
from .series import DiffKind, PriceSeries, SegmentedSeries, segment_diffs

__all__ = [
    "Method",
    "OlsFit",
    "HedgeEstimate",
    "ImfPair",
    "ols",
    "mv_ratio",
    "ecm_ratio",
    "eecm_ratio",
    "pair_imfs",
    "vemd_ratio",
    "semd_ratio",
    "aemd_ratio",
]

MIN_OBS = 10


class Method(Enum):
    MV = "MV"
    ECM = "ECM"
    EECM = "EECM"
    VEMD = "VEMD"
    SEMD = "SEMD"
    AEMD = "AEMD"


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit diagnostics.

    ``beta`` holds the non-intercept coefficients in design order;
    ``t_stats`` covers intercept (if any) then slopes, in the same order.
    """

    alpha: float
    beta: np.ndarray
    r_squared: float
    t_stats: np.ndarray
    residuals: np.ndarray
    n_obs: int
    aic: float
    has_intercept: bool

    @property
    def slope(self) -> float:
        return float(self.beta[0])


@dataclass(frozen=True)
class HedgeEstimate:
    method: Method
    horizon: int
    ratio: float
    fit: OlsFit
    imf_index: int | None = None
    lags: tuple[int, int] | None = None


def _full_rank(s: np.ndarray, n: int, p: int) -> bool:
    """numpy's ``matrix_rank`` rule on singular values ``s`` of an n x p
    matrix: full column rank iff all p values exceed s[0]*max(n, p)*eps."""
    return len(s) == p and s[-1] > s[0] * max(n, p) * np.finfo(float).eps


def ols(y: np.ndarray, X: np.ndarray, intercept: bool = True) -> OlsFit:
    """Least squares of y on the columns of X from one thin SVD.

    With design = U diag(s) V', the rank follows ``matrix_rank``'s rule,
    the coefficients are V (U'y / s) and the standard errors are sigma times
    the column norms of V'/s (the square roots of diag((X'X)^-1)), so no
    normal-equations inverse is formed.
    R-squared is centered when an intercept is present, uncentered otherwise.
    AIC = n*ln(SSE/n) + 2p with p the number of fitted coefficients.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = len(y)
    if X.shape[0] != n:
        raise DataError("y and X row counts differ")
    design = np.column_stack([np.ones(n), X]) if intercept else X
    p = design.shape[1]
    if n <= p + 1:
        raise InsufficientDataError(f"{n} observations for {p} coefficients")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if not _full_rank(s, n, p):
        raise SingularDesignError("regressor matrix is rank deficient")
    coef = vt.T @ ((u.T @ y) / s)
    resid = y - design @ coef
    sse = float(resid @ resid)
    if intercept:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    if tss > 0.0:
        r2 = 1.0 - sse / tss
    else:
        r2 = 1.0 if sse <= 1e-300 else 0.0
    dof = n - p
    sigma2 = sse / dof
    se = np.sqrt(sigma2) * np.linalg.norm(vt / s[:, None], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0.0, coef / se, np.sign(coef) * np.inf)
    aic = _aic(sse, n, p)
    alpha = float(coef[0]) if intercept else 0.0
    beta = coef[1:] if intercept else coef
    return OlsFit(
        alpha=alpha,
        beta=beta,
        r_squared=r2,
        t_stats=t_stats,
        residuals=resid,
        n_obs=n,
        aic=aic,
        has_intercept=intercept,
    )


def _aic(sse: float, n: int, p: int) -> float:
    return n * math.log(sse / n) + 2 * p if sse > 0.0 else -math.inf


Train = PriceSeries | SegmentedSeries


def _segments_of(x: Train) -> list[np.ndarray]:
    if isinstance(x, PriceSeries):
        return [x.values]
    return list(x.segment_values())


def _check_futures_variance(df: np.ndarray) -> None:
    if len(df) < 2 or float(np.var(df)) <= 1e-300:
        raise DegenerateInputError("futures differences have zero variance")


def mv_ratio(spot: Train, fut: Train, horizon: int, stride_block: bool = False) -> HedgeEstimate:
    """Minimum-variance ratio: slope of horizon-h log-return regression."""
    ds = segment_diffs(spot, horizon, DiffKind.LOG, stride_block)
    df = segment_diffs(fut, horizon, DiffKind.LOG, stride_block)
    if len(ds) < MIN_OBS:
        raise InsufficientDataError(
            f"{len(ds)} observations after horizon-{horizon} differencing"
        )
    _check_futures_variance(df)
    fit = ols(ds, df, intercept=True)
    return HedgeEstimate(Method.MV, horizon, fit.slope, fit)


def _ecm_design(spot: Train, fut: Train, horizon: int):
    """Pooled (dS, dF, lagged log S, lagged log F) aligned per segment."""
    ds_all, df_all, s_lag, f_lag = [], [], [], []
    for sv, fv in zip(_segments_of(spot), _segments_of(fut)):
        if len(sv) <= horizon:
            continue
        ls, lf = np.log(sv), np.log(fv)
        ds_all.append(ls[horizon:] - ls[:-horizon])
        df_all.append(lf[horizon:] - lf[:-horizon])
        s_lag.append(ls[:-horizon])
        f_lag.append(lf[:-horizon])
    if not ds_all:
        raise InsufficientDataError("no segment long enough for the horizon")
    return (np.concatenate(a) for a in (ds_all, df_all, s_lag, f_lag))


def ecm_ratio(
    spot: Train,
    fut: Train,
    horizon: int,
    include_levels: bool = True,
) -> HedgeEstimate:
    """Error-correction ratio: dS on dF plus the lagged log price levels.

    The level terms use the observation's earlier endpoint (lag = horizon).
    ``include_levels=False`` is the restricted variant, nesting back to MV.
    """
    ds, df, s_lag, f_lag = _ecm_design(spot, fut, horizon)
    if len(ds) < MIN_OBS:
        raise InsufficientDataError(f"{len(ds)} observations at horizon {horizon}")
    _check_futures_variance(df)
    if not include_levels:
        fit = ols(ds, df[:, None], intercept=True)
        return HedgeEstimate(Method.ECM, horizon, fit.slope, fit)
    # when the two level columns are collinear (e.g. identical legs), drop
    # the futures level, then both, rather than failing outright
    for cols in ([df, s_lag, f_lag], [df, s_lag], [df]):
        try:
            fit = ols(ds, np.column_stack(cols), intercept=True)
        except SingularDesignError:
            continue
        return HedgeEstimate(Method.ECM, horizon, fit.slope, fit)
    raise SingularDesignError("ECM design is rank deficient in every reduction")


def eecm_ratio(
    spot: Train,
    fut: Train,
    horizon: int,
    max_lag: int = 10,
    include_u: bool = True,
    log_levels: bool = True,
) -> HedgeEstimate:
    """Extended ECM: AIC-selected lags of dS and dF plus the cointegration
    residual.

    The cointegrating regression S = a + b F + u runs on (log) levels over
    the full training sample; the grid search over (m, n) lag counts shares
    one sample aligned to ``max_lag``. Ties break to smaller m+n, then m.

    The grid is scored from one QR factorization of the full design
    [1, dF, u, dS lags 1..L, dF lags 1..L | dS]. Candidate (m, n) uses a
    column subset of R: for each m, one small QR of R's columns
    [base, m dS lags, all dF lags, dS] gives the SSE of every n as a tail
    sum of squares of its last column. The rank rule runs once on the full
    design, which by singular-value interlacing covers every candidate; only
    when it fails is each candidate checked on its own subset of R's columns
    (same singular values as its design). Only the winner is refit with
    ``ols``.
    """
    if max_lag < 0:
        raise DataError("max_lag must be >= 0")
    spot_segs = _segments_of(spot)
    fut_segs = _segments_of(fut)

    level = np.log if log_levels else np.asarray
    s_lvl = [level(sv) for sv in spot_segs]
    f_lvl = [level(fv) for fv in fut_segs]
    coint = ols(np.concatenate(s_lvl), np.concatenate(f_lvl), intercept=True)
    u_segs = []
    pos = 0
    for sv in s_lvl:
        u_segs.append(coint.residuals[pos : pos + len(sv)])
        pos += len(sv)

    # common sample: t in [horizon + max_lag, len) within each segment
    ds_all, df_all, u_all = [], [], []
    ds_lags: list[list[np.ndarray]] = [[] for _ in range(max_lag)]
    df_lags: list[list[np.ndarray]] = [[] for _ in range(max_lag)]
    for sv, fv, u in zip(spot_segs, fut_segs, u_segs):
        if len(sv) <= horizon + max_lag:
            continue
        ls, lf = np.log(sv), np.log(fv)
        ds = ls[horizon:] - ls[:-horizon]
        df = lf[horizon:] - lf[:-horizon]
        lo = max_lag  # index into the diff arrays
        ds_all.append(ds[lo:])
        df_all.append(df[lo:])
        u_all.append(u[lo : len(u) - horizon])  # u at the earlier endpoint
        for i in range(1, max_lag + 1):
            ds_lags[i - 1].append(ds[lo - i : len(ds) - i])
            df_lags[i - 1].append(df[lo - i : len(df) - i])
    if not ds_all:
        raise InsufficientDataError("no segment long enough for horizon + max_lag")
    ds = np.concatenate(ds_all)
    df = np.concatenate(df_all)
    u_lag = np.concatenate(u_all)
    ds_l = [np.concatenate(c) for c in ds_lags]
    df_l = [np.concatenate(c) for c in df_lags]
    if len(ds) < MIN_OBS:
        raise InsufficientDataError(f"{len(ds)} observations at horizon {horizon}")
    _check_futures_variance(df)

    # one QR of [1, dF, u, dS lags 1..L, dF lags 1..L | dS]; candidate (m, n)
    # is a column subset, scored from R alone
    nobs = len(ds)
    base = [np.ones(nobs), df] + ([u_lag] if include_u else [])
    n_base = len(base)
    n_cols = n_base + 2 * max_lag
    r = np.linalg.qr(np.column_stack(base + ds_l + df_l + [ds]), mode="r")
    full_ok = _full_rank(np.linalg.svd(r[:, :n_cols], compute_uv=False), nobs, n_cols)
    ds_cols = list(range(n_base, n_base + max_lag))
    df_cols = list(range(n_base + max_lag, n_cols))
    best = None
    for m in range(max_lag + 1):
        cols = list(range(n_base)) + ds_cols[:m] + df_cols
        # R of [base, m dS lags, all dF lags | dS]: the SSE of the first p
        # columns is the tail sum of squares of the last column
        rm = np.linalg.qr(r[:, cols + [n_cols]], mode="r")
        for n_ in range(max_lag + 1):
            p = n_base + m + n_
            if nobs <= p + 1:
                break
            # every candidate passes the rank rule when the full design does
            if not full_ok and not _full_rank(
                np.linalg.svd(r[:, cols[:p]], compute_uv=False), nobs, p
            ):
                continue
            tail = rm[p:, -1]
            key = (_aic(float(tail @ tail), nobs, p), m + n_, m)
            if best is None or key < best[0]:
                best = (key, m, n_)
    if best is None:
        raise SingularDesignError("no EECM candidate model could be fit")
    _, m, n_ = best
    fit = ols(ds, np.column_stack(base[1:] + ds_l[:m] + df_l[:n_]), intercept=True)
    return HedgeEstimate(Method.EECM, horizon, fit.slope, fit, lags=(m, n_))


@dataclass(frozen=True)
class ImfPair:
    """Index-wise pairing of one spot IMF with one futures IMF.

    ``index`` is None for the residue (trend) pair, which never carries a
    cycle.
    """

    index: int | None
    spot: np.ndarray
    fut: np.ndarray
    spot_cycle: float | None
    fut_cycle: float | None

    @property
    def is_residue(self) -> bool:
        return self.index is None


def pair_imfs(spot_set: ImfSet, fut_set: ImfSet) -> tuple[list[ImfPair], list[str]]:
    """Pair i-th spot IMF with i-th futures IMF; residues pair with each other.

    Returns (pairs, surplus) where surplus names unmatched IMFs; they are
    never used silently.
    """
    if not spot_set.imfs or not fut_set.imfs:
        raise DataError("both decompositions must contain at least one IMF")
    n = min(len(spot_set.imfs), len(fut_set.imfs))
    pairs = [
        ImfPair(
            index=i + 1,
            spot=spot_set.imfs[i].values,
            fut=fut_set.imfs[i].values,
            spot_cycle=spot_set.imfs[i].cycle,
            fut_cycle=fut_set.imfs[i].cycle,
        )
        for i in range(n)
    ]
    pairs.append(
        ImfPair(
            index=None,
            spot=spot_set.residue,
            fut=fut_set.residue,
            spot_cycle=None,
            fut_cycle=None,
        )
    )
    surplus = [f"spot IMF{i + 1}" for i in range(n, len(spot_set.imfs))]
    surplus += [f"futures IMF{i + 1}" for i in range(n, len(fut_set.imfs))]
    return pairs, surplus


def _restrict_to_segments(values: np.ndarray, segments: tuple[range, ...] | None):
    if segments is None:
        return [values]
    return [values[s.start : s.stop] for s in segments]


def _level_diffs(values: np.ndarray, horizon: int, segments, stride_block=False) -> np.ndarray:
    out = []
    for v in _restrict_to_segments(values, segments):
        if len(v) > horizon:
            d = v[horizon:] - v[:-horizon]
            if stride_block:
                d = d[::horizon]
            out.append(d)
    return np.concatenate(out) if out else np.empty(0)


def vemd_ratio(
    pair: ImfPair,
    horizon: int,
    segments: tuple[range, ...] | None = None,
    stride_block: bool = False,
) -> HedgeEstimate:
    """Vanilla EMD ratio: regression of horizon-h level differences of the
    paired IMFs (the IMFs themselves, not log returns)."""
    ds = _level_diffs(pair.spot, horizon, segments, stride_block)
    df = _level_diffs(pair.fut, horizon, segments, stride_block)
    if len(ds) < MIN_OBS:
        raise InsufficientDataError(
            f"{len(ds)} IMF difference observations at horizon {horizon}"
        )
    _check_futures_variance(df)
    fit = ols(ds, df, intercept=True)
    return HedgeEstimate(Method.VEMD, horizon, fit.slope, fit, imf_index=pair.index)


def semd_ratio(
    pair: ImfPair,
    horizon: int = 1,
    segments: tuple[range, ...] | None = None,
) -> HedgeEstimate:
    """Sample-saving EMD ratio: regression on IMF levels, no differencing."""
    ys = np.concatenate(_restrict_to_segments(pair.spot, segments))
    xs = np.concatenate(_restrict_to_segments(pair.fut, segments))
    if len(ys) < MIN_OBS:
        raise InsufficientDataError(f"{len(ys)} IMF level observations")
    _check_futures_variance(xs)
    fit = ols(ys, xs, intercept=True)
    return HedgeEstimate(Method.SEMD, horizon, fit.slope, fit, imf_index=pair.index)


def aemd_ratio(
    spot_set: ImfSet,
    fut_set: ImfSet,
    horizon: int,
    segments: tuple[range, ...] | None = None,
) -> HedgeEstimate:
    """Aggregate EMD ratio: regression on the sums of all IMFs whose own
    cycle is at or below the horizon, per leg."""
    spot_sel = [i.values for i in spot_set.imfs if i.cycle <= horizon]
    fut_sel = [i.values for i in fut_set.imfs if i.cycle <= horizon]
    if not spot_sel:
        raise DataError(f"no spot IMF with cycle <= horizon {horizon}")
    if not fut_sel:
        raise DataError(f"no futures IMF with cycle <= horizon {horizon}")
    ys = np.concatenate(_restrict_to_segments(np.sum(spot_sel, axis=0), segments))
    xs = np.concatenate(_restrict_to_segments(np.sum(fut_sel, axis=0), segments))
    if len(ys) < MIN_OBS:
        raise InsufficientDataError(f"{len(ys)} aggregate observations")
    _check_futures_variance(xs)
    fit = ols(ys, xs, intercept=True)
    return HedgeEstimate(Method.AEMD, horizon, fit.slope, fit)
