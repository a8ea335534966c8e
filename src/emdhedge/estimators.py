"""Hedge-ratio estimators: shared OLS engine plus the six methods.

Conventional estimators (MV, ECM, EECM) regress horizon-h log-price
differences; the EMD family (vanilla, sample-saving, aggregate) regresses
price-level IMFs. Each estimator takes its regression rows from the row
builder ``methods.design_rows``, formed over the whole series and kept where
the row's footprint (the indices it reads) lies inside one segment of the
training sample, so no difference or lag spans a gap. The CV ratio
functions in ``methods`` fit the same rows from per-bucket QR factors;
they share this module's sample checks, rank rule, ECM fallback and EECM
lag search, which read only an R factor, never X'X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .emd import ImfSet
from .errors import (
    DataError,
    DegenerateInputError,
    InsufficientDataError,
    SingularDesignError,
)
from .series import PriceSeries, SegmentedSeries

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


def _full_rank(s: np.ndarray, n, p: int):
    """numpy's ``matrix_rank`` rule on singular values ``s`` of an n x p
    matrix: full column rank iff all p values exceed s[0]*max(n, p)*eps.
    On a stack (last axis the values, n one count per matrix), one verdict
    per matrix."""
    return (s.shape[-1] == p) & (s[..., -1] > s[..., 0] * np.maximum(n, p) * np.finfo(float).eps)


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

# too-few-rows message of each method, by row count n and horizon h
_TOO_FEW = {
    Method.MV: "{n} observations after horizon-{h} differencing",
    Method.ECM: "{n} observations at horizon {h}",
    Method.EECM: "{n} observations at horizon {h}",
    Method.VEMD: "{n} IMF difference observations at horizon {h}",
    Method.SEMD: "{n} IMF level observations",
    Method.AEMD: "{n} aggregate observations",
}


def _check_rows(method: Method, n: int, horizon: int) -> None:
    """Every estimator's sample-size rule on its n regression rows."""
    if n == 0 and method is Method.ECM:
        raise InsufficientDataError("no segment long enough for the horizon")
    if n == 0 and method is Method.EECM:
        raise InsufficientDataError("no segment long enough for horizon + max_lag")
    if n < MIN_OBS:
        raise InsufficientDataError(_TOO_FEW[method].format(n=n, h=horizon))


def _check_futures_variance(df: np.ndarray) -> None:
    if len(df) < 2 or float(np.var(df)) <= 1e-300:
        raise DegenerateInputError("futures differences have zero variance")


def _sample(method: Method, s, f, segments, horizon: int, **kw) -> np.ndarray:
    """The rows [1, design | y] of ``method`` whose footprint lies inside one
    of ``segments`` (default: the whole series), pooled in time order."""
    from .methods import design_rows, pool  # methods builds on this module

    return pool(*design_rows(method, s, f, horizon, **kw), segments or (range(0, len(s)),))


def _train(x: Train) -> tuple[np.ndarray, tuple[range, ...]]:
    if isinstance(x, PriceSeries):
        return x.values, (range(0, len(x)),)
    return x.parent.values, x.segments


def _fit(method: Method, rows: np.ndarray, horizon: int) -> OlsFit:
    _check_rows(method, len(rows), horizon)
    _check_futures_variance(rows[:, 1])
    return ols(rows[:, -1], rows[:, 1:-1], intercept=True)


def mv_ratio(spot: Train, fut: Train, horizon: int) -> HedgeEstimate:
    """Minimum-variance ratio: slope of horizon-h log-return regression."""
    (s, segments), (f, _) = _train(spot), _train(fut)
    fit = _fit(Method.MV, _sample(Method.MV, s, f, segments, horizon), horizon)
    return HedgeEstimate(Method.MV, horizon, fit.slope, fit)


def ecm_ratio(spot: Train, fut: Train, horizon: int, include_levels: bool = True) -> HedgeEstimate:
    """Error-correction ratio: dS on dF plus the lagged log price levels.

    The level terms use the observation's earlier endpoint (lag = horizon).
    ``include_levels=False`` is the restricted variant, nesting back to MV.
    """
    (s, segments), (f, _) = _train(spot), _train(fut)
    rows = _sample(Method.ECM, s, f, segments, horizon)
    if not include_levels:
        fit = _fit(Method.ECM, rows[:, [0, 1, -1]], horizon)
        return HedgeEstimate(Method.ECM, horizon, fit.slope, fit)
    _check_rows(Method.ECM, len(rows), horizon)
    _check_futures_variance(rows[:, 1])
    fit = _ecm_fallback(lambda p: ols(rows[:, -1], rows[:, 1:p], intercept=True))
    return HedgeEstimate(Method.ECM, horizon, fit.slope, fit)


ECM_RANK_DEFICIENT = "ECM design is rank deficient in every reduction"
NO_EECM_FIT = "no EECM candidate model could be fit"


def _ecm_fallback(fit):
    """``fit(p)`` on ECM's leading p design columns [1, dF, S, F]: when the
    two level columns are collinear (e.g. identical legs), drop the futures
    level, then both, rather than failing outright."""
    for p in (4, 3, 2):
        try:
            return fit(p)
        except SingularDesignError:
            continue
    raise SingularDesignError(ECM_RANK_DEFICIENT)


def _with_u(block: np.ndarray, a, b, include_u: bool) -> np.ndarray:
    """EECM columns [1, dF, S, F, lags | dS] -> [1, dF, u, lags | dS].

    S and F are the (log) levels at the earlier endpoint and u = S - a - b F
    the cointegration residual there. This is a column transform X -> XM,
    so applied to an R factor of X it gives one of XM. ``block`` may be a
    stack of matrices, with a and b broadcast against it.
    """
    u = [block[..., 2:3] - a * block[..., 0:1] - b * block[..., 3:4]] if include_u else []
    return np.concatenate([block[..., :2]] + u + [block[..., 4:]], axis=-1)


def _eecm_select(r: np.ndarray, nobs: np.ndarray, n_base: int, max_lag: int):
    """(m, n, rms): per R factor in the stack ``r``, of [base, dS lags 1..L,
    dF lags 1..L | dS] on ``nobs`` rows, the AIC-best lag counts (m = -1
    where no candidate can be fit); rms[m] stacks the R factors of
    [base, m dS lags, all dF lags | dS].

    Candidate (m, n) uses a column subset of R: for each m, one batched QR
    of R's columns [base, m dS lags, all dF lags, dS] gives the SSE of every
    n as a tail sum of squares of its last column. The rank rule runs once
    on the full design, which by singular-value interlacing covers every
    candidate; only where it fails is each candidate checked on its own
    subset of R's columns (same singular values as its design). Ties break
    to smaller m+n, then m.
    """
    n_cols = n_base + 2 * max_lag
    lags = np.arange(max_lag + 1)
    # splits whose full design fails the rank rule and that have candidates
    deficient = ~_full_rank(np.linalg.svd(r[:, :, :n_cols], compute_uv=False), nobs, n_cols)
    deficient &= nobs > n_base + 1
    ds_cols = list(range(n_base, n_base + max_lag))
    df_cols = list(range(n_base + max_lag, n_cols))
    aic = np.full((len(r), max_lag + 1, max_lag + 1), np.nan)  # NaN: not fit
    rms = []
    for m in range(max_lag + 1):
        cols = list(range(n_base)) + ds_cols[:m] + df_cols
        rm = np.linalg.qr(r[:, :, cols + [n_cols]], mode="r")
        rms.append(rm)
        p = n_base + m + lags
        fit = nobs[:, None] > p + 1
        if deficient.any():
            for n_ in range(max_lag + 1):
                sv = np.linalg.svd(r[deficient][:, :, cols[: p[n_]]], compute_uv=False)
                fit[deficient, n_] &= _full_rank(sv, nobs[deficient], p[n_])
        # the SSE of the first p columns is the tail sum of squares of the
        # last column (zero past its end)
        y2 = rm[:, :, -1] ** 2
        tails = np.append(np.cumsum(y2[:, ::-1], axis=1)[:, ::-1], np.zeros((len(r), 1)), axis=1)
        sse = tails[:, np.minimum(p, y2.shape[1])]
        n_b, p_b = np.broadcast_arrays(nobs[:, None], p)
        aic[:, m][fit] = [_aic(*c) for c in zip(sse[fit].tolist(), n_b[fit].tolist(), p_b[fit].tolist())]
    fit = ~np.isnan(aic)
    best = np.where(fit, aic, np.inf).min(axis=(1, 2))
    order = (lags[:, None] + lags) * (max_lag + 1) + lags[:, None]  # (m + n, m) at [m, n]
    key = np.where(fit & (aic == best[:, None, None]), order, order.max() + 1)
    m, n_ = np.divmod(key.reshape(len(r), order.size).argmin(axis=1), max_lag + 1)
    m[~fit.any(axis=(1, 2))] = -1
    return m, n_, rms


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
    one sample aligned to ``max_lag``, scored by ``_eecm_select`` from one
    QR factorization of the full design [1, dF, u, dS lags 1..L,
    dF lags 1..L | dS]. Only the winner is refit with ``ols``.
    """
    (s, segments), (f, _) = _train(spot), _train(fut)
    raw = _sample(Method.EECM, s, f, segments, horizon, max_lag=max_lag, log_levels=log_levels)
    level = np.log if log_levels else np.asarray
    # the cointegrating regression has SEMD's rows [1, F | S], on price levels
    lv = _sample(Method.SEMD, level(s), level(f), segments, 0)
    coint = ols(lv[:, -1], lv[:, 1], intercept=True)
    _check_rows(Method.EECM, len(raw), horizon)
    _check_futures_variance(raw[:, 1])
    rows = _with_u(raw, coint.alpha, coint.slope, include_u)
    n_base = 3 if include_u else 2
    r = np.linalg.qr(rows, mode="r")
    m, n_, _ = _eecm_select(r[None], np.array([len(rows)]), n_base, max_lag)
    if m[0] < 0:
        raise SingularDesignError(NO_EECM_FIT)
    m, n_ = int(m[0]), int(n_[0])
    lags = list(range(n_base, n_base + m)) + list(range(n_base + max_lag, n_base + max_lag + n_))
    fit = ols(rows[:, -1], rows[:, list(range(1, n_base)) + lags], intercept=True)
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


def vemd_ratio(
    pair: ImfPair,
    horizon: int,
    segments: tuple[range, ...] | None = None,
) -> HedgeEstimate:
    """Vanilla EMD ratio: regression of horizon-h level differences of the
    paired IMFs (the IMFs themselves, not log returns)."""
    rows = _sample(Method.VEMD, pair.spot, pair.fut, segments, horizon)
    fit = _fit(Method.VEMD, rows, horizon)
    return HedgeEstimate(Method.VEMD, horizon, fit.slope, fit, imf_index=pair.index)


def semd_ratio(
    pair: ImfPair,
    horizon: int = 1,
    segments: tuple[range, ...] | None = None,
) -> HedgeEstimate:
    """Sample-saving EMD ratio: regression on IMF levels, no differencing."""
    rows = _sample(Method.SEMD, pair.spot, pair.fut, segments, horizon)
    fit = _fit(Method.SEMD, rows, horizon)
    return HedgeEstimate(Method.SEMD, horizon, fit.slope, fit, imf_index=pair.index)


def aggregate_imfs(spot_set: ImfSet, fut_set: ImfSet, horizon: int):
    """Per leg, the sum of all IMFs whose own cycle is at or below the horizon."""
    spot_sel = [i.values for i in spot_set.imfs if i.cycle <= horizon]
    fut_sel = [i.values for i in fut_set.imfs if i.cycle <= horizon]
    if not spot_sel:
        raise DataError(f"no spot IMF with cycle <= horizon {horizon}")
    if not fut_sel:
        raise DataError(f"no futures IMF with cycle <= horizon {horizon}")
    return np.sum(spot_sel, axis=0), np.sum(fut_sel, axis=0)


def aemd_ratio(
    spot_set: ImfSet,
    fut_set: ImfSet,
    horizon: int,
    segments: tuple[range, ...] | None = None,
) -> HedgeEstimate:
    """Aggregate EMD ratio: regression on the ``aggregate_imfs`` sums."""
    s, f = aggregate_imfs(spot_set, fut_set, horizon)
    rows = _sample(Method.AEMD, s, f, segments, horizon)
    fit = _fit(Method.AEMD, rows, horizon)
    return HedgeEstimate(Method.AEMD, horizon, fit.slope, fit)
