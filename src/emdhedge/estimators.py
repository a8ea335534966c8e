"""Hedge-ratio estimators: shared OLS engine plus the rules of the six methods.

Conventional estimators (MV, ECM, EECM) regress horizon-h log-price
differences; the EMD family (vanilla, sample-saving, aggregate) regresses
price-level IMFs, of the series ``_legs`` picks. The row builder
``design_rows`` gives a method's regression rows over the whole series, each
with its footprint (the indices it reads). The CV ratio functions in
``methods`` fit every method from per-bucket QR factors of these rows, on a
training sample given as partition groups plus a training mask; they share
``_legs``, the sample-size rule (``_too_few_obs``), the row rule
(``_min_rows``) and rank rule with their errors, ECM's reduction order and
the EECM lag search, which read only an R factor, never X'X. ``eecm_ratio``
is that fit of EECM on the whole series. The rank rule is the one refusal
of a degenerate design: every design holds the intercept and the futures
column, so a futures column of (near) zero variance fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .emd import ImfSet
from .errors import (
    DataError,
    InsufficientDataError,
    SingularDesignError,
)
from .series import PriceSeries

__all__ = [
    "Method",
    "OlsFit",
    "ImfPair",
    "design_rows",
    "ols",
    "eecm_ratio",
    "pair_imfs",
    "horizon_of",
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
    n_obs: int

    @property
    def slope(self) -> float:
        return float(self.beta[0])


def _min_rows(p):
    """The row rule of every least-squares fit: the fewest rows, p + 2, that
    fit p coefficients (n > p + 1, so at least 2 residual degrees of freedom).
    Broadcasts over an array of coefficient counts."""
    return p + 2


def _too_few_rows(n: int, p: int) -> InsufficientDataError:
    """The error of a fit of p coefficients on n rows that break ``_min_rows``."""
    return InsufficientDataError(f"{n} observations for {p} coefficients")


RANK_DEFICIENT = "regressor matrix is rank deficient"


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
    if n < _min_rows(p):
        raise _too_few_rows(n, p)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if not _full_rank(s, n, p):
        raise SingularDesignError(RANK_DEFICIENT)
    coef = vt.T @ ((u.T @ y) / s)
    resid = y - design @ coef
    sse = float(resid @ resid)
    if intercept:  # a constant y has tss 0, also where its mean is inexact
        tss = float(np.sum((y - y.mean()) ** 2)) if np.any(y != y[0]) else 0.0
    else:
        tss = float(y @ y)
    if tss > 0.0:
        r2 = 1.0 - sse / tss
    else:
        r2 = 1.0 if sse == 0.0 else 0.0
    dof = n - p
    sigma2 = sse / dof
    se = np.sqrt(sigma2) * np.linalg.norm(vt / s[:, None], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0.0, coef / se, np.sign(coef) * np.inf)
    alpha = float(coef[0]) if intercept else 0.0
    beta = coef[1:] if intercept else coef
    return OlsFit(
        alpha=alpha,
        beta=beta,
        r_squared=r2,
        t_stats=t_stats,
        n_obs=n,
    )


# too-few-rows message of each method, by row count n and horizon h
_TOO_FEW = {
    Method.MV: "{n} observations after horizon-{h} differencing",
    Method.ECM: "{n} observations at horizon {h}",
    Method.EECM: "{n} observations at horizon {h}",
    Method.VEMD: "{n} IMF difference observations at horizon {h}",
    Method.SEMD: "{n} IMF level observations",
    Method.AEMD: "{n} aggregate observations at horizon {h}",
}


def _too_few_obs(method: Method, n: int, horizon: int) -> InsufficientDataError:
    """The error of ``method``'s fit on n < ``MIN_OBS`` rows: every estimator's sample-size rule."""
    if n == 0 and method is Method.ECM:
        return InsufficientDataError("no segment long enough for the horizon")
    if n == 0 and method is Method.EECM:
        return InsufficientDataError("no segment long enough for horizon + max_lag")
    return InsufficientDataError(_TOO_FEW[method].format(n=n, h=horizon))


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
    with S, F the (log) levels at the earlier endpoint, which ``_with_u``
    turns into the cointegration residual.
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


ECM_RANK_DEFICIENT = "ECM design is rank deficient in every reduction"
NO_EECM_FIT = "no EECM candidate model could be fit"
# ECM's reductions, as counts p of its leading design columns [1, dF, S, F]:
# when the two level columns are collinear (e.g. identical legs), drop the
# futures level, then both, rather than failing outright
ECM_REDUCTIONS = (4, 3, 2)


def _with_u(block: np.ndarray, a, b) -> np.ndarray:
    """EECM columns [1, dF, S, F, lags | dS] -> [1, dF, u, lags | dS].

    S and F are the (log) levels at the earlier endpoint and u = S - a - b F
    the cointegration residual there. This is a column transform X -> XM,
    so applied to an R factor of X it gives one of XM. ``block`` may be a
    stack of matrices, with a and b broadcast against it.
    """
    u = block[..., 2:3] - a * block[..., 0:1] - b * block[..., 3:4]
    return np.concatenate([block[..., :2], u, block[..., 4:]], axis=-1)


def _eecm_select(r: np.ndarray, nobs: np.ndarray, n_base: int, max_lag: int):
    """(m, n): per R factor in the stack ``r``, of [base, dS lags 1..L,
    dF lags 1..L | dS] on ``nobs`` rows, the AIC-best lag counts (m = -1
    where no candidate can be fit).

    Candidate (m, n) is the first p = n_base + m + n columns of R's column
    set [base, m dS lags, all dF lags, dS]. The leading n_base + m columns
    of that set are R's own, upper triangular with exact zeros below the
    diagonal, so each Householder step LAPACK takes on them reflects a zero
    sub-column (tau = 0) and changes nothing: the set's R is R's first
    n_base + m rows stacked over the R of the trailing block R[n_base + m:,
    dF lags + dS], bit for bit. So per m one QR of that (L+1)-column block
    gives the SSE of every n as the tail sum of squares of its last column,
    and one reversed cumsum gives them all; ``_eecm_factor`` builds a
    winner's whole factor the same way. AIC is n ln(SSE/n) + 2p, -inf at
    SSE 0, with ``math.log``: ``np.log``'s SIMD loop need not round as libm
    does. The rank rule runs once on the full design, which by
    singular-value interlacing covers every candidate (a column subset's
    smallest singular value is no smaller, its largest no larger).
    Where it fails, per m one SVD of the largest candidate (m, top) that has
    enough rows covers every (m, n <= top) by the same argument; only where
    that fails too is each such candidate checked on its own subset of R's
    columns (same singular values as its design). Ties break to smaller
    m+n, then m.
    """
    n_cols = n_base + 2 * max_lag
    lags = np.arange(max_lag + 1)
    p = n_base + lags[:, None] + lags  # coefficients of candidate (m, n) at [m, n]
    fit = nobs[:, None, None] >= _min_rows(p)

    def full_rank(s: np.ndarray, m: int, n_: int) -> np.ndarray:
        """The rank rule on candidate (m, n_) of the splits in ``s``."""
        cols = list(range(n_base + m)) + list(range(n_base + max_lag, n_base + max_lag + n_))
        return _full_rank(np.linalg.svd(r[s][:, :, cols], compute_uv=False), nobs[s], p[m, n_])

    # per m, each split's largest n with enough rows (-1: none), tested first
    # where the split's full design fails the rank rule
    top = fit.sum(axis=2) - 1
    deficient = ~_full_rank(np.linalg.svd(r[:, :, :n_cols], compute_uv=False), nobs, n_cols)[:, None] & (top >= 0)
    check = np.zeros_like(fit)  # candidates checked on their own
    for m, t in sorted(set(zip(np.nonzero(deficient)[1].tolist(), top[deficient].tolist()))):
        s = deficient[:, m] & (top[:, m] == t)
        s[s] = ~full_rank(s, m, t)
        fit[s, m, t] = False
        check[s, m, :t] = True
    for m, n_ in zip(*np.nonzero(check.any(axis=0))):
        s = check[:, m, n_]
        fit[s, m, n_] = full_rank(s, m, n_)
    tail = list(range(n_base + max_lag, n_cols + 1))  # dF lags 1..L, dS
    # y[:, m]: the last column of the trailing block's R, zero past its end
    y = np.zeros((len(r), max_lag + 1, max_lag + 1))
    for m in range(max_lag + 1):
        rt = np.linalg.qr(r[:, n_base + m :, tail], mode="r")
        y[:, m, : rt.shape[1]] = rt[:, :, -1]
    sse = np.cumsum(y[..., ::-1] ** 2, axis=-1)[..., ::-1]
    aic = np.where(fit, -np.inf, np.nan)  # NaN: not fit
    pos = fit & (sse > 0.0)
    n_pos = np.broadcast_to(nobs[:, None, None], fit.shape)[pos]
    logs = np.array(list(map(math.log, (sse[pos] / n_pos).tolist())))
    aic[pos] = n_pos * logs + 2 * np.broadcast_to(p, fit.shape)[pos]
    fit = ~np.isnan(aic)
    best = np.where(fit, aic, np.inf).min(axis=(1, 2))
    order = (lags[:, None] + lags) * (max_lag + 1) + lags[:, None]  # (m + n, m) at [m, n]
    key = np.where(fit & (aic == best[:, None, None]), order, order.max() + 1)
    m, n_ = np.divmod(key.reshape(len(r), order.size).argmin(axis=1), max_lag + 1)
    m[~fit.any(axis=(1, 2))] = -1
    return m, n_


def _eecm_factor(r: np.ndarray, m: int, n_base: int, max_lag: int) -> np.ndarray:
    """The R factors of [base, m dS lags, all dF lags | dS] from the stack ``r``
    ``_eecm_select`` scores: r's first k rows over the QR of the trailing block."""
    k, tail = n_base + m, list(range(n_base + max_lag, n_base + 2 * max_lag + 1))
    rm = np.zeros((len(r), min(r.shape[1], k + len(tail)), k + len(tail)))
    rm[:, :k] = r[:, :k, list(range(k)) + tail]
    rm[:, k:, k:] = np.linalg.qr(r[:, k:, tail], mode="r")
    return rm


def eecm_ratio(
    spot: PriceSeries,
    fut: PriceSeries,
    horizon: int,
    max_lag: int = 10,
    log_levels: bool = True,
) -> float:
    """Extended ECM's hedge ratio on the whole series: the fit the CLI
    reports, ``methods.make_ratio_fn``, on one split training on every
    observation. Raises the error that fit gives."""
    from .methods import make_ratio_fn  # methods imports this module

    whole = np.ones((1, 1), dtype=bool)
    (got,) = make_ratio_fn(Method.EECM, spot, fut, horizon, max_lag=max_lag, log_levels=log_levels)(whole)
    if isinstance(got, Exception):
        raise got
    return got


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


def pair_imfs(spot_set: ImfSet, fut_set: ImfSet) -> tuple[list[ImfPair], list[str]]:
    """Pair i-th spot IMF with i-th futures IMF; residues pair with each other.

    Returns (pairs, surplus) where surplus names unmatched IMFs; they are
    never used silently.
    """
    legs = (("spot", spot_set), ("futures", fut_set))
    if trends := [f"the {leg} decomposition has no IMF (a trend)" for leg, s in legs if not s.imfs]:
        raise DataError("; ".join(trends))
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


def horizon_of(cycle: float) -> int:
    """The hedging horizon, in days, of an IMF with mean cycle ``cycle``: the
    cycle rounded to the nearest day (halves to even), at least 1. Auto
    horizon rows and AEMD's IMF selection share it, so the IMF a row is
    named after is inside that row's aggregate."""
    return max(1, round(cycle))


def aggregate_imfs(spot_set: ImfSet, fut_set: ImfSet, horizon: int):
    """Per leg, the sum of all IMFs whose own horizon (``horizon_of`` their
    cycle) is at or below ``horizon``."""
    spot_sel = [i.values for i in spot_set.imfs if horizon_of(i.cycle) <= horizon]
    fut_sel = [i.values for i in fut_set.imfs if horizon_of(i.cycle) <= horizon]
    if not spot_sel:
        raise DataError(f"no spot IMF with cycle <= horizon {horizon}")
    if not fut_sel:
        raise DataError(f"no futures IMF with cycle <= horizon {horizon}")
    return np.sum(spot_sel, axis=0), np.sum(fut_sel, axis=0)


def _legs(method: Method, spot_set: ImfSet, fut_set: ImfSet, horizon: int, imf_index: int | None):
    """The (spot, futures) series an EMD method regresses: AEMD's
    ``aggregate_imfs``, else IMF pair ``imf_index``."""
    if method is Method.AEMD:
        return aggregate_imfs(spot_set, fut_set, horizon)
    pairs, _ = pair_imfs(spot_set, fut_set)
    if imf_index is None or not 1 <= imf_index < len(pairs):  # the last pair is the residues'
        raise DataError(f"spot IMF{imf_index} has no futures IMF to pair with")
    return pairs[imf_index - 1].spot, pairs[imf_index - 1].fut
