"""A plain least-squares model of the shipped fit, for the tests.

``fit`` computes what ``methods.make_ratio_fn`` fits for MV, ECM and the EMD
family the plain way: the rows of ``estimators.design_rows`` that ``pool``
keeps, the sample-size rule of ``estimators._too_few_obs``, the rank by
``np.linalg.matrix_rank``, ECM's reductions 4, 3, 2 in order, and the slope by
``np.linalg.lstsq``. ``eecm`` fits every EECM lag candidate by brute force,
from rows it builds itself. The batched fit factors stacked QR factors
instead, so the two agree to round-off, and on a failure by error class and
message (Claessen & Hughes, "QuickCheck", ICFP 2000, on checking an
implementation against an independent model). ``whole`` is the shipped fit on
the whole series, and ``recorded_lags`` spies on the EECM lags it picks.
"""

import math
from dataclasses import dataclass

import numpy as np

from emdhedge import methods
from emdhedge.errors import SingularDesignError
from emdhedge.estimators import (
    ECM_RANK_DEFICIENT,
    NO_EECM_FIT,
    RANK_DEFICIENT,
    MIN_OBS,
    Method,
    _too_few_obs,
    _too_few_rows,
    design_rows,
)
from emdhedge.methods import make_ratio_fn
from emdhedge.series import check_segments

# the training mask of one split training on the whole series as its one group
WHOLE = np.ones((1, 1), dtype=bool)


@dataclass(frozen=True)
class Fit:
    """One least-squares fit, read by the names of ``estimators.OlsFit``."""

    slope: float  # the coefficient of the futures column, the hedge ratio
    r_squared: float
    n_obs: int
    p: int  # coefficients fitted, the intercept among them


def pool(rows: np.ndarray, back: int, segments: tuple[range, ...]) -> np.ndarray:
    """The rows whose footprint, row i reading [i, i + back], lies inside one
    of ``segments``, in order: no difference or lag spans a gap."""
    return np.concatenate([rows[g.start : max(g.start, g.stop - back)] for g in segments])


def _training_sample(segments, n: int) -> tuple[range, ...]:
    """``segments`` once ``series.check_segments`` accepts them as a training
    sample of ``n`` observations (default: the whole series)."""
    return (range(0, n),) if segments is None else check_segments(segments, n)


def fit(method: Method, s, f, horizon: int, segments: tuple[range, ...] | None = None, p: int | None = None) -> Fit:
    """The least-squares hedge of ``method`` on the series ``s`` and ``f``
    (prices for MV and ECM, the legs ``estimators._legs`` picks for the EMD
    family), on the rows inside ``segments`` (default: the whole series).
    ECM takes the first of its reductions whose design has full rank; ``p``
    fits the first p design columns alone, e.g. ECM's restricted [1, dF]."""
    s, f = np.asarray(s, dtype=float), np.asarray(f, dtype=float)
    rows = pool(*design_rows(method, s, f, horizon), _training_sample(segments, len(s)))
    if len(rows) < MIN_OBS:
        raise _too_few_obs(method, len(rows), horizon)
    y = rows[:, -1]
    for k in (p,) if p else (4, 3, 2) if method is Method.ECM else (2,):
        x = rows[:, :k]
        if np.linalg.matrix_rank(x) == k:
            coef = np.linalg.lstsq(x, y, rcond=None)[0]
            resid, tss = y - x @ coef, np.sum((y - y.mean()) ** 2)
            r2 = 1.0 - resid @ resid / tss if tss > 0.0 else np.nan  # undefined for a constant y
            return Fit(float(coef[1]), float(r2), len(rows), k)
    raise SingularDesignError(ECM_RANK_DEFICIENT if method is Method.ECM and not p else RANK_DEFICIENT)


def recorded_lags(monkeypatch) -> list:
    """The (m, n) of each split that the shipped fit's lag search,
    ``methods._eecm_select``, picks from now on."""
    lags, select = [], methods._eecm_select

    def recording(*args):
        m, n_ = select(*args)
        lags.extend(zip(m.tolist(), n_.tolist()))
        return m, n_

    monkeypatch.setattr(methods, "_eecm_select", recording)
    return lags


def whole(method: Method, spot, fut, horizon: int, *args, **kw) -> float:
    """``make_ratio_fn``'s ratio on one split training on the whole series,
    or the error it gives, raised."""
    (got,) = make_ratio_fn(method, spot, fut, horizon, *args, **kw)(WHOLE)
    if isinstance(got, Exception):
        raise got
    return got


@dataclass(frozen=True)
class EecmFit:
    """The AIC-best EECM candidate of one training sample."""

    slope: float  # the coefficient of dF, the hedge ratio
    lags: tuple[int, int]  # (m, n): its dS and dF lag counts
    n_obs: int
    deficient: bool  # whether the full design [1, dF, u, every lag] fails the rank rule


def eecm(
    s,
    f,
    horizon: int,
    max_lag: int = 10,
    segments: tuple[range, ...] | None = None,
    include_u: bool = True,
    log_levels: bool = True,
) -> EecmFit:
    """EECM on the prices ``s`` and ``f`` inside ``segments`` (default: the
    whole series), every (m, n) lag candidate fitted by ``np.linalg.lstsq``.

    The cointegrating regression S = a + b F + u runs on the (log) levels of
    every observation of the sample, and row t of a segment regresses
    dS[t] on [1, dF[t], u[t], dS[t - 1..m], dF[t - 1..n]], the differences
    log and horizon ``horizon``, for t from ``max_lag`` on: every candidate
    shares one sample. AIC is n ln(SSE/n) + 2p, -inf at SSE 0, ties breaking
    to smaller m + n, then m. Raises the shipped fit's errors: the
    cointegrating regression's row and rank rules, EECM's row rule, and
    ``NO_EECM_FIT`` when no candidate has enough rows and full rank.
    ``include_u=False`` drops u, a design the shipped fit never takes.
    """
    s, f = np.asarray(s, dtype=float), np.asarray(f, dtype=float)
    segs = _training_sample(segments, len(s))
    level = np.log if log_levels else np.asarray
    s_lv, f_lv = (np.concatenate([level(x[g.start : g.stop]) for g in segs]) for x in (s, f))
    levels = np.column_stack([np.ones(len(f_lv)), f_lv])
    if len(levels) < 4:  # the row rule of 2 coefficients
        raise _too_few_rows(len(levels), 2)
    if np.linalg.matrix_rank(levels) < 2:
        raise SingularDesignError(RANK_DEFICIENT)
    u_all = s_lv - levels @ np.linalg.lstsq(levels, s_lv, rcond=None)[0]
    rows, pos = [], 0
    for g in segs:
        u = u_all[pos : pos + len(g)]
        pos += len(g)
        ls, lf = np.log(s[g.start : g.stop]), np.log(f[g.start : g.stop])
        ds, df = ls[horizon:] - ls[:-horizon], lf[horizon:] - lf[:-horizon]
        for t in range(max_lag, len(ds)):
            rows.append(
                [ds[t], df[t], u[t]]
                + [ds[t - i] for i in range(1, max_lag + 1)]
                + [df[t - i] for i in range(1, max_lag + 1)]
            )
    if len(rows) < MIN_OBS:
        raise _too_few_obs(Method.EECM, len(rows), horizon)
    A = np.array(rows)
    y, nobs = A[:, 0], len(A)
    base = [1, 2] if include_u else [1]
    ds_cols = list(range(3, 3 + max_lag))
    df_cols = list(range(3 + max_lag, 3 + 2 * max_lag))
    full = np.column_stack([np.ones(nobs), A[:, base + ds_cols + df_cols]])
    best = None
    for m in range(max_lag + 1):
        for n in range(max_lag + 1):
            X = np.column_stack([np.ones(nobs), A[:, base + ds_cols[:m] + df_cols[:n]]])
            p = X.shape[1]
            if nobs < p + 2:
                continue
            # lstsq's rank counts singular values above s[0] * max(nobs, p) * eps, as matrix_rank does
            coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
            if rank < p:
                continue
            r = y - X @ coef
            sse = r @ r
            aic = nobs * math.log(sse / nobs) + 2 * p if sse > 0 else -math.inf
            key = (aic, m + n, m)
            if best is None or key < best[0]:
                best = key, (m, n), float(coef[1])
    if best is None:
        raise SingularDesignError(NO_EECM_FIT)
    return EecmFit(best[2], best[1], nobs, np.linalg.matrix_rank(full) < full.shape[1])
