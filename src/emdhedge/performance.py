"""Hedging-effectiveness criteria: variance reduction, empirical VaR, moments.

Evaluation returns are horizon-h log differences (stride 1), consistent with
the conventional estimators. The VaR quantile uses linear interpolation at
position (n-1)*alpha + 1 so outputs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, InsufficientDataError

__all__ = [
    "Criterion",
    "Effectiveness",
    "Moments",
    "effectiveness_rows",
    "he_variance",
    "var_quantile",
    "he_var",
    "moments",
]

DEGENERACY_THRESHOLD = 1e-12


class Criterion(Enum):
    VARIANCE_REDUCTION = "variance_reduction"
    VAR = "var"


@dataclass(frozen=True)
class Effectiveness:
    criterion: Criterion
    value: float
    n_obs: int
    alpha: float | None = None
    degenerate: bool = False
    sign_anomaly: bool = False


@dataclass(frozen=True)
class Moments:
    mean: float
    std: float
    skew: float
    kurt: float  # excess
    n_obs: int
    degenerate: bool = False


def effectiveness_rows(
    criterion: Criterion,
    spot_ret: np.ndarray,
    portfolios: np.ndarray,
    alpha: float = 0.05,
) -> tuple[np.ndarray, bool, bool]:
    """One criterion for every row of ``portfolios`` (m x n) against one
    spot return series.

    The spot side (its variance and degeneracy floor, or its alpha-quantile)
    is computed once. Each portfolio variance or quantile is one reduction
    along the contiguous last axis, so row i gives the same bits as the 1-D
    call on ``portfolios[i]``. Returns (values, degenerate, sign_anomaly):
    values are all NaN when the spot side is degenerate; sign_anomaly (VaR
    only) flags a positive spot quantile.
    """
    spot_ret = np.asarray(spot_ret, dtype=float)
    portfolios = np.asarray(portfolios, dtype=float)
    if criterion is Criterion.VARIANCE_REDUCTION:
        # 1 - var(portfolio)/var(spot), n-1 denominators
        if min(len(spot_ret), portfolios.shape[1]) < 2:
            raise InsufficientDataError("need at least 2 observations per side")
        vs = float(np.var(spot_ret, ddof=1))
        # relative floor: a constant series can show O(eps^2) variance from
        # round-off in the mean subtraction
        floor = (DEGENERACY_THRESHOLD * max(1.0, float(np.max(np.abs(spot_ret))))) ** 2
        if vs <= floor:
            return np.full(len(portfolios), np.nan), True, False
        return 1.0 - np.var(portfolios, axis=1, ddof=1) / vs, False, False
    # 1 - q_alpha(portfolio)/q_alpha(spot) on signed returns
    qs = var_quantile(spot_ret, alpha)
    qp = var_quantile(portfolios, alpha)
    if abs(qs) < DEGENERACY_THRESHOLD:
        return np.full(len(portfolios), np.nan), True, False
    return 1.0 - qp / qs, False, qs > 0.0


def he_variance(spot_ret: np.ndarray, portfolio: np.ndarray) -> Effectiveness:
    """Variance reduction: 1 - var(portfolio)/var(spot), n-1 denominators."""
    portfolio = np.asarray(portfolio, dtype=float)
    values, degenerate, _ = effectiveness_rows(Criterion.VARIANCE_REDUCTION, spot_ret, portfolio[None, :])
    return Effectiveness(Criterion.VARIANCE_REDUCTION, float(values[0]), len(portfolio), degenerate=degenerate)


def var_quantile(returns: np.ndarray, alpha: float) -> float | np.ndarray:
    """Empirical alpha-quantile, linear interpolation between order statistics
    at 1-based position (n-1)*alpha + 1; taken along the last axis, so a
    2-D input gives one quantile per row."""
    returns = np.asarray(returns, dtype=float)
    if returns.shape[-1] < 20:
        raise InsufficientDataError(f"need >= 20 observations, got {returns.shape[-1]}")
    if not (0.0 < alpha <= 0.5):
        raise DataError("alpha must be in (0, 0.5]")
    q = np.quantile(returns, alpha, axis=-1, method="linear")
    return float(q) if returns.ndim == 1 else q


def he_var(spot_ret: np.ndarray, portfolio: np.ndarray, alpha: float = 0.05) -> Effectiveness:
    """VaR effectiveness: 1 - q_alpha(portfolio)/q_alpha(spot) on signed returns."""
    portfolio = np.asarray(portfolio, dtype=float)
    values, degenerate, sign_anomaly = effectiveness_rows(Criterion.VAR, spot_ret, portfolio[None, :], alpha)
    return Effectiveness(
        Criterion.VAR,
        float(values[0]),
        len(portfolio),
        alpha=alpha,
        degenerate=degenerate,
        sign_anomaly=sign_anomaly,
    )


def moments(values: np.ndarray) -> Moments:
    """Sample mean, std (n-1), moment skewness g1 and excess kurtosis g2
    (central moments with n denominator).

    g1 and g2 repeat ``scipy.stats.skew``/``kurtosis`` (``bias=True``)
    operation for operation, including their NaN for a second moment at
    round-off level relative to the mean.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 4:
        raise InsufficientDataError("need at least 4 observations for moments")
    std = float(np.std(values, ddof=1))
    if std <= 0.0:
        return Moments(float(values.mean()), 0.0, float("nan"), float("nan"), n, degenerate=True)
    mean = values.mean()
    d = values - mean
    d2 = d**2
    m2, m3, m4 = np.mean(d2), np.mean(d2 * d), np.mean(d2**2)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        skew = kurt = float("nan")
    else:
        skew = float(m3 / m2**1.5)
        kurt = float(m4 / m2**2.0 - 3)
    return Moments(mean=float(mean), std=std, skew=skew, kurt=kurt, n_obs=n)
