"""Cross-cutting diagnostics: IMF variance shares, spot/futures matching
degree, and the determinant / relative-performance regressions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .emd import ImfSet
from .errors import DataError, DegenerateInputError, InsufficientDataError
from .estimators import ImfPair, OlsFit, ols

__all__ = [
    "VarianceRow",
    "MatchRow",
    "DeterminantFit",
    "variance_decomposition",
    "matching_degree",
    "determinant_regression",
    "relative_performance",
    "significance_stars",
]


@dataclass(frozen=True)
class VarianceRow:
    imf_index: int | None  # None = residue
    variance: float
    percent: float  # of the source series variance


@dataclass(frozen=True)
class MatchRow:
    imf_index: int | None
    beta: float
    r_squared: float
    cycle_spot: float | None
    cycle_fut: float | None


@dataclass(frozen=True)
class DeterminantFit:
    """Through-origin and affine fits of performance on matching degree."""

    beta_origin: float
    t_origin: float
    r2_origin: float
    alpha: float
    t_alpha: float
    beta_affine: float
    t_affine: float
    r2_affine: float
    n_obs: int


def variance_decomposition(logret_set: ImfSet, source: np.ndarray) -> list[VarianceRow]:
    """Per-IMF sample variance and its share of the source log-return variance.

    ``logret_set`` must decompose the log-return series itself, not levels.
    """
    src_var = float(np.var(np.asarray(source, dtype=float), ddof=1))
    if src_var <= 0.0:
        raise DegenerateInputError("source series has zero variance")
    rows = [
        VarianceRow(
            imf_index=imf.index,
            variance=float(np.var(imf.values, ddof=1)),
            percent=float(np.var(imf.values, ddof=1)) / src_var * 100.0,
        )
        for imf in logret_set.imfs
    ]
    res_var = float(np.var(logret_set.residue, ddof=1))
    rows.append(VarianceRow(imf_index=None, variance=res_var, percent=res_var / src_var * 100.0))
    return rows


def matching_degree(pairs: list[ImfPair]) -> list[MatchRow]:
    """Per-pair level regression of spot IMF on futures IMF; R-squared is the
    matching degree."""
    rows = []
    for pair in pairs:
        fit = ols(pair.spot, pair.fut, intercept=True)
        rows.append(
            MatchRow(
                imf_index=pair.index,
                beta=fit.slope,
                r_squared=fit.r_squared,
                cycle_spot=pair.spot_cycle,
                cycle_fut=pair.fut_cycle,
            )
        )
    return rows


def determinant_regression(performance: np.ndarray, matching: np.ndarray) -> DeterminantFit:
    """Regress out-of-sample performance on matching degree, both through the
    origin and with an intercept."""
    performance = np.asarray(performance, dtype=float)
    matching = np.asarray(matching, dtype=float)
    if len(performance) != len(matching):
        raise DataError("performance and matching must pair up")
    if len(performance) < 3:
        raise InsufficientDataError("need at least 3 paired observations")
    origin = ols(performance, matching, intercept=False)
    affine = ols(performance, matching, intercept=True)
    return DeterminantFit(
        beta_origin=origin.slope,
        t_origin=float(origin.t_stats[0]),
        r2_origin=origin.r_squared,
        alpha=affine.alpha,
        t_alpha=float(affine.t_stats[0]),
        beta_affine=affine.slope,
        t_affine=float(affine.t_stats[1]),
        r2_affine=affine.r_squared,
        n_obs=len(performance),
    )


def relative_performance(model_he: float, mv_he: float) -> float:
    """(model - MV) / |MV|; the absolute denominator keeps the sign meaningful
    when the MV performance is negative."""
    if abs(mv_he) <= 1e-12:
        raise DegenerateInputError("MV performance too close to zero")
    return (model_he - mv_he) / abs(mv_he)


def significance_stars(t_stat: float, dof: int) -> str:
    """Two-sided stars at 0.01 (***), 0.05 (**), 0.10 (*)."""
    if dof < 1 or not np.isfinite(t_stat):
        return ""
    p = 2.0 * stdtr(dof, -abs(t_stat))  # the Student-t survival function
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""
