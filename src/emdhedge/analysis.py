"""Cross-cutting diagnostics: IMF variance shares, spot/futures matching
degree, and the determinant / relative-performance regressions.

Significance stars take the two-sided Student-t p-value from the
regularized incomplete beta function, evaluated by its continued fraction
with the modified Lentz method (Press et al., *Numerical Recipes*, 3rd ed.,
section 6.4), in float arithmetic, or in 50-digit decimal arithmetic when p
is within rounding of a star level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emd import ImfSet
from .errors import DataError, DegenerateInputError, EmdHedgeError, InsufficientDataError, NumericError
from .estimators import ImfPair, OlsFit, _min_rows, ols

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
    components = [(imf.index, imf.values) for imf in logret_set.imfs] + [(None, logret_set.residue)]
    rows = []
    for index, values in components:
        var = float(np.var(values, ddof=1))
        rows.append(VarianceRow(imf_index=index, variance=var, percent=var / src_var * 100.0))
    return rows


def matching_degree(pairs: list[ImfPair]) -> list[MatchRow]:
    """Per-pair level regression of spot IMF on futures IMF; R-squared is the
    matching degree. A failed fit re-raises with its pair named."""
    rows = []
    for pair in pairs:
        try:
            fit = ols(pair.spot, pair.fut, intercept=True)
        except EmdHedgeError as exc:
            label = "residue" if pair.index is None else f"imf{pair.index}"
            raise type(exc)(f"matching degree of {label}: {exc}") from None
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
    need = _min_rows(2)  # the affine fit's 2 coefficients
    if len(performance) < need:
        raise InsufficientDataError(f"need at least {need} paired observations, got {len(performance)}")
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


_STAR_LEVELS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))
_NEAR_TIE = 1e-6  # relative distance to a star level under which p is recomputed exactly
_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494459"


def _beta_cf(a, b, x, tiny, eps):
    """Continued fraction of the regularized incomplete beta I_x(a, b), less
    its prefactor, by the modified Lentz method, in float or Decimal
    arithmetic; it converges fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < eps:
            return h
    raise NumericError(f"incomplete beta continued fraction did not converge (a={a}, b={b})")


def _ibeta(a, b, x, y, front, tiny, eps):
    """I_x(a, b) from y = 1 - x and front = x^a y^b / B(a, b), through
    I_x(a, b) = 1 - I_y(b, a) where the fraction would converge slowly."""
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x, tiny, eps) / a
    return 1 - front * _beta_cf(b, a, y, tiny, eps) / b


def _t_pvalue(t_stat: float, dof: int) -> float:
    """Two-sided Student-t p-value P(|T| >= |t_stat|) with ``dof`` degrees of
    freedom: I_x(dof/2, 1/2) at x = dof / (dof + t^2).

    dof = 1 (Cauchy) takes the closed form asin(sqrt(x)) / (pi/2), with the
    branch and the operations of ``scipy.special.stdtr``, so it gives the
    same bits; larger dof take the continued fraction.
    """
    t = float(t_stat)
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    s = dof + t2
    x, y = dof / s, t2 / s  # y = 1 - x without cancellation
    if dof == 1:
        return math.asin(math.sqrt(1.0 - y if 1.0 > 2.0 * t2 else x)) / (math.pi / 2)
    if t2 == 0.0:
        return 1.0
    a = 0.5 * dof
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    front = math.exp(a * math.log(x) + 0.5 * math.log(y) - log_beta)
    return _ibeta(a, 0.5, x, y, front, 1e-300, 1e-16)


def _t_pvalue_exact(t_stat: float, dof: int):
    """``_t_pvalue`` for dof >= 2 and t_stat != 0 in 50-digit decimal
    arithmetic, as a ``Decimal``. B(dof/2, 1/2) is built up from
    B(1/2, 1/2) = pi or B(1, 1/2) = 2 by B(k + 1, 1/2) = B(k, 1/2) k / (k + 1/2).
    ``decimal`` is imported here, as only a p-value near a star level needs it."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        a, b = Decimal(dof) / 2, Decimal("0.5")
        beta, k = (Decimal(_PI_DIGITS), b) if dof % 2 else (Decimal(2), Decimal(1))
        while k < a:
            beta *= k / (k + b)
            k += 1
        t2 = Decimal(t_stat) ** 2
        x, y = dof / (dof + t2), t2 / (dof + t2)
        front = (a * x.ln() + b * y.ln()).exp() / beta
        return _ibeta(a, b, x, y, front, Decimal("1e-80"), Decimal("1e-45"))


def significance_stars(t_stat: float, dof: int) -> str:
    """Two-sided stars at 0.01 (***), 0.05 (**), 0.10 (*); none for a NaN t or dof < 1.

    A p-value within a relative 1e-6 of a level, where the rounding of the
    float evaluation could decide the comparison, is recomputed exactly
    (``_t_pvalue_exact``) for dof >= 2; at dof = 1 the float value is
    scipy's already.
    """
    if dof < 1 or math.isnan(t_stat):
        return ""
    p = _t_pvalue(t_stat, dof)
    if dof > 1 and any(abs(p - level) <= _NEAR_TIE * level for level, _ in _STAR_LEVELS):
        p = _t_pvalue_exact(t_stat, dof)
    for level, stars in _STAR_LEVELS:
        if p < level:
            return stars
    return ""
