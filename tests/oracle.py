"""A plain least-squares model of the shipped fit, for the tests.

``fit`` computes what ``methods.make_ratio_fn`` fits for MV, ECM and the EMD
family the plain way: the rows of ``estimators.design_rows`` that
``estimators.pool`` keeps, the row rule of ``estimators._check_rows``, the rank
by ``np.linalg.matrix_rank``, ECM's reductions 4, 3, 2 in order, and the slope
by ``np.linalg.lstsq``. The batched fit factors stacked QR factors instead, so
the two agree to round-off, and on a failure by error class and message
(Claessen & Hughes, "QuickCheck", ICFP 2000, on checking an implementation
against an independent model). ``whole`` is the shipped fit on the whole
series.
"""

from dataclasses import dataclass

import numpy as np

from emdhedge.errors import SingularDesignError
from emdhedge.estimators import ECM_RANK_DEFICIENT, RANK_DEFICIENT, Method, _check_rows, design_rows, pool
from emdhedge.methods import make_ratio_fn

# the training mask of one split training on the whole series as its one group
WHOLE = np.ones((1, 1), dtype=bool)


@dataclass(frozen=True)
class Fit:
    """One least-squares fit, read by the names of ``estimators.OlsFit``."""

    slope: float  # the coefficient of the futures column, the hedge ratio
    r_squared: float
    n_obs: int
    p: int  # coefficients fitted, the intercept among them


def fit(method: Method, s, f, horizon: int, segments: tuple[range, ...] | None = None, p: int | None = None) -> Fit:
    """The least-squares hedge of ``method`` on the series ``s`` and ``f``
    (prices for MV and ECM, the legs ``estimators._legs`` picks for the EMD
    family), on the rows inside ``segments`` (default: the whole series).
    ECM takes the first of its reductions whose design has full rank; ``p``
    fits the first p design columns alone, e.g. ECM's restricted [1, dF]."""
    s, f = np.asarray(s, dtype=float), np.asarray(f, dtype=float)
    rows = pool(*design_rows(method, s, f, horizon), segments or (range(0, len(s)),))
    _check_rows(method, len(rows), horizon)
    y = rows[:, -1]
    for k in (p,) if p else (4, 3, 2) if method is Method.ECM else (2,):
        x = rows[:, :k]
        if np.linalg.matrix_rank(x) == k:
            coef = np.linalg.lstsq(x, y, rcond=None)[0]
            resid, tss = y - x @ coef, np.sum((y - y.mean()) ** 2)
            r2 = 1.0 - resid @ resid / tss if tss > 0.0 else np.nan  # undefined for a constant y
            return Fit(float(coef[1]), float(r2), len(rows), k)
    raise SingularDesignError(ECM_RANK_DEFICIENT if method is Method.ECM and not p else RANK_DEFICIENT)


def whole(method: Method, spot, fut, horizon: int, *args, **kw) -> float:
    """``make_ratio_fn``'s ratio on one split training on the whole series,
    or the error it gives, raised."""
    (got,) = make_ratio_fn(method, spot, fut, horizon, *args, **kw)(WHOLE)
    if isinstance(got, Exception):
        raise got
    return got
