import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdhedge.emd import Imf, ImfSet, decompose
from emdhedge.errors import (
    DataError,
    InsufficientDataError,
    NumericError,
    SingularDesignError,
)
from emdhedge import methods
from emdhedge.estimators import (
    ECM_RANK_DEFICIENT,
    MIN_OBS,
    RANK_DEFICIENT,
    _eecm_factor,
    _eecm_select,
    _full_rank,
    _legs,
    _min_rows,
    Method,
    aggregate_imfs,
    design_rows,
    eecm_ratio,
    horizon_of,
    ols,
    pair_imfs,
)
from emdhedge.cpcv import Scheme, partition, run_cv, split_table
from emdhedge.methods import make_ratio_fn
from emdhedge.series import PriceSeries, check_segments, log_returns, restrict
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair
import oracle
from oracle import WHOLE, whole


def price_series(values):
    ts = np.datetime64("2015-01-01") + np.arange(len(values))
    return PriceSeries(ts, np.asarray(values, dtype=float))


class TestOls:
    def test_identity(self):
        x = np.linspace(1, 10, 30)
        fit = ols(x, x)
        assert fit.slope == pytest.approx(1.0)
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_affine(self):
        x = np.linspace(-3, 5, 40)
        fit = ols(2 * x + 1, x)
        assert fit.slope == pytest.approx(2.0)
        assert fit.alpha == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([0.5, -1.2, 2.0]) + 0.3 + rng.normal(0, 0.5, 50)
        fit = ols(y, X, intercept=True)
        # brute-force normal equations
        D = np.column_stack([np.ones(50), X])
        coef = np.linalg.solve(D.T @ D, D.T @ y)
        assert fit.alpha == pytest.approx(coef[0], abs=1e-8)
        assert np.allclose(fit.beta, coef[1:], atol=1e-8)
        resid = y - D @ coef
        sse = resid @ resid
        tss = np.sum((y - y.mean()) ** 2)
        assert fit.r_squared == pytest.approx(1 - sse / tss, abs=1e-10)
        sigma2 = sse / (50 - 4)
        se = np.sqrt(np.diag(np.linalg.inv(D.T @ D)) * sigma2)
        assert np.allclose(fit.t_stats, coef / se, atol=1e-8)
        np.testing.assert_allclose(fit.t_stats, coef / se, rtol=1e-8)

    def test_singular_design(self):
        x = np.ones(30)
        with pytest.raises(SingularDesignError):
            ols(np.arange(30.0), x, intercept=True)

    def test_too_few_obs(self):
        with pytest.raises(InsufficientDataError):
            ols(np.arange(3.0), np.arange(3.0))

    def test_exactly_collinear_column(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        with pytest.raises(SingularDesignError):
            ols(rng.normal(size=40), np.column_stack([x, 3.0 * x]))

    def test_obs_count_boundary(self):
        # 3 coefficients: n = p + 1 is rejected, n = p + 2 is fitted
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        with pytest.raises(InsufficientDataError):
            ols(y[:4], X[:4])
        assert ols(y, X).n_obs == 5


def coint_pair(seed=0, n=2000, b=0.9, phi=0.8, sigma=0.005):
    return gen_coint_pair(
        SynthSpec(length=n, seed=seed, coint=CointSpec(long_run_slope=b, basis_phi=phi, basis_sigma=sigma))
    )


class TestMvRatio:
    """MV's laws on the shipped fit, ``make_ratio_fn`` on the whole series."""

    def test_proportional(self):
        rng = np.random.default_rng(1)
        lf = rng.normal(0, 0.01, 100).cumsum()
        fut = price_series(np.exp(lf))
        spot = price_series(np.exp(2 * lf))
        assert whole(Method.MV, spot, fut, 1) == pytest.approx(2.0)
        assert oracle.fit(Method.MV, spot.values, fut.values, 1).r_squared == pytest.approx(1.0)

    def test_zero_covariance(self):
        # alternate the spot move orthogonally to the futures move
        n = 40
        df = np.tile([0.01, -0.01], n // 2)
        ds = np.tile([0.01, 0.01, -0.01, -0.01], n // 4)
        fut = price_series(np.exp(np.concatenate([[0.0], df]).cumsum()))
        spot = price_series(np.exp(np.concatenate([[0.0], ds]).cumsum()))
        dsv = log_returns(spot.values, 1)
        dfv = log_returns(fut.values, 1)
        assert np.cov(dsv, dfv)[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert whole(Method.MV, spot, fut, 1) == pytest.approx(0.0, abs=1e-10)

    def test_cointegrated_pair_recovers_slope(self):
        spot, fut = coint_pair(seed=5)
        assert 0.85 <= whole(Method.MV, spot, fut, 1) <= 0.95

    def test_slope_equals_cov_over_var(self):
        spot, fut = coint_pair(seed=8, n=500)
        for h in (1, 5):
            ds = log_returns(spot.values, h)
            df = log_returns(fut.values, h)
            expected = np.cov(ds, df, ddof=1)[0, 1] / np.var(df, ddof=1)
            assert abs(whole(Method.MV, spot, fut, h) - expected) <= 1e-10

    def test_grid_optimality(self):
        spot, fut = coint_pair(seed=3, n=800)
        ratio = whole(Method.MV, spot, fut, 1)
        ds = log_returns(spot.values, 1)
        df = log_returns(fut.values, 1)
        grid = np.linspace(ratio - 1, ratio + 1, 201)
        variances = [np.var(ds - h * df, ddof=1) for h in grid]
        assert grid[int(np.argmin(variances))] == pytest.approx(ratio, abs=0.01)

    def test_degenerate_futures(self):
        # constant futures: dF is all zero, so [1, dF] fails the rank rule
        fut = price_series(np.full(100, 10.0))
        spot, _ = coint_pair(seed=1, n=100)
        with pytest.raises(SingularDesignError, match=f"^{RANK_DEFICIENT}$"):
            whole(Method.MV, spot, fut, 1)

    def test_scale_invariance(self):
        spot, fut = coint_pair(seed=4, n=400)
        base = whole(Method.MV, spot, fut, 3)
        spot2 = price_series(spot.values * 17.0)
        fut2 = price_series(fut.values * 0.003)
        assert whole(Method.MV, spot2, fut2, 3) == pytest.approx(base, abs=1e-12)


class TestEcmRatio:
    def test_identical_series_perfect_match(self):
        spot, _ = coint_pair(seed=2, n=300)
        fut = price_series(spot.values)
        assert whole(Method.ECM, spot, fut, 1) == pytest.approx(1.0)
        assert oracle.fit(Method.ECM, spot.values, fut.values, 1).r_squared == pytest.approx(1.0)

    def test_restricted_variant_equals_mv(self):
        # ECM's design restricted to [1, dF] is MV's: its rows hold MV's bit
        # for bit, so its fit is the shipped MV fit
        spot, fut = coint_pair(seed=6, n=400)
        for h in (1, 5):
            ecm, _ = design_rows(Method.ECM, spot.values, fut.values, h)
            assert np.array_equal(ecm[:, [0, 1, -1]], design_rows(Method.MV, spot.values, fut.values, h)[0])
            restricted = oracle.fit(Method.ECM, spot.values, fut.values, h, p=2).slope
            assert restricted == pytest.approx(whole(Method.MV, spot, fut, h), abs=1e-14)

    def test_closer_to_long_run_slope_than_mv(self):
        # strong mean reversion pushes the short-run MV slope below the
        # long-run slope; the error-correction terms recover part of it
        closer = 0
        for seed in range(10):
            spot, fut = coint_pair(seed=seed, n=3000, b=0.9, phi=0.97, sigma=0.012)
            mv = whole(Method.MV, spot, fut, 1)
            ecm = whole(Method.ECM, spot, fut, 1)
            closer += abs(ecm - 0.9) <= abs(mv - 0.9)
        assert closer >= 6


class TestEecmRatio:
    """EECM's laws on the shipped fit, its lags read from ``_eecm_select``;
    a design without u, which the shipped fit never takes, on the oracle alone."""

    def test_degenerate_grid(self, monkeypatch):
        spot, fut = coint_pair(seed=9, n=300)
        lags = oracle.recorded_lags(monkeypatch)
        assert np.isfinite(eecm_ratio(spot, fut, 1, max_lag=0))
        assert lags == [(0, 0)]

    def test_max_lag_zero_without_u_equals_mv(self):
        spot, fut = coint_pair(seed=10, n=400)
        without_u = oracle.eecm(spot.values, fut.values, 1, max_lag=0, include_u=False)
        assert without_u.slope == pytest.approx(whole(Method.MV, spot, fut, 1), abs=1e-14)

    def test_aic_selects_lags_with_ar2_dynamics(self, monkeypatch):
        # AR(2) basis dynamics should make nonzero lag choices common
        lags = oracle.recorded_lags(monkeypatch)
        n = 400
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lf = 4.6 + np.cumsum(0.0002 + 0.01 * rng.normal(size=n))
            u = np.zeros(n)
            eps = 0.004 * rng.normal(size=n)
            for t in range(2, n):
                u[t] = 1.2 * u[t - 1] - 0.5 * u[t - 2] + eps[t]
            spot = price_series(np.exp(0.1 + 0.9 * lf + u))
            fut = price_series(np.exp(lf))
            eecm_ratio(spot, fut, 1, max_lag=3)
        assert len(lags) == 40
        assert sum(lag != (0, 0) for lag in lags) > 20

    def test_tie_break_prefers_parsimony(self):
        # a perfectly deterministic relation makes every candidate SSE ~ 0;
        # AIC floors at -inf and the tie-break picks the smallest (m+n, m)
        lf = np.linspace(4.0, 4.5, 200) + 0.05 * np.sin(np.arange(200) / 5)
        assert oracle.eecm(np.exp(lf), np.exp(lf), 1, max_lag=2, include_u=False).lags == (0, 0)


class TestEecmLagSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_grid(self, seed, monkeypatch):
        # the whole series, then the two-segment sample as groups 0 and 2 of three
        spot, fut = coint_pair(seed=seed, n=300)
        groups = (range(0, 130), range(130, 170), range(170, 300))
        samples = (None, (groups[0], groups[2]))
        lags = oracle.recorded_lags(monkeypatch)
        for h in (1, 5, 17):
            # log_levels=False is ``--levels raw``
            for log_levels in (True, False):
                fn = make_ratio_fn(Method.EECM, spot, fut, h, log_levels=log_levels, groups=groups)
                del lags[:]
                got = fn(np.array([[True, True, True], [True, False, True]]))
                for ratio, lag, segs in zip(got, lags, samples, strict=True):
                    want = oracle.eecm(spot.values, fut.values, h, 10, segs, log_levels=log_levels)
                    assert lag == want.lags, (h, log_levels, segs)
                    assert abs(ratio - want.slope) <= 1e-12, (h, log_levels, segs)

    @pytest.mark.parametrize("include_u", [True, False])
    def test_rank_deficient_full_design(self, include_u, monkeypatch):
        # a futures leg repeating every 4 days makes dF lag 4 a copy of dF
        # (and dF plus lags 1..3 sum to zero), so the full design fails the
        # rank rule and each candidate is checked on its own
        rng = np.random.default_rng(0)
        n = 300
        lf = np.tile(4.0 + 0.02 * rng.normal(size=4), n // 4)
        ls = 0.1 + 0.9 * lf + 0.001 * rng.normal(size=n).cumsum() + 0.005 * rng.normal(size=n)
        want = oracle.eecm(np.exp(ls), np.exp(lf), 1, 6, include_u=include_u)
        assert want.deficient
        assert want.lags[1] <= 2
        if include_u:
            lags = oracle.recorded_lags(monkeypatch)
            ratio = eecm_ratio(price_series(np.exp(ls)), price_series(np.exp(lf)), 1, max_lag=6)
            assert lags == [want.lags]
            assert abs(ratio - want.slope) <= 1e-12


# ``_eecm_select`` as it was when it QR-factored every candidate column set
# whole, kept verbatim as the oracle of the trailing-block search
def eecm_select_oracle(r: np.ndarray, nobs: np.ndarray, n_base: int, max_lag: int):
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
        aic[:, m][fit] = [
            n * math.log(s / n) + 2 * k if s > 0 else -math.inf
            for s, n, k in zip(sse[fit].tolist(), n_b[fit].tolist(), p_b[fit].tolist())
        ]
    fit = ~np.isnan(aic)
    best = np.where(fit, aic, np.inf).min(axis=(1, 2))
    order = (lags[:, None] + lags) * (max_lag + 1) + lags[:, None]  # (m + n, m) at [m, n]
    key = np.where(fit & (aic == best[:, None, None]), order, order.max() + 1)
    m, n_ = np.divmod(key.reshape(len(r), order.size).argmin(axis=1), max_lag + 1)
    m[~fit.any(axis=(1, 2))] = -1
    return m, n_, rms


def _stacks(seed, splits, rows, cols, kind):
    """R factors of (splits, rows, cols) random designs; ``kind`` repeats a
    column, copies a late dF lag into column 4 (a dS lag of a grid with a
    large max_lag), makes one nearly collinear, or leaves them random."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(splits, rows, cols))
    if kind == "repeated" and cols > 3:
        x[:, :, -2] = x[:, :, 1]
    if kind == "repeated lags":
        x[:, :, 4] = x[:, :, -4]
    if kind == "near-collinear" and cols > 3:
        x[:, :, 2] = x[:, :, 1] + 1e-9 * rng.normal(size=(splits, rows))
    return np.linalg.qr(x, mode="r")


class TestEecmTrailingBlock:
    @pytest.mark.parametrize("kind", ["random", "repeated", "near-collinear"])
    @pytest.mark.parametrize("max_lag, rows", [(0, 30), (1, 8), (3, 40), (10, 60), (10, 12)])
    def test_a_column_sets_r_is_the_prefix_over_the_trailing_blocks_r(self, kind, max_lag, rows):
        # the leading n_base + m columns are already upper triangular: LAPACK
        # reflects only zero sub-columns there (tau = 0)
        n_base = 3
        r = _stacks(max_lag + rows, 5, rows, n_base + 2 * max_lag + 1, kind)
        tail = list(range(n_base + max_lag, n_base + 2 * max_lag + 1))
        for m in range(max_lag + 1):
            k = n_base + m
            cols = list(range(k)) + tail
            whole = np.linalg.qr(r[:, :, cols], mode="r")
            parts = np.zeros_like(whole)
            parts[:, :k] = r[:, :k, cols]
            parts[:, k:, k:] = np.linalg.qr(r[:, k:, tail], mode="r")
            assert whole.tobytes() == parts.tobytes(), m

    @pytest.mark.parametrize(
        "case",
        [
            "random", "repeated", "near-collinear", "repeated lags", "repeated lags, few rows", "few rows",
            "no rows", "short r", "max_lag 0", "max_lag 1",
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_whole_column_set_search(self, case, seed):
        rng = np.random.default_rng(seed)
        max_lag = {"max_lag 0": 0, "max_lag 1": 1}.get(case, 10)
        n_base = 3 if seed % 2 else 2
        cols = n_base + 2 * max_lag + 1
        # "short r": fewer rows than columns, as the shipped fit factors a short sample
        rows = 12 if case == "short r" else cols + 30
        # "repeated lags": only the candidates holding both copies are deficient,
        # so the largest candidate of each small m passes and of each large m fails
        kind = case.split(",")[0] if case.startswith(("repeated", "near-collinear")) else "random"
        r = _stacks(seed, 6, rows, cols, kind)
        nobs = np.full(6, rows)
        if case.endswith("few rows"):  # nobs <= p + 1 rules out most candidates of most splits
            nobs = rng.integers(0, n_base + max_lag + 4, size=6)
        if case == "no rows":
            nobs[[1, 4]] = 0
        want_m, want_n, want_rms = eecm_select_oracle(r, nobs, n_base, max_lag)
        m, n_ = _eecm_select(r, nobs, n_base, max_lag)
        assert m.tolist() == want_m.tolist() and n_.tolist() == want_n.tolist()
        # the factor ``methods._fit_splits`` solves, built on each winning (m, n)'s splits
        for w, v in set(zip(m[m >= 0].tolist(), n_[m >= 0].tolist())):
            won = (m == w) & (n_ == v)
            assert _eecm_factor(r[won], w, n_base, max_lag).tobytes() == want_rms[w][won].tobytes(), (w, v)

    def test_a_deficient_design_takes_an_svd_only_per_candidate_with_enough_rows(self, monkeypatch):
        # 10 rows at max_lag 10: only the 21 candidates with m + n <= 5 pass
        # nobs > p + 1; a futures leg repeating every 4 days makes dF and its
        # lags 1..3 sum to zero, so the full design and every candidate with
        # n >= 3 are rank deficient
        rng = np.random.default_rng(1)
        lf = np.tile(4.0 + 0.02 * rng.normal(size=4), 6)[:21]
        ls = 0.1 + 0.9 * lf + 0.005 * rng.normal(size=21)
        spot, fut = price_series(np.exp(ls)), price_series(np.exp(lf))
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kw):
            calls.append(args[0].shape)
            return svd(*args, **kw)

        lags = oracle.recorded_lags(monkeypatch)
        monkeypatch.setattr(np.linalg, "svd", counting)
        ratio = eecm_ratio(spot, fut, 1, max_lag=10)
        monkeypatch.undo()
        want = oracle.eecm(spot.values, fut.values, 1, 10)
        assert want.deficient
        assert lags == [want.lags]
        assert abs(ratio - want.slope) <= 1e-12 * abs(want.slope)
        # the cointegrating regression's rank rule, the full design, the
        # largest candidate (m, 5 - m) of each m, then, below the three of
        # those that fail (m = 0, 1, 2), each candidate on its own; the winner
        # is solved from its R factor, with no SVD
        assert len(calls) == 1 + 1 + 6 + (5 + 4 + 3)
        assert calls[0][1:] == (2, 2) and calls[1][2] == 3 + 2 * 10
        assert [shape[2] for shape in calls[2:8]] == [3 + 5] * 6


class TestPairImfs:
    def test_equal_counts(self):
        t = np.arange(1500.0)
        x = np.sin(2 * np.pi * t / 12) + np.sin(2 * np.pi * t / 80) + 0.001 * t + 5
        a = decompose(x)
        b = decompose(x * 1.3)
        pairs, surplus = pair_imfs(a, b)
        if len(a.imfs) == len(b.imfs):
            assert not surplus
        assert pairs[-1].index is None
        assert len(pairs) == min(len(a.imfs), len(b.imfs)) + 1

    def test_unequal_counts_reports_surplus(self):
        t = np.arange(2000.0)
        x = np.sin(2 * np.pi * t / 10) + np.sin(2 * np.pi * t / 60) + np.sin(2 * np.pi * t / 400) + 3
        y = np.sin(2 * np.pi * t / 10) + 3
        a, b = decompose(x), decompose(y)
        pairs, surplus = pair_imfs(a, b)
        n = min(len(a.imfs), len(b.imfs))
        assert len(pairs) == n + 1
        assert len(surplus) == abs(len(a.imfs) - len(b.imfs))

    def test_self_pairs_match_perfectly(self):
        t = np.arange(800.0)
        x = np.sin(2 * np.pi * t / 15) + 0.5 * np.sin(2 * np.pi * t / 120) + 2
        a = decompose(x)
        pairs, _ = pair_imfs(a, a)
        for pair in pairs[:-1]:
            fit = ols(pair.spot, pair.fut)
            assert fit.slope == pytest.approx(1.0)
            assert fit.r_squared == pytest.approx(1.0)


def synthetic_pair_sets():
    t = np.arange(1200.0)
    x = np.sin(2 * np.pi * t / 14) + np.sin(2 * np.pi * t / 150) + 0.002 * t + 4
    spot_set = decompose(x)
    fut_set = decompose(0.5 * x)
    return spot_set, fut_set


def _emd_whole(method, spot_set, fut_set, horizon, imf_index=None):
    """The shipped full-scope fit of an EMD method on these decompositions, on
    the whole series (the prices it is given are read for their length only)."""
    prices = price_series(np.ones(spot_set.source_len))
    return whole(method, prices, prices, horizon, imf_index, (spot_set, fut_set))


def _emd_oracle(method, spot_set, fut_set, horizon, imf_index=None, segments=None):
    """The oracle's fit of an EMD method on the legs ``_legs`` picks."""
    return oracle.fit(method, *_legs(method, spot_set, fut_set, horizon, imf_index), horizon, segments)


class TestVemdRatio:
    def test_half_amplitude_futures(self):
        spot_set, fut_set = synthetic_pair_sets()
        for h in (1, 5):
            assert _emd_whole(Method.VEMD, spot_set, fut_set, h, 1) == pytest.approx(2.0, abs=1e-9)

    def test_self_pair(self):
        spot_set, _ = synthetic_pair_sets()
        assert _emd_whole(Method.VEMD, spot_set, spot_set, 3, 1) == pytest.approx(1.0)
        assert _emd_oracle(Method.VEMD, spot_set, spot_set, 3, 1).r_squared == pytest.approx(1.0)

    def test_horizon_equal_to_exact_period_degenerates(self):
        # differencing a pure tone at exactly its period yields all zeros
        t = np.arange(400.0)
        x = np.sin(2 * np.pi * t / 20)
        with pytest.raises(NumericError):
            _emd_whole(Method.VEMD, _imf_set(x), _imf_set(x), 20, 1)

    def test_segment_restriction_changes_sample(self):
        # groups cut at the segment bounds: the split training on groups 0
        # and 2 pools 298 rows of each, the whole series 1198
        spot_set, fut_set = synthetic_pair_sets()
        segs = (range(0, 300), range(600, 900))
        part, full = (_emd_oracle(Method.VEMD, spot_set, fut_set, 2, 1, s) for s in (segs, None))
        assert part.n_obs == 2 * (300 - 2)
        assert full.n_obs == 1200 - 2
        groups = tuple(range(a, a + 300) for a in range(0, 1200, 300))
        prices = price_series(np.ones(1200))
        fn = make_ratio_fn(Method.VEMD, prices, prices, 2, 1, (spot_set, fut_set), groups=groups)
        got = fn(np.array([[True, False, True, False], [True] * 4]))
        assert got == [pytest.approx(want.slope, rel=1e-12, abs=0.0) for want in (part, full)]
        assert got[0] != got[1]

    def test_scale_invariance(self):
        spot_set, fut_set = synthetic_pair_sets()
        base = _emd_whole(Method.VEMD, spot_set, fut_set, 2, 1)
        spot, scaled = _imf_set(spot_set.imfs[0].values), _imf_set(fut_set.imfs[0].values * 100.0)
        assert _emd_whole(Method.VEMD, spot, scaled, 2, 1) * 100.0 == pytest.approx(base, abs=1e-12)


class TestSemdRatio:
    def test_half_amplitude_futures(self):
        spot_set, fut_set = synthetic_pair_sets()
        assert _emd_whole(Method.SEMD, spot_set, fut_set, 1, 1) == pytest.approx(2.0, abs=1e-9)

    def test_uses_levels_not_differences(self):
        spot_set, fut_set = synthetic_pair_sets()
        # sample size is the full IMF length regardless of horizon, and so is the ratio
        assert _emd_oracle(Method.SEMD, spot_set, fut_set, 5, 1).n_obs == 1200
        assert _emd_whole(Method.SEMD, spot_set, fut_set, 5, 1) == _emd_whole(Method.SEMD, spot_set, fut_set, 1, 1)


class TestAemdRatio:
    def test_single_qualifying_imf_matches_semd(self):
        spot_set, fut_set = synthetic_pair_sets()
        cycles = [i.cycle for i in spot_set.imfs]
        h = int(np.ceil(cycles[0])) + 1
        assert sum(c <= h for c in cycles) == 1
        agg = _emd_whole(Method.AEMD, spot_set, fut_set, h)
        assert agg == pytest.approx(_emd_whole(Method.SEMD, spot_set, fut_set, 1, 1), abs=1e-12)

    def test_no_qualifying_imf_raises(self):
        spot_set, fut_set = synthetic_pair_sets()
        with pytest.raises(DataError):
            _emd_whole(Method.AEMD, spot_set, fut_set, 1)

    def test_large_horizon_includes_all(self):
        spot_set, fut_set = synthetic_pair_sets()
        assert _emd_whole(Method.AEMD, spot_set, fut_set, 10_000) == pytest.approx(2.0, abs=1e-6)

    def test_an_imf_counts_at_the_horizon_of_its_own_cycle(self):
        # the auto row of an IMF with cycle 3.3 has h = 3, and its aggregate
        # must hold that IMF
        vals = np.random.default_rng(0).normal(size=(3, 50))
        cycles = (1.4, 3.3, 9.0)
        imfs = tuple(Imf(v, i + 1, c, 1, 1, 1, 1, True) for i, (v, c) in enumerate(zip(vals, cycles)))
        imf_set = ImfSet(imfs, np.zeros(50), 50)
        assert [horizon_of(c) for c in (0.2, 1.4, 2.5, 3.3, 3.5, 9.0)] == [1, 1, 2, 3, 4, 9]
        spot, fut = aggregate_imfs(imf_set, imf_set, 3)
        assert np.array_equal(spot, vals[0] + vals[1]) and np.array_equal(fut, spot)


@pytest.mark.parametrize(
    "method, imf_index",
    [
        (Method.VEMD, 1),
        (Method.SEMD, 2),
        (Method.AEMD, None),
        (Method.VEMD, None),
        (Method.SEMD, 3),  # the residue pair
        (Method.VEMD, 4),
        (Method.SEMD, 0),  # not the residue pair through pairs[-1]
        (Method.VEMD, -1),
    ],
)
def test_legs_is_the_series_an_emd_method_regresses(method, imf_index):
    # the batched ratio functions take their series from ``_legs``, in both scopes
    spot_set, fut_set = synthetic_pair_sets()
    assert len(spot_set.imfs) == len(fut_set.imfs) == 2
    if method is Method.AEMD:
        got, want = _legs(method, spot_set, fut_set, 20, imf_index), aggregate_imfs(spot_set, fut_set, 20)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    elif imf_index is None or not 1 <= imf_index <= 2:
        with pytest.raises(DataError, match=f"^spot IMF{imf_index} has no futures IMF to pair with$"):
            _legs(method, spot_set, fut_set, 20, imf_index)
    else:
        s, f = _legs(method, spot_set, fut_set, 20, imf_index)
        assert s is spot_set.imfs[imf_index - 1].values and f is fut_set.imfs[imf_index - 1].values


def _walk(n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(4.0 + np.cumsum(0.01 * rng.normal(size=n)))


def _imf_set(values):
    imf = Imf(values, 1, 2.0, 0, 0, 0, 1, True)
    return ImfSet((imf,), np.zeros(len(values)), len(values))


def _emd_sets(n):
    """One-IMF (spot, futures) decompositions of n log prices."""
    return _imf_set(np.log(_walk(n, 1))), _imf_set(np.log(_walk(n, 2)))


def _prices(n):
    """The (spot, futures) price series of n prices the cases below regress."""
    return price_series(_walk(n, 1)), price_series(_walk(n, 2))


# the shipped ratio function of each case: its one split trains on the whole
# series and has exactly n regression observations
BOUNDARY_CASES = {
    "MV": lambda n: make_ratio_fn(Method.MV, *_prices(n + 1), 1),
    "ECM": lambda n: make_ratio_fn(Method.ECM, *_prices(n + 1), 1),
    "EECM": lambda n: make_ratio_fn(Method.EECM, *_prices(n + 1), 1, max_lag=0),
    "VEMD": lambda n: make_ratio_fn(Method.VEMD, *_prices(n + 1), 1, 1, _emd_sets(n + 1)),
    "SEMD": lambda n: make_ratio_fn(Method.SEMD, *_prices(n), 1, 1, _emd_sets(n)),
    "AEMD": lambda n: make_ratio_fn(Method.AEMD, *_prices(n), 5, None, _emd_sets(n)),
}
# the oracle's fit of each case on the same data
ORACLE_BOUNDARY_CASES = {
    "MV": lambda n: oracle.fit(Method.MV, _walk(n + 1, 1), _walk(n + 1, 2), 1),
    "ECM": lambda n: oracle.fit(Method.ECM, _walk(n + 1, 1), _walk(n + 1, 2), 1),
    "EECM": lambda n: oracle.eecm(_walk(n + 1, 1), _walk(n + 1, 2), 1, max_lag=0),
    "VEMD": lambda n: _emd_oracle(Method.VEMD, *_emd_sets(n + 1), 1, 1),
    "SEMD": lambda n: _emd_oracle(Method.SEMD, *_emd_sets(n), 1, 1),
    "AEMD": lambda n: _emd_oracle(Method.AEMD, *_emd_sets(n), 5),
}


@pytest.mark.parametrize("method", sorted(BOUNDARY_CASES))
class TestMinObsBoundary:
    def test_one_below_minimum_rejected(self, method):
        (got,) = BOUNDARY_CASES[method](MIN_OBS - 1)(WHOLE)
        assert isinstance(got, InsufficientDataError)

    def test_minimum_accepted(self, method):
        (got,) = BOUNDARY_CASES[method](MIN_OBS)(WHOLE)
        assert np.isfinite(got)
        assert ORACLE_BOUNDARY_CASES[method](MIN_OBS).n_obs == MIN_OBS

    def test_batched_one_below_minimum_gives_the_same_error(self, method):
        want = _raised(lambda: ORACLE_BOUNDARY_CASES[method](MIN_OBS - 1))
        assert want[0] == "InsufficientDataError"
        (got,) = BOUNDARY_CASES[method](MIN_OBS - 1)(WHOLE)
        assert _raised(lambda: got) == want

    def test_batched_minimum_gives_the_same_ratio(self, method):
        (got,) = BOUNDARY_CASES[method](MIN_OBS)(WHOLE)
        assert got == pytest.approx(ORACLE_BOUNDARY_CASES[method](MIN_OBS).slope, rel=1e-12, abs=0.0)


# segments that are not a training sample of a 200-observation series, and
# the words of the check each must fail
BAD_SEGMENTS = {
    "out of bounds": ((range(0, 50), range(190, 210)), "out of bounds"),
    "empty": ((range(0, 50), range(60, 60)), "empty segment"),
    "overlapping": ((range(0, 50), range(40, 90)), "overlaps"),
    "step 2": ((range(0, 100, 2),), "step 2"),
    "no segment": ((), "at least one segment"),
}
_S, _F = price_series(_walk(200, 1)), price_series(_walk(200, 2))
_SETS = _imf_set(np.log(_S.values)), _imf_set(np.log(_F.values))
# the shipped takers of a training sample (no estimator takes one: the CLI's
# is partition groups plus a training mask), and each method's pooled sample
# in the oracle, on its series: prices, or the legs ``_legs`` picks
SEGMENT_TAKERS = {
    "restrict": lambda segs: restrict(_S, segs),
    "check_segments": lambda segs: check_segments(segs, len(_S)),
    "MV": lambda segs: oracle.fit(Method.MV, _S.values, _F.values, 3, segs),
    "ECM": lambda segs: oracle.fit(Method.ECM, _S.values, _F.values, 3, segs),
    "EECM": lambda segs: oracle.eecm(_S.values, _F.values, 3, max_lag=2, segments=segs),
    "VEMD": lambda segs: _emd_oracle(Method.VEMD, *_SETS, 3, 1, segs),
    "SEMD": lambda segs: _emd_oracle(Method.SEMD, *_SETS, 1, 1, segs),
    "AEMD": lambda segs: _emd_oracle(Method.AEMD, *_SETS, 5, None, segs),
}


@pytest.mark.parametrize("case", sorted(BAD_SEGMENTS))
@pytest.mark.parametrize("taker", sorted(SEGMENT_TAKERS))
def test_segments_that_are_not_a_training_sample_are_rejected(taker, case):
    segs, words = BAD_SEGMENTS[case]
    SEGMENT_TAKERS[taker]((range(0, 50), range(100, 200)))  # a valid sample is accepted
    with pytest.raises(DataError, match=words):
        SEGMENT_TAKERS[taker](segs)


_PRICES = np.linspace(1.0, 2.0, 12) ** 2


@pytest.mark.parametrize(
    "call, bad, good, message",
    [
        (lambda k: ols(_PRICES, np.arange(float(k))), 11, 12, "y and X row counts differ"),
        (lambda h: design_rows(Method.MV, _PRICES, _PRICES, h), 0, 1, "horizon must be >= 1"),
        (lambda lag: design_rows(Method.EECM, _PRICES, _PRICES, 1, lag), -1, 0, "max_lag must be >= 0"),
        (lambda n: PriceSeries(price_series(_PRICES).timestamps[:n], _PRICES), 11, 12,
         "timestamps and values must have equal length"),
        # the price range is open above and closed below
        (lambda x: price_series(np.append(_PRICES, x)), 2.0**511, np.nextafter(2.0**511, 0.0),
         re.escape("price values must be in [2^-511, 2^511)")),
        (lambda x: price_series(np.append(_PRICES, x)), np.nextafter(2.0**-511, 0.0), 2.0**-511,
         re.escape("price values must be in [2^-511, 2^511)")),
        (lambda n: partition(100, Scheme.EQUAL_COUNT, n), 1, 2, "need at least 2 groups"),
        (lambda s: partition(s, Scheme.CALENDAR_YEAR), 400, _prices(400)[0],  # 2015-01-01 to 2016-02-04
         "calendar-year partition needs a timestamped series"),
        (lambda scheme: partition(100, scheme), "equal", Scheme.EQUAL_COUNT, "unknown partition scheme equal"),
        (lambda n: run_cv(_prices(400)[0], price_series(_walk(n, 2)), {"MV": lambda b: [1.0] * len(b)}, 1,
                          partition(400, Scheme.EQUAL_COUNT, 4), 2), 399, 400,
         "spot and futures series must be aligned"),
    ],
)
def test_a_library_callers_argument_is_checked_at_its_edge(call, bad, good, message):
    # the CLI never passes these arguments this way
    call(good)
    with pytest.raises(DataError, match=f"^{message}$"):
        call(bad)


def _raised(call):
    """(class name, message) of the error ``call`` raises or returns, else None."""
    try:
        got = call()
    except (DataError, NumericError) as exc:
        got = exc
    return (type(got).__name__, str(got)) if isinstance(got, Exception) else None


class TestFitBoundaries:
    """Each estimator boundary at its edge, on the shipped ratio function and
    on the oracle alike."""

    @pytest.mark.parametrize(
        "method, horizon, max_lag, message",
        [
            (Method.ECM, 30, 0, "no segment long enough for the horizon"),
            (Method.EECM, 20, 10, "no segment long enough for horizon + max_lag"),
            (Method.EECM, 29, 1, "no segment long enough for horizon + max_lag"),
        ],
    )
    def test_ecm_and_eecm_without_a_row_name_their_footprint(self, method, horizon, max_lag, message):
        spot, fut = price_series(_walk(30, 1)), price_series(_walk(30, 2))
        estimate = {
            Method.ECM: lambda: oracle.fit(method, spot.values, fut.values, horizon),
            Method.EECM: lambda: oracle.eecm(spot.values, fut.values, horizon, max_lag),
        }[method]
        want = ("InsufficientDataError", message)
        assert _raised(estimate) == want
        whole = make_ratio_fn(method, spot, fut, horizon, max_lag=max_lag)
        halves = make_ratio_fn(method, spot, fut, horizon, max_lag=max_lag, groups=(range(15), range(15, 30)))
        outcomes = whole(WHOLE) + halves(np.array([[True, False], [True, True]]))  # splits training on 0, then 0-1
        assert [_raised(lambda: got) for got in outcomes] == [want] * 3

    def test_an_eecm_batch_whose_every_split_has_failed_skips_the_lag_search(self, monkeypatch):
        # 59 differences, all taken by 60 lags: every split fails its row check before any fit
        def unreachable(*args):
            raise AssertionError("_eecm_select ran on a batch with no live split")

        monkeypatch.setattr(methods, "_eecm_select", unreachable)
        groups = tuple(range(a, a + 12) for a in range(0, 60, 12))
        fn = make_ratio_fn(Method.EECM, *_prices(60), 1, max_lag=60, groups=groups)
        batch = split_table(len(groups), 2)[1]
        want = ("InsufficientDataError", "no segment long enough for horizon + max_lag")
        assert [_raised(lambda: got) for got in fn(batch)] == [want] * 10

    @pytest.mark.parametrize("max_lag, n_rows", [(8, 2), (9, 1), (10, 0), (11, 0), (25, 0)])
    def test_an_eecm_sample_shorter_than_its_footprint_has_no_row(self, max_lag, n_rows):
        # 30 prices give 10 horizon-20 differences, of which max_lag go to the lags
        s, f = _walk(30, 1), _walk(30, 2)
        rows, back = design_rows(Method.EECM, s, f, 20, max_lag)
        assert rows.shape == (n_rows, 5 + 2 * max_lag) and back == 20 + max_lag

    def test_ecm_fails_when_every_reduction_is_rank_deficient(self):
        # log futures linear in time: dF takes two values one ulp apart, so it
        # is not constant, yet [1, dF], the smallest reduction, is deficient
        spot = price_series(np.exp(4.0 + 0.01 * np.random.default_rng(0).normal(size=40).cumsum()))
        fut = price_series(np.exp(4.0 + 0.01 * np.arange(40)))
        rows, _ = design_rows(Method.ECM, spot.values, fut.values, 1)
        assert len(set(rows[:, 1].tolist())) == 2
        want = ("SingularDesignError", ECM_RANK_DEFICIENT)
        assert _raised(lambda: oracle.fit(Method.ECM, spot.values, fut.values, 1)) == want
        assert _raised(lambda: whole(Method.ECM, spot, fut, 1)) == want
        # MV's one design is that reduction
        want = ("SingularDesignError", RANK_DEFICIENT)
        assert _raised(lambda: oracle.fit(Method.MV, spot.values, fut.values, 1)) == want
        assert _raised(lambda: whole(Method.MV, spot, fut, 1)) == want

    @pytest.mark.parametrize("case, p", [("walks", 4), ("identical levels", 3), ("constant spot", 2)])
    def test_ecm_takes_the_first_reduction_of_full_rank(self, case, p):
        # legs equal but for the last spot price make the level columns S and F
        # (read at each row's earlier end) equal, while dS is not dF, so [1, dF, S]
        # and [1, dF] give other slopes; a constant spot makes S a multiple of
        # the intercept, leaving only [1, dF]
        s, f = _walk(60, 1), _walk(60, 2)
        last_moved = f * np.append(np.ones(59), 1.01)
        s = {"walks": s, "identical levels": last_moved, "constant spot": np.full(60, 100.0)}[case]
        want = oracle.fit(Method.ECM, s, f, 1)
        assert want.p == p
        got = whole(Method.ECM, price_series(s), price_series(f), 1)
        assert got == pytest.approx(want.slope, rel=1e-12, abs=1e-15)

    def test_full_scope_aemd_without_an_imf_under_the_horizon_fails_every_split(self):
        # each leg's one IMF has cycle 2, so horizon_of puts it above horizon 1
        sets = _emd_sets(60)
        want = ("DataError", "no spot IMF with cycle <= horizon 1")
        groups = tuple(range(a, a + 12) for a in range(0, 60, 12))
        fn = make_ratio_fn(Method.AEMD, *_prices(60), 1, imfs=sets, groups=groups)
        batch = split_table(len(groups), 2)[1]
        assert [_raised(lambda: got) for got in fn(batch)] == [want] * 10

    @pytest.mark.parametrize("c", [0.0, 2.0, -0.5, 0.1, -3.7])
    def test_ols_on_a_constant_y(self, c):
        # a constant y has a total sum of squares of 0, also where its mean is
        # inexact (0.1, -3.7): R-squared is 1 for an exact zero residual, else 0
        fit = ols(np.full(20, c), np.arange(20.0))
        assert fit.alpha == pytest.approx(c, abs=1e-14) and fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == (1.0 if c == 0.0 else 0.0)

    @pytest.mark.parametrize("c", [0.0, 2.0, -0.5, 0.1, -3.7])
    def test_the_r_squared_of_a_constant_y_does_not_depend_on_its_unit(self, c):
        # scaled by 2^-460 every coefficient and residual scales exactly, and a
        # nonzero residual sum of squares falls under 1e-300: R-squared still
        # reads 1 only for an exact zero residual, as in the unscaled fit
        x = np.arange(20.0)
        unit, tiny = ols(np.full(20, c), x), ols(np.full(20, c * 2.0**-460), x)
        resid = np.full(20, c * 2.0**-460) - tiny.alpha - tiny.slope * x
        assert float(resid @ resid) <= 1e-300
        assert tiny.alpha == unit.alpha * 2.0**-460 and tiny.r_squared == unit.r_squared

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_the_row_rule_and_its_error_are_shared(self, p):
        # ``ols`` and the batched fits reject n = p + 1 rows of p coefficients with one message
        rng = np.random.default_rng(p)
        n = _min_rows(p)
        X, y = rng.normal(size=(n, p - 1)), rng.normal(size=n)
        assert ols(y, X).n_obs == n
        want = ("InsufficientDataError", f"{n - 1} observations for {p} coefficients")
        assert _raised(lambda: ols(y[:-1], X[:-1])) == want
        out = methods._Outcomes(2)
        r = np.linalg.qr(np.column_stack([np.ones(n), X, y])[None].repeat(2, axis=0), mode="r")
        ok, _ = methods._coef(out, np.array([n, n - 1]), r, p, out.live.copy())
        assert ok.tolist() == [True, False] and _raised(lambda: out.errors[1]) == want

    @pytest.mark.parametrize("n_base", [2, 3])
    def test_eecm_candidates_follow_the_row_rule(self, n_base):
        # _min_rows(n_base) rows fit only the lagless candidate; one fewer fits none
        r = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 40, n_base + 2 * 3 + 1)), mode="r")
        m, n_ = _eecm_select(r, np.array([_min_rows(n_base), _min_rows(n_base) - 1]), n_base, 3)
        assert m.tolist() == [0, -1] and n_[0] == 0

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(MIN_OBS, 2000),
        level=st.floats(2.0**-511, 2.0**511, exclude_max=True),
        sign=st.sampled_from([1.0, -1.0, 0.0]),
        spread=st.just(0.0) | st.floats(0.0, 1e-150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_degenerate_futures_column_fails_the_rank_rule(self, method, n, level, sign, spread, seed):
        # every design holds [1, futures], so a futures column that is constant,
        # or spreads by at most 1e-150, at any magnitude, fails the rank rule
        # with its own message, in the oracle and in the shipped fit alike
        if method in (Method.MV, Method.ECM, Method.EECM):
            # a futures leg constant at ``level``: its log differences are all zero
            spot, fut = price_series(_walk(n + 3, seed)), price_series(np.full(n + 3, level))
            if method is Method.EECM:
                want = _raised(lambda: oracle.eecm(spot.values, fut.values, 1, max_lag=2))
            else:
                want = _raised(lambda: oracle.fit(method, spot.values, fut.values, 1))
            got = [make_ratio_fn(method, spot, fut, 1, max_lag=2)(WHOLE)[0]]
        else:
            # a futures IMF at sign * level, plus noise of at most ``spread``
            fut_imf = sign * level + spread * np.random.default_rng(seed).random(n + 1)
            sets = _imf_set(np.log(_walk(n + 1, seed))), _imf_set(fut_imf)
            h, k = (5, None) if method is Method.AEMD else (1, 1)
            want = _raised(lambda: _emd_oracle(method, *sets, h, k))
            scopes = (sets, {range(0, n + 1): sets})  # full, per-segment
            got = [make_ratio_fn(method, *_prices(n + 1), h, k, imfs)(WHOLE)[0] for imfs in scopes]
        assert want == ("SingularDesignError", ECM_RANK_DEFICIENT if method is Method.ECM else RANK_DEFICIENT)
        assert [_raised(lambda: g) for g in got] == [want] * len(got)
