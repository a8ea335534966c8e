import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdhedge.errors import DataError, InsufficientDataError
from emdhedge.estimators import mv_ratio
from emdhedge.performance import (
    Criterion,
    he_var,
    he_variance,
    moments,
    var_quantile,
)
from emdhedge.series import DiffKind, horizon_diff
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair


class TestHeVariance:
    def test_perfect_hedge_is_one(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        eff = he_variance(s, np.zeros(4))
        assert eff.value == pytest.approx(1.0)

    def test_unhedged_is_zero(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        assert he_variance(s, s).value == pytest.approx(0.0)

    def test_harmful_hedge_negative(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        assert he_variance(s, 2 * s).value == pytest.approx(-3.0)

    def test_constant_spot_degenerate(self):
        eff = he_variance(np.full(10, 0.01), np.zeros(10))
        assert eff.degenerate
        assert np.isnan(eff.value)

    def test_matches_regression_r_squared(self):
        # at the minimum-variance ratio with intercept-corrected returns,
        # variance reduction equals the regression R-squared
        spot, fut = gen_coint_pair(SynthSpec(length=600, seed=21, coint=CointSpec()))
        est = mv_ratio(spot, fut, 1)
        ds = horizon_diff(spot, 1, DiffKind.LOG).values
        df = horizon_diff(fut, 1, DiffKind.LOG).values
        port = ds - est.ratio * df
        eff = he_variance(ds, port)
        assert eff.value == pytest.approx(est.fit.r_squared, abs=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        s = rng.normal(0, 0.02, 200)
        p = s - 0.8 * rng.normal(0, 0.02, 200)
        base = he_variance(s, p).value
        assert he_variance(7.0 * s, 7.0 * p).value == pytest.approx(base, abs=1e-12)


class TestVarQuantile:
    def test_pinned_position_on_1_to_100(self):
        x = np.arange(1.0, 101.0)
        # 1-based position (n-1)*alpha + 1 = 5.95
        assert var_quantile(x, 0.05) == pytest.approx(5.95)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=200)
        assert var_quantile(x, 0.05) == var_quantile(np.sort(x)[::-1].copy(), 0.05)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        qs = [var_quantile(x, a) for a in (0.01, 0.05, 0.1, 0.25, 0.5)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_too_few_obs(self):
        with pytest.raises(InsufficientDataError):
            var_quantile(np.arange(19.0), 0.05)

    def test_alpha_range(self):
        with pytest.raises(DataError):
            var_quantile(np.arange(30.0), 0.7)

    def test_seeded_normal_near_theoretical(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, 20_000)
        assert var_quantile(x, 0.05) == pytest.approx(-1.645, abs=0.05)


class TestHeVar:
    def test_scaled_down_losses(self):
        rng = np.random.default_rng(5)
        s = rng.normal(-0.001, 0.02, 500)
        eff = he_var(s, 0.25 * s, alpha=0.05)
        assert eff.value == pytest.approx(0.75)
        assert eff.criterion is Criterion.VAR
        assert not eff.sign_anomaly

    def test_degenerate_spot_quantile(self):
        s = np.concatenate([np.zeros(30), np.ones(10)])  # q_0.05 = 0
        eff = he_var(s, s, alpha=0.05)
        assert eff.degenerate
        assert np.isnan(eff.value)

    def test_sign_anomaly_flagged(self):
        s = np.linspace(0.01, 0.5, 100)  # all positive: q_alpha > 0
        eff = he_var(s, 0.5 * s, alpha=0.05)
        assert eff.sign_anomaly

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        s = rng.normal(0, 0.02, 400)
        p = 0.3 * rng.normal(0, 0.02, 400)
        base = he_var(s, p).value
        assert he_var(3.0 * s, 3.0 * p).value == pytest.approx(base, abs=1e-12)


class TestMoments:
    def test_two_point_symmetric(self):
        m = moments(np.array([-1.0, -1.0, 1.0, 1.0]))
        assert m.mean == pytest.approx(0.0)
        assert m.std == pytest.approx(np.sqrt(4 / 3))
        assert m.skew == pytest.approx(0.0)
        assert m.kurt == pytest.approx(-2.0)  # flattest possible distribution

    def test_constant_degenerate(self):
        m = moments(np.full(8, 3.0))
        assert m.degenerate
        assert m.std == 0.0
        assert np.isnan(m.skew) and np.isnan(m.kurt)

    def test_seeded_normal_bands(self):
        rng = np.random.default_rng(13)
        x = rng.normal(2.0, 3.0, 50_000)
        m = moments(x)
        assert m.mean == pytest.approx(2.0, abs=0.05)
        assert m.std == pytest.approx(3.0, abs=0.05)
        assert abs(m.skew) <= 0.05
        assert abs(m.kurt) <= 0.1

    def test_location_shift_leaves_shape(self):
        rng = np.random.default_rng(14)
        x = rng.exponential(1.0, 2_000)
        a, b = moments(x), moments(x + 100.0)
        assert b.mean == pytest.approx(a.mean + 100.0)
        assert b.std == pytest.approx(a.std, abs=1e-9)
        assert b.skew == pytest.approx(a.skew, abs=1e-9)
        assert b.kurt == pytest.approx(a.kurt, abs=1e-9)

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            moments(np.array([1.0, 2.0, 3.0]))

    def test_matches_scipy_stats(self):
        from scipy import stats

        rng = np.random.default_rng(15)
        samples = [rng.standard_t(3, n) * 10.0 ** rng.uniform(-6, 3) for n in (4, 5, 30, 500)]
        samples += [np.round(rng.standard_normal(40), 1) + 1e4, rng.exponential(2.0, 100)]
        round_off = 1.0 + np.finfo(float).eps * (np.arange(8) % 2)
        assert np.isnan(moments(round_off).skew)  # m2 at round-off level: shape undefined
        for x in samples + [round_off]:
            m = moments(x)
            with warnings.catch_warnings():  # scipy flags the round-off case
                warnings.simplefilter("ignore", RuntimeWarning)
                np.testing.assert_array_equal(
                    [m.skew, m.kurt],
                    [stats.skew(x, bias=True), stats.kurtosis(x, fisher=True, bias=True)],
                )


finite_returns = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=20,
    max_size=200,
)


class TestProperties:
    @given(finite_returns, st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_quantile_bounded_by_order_statistics(self, xs, alpha):
        x = np.array(xs)
        q = var_quantile(x, alpha)
        assert x.min() <= q <= x.max()

    @given(finite_returns, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_quantile_scales_homogeneously(self, xs, lam):
        x = np.array(xs)
        assert var_quantile(lam * x, 0.05) == pytest.approx(
            lam * var_quantile(x, 0.05), rel=1e-9, abs=1e-12
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=30, deadline=None)
    def test_effectiveness_scale_invariant(self, seed, lam):
        rng = np.random.default_rng(seed)
        s = rng.normal(0, 0.02, 100)
        p = s - rng.normal(0, 0.02, 100)
        assert he_variance(lam * s, lam * p).value == pytest.approx(
            he_variance(s, p).value, abs=1e-10
        )
