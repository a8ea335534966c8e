import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdhedge.errors import DataError, InsufficientDataError
from emdhedge.estimators import Method
from emdhedge.performance import (
    Criterion,
    effectiveness_rows,
    he_var,
    he_variance,
    moments,
    VAR_MIN_OBS,
    var_quantile,
)
from emdhedge.series import log_returns
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair
import oracle
from oracle import whole


class TestHeVariance:
    def test_perfect_hedge_is_one(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        assert he_variance(s, np.zeros(4)) == pytest.approx(1.0)

    def test_unhedged_is_zero(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        assert he_variance(s, s) == pytest.approx(0.0)

    def test_harmful_hedge_negative(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        assert he_variance(s, 2 * s) == pytest.approx(-3.0)

    def test_constant_spot_degenerate(self):
        assert math.isnan(he_variance(np.full(10, 0.01), np.zeros(10)))

    def test_matches_regression_r_squared(self):
        # at the minimum-variance ratio with intercept-corrected returns,
        # variance reduction equals the regression R-squared
        spot, fut = gen_coint_pair(SynthSpec(length=600, seed=21, coint=CointSpec()))
        ds = log_returns(spot.values, 1)
        df = log_returns(fut.values, 1)
        port = ds - whole(Method.MV, spot, fut, 1) * df
        r_squared = oracle.fit(Method.MV, spot.values, fut.values, 1).r_squared
        assert he_variance(ds, port) == pytest.approx(r_squared, abs=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        s = rng.normal(0, 0.02, 200)
        p = s - 0.8 * rng.normal(0, 0.02, 200)
        base = he_variance(s, p)
        assert he_variance(7.0 * s, 7.0 * p) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("spot_n, portfolio_n", [(1, 5), (5, 1), (1, 1), (0, 3)])
def test_variance_reduction_needs_2_observations_a_side(spot_n, portfolio_n):
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientDataError, match="^need at least 2 observations per side$"):
        effectiveness_rows(Criterion.VARIANCE_REDUCTION, rng.normal(size=spot_n), rng.normal(size=(2, portfolio_n)))
    values = effectiveness_rows(Criterion.VARIANCE_REDUCTION, np.array([1.0, 2.0]), np.ones((2, 2)))
    assert values.tolist() == [1.0, 1.0]


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

    @pytest.mark.parametrize(
        "n, alpha",
        [
            (101, 0.25),  # (n-1) alpha = 25: integral, g = 0
            (22, 0.5),  # (n-1) alpha = 10.5: g = 0.5 exactly
            (VAR_MIN_OBS, 0.05),
            (VAR_MIN_OBS, 0.5),
            (250, 0.05),
            (57, 0.013),
        ],
    )
    def test_is_np_quantile_bit_for_bit(self, n, alpha):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(5, n))
        x[1] = np.round(x[1], 1)  # ties
        x[2, n // 3] = np.nan
        x[3, :4] = x[3, 4:8] = 0.0
        x[3, :4] = -0.0  # signed zero ties
        for got, want in [
            (var_quantile(x, alpha), np.quantile(x, alpha, axis=-1, method="linear")),
            *((var_quantile(row, alpha), np.quantile(row, alpha, method="linear")) for row in x),
        ]:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.isnan(var_quantile(x, alpha)[2])


class TestHeVar:
    def test_scaled_down_losses(self):
        rng = np.random.default_rng(5)
        s = rng.normal(-0.001, 0.02, 500)
        assert he_var(s, 0.25 * s, alpha=0.05) == pytest.approx(0.75)

    def test_degenerate_spot_quantile(self):
        s = np.concatenate([np.zeros(30), np.ones(10)])  # q_0.05 = 0
        assert math.isnan(he_var(s, s, alpha=0.05))

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        s = rng.normal(0, 0.02, 400)
        p = 0.3 * rng.normal(0, 0.02, 400)
        base = he_var(s, p)
        assert he_var(3.0 * s, 3.0 * p) == pytest.approx(base, abs=1e-12)


class TestMoments:
    def test_two_point_symmetric(self):
        m = moments(np.array([-1.0, -1.0, 1.0, 1.0]))
        assert m.mean == pytest.approx(0.0)
        assert m.std == pytest.approx(np.sqrt(4 / 3))
        assert m.skew == pytest.approx(0.0)
        assert m.kurt == pytest.approx(-2.0)  # flattest possible distribution

    def test_constant_degenerate(self):
        m = moments(np.full(8, 3.0))
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
        assert he_variance(lam * s, lam * p) == pytest.approx(
            he_variance(s, p), abs=1e-10
        )
