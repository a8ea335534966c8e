import csv
import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from emdhedge import synth
from emdhedge.analysis import (
    _t_pvalue,
    _t_pvalue_exact,
    determinant_regression,
    matching_degree,
    relative_performance,
    significance_stars,
    variance_decomposition,
)
from emdhedge.cli import main
from emdhedge.emd import decompose
from emdhedge.errors import DataError, DegenerateInputError, InsufficientDataError, SingularDesignError
from emdhedge.estimators import ols
from oracle import imf_set


def two_tone(n=1200, scale=1.0):
    t = np.arange(float(n))
    return scale * (np.sin(2 * np.pi * t / 12) + np.sin(2 * np.pi * t / 90) + 3.0)


PLANTED_PERIODS = (5, 17, 55, 180)


def planted_leg(n, seed, shifted=None, periods=PLANTED_PERIODS, amplitudes=(0.4, 0.8, 1.6, 3.2)):
    """A level of 100 plus tones (by default the four periods above, with
    amplitudes 0.4 to 3.2) and N(0, 0.02^2) noise from synth's own Philox
    stream; the tone of period ``shifted`` is moved by pi/2."""
    t = np.arange(float(n))
    x = 100.0 + 0.02 * synth._normals(synth._uniforms(seed, n))
    for period, amplitude in zip(periods, amplitudes):
        x += amplitude * np.sin(2 * np.pi * t / period + (np.pi / 2 if period == shifted else 0.0))
    return x


class TestVarianceDecomposition:
    def test_separated_tones_split_roughly_evenly(self):
        x = two_tone()
        s = decompose(x)
        rows = variance_decomposition(s, x)
        # equal-amplitude orthogonal tones each carry ~50% of the variance
        assert rows[0].percent == pytest.approx(50.0, abs=5.0)
        assert rows[1].percent == pytest.approx(50.0, abs=5.0)

    def test_shares_sum_near_total_for_orthogonal_modes(self):
        x = two_tone()
        rows = variance_decomposition(decompose(x), x)
        assert sum(r.percent for r in rows) == pytest.approx(100.0, abs=5.0)

    def test_variance_matches_numpy_oracle(self):
        x = two_tone()
        s = decompose(x)
        rows = variance_decomposition(s, x)
        for imf, row in zip(s.imfs, rows):
            assert row.variance == pytest.approx(np.var(imf.values, ddof=1), abs=1e-14)

    def test_constant_source_rejected(self):
        s = decompose(two_tone())
        with pytest.raises(DegenerateInputError):
            variance_decomposition(s, np.full(100, 1.0))


class TestMatchingDegree:
    def test_self_pairing_is_perfect(self):
        s = decompose(two_tone())
        for row in matching_degree(s, s)[:-1]:
            assert row.beta == pytest.approx(1.0)
            assert row.r_squared == pytest.approx(1.0)

    def test_scaled_futures_leg(self):
        x = two_tone()
        a, b = decompose(x), decompose(0.25 * x)
        rows = matching_degree(a, b)[:-1]
        assert rows[0].beta == pytest.approx(4.0, abs=1e-6)
        assert rows[0].r_squared == pytest.approx(1.0, abs=1e-9)

    def test_noise_halves_r_squared(self):
        # y = x + e with var(e) = var(x) gives R^2 ~ 0.5
        rng = np.random.default_rng(23)
        x = np.sin(2 * np.pi * np.arange(4000.0) / 25)
        e = rng.normal(0, x.std(), 4000)
        trend = np.arange(4000.0)
        row, _ = matching_degree(imf_set(x + e, residue=trend, cycle=25.0), imf_set(x, residue=trend, cycle=25.0))
        assert row.r_squared == pytest.approx(0.5, abs=0.05)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(29)
        trend = np.arange(3000.0)
        spot, fut = (imf_set(rng.normal(size=3000), residue=trend, cycle=3.0) for _ in range(2))
        row, _ = matching_degree(spot, fut)
        assert row.r_squared < 0.05

    @pytest.mark.parametrize("index, label", [(2, "imf2"), (None, "residue")])
    def test_a_failed_fit_names_its_pair(self, index, label):
        # the futures leg of the named pair is flat, so its fit fails the rank rule
        x, flat = np.sin(np.arange(50.0)), np.ones(50)
        trend = np.arange(50.0)
        if index is None:
            spot, fut = imf_set(x, residue=trend), imf_set(2 * x, residue=flat)
        else:
            spot, fut = imf_set(x, x, residue=trend), imf_set(2 * x, flat, residue=trend)
        with pytest.raises(SingularDesignError) as info:
            matching_degree(spot, fut)
        assert str(info.value) == f"matching degree of {label}: regressor matrix is rank deficient"

    def test_rows_are_the_pairs_then_the_residues(self):
        # the spot leg's third IMF has no futures partner and no row; the residues pair last
        rng = np.random.default_rng(31)
        trend = np.arange(200.0)
        spot = imf_set(*rng.normal(size=(3, 200)), residue=trend, cycle=4.0)
        fut = imf_set(*rng.normal(size=(2, 200)), residue=trend ** 2, cycle=9.0)
        rows = matching_degree(spot, fut)
        assert [(r.imf_index, r.cycle_spot, r.cycle_fut) for r in rows] == [(1, 4.0, 9.0), (2, 4.0, 9.0), (None,) * 3]
        legs = [(s.values, f.values) for s, f in zip(spot.imfs, fut.imfs)] + [(spot.residue, fut.residue)]
        assert [r.r_squared for r in rows] == [ols(s, f).r_squared for s, f in legs]

    @pytest.mark.parametrize("shifted", PLANTED_PERIODS)
    def test_a_planted_pair_recovers_its_mismatched_tone(self, shifted):
        # the spot IMF of each planted tone sits at its period; the futures
        # leg's copy of one tone is a quarter period out of phase
        n = 3000
        rows = matching_degree(decompose(planted_leg(n, 1)), decompose(planted_leg(n, 2, shifted)))
        for row, period in zip(rows, PLANTED_PERIODS):
            assert row.cycle_spot == pytest.approx(period, rel=0.05)
            if period == shifted:
                assert row.r_squared < 0.01
            else:
                assert row.r_squared > 0.8


class TestPlantedPairPipeline:
    """A characterization of today's horizon rule: a planted pair of five
    tones whose period-9 tone is a quarter period out of phase in the futures
    leg, through ``pipeline --partition equal:8 --horizon-cap 100`` at T=3000."""

    PERIODS, SHIFTED = (4, 9, 19, 40, 90), 9

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        n, root = 3000, tmp_path_factory.mktemp("planted")
        amplitudes = (0.3, 0.6, 1.2, 2.4, 4.8)
        legs = [planted_leg(n, seed, shifted, self.PERIODS, amplitudes) for seed, shifted in ((1, None), (2, self.SHIFTED))]
        dates = np.datetime64("2000-01-01") + np.arange(n)
        rows = "".join(f"{d},{float(s)!r},{float(f)!r}\n" for d, s, f in zip(dates, *legs))
        (root / "pair.csv").write_text("date,spot,futures\n" + rows)
        args = ["pipeline", "--input", str(root / "pair.csv"), "--out", str(root / "out")]
        assert main([*args, "--partition", "equal:8", "--horizon-cap", "100"]) == 0
        return lambda name: list(csv.DictReader((root / "out" / name).read_text().splitlines()))

    def test_one_cv_row_per_tone_at_its_period(self, tables):
        for name in ("cv_variance_reduction.csv", "cv_var.csv"):
            horizons = [int(row["horizon"]) for row in tables(name)]
            assert horizons == pytest.approx(self.PERIODS, rel=0.05)

    def test_the_shifted_tone_is_the_one_mismatched_imf(self, tables):
        rows = tables("matching_degree.csv")[: len(self.PERIODS)]
        for row, period in zip(rows, self.PERIODS):
            assert float(row["cycle_spot"]) == pytest.approx(period, rel=0.05)
            if period == self.SHIFTED:
                assert float(row["r_squared"]) < 0.01
            else:
                assert float(row["r_squared"]) > 0.7

    def test_emd_performance_rises_with_the_matching_degree(self, tables):
        rows = tables("determinants.csv")
        assert [(r["panel"], r["method"]) for r in rows] == [
            (panel, method) for panel in ("variance_reduction", "var") for method in ("MV", "VEMD", "SEMD", "AEMD")
        ]
        assert all(float(r["beta_affine"]) > 0 for r in rows if r["method"] != "MV")


class TestDeterminantRegression:
    def test_exact_proportionality(self):
        m = np.linspace(0.1, 0.9, 12)
        fit = determinant_regression(0.8 * m, m)
        assert fit.beta_origin == pytest.approx(0.8, abs=1e-10)
        assert fit.r2_origin == pytest.approx(1.0, abs=1e-10)
        assert fit.beta_affine == pytest.approx(0.8, abs=1e-10)
        assert fit.alpha == pytest.approx(0.0, abs=1e-10)

    def test_exact_affine(self):
        m = np.linspace(0.1, 0.9, 12)
        fit = determinant_regression(0.5 * m + 0.2, m)
        assert fit.beta_affine == pytest.approx(0.5, abs=1e-10)
        assert fit.alpha == pytest.approx(0.2, abs=1e-10)
        assert fit.r2_affine == pytest.approx(1.0, abs=1e-10)

    def test_matches_scipy_linregress_oracle(self):
        rng = np.random.default_rng(41)
        m = rng.random(40)
        p = 0.6 * m + rng.normal(0, 0.1, 40)
        fit = determinant_regression(p, m)
        lr = sp_stats.linregress(m, p)
        assert fit.beta_affine == pytest.approx(lr.slope, abs=1e-10)
        assert fit.alpha == pytest.approx(lr.intercept, abs=1e-10)
        assert fit.r2_affine == pytest.approx(lr.rvalue**2, abs=1e-10)
        assert fit.t_affine == pytest.approx(lr.slope / lr.stderr, abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            determinant_regression(np.zeros(5), np.zeros(6))

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            determinant_regression(np.zeros(2), np.zeros(2))

    def test_three_rows_are_too_few_for_the_affine_fit(self):
        m = np.array([0.2, 0.5, 0.9])
        with pytest.raises(InsufficientDataError, match="need at least 4 paired observations, got 3"):
            determinant_regression(0.5 * m + np.array([0.01, -0.02, 0.01]), m)

    def test_four_rows_fit(self):
        m = np.array([0.2, 0.5, 0.7, 0.9])
        fit = determinant_regression(0.5 * m + 0.2 + np.array([0.01, -0.02, 0.01, 0.0]), m)
        assert fit.n_obs == 4
        assert math.isfinite(fit.t_affine) and math.isfinite(fit.t_alpha)


class TestRelativePerformance:
    def test_identical_is_zero(self):
        assert relative_performance(0.8, 0.8) == pytest.approx(0.0)

    def test_improvement_fraction(self):
        assert relative_performance(0.9, 0.8) == pytest.approx(0.125)

    def test_negative_baseline_keeps_sign(self):
        # a model beating a harmful baseline must show positive relative gain
        assert relative_performance(-0.1, -0.5) == pytest.approx(0.8)
        assert relative_performance(-0.9, -0.5) == pytest.approx(-0.8)

    def test_near_zero_baseline_rejected(self):
        with pytest.raises(DegenerateInputError):
            relative_performance(0.5, 1e-15)


class TestSignificanceStars:
    def test_thresholds(self):
        dof = 100
        t_10 = sp_stats.t.ppf(1 - 0.05, dof)  # p just at 0.10
        assert significance_stars(t_10 + 0.01, dof) == "*"
        t_05 = sp_stats.t.ppf(1 - 0.025, dof)
        assert significance_stars(t_05 + 0.01, dof) == "**"
        t_01 = sp_stats.t.ppf(1 - 0.005, dof)
        assert significance_stars(t_01 + 0.01, dof) == "***"
        assert significance_stars(0.5, dof) == ""

    def test_sign_symmetric(self):
        assert significance_stars(-5.0, 30) == significance_stars(5.0, 30)

    @staticmethod
    def reference(t, dof):
        p = 2.0 * sp_stats.t.sf(abs(t), dof)
        return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.10 else ""

    def test_matches_scipy_t_survival(self):
        for dof in (1, 2, 7, 40, 500):
            edges = [sp_stats.t.isf(a / 2, dof) for a in (0.01, 0.05, 0.10)]
            for t in np.r_[edges, np.nextafter(edges, 0.0), np.linspace(-12.0, 12.0, 49)]:
                assert significance_stars(t, dof) == self.reference(t, dof)

    @pytest.mark.parametrize("dof", [1, 2, 30])
    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_an_infinite_t_matches_scipy(self, t, dof):
        # p = 0: the t of an exact nonzero fit is the most significant there is
        assert significance_stars(t, dof) == self.reference(t, dof) == "***"

    def test_an_exact_fit_through_the_origin_gets_its_stars(self):
        x = np.arange(1.0, 9.0)
        fit = determinant_regression(2 * x, x)
        assert fit.t_origin == math.inf and significance_stars(fit.t_origin, fit.n_obs - 1) == "***"

    def test_invalid_inputs_blank(self):
        assert significance_stars(float("nan"), 30) == ""
        assert significance_stars(3.0, 0) == ""


class TestTPvalue:
    """The two-sided Student-t p-value against scipy (the oracle only)."""

    DOFS = list(range(1, 61)) + [75, 100, 250, 500, 1000]

    def test_within_1e12_of_scipy_stdtr(self):
        from scipy.special import stdtr

        rng = np.random.default_rng(5)
        ts = np.concatenate([10.0 ** rng.uniform(-3, 3, 150), rng.uniform(0, 8, 150), [0.0, 1e300]])
        for dof in self.DOFS:
            for t in ts:
                assert abs(_t_pvalue(t, dof) - 2.0 * stdtr(dof, -t)) <= 1e-12, (dof, t)

    def test_cauchy_case_is_bit_identical_to_scipy(self):
        from scipy.special import stdtr

        ts = np.concatenate([10.0 ** np.linspace(-12, 8, 2001), [0.0, 0.7071, 0.7072]])
        assert all(_t_pvalue(t, 1) == 2.0 * stdtr(1, -t) for t in ts)

    def test_closed_form_for_two_dof(self):
        for t in 10.0 ** np.linspace(-3, 3, 301):
            r = np.sqrt(2 + t * t)
            assert _t_pvalue(t, 2) == pytest.approx(2.0 / (r * (r + t)), rel=1e-13)

    def test_exact_path_agrees_with_float_path(self):
        for dof in (2, 3, 8, 41, 500):
            for t in (0.3, 1.7, 2.5, 9.0):
                assert abs(float(_t_pvalue_exact(t, dof)) - _t_pvalue(t, dof)) <= 1e-12

    def test_float_path_at_large_dof_is_within_1e10_and_stars_stay_exact(self):
        # the continued fraction loses ~1e-11 relative at dof 5,000; the
        # stars near each level come from the exact path
        from scipy.special import stdtrit

        dof = 5000
        for t in np.arange(1, 11) / 2:
            exact = float(_t_pvalue_exact(t, dof))
            assert abs(_t_pvalue(t, dof) - exact) <= 1e-10 * exact, t

        def exact_stars(t):
            p = _t_pvalue_exact(t, dof)
            return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.10 else ""

        for alpha in (0.01, 0.05, 0.10):
            crit = -stdtrit(dof, alpha / 2)
            edges = crit * (1 + np.array([-1e-9, -1e-12, 1e-12, 1e-9]))
            sides = {exact_stars(t) for t in edges}
            assert len(sides) == 2, alpha  # the points straddle the edge
            for t in np.r_[edges, np.nextafter(crit, 0.0), np.nextafter(crit, 10.0)]:
                assert significance_stars(t, dof) == exact_stars(t), (alpha, t)

    def test_same_stars_as_scipy_within_1e9_of_each_critical_t(self):
        from scipy.special import stdtr, stdtrit

        def reference(t, dof):
            p = 2.0 * stdtr(dof, -abs(t))
            return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.10 else ""

        for dof in self.DOFS:
            for alpha in (0.01, 0.05, 0.10):
                crit = -stdtrit(dof, alpha / 2)
                for t in crit + np.array([-1e-9, -3e-10, 3e-10, 1e-9, -1e-3, 1e-3]):
                    for signed in (t, -t):
                        expected = reference(signed, dof)
                        assert significance_stars(signed, dof) == expected, (dof, alpha, t)
