import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdhedge import emd
from emdhedge.emd import (
    MIN_SAMPLES,
    Imf,
    ImfSet,
    SiftConfig,
    SiftResult,
    _extrema,
    _knots,
    _coefficients,
    _envelope_means,
    _Layout,
    _pcr,
    _rms_of,
    _splines,
    cycle,
    decompose,
    decompose_all,
    envelope_mean,
    find_extrema,
    sift,
)
from emdhedge.errors import DataError, InsufficientDataError
from emdhedge.series import log_returns
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair
from oracle import is_imf


def sine(period, n, amplitude=1.0, phase=0.0):
    t = np.arange(n, dtype=float)
    return amplitude * np.sin(2 * np.pi * t / period + phase)


class TestFindExtrema:
    def test_simple_oscillation(self):
        maxima, minima, crossings = find_extrema(np.array([0.0, 1.0, 0.0, -1.0, 0.0]))
        assert list(maxima) == [1]
        assert list(minima) == [3]
        # one sign change between the nonzero samples (+1 -> -1 via an exact
        # zero, counted once); boundary zeros are not crossings
        assert crossings == 1

    def test_interior_crossings_counted(self):
        _, _, crossings = find_extrema(np.array([1.0, 0.0, -1.0, 0.0, 1.0]))
        assert crossings == 2

    def test_constant(self):
        maxima, minima, crossings = find_extrema(np.full(10, 3.0))
        assert len(maxima) == 0 and len(minima) == 0
        assert crossings == 0

    def test_monotone(self):
        maxima, minima, _ = find_extrema(np.arange(10.0))
        assert len(maxima) == 0 and len(minima) == 0

    def test_plateau_counts_once_at_midpoint(self):
        x = np.array([0.0, 2.0, 2.0, 2.0, 0.0, -1.0, 0.0])
        maxima, minima, _ = find_extrema(x)
        assert list(maxima) == [2]
        assert list(minima) == [5]

    def test_exact_zero_between_signs_counts_once(self):
        x = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
        _, _, crossings = find_extrema(x)
        assert crossings == 2

    def test_zero_between_same_signs_no_crossing(self):
        x = np.array([1.0, 0.0, 1.0, -1.0])
        _, _, crossings = find_extrema(x)
        assert crossings == 1

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            find_extrema(np.array([1.0, 2.0]))

    @staticmethod
    def loop_reference(x):
        """Plateau-run walk: one extremum per dominating run, at its midpoint."""
        starts = [0] + [i for i in range(1, len(x)) if x[i] != x[i - 1]]
        stops = starts[1:] + [len(x)]
        maxima, minima = [], []
        for i in range(1, len(starts) - 1):
            v, prev, nxt = x[starts[i]], x[starts[i - 1]], x[starts[i + 1]]
            mid = (starts[i] + stops[i] - 1) // 2
            if v > prev and v > nxt:
                maxima.append(mid)
            elif v < prev and v < nxt:
                minima.append(mid)
        nz = [v for v in x if v != 0.0]
        crossings = sum(np.sign(a) != np.sign(b) for a, b in zip(nz, nz[1:]))
        return maxima, minima, crossings

    @pytest.mark.parametrize(
        "x",
        [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
            [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, -1.0, -1.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, -1.0, 0.0, 2.0, 2.0, 0.0, -3.0],
            [3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 1.0],
        ],
        ids=["len3-max", "len3-min", "len3-const", "constant", "plateaus", "zeros", "wide"],
    )
    def test_matches_loop_reference_on_edge_cases(self, x):
        x = np.array(x)
        maxima, minima, crossings = find_extrema(x)
        ref_max, ref_min, ref_cross = self.loop_reference(x)
        assert list(maxima) == ref_max
        assert list(minima) == ref_min
        assert crossings == ref_cross

    def test_a_batch_matches_each_series_alone(self):
        # rounded short series: equal values, plateaus and exact zeros meet
        # at the series boundaries, where no run or crossing may span two
        rng = np.random.default_rng(22)
        for _ in range(300):
            xs = [np.round(rng.standard_normal(int(rng.integers(3, 12)))) for _ in range(int(rng.integers(1, 7)))]
            n = np.array([len(x) for x in xs])
            lay = _Layout(n)
            maxima, minima, crossings = _extrema(np.concatenate(xs), lay)
            for x, a, b, c in zip(xs, lay.start, lay.stop, crossings):
                ref_max, ref_min, ref_cross = find_extrema(x)
                assert (maxima[(maxima >= a) & (maxima < b)] - a).tolist() == ref_max.tolist()
                assert (minima[(minima >= a) & (minima < b)] - a).tolist() == ref_min.tolist()
                assert c == ref_cross

    def test_matches_loop_reference_on_rounded_noise(self):
        rng = np.random.default_rng(21)
        for n in (3, 4, 7, 50, 301):
            for _ in range(20):
                x = np.round(rng.standard_normal(n), 0)  # many ties and exact zeros
                maxima, minima, crossings = find_extrema(x)
                ref_max, ref_min, ref_cross = self.loop_reference(x)
                assert list(maxima) == ref_max and list(minima) == ref_min
                assert crossings == ref_cross


class TestEnvelopeMean:
    def test_symmetric_sine_mean_near_zero(self):
        x = sine(20, 400)
        maxima, minima, _ = find_extrema(x)
        m = envelope_mean(x, maxima, minima, mirror=2)
        assert np.max(np.abs(m)) <= 0.01  # 1% of unit amplitude

    def test_offset_sine_mean_near_offset(self):
        c = 3.7
        x = sine(20, 400) + c
        maxima, minima, _ = find_extrema(x)
        m = envelope_mean(x, maxima, minima, mirror=2)
        assert np.max(np.abs(m - c)) <= 0.01

    def test_two_extrema_each_side_still_defined(self):
        x = sine(40, 90)  # ~2 maxima, 2 minima
        maxima, minima, _ = find_extrema(x)
        assert len(maxima) >= 2 and len(minima) >= 2
        m = envelope_mean(x, maxima, minima, mirror=2)
        assert m is not None and len(m) == len(x)

    def test_too_few_extrema_signals_termination(self):
        x = np.arange(10.0)
        assert envelope_mean(x, np.array([], dtype=int), np.array([], dtype=int)) is None

    @pytest.mark.parametrize("kinds", ["+", "-+", "+-", "-+-", "+-+", "+-+-", "-+-+-"])
    def test_envelope_mean_and_the_sift_vanish_at_the_same_extrema_counts(self, kinds):
        # a zigzag with a maximum at each "+" and a minimum at each "-": the
        # envelopes vanish below 2 extrema on either side, in ``envelope_mean``
        # and at the lockstep sift's first step alike
        knots = [0.5] + [1.0 if k == "+" else 0.0 for k in kinds] + [0.5]
        x = np.interp(np.arange(10 * (len(knots) - 1) + 1), np.arange(0, 10 * len(knots), 10), knots)
        maxima, minima, _ = find_extrema(x)
        assert (len(maxima), len(minima)) == (kinds.count("+"), kinds.count("-"))
        vanish = min(len(maxima), len(minima)) < 2
        assert (envelope_mean(x, maxima, minima) is None) == vanish
        r = sift(x)
        assert (r.residue_like and r.n_sifts == 0) == vanish

    @pytest.mark.parametrize("mirror", [1, 2, 3])
    def test_matches_scipy_natural_cubic_spline(self, mirror):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(30 + mirror)
        for n in (30, 60, 250):
            x = np.cumsum(rng.standard_normal(n)) + sine(9, n, 2.0)
            maxima, minima, _ = find_extrema(x)
            t = np.arange(n)

            def spline(idx):
                m = min(mirror, len(idx))
                knots = np.r_[-idx[:m][::-1], idx, 2 * (n - 1) - idx[-m:][::-1]]
                vals = np.r_[x[idx[:m]][::-1], x[idx], x[idx[-m:]][::-1]]
                return CubicSpline(knots, vals, bc_type="natural")(t)

            expected = 0.5 * (spline(maxima) + spline(minima))
            got = envelope_mean(x, maxima, minima, mirror)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(x)))


def mirrored_knots(idx, vals, n, mirror):
    """One system's envelope knots: a batch of one for ``_knots``."""
    knots, values, _ = _knots(np.asarray(idx), np.asarray(vals), np.array([len(idx)]), np.array([n]), mirror)
    return knots, values


def natural_splines(systems, n):
    """Each (knots, values) system's spline at t = 0 .. n - 1, all from one ``_splines`` call."""
    knots, values = (np.concatenate(a) for a in zip(*systems))
    size, ns = np.array([len(k) for k, _ in systems]), np.full(len(systems), n)
    out = _splines(knots, values, size, ns, np.tile(np.arange(n, dtype=float), len(systems)))
    return np.split(out, len(systems))


def spline_system(dx):
    """The natural-spline slope system's sub-, main and super-diagonal for
    knot spacings dx, as ``_pcr`` takes them (0 past the system's ends)."""
    d = np.r_[2 * dx[0], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1]]
    return np.r_[0.0, dx[1:], dx[-1]], d, np.r_[dx[0], dx[:-1], 0.0]


def assert_near_cubic_spline(knots, values, got, n):
    """Within 1e-11 of the largest knot value of scipy's natural spline: the
    round-off of another elimination order, not a different spline."""
    from scipy.interpolate import CubicSpline

    expected = CubicSpline(knots, values, bc_type="natural")(np.arange(n, dtype=float))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11 * np.max(np.abs(values)))


class TestDgtsv:
    """The spline slope solve, which does the job of LAPACK's dgtsv for
    ``CubicSpline``: one batched cyclic reduction, scipy's splines the oracle."""

    def test_inputs_are_not_modified(self):
        a, b, c = spline_system(np.array([3.0, 1.0, 2.0]))
        d = np.array([1.0, -0.0, 2.0, 3.0])
        args = [a, b, c, d]
        before = [x.copy() for x in args]
        _pcr(*args, len(b))
        for x, y in zip(args, before):
            assert x.tobytes() == y.tobytes()
        knots, values = np.array([0, 3, 4, 6]), np.array([1.0, -0.0, 2.0, 3.0])
        size, ns, t = np.array([4]), np.array([7]), np.arange(7, dtype=float)
        args = [knots, values, size, ns, t]
        before = [x.copy() for x in args]
        _splines(*args)
        for x, y in zip(args, before):
            assert x.tobytes() == y.tobytes()
        # the envelope mean is formed in the evaluation's own buffer: neither
        # the extrema nor the layout arrays later steps read are written
        lay = _Layout(np.array([7, 9]))
        e = np.array([1, 4, 2, 5, 7, 0, 3, 6, 1, 4, 8])
        v = np.array([2.0, 3.0, 1.5, 2.5, 0.5, -0.0, -1.0, -0.5, -2.0, -1.5, -0.25])
        count = np.array([2, 3, 3, 3])
        args = [e, v, count, lay.t2, lay.n2, lay.start2]
        before = [x.copy() for x in args]
        m, spare = _envelope_means(lay, e, v, count, 2)
        assert len(m) == len(spare) == 16
        for x, y in zip(args, before):
            assert x.tobytes() == y.tobytes()

    def test_splines_evaluate_as_the_indexed_expression(self):
        # the in-place evaluation gives, sample for sample, the bits of PPoly's
        # expression on a gathered interval index: systems of 2 to ~2000
        # knots, -0.0 knot values, and samples at and beyond a last knot
        rng = np.random.default_rng(27)
        systems = [(np.array([0, 5]), np.array([-0.0, 1.0]), 6), (np.array([-2, 3]), np.array([1.0, -0.0]), 9)]
        for m in (2, 3, 7, 40, 300, 2000):
            knots = np.cumsum(rng.integers(1, 6, m))
            knots -= knots[0] + int(rng.integers(0, 4))  # the first knot at or before t = 0
            values = rng.choice([-0.0, 0.0, 1.0], m) * rng.standard_normal(m)
            values[int(rng.integers(m))] = -0.0
            last = int(knots[-1])
            systems += [(knots, values, last + 1), (knots, values, last + int(rng.integers(2, 9)))]
        knots, values = (np.concatenate(a) for a in zip(*((k, y) for k, y, _ in systems)))
        size, ns = np.array([len(k) for k, _, _ in systems]), np.array([n for _, _, n in systems])
        t = np.concatenate([np.arange(n, dtype=float) for n in ns])
        x, s, c1, c0, counts = _coefficients(knots, values, size, ns)
        i = np.arange(len(x) - 1).repeat(counts)
        z = t - x[i]
        z2 = z * z
        expected = (((0.0 + values[i]) + s[i] * z) + c1[i] * z2) + c0[i] * (z2 * z)
        assert _splines(knots, values, size, ns, t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [9, 40, 250, 2000])
    def test_spline_within_1e11_of_cubic_spline(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.standard_normal(n))
        systems = [
            mirrored_knots(idx, x[idx], n, mirror)
            for idx in find_extrema(x)[:2]
            if len(idx) >= 2
            for mirror in (1, 2, 3)
        ]
        assert systems
        for (knots, vals), got in zip(systems, natural_splines(systems, n)):
            assert_near_cubic_spline(knots, vals, got, n)

    @pytest.mark.parametrize("mirror", [1, 2])
    def test_spline_within_1e11_of_cubic_spline_with_boundary_extrema(self, mirror):
        rng = np.random.default_rng(10 + mirror)
        n = 40
        systems = []
        for trial in range(200):
            # extrema at either end reflect onto themselves, so the mirrored
            # knots hold duplicates, and with mirror=1 the last knot is n - 1;
            # a third of the systems have both ends, a third one, a third none
            ends = [[0, n - 1], [0] if trial % 2 else [n - 1], []][trial % 3]
            idx = np.unique(np.r_[ends, rng.choice(np.arange(1, n - 1), 5, replace=False)]).astype(int)
            vals = rng.choice([-0.0, 0.0, -1.0, 1.5], len(idx))
            m = min(mirror, len(idx))
            expected_knots, keep = np.unique(
                np.r_[-idx[:m][::-1], idx, 2 * (n - 1) - idx[-m:][::-1]], return_index=True
            )
            knots, kv = mirrored_knots(idx, vals, n, mirror)
            assert knots.tolist() == expected_knots.tolist()
            assert kv.tobytes() == np.r_[vals[:m][::-1], vals, vals[-m:][::-1]][keep].tobytes()
            systems.append((knots, kv))
        for (knots, kv), got in zip(systems, natural_splines(systems, n)):
            assert_near_cubic_spline(knots, kv, got, n)

    def test_negative_zero_knot_value_evaluates_to_positive_zero(self):
        # PPoly starts its sum at 0.0, so a -0.0 knot value on a stretch where
        # every other term is -0.0 too still evaluates to +0.0
        n, idx = 12, np.array([2, 3, 7, 8])
        knots, kv = mirrored_knots(idx, np.array([-0.0, -1.0, -3.0, 2.0]), n, 2)
        (got,) = natural_splines([(knots, kv)], n)
        assert_near_cubic_spline(knots, kv, got, n)
        assert got[2] == 0.0 and not np.signbit(got[2])

    def test_unit_gaps_next_to_the_largest_gap_of_a_long_series(self):
        # the widest knot gap of a T=4000 series is 2(T-1) - 6: its only
        # maxima at 1 and 3, the one at 3 reflected to 2(T-1) - 3; here runs
        # of unit gaps, the narrowest, stand either side of it
        n = 4000
        knots = np.r_[-2:4, 2 * (n - 1) - 3 : 2 * (n - 1) + 1]
        assert np.diff(knots).max() == 2 * (n - 1) - 6
        rng = np.random.default_rng(4000)
        values = rng.standard_normal(len(knots))
        a, b, c = spline_system(np.diff(knots).astype(float))
        rhs = rng.standard_normal(len(knots))
        dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(_pcr(a, b, c, rhs, len(b)), expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))
        (got,) = natural_splines([(knots, values)], n)
        assert np.isfinite(got).all()
        assert_near_cubic_spline(knots, values, got, n)

    def test_each_system_solves_as_it_does_alone(self):
        # stacked with systems of any length, each system's solution keeps
        # every bit, its signed zeros included: a third of the systems have
        # a right-hand side of signed zeros only, so a zero solution
        rng = np.random.default_rng(31)
        for _ in range(100):
            systems = []
            for _ in range(int(rng.integers(1, 6))):
                m = int(rng.integers(2, 70))
                scale = 0.0 if rng.random() < 1 / 3 else rng.standard_normal(m)
                rhs = rng.choice([-0.0, 0.0, 1.0], m) * scale
                systems.append((*spline_system(rng.integers(1, 40, m - 1).astype(float)), rhs))
            stacked = _pcr(*(np.concatenate(parts) for parts in zip(*systems)), max(len(s[1]) for s in systems))
            alone = [_pcr(a, b, c, rhs, len(b)) for a, b, c, rhs in systems]
            assert stacked.tobytes() == np.concatenate(alone).tobytes()


class TestIsImf:
    def test_pure_sine_passes(self):
        ok, counts = is_imf(sine(20, 400), 0.05)
        assert ok
        assert abs(counts["n_maxima"] + counts["n_minima"] - counts["n_zero_crossings"]) <= 1

    def test_offset_sine_fails_envelope_condition(self):
        ok, _ = is_imf(sine(20, 400) + 5.0, 0.05)
        assert not ok

    def test_monotone_ramp_fails(self):
        ok, _ = is_imf(np.arange(50.0), 0.05)
        assert not ok


class TestSift:
    def test_fixed_point_returns_unchanged(self):
        x = sine(20, 400)
        result = sift(x, SiftConfig())
        assert result.converged
        assert result.n_sifts == 0
        assert np.array_equal(result.values, x)

    def test_two_tone_first_imf_cycle_near_fast_tone(self):
        x = sine(10, 1000) + sine(50, 1000)
        result = sift(x, SiftConfig())
        assert result.converged
        mx, mn, _ = find_extrema(result.values)
        c = cycle(len(mx), len(mn), len(x))
        assert c == pytest.approx(10.0, rel=0.1)

    def test_sift_cap_enforced(self):
        rng = np.random.default_rng(123)
        x = rng.normal(size=500)
        result = sift(x, SiftConfig(max_sifts_per_imf=1))
        assert result.n_sifts == 1
        assert not result.converged


class TestCycle:
    def test_direct_formula(self):
        assert cycle(9, 9, 100) == pytest.approx(200 / 17)

    def test_sampled_sine_matches_extrema_count(self):
        x = sine(20, 400)
        mx, mn, _ = find_extrema(x)
        # oracle: count extrema independently, then apply the formula
        assert len(mx) == 20 and len(mn) == 20
        assert cycle(len(mx), len(mn), 400) == pytest.approx(800 / 39)

    def test_undefined_for_trend(self):
        with pytest.raises(DataError):
            cycle(0, 0, 100)


class TestDecompose:
    def test_single_tone(self):
        x = sine(20, 400)
        s = decompose(x)
        assert len(s.imfs) >= 1
        assert s.imfs[0].cycle == pytest.approx(20.0, rel=0.05)
        assert np.max(np.abs(s.residue)) <= 0.02  # 2% of unit amplitude

    def test_two_tone_plus_trend(self):
        t = np.arange(2000.0)
        x = sine(10, 2000) + sine(100, 2000) + 0.001 * t
        s = decompose(x)
        assert len(s.imfs) >= 2
        assert s.imfs[0].cycle == pytest.approx(10.0, rel=0.1)
        assert s.imfs[1].cycle == pytest.approx(100.0, rel=0.1)

    def test_constant_series(self):
        x = np.full(50, 2.5)
        s = decompose(x)
        assert len(s.imfs) == 0
        assert np.array_equal(s.residue, x)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            decompose(np.arange(7.0))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.where(np.arange(100) == 50, np.nan, sine(20, 100)), "a series to sift must hold only finite values"),
            (np.where(np.arange(100) == 50, np.inf, sine(20, 100)), "a series to sift must hold only finite values"),
            (np.where(np.arange(100) == 0, -np.inf, sine(20, 100)), "a series to sift must hold only finite values"),
            (np.ones((10, 10)), "a series to sift must be one-dimensional, not of shape (10, 10)"),
        ],
        ids=["nan", "inf", "-inf", "10x10"],
    )
    def test_a_series_it_cannot_sift_is_a_data_error(self, bad, message):
        # the error is the series' own result in a batch, which the good series beside it does not change
        good = sine(20, 100)
        got, alone = decompose_all([bad, good])
        assert type(got) is DataError and str(got) == message
        assert np.array_equal(alone.reconstruct(), decompose(good).reconstruct())
        for call in (decompose, sift):
            with pytest.raises(DataError) as raised:
                call(bad)
            assert type(raised.value) is DataError and str(raised.value) == message

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(7)
        x = sine(15, 800, 2.0) + sine(90, 800, 1.0) + rng.normal(0, 0.3, 800)
        s = decompose(x)
        rms = np.sqrt(np.mean(x**2))
        assert np.max(np.abs(x - s.reconstruct())) <= 1e-9 * rms

    def test_emitted_imfs_pass_conditions(self):
        rng = np.random.default_rng(42)
        x = sine(12, 600) + rng.normal(0, 0.5, 600)
        cfg = SiftConfig()
        for imf in decompose(x, cfg).imfs:
            ok, _ = is_imf(imf.values, cfg.envelope_tolerance, cfg.boundary_mirror_count)
            assert ok

    def test_cycles_strictly_increasing_on_separated_tones(self):
        x = sine(8, 1600) + sine(40, 1600) + sine(200, 1600)
        s = decompose(x)
        cycles = [imf.cycle for imf in s.imfs]
        assert all(b > a for a, b in zip(cycles, cycles[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = sine(25, 500) + rng.normal(0, 0.2, 500)
        a = decompose(x)
        b = decompose(x)
        assert len(a.imfs) == len(b.imfs)
        for ia, ib in zip(a.imfs, b.imfs):
            assert np.array_equal(ia.values, ib.values)
        assert np.array_equal(a.residue, b.residue)

    def test_amplitude_equivariance(self):
        rng = np.random.default_rng(9)
        x = sine(30, 600) + rng.normal(0, 0.1, 600)
        c = 7.25
        a = decompose(x)
        b = decompose(c * x)
        assert len(a.imfs) == len(b.imfs)
        for ia, ib in zip(a.imfs, b.imfs):
            assert np.allclose(c * ia.values, ib.values, rtol=1e-9, atol=1e-12)


def _rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def test_rms_from_squares_is_np_mean_of_each_slice():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(3000) * np.exp(rng.uniform(-20, 20, 3000))
    sq = np.square(x)
    for _ in range(2000):
        a = int(rng.integers(0, 2700))
        b = a + int(rng.integers(1, 300))
        assert _rms_of(sq, a, b) == _rms(x[a:b])


def reference_sift(x, cfg, mean=envelope_mean):
    """The one-series sifting loop ``decompose_all`` replaced, kept as its
    reference, with the envelope mean ``mean``."""
    h = x.copy()
    n_sifts = 0
    while True:
        maxima, minima, crossings = find_extrema(h)
        counts = (len(maxima), len(minima), crossings)
        m = mean(h, maxima, minima, cfg.boundary_mirror_count)
        if m is None:
            return SiftResult(h, n_sifts, False, *counts, residue_like=True)
        rx = _rms(h)
        balanced = abs(len(maxima) + len(minima) - crossings) <= 1
        if balanced and rx > 0.0 and _rms(m) <= cfg.envelope_tolerance * rx:
            return SiftResult(h, n_sifts, True, *counts)
        if n_sifts >= cfg.max_sifts_per_imf:
            return SiftResult(h, n_sifts, False, *counts)
        h = h - m
        n_sifts += 1


def reference_decompose(x, cfg, mean=envelope_mean):
    """The one-series decomposition loop, with the monotone-residue and
    post-sift extrema checks the lockstep kernel dropped (neither can fire)."""
    if len(x) < MIN_SAMPLES:
        return InsufficientDataError(f"need at least {MIN_SAMPLES} samples to decompose")
    residue = x.copy()
    imfs = []
    while len(imfs) < cfg.max_imfs:
        maxima, minima, _ = find_extrema(residue)
        d = residue[1:] - residue[:-1]
        if len(maxima) < 2 or len(minima) < 2 or (d >= 0).all() or (d <= 0).all():
            break
        r = reference_sift(residue, cfg, mean)
        if r.residue_like or r.n_maxima + r.n_minima < 2:
            break
        cyc = cycle(r.n_maxima, r.n_minima, len(x))
        counts = (r.n_maxima, r.n_minima, r.n_zero_crossings)
        imfs.append(Imf(r.values, len(imfs) + 1, cyc, *counts, r.n_sifts, r.converged))
        residue = residue - r.values
    return ImfSet(tuple(imfs), residue, len(x))


def assert_same(got, expected):
    """Bit-identical decompositions, or errors of the same class and message."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, ImfSet) and got.source_len == expected.source_len
    assert got.residue.tobytes() == expected.residue.tobytes()
    assert len(got.imfs) == len(expected.imfs)
    for a, b in zip(got.imfs, expected.imfs):
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.index, a.cycle, a.n_maxima, a.n_minima, a.n_zero_crossings, a.n_sifts, a.converged) == (
            b.index, b.cycle, b.n_maxima, b.n_minima, b.n_zero_crossings, b.n_sifts, b.converged
        )


SERIES_KINDS = ("noise", "rounded", "walk", "tones", "constant", "ramp")


def make_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    if kind == "noise":
        return rng.standard_normal(n)
    if kind == "rounded":  # plateaus and exact zeros
        return np.round(1.5 * rng.standard_normal(n))
    if kind == "walk":
        return np.cumsum(rng.standard_normal(n))
    if kind == "tones":
        return np.sin(2 * np.pi * t / 7) + 0.5 * np.sin(2 * np.pi * t / 29) + 0.1 * rng.standard_normal(n)
    if kind == "constant":
        return np.full(n, 2.5)
    return 0.3 * t - 1.0  # ramp


series_st = st.tuples(
    st.sampled_from(SERIES_KINDS),
    st.one_of(st.integers(0, MIN_SAMPLES + 1), st.integers(MIN_SAMPLES + 2, 160)),
    st.integers(0, 2**16),
)
sift_config_st = st.builds(
    SiftConfig,
    envelope_tolerance=st.sampled_from([0.05, 0.3]),
    max_sifts_per_imf=st.sampled_from([1, 2, 64]),
    max_imfs=st.sampled_from([1, 2, 16]),
    boundary_mirror_count=st.sampled_from([1, 2, 3]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(series_st, min_size=1, max_size=6), sift_config_st, st.sampled_from([1 << 15, 120, 1]), st.data())
@example([("ramp", 50, 0), ("constant", 50, 0), ("noise", 5, 1), ("tones", 120, 2)], SiftConfig(), 1 << 15, None)
@example([("rounded", 90, 3), ("walk", 60, 4)], SiftConfig(max_imfs=1, max_sifts_per_imf=1), 100, None)
def test_decompose_all_is_the_one_series_loop_for_each_series(draws, cfg, batch_samples, data):
    xs = [make_series(*d) for d in draws]
    expected = [reference_decompose(x, cfg) for x in xs]
    with patch.object(emd, "_LOCKSTEP_SAMPLES", batch_samples):  # lockstep batches of at most this many samples
        got = decompose_all(xs, cfg)
    for (kind, _, _), g, e in zip(draws, got, expected):
        assert_same(g, e)
        if kind in ("constant", "ramp") and isinstance(e, ImfSet):
            assert not g.imfs  # a trend has no IMF
    # a series' result depends neither on its batch mates nor on its position
    order = data.draw(st.permutations(range(len(xs)))) if data is not None else list(range(len(xs)))[::-1]
    for i, g in zip(order, decompose_all([xs[i] for i in order], cfg)):
        assert_same(g, expected[i])
    for x, e in zip(xs, expected):
        (g,) = decompose_all([x], cfg)
        assert_same(g, e)
        if len(x) >= 3:
            r, ref = sift(x, cfg), reference_sift(x, cfg)
            assert r.values.tobytes() == ref.values.tobytes()
            assert (r.n_sifts, r.converged, r.n_maxima, r.n_minima, r.n_zero_crossings, r.residue_like) == (
                ref.n_sifts, ref.converged, ref.n_maxima, ref.n_minima, ref.n_zero_crossings, ref.residue_like
            )


def cubic_spline_envelope_mean(x, maxima, minima, mirror):
    """``envelope_mean`` with each envelope from scipy's natural ``CubicSpline``."""
    from scipy.interpolate import CubicSpline

    if len(maxima) < 2 or len(minima) < 2:
        return None
    t = np.arange(len(x), dtype=float)
    envelopes = [CubicSpline(*mirrored_knots(e, x[e], len(x), mirror), bc_type="natural")(t) for e in (maxima, minima)]
    return 0.5 * (envelopes[0] + envelopes[1])


@pytest.mark.parametrize("n", [250, 600, 2000])
def test_decompose_all_has_the_structure_of_cubic_spline_envelopes(n):
    # the batched solve moves the envelopes at round-off only: the four legs
    # (prices and log returns) of two synthetic pairs decompose into the same
    # IMFs, sift counts, extrema counts and converged flags as with scipy's
    # splines, every value within 1e-12 of its component's rms
    legs = []
    for seed in (3, 11):
        for leg in gen_coint_pair(SynthSpec(length=n, seed=seed, coint=CointSpec())):
            legs += [leg.values, log_returns(leg.values, 1)]
    cfg = SiftConfig()
    for x, got in zip(legs, decompose_all(legs, cfg)):
        expected = reference_decompose(x, cfg, cubic_spline_envelope_mean)
        assert len(got.imfs) == len(expected.imfs)
        for a, b in zip(got.imfs, expected.imfs):
            assert (a.index, a.cycle, a.n_maxima, a.n_minima, a.n_zero_crossings, a.n_sifts, a.converged) == (
                b.index, b.cycle, b.n_maxima, b.n_minima, b.n_zero_crossings, b.n_sifts, b.converged
            )
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12 * _rms(b.values))
        np.testing.assert_allclose(got.residue, expected.residue, rtol=0, atol=1e-12 * _rms(expected.residue))


def test_decompose_all_working_set_stays_small():
    # the sift step evaluates its splines into reused buffers: on the four
    # legs of a T=2000 pair the traced peak stays under 1.85 MB (with an
    # index-gathered evaluation it read 2.10 MB)
    legs = []
    for leg in gen_coint_pair(SynthSpec(length=2000, seed=3, coint=CointSpec())):
        legs += [leg.values, log_returns(leg.values, 1)]
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        decompose_all(legs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.85 * 2**20
