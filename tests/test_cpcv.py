import math

import numpy as np
import pytest

from emdhedge.cpcv import (
    EXCLUDED,
    FAILED,
    GroupPartition,
    Scheme,
    assign_paths,
    enumerate_splits,
    partition,
    path_statistics,
    run_cv,
)
from emdhedge.errors import DataError, InsufficientDataError, NumericError
from emdhedge.performance import (
    Criterion,
    effectiveness_rows,
    he_var,
    he_variance,
)
from emdhedge.series import Leg, PriceSeries, restrict
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair


def batched(fn):
    """The batched ratio function of a per-split one: each split's ratio, or
    the DataError or NumericError it raises, calling ``fn`` in split order."""

    def run(batch):
        out = []
        for segs in batch:
            try:
                out.append(fn(segs))
            except (DataError, NumericError) as exc:
                out.append(exc)
        return out

    return run


def price_series(values, start="2016-01-01", leg=Leg.SPOT):
    ts = np.datetime64(start) + np.arange(len(values))
    return PriceSeries("p", leg, ts, np.asarray(values, dtype=float))


class TestPartition:
    def test_equal_count_remainder_goes_last(self):
        part = partition(23, Scheme.EQUAL_COUNT, 5)
        assert part.sizes == (4, 4, 4, 4, 7)
        assert part.groups[0] == range(0, 4)
        assert part.groups[-1] == range(16, 23)

    def test_equal_count_covers_everything(self):
        part = partition(1000, Scheme.EQUAL_COUNT, 7)
        assert sum(part.sizes) == 1000
        flat = [i for g in part.groups for i in g]
        assert flat == list(range(1000))

    def test_calendar_year(self):
        ts = np.concatenate(
            [
                np.datetime64("2019-06-01") + np.arange(100),
                np.datetime64("2020-03-01") + np.arange(50),
                np.datetime64("2021-01-01") + np.arange(30),
            ]
        )
        s = PriceSeries("p", Leg.SPOT, ts, np.linspace(1, 2, 180))
        part = partition(s, Scheme.CALENDAR_YEAR)
        assert part.sizes == (100, 50, 30)

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            partition(15, Scheme.EQUAL_COUNT, 10)


class TestEnumerateSplits:
    def test_counts(self):
        assert len(enumerate_splits(5, 2)) == 10
        assert len(enumerate_splits(10, 2)) == 45
        assert len(enumerate_splits(6, 3)) == 20

    def test_lexicographic_test_sets(self):
        tests = [t for t, _ in enumerate_splits(4, 2).splits]
        assert tests == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_train_complements_test(self):
        for test, train in enumerate_splits(6, 2).splits:
            assert sorted(test + train) == list(range(6))

    def test_k_bounds(self):
        with pytest.raises(DataError):
            enumerate_splits(5, 5)
        with pytest.raises(DataError):
            enumerate_splits(5, 0)


class TestAssignPaths:
    def test_five_groups_two_test(self):
        a = assign_paths(enumerate_splits(5, 2))
        assert a.n_paths == 4
        # the first path reassembles the earliest test appearance of each group
        assert a.cells_of_path(1) == [(0, 0), (1, 0), (2, 1), (3, 2), (4, 3)]
        assert a.cells_of_path(3) == [(0, 2), (1, 5), (2, 7), (3, 7), (4, 8)]

    def test_each_path_covers_every_group_once(self):
        for N, k in [(5, 2), (6, 2), (7, 3), (10, 2)]:
            a = assign_paths(enumerate_splits(N, k))
            for p in range(1, a.n_paths + 1):
                groups = [g for g, _ in a.cells_of_path(p)]
                assert groups == list(range(N))

    def test_path_count_law(self):
        for N in range(3, 13):
            for k in range(1, N):
                a = assign_paths(enumerate_splits(N, k))
                assert a.n_paths == math.comb(N - 1, k - 1)
                assert len(a.cells) == math.comb(N, k) * k


class TestPathStatistics:
    def brute_force(self, scores, assignment, criterion):
        agg = np.mean if criterion is Criterion.VARIANCE_REDUCTION else np.min
        out = []
        for p in range(1, assignment.n_paths + 1):
            vals = [scores[c] for c in assignment.cells_of_path(p)]
            if any(v == FAILED for v in vals):
                continue
            vals = [v for v in vals if not isinstance(v, str)]
            if vals:
                out.append(float(agg(vals)))
        return out

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            N = int(rng.integers(4, 8))
            k = int(rng.integers(1, N - 1))
            a = assign_paths(enumerate_splits(N, k))
            scores = {}
            for cell in a.cells:
                r = rng.random()
                if r < 0.05:
                    scores[cell] = FAILED
                elif r < 0.15:
                    scores[cell] = EXCLUDED
                else:
                    scores[cell] = float(rng.normal())
            for crit in Criterion:
                vals, _, voided = path_statistics(scores, a, crit)
                expect = self.brute_force(scores, a, crit)
                assert list(vals) == pytest.approx(expect)
                assert voided == a.n_paths - len(expect)

    def test_moments_only_with_enough_paths(self):
        a = assign_paths(enumerate_splits(5, 2))  # 4 paths
        scores = {cell: 1.0 for cell in a.cells}
        vals, stats, _ = path_statistics(scores, a, Criterion.VARIANCE_REDUCTION)
        assert len(vals) == 4
        assert stats is not None and stats.degenerate


def coint_series(seed=0, n=1200):
    return gen_coint_pair(SynthSpec(length=n, seed=seed, coint=CointSpec()))


class TestRunCv:
    def test_perfect_hedge_scores_one_everywhere(self):
        rng = np.random.default_rng(1)
        vals = np.exp(rng.normal(0, 0.01, 400).cumsum())
        spot = price_series(vals)
        fut = price_series(vals, leg=Leg.FUTURES)
        part = partition(400, Scheme.EQUAL_COUNT, 5)
        reports = run_cv(spot, fut, batched(lambda segs: 1.0), 1, (Criterion.VARIANCE_REDUCTION,), part, 2)
        rep = reports[Criterion.VARIANCE_REDUCTION]
        assert rep.n_paths_total == 4
        assert rep.n_paths_voided == 0
        assert all(v == pytest.approx(1.0) for v in rep.per_path_values)

    def test_deterministic(self):
        spot, fut = coint_series(seed=7)
        part = partition(len(spot), Scheme.EQUAL_COUNT, 5)

        def fn(segs):
            lengths = sum(len(s) for s in segs)
            return 0.9 + 1e-6 * lengths

        a = run_cv(spot, fut, batched(fn), 3, tuple(Criterion), part, 2)
        b = run_cv(spot, fut, batched(fn), 3, tuple(Criterion), part, 2)
        for c in Criterion:
            assert a[c].per_path_values == b[c].per_path_values
            assert a[c].per_split_values == b[c].per_split_values

    def test_mean_containment_identity(self):
        # with equal-size splits and no exclusions, the grand mean of path
        # values (mean rule) equals the grand mean of per-split values:
        # both count every cell exactly once
        spot, fut = coint_series(seed=9, n=1000)
        part = partition(1000, Scheme.EQUAL_COUNT, 5)
        rep = run_cv(
            spot, fut, batched(lambda segs: 0.9), 2, (Criterion.VARIANCE_REDUCTION,), part, 2
        )[Criterion.VARIANCE_REDUCTION]
        assert not rep.excluded_groups and not rep.failed_splits
        path_mean = np.mean(rep.per_path_values)
        split_mean = np.mean([v for v in rep.per_split_values])
        assert path_mean == pytest.approx(split_mean, abs=1e-12)

    def test_short_groups_excluded_at_long_horizon(self):
        spot, fut = coint_series(seed=3, n=149)
        part = partition(149, Scheme.EQUAL_COUNT, 5)  # sizes (29,29,29,29,33)
        rep = run_cv(
            spot, fut, batched(lambda segs: 0.9), 10, (Criterion.VARIANCE_REDUCTION,), part, 2
        )[Criterion.VARIANCE_REDUCTION]
        # min_obs = max(10, 2*10) = 20: groups of 29 have 19 diffs and drop,
        # the 33-sample remainder group has 23 and stays
        assert sorted(g for g, _ in rep.excluded_groups) == [0, 1, 2, 3]

    def test_all_groups_excluded_raises(self):
        spot, fut = coint_series(seed=3, n=520)
        part = partition(520, Scheme.EQUAL_COUNT, 5)
        with pytest.raises(InsufficientDataError):
            run_cv(spot, fut, batched(lambda segs: 0.9), 100, (Criterion.VARIANCE_REDUCTION,), part, 2)

    def test_failed_split_voids_touching_paths(self):
        spot, fut = coint_series(seed=5, n=600)
        part = partition(600, Scheme.EQUAL_COUNT, 5)
        calls = {"n": 0}

        def flaky(segs):
            calls["n"] += 1
            if calls["n"] == 1:  # first split (test groups 0 and 1) fails
                raise InsufficientDataError("synthetic failure")
            return 0.9

        rep = run_cv(spot, fut, batched(flaky), 1, (Criterion.VARIANCE_REDUCTION,), part, 2)[
            Criterion.VARIANCE_REDUCTION
        ]
        assert rep.failed_splits == (0,)
        # split 0 carries path 1 for groups 0 and 1 -> exactly one path voided
        assert rep.n_paths_voided == 1
        assert len(rep.per_path_values) == rep.n_paths_total - 1
        assert rep.per_split_values[0] is None

    def test_var_criterion_uses_min_rule(self):
        spot, fut = coint_series(seed=11, n=1500)
        part = partition(1500, Scheme.EQUAL_COUNT, 5)
        reports = run_cv(spot, fut, batched(lambda segs: 0.9), 1, tuple(Criterion), part, 2)
        var_rep = reports[Criterion.VAR]
        vr_rep = reports[Criterion.VARIANCE_REDUCTION]
        assert var_rep.n_paths_total == vr_rep.n_paths_total == 4
        assert len(var_rep.per_path_values) == 4

    def test_failed_split_keeps_exception_class_and_message(self):
        spot, fut = coint_series(seed=5, n=600)
        part = partition(600, Scheme.EQUAL_COUNT, 5)

        def fn(segs):
            if segs[0].start > 0:  # group 0 is a test group
                raise InsufficientDataError("synthetic failure")
            return float("nan") if len(segs) == 1 else 0.9

        rep = run_cv(spot, fut, batched(fn), 1, (Criterion.VARIANCE_REDUCTION,), part, 2)[
            Criterion.VARIANCE_REDUCTION
        ]
        # splits 0-3 test group 0; split 9 tests (3, 4) and trains on one block
        assert rep.failed_splits == (0, 1, 2, 3, 9)
        assert rep.failed_reasons == (("InsufficientDataError", "synthetic failure"),) * 4 + (
            ("NumericError", "non-finite hedge ratio"),
        )


class TestAssignPathsLookup:
    def test_cells_of_path_matches_a_scan_of_cells(self):
        for N, k in [(3, 1), (5, 2), (6, 3), (8, 3), (10, 2)]:
            a = assign_paths(enumerate_splits(N, k))
            for p in range(0, a.n_paths + 2):
                assert a.cells_of_path(p) == sorted(c for c, q in a.cells.items() if q == p)


def reference_cv(spot, fut, ratio_fn, h, criteria, part, k, min_obs, alpha):
    """run_cv written per cell: one portfolio and one 1-D criterion per
    (test group, split)."""
    splits = enumerate_splits(part.n_groups, k)
    rets, excluded = {}, []
    for g, rg in enumerate(part.groups):
        if len(rg) - h < min_obs:
            excluded.append(g)
            continue
        sv = np.log(spot.values[rg.start : rg.stop])
        fv = np.log(fut.values[rg.start : rg.stop])
        rets[g] = (sv[h:] - sv[:-h], fv[h:] - fv[:-h])
    cells = {c: {} for c in criteria}
    per_split = {c: [] for c in criteria}
    failed = []
    degenerate = 0
    for s, (test, train) in enumerate(splits.splits):
        try:
            ratio = float(ratio_fn(restrict(spot, [part.groups[g] for g in train]).segments))
            if not math.isfinite(ratio):
                raise NumericError("non-finite hedge ratio")
        except (NumericError, InsufficientDataError, DataError):
            failed.append(s)
            for c in criteria:
                per_split[c].append(None)
                for g in test:
                    cells[c][(g, s)] = FAILED
            continue
        for c in criteria:
            vals = []
            for g in test:
                if g not in rets:
                    cells[c][(g, s)] = EXCLUDED
                    continue
                ds, df = rets[g]
                port = ds - ratio * df
                if c is Criterion.VARIANCE_REDUCTION:
                    eff = he_variance(ds, port)
                else:
                    eff = he_var(ds, port, alpha)
                degenerate += eff.degenerate
                if eff.degenerate or not math.isfinite(eff.value):
                    cells[c][(g, s)] = EXCLUDED
                    continue
                cells[c][(g, s)] = eff.value
                vals.append(eff.value)
            per_split[c].append(float(np.mean(vals)) if vals else None)
    assignment = assign_paths(splits)
    out = {c: (tuple(per_split[c]),) + path_statistics(cells[c], assignment, c) for c in criteria}
    return out, tuple(failed), excluded, degenerate


class TestRunCvMatchesPerCellReference:
    """The batched scoring gives exactly the per-cell numbers, not approximately."""

    # six groups; group 2 is too short for min_obs, group 3 has a flat spot leg
    SIZES = (110, 110, 18, 110, 110, 112)

    def scenario(self):
        spot, fut = coint_series(seed=21, n=sum(self.SIZES))
        bounds = np.cumsum((0,) + self.SIZES)
        groups = tuple(range(bounds[i], bounds[i + 1]) for i in range(len(self.SIZES)))
        part = GroupPartition(Scheme.EQUAL_COUNT, groups, self.SIZES)
        flat = spot.values.copy()
        flat[groups[3].start : groups[3].stop] = flat[groups[3].start]
        spot = price_series(flat)
        ds = np.diff(np.log(spot.values))
        df = np.diff(np.log(fut.values))

        def ratio_fn(segs):
            tested = tuple(
                g for g, rg in enumerate(groups) if not any(rg.start >= s.start and rg.stop <= s.stop for s in segs)
            )
            if tested == (1, 3, 4):
                raise InsufficientDataError("synthetic failure")
            if tested == (0, 4, 5):
                return float("inf")
            idx = np.concatenate([np.arange(s.start, s.stop - 1) for s in segs])
            return float(np.cov(ds[idx], df[idx])[0, 1] / np.var(df[idx], ddof=1))

        return spot, fut, part, ratio_fn

    @pytest.mark.parametrize(
        "criteria",
        [(Criterion.VARIANCE_REDUCTION,), (Criterion.VAR,), (Criterion.VARIANCE_REDUCTION, Criterion.VAR)],
        ids=["vr", "var", "both"],
    )
    @pytest.mark.parametrize("h", [1, 4])
    def test_equals_reference(self, criteria, h):
        spot, fut, part, ratio_fn = self.scenario()
        min_obs, alpha = 25, 0.05
        got = run_cv(spot, fut, batched(ratio_fn), h, criteria, part, 3, min_obs=min_obs, alpha=alpha)
        want, failed, excluded, degenerate = reference_cv(
            spot, fut, ratio_fn, h, criteria, part, 3, min_obs, alpha
        )
        # the scenario reaches every cell status
        assert failed and excluded == [2] and degenerate
        for c in criteria:
            per_split, per_path, stats, voided = want[c]
            rep = got[c]
            assert stats is not None
            assert rep.per_split_values == per_split
            assert rep.per_path_values == per_path
            assert rep.stats == stats
            assert rep.n_paths_voided == voided
            assert rep.failed_splits == failed
            assert [g for g, _ in rep.excluded_groups] == excluded

    @pytest.mark.parametrize("n", [20, 21, 249, 250, 1001])
    def test_batched_row_equals_1d_call_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        ds, df = rng.normal(0, 0.02, n), rng.normal(0, 0.02, n)
        df[::7] = np.round(df[::7], 3)  # ties in the order statistics
        r = rng.uniform(0.5, 1.2, 21)
        portfolios = ds[None, :] - r[:, None] * df[None, :]
        var_rows = np.var(portfolios, axis=1, ddof=1)
        q_rows = np.quantile(portfolios, 0.05, axis=1, method="linear")
        vr_rows, _, _ = effectiveness_rows(Criterion.VARIANCE_REDUCTION, ds, portfolios)
        var_eff_rows, _, _ = effectiveness_rows(Criterion.VAR, ds, portfolios, 0.05)
        for i, ratio in enumerate(r):
            port = ds - ratio * df
            assert port.tobytes() == portfolios[i].tobytes()
            assert np.var(port, ddof=1).tobytes() == var_rows[i].tobytes()
            assert np.quantile(port, 0.05, method="linear").tobytes() == q_rows[i].tobytes()
            assert vr_rows[i] == he_variance(ds, port).value
            assert var_eff_rows[i] == he_var(ds, port, 0.05).value
