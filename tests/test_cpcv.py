import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdhedge import cpcv
from emdhedge.cpcv import (
    MAX_SPLITS,
    MIN_PATHS,
    calendar_years,
    excludes_every_group,
    partition,
    path_statistics,
    path_table,
    run_cv,
    split_table,
    why_too_few_paths,
)
from emdhedge.errors import DataError, InsufficientDataError, NumericError
from emdhedge.performance import (
    Criterion,
    effectiveness_rows,
    he_var,
    he_variance,
    moments,
)
from emdhedge.series import PriceSeries, restrict
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair

# cell status markers of the reference score tables
EXCLUDED = "excluded"
FAILED = "failed"


def batched(fn, spot, groups):
    """The batched ratio function of a per-split one: each split's ratio, or
    the DataError or NumericError it raises, calling ``fn`` on each split's
    training segments (its training groups, merged) in split order."""

    def run(train):
        out = []
        for row in train:
            try:
                out.append(fn(restrict(spot, [groups[g] for g in np.flatnonzero(row)])))
            except (DataError, NumericError) as exc:
                out.append(exc)
        return out

    return run


def run_one(spot, fut, ratio_fn, *args, **kwargs):
    """``run_cv`` of one method: a one-entry dict in, its reports by criterion out."""
    return {c: rep for (_, c), rep in run_cv(spot, fut, {"m": ratio_fn}, *args, **kwargs).items()}


def price_series(values, start="2016-01-01"):
    ts = np.datetime64(start) + np.arange(len(values))
    return PriceSeries(ts, np.asarray(values, dtype=float))


class TestPartition:
    def test_equal_count_remainder_goes_last(self):
        groups = partition(23, 5)
        assert tuple(map(len, groups)) == (4, 4, 4, 4, 7)
        assert groups[0] == range(0, 4)
        assert groups[-1] == range(16, 23)

    def test_equal_count_covers_everything(self):
        groups = partition(1000, 7)
        assert sum(map(len, groups)) == 1000
        flat = [i for g in groups for i in g]
        assert flat == list(range(1000))

    def test_calendar_year(self):
        ts = np.concatenate(
            [
                np.datetime64("2019-06-01") + np.arange(100),
                np.datetime64("2020-03-01") + np.arange(50),
                np.datetime64("2021-01-01") + np.arange(30),
            ]
        )
        s = PriceSeries(ts, np.linspace(1, 2, 180))
        groups = calendar_years(s.timestamps)
        assert tuple(map(len, groups)) == (100, 50, 30)

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            partition(15, 10)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_count_law(self, data):
        # N-1 groups of floor(T/N) observations, the last group the rest, tiling range(T) in order
        n_groups = data.draw(st.integers(2, 40))
        n_obs = data.draw(st.integers(2 * n_groups, 5000))
        groups = partition(n_obs, n_groups)
        assert [i for g in groups for i in g] == list(range(n_obs))
        base = n_obs // n_groups
        assert [len(g) for g in groups] == [base] * (n_groups - 1) + [n_obs - (n_groups - 1) * base]
        with pytest.raises(DataError, match="^need at least 2 groups$"):
            partition(n_obs, data.draw(st.integers(-40, 1)))
        short = data.draw(st.integers(0, 2 * n_groups - 1))
        with pytest.raises(InsufficientDataError, match=f"^{short} samples for {n_groups} groups$"):
            partition(short, n_groups)


def reference_splits(n_groups, k):
    """The split and path law written out: each split's (test, train) groups,
    test sets from ``itertools.combinations``, and each (group, split) test
    cell's 0-based path, from a counter per group over its test appearances
    in split order."""
    splits, path_of, counters = [], {}, [0] * n_groups
    for s, test in enumerate(combinations(range(n_groups), k)):
        splits.append((test, tuple(g for g in range(n_groups) if g not in test)))
        for g in test:
            path_of[g, s] = counters[g]
            counters[g] += 1
    return splits, path_of


def reference_path_cells(path_of):
    """Each path's (group, split) cells, in group order."""
    n_paths = max(path_of.values()) + 1
    return [sorted(cell for cell, q in path_of.items() if q == p) for p in range(n_paths)]


class TestSplitTable:
    def test_counts(self):
        assert split_table(5, 2)[0].shape == (10, 2)
        assert split_table(10, 2)[1].shape == (45, 10)
        assert split_table(6, 3)[0].shape == (20, 3)

    def test_lexicographic_test_sets(self):
        tests, _ = split_table(4, 2)
        assert tests.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_train_complements_test(self):
        for N, k in [(6, 2), (7, 3), (5, 4)]:
            tests, train = split_table(N, k)
            assert train.sum(axis=1).tolist() == [N - k] * len(tests)
            for test, mask in zip(tests.tolist(), train):
                assert sorted(test + np.flatnonzero(mask).tolist()) == list(range(N))

    def test_equals_the_reference_law(self):
        for N, k in [(3, 1), (5, 2), (6, 3), (8, 3), (10, 2)]:
            splits, _ = reference_splits(N, k)
            tests, train = split_table(N, k)
            assert [tuple(t) for t in tests.tolist()] == [test for test, _ in splits]
            assert [tuple(np.flatnonzero(m).tolist()) for m in train] == [train for _, train in splits]

    @pytest.mark.parametrize("n_groups", [2, 5, 10])
    def test_k_bounds_and_their_one_message(self, n_groups):
        # the k rule comes before the path count: math.comb(N - 1, k - 1) raises its own ValueError for k < 1
        for k in (-1, 0, n_groups):
            message = f"k must satisfy 1 <= k < N, got k={k}, N={n_groups}"
            with pytest.raises(DataError, match=rf"^{message}$"):
                split_table(n_groups, k)
            assert why_too_few_paths(n_groups, k) == message
        assert len(split_table(n_groups, n_groups - 1)[0]) == n_groups
        # N-1 test groups give N-1 paths: enough for path statistics from N = MIN_PATHS + 1
        enough = why_too_few_paths(n_groups, n_groups - 1)
        assert (enough is None) == (n_groups - 1 >= MIN_PATHS)
        if enough is not None:
            assert enough.endswith(f"give {n_groups - 1} CV paths; path statistics need {MIN_PATHS}")

    @pytest.mark.parametrize("n_groups, k", [(6, 3), (20, 5)])
    def test_the_split_cap_at_its_edge_and_its_one_message(self, monkeypatch, n_groups, k):
        n_splits = math.comb(n_groups, k)
        monkeypatch.setattr(cpcv, "MAX_SPLITS", n_splits)
        assert len(split_table(n_groups, k)[0]) == n_splits and why_too_few_paths(n_groups, k) is None
        monkeypatch.setattr(cpcv, "MAX_SPLITS", n_splits - 1)
        message = f"N={n_groups} groups with k={k} give {n_splits} CV splits; a run takes at most {n_splits - 1}"
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            split_table(n_groups, k)
        assert why_too_few_paths(n_groups, k) == message

    def test_the_cap_admits_15504_splits_and_refuses_forty_years_at_k_5(self):
        assert math.comb(20, 5) == 15504 <= MAX_SPLITS
        assert why_too_few_paths(40, 5) == f"N=40 groups with k=5 give 658008 CV splits; a run takes at most {MAX_SPLITS}"


class TestPathTable:
    def test_five_groups_two_test(self):
        split_of = path_table(split_table(5, 2)[1])
        assert split_of.shape == (4, 5)
        # the first path reassembles the earliest test appearance of each group
        assert split_of[0].tolist() == [0, 0, 1, 2, 3]
        assert split_of[2].tolist() == [2, 5, 7, 7, 8]

    def test_each_path_covers_every_group_once(self):
        for N, k in [(5, 2), (6, 2), (7, 3), (10, 2)]:
            tests, train = split_table(N, k)
            split_of = path_table(train)
            # a path's cell of group g is a split testing g
            assert (~train[split_of, np.arange(N)]).all()
            # and every test cell is on exactly one path
            cells = sorted(zip(split_of.ravel().tolist(), np.tile(np.arange(N), len(split_of)).tolist()))
            assert cells == sorted((s, g) for s, test in enumerate(tests.tolist()) for g in test)

    def test_path_count_law(self):
        for N in range(3, 13):
            for k in range(1, N):
                tests, train = split_table(N, k)
                assert path_table(train).shape == (math.comb(N - 1, k - 1), N)
                assert tests.size == math.comb(N, k) * k

    def test_paths_equal_the_reference_counter(self):
        for N, k in [(3, 1), (5, 2), (6, 3), (8, 3), (10, 2)]:
            _, path_of = reference_splits(N, k)
            split_of = path_table(split_table(N, k)[1])
            assert [[(g, s) for g, s in enumerate(row)] for row in split_of.tolist()] == reference_path_cells(path_of)


def random_cells(rng, N, k, p_failed, p_excluded):
    """A random (path, group) score table of ``split_table(N, k)``: a score
    array, its included mask and its failed mask, each failed or excluded
    cell NaN in the scores, and the same table as a (group, split) -> score
    or marker dict."""
    split_of = path_table(split_table(N, k)[1])
    weights = [p_failed, p_excluded, 1 - p_failed - p_excluded]
    marks = rng.choice([FAILED, EXCLUDED, "score"], size=split_of.shape, p=weights)
    scores = np.where(marks == "score", rng.normal(size=split_of.shape), np.nan)
    cells = {
        (g, s): float(scores[p, g]) if marks[p, g] == "score" else str(marks[p, g])
        for p, row in enumerate(split_of.tolist())
        for g, s in enumerate(row)
    }
    return scores, marks == "score", marks == FAILED, cells


class TestPathStatistics:
    def brute_force(self, cells, path_of, criterion):
        agg = np.mean if criterion is Criterion.VARIANCE_REDUCTION else np.min
        out = []
        for path in reference_path_cells(path_of):
            vals = [cells[c] for c in path]
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
            _, path_of = reference_splits(N, k)
            scores, included, failed, cells = random_cells(rng, N, k, 0.05, 0.10)
            for crit in Criterion:
                ((vals, _, voided),) = path_statistics(scores[None], included[None], failed[None], crit)
                expect = self.brute_force(cells, path_of, crit)
                assert list(vals) == pytest.approx(expect)
                assert voided == len(scores) - len(expect)

    def test_moments_only_with_enough_paths(self):
        ones = np.ones((1, 4, 5))  # 5 groups at k=2: 4 paths
        ((vals, stats, _),) = path_statistics(ones, ones > 0, ones < 0, Criterion.VARIANCE_REDUCTION)
        assert len(vals) == 4
        assert stats is not None and stats.std == 0.0


def coint_series(seed=0, n=1200):
    return gen_coint_pair(SynthSpec(length=n, seed=seed, coint=CointSpec()))


class TestRunCv:
    def test_perfect_hedge_scores_one_everywhere(self):
        rng = np.random.default_rng(1)
        vals = np.exp(rng.normal(0, 0.01, 400).cumsum())
        spot = price_series(vals)
        fut = price_series(vals)
        groups = partition(400, 5)
        fn = batched(lambda segs: 1.0, spot, groups)
        reports = run_one(spot, fut, fn, 1, groups, 2)
        rep = reports[Criterion.VARIANCE_REDUCTION]
        assert rep.n_paths_total == 4
        assert rep.n_paths_voided == 0
        assert all(v == pytest.approx(1.0) for v in rep.per_path_values)

    def test_deterministic(self):
        spot, fut = coint_series(seed=7)
        groups = partition(len(spot), 5)

        def fn(segs):
            lengths = sum(len(s) for s in segs)
            return 0.9 + 1e-6 * lengths

        a = run_one(spot, fut, batched(fn, spot, groups), 3, groups, 2)
        b = run_one(spot, fut, batched(fn, spot, groups), 3, groups, 2)
        for c in Criterion:
            assert a[c].per_path_values == b[c].per_path_values
            assert a[c].per_split_values == b[c].per_split_values

    def test_mean_containment_identity(self):
        # with equal-size splits and no exclusions, the grand mean of path
        # values (mean rule) equals the grand mean of per-split values:
        # both count every cell exactly once
        spot, fut = coint_series(seed=9, n=1000)
        groups = partition(1000, 5)
        rep = run_one(spot, fut, batched(lambda segs: 0.9, spot, groups), 2, groups, 2)[Criterion.VARIANCE_REDUCTION]
        assert not rep.excluded_groups and not rep.failed_splits
        path_mean = np.mean(rep.per_path_values)
        split_mean = np.mean([v for v in rep.per_split_values])
        assert path_mean == pytest.approx(split_mean, abs=1e-12)

    def test_short_groups_excluded_at_long_horizon(self):
        spot, fut = coint_series(seed=3, n=149)
        groups = partition(149, 5)  # sizes (29,29,29,29,33)
        rep = run_one(spot, fut, batched(lambda segs: 0.9, spot, groups), 10, groups, 2)[Criterion.VARIANCE_REDUCTION]
        # min_obs = max(2*10, 20) = 20: groups of 29 have 19 diffs and drop,
        # the 33-sample remainder group has 23 and stays
        assert sorted(g for g, _ in rep.excluded_groups) == [0, 1, 2, 3]

    def test_all_groups_excluded_raises(self):
        spot, fut = coint_series(seed=3, n=520)
        groups = partition(520, 5)
        with pytest.raises(InsufficientDataError):
            fn = batched(lambda segs: 0.9, spot, groups)
            run_one(spot, fut, fn, 100, groups, 2)

    def test_excludes_every_group_at_its_edge(self):
        groups = partition(520, 5)  # five groups of 104
        # default min_obs 2h: 104 - 34 = 70 >= 68 differences, 104 - 35 = 69 < 70
        assert not excludes_every_group(groups, 34) and excludes_every_group(groups, 35)
        small = partition(125, 5)  # five groups of 25
        # the VaR floor of 20 differences holds under the default and under any smaller min_obs
        assert not excludes_every_group(small, 5) and excludes_every_group(small, 6)
        assert not excludes_every_group(small, 5, min_obs=1) and excludes_every_group(small, 6, min_obs=1)
        uneven = partition(149, 5)  # sizes (29, 29, 29, 29, 33)
        assert not excludes_every_group(uneven, 10)  # the last group keeps 23 of 20 differences

    def test_failed_split_voids_touching_paths(self):
        spot, fut = coint_series(seed=5, n=600)
        groups = partition(600, 5)
        calls = {"n": 0}

        def flaky(segs):
            calls["n"] += 1
            if calls["n"] == 1:  # first split (test groups 0 and 1) fails
                raise InsufficientDataError("synthetic failure")
            return 0.9

        rep = run_one(spot, fut, batched(flaky, spot, groups), 1, groups, 2)[Criterion.VARIANCE_REDUCTION]
        assert rep.failed_splits == (0,)
        # split 0 carries path 1 for groups 0 and 1 -> exactly one path voided
        assert rep.n_paths_voided == 1
        assert len(rep.per_path_values) == rep.n_paths_total - 1
        assert rep.per_split_values[0] is None

    def test_var_criterion_uses_min_rule(self):
        spot, fut = coint_series(seed=11, n=1500)
        groups = partition(1500, 5)
        reports = run_one(spot, fut, batched(lambda segs: 0.9, spot, groups), 1, groups, 2)
        var_rep = reports[Criterion.VAR]
        vr_rep = reports[Criterion.VARIANCE_REDUCTION]
        assert var_rep.n_paths_total == vr_rep.n_paths_total == 4
        assert len(var_rep.per_path_values) == 4

    def test_var_scores_a_group_of_exactly_its_floor_and_excludes_one_below(self):
        spot, fut = coint_series(seed=5, n=221)
        bounds = (0, 21, 41, 101, 161, 221)  # 20 and 19 one-day differences in groups 0 and 1
        groups = tuple(range(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        rep = run_one(spot, fut, batched(lambda segs: 0.9, spot, groups), 1, groups, 2, min_obs=1)[Criterion.VAR]
        assert rep.excluded_groups == ((1, "19 observations at horizon 1 < 20"),)
        # split 0 tests groups (0, 1): its value is group 0's VaR on 20 differences
        assert math.isfinite(rep.per_split_values[0])

    def test_the_split_bookkeeping_of_15504_splits_stays_small(self):
        # equal:20 at k=5 on T=4000: 15,504 splits and 3,876 paths. A dict
        # per test cell and a tuple per split read 38 MB; the split and path
        # tables, the scores and one group's portfolios read 22 MB
        spot, fut = coint_series(seed=3, n=4000)
        groups = partition(len(spot), 20)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rep = run_one(spot, fut, lambda train: [0.9] * len(train), 1, groups, 5)[Criterion.VAR]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(rep.per_split_values) == 15504 and rep.n_paths_total == 3876
        assert peak <= 28 * 10**6

    def test_failed_split_keeps_exception_class_and_message(self):
        spot, fut = coint_series(seed=5, n=600)
        groups = partition(600, 5)

        def fn(segs):
            if segs[0].start > 0:  # group 0 is a test group
                raise InsufficientDataError("synthetic failure")
            return float("nan") if len(segs) == 1 else 0.9

        rep = run_one(spot, fut, batched(fn, spot, groups), 1, groups, 2)[Criterion.VARIANCE_REDUCTION]
        # splits 0-3 test group 0; split 9 tests (3, 4) and trains on one block
        assert rep.failed_splits == (0, 1, 2, 3, 9)
        assert rep.failed_reasons == (("InsufficientDataError", "synthetic failure"),) * 4 + (
            ("NumericError", "non-finite hedge ratio"),
        )


def reference_paths(cell_scores, path_of, criterion):
    """path_statistics written per path: one 1-D mean or minimum over a
    Python list of each path's included cells, in group order."""
    per_path, voided = [], 0
    for path in reference_path_cells(path_of):
        scores = [cell_scores[c] for c in path]
        vals = [s for s in scores if not isinstance(s, str)]
        if any(s == FAILED for s in scores if isinstance(s, str)) or not vals:
            voided += 1
            continue
        per_path.append(float(np.mean(vals) if criterion is Criterion.VARIANCE_REDUCTION else np.min(vals)))
    stats = moments(np.array(per_path)) if len(per_path) >= MIN_PATHS else None
    return tuple(per_path), stats, voided


def reference_cv(spot, fut, ratio_fn, h, groups, k, min_obs, alpha):
    """run_cv written per cell: one portfolio and one 1-D criterion per
    (test group, split), for every criterion. A group is excluded below
    ``min_obs`` differences or the VaR quantile's floor of 20."""
    splits, path_of = reference_splits(len(groups), k)
    rets, excluded = {}, []
    for g, rg in enumerate(groups):
        if len(rg) - h < max(min_obs, 20):
            excluded.append(g)
            continue
        sv = np.log(spot.values[rg.start : rg.stop])
        fv = np.log(fut.values[rg.start : rg.stop])
        rets[g] = (sv[h:] - sv[:-h], fv[h:] - fv[:-h])
    cells = {c: {} for c in Criterion}
    per_split = {c: [] for c in Criterion}
    failed = []
    degenerate = 0
    for s, (test, train) in enumerate(splits):
        try:
            ratio = float(ratio_fn(restrict(spot, [groups[g] for g in train])))
            if not math.isfinite(ratio):
                raise NumericError("non-finite hedge ratio")
        except (NumericError, InsufficientDataError, DataError):
            failed.append(s)
            for c in Criterion:
                per_split[c].append(None)
                for g in test:
                    cells[c][(g, s)] = FAILED
            continue
        for c in Criterion:
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
                degenerate += math.isnan(eff)
                if not math.isfinite(eff):
                    cells[c][(g, s)] = EXCLUDED
                    continue
                cells[c][(g, s)] = eff
                vals.append(eff)
            per_split[c].append(float(np.mean(vals)) if vals else None)
    out = {c: (tuple(per_split[c]),) + reference_paths(cells[c], path_of, c) for c in Criterion}
    return out, tuple(failed), excluded, degenerate


class TestRunCvMatchesPerCellReference:
    """The batched scoring gives exactly the per-cell numbers, not approximately."""

    # six groups; group 2 is too short for min_obs, group 3 has a flat spot leg
    SIZES = (110, 110, 18, 110, 110, 112)

    def scenario(self):
        spot, fut = coint_series(seed=21, n=sum(self.SIZES))
        bounds = np.cumsum((0,) + self.SIZES)
        groups = tuple(range(bounds[i], bounds[i + 1]) for i in range(len(self.SIZES)))
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

        return spot, fut, groups, ratio_fn

    @pytest.mark.parametrize("h", [1, 4])
    def test_equals_reference(self, h):
        spot, fut, groups, ratio_fn = self.scenario()
        min_obs, alpha = 25, 0.05
        fn = batched(ratio_fn, spot, groups)
        got = run_one(spot, fut, fn, h, groups, 3, min_obs=min_obs, alpha=alpha)
        want, failed, excluded, degenerate = reference_cv(spot, fut, ratio_fn, h, groups, 3, min_obs, alpha)
        # the scenario reaches every cell status
        assert failed and excluded == [2] and degenerate
        for c in Criterion:
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
        vr_rows = effectiveness_rows(Criterion.VARIANCE_REDUCTION, ds, portfolios)
        var_eff_rows = effectiveness_rows(Criterion.VAR, ds, portfolios, 0.05)
        for i, ratio in enumerate(r):
            port = ds - ratio * df
            assert port.tobytes() == portfolios[i].tobytes()
            assert np.var(port, ddof=1).tobytes() == var_rows[i].tobytes()
            assert np.quantile(port, 0.05, method="linear").tobytes() == q_rows[i].tobytes()
            assert vr_rows[i] == he_variance(ds, port)
            assert var_eff_rows[i] == he_var(ds, port, 0.05)


def table_fn(groups, outcomes):
    """A per-split ratio function that looks up each split's outcome (a ratio
    or an exception to raise) by its training groups."""

    def fn(segs):
        train = tuple(g for g, rg in enumerate(groups) if any(rg.start >= s.start and rg.stop <= s.stop for s in segs))
        out = outcomes[train]
        if isinstance(out, Exception):
            raise out
        return out

    return fn


FAILURES = [float("nan"), float("inf"), InsufficientDataError("synthetic failure")]


@st.composite
def multi_method_scenarios(draw):
    n_groups = draw(st.integers(5, 9))
    k = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1, 3]))
    min_obs = 20
    short = set(draw(st.lists(st.integers(0, n_groups - 1), max_size=2)))  # excluded at this horizon
    sizes = tuple(
        draw(st.integers(5, min_obs + h - 1) if g in short else st.integers(min_obs + h, 60)) for g in range(n_groups)
    )
    flat = draw(st.none() | st.integers(0, n_groups - 1))  # a degenerate spot side
    trains = [train for _, train in reference_splits(n_groups, k)[0]]
    labels = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    outcomes = {}
    for m in labels:
        outcomes[m] = {t: draw(st.floats(0.5, 1.5)) for t in trains}
        for s in draw(st.lists(st.integers(0, len(trains) - 1), max_size=3)):  # failing splits
            outcomes[m][trains[s]] = draw(st.sampled_from(FAILURES))
    seed = draw(st.integers(0, 50))
    return sizes, k, h, min_obs, flat, outcomes, seed, draw(st.randoms())


def same_report(rep, per_split, per_path, stats, voided, failed, excluded):
    """Equality bit for bit; repr also tells apart the NaN moments of a
    degenerate path set."""
    assert repr(rep.per_split_values) == repr(per_split)
    assert repr(rep.per_path_values) == repr(per_path)
    assert repr(rep.stats) == repr(stats)
    assert rep.n_paths_voided == voided
    assert rep.failed_splits == failed
    assert [g for g, _ in rep.excluded_groups] == excluded


class TestMultiMethodRunCv:
    @settings(max_examples=40, deadline=None)
    @given(multi_method_scenarios())
    def test_each_method_equals_the_per_cell_reference(self, scenario):
        sizes, k, h, min_obs, flat, outcomes, seed, rnd = scenario
        n = sum(sizes)
        spot, fut = coint_series(seed=seed, n=max(n, 100))  # synth makes at least 100 samples
        bounds = np.cumsum((0,) + sizes)
        groups = tuple(range(bounds[i], bounds[i + 1]) for i in range(len(sizes)))
        values = spot.values[:n].copy()
        if flat is not None:
            values[groups[flat].start : groups[flat].stop] = values[groups[flat].start]
        spot, fut = price_series(values), price_series(fut.values[:n])
        fns = {m: table_fn(groups, table) for m, table in outcomes.items()}
        args = (h, groups, k)
        got = run_cv(spot, fut, {m: batched(fn, spot, groups) for m, fn in fns.items()}, *args, min_obs=min_obs)
        assert list(got) == [(m, c) for m in fns for c in Criterion]
        for m, fn in fns.items():
            want, failed, excluded, _ = reference_cv(spot, fut, fn, h, groups, k, min_obs, 0.05)
            for c in Criterion:
                same_report(got[m, c], *want[c], failed, excluded)
        # a method's reports do not depend on the other methods or their order
        others = rnd.sample(list(fns), rnd.randint(1, len(fns)))
        alone = run_cv(spot, fut, {m: batched(fns[m], spot, groups) for m in others}, *args, min_obs=min_obs)
        for m, c in alone:
            assert repr(alone[m, c]) == repr(got[m, c])


def test_path_statistics_equals_the_per_path_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    for trial in range(60):
        N = int(rng.integers(5, 10))
        k = int(rng.integers(1, 4))
        _, path_of = reference_splits(N, k)
        scores, included, failed, cells = random_cells(rng, N, k, 0.02, 0.1)
        for crit in Criterion:
            (got,) = path_statistics(scores[None], included[None], failed[None], crit)
            assert repr(got) == repr(reference_paths(cells, path_of, crit))
