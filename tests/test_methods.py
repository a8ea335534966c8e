import tracemalloc
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdhedge import cpcv, estimators, methods
from emdhedge.cpcv import Criterion, calendar_years, partition, run_cv, split_table
from emdhedge.emd import MIN_SAMPLES, ImfSet, SiftConfig, decompose, decompose_all
from emdhedge.errors import DataError, EmdHedgeError, InsufficientDataError
from emdhedge.estimators import (
    Method,
    aggregate_imfs,
    design_rows,
    ols,
)
from emdhedge.methods import EMD_FAMILY, make_ratio_fn, training_segments
from emdhedge.series import PriceSeries, restrict
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair
import oracle


def _trains(n_groups, k) -> list[tuple[int, ...]]:
    """Each split's training groups, in split order."""
    return [tuple(np.flatnonzero(row).tolist()) for row in split_table(n_groups, k)[1]]


def _mask(n_groups, trains) -> np.ndarray:
    """The training mask (splits, groups) of splits training on ``trains``."""
    mask = np.zeros((len(trains), n_groups), dtype=bool)
    for s, train in enumerate(trains):
        mask[s, list(train)] = True
    return mask


def _training_segments(groups, trains) -> list[range]:
    """The distinct training segments of splits training on ``trains``."""
    return list(training_segments(groups, _mask(len(groups), trains)).values())


def _segment_sets(spot, fut, segments, cfg=SiftConfig()) -> dict:
    """Each segment's (spot, futures) decompositions, each an ImfSet or its
    error, from one lockstep call, as the CLI's decompose stage gives them."""
    done = decompose_all([leg.values[seg.start : seg.stop] for seg in segments for leg in (spot, fut)], cfg)
    return dict(zip(segments, zip(done[::2], done[1::2])))


def test_per_segment_ratio_is_ols_on_pooled_segment_imfs():
    spot, fut = gen_coint_pair(SynthSpec(length=400, seed=4, coint=CointSpec()))
    cfg = SiftConfig()
    groups = partition(len(spot), 5)
    train = _trains(5, 2)[3]  # test groups (0, 4): one training segment
    segments = restrict(spot, [groups[g] for g in train])
    train_2 = _trains(5, 2)[1]  # test groups (0, 2): two training segments
    segments_2 = restrict(spot, [groups[g] for g in train_2])
    assert len(segments) == 1 and len(segments_2) == 2

    h = 5
    # every training segment of the partition's splits, or only the split's own
    every = _segment_sets(spot, fut, _training_segments(groups, _trains(5, 2)), cfg)
    for method in methods.EMD_FAMILY:
        for split_groups, segs in ((train, segments), (train_2, segments_2)):
            pooled = []
            for seg in segs:
                s_set, f_set = (decompose(leg.values[seg.start : seg.stop], cfg) for leg in (spot, fut))
                if method is Method.AEMD:
                    s, f = aggregate_imfs(s_set, f_set, h)
                else:
                    s, f = s_set.imfs[0].values, f_set.imfs[0].values
                pooled.append(design_rows(method, s, f, h)[0])
            rows = np.concatenate(pooled)
            expected = ols(rows[:, -1], rows[:, 1], intercept=True).slope
            for imfs in (every, _segment_sets(spot, fut, list(segs), cfg)):
                fn = make_ratio_fn(method, spot, fut, h, imf_index=1, imfs=imfs, groups=groups)
                (got,) = fn(_mask(5, [split_groups]))
                assert abs(got - expected) <= 1e-12 * abs(expected), (method, split_groups)


@pytest.mark.parametrize(
    "method, h, imf_index, cause",
    [
        (Method.AEMD, 1, 1, "no spot IMF with cycle <= horizon 1"),
        (Method.VEMD, 2, 9, "spot IMF9 has no futures IMF to pair with"),
        (Method.VEMD, 90, 1, "0 IMF difference observations at horizon 90"),
    ],
)
def test_a_per_segment_split_without_rows_names_its_first_segments_cause(method, h, imf_index, cause):
    spot, fut = gen_coint_pair(SynthSpec(length=400, seed=4, coint=CointSpec()))
    groups = partition(len(spot), 5)  # 80 observations each
    # every training segment here is one group long
    imfs = _segment_sets(spot, fut, list(groups))
    fn = make_ratio_fn(method, spot, fut, h, imf_index=imf_index, imfs=imfs, groups=groups)
    for train, first in (((1, 3), "1-1"), ((0, 2, 4), "0-0"), ((3,), "3-3")):
        (got,) = fn(_mask(5, [train]))
        assert isinstance(got, InsufficientDataError)
        assert str(got) == f"no training segment yields rows at horizon {h} (groups {first}: {cause})"


@pytest.mark.parametrize("method", [Method.VEMD, Method.SEMD])
def test_a_per_segment_split_whose_one_segment_has_a_trend_futures_leg_names_it(method):
    # a linear futures leg decomposes into its trend alone on every segment
    spot, _ = gen_coint_pair(SynthSpec(length=400, seed=4, coint=CointSpec()))
    fut = PriceSeries(spot.timestamps, 100 + 0.1 * np.arange(400.0))
    groups = partition(len(spot), 5)
    train = [(1, 2, 3)]  # one training segment, groups 1-3
    imfs = _segment_sets(spot, fut, _training_segments(groups, train))
    fn = make_ratio_fn(method, spot, fut, 5, imf_index=1, imfs=imfs, groups=groups)
    (got,) = fn(_mask(5, train))
    assert type(got) is InsufficientDataError
    cause = "the futures decomposition has no IMF (a trend)"
    assert str(got) == f"no training segment yields rows at horizon 5 (groups 1-3: {cause})"


@pytest.mark.parametrize("method", [Method.VEMD, Method.SEMD])
def test_a_spot_imf_without_a_futures_partner_fails_every_split(method):
    # futures keeps 2 IMFs: spot IMF3 would take the residue pair's slot,
    # and spot IMF4 lies past the pairs
    spot, fut = gen_coint_pair(SynthSpec(length=400, seed=4, coint=CointSpec()))
    s_set, f_set = decompose(spot.values), decompose(fut.values)
    few = ImfSet(f_set.imfs[:2], f_set.residue, f_set.source_len)
    groups = partition(len(spot), 5)
    for imf_index in (3, 4):
        fn = make_ratio_fn(method, spot, fut, 5, imf_index=imf_index, imfs=(s_set, few), groups=groups)
        for outcome in fn(_mask(5, [(0, 1, 2), (2, 3, 4)])):
            assert isinstance(outcome, DataError) and f"spot IMF{imf_index} has no futures IMF" in str(outcome)


def test_an_emd_method_without_decompositions_is_refused():
    # the CLI always passes them
    spot, fut, s_set, f_set = _legs("cointegrated")
    make_ratio_fn(Method.VEMD, spot, fut, 5, imf_index=1, imfs=(s_set, f_set))
    with pytest.raises(ValueError, match="^EMD methods need decompositions$"):
        make_ratio_fn(Method.VEMD, spot, fut, 5, imf_index=1, imfs=None)


class TestPool:
    def test_observation_count(self):
        vals = np.arange(1.0, 31.0)
        rows = oracle.pool(*design_rows(Method.VEMD, vals, vals, 4), (range(0, 12), range(15, 20), range(22, 25)))
        # segments of length 12, 5, 3: only those longer than h contribute
        assert len(rows) == (12 - 4) + (5 - 4) + 0

    def test_never_crosses_boundary(self):
        vals = np.concatenate([np.full(10, 1.0), np.full(10, 100.0)])
        rows = oracle.pool(*design_rows(Method.VEMD, vals, vals, 1), (range(0, 10), range(11, 20)))
        assert len(rows) == 9 + 8
        assert np.all(rows[:, 1:] == 0.0)  # the 1 -> 100 jump never appears


@lru_cache(maxsize=None)
def _legs(case):
    spot, fut = gen_coint_pair(SynthSpec(length=800, seed=5, coint=CointSpec()))
    s_set = decompose(spot.values)
    if case == "identical on groups 0-2":  # only the split training on them is singular
        vals = np.concatenate([spot.values[:300], fut.values[300:]])
        return spot, PriceSeries(spot.timestamps, vals), s_set, decompose(vals)
    if case == "identical legs":  # ECM's level columns collinear: its fallback and the rank rule
        return spot, PriceSeries(spot.timestamps, spot.values), s_set, s_set
    if case == "constant futures":  # every futures column is constant: each design fails the rank rule
        flat = np.full(len(spot), 100.0)
        zeros = tuple(replace(imf, values=np.zeros(len(spot))) for imf in s_set.imfs)
        return spot, PriceSeries(spot.timestamps, flat), s_set, ImfSet(zeros, flat, len(spot))
    return spot, fut, s_set, decompose(fut.values)


def _groups(spot, scheme):
    if scheme == "short group":  # group 2 is shorter than every footprint at h = 17
        bounds = (0, 160, 320, 326, 480, 640, 800)
        return tuple(range(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
    return calendar_years(spot.timestamps) if scheme == "year" else partition(len(spot), 6)


def _outcome(call):
    try:
        got = call()
    except EmdHedgeError as exc:
        return type(exc).__name__, str(exc)
    return (type(got).__name__, str(got)) if isinstance(got, EmdHedgeError) else got


@pytest.mark.parametrize(
    "case, scheme",
    [
        ("cointegrated", "equal"),
        ("cointegrated", "year"),
        ("cointegrated", "short group"),
        ("identical legs", "equal"),
        ("constant futures", "equal"),
    ],
)
def test_bucketed_ratio_equals_the_estimator_on_each_split(case, scheme, monkeypatch):
    # the oracle's fit on the split's training segments
    spot, fut, s_set, f_set = _legs(case)
    groups = _groups(spot, scheme)
    trains = _trains(len(groups), 1 if scheme == "year" else 2)
    lags = oracle.recorded_lags(monkeypatch)
    for h in (3, 17):
        references = {
            Method.MV: lambda segs: oracle.fit(Method.MV, spot.values, fut.values, h, segs),
            Method.ECM: lambda segs: oracle.fit(Method.ECM, spot.values, fut.values, h, segs),
            Method.EECM: lambda segs: oracle.eecm(spot.values, fut.values, h, segments=segs),
        } | {
            m: lambda segs, m=m: oracle.fit(m, *estimators._legs(m, s_set, f_set, h, 1), h, segs)
            for m in methods.EMD_FAMILY
        }
        for method, estimate in references.items():
            fn = make_ratio_fn(method, spot, fut, h, imf_index=1, imfs=(s_set, f_set), groups=groups)
            for train in trains:
                segs = restrict(spot, [groups[g] for g in train])
                del lags[:]
                got = _outcome(lambda: fn(_mask(len(groups), [train]))[0])
                want = _outcome(lambda: estimate(segs))
                if isinstance(want, tuple):
                    assert got == want, (method, h, train)
                    continue
                assert abs(got - want.slope) <= 1e-12 * abs(want.slope), (method, h, train)
                if method is Method.EECM:
                    assert lags == [want.lags], (h, train)


def test_a_raw_levels_eecm_batch_equals_the_estimator_on_each_split(monkeypatch):
    # ``--levels raw``: the same lags and ratios within 1e-12, the splits fitted as one batch
    spot, fut, _, _ = _legs("cointegrated")
    groups = _groups(spot, "equal")
    splits = _trains(len(groups), 2)
    lags = oracle.recorded_lags(monkeypatch)
    for h in (3, 17):
        got = make_ratio_fn(Method.EECM, spot, fut, h, log_levels=False, groups=groups)(_mask(len(groups), splits))
        assert len(lags) == len(splits)
        for train, ratio, lag in zip(splits, got, lags):
            segs = restrict(spot, [groups[g] for g in train])
            want = oracle.eecm(spot.values, fut.values, h, segments=segs, log_levels=False)
            assert lag == want.lags and abs(ratio - want.slope) <= 1e-12 * abs(want.slope), (h, train)
        del lags[:]


def _long_batch(max_lag: int, method: Method = Method.EECM) -> list:
    """The outcomes of one batch of ``method`` (EECM's lag grid 0..max_lag)
    at horizon 1 on the T=2000 seed-0 synth in 6 equal groups: its 15
    splits at k=2."""
    spot, fut = _long_pair()
    groups = partition(len(spot), 6)
    fn = make_ratio_fn(method, spot, fut, 1, max_lag=max_lag, groups=groups)
    return fn(split_table(6, 2)[1])


@lru_cache(maxsize=None)
def _long_pair():
    return gen_coint_pair(SynthSpec(length=2000, seed=0, coint=CointSpec()))


def test_an_eecm_batch_working_set_grows_with_splits_times_q_squared():
    # at max_lag 80 a stack has q = 2L + 5 = 165 columns; holding every
    # split's whole stack and every m's trailing factors read 32 times
    # splits q^2 floats
    _long_pair()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ratios = _long_batch(80)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(isinstance(r, float) for r in ratios)
    assert peak <= 20 * len(ratios) * 165**2 * 8


def test_an_eecm_design_with_no_row_builds_no_factor():
    # 299 differences, all taken by 1000 lags: a q = 2005 column zero pad
    # alone would be 32 MB, and a QR of no block asks LAPACK for a workspace
    spot, fut = gen_coint_pair(SynthSpec(length=300, seed=0, coint=CointSpec()))
    groups = partition(len(spot), 5)
    fn = make_ratio_fn(Method.EECM, spot, fut, 1, max_lag=1000, groups=groups)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        outcomes = fn(split_table(5, 2)[1])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(outcomes) == 10
    for got in outcomes:
        assert isinstance(got, InsufficientDataError)
        assert str(got) == "no segment long enough for horizon + max_lag"
    assert peak <= 1 << 20


def test_eecm_split_stacks_factor_alike_in_any_chunks(monkeypatch):
    # at max_lag 80 a stack has 165 columns, past the 128 where LAPACK's
    # blocked QR gives other bits for another number of zero rows: every
    # chunk is padded to the batch's widest stack (padded to its own, one
    # split's ratio moved by an ulp); MV's and ECM's stacks (3 and 5
    # columns) take the same chunk rule
    for method in (Method.EECM, Method.MV, Method.ECM):
        monkeypatch.setattr(methods, "_STACK_FLOATS", 1)  # one split per chunk
        chunked = _long_batch(80, method)
        monkeypatch.setattr(methods, "_STACK_FLOATS", 2**40)  # one chunk
        whole = _long_batch(80, method)
        assert all(isinstance(r, float) for r in whole), method
        assert np.array(chunked).tobytes() == np.array(whole).tobytes(), method


# the first 20 of the 56 splits of 8 groups at k=3, and training on groups 0-2 only
TRAINS = _trains(8, 3)[:20] + [(0, 1, 2)]


@lru_cache(maxsize=None)
def _segment_imfs(case) -> dict:
    """The decompositions of every training segment of ``TRAINS``, per case,
    shared by its examples."""
    spot, fut, _, _ = _legs(case)
    groups = partition(len(spot), 8)
    return _segment_sets(spot, fut, _training_segments(groups, TRAINS))


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    case=st.sampled_from(["cointegrated", "identical on groups 0-2", "identical legs", "constant futures"]),
    h=st.sampled_from([3, 17]),
    order=st.permutations(range(21)),
    size=st.integers(1, 21),
    scope=st.sampled_from(["full", "per-segment"]),  # per-segment applies to the EMD methods
)
# ECM's and EECM's singular split in the middle of a full batch, and full
# per-segment batches, whose blocks include the other splits' segments
@example(method=Method.ECM, case="identical on groups 0-2", h=3, order=[*range(10), 20, *range(10, 20)], size=21,
         scope="full")
@example(method=Method.EECM, case="identical on groups 0-2", h=3, order=[*range(10), 20, *range(10, 20)], size=21,
         scope="full")
@example(method=Method.AEMD, case="cointegrated", h=3, order=[*range(21)], size=21, scope="per-segment")
@example(method=Method.VEMD, case="cointegrated", h=17, order=[*range(21)], size=21, scope="per-segment")
def test_a_splits_outcome_does_not_depend_on_its_batch(method, case, h, order, size, scope):
    spot, fut, s_set, f_set = _legs(case)
    groups = partition(len(spot), 8)
    batch = [TRAINS[i] for i in order[:size]]
    imfs = (s_set, f_set) if scope == "full" else _segment_imfs(case)
    fn = make_ratio_fn(method, spot, fut, h, imf_index=1, imfs=imfs, groups=groups)
    for train, got in zip(batch, fn(_mask(8, batch)), strict=True):
        (want,) = fn(_mask(8, [train]))
        if isinstance(want, EmdHedgeError):
            assert (type(got), str(got)) == (type(want), str(want)), train
        else:
            assert abs(got - want) <= 1e-12 * abs(want), train


def test_a_too_short_training_segment_is_left_out_of_its_blocks():
    # T=30 in 5 groups of 6: a one-group training segment is shorter than
    # MIN_SAMPLES, longer ones decompose
    s0, f0 = gen_coint_pair(SynthSpec(length=100, seed=2, coint=CointSpec()))
    spot = PriceSeries(s0.timestamps[:30], s0.values[:30])
    fut = PriceSeries(s0.timestamps[:30], f0.values[:30])
    groups = partition(len(spot), 5)
    trains = _trains(5, 2)
    segments = _training_segments(groups, trains)
    # each distinct segment once, in (first group, last group) order
    distinct = {seg for train in trains for seg in restrict(spot, [groups[g] for g in train])}
    assert segments == sorted(distinct, key=lambda seg: (seg.start, seg.stop))
    imfs = _segment_sets(spot, fut, segments)
    short = [seg for seg in segments if len(seg) < MIN_SAMPLES]
    assert len(short) == 5
    assert all(isinstance(found, InsufficientDataError) for seg in short for found in imfs[seg])
    fns = [
        make_ratio_fn(method, spot, fut, 1, imf_index=1, imfs=imfs, groups=groups)
        for method in (Method.VEMD, Method.SEMD)
    ]
    runs = [fn(_mask(5, trains)) for fn in fns + fns]
    for out in runs:
        by_train = dict(zip(trains, out))
        # groups 1-1 are left out, groups 3-4 still fitted
        assert isinstance(by_train[1, 3, 4], float) and by_train[1, 3, 4] == by_train[0, 3, 4]
        err = by_train[0, 2, 4]
        assert type(err) is InsufficientDataError
        cause = f"need at least {MIN_SAMPLES} samples to decompose"
        assert str(err) == f"no training segment yields rows at horizon 1 (groups 0-0: {cause})"
    # stored errors re-raise with the same class and message on every lookup
    for a, b in zip(runs, runs[2:]):
        assert [(type(o), str(o)) for o in a] == [(type(o), str(o)) for o in b]


def _noisy_groups(series: PriceSeries, groups, noisy, rng) -> PriceSeries:
    """``series`` with the prices of the groups ``noisy`` times exp(N(0, 0.02^2)) noise."""
    values = series.values.copy()
    for g in noisy:
        values[groups[g].start : groups[g].stop] *= np.exp(rng.normal(0.0, 0.02, len(groups[g])))
    return PriceSeries(series.timestamps, values)


# The full-scope EMD methods are left out, and nothing is asserted of them: they
# fit on the whole-series decomposition, which sees the test prices. That is the
# full scope's documented look-ahead (``methods``), and the per-segment scope is
# the one without it.
NO_LOOK_AHEAD = [(m, "full") for m in (Method.MV, Method.ECM, Method.EECM)] + [(m, "per-segment") for m in EMD_FAMILY]


@settings(max_examples=50, deadline=None)
@given(
    length=st.integers(200, 500),
    n_groups=st.integers(3, 6),
    k=st.integers(1, 2),
    h=st.integers(1, 8),
    max_lag=st.integers(0, 3),
    method_scope=st.sampled_from(NO_LOOK_AHEAD),
    seed=st.integers(0, 2**16),
    split=st.integers(0, 14),
)
def test_a_splits_outcome_reads_no_price_of_its_test_groups(length, n_groups, k, h, max_lag, method_scope, seed, split):
    """Noise on a split's test-group prices leaves its outcome, a ratio or an
    error, the same bit for bit."""
    method, scope = method_scope
    spot, fut = gen_coint_pair(SynthSpec(length=length, seed=seed, coint=CointSpec()))
    groups = partition(len(spot), n_groups)
    tests, train = split_table(n_groups, k)
    mask, rng = train[split % len(train), None], np.random.default_rng(seed)
    outcomes = []
    for legs in ((spot, fut), [_noisy_groups(leg, groups, tests[split % len(train)], rng) for leg in (spot, fut)]):
        # per-segment: the decompositions of the split's training segments, as the CLI makes them
        imfs = _segment_sets(*legs, list(training_segments(groups, mask).values())) if scope == "per-segment" else None
        (got,) = make_ratio_fn(method, *legs, h, 1, imfs, max_lag, groups=groups)(mask)
        outcomes.append((type(got).__name__, str(got)) if isinstance(got, EmdHedgeError) else repr(got))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_groups=st.integers(3, 6),
    k=st.integers(2, 3),
    h=st.integers(1, 5),
    noisy=st.integers(0, 5),
)
def test_a_cells_score_reads_only_its_test_groups_returns(seed, n_groups, k, h, noisy):
    """Each (method, split, test group) cell is scored on that group's returns
    alone: with ratios that read no price, noise on one group's prices leaves
    every cell of every other group the same bit for bit, and moves its own."""
    k, noisy = min(k, n_groups - 1), noisy % n_groups
    spot, fut = gen_coint_pair(SynthSpec(length=300, seed=seed, coint=CointSpec()))
    groups = partition(len(spot), n_groups)
    tests, _ = split_table(n_groups, k)
    # two methods, each with a fixed ratio per split
    fns = {label: lambda train, b=b: np.linspace(b, b + 0.5, len(train)).tolist() for label, b in (("a", 0), ("b", 1))}
    noise = np.random.default_rng(seed)
    reduce_rows = cpcv._reduce_rows
    runs = []
    for legs in ((spot, fut), [_noisy_groups(leg, groups, [noisy], noise) for leg in (spot, fut)]):
        seen = []

        def spy(values, keep, reduce):
            seen.append(values.copy())
            return reduce_rows(values, keep, reduce)

        with mock.patch.object(cpcv, "_reduce_rows", spy):
            run_cv(*legs, fns, h, groups, k)
        # per criterion, the per-split reduction's input: (method x split, test slot) cells
        runs.append([v for v in seen if v.shape[1] == k])
    assert len(runs[0]) == len(Criterion)
    other = np.tile(tests != noisy, (len(fns), 1))
    for before, after in zip(*runs):
        assert before[other].tobytes() == after[other].tobytes()
        assert (before[~other] != after[~other]).any()
