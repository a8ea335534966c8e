from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdhedge import methods
from emdhedge.cpcv import Scheme, enumerate_splits, partition
from emdhedge.emd import ImfSet, SiftConfig, decompose
from emdhedge.errors import EmdHedgeError
from emdhedge.estimators import (
    Method,
    aemd_ratio,
    ecm_ratio,
    eecm_ratio,
    mv_ratio,
    ols,
    pair_imfs,
    semd_ratio,
    vemd_ratio,
)
from emdhedge.methods import design_rows, make_ratio_fn, pool
from emdhedge.series import Leg, PriceSeries, restrict
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair


def test_per_segment_ratio_is_ols_on_pooled_segment_imfs():
    spot, fut = gen_coint_pair(SynthSpec(length=400, seed=4, coint=CointSpec()))
    cfg = SiftConfig()
    full_s, full_f = decompose(spot.values, cfg), decompose(fut.values, cfg)
    groups = partition(spot, Scheme.EQUAL_COUNT, 5).groups
    _, train = enumerate_splits(5, 2).splits[3]  # test groups (0, 4): one training segment
    segments = restrict(spot, [groups[g] for g in train]).segments
    _, train = enumerate_splits(5, 2).splits[1]  # test groups (0, 2): two training segments
    segments_2 = restrict(spot, [groups[g] for g in train]).segments
    assert len(segments) == 1 and len(segments_2) == 2

    cache: dict = {}
    for segs in (segments, segments_2):
        ys, xs = [], []
        for seg in segs:
            ys.append(decompose(spot.values[seg.start : seg.stop], cfg).imfs[0].values)
            xs.append(decompose(fut.values[seg.start : seg.stop], cfg).imfs[0].values)
        expected = ols(np.concatenate(ys), np.concatenate(xs), intercept=True).slope
        for shared in (cache, None):
            fn = make_ratio_fn(
                Method.SEMD, spot, fut, 5, imf_index=1, spot_set=full_s, fut_set=full_f,
                scope="per-segment", cfg=cfg, decompositions=shared,
            )
            assert fn([segs]) == [expected]
    assert set(cache) == {
        (leg, seg.start, seg.stop) for leg in ("spot", "fut") for seg in segments + segments_2
    }


class TestPool:
    def test_observation_count(self):
        vals = np.arange(1.0, 31.0)
        rows = pool(*design_rows(Method.VEMD, vals, vals, 4), (range(0, 12), range(15, 20), range(22, 25)))
        # segments of length 12, 5, 3: only those longer than h contribute
        assert len(rows) == (12 - 4) + (5 - 4) + 0

    def test_never_crosses_boundary(self):
        vals = np.concatenate([np.full(10, 1.0), np.full(10, 100.0)])
        rows = pool(*design_rows(Method.VEMD, vals, vals, 1), (range(0, 10), range(11, 20)))
        assert len(rows) == 9 + 8
        assert np.all(rows[:, 1:] == 0.0)  # the 1 -> 100 jump never appears


@lru_cache(maxsize=None)
def _legs(case):
    spot, fut = gen_coint_pair(SynthSpec(length=800, seed=5, coint=CointSpec()))
    s_set = decompose(spot.values)
    if case == "identical on groups 0-2":  # only the split training on them is singular
        vals = np.concatenate([spot.values[:300], fut.values[300:]])
        return spot, PriceSeries("f", Leg.FUTURES, spot.timestamps, vals), s_set, decompose(vals)
    if case == "identical legs":  # ECM's level columns collinear: its fallback and the rank rule
        return spot, PriceSeries("f", Leg.FUTURES, spot.timestamps, spot.values), s_set, s_set
    if case == "constant futures":  # every futures column is constant: DegenerateInputError
        flat = np.full(len(spot), 100.0)
        zeros = tuple(replace(imf, values=np.zeros(len(spot))) for imf in s_set.imfs)
        return spot, PriceSeries("f", Leg.FUTURES, spot.timestamps, flat), s_set, ImfSet(zeros, flat, len(spot))
    return spot, fut, s_set, decompose(fut.values)


def _groups(spot, scheme):
    if scheme == "short group":  # group 2 is shorter than every footprint at h = 17
        bounds = (0, 160, 320, 326, 480, 640, 800)
        return tuple(range(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
    return partition(spot, Scheme(scheme), 6).groups


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
    spot, fut, s_set, f_set = _legs(case)
    groups = _groups(spot, scheme)
    splits = enumerate_splits(len(groups), 1 if scheme == "year" else 2).splits
    pair = pair_imfs(s_set, f_set)[0][0]
    lags = []
    select = methods._eecm_select

    def recording(*args):
        best = select(*args)
        lags.extend(zip(*best[:2]))
        return best

    monkeypatch.setattr(methods, "_eecm_select", recording)
    for h in (3, 17):
        estimators = {
            Method.MV: lambda s, f, segs: mv_ratio(s, f, h),
            Method.ECM: lambda s, f, segs: ecm_ratio(s, f, h),
            Method.EECM: lambda s, f, segs: eecm_ratio(s, f, h),
            Method.VEMD: lambda s, f, segs: vemd_ratio(pair, h, segs),
            Method.SEMD: lambda s, f, segs: semd_ratio(pair, h, segs),
            Method.AEMD: lambda s, f, segs: aemd_ratio(s_set, f_set, h, segs),
        }
        for method, estimate in estimators.items():
            fn = make_ratio_fn(
                method, spot, fut, h, imf_index=1, spot_set=s_set, fut_set=f_set, groups=groups
            )
            for _, train in splits:
                s, f = restrict(spot, [groups[g] for g in train]), restrict(fut, [groups[g] for g in train])
                del lags[:]
                got = _outcome(lambda: fn([s.segments])[0])
                want = _outcome(lambda: estimate(s, f, s.segments))
                if isinstance(want, tuple):
                    assert got == want, (method, h, train)
                    continue
                assert abs(got - want.ratio) <= 1e-12 * abs(want.ratio), (method, h, train)
                if method is Method.EECM:
                    assert lags == [want.lags], (h, train)


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    case=st.sampled_from(["cointegrated", "identical on groups 0-2", "identical legs", "constant futures"]),
    h=st.sampled_from([3, 17]),
    order=st.permutations(range(21)),
    size=st.integers(1, 21),
)
# ECM's and EECM's singular split in the middle of a full batch
@example(method=Method.ECM, case="identical on groups 0-2", h=3, order=[*range(10), 20, *range(10, 20)], size=21)
@example(method=Method.EECM, case="identical on groups 0-2", h=3, order=[*range(10), 20, *range(10, 20)], size=21)
def test_a_splits_outcome_does_not_depend_on_its_batch(method, case, h, order, size):
    spot, fut, s_set, f_set = _legs(case)
    groups = partition(spot, Scheme.EQUAL_COUNT, 8).groups
    # the first 20 of the 56 splits at k=3, and training on groups 0-2 only
    segments = [restrict(spot, [groups[g] for g in train]).segments for _, train in enumerate_splits(8, 3).splits[:20]]
    segments.append((range(0, 300),))
    batch = [segments[i] for i in order[:size]]
    fn = make_ratio_fn(method, spot, fut, h, imf_index=1, spot_set=s_set, fut_set=f_set, groups=groups)
    for segs, got in zip(batch, fn(batch), strict=True):
        (want,) = fn([segs])
        if isinstance(want, EmdHedgeError):
            assert (type(got), str(got)) == (type(want), str(want)), segs
        else:
            assert abs(got - want) <= 1e-12 * abs(want), segs
