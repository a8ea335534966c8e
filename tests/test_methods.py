import numpy as np

from emdhedge.cpcv import Scheme, enumerate_splits, partition
from emdhedge.emd import SiftConfig, decompose
from emdhedge.estimators import Method, ols
from emdhedge.methods import make_ratio_fn
from emdhedge.series import restrict
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
            assert fn(segs) == expected
    assert set(cache) == {
        (leg, seg.start, seg.stop) for leg in ("spot", "fut") for seg in segments + segments_2
    }
