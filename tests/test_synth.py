import numpy as np
import pytest

from emdhedge.emd import decompose
from emdhedge.errors import DataError
from emdhedge.estimators import Method
from emdhedge.synth import (
    CointSpec,
    SynthSpec,
    _ndtri,
    _normals,
    _uniforms,
    gen_coint_pair,
    gen_tones,
)
import oracle
from oracle import whole


class TestGenTones:
    def test_deterministic(self):
        spec = SynthSpec(length=500, seed=42, tones=((20, 1.0),), noise_sigma=0.2)
        a = gen_tones(spec)
        b = gen_tones(spec)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_noise(self):
        base = dict(length=500, tones=((20, 1.0),), noise_sigma=0.2)
        a = gen_tones(SynthSpec(seed=1, **base))
        b = gen_tones(SynthSpec(seed=2, **base))
        assert not np.array_equal(a.values, b.values)

    def test_strictly_positive_levels(self):
        s = gen_tones(SynthSpec(length=300, tones=((15, 5.0),), trend_slope=-0.05))
        assert np.all(s.values > 0)

    def test_tone_recoverable_by_decomposition(self):
        s = gen_tones(SynthSpec(length=800, tones=((25, 1.0),)))
        imfs = decompose(s.values).imfs
        assert imfs[0].cycle == pytest.approx(25.0, rel=0.05)

    def test_short_period_rejected(self):
        with pytest.raises(DataError):
            SynthSpec(length=300, tones=((3, 1.0),))


class TestGenCointPair:
    def test_deterministic(self):
        spec = SynthSpec(length=600, seed=9, coint=CointSpec())
        s1, f1 = gen_coint_pair(spec)
        s2, f2 = gen_coint_pair(spec)
        assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(f1.values, f2.values)

    def test_requires_coint_params(self):
        with pytest.raises(DataError):
            gen_coint_pair(SynthSpec(length=200))

    def test_basis_autocorrelation_matches_phi(self):
        phi = 0.8
        spec = SynthSpec(length=5000, seed=3, coint=CointSpec(basis_phi=phi))
        spot, fut = gen_coint_pair(spec)
        c = spec.coint
        u = np.log(spot.values) - c.intercept - c.long_run_slope * np.log(fut.values)
        u = u - u.mean()
        rho1 = float(u[1:] @ u[:-1] / (u @ u))
        assert rho1 == pytest.approx(phi, abs=0.05)

    def test_basis_stationary_sd(self):
        spec = SynthSpec(length=20_000, seed=8, coint=CointSpec())
        spot, fut = gen_coint_pair(spec)
        c = spec.coint
        u = np.log(spot.values) - c.intercept - c.long_run_slope * np.log(fut.values)
        target = c.basis_sigma / np.sqrt(1 - c.basis_phi**2)
        assert np.std(u) == pytest.approx(target, rel=0.1)

    def test_exact_affine_when_basis_off(self):
        # phi = 0, sigma = 0 makes log S an exact affine map of log F, so the
        # minimum-variance regression is deterministic: slope b, R^2 = 1
        spec = SynthSpec(
            length=400, seed=5, coint=CointSpec(basis_phi=0.0, basis_sigma=0.0)
        )
        spot, fut = gen_coint_pair(spec)
        assert whole(Method.MV, spot, fut, 1) == pytest.approx(0.9, abs=1e-10)
        assert oracle.fit(Method.MV, spot.values, fut.values, 1).r_squared == pytest.approx(1.0, abs=1e-10)

    def test_unstable_basis_rejected(self):
        with pytest.raises(DataError):
            CointSpec(basis_phi=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("walk_sigma", -0.01),
            ("walk_sigma", float("nan")),
            ("basis_sigma", -1e-300),
            ("walk_drift", float("inf")),
            ("intercept", float("nan")),
            ("long_run_slope", -float("inf")),
            ("start_price", 0.0),
            ("start_price", float("inf")),
            ("start_price", float("nan")),
        ],
    )
    def test_an_unusable_parameter_is_rejected_by_name(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be finite"):
            CointSpec(**{field: value})

    def test_daily_timestamps_aligned(self):
        spot, fut = gen_coint_pair(SynthSpec(length=150, seed=1, coint=CointSpec()))
        assert np.array_equal(spot.timestamps, fut.timestamps)
        deltas = np.diff(spot.timestamps).astype(int)
        assert np.all(deltas == 1)


def _numpy_uniforms(seed: int, n: int) -> np.ndarray:
    """numpy's own Philox stream, the oracle of the port (tests only)."""
    return np.random.Generator(np.random.Philox(seed)).random(n)


# 2^32 - 1 and 2^32 straddle the one- to two-word seed split; 2^128 + 7 and
# 2^200 + 99 have words past the fourth, mixed into the pool afterwards
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 7, 2**200 + 99)


class TestUniforms:
    """The Philox4x64-10 and SeedSequence port against numpy.random."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_bit_identical_on_edge_seeds(self, seed):
        for n in (*range(13), 499, 1000, 1001, 4001):
            assert _uniforms(seed, n).tobytes() == _numpy_uniforms(seed, n).tobytes()

    def test_bit_identical_on_random_63_bit_seeds(self):
        rng = np.random.default_rng(26)
        seeds = rng.integers(0, 2**63, 200, dtype=np.uint64).tolist()
        counts = rng.integers(0, 4002, 200).tolist()
        for seed, n in zip(seeds, counts):
            assert _uniforms(seed, n).tobytes() == _numpy_uniforms(seed, n).tobytes()

    def test_bit_identical_at_every_draw_count(self):
        for n in range(4002):
            assert _uniforms(2003, n).tobytes() == _numpy_uniforms(2003, n).tobytes()

    @pytest.mark.parametrize("n", [100, 250, 4000])
    def test_one_draw_continues_as_three(self, n):
        # numpy's buffered stream: n - 1, n - 1 and 1 draws in a row are the
        # 2n - 1 draws gen_coint_pair takes in one call
        rng = np.random.Generator(np.random.Philox(11))
        three = np.concatenate([rng.random(n - 1), rng.random(n - 1), rng.random(1)])
        assert _uniforms(11, 2 * n - 1).tobytes() == three.tobytes()


class TestNormals:
    """The numpy inverse normal CDF against scipy's ``ndtri`` (the oracle only)."""

    def test_bit_identical_to_ndtri_on_philox_uniforms_and_clip_endpoints(self):
        from scipy.special import ndtri

        got = _normals(_uniforms(2024, 1_000_000))
        u = _numpy_uniforms(2024, 1_000_000)
        expected = ndtri(np.clip(u, 1e-15, 1.0 - 1e-16))
        assert got.tobytes() == expected.tobytes()
        ends = np.array([1e-15, 1.0 - 1e-16])  # the clip bounds
        assert _ndtri(ends).tobytes() == ndtri(ends).tobytes()

    def test_bit_identical_across_every_branch(self):
        from scipy.special import ndtri

        e2 = 0.13533528323661269189  # exp(-2), where the branches meet
        edges = np.array([e2, 1 - e2])
        y = np.concatenate(
            [
                10.0 ** -np.linspace(0.9, 300.0, 20_000),  # lower tail, both z ranges
                1.0 - 10.0 ** -np.linspace(0.9, 15.9, 20_000),  # upper tail
                np.linspace(0.14, 0.86, 20_000),  # centre
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
            ]
        )
        assert _ndtri(y).tobytes() == ndtri(y).tobytes()

    def test_empty_draw(self):
        assert _normals(_uniforms(0, 0)).shape == (0,)
