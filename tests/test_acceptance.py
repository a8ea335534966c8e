"""Acceptance suite: one test per numbered criterion, each printing a
PASS line (shown with ``pytest -s`` or on failure) and enforcing its own
wall-clock budget."""

import math
import shutil
import time

import numpy as np
import pytest

from emdhedge.analysis import (
    determinant_regression,
    matching_degree,
    relative_performance,
)
from emdhedge.cli import RunConfig, run_pipeline
from emdhedge.cpcv import path_statistics, path_table, split_table
from emdhedge.emd import SiftConfig, decompose
from emdhedge.estimators import Method, design_rows
from emdhedge.performance import (
    Criterion,
    he_var,
    he_variance,
    moments,
    var_quantile,
)
from emdhedge.series import log_returns
from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair, gen_tones
import oracle
from oracle import is_imf, whole


class _budget:
    def __init__(self, n, seconds, label):
        self.n, self.seconds, self.label = n, seconds, label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.n} took {elapsed:.1f}s"
            print(f"ACCEPTANCE {self.n}: PASS ({elapsed:.2f}s) - {self.label}")
        else:
            print(f"ACCEPTANCE {self.n}: FAIL - {self.label}")
        return False


def test_criterion_01_figure1_fixture():
    with _budget(1, 1.0, "5-group/2-test split and path assignment fixture"):
        tests, train = split_table(5, 2)
        assert len(tests) == 10
        split_of = path_table(train)
        assert len(split_of) == 4
        # published assignment, converted to 0-based (group, split) cells
        expected = {
            1: [(0, 0), (1, 0), (2, 1), (3, 2), (4, 3)],
            2: [(0, 1), (1, 4), (2, 4), (3, 5), (4, 6)],
            3: [(0, 2), (1, 5), (2, 7), (3, 7), (4, 8)],
            4: [(0, 3), (1, 6), (2, 8), (3, 9), (4, 9)],
        }
        for path_id, cells in expected.items():
            assert list(enumerate(split_of[path_id - 1].tolist())) == cells


def test_criterion_02_path_count_law():
    with _budget(2, 5.0, "path count C(N-1,k-1) and path invariants, N <= 12"):
        for N in range(2, 13):
            for k in range(1, N):
                tests, train = split_table(N, k)
                split_of = path_table(train)
                n_paths = len(split_of)
                assert n_paths == math.comb(N - 1, k - 1)
                assert n_paths * N == k * math.comb(N, k)  # (k/N)C(N,k) paths
                # each path holds one cell of every group, each a split testing that group
                assert split_of.shape == (n_paths, N)
                assert (~train[split_of, np.arange(N)]).all()
                seen = {(g, s) for row in split_of.tolist() for g, s in enumerate(row)}
                assert len(seen) == tests.size == math.comb(N, k) * k


def test_criterion_03_emd_reconstruction():
    with _budget(3, 60.0, "exact reconstruction and IMF validity on 200 series"):
        cfg = SiftConfig()
        tone_menu = [((12, 1.0),), ((20, 1.0), (120, 0.7)), ((8, 0.5), (60, 1.0))]
        for seed in range(200):
            spec = SynthSpec(
                length=500 + 10 * (seed % 20),
                seed=seed,
                tones=tone_menu[seed % 3],
                trend_slope=0.002 * (seed % 4),
                noise_sigma=0.05 * (seed % 5),
            )
            x = gen_tones(spec).values
            s = decompose(x, cfg)
            rms = float(np.sqrt(np.mean(x**2)))
            assert np.max(np.abs(x - s.reconstruct())) <= 1e-9 * rms
            for imf in s.imfs:
                ok, _ = is_imf(imf.values, cfg.envelope_tolerance, cfg.boundary_mirror_count)
                assert ok


def test_criterion_04_cycle_recovery():
    with _budget(4, 30.0, "cycle formula recovers tone periods"):
        t = np.arange(4000.0)
        for P in (8, 20, 50, 100):
            s = decompose(np.sin(2 * np.pi * t / P))
            assert abs(s.imfs[0].cycle - P) <= 0.05 * P
        for fast, slow in ((10, 50), (8, 80)):
            x = np.sin(2 * np.pi * t / fast) + np.sin(2 * np.pi * t / slow)
            s = decompose(x)
            assert len(s.imfs) >= 2
            assert abs(s.imfs[0].cycle - fast) <= 0.10 * fast
            assert abs(s.imfs[1].cycle - slow) <= 0.10 * slow
            assert s.imfs[1].cycle > s.imfs[0].cycle


def test_criterion_05_mv_correctness():
    with _budget(5, 10.0, "MV ratio = cov/var, grid-optimal, HE = R^2"):
        spot, fut = gen_coint_pair(SynthSpec(length=1500, seed=100, coint=CointSpec()))
        for h in (1, 5, 20):
            ratio = whole(Method.MV, spot, fut, h)
            ds = log_returns(spot.values, h)
            df = log_returns(fut.values, h)
            cov_slope = np.cov(ds, df, ddof=1)[0, 1] / np.var(df, ddof=1)
            assert abs(ratio - cov_slope) <= 1e-10
            grid = np.linspace(ratio - 0.5, ratio + 0.5, 201)
            variances = [float(np.var(ds - g * df, ddof=1)) for g in grid]
            best = grid[int(np.argmin(variances))]
            assert abs(best - ratio) <= grid[1] - grid[0]
            r_squared = oracle.fit(Method.MV, spot.values, fut.values, h).r_squared
            assert abs(he_variance(ds, ds - ratio * df) - r_squared) <= 1e-8


def test_criterion_06_estimator_nesting():
    with _budget(6, 10.0, "restricted ECM and lag-0 EECM reproduce MV on 50 seeds"):
        for seed in range(50):
            spot, fut = gen_coint_pair(SynthSpec(length=300, seed=seed, coint=CointSpec()))
            mv = whole(Method.MV, spot, fut, 1)
            # restricted ECM: ECM's rows hold MV's, fitted on [1, dF] alone
            ecm, _ = design_rows(Method.ECM, spot.values, fut.values, 1)
            assert np.array_equal(ecm[:, [0, 1, -1]], design_rows(Method.MV, spot.values, fut.values, 1)[0])
            ecm0 = oracle.fit(Method.ECM, spot.values, fut.values, 1, p=2).slope
            eecm0 = oracle.eecm(spot.values, fut.values, 1, max_lag=0, include_u=False).slope
            assert abs(ecm0 - mv) <= 1e-12
            assert abs(eecm0 - mv) <= 1e-12


def test_criterion_07_cointegration_oracle():
    with _budget(7, 120.0, "MV ratio bands on 100 cointegrated seeds"):
        in_band_h1 = 0
        in_band_h50 = 0
        for seed in range(100):
            spec = SynthSpec(length=2000, seed=seed, coint=CointSpec(long_run_slope=0.9, basis_phi=0.8))
            spot, fut = gen_coint_pair(spec)
            r1 = whole(Method.MV, spot, fut, 1)
            r50 = whole(Method.MV, spot, fut, 50)
            in_band_h1 += 0.85 <= r1 <= 0.95
            in_band_h50 += abs(r50 - 0.9) <= 0.05
        assert in_band_h1 >= 95, f"horizon 1: {in_band_h1}/100 in band"
        assert in_band_h50 >= 90, f"horizon 50: {in_band_h50}/100 in band"


def test_criterion_08_performance_criteria():
    with _budget(8, 5.0, "effectiveness examples exact; joint scale invariance"):
        # variance reduction: var 4 vs 1 -> 0.75; perfect hedge; unhedged
        c = math.sqrt(3.0)
        spot4 = c * np.array([-1.0, -1.0, 1.0, 1.0])
        assert he_variance(spot4, spot4 / 2.0) == pytest.approx(0.75, abs=1e-14)
        assert he_variance(spot4, np.zeros(4)) == pytest.approx(1.0)
        assert he_variance(spot4, spot4) == pytest.approx(0.0, abs=1e-14)

        # quantile convention
        assert var_quantile(np.arange(1.0, 101.0), 0.05) == pytest.approx(5.95, abs=1e-12)
        assert var_quantile(np.full(30, 2.5), 0.05) == 2.5
        sym = np.concatenate([-np.arange(1.0, 16.0), np.arange(1.0, 16.0)])
        assert var_quantile(sym, 0.5) == pytest.approx(np.median(sym), abs=1e-14)

        # VaR effectiveness: quantiles -2.0 vs -0.5 -> 0.75 (n=21, alpha=0.05
        # puts the quantile exactly on the 2nd order statistic)
        spot = np.concatenate([[-3.0, -2.0], np.linspace(-1.0, 1.0, 19)])
        port = np.concatenate([[-1.0, -0.5], np.linspace(0.0, 1.0, 19)])
        assert he_var(spot, port, 0.05) == pytest.approx(0.75, abs=1e-12)
        assert he_var(spot, spot, 0.05) == pytest.approx(0.0, abs=1e-14)
        assert he_var(spot, np.zeros(21), 0.05) == pytest.approx(1.0, abs=1e-14)

        # moments closed form and a constant sample
        m = moments(np.array([-1.0, -1.0, 1.0, 1.0]))
        assert (m.mean, m.skew, m.kurt) == (0.0, 0.0, -2.0)
        m = moments(np.full(6, 3.0))
        assert m.std == 0.0

        # joint scale invariance over 100 random rescalings
        rng = np.random.default_rng(77)
        s = rng.normal(0, 0.02, 300)
        p = s - 0.7 * rng.normal(0, 0.02, 300)
        base_vr = he_variance(s, p)
        base_var = he_var(s, p, 0.05)
        for _ in range(100):
            lam = float(rng.uniform(0.01, 100.0))
            assert abs(he_variance(lam * s, lam * p) - base_vr) <= 1e-12
            assert abs(he_var(lam * s, lam * p, 0.05) - base_var) <= 1e-12


def test_criterion_09_path_statistics():
    with _budget(9, 10.0, "path aggregation vs brute force; double counting"):
        rng = np.random.default_rng(55)
        for trial in range(50):
            N = int(rng.integers(3, 9))
            k = int(rng.integers(1, N))
            n_paths = len(path_table(split_table(N, k)[1]))
            # each (path, group) cell: failed, excluded or a score
            r = rng.random((n_paths, N))
            failed, included = r < 0.04, r >= 0.10
            scores = np.where(included, rng.normal(size=(n_paths, N)), np.nan)
            for crit in Criterion:
                ((vals, _, voided),) = path_statistics(scores[None], included[None], failed[None], crit)
                agg = np.mean if crit is Criterion.VARIANCE_REDUCTION else np.min
                expect = []
                for p in range(n_paths):
                    if failed[p].any():
                        continue
                    nums = [v for v, keep in zip(scores[p].tolist(), included[p]) if keep]
                    if nums:
                        expect.append(float(agg(nums)))
                assert list(vals) == pytest.approx(expect)
                assert voided == n_paths - len(expect)

            # double-counting identity with a clean score table
            clean = rng.normal(size=(1, n_paths, N))
            every, none = np.ones(clean.shape, dtype=bool), np.zeros(clean.shape, dtype=bool)
            ((vals, _, _),) = path_statistics(clean, every, none, Criterion.VARIANCE_REDUCTION)
            assert abs(np.mean(vals) - np.mean(clean)) <= 1e-12


def test_criterion_10_pipeline_determinism(tmp_path):
    with _budget(10, 60.0, "full pipeline rerun is byte-identical"):
        csv_path = tmp_path / "pair.csv"
        from emdhedge.cli import main

        assert main(["synth", "--out", str(csv_path), "--length", "800", "--seed", "19"]) == 0
        cfg = RunConfig(
            input=str(csv_path),
            out=str(tmp_path / "bundle"),
            partition="equal:5",
            horizons="2,5",
        )
        outdir = run_pipeline(cfg)
        keep = tmp_path / "first"
        shutil.copytree(outdir, keep)
        shutil.rmtree(outdir)
        outdir = run_pipeline(cfg)
        first = sorted(p.name for p in keep.iterdir())
        second = sorted(p.name for p in outdir.iterdir())
        assert first == second
        for name in first:
            assert (keep / name).read_bytes() == (outdir / name).read_bytes(), name


def test_criterion_11_analysis_identities():
    with _budget(11, 5.0, "matching, relative performance, determinant fits"):
        t = np.arange(1000.0)
        x = np.sin(2 * np.pi * t / 15) + np.sin(2 * np.pi * t / 110) + 3
        s = decompose(x)
        for row in matching_degree(s, s)[:-1]:
            assert abs(row.beta - 1.0) <= 1e-10
            assert abs(row.r_squared - 1.0) <= 1e-10

        assert relative_performance(0.6, 0.5) == pytest.approx(0.2, abs=1e-14)
        assert relative_performance(-0.4, -0.5) == pytest.approx(0.2, abs=1e-14)
        assert relative_performance(0.5, 0.5) == 0.0

        m = np.linspace(0.05, 0.95, 15)
        fit = determinant_regression(m, m)
        assert abs(fit.alpha) <= 1e-10
        assert abs(fit.beta_affine - 1.0) <= 1e-10
        assert abs(fit.r2_affine - 1.0) <= 1e-10
