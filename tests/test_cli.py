import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emdhedge
from emdhedge import cli, cpcv, estimators
from emdhedge.cli import (
    RunConfig,
    UsageError,
    main,
    parse_config,
    run_pipeline,
)
from emdhedge.cpcv import calendar_years, partition, split_table
from emdhedge.emd import Imf, ImfSet, decompose
from emdhedge.errors import DataError, InsufficientDataError, SingularDesignError
from emdhedge.estimators import Method
from emdhedge.series import load_csv, log_returns, restrict


def ns(**kwargs):
    return argparse.Namespace(**kwargs)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(ns())
        assert cfg.k == 2
        assert cfg.alpha == 0.05
        assert cfg.partition == "equal:10"
        assert cfg.horizons == "auto"
        assert cfg.decompose_scope == "full"

    def test_flags_override_defaults(self):
        cfg = parse_config(ns(k="3", alpha="0.01", methods="MV,VEMD"))
        assert cfg.k == 3
        assert cfg.alpha == 0.01
        assert [m.value for m in cfg.method_list()] == ["MV", "VEMD"]

    def test_config_file_then_flag_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# a comment-only line, then a blank one\n\nk = 4  # test groups\nalpha = 0.1\n")
        cfg = parse_config(ns(config=str(f), alpha="0.02"))
        assert cfg.k == 4  # from file
        assert cfg.alpha == 0.02  # flag wins

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("kk = 4\n")
        with pytest.raises(UsageError, match="unknown key"):
            parse_config(ns(config=str(f)))

    def test_a_utf8_bom_config_file_is_read(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_bytes(b"\xef\xbb\xbfmethods = MV\nk = 3\n")
        cfg = parse_config(ns(config=str(f)))
        assert (cfg.methods, cfg.k) == ("MV", 3)

    def test_bad_line_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("just words\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config(ns(config=str(f)))

    def test_k_must_be_positive(self):
        with pytest.raises(UsageError):
            parse_config(ns(k="0"))

    def test_alpha_range(self):
        with pytest.raises(UsageError):
            parse_config(ns(alpha="0.9"))

    def test_bad_horizon_token(self):
        with pytest.raises(UsageError):
            parse_config(ns(horizons="5,zero"))

    def test_unknown_method(self):
        with pytest.raises(UsageError, match="GARCH"):
            parse_config(ns(methods="MV,GARCH"))

    def test_a_config_built_in_code_is_checked(self):
        with pytest.raises(UsageError, match="levels"):
            RunConfig(levels="lg", methods="EECM")


# a valid (text, coerced value) for every RunConfig field
_FIELD_VALUES = {
    "input": ("pair.csv", "pair.csv"),
    "out": ("report", "report"),
    "date_col": ("day", "day"),
    "spot_col": ("s", "s"),
    "futures_col": ("f", "f"),
    "partition": ("equal:6", "equal:6"),
    "k": ("3", 3),
    "horizons": ("2,5", "2,5"),
    "horizon_cap": ("30", 30),
    "methods": ("MV,SEMD", "MV,SEMD"),
    "alpha": ("0.1", 0.1),
    "envelope_tolerance": ("0.2", 0.2),
    "max_sifts": ("20", 20),
    "max_imfs": ("8", 8),
    "mirror": ("3", 3),
    "max_lag": ("4", 4),
    "decompose_scope": ("per-segment", "per-segment"),
    "min_obs": ("30", 30),
    "levels": ("raw", "raw"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_config_field_is_a_flag_and_a_config_key(name, tmp_path):
    text, value = _FIELD_VALUES[name]
    from_flag = parse_config(cli._parser().parse_args(["pipeline", "--" + name.replace("_", "-"), text]))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n")
    from_file = parse_config(ns(config=str(cfg_file)))
    for cfg in (from_flag, from_file):
        got = getattr(cfg, name)
        assert (got, type(got)) == (value, type(value))


def test_seed_is_a_synth_flag_only(pair_csv, tmp_path, capsys):
    argv = ["pipeline", "--input", str(pair_csv), "--out", str(tmp_path / "a")]
    assert main(argv + ["--seed", "1"]) == 1
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 1\n")
    argv = ["pipeline", "--input", str(pair_csv), "--out", str(tmp_path / "b"), "--config", str(cfg_file)]
    assert main(argv) == 1
    assert "unknown key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


class TestSynthCommand:
    def test_coint_csv_round_trips(self, tmp_path):
        out = tmp_path / "pair.csv"
        rc = main(["synth", "--out", str(out), "--length", "300", "--seed", "7"])
        assert rc == 0
        spot, fut, dropped = load_csv(out)
        assert len(spot) == len(fut) == 300
        assert dropped == 0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--out", str(a), "--length", "200", "--seed", "3"])
        main(["synth", "--out", str(b), "--length", "200", "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_tones_mode(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(
            ["synth", "--out", str(out), "--length", "400", "--mode", "tones", "--tones", "20:1.0,90:0.5"]
        )
        assert rc == 0
        spot, fut, _ = load_csv(out)
        assert np.array_equal(spot.values, fut.values)


    @pytest.mark.parametrize(
        "flags", [["--length", "abc"], ["--seed", "x"], ["--mode", "tones", "--tones", "12"], ["--noise", "y"]]
    )
    def test_a_bad_flag_value_is_a_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        assert main(["synth", "--out", str(out), *flags]) == 1
        assert f"usage error: argument {flags[-2]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [[], ["--noise", "0"], ["--noise", "-1"], ["--trend", "0.01"], ["--tones", "20:0,90:0"]]
    )
    def test_a_tones_series_without_a_nonzero_tone_or_noise_is_a_usage_error(self, flags, tmp_path, capsys):
        # such a series has no IMF, so every pipeline command would refuse it
        out = tmp_path / "t.csv"
        assert main(["synth", "--out", str(out), "--length", "300", "--mode", "tones", *flags]) == 1
        err = "--mode tones needs a nonzero tone or a positive --noise: the series would have no IMF"
        assert capsys.readouterr().err == f"usage error: {err}\n"
        assert not out.exists()

    def test_a_negative_seed_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "data error: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "tones", "--tones", "20:1", "--noise", "nan"], "noise_sigma must be finite and >= 0 (got nan)"),
            (["--mode", "tones", "--tones", "20:1", "--noise", "-1"], "noise_sigma must be finite and >= 0 (got -1.0)"),
            (["--mode", "tones", "--tones", "20:1", "--trend", "inf"], "trend_slope must be finite (got inf)"),
            (["--mode", "tones", "--tones", "20:inf"], "tone amplitudes must be finite (got inf)"),
            (["--mode", "tones", "--tones", "nan:1"], "tone periods must be >= 4 samples"),
            (["--basis-sigma", "-1"], "basis_sigma must be finite and >= 0 (got -1.0)"),
            (["--basis-sigma", "inf"], "basis_sigma must be finite and >= 0 (got inf)"),
            (["--b", "nan"], "long_run_slope must be finite (got nan)"),
            (["--length", "99"], "length must be >= 100"),
            # a spot leg near 1e200, and tones near 1e200: prices outside the range every leg is held to
            (["--length", "300", "--b", "100"], "price values must be in [2^-511, 2^511)"),
            (["--mode", "tones", "--tones", "20:1e200"], "price values must be in [2^-511, 2^511)"),
        ],
    )
    def test_an_unusable_shape_parameter_is_a_data_error_naming_it(self, flags, message, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        assert main(["synth", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trend", "inf", "--noise", "nan", "--tones", "20:1"], "--tones is a --mode tones flag"),
            (["--noise", "0"], "--noise is a --mode tones flag"),
            (["--mode", "tones", "--tones", "20:1", "--b", "nan", "--basis-sigma", "-1"], "--b is a --mode coint flag"),
            (["--mode", "tones", "--basis-sigma", "0.005"], "--basis-sigma is a --mode coint flag"),
        ],
    )
    def test_a_flag_of_the_other_mode_is_a_usage_error_naming_it(self, flags, message, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        assert main(["synth", "--out", str(out), *flags]) == 1
        mode = "tones" if "tones" in flags else "coint"
        assert capsys.readouterr().err == f"usage error: {message}, not a --mode {mode} one\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, defaults",
        [
            (["--mode", "coint"], ["--b", "0.9", "--phi", "0.8", "--basis-sigma", "0.005"]),
            (["--mode", "tones", "--tones", "20:1"], ["--trend", "0", "--noise", "0"]),
        ],
    )
    def test_an_unset_mode_flag_takes_its_spec_default(self, mode, defaults, tmp_path):
        plain, explicit = tmp_path / "plain.csv", tmp_path / "explicit.csv"
        assert main(["synth", "--out", str(plain), "--length", "200", *mode]) == 0
        assert main(["synth", "--out", str(explicit), "--length", "200", *mode, *defaults]) == 0
        assert plain.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("target", ["directory", "below a file"])
    def test_an_unwritable_out_is_a_usage_error(self, target, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = tmp_path if target == "directory" else blocker / "pair.csv"
        assert main(["synth", "--out", str(out), "--length", "200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {out}")
        if target == "below a file":
            assert err == f"usage error: cannot write {out}: {blocker} is not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


def _assert_a_lone_load_failure(outdir: Path, err: str) -> None:
    """A run whose input file fails to load leaves only a ``failed`` manifest
    naming the ``load`` stage, whose warning is the message on stderr."""
    assert [p.name for p in outdir.iterdir()] == ["manifest.json"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert (manifest["status"], manifest["failed_stage"], manifest["artifacts"]) == ("failed", "load", [])
    assert manifest["dropped_rows"] is None
    message = err.removeprefix("data error: ").removesuffix("\n")
    assert manifest["warnings"] == [f"stage load failed: {message}"]


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["cv", "--input", "x.csv", "--k", "0"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_input_file_is_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["cv", "--input", str(missing), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: input file not found: {missing}\n"
        _assert_a_lone_load_failure(tmp_path / "o", err)

    def test_a_directory_as_input_is_a_data_error(self, tmp_path, capsys):
        outdir = tmp_path / "o"
        assert main(["cv", "--input", str(tmp_path), "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path}: cannot read")
        _assert_a_lone_load_failure(outdir, err)

    @pytest.mark.parametrize("below", [False, True])
    def test_an_out_path_at_or_below_a_file_is_a_usage_error(self, below, pair_csv, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        outdir = blocker / "o" if below else blocker
        assert main(["cv", "--input", str(pair_csv), "--out", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: cannot create out directory {outdir}")
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_an_out_path_at_a_file_is_a_usage_error_before_the_input_is_read(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["cv", "--input", str(tmp_path / "nope.csv"), "--out", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: cannot create out directory {blocker}")
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_an_unexpected_load_exception_exits_3_with_a_failed_manifest(self, pair_csv, tmp_path, monkeypatch, capsys):
        def load_csv(*args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "load_csv", load_csv)
        outdir = tmp_path / "o"
        assert main(["decompose", "--input", str(pair_csv), "--out", str(outdir)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric error: pipeline stage 'load' failed: ValueError: boom (see manifest)\n"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"], manifest["artifacts"]) == ("failed", "load", [])
        assert manifest["warnings"] == ["stage load failed: ValueError: boom"]

    def test_bad_subcommand_is_1(self):
        assert main(["frobnicate"]) == 1

    def test_undecodable_input_is_a_data_error(self, tmp_path, capsys):
        noise = tmp_path / "noise.csv"
        noise.write_bytes(np.random.default_rng(0).integers(0, 256, 3000, dtype=np.uint8).tobytes())
        outdir = tmp_path / "o"
        assert main(["decompose", "--input", str(noise), "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "unreadable CSV" in err
        _assert_a_lone_load_failure(outdir, err)


class TestCommandLineEdges:
    """Flag and ingestion edges: each exits with its documented code and
    message; a usage error writes nothing, a data error leaves a lone
    ``failed`` manifest."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--horizon-cap", "0"], "horizon_cap must be >= 1"),
            (["--methods", ""], "empty method list"),
            (["--methods", " , "], "empty method list"),
            (["--config", "{tmp}/missing.cfg"], "config file not found: {tmp}/missing.cfg"),
            (["--k", "two"], "bad value for 'k': two"),
            (["--alpha", "5%"], "bad value for 'alpha': 5%"),
            (["--horizons", "0"], "bad horizon '0'"),
            (["--partition", "equal:x"], "bad partition spec 'equal:x'"),
            (["--max-imfs", "0"], "sift config counts must be positive"),
        ],
    )
    def test_a_bad_flag_is_a_usage_error_before_anything_is_written(self, flags, message, tmp_path, capsys):
        outdir = tmp_path / "out"
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(["cv", "--input", str(tmp_path / "pair.csv"), "--out", str(outdir), *flags]) == 1
        assert capsys.readouterr().err == f"usage error: {message.format(tmp=tmp_path)}\n"
        assert not outdir.exists()

    def test_no_input_is_a_usage_error(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["hedge", "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == "usage error: --input is required\n"
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("", "empty file"),
            ("date,spot\n2000-01-03,100\n", "missing column 'futures' (have ['date', 'spot'])"),
            ("date,price,futures\n2000-01-03,100,99\n", "missing column 'spot' (have ['date', 'price', 'futures'])"),
        ],
    )
    def test_an_unusable_input_file_is_a_data_error_with_a_failed_load_manifest(self, text, problem, tmp_path, capsys):
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        pair.write_text(text)
        assert main(["decompose", "--input", str(pair), "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {pair}: {problem}\n"
        _assert_a_lone_load_failure(outdir, err)

    def test_a_one_year_input_under_a_year_partition_fails_the_decompose_stage(self, tmp_path, capsys):
        # 300 days from 2000-01-03 end in October 2000; the partition rules
        # bind only a run with a CV stage
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "300"]) == 0
        assert main(["cv", "--input", str(pair), "--out", str(outdir), "--partition", "year"]) == 2
        why = "need at least 2 distinct calendar years"
        assert capsys.readouterr().err == f"data error: pipeline stage 'decompose' failed: {why} (see manifest)\n"
        assert [p.name for p in outdir.iterdir()] == ["manifest.json"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"], manifest["artifacts"]) == ("failed", "decompose", [])
        assert manifest["warnings"] == [f"stage decompose failed: {why}"]
        argv = ["hedge", "--input", str(pair), "--out", str(tmp_path / "hedge"), "--partition", "year"]
        assert main(argv + ["--methods", "MV"]) == 0


class TestEmptyTables:
    def test_header_only_determinant_tables_are_named_with_their_reason(self, tmp_path):
        # T=300 in 5 groups leaves 3 rows with a CV mean, one short of a determinant regression
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "300"]) == 0
        assert main(["pipeline", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        why = "no regression could be fitted: need at least 4 paired observations, got 3"
        assert manifest["empty_tables"] == {"determinants.csv": why, "relative_performance.csv": why}
        for name in manifest["empty_tables"]:
            assert len((outdir / name).read_text().splitlines()) == 1

    def test_a_table_without_a_method_to_fit_is_named(self, tmp_path):
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "300"]) == 0
        argv = ["analyze", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5", "--methods", "ECM"]
        assert main(argv) == 0
        assert json.loads((outdir / "manifest.json").read_text())["empty_tables"] == {
            "determinants.csv": "no MV or EMD-family method selected",
            "relative_performance.csv": "no EMD-family method selected",
        }

    def test_relative_performance_without_mv_fits_nothing_and_is_named(self, tmp_path):
        # the regression is on the EMD VaR relative to MV's, so without MV it has no observation
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "300", "--seed", "0"]) == 0
        argv = ["analyze", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
        assert main(argv + ["--methods", "VEMD,SEMD"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["empty_tables"]["relative_performance.csv"] == "MV not selected"
        assert [w for w in manifest["warnings"] if w.startswith("relative performance")] == []
        assert len((outdir / "relative_performance.csv").read_text().splitlines()) == 1

    def test_a_run_whose_tables_all_have_rows_names_none(self, tmp_path):
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "2000", "--seed", "1"]) == 0
        assert main(["pipeline", "--input", str(pair), "--out", str(outdir), "--methods", "MV,SEMD"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "empty_tables" not in manifest
        assert len((outdir / "determinants.csv").read_text().splitlines()) == 1 + 4

    def test_a_row_without_a_relative_performance_is_named_in_the_warnings(self, tmp_path, monkeypatch):
        pair = tmp_path / "pair.csv"
        assert main(["synth", "--out", str(pair), "--length", "2000", "--seed", "1"]) == 0
        argv = ["pipeline", "--input", str(pair), "--partition", "equal:5", "--methods", "MV,VEMD"]
        argv += ["--horizons", "1,2,3,5,8,13"]

        def run(outdir):
            assert main(argv + ["--out", str(outdir)]) == 0
            with open(outdir / "relative_performance.csv") as fh:
                (row,) = csv.DictReader(fh)
            return int(row["n"]), json.loads((outdir / "manifest.json").read_text())["warnings"]

        n, notes = run(tmp_path / "plain")
        with open(tmp_path / "plain" / "cv_var.csv") as fh:
            mv_at_5 = next(float(r["MV_mean"]) for r in csv.DictReader(fh) if r["horizon"] == "5")
        # MV's VaR CV mean at h=5 reads as zero, so that row has no relative performance
        real = cli.relative_performance
        monkeypatch.setattr(cli, "relative_performance", lambda model, mv: real(model, 0.0 if mv == mv_at_5 else mv))
        assert run(tmp_path / "patched") == (
            n - 1,
            notes + ["relative performance VEMD h=5: MV performance too close to zero"],
        )


def _imf_set(cycles, n=50):
    imfs = tuple(Imf(np.zeros(n), i + 1, c, 1, 1, 1, 1, True) for i, c in enumerate(cycles))
    return ImfSet(imfs=imfs, residue=np.zeros(n), source_len=n)


def test_auto_rows_keep_the_first_imf_of_each_horizon(tmp_path):
    state = cli.PipelineState(RunConfig(horizon_cap=10), tmp_path)
    state.spot_set = _imf_set([1.2, 1.4, 2.6, 3.4, 12.0])
    assert cli._select_rows(state) == [(1, 1), (3, 3)]
    assert state.warnings == [
        "imf2 dropped: horizon 1 is already imf1's",
        "imf4 dropped: horizon 3 is already imf3's",
    ]


def test_cli_import_leaves_scipy_stats_and_interpolate_unloaded():
    code = (
        "import sys, emdhedge.cli; "
        "print([m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(emdhedge.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


_NO_SCIPY_RUN = """
import importlib.abc, sys

class Refuse(importlib.abc.MetaPathFinder):
    # scipy, numpy.random with the secrets (hashlib, OpenSSL) it loads, and
    # numpy.ma, which np.quantile and np.unique load on their first call
    def find_spec(self, name, path=None, target=None):
        parts = name.split(".")
        if parts[0] == "scipy" or parts[:2] in (["numpy", "random"], ["numpy", "ma"]) or name == "secrets":
            raise ImportError(f"import refused: {name}")
        return None

sys.meta_path.insert(0, Refuse())
from emdhedge.analysis import significance_stars
from emdhedge.cli import main

pair, out = sys.argv[1], sys.argv[2]
rcs = [
    main(["synth", "--out", pair, "--length", "300", "--seed", "4"]),
    main(["pipeline", "--input", pair, "--out", out, "--partition", "equal:5"]),
]
decimal_after_runs = "decimal" in sys.modules
# a short pipeline has too few rows for the determinant regressions, so the
# p-values are exercised directly, one of them at a near-tie (dof 5, p ~ 0.10),
# the one that loads decimal for its exact recomputation
stars = [significance_stars(t, 5) for t in (0.5, 2.015048373333024, 4.5)]
print(rcs, stars, sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.random")))
print(decimal_after_runs, "decimal" in sys.modules)
"""


def test_synth_and_pipeline_run_with_scipy_imports_refused(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(emdhedge.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path / "pair.csv"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.splitlines() == ["[0, 0] ['', '', '***'] []", "False True"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "determinants.csv" in manifest["artifacts"]


@pytest.fixture(scope="module")
def pair_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "pair.csv"
    main(["synth", "--out", str(out), "--length", "900", "--seed", "11"])
    return out


class TestPipeline:
    def test_decompose_writes_artifacts(self, pair_csv, tmp_path):
        outdir = tmp_path / "out"
        rc = main(["decompose", "--input", str(pair_csv), "--out", str(outdir)])
        assert rc == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        for name in ("decomposition_spot.csv", "decomposition_futures.csv", "cycles.csv"):
            assert name in manifest["artifacts"]
            assert (outdir / name).exists()

    def test_decomposition_csv_has_write_csv_bytes_for_special_values(
        self, pair_csv, tmp_path, monkeypatch
    ):
        spot, _, _ = load_csv(pair_csv)
        n = len(spot)
        special = np.resize([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -2.5e17, 1 / 3], n)
        imf = Imf(special, 1, 4.0, 2, 2, 3, 1, True)
        fake = ImfSet(imfs=(imf, imf), residue=special[::-1].copy(), source_len=n)
        monkeypatch.setattr(cli, "decompose_all", lambda xs, cfg: [fake] * len(xs))
        outdir = tmp_path / "out"
        rc = main(["decompose", "--input", str(pair_csv), "--out", str(outdir), "--horizons", "5"])
        assert rc == 0
        cells = [repr(float(v)) for v in special]
        lines = [f"{t},{cells[t]},{cells[t]},{cells[n - 1 - t]}\n" for t in range(n)]
        assert (outdir / "decomposition_spot.csv").read_bytes() == ("t,imf1,imf2,residue\n" + "".join(lines)).encode()

    @pytest.mark.parametrize(
        "n_spot, n_fut, unpaired",
        [(3, 1, ["spot IMF2", "spot IMF3"]), (1, 3, ["futures IMF2", "futures IMF3"]), (2, 2, []), (3, 2, ["spot IMF3"])],
    )
    def test_the_surplus_warnings_name_exactly_the_unpaired_imfs(
        self, n_spot, n_fut, unpaired, pair_csv, tmp_path, monkeypatch
    ):
        n = len(load_csv(pair_csv)[0])
        legs = [_imf_set([2.0, 5.0, 9.0][:k], n) for k in (n_spot, n_fut)]
        monkeypatch.setattr(cli, "decompose_all", lambda xs, cfg: legs)
        outdir = tmp_path / "out"
        assert main(["decompose", "--input", str(pair_csv), "--out", str(outdir)]) == 0
        warnings = json.loads((outdir / "manifest.json").read_text())["warnings"]
        surplus = [w for w in warnings if w.startswith("unmatched")]
        assert surplus == [f"unmatched {imf} excluded from pairing" for imf in unpaired]
        assert len(surplus) == abs(n_spot - n_fut)

    def test_a_missing_cycle_is_an_empty_cell(self, tmp_path):
        # on this input the futures leg has one IMF more than the spot leg
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "100", "--seed", "3"])
        outdir = run_pipeline(RunConfig(input=str(pair), out=str(tmp_path / "out")), ("decompose", "preliminary"))
        legs = json.loads((outdir / "decomposition.json").read_text())
        cycles = {leg: [repr(c) for c in d["cycles"]] for leg, d in legs.items()}
        assert (len(cycles["spot"]), len(cycles["futures"])) == (2, 3)
        assert (outdir / "cycles.csv").read_text().splitlines() == [
            "leg,imf1,imf2,imf3",
            "spot," + ",".join(cycles["spot"]) + ",",
            "futures," + ",".join(cycles["futures"]),
        ]
        lines = (outdir / "matching_degree.csv").read_text().splitlines()
        assert [line.split(",")[3:] for line in lines[1:]] == [
            [cycles["spot"][0], cycles["futures"][0]],
            [cycles["spot"][1], cycles["futures"][1]],
            ["", ""],
        ]
        assert lines[-1].startswith("residue,") and lines[-1].endswith(",,")

    def test_hedge_emits_insample_tables(self, pair_csv, tmp_path):
        outdir = tmp_path / "out"
        rc = main(
            [
                "hedge",
                "--input",
                str(pair_csv),
                "--out",
                str(outdir),
                "--methods",
                "MV,VEMD",
                "--horizons",
                "1,5",
            ]
        )
        assert rc == 0
        header = (outdir / "insample_ratios.csv").read_text().splitlines()[0]
        assert header == "imf,horizon,MV,VEMD"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert set(manifest["skipped_methods"]) == {"ECM", "EECM", "SEMD", "AEMD"}

    def test_eecm_ratio_is_the_in_sample_eecm_cell(self, tmp_path):
        # the whole-series call is the fit the in-sample table reports, cell for
        # cell; at max_lag 300 no row is left, and the run warns with its error
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "300", "--seed", "0"])
        spot, fut, _ = load_csv(pair)
        for max_lag in (10, 300):
            outdir = tmp_path / f"max_lag_{max_lag}"
            argv = ["hedge", "--input", str(pair), "--out", str(outdir), "--horizons", "1,5", "--max-lag", str(max_lag)]
            assert main([*argv, "--methods", "MV,EECM"]) == 0
            with open(outdir / "insample_ratios.csv", newline="") as fh:
                cells = {int(row["horizon"]): row["EECM"] for row in csv.DictReader(fh)}
            warned = json.loads((outdir / "manifest.json").read_text())["warnings"]
            for h in (1, 5):
                if max_lag == 10:
                    assert cells[h] == repr(estimators.eecm_ratio(spot, fut, h, max_lag))
                    continue
                assert cells[h] == "nan"
                with pytest.raises(InsufficientDataError) as raised:
                    estimators.eecm_ratio(spot, fut, h, max_lag)
                assert f"in-sample EECM imf1 h={h}: {raised.value}" in warned

    def test_cv_reruns_byte_identical(self, pair_csv, tmp_path):
        cfg = RunConfig(
            input=str(pair_csv),
            out=str(tmp_path / "out"),
            partition="equal:5",
            methods="MV,VEMD",
            horizons="2",
        )
        outdir = run_pipeline(cfg, stages=("decompose", "cv"))
        first = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        outdir = run_pipeline(cfg, stages=("decompose", "cv"))
        second = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        assert first == second

    def test_a_utf8_bom_csv_writes_the_same_tables(self, pair_csv, tmp_path):
        # as spreadsheet programs write "CSV UTF-8"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + pair_csv.read_bytes())
        bundles = []
        for path in (pair_csv, bom):
            outdir = tmp_path / path.stem
            argv = ["cv", "--input", str(path), "--out", str(outdir), "--partition", "equal:5", "--methods", "MV,VEMD"]
            assert main(argv) == 0
            bundles.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.name != "manifest.json"})
        assert "cv_paths.json" in bundles[0] and bundles[0] == bundles[1]

    def test_per_segment_cv_reruns_byte_identical(self, tmp_path):
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "250", "--seed", "3"]) == 0
        argv = ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
        argv += ["--decompose-scope", "per-segment", "--methods", "VEMD,SEMD,AEMD"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        assert "cv_paths.json" in runs[0] and runs[0] == runs[1]

    def test_unconverged_decompositions_are_warned_about_in_the_manifest(self, tmp_path, capfd):
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "300", "--seed", "3"]) == 0
        argv = ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
        argv += ["--decompose-scope", "per-segment", "--methods", "VEMD,SEMD,AEMD", "--max-sifts", "1"]
        capfd.readouterr()
        assert main(argv) == 0
        assert capfd.readouterr().err == ""
        # every decomposition of the run: both full legs, and each training
        # segment of each leg
        spot, fut, _ = load_csv(pair)
        cfg = RunConfig(max_sifts=1).sift_config()
        groups = partition(len(spot), 5)
        _, train = split_table(5, 2)
        segments = {seg for mask in train for seg in restrict(spot, [groups[g] for g in np.flatnonzero(mask)])}
        ranges = [("prices", range(0, len(spot)))] + [("training segment", seg) for seg in segments]
        expected = set()
        for leg, series in (("spot", spot), ("futures", fut)):
            for what, seg in ranges:
                imfs = decompose(series.values[seg.start : seg.stop], cfg).imfs
                if n := sum(not imf.converged for imf in imfs):
                    expected.add(
                        f"decomposition of {leg} {what} [{seg.start}, {seg.stop}): {n} of {len(imfs)} IMFs"
                        " stopped unconverged at the sift cap"
                    )
        warnings = json.loads((outdir / "manifest.json").read_text())["warnings"]
        assert len(expected) == 2 * len(ranges)  # one sift per IMF: none converges
        assert {w for w in warnings if w.startswith("decomposition of")} == expected
        assert len(warnings) == len(set(warnings))

    def test_reported_cv_stats_have_path_column(self, pair_csv, tmp_path):
        outdir = tmp_path / "out"
        rc = main(
            [
                "cv",
                "--input",
                str(pair_csv),
                "--out",
                str(outdir),
                "--partition",
                "equal:5",
                "--methods",
                "MV",
                "--horizons",
                "1",
            ]
        )
        assert rc == 0
        lines = (outdir / "cv_variance_reduction.csv").read_text().splitlines()
        assert lines[0].startswith("horizon,path,MV_mean,MV_std")
        # equal:5 with k=2 yields 4 performance paths
        assert lines[1].split(",")[1] == "4"
        paths = json.loads((outdir / "cv_paths.json").read_text())
        key = "MV:h1:variance_reduction"
        assert len(paths[key]["per_path_values"]) == 4

    @pytest.mark.parametrize(
        "command, method_list, returns, segments",
        [
            ("cv", "VEMD,SEMD,AEMD", False, True),
            ("analyze", "MV,VEMD", True, True),
            ("pipeline", "MV,SEMD", True, True),
            ("cv", "MV", False, False),  # no EMD method
            ("hedge", "VEMD", False, False),  # no CV stage
        ],
    )
    def test_per_segment_cv_decomposes_each_training_segment_once(
        self, pair_csv, tmp_path, monkeypatch, command, method_list, returns, segments
    ):
        calls = []
        real_decompose_all = cli.decompose_all

        def counting_decompose_all(xs, cfg):
            calls.append([np.array(x) for x in xs])
            return real_decompose_all(xs, cfg)

        monkeypatch.setattr(cli, "decompose_all", counting_decompose_all)
        argv = [command, "--input", str(pair_csv), "--out", str(tmp_path / "out"), "--partition", "equal:5"]
        argv += ["--decompose-scope", "per-segment", "--methods", method_list, "--horizons", "2,5"]
        assert main(argv) == 0
        spot, fut, _ = load_csv(pair_csv)
        groups = partition(len(spot), 5)
        spans = sorted({
            (seg.start, seg.stop)
            for mask in split_table(5, 2)[1]
            for seg in restrict(spot, [groups[g] for g in np.flatnonzero(mask)])
        })
        # one lockstep call of the run: the prices, their 1-day log returns
        # with a preliminary stage, then a spot and a futures piece per
        # distinct training segment, in segment order, shared by every
        # method, horizon and split of the CV stage
        expected = [spot.values, fut.values]
        expected += [log_returns(v, 1) for v in expected] if returns else []
        expected += [leg.values[a:b] for a, b in spans for leg in (spot, fut)] if segments else []
        assert len(spans) == 12 and [len(xs) for xs in calls] == [len(expected)]
        assert all(np.array_equal(got, want) for got, want in zip(calls[0], expected))

    @pytest.mark.parametrize(
        "command, n_series", [("pipeline", 4), ("analyze", 4), ("hedge", 2), ("cv", 2), ("decompose", 2)]
    )
    def test_the_full_scope_decomposes_in_one_lockstep_call(self, pair_csv, tmp_path, monkeypatch, command, n_series):
        calls = []
        real_decompose_all = cli.decompose_all

        def counting_decompose_all(xs, cfg):
            calls.append([np.array(x) for x in xs])
            return real_decompose_all(xs, cfg)

        monkeypatch.setattr(cli, "decompose_all", counting_decompose_all)
        argv = [command, "--input", str(pair_csv), "--out", str(tmp_path / "out"), "--partition", "equal:5"]
        assert main(argv + ["--methods", "MV,VEMD"]) == 0
        # the prices, then (with a preliminary stage) their 1-day log returns
        spot, fut, _ = load_csv(pair_csv)
        prices = [spot.values, fut.values]
        expected = prices + [log_returns(v, 1) for v in prices] if n_series == 4 else prices
        assert [len(xs) for xs in calls] == [n_series]
        assert all(np.array_equal(got, want) for got, want in zip(calls[0], expected))

    def test_every_failed_split_has_a_reason(self, tmp_path):
        # per-segment AEMD at the first auto horizon finds no matching IMF in
        # some training segments, so those splits fail
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "250", "--seed", "3"])
        outdir = tmp_path / "out"
        rc = main(
            ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
            + ["--decompose-scope", "per-segment", "--methods", "VEMD,SEMD,AEMD", "--horizon-cap", "5"]
        )
        assert rc == 0
        paths = json.loads((outdir / "cv_paths.json").read_text())
        counts = {}
        for key, rep in paths.items():
            assert len(rep["failed_reasons"]) == len(rep["failed_splits"])
            for cls, message in rep["failed_reasons"]:
                assert cls.endswith("Error") and message
            if key.endswith(":variance_reduction"):  # one CV run per (method, horizon)
                for cls, _ in rep["failed_reasons"]:
                    counts[cls] = counts.get(cls, 0) + 1
        assert sum(counts.values()) > 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["counters"]["cv_failed_splits"] == counts

    def test_a_cv_run_without_path_statistics_is_warned_about(self, tmp_path):
        # on this input one failed per-segment AEMD split at h=3 voids one of
        # the 4 paths, which leaves too few for path statistics; MV's fill
        # the tables
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "250", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
        argv += ["--decompose-scope", "per-segment", "--methods", "MV,AEMD", "--horizons", "3"]
        assert main(argv) == 0
        with open(outdir / "cv_var.csv", newline="") as fh:
            assert next(csv.DictReader(fh))["AEMD_mean"] == "nan"
        warnings = json.loads((outdir / "manifest.json").read_text())["warnings"]
        assert warnings == [
            "cv AEMD imf1 h=3: no path statistics, fewer than 4 paths left (1 of 4 variance_reduction"
            " paths voided, 1 of 4 var paths voided); failed splits: 1 InsufficientDataError"
        ]

    def test_a_cv_stage_without_any_path_statistics_is_a_data_error(self, tmp_path, capsys):
        # the input above with AEMD alone: no cell of either CV table is filled
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "250", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
        argv += ["--decompose-scope", "per-segment", "--methods", "AEMD", "--horizons", "3"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "stage 'cv' failed: no variance_reduction path statistics for any method and horizon" in err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "cv")
        assert not any(name.startswith("cv_") for name in manifest["artifacts"])
        assert manifest["warnings"][0].startswith("cv AEMD imf1 h=3: no path statistics")

    def test_an_in_sample_stage_without_any_ratio_is_a_data_error(self, tmp_path, capsys):
        # T=101 seed 0: the spot leg has no IMF with cycle <= 1, so AEMD has no ratio at h=1
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "101", "--seed", "0"])
        outdir = tmp_path / "out"
        assert main(["hedge", "--input", str(pair), "--out", str(outdir), "--horizons", "1", "--methods", "AEMD"]) == 2
        err = capsys.readouterr().err
        assert "stage 'insample' failed: no in-sample hedge ratio for any method and horizon" in err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "insample")
        assert not any(p.name.startswith("insample_") for p in outdir.iterdir())
        assert manifest["warnings"][0] == "in-sample AEMD imf1 h=1: no spot IMF with cycle <= horizon 1"

    def test_a_horizon_no_group_can_score_is_warned_about_once_per_method(self, tmp_path):
        # T=300 in 5 groups of 60: the auto rows h=33 and h=75 leave fewer
        # than min_obs = 2h differences in every group
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "300", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:5", "--methods", "MV,SEMD"]
        assert main(argv) == 0
        warnings = json.loads((outdir / "manifest.json").read_text())["warnings"]
        assert warnings == [
            f"cv {m} imf{i} h={h}: all groups excluded at horizon {h}"
            for i, h in ((3, 33), (4, 75))
            for m in ("MV", "SEMD")
        ]
        with open(outdir / "cv_variance_reduction.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["horizon"], r["path"], r["MV_mean"], r["SEMD_mean"]) for r in rows[2:]] == [
            ("33", "0", "nan", "nan"),
            ("75", "0", "nan", "nan"),
        ]

    def test_the_manifest_lists_each_excluded_group_once_in_order(self, tmp_path):
        # T=640 in 6 groups: the first five hold 106 prices, 70 differences
        # at h=36, fewer than min_obs = 72; the last group (110) is kept
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "640", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = ["pipeline", "--input", str(pair), "--out", str(outdir), "--partition", "equal:6", "--horizons", "5,36"]
        assert main(argv) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["exclusions"] == [[36, g, "70 observations at horizon 36 < 72"] for g in range(5)]

    def test_year_partition_with_k_at_least_the_years_is_a_data_error(
        self, pair_csv, tmp_path, capsys
    ):
        spot, _, _ = load_csv(pair_csv)
        n_years = len(calendar_years(spot.timestamps))
        outdir = tmp_path / "out"
        rc = main(
            ["cv", "--input", str(pair_csv), "--out", str(outdir)]
            + ["--partition", "year", "--k", str(n_years)]
        )
        assert rc == 2
        assert "data error" in capsys.readouterr().err
        assert not list(outdir.glob("*.csv"))


class TestFailedStageExitCodes:
    def test_data_error_in_a_stage_exits_2_with_a_failed_manifest(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        rows = "".join(f"2000-01-0{i + 1},{100 + i},{99 + i}\n" for i in range(5))
        short.write_text("date,spot,futures\n" + rows)
        outdir = tmp_path / "out"
        assert main(["decompose", "--input", str(short), "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "stage 'decompose' failed" in err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "decompose")

    @pytest.mark.parametrize("trends", [("spot",), ("futures",), ("spot", "futures")])
    def test_a_leg_with_no_imf_is_named(self, trends, tmp_path, capsys):
        # a linear leg decomposes into its trend alone, so no IMF pairs with the other leg's
        n = 120
        walk = 100 + np.cumsum(np.random.default_rng(5).standard_normal(n))
        spot, fut = (100 + 0.1 * np.arange(n) if leg in trends else walk for leg in ("spot", "futures"))
        dates = np.datetime64("2000-01-03") + np.arange(n)
        pair = tmp_path / "pair.csv"
        pair.write_text("date,spot,futures\n" + "".join(f"{d},{s},{f}\n" for d, s, f in zip(dates, spot, fut)))
        argv = ["hedge", "--input", str(pair), "--out", str(tmp_path / "out"), "--methods", "MV", "--horizons", "1,5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        for leg in ("spot", "futures"):
            assert (f"the {leg} decomposition has no IMF (a trend)" in err) == (leg in trends)

    def test_a_too_short_log_return_leg_fails_the_preliminary_stage(self, tmp_path):
        # 8 prices decompose, but their 7 log returns are too few to decompose
        spot = [100, 103, 99, 104, 98, 105, 97, 106]
        fut = [100, 102.5, 99.5, 103, 98.5, 104, 97.5, 105]
        pair = tmp_path / "pair.csv"
        rows = [f"2020-01-0{i + 1},{s},{f}\n" for i, (s, f) in enumerate(zip(spot, fut))]
        pair.write_text("date,spot,futures\n" + "".join(rows))
        outdir = tmp_path / "out"
        with pytest.raises(DataError, match="stage 'preliminary' failed: need at least 8 samples to decompose"):
            run_pipeline(RunConfig(input=str(pair), out=str(outdir)), ("decompose", "preliminary"))
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "preliminary")
        tables = ["decomposition_spot.csv", "decomposition_futures.csv", "decomposition.json", "cycles.csv"]
        assert manifest["artifacts"] == tables

    def test_numeric_error_in_a_stage_exits_3(self, pair_csv, tmp_path, monkeypatch, capsys):
        def singular(state):
            raise SingularDesignError("singular design")

        monkeypatch.setattr(cli, "_emit_insample", singular)
        outdir = tmp_path / "out"
        assert main(["hedge", "--input", str(pair_csv), "--out", str(outdir)]) == 3
        assert "numeric error" in capsys.readouterr().err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "insample")

    def test_unexpected_exception_exits_3_with_a_failed_manifest_and_no_traceback(
        self, pair_csv, tmp_path, monkeypatch, capsys
    ):
        def broken(state):
            raise KeyError("no such column")

        monkeypatch.setattr(cli, "_emit_insample", broken)
        outdir = tmp_path / "out"
        assert main(["hedge", "--input", str(pair_csv), "--out", str(outdir)]) == 3
        err = capsys.readouterr().err
        assert "numeric error" in err and "KeyError" in err and "Traceback" not in err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "insample")
        assert any("KeyError" in w for w in manifest["warnings"])
        assert "decomposition_spot.csv" in manifest["artifacts"]


class TestFloatingPointPolicy:
    """Prices in [2^-511, 2^511) load; a float overflow, division by zero or
    invalid operation in a stage fails it (exit 3), never a bare warning."""

    @staticmethod
    def _scaled(tmp_path, factor, length=400, seed=0):
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", str(length), "--seed", str(seed)])
        with pair.open(newline="") as fh:
            rows = list(csv.reader(fh))
        scaled = [rows[0]] + [[d, repr(float(s) * factor), repr(float(f) * factor)] for d, s, f in rows[1:]]
        path = tmp_path / "scaled.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(scaled)
        return path

    @pytest.mark.parametrize("factor", [1e160, 1e-300])
    def test_a_price_outside_the_range_is_a_data_error_naming_its_line(self, factor, tmp_path, capsys):
        path = self._scaled(tmp_path, factor)
        outdir = tmp_path / "out"
        assert main(["cv", "--input", str(path), "--out", str(outdir), "--partition", "equal:5"]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path}:2: price outside [2^-511, 2^511)\n"
        _assert_a_lone_load_failure(outdir, err)

    def test_an_overflow_in_a_stage_exits_3_with_a_failed_manifest(self, tmp_path, capfd):
        # scaled by 2^502 every price stays below 2^511, but the sift's squares overflow
        path = self._scaled(tmp_path, 2.0**502)
        outdir = tmp_path / "out"
        assert main(["cv", "--input", str(path), "--out", str(outdir), "--partition", "equal:5"]) == 3
        err = capfd.readouterr().err
        assert err.startswith("numeric error: pipeline stage 'decompose' failed: FloatingPointError")
        assert "Warning" not in err and "Traceback" not in err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"]) == ("failed", "decompose")
        assert "FloatingPointError" in manifest["warnings"][-1]

    def test_a_rank_deficient_matching_degree_names_its_pair(self, tmp_path, capsys):
        # at 1e-14 times the prices the intercept column swamps the rank
        # tolerance of the IMF level regressions
        path = self._scaled(tmp_path, 1e-14, length=300, seed=3)
        outdir = tmp_path / "out"
        assert main(["pipeline", "--input", str(path), "--out", str(outdir), "--partition", "equal:5"]) == 3
        reason = "matching degree of imf1: regressor matrix is rank deficient"
        err = capsys.readouterr().err
        assert err == f"numeric error: pipeline stage 'preliminary' failed: {reason} (see manifest)\n"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["failed_stage"] == "preliminary"
        assert manifest["warnings"][-1] == f"stage preliminary failed: {reason}"

    def test_a_degenerate_split_names_the_rank_rule_at_any_price_unit(self, tmp_path):
        # at 1e-150 times the prices some IMF pairs' futures columns are round-off:
        # each of their fits fails the rank rule, and no other rule names them
        path = self._scaled(tmp_path, 1e-150, length=300, seed=0)
        outdir = tmp_path / "out"
        assert main(["hedge", "--input", str(path), "--out", str(outdir)]) == 0
        warnings = json.loads((outdir / "manifest.json").read_text())["warnings"]
        failed = [w for w in warnings if w.startswith("in-sample ") and "no futures IMF" not in w]
        assert len(failed) == 13
        assert all(w.endswith(": regressor matrix is rank deficient") for w in failed)


class TestBadConfigFailsUpFront:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--envelope-tolerance", "2"],
            ["--max-lag", "-1"],
            ["--partition", "equal:3", "--k", "5"],
            ["--partition", "bogus"],
            ["--horizons", "5,5"],
            ["--partition", "equal:6", "--k", "1"],
            ["--partition", "equal:4"],
            ["--decompose-scope", "per-seg"],
            ["--methods", "MV,MV"],
            ["--min-obs", "0"],
        ],
        ids=[
            "envelope-tolerance",
            "max-lag",
            "k-vs-groups",
            "partition-spec",
            "duplicate-horizons",
            "one-path",
            "three-paths",
            "decompose-scope",
            "duplicate-methods",
            "min-obs",
        ],
    )
    def test_usage_error_before_any_artifact(self, pair_csv, tmp_path, capsys, flags):
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--input", str(pair_csv), "--out", str(outdir)] + flags)
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_an_unreadable_config_file_is_a_usage_error(self, kind, pair_csv, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        if kind == "directory":
            cfg_file.mkdir()
        else:
            cfg_file.write_bytes(b"k = 2\n\xff\xfe\n")
        outdir = tmp_path / "out"
        assert main(["cv", "--input", str(pair_csv), "--out", str(outdir), "--config", str(cfg_file)]) == 1
        assert f"config file {cfg_file}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_levels_from_a_config_file_are_checked(self, pair_csv, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("levels = lg\n")
        outdir = tmp_path / "out"
        argv = ["hedge", "--input", str(pair_csv), "--out", str(outdir), "--methods", "EECM"]
        assert main(argv + ["--config", str(cfg_file)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("command", ["decompose", "hedge"])
    def test_partition_rules_apply_only_to_runs_with_a_cv_stage(self, pair_csv, tmp_path, command):
        # equal:4 with k=2 gives 3 CV paths, too few for CV, which these commands do not run
        outdir = tmp_path / "out"
        argv = [command, "--input", str(pair_csv), "--out", str(outdir), "--partition", "equal:4"]
        assert main(argv + ["--methods", "MV,SEMD"]) == 0
        assert json.loads((outdir / "manifest.json").read_text())["status"] == "ok"

    @staticmethod
    def _assert_a_lone_failed_manifest(outdir: Path) -> None:
        assert [p.name for p in outdir.iterdir()] == ["manifest.json"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"], manifest["failed_stage"], manifest["artifacts"]) == ("failed", "decompose", [])

    def test_year_partition_with_too_few_paths_is_a_data_error_before_any_artifact(
        self, pair_csv, tmp_path, capsys
    ):
        # 900 days span 3 calendar years: k=2 gives C(2, 1) = 2 paths
        outdir = tmp_path / "out"
        assert main(["cv", "--input", str(pair_csv), "--out", str(outdir), "--partition", "year"]) == 2
        assert "2 CV paths" in capsys.readouterr().err
        self._assert_a_lone_failed_manifest(outdir)

    def test_equal_groups_over_the_split_cap_are_a_usage_error_within_a_second(self, pair_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["cv", "--input", str(pair_csv), "--out", str(outdir), "--partition", "equal:50", "--k", "10"])
        assert rc == 1 and time.perf_counter() - start < 1.0
        why = f"N=50 groups with k=10 give {math.comb(50, 10)} CV splits; a run takes at most {cpcv.MAX_SPLITS}"
        assert capsys.readouterr().err == f"usage error: {why}\n"
        assert not outdir.exists()

    def test_calendar_years_over_the_split_cap_are_a_data_error_before_any_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1,500 days from 2000-01-03 span 5 calendar years: k=2 gives C(5, 2) = 10 splits and 4 paths
        pair, outdir = tmp_path / "pair.csv", tmp_path / "out"
        assert main(["synth", "--out", str(pair), "--length", "1500", "--seed", "2"]) == 0
        monkeypatch.setattr(cpcv, "MAX_SPLITS", 9)
        assert main(["cv", "--input", str(pair), "--out", str(outdir), "--partition", "year"]) == 2
        assert "N=5 groups with k=2 give 10 CV splits; a run takes at most 9" in capsys.readouterr().err
        self._assert_a_lone_failed_manifest(outdir)

    def test_unknown_method_is_a_usage_error_before_any_artifact(self, pair_csv, tmp_path, capsys):
        outdir = tmp_path / "out"
        argv = ["pipeline", "--input", str(pair_csv), "--out", str(outdir), "--methods", "MV,GARCH"]
        assert main(argv) == 1
        assert "GARCH" in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_horizon_excluding_every_group_is_a_data_error_before_any_artifact(
        self, tmp_path, capsys
    ):
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "600", "--seed", "3"])
        outdir = tmp_path / "out"
        rc = main(
            ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:6"]
            + ["--horizons", "1,2,200"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error" in err and "horizon 200" in err
        self._assert_a_lone_failed_manifest(outdir)

    @pytest.mark.parametrize("horizon, rc", [(80, 0), (81, 2)])
    def test_horizon_rejection_applies_the_cv_exclusion_rule_at_its_edge(
        self, tmp_path, horizon, rc
    ):
        # equal:6 on T=600 gives groups of 100 observations: at h=80 each has
        # 20 differences, the VaR floor; at h=81 every group is excluded
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "600", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = ["cv", "--input", str(pair), "--out", str(outdir), "--partition", "equal:6"]
        assert main(argv + ["--horizons", str(horizon), "--min-obs", "20", "--methods", "MV"]) == rc
        if rc:
            self._assert_a_lone_failed_manifest(outdir)
        else:
            assert json.loads((outdir / "manifest.json").read_text())["status"] == "ok"

    @pytest.mark.parametrize("command", ["cv", "analyze", "pipeline"])
    def test_auto_rows_that_each_exclude_every_group_are_a_data_error_before_any_table(
        self, tmp_path, capsys, command
    ):
        # T=100 in 5 groups of 20: the auto rows h=4 and h=11 leave fewer than
        # the 20 VaR observations in every group
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "100", "--seed", "3"])
        outdir = tmp_path / "out"
        assert main([command, "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]) == 2
        err = capsys.readouterr().err
        assert "horizons 4, 11 each exclude every partition group (largest group: 20 observations)" in err
        self._assert_a_lone_failed_manifest(outdir)
        # without a CV stage the same rows are served
        assert main(["hedge", "--input", str(pair), "--out", str(tmp_path / "hedge"), "--partition", "equal:5"]) == 0
        # a lone auto row (h=3 in 8 groups of 12 to 16) reads as the one explicit horizon does
        main(["synth", "--out", str(pair), "--length", "100", "--seed", "1"])
        argv = [command, "--input", str(pair), "--partition", "equal:8", "--k", "3"]
        for flags in (["--horizon-cap", "10"], ["--horizons", "3"]):
            capsys.readouterr()
            assert main(argv + ["--out", str(tmp_path / flags[0]), *flags]) == 2
            err = capsys.readouterr().err
            assert "horizon 3 excludes every partition group (largest group: 16 observations)" in err

    @pytest.mark.parametrize("command", ["cv", "hedge", "decompose"])
    def test_no_row_under_the_horizon_cap_is_a_data_error_for_runs_that_fill_tables(self, tmp_path, capsys, command):
        # T=600: every auto horizon is above a cap of 1
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "600", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = [command, "--input", str(pair), "--out", str(outdir), "--partition", "equal:6"]
        rc = main(argv + ["--horizon-cap", "1", "--methods", "MV"])
        manifest = json.loads((outdir / "manifest.json").read_text())
        if command == "decompose":  # no table has a row per horizon
            assert rc == 0 and manifest["status"] == "ok"
            assert "no usable (imf, horizon) rows under the horizon cap" in manifest["warnings"]
            return
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'decompose' failed: no usable (imf, horizon) rows under the horizon cap 1" in err
        self._assert_a_lone_failed_manifest(outdir)

    @pytest.mark.parametrize("horizon, rc", [(299, 0), (300, 2)])
    def test_in_sample_horizon_of_the_series_length_is_a_data_error_before_any_artifact(
        self, tmp_path, capsys, horizon, rc
    ):
        # T=300 gives one in-sample return at h=299 and none at h=300
        pair = tmp_path / "pair.csv"
        main(["synth", "--out", str(pair), "--length", "300", "--seed", "3"])
        outdir = tmp_path / "out"
        argv = ["hedge", "--input", str(pair), "--out", str(outdir), "--methods", "MV"]
        assert main(argv + ["--horizons", f"1,{horizon}"]) == rc
        if rc:
            assert "stage 'decompose' failed: horizon 300 >= series length 300" in capsys.readouterr().err
            self._assert_a_lone_failed_manifest(outdir)
        else:
            assert (outdir / "manifest.json").exists()


def _unexplained_nans(outdir: Path) -> list[str]:
    """The NaN cells of the bundle's CV moments and in-sample tables that have
    no reason: a manifest warning naming the cell's method and horizon, an
    exclusion at its horizon, or failed splits in ``cv_paths.json``."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    paths = json.loads((outdir / "cv_paths.json").read_text()) if "cv_paths.json" in manifest["artifacts"] else {}

    def explained(method: str, h: int, crit: str | None) -> bool:
        named = re.compile(rf"\b{method}\b.*\bh={h}:")
        return (
            any(named.search(w) for w in manifest["warnings"])
            or any(e[0] == h for e in manifest["exclusions"])
            or bool(crit and paths.get(f"{method}:h{h}:{crit}", {}).get("failed_reasons"))
        )

    unexplained = []
    tables = [(n, n[3:-4]) for n in ("cv_variance_reduction.csv", "cv_var.csv")]
    tables += [(n, None) for n in ("insample_ratios.csv", "insample_variance_reduction.csv", "insample_var.csv")]
    for name, crit in tables:
        if name not in manifest["artifacts"]:
            continue
        with open(outdir / name, newline="") as fh:
            for row in csv.DictReader(fh):
                h = int(row["horizon"])
                for col, value in row.items():
                    method = col.rsplit("_", 1)[0] if crit else col
                    if value == "nan" and not explained(method, h, crit):
                        unexplained.append(f"{name} h={h} {col}")
    return unexplained


@pytest.mark.parametrize(
    "command, scope, horizons",
    [
        ("pipeline", "full", "auto"),
        ("pipeline", "per-segment", "auto"),
        ("cv", "per-segment", "2,9"),
        ("cv", "full", "3,16"),
        ("hedge", "full", "2,235"),  # 15 differences at h=235: too few for the VaR quantile
    ],
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_missing_number_has_a_reason(command, scope, horizons, seed):
    with tempfile.TemporaryDirectory() as tmp:
        pair, outdir = Path(tmp) / "pair.csv", Path(tmp) / "out"
        assert main(["synth", "--out", str(pair), "--length", "250", "--seed", str(seed)]) == 0
        argv = [command, "--input", str(pair), "--out", str(outdir), "--partition", "equal:5"]
        argv += ["--decompose-scope", scope, "--horizons", horizons, "--max-lag", "4"]
        assert main(argv) == 0
        assert _unexplained_nans(outdir) == []


def _scale_prices(pair: Path, factor: float) -> bool:
    """Rewrite a date,spot,futures CSV with both prices times ``factor``;
    returns whether a written price lies outside [2^-511, 2^511)."""
    with open(pair, newline="") as fh:
        rows = list(csv.reader(fh))
    prices = [[float(r[1]) * factor, float(r[2]) * factor] for r in rows[1:]]
    with open(pair, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [[r[0], *map(repr, p)] for r, p in zip(rows[1:], prices)])
    return any(not 2.0**-511 <= p < 2.0**511 for pair_prices in prices for p in pair_prices)


def _a_cell_is_finite(table: Path) -> bool:
    """Whether any cell of a CSV table outside its index columns (a CV
    table's horizon and path, a decomposition's t, a regression's n) is a
    finite number."""
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))

    def finite(cell: str) -> bool:
        try:
            return bool(np.isfinite(float(cell)))
        except ValueError:  # a label, a star or an empty cell
            return False

    return any(finite(v) for row in rows for col, v in row.items() if col not in ("horizon", "path", "t", "n"))


@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(100, 400),
    seed=st.integers(0, 10_000),
    groups=st.integers(5, 10),
    k=st.integers(2, 3),
    horizons=st.just("auto") | st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True).map(
        lambda hs: ",".join(map(str, hs))
    ),
    horizon_cap=st.sampled_from([1, 30, 183]),
    methods=st.lists(st.sampled_from([m.value for m in Method]), min_size=1, max_size=6, unique=True).map(",".join),
    scope=st.sampled_from(["full", "per-segment"]),
    command=st.sampled_from(["pipeline", "analyze", "cv", "hedge"]),
    scale=st.just(0) | st.integers(-12, 12) | st.integers(-170, 170),
    # a split cap lowered to fall on either side of the drawn C(N, k), from 10 to 120
    cap=st.none() | st.integers(10, 120),
)
# over the split cap and outside the price range: the usage error wins
@example(length=100, seed=0, groups=6, k=2, horizons="auto", horizon_cap=1, methods="MV", scope="full",
         command="pipeline", scale=152, cap=10)
# 15 returns at h=85, too few for a VaR quantile: the in-sample VaR table is all NaN
@example(length=100, seed=0, groups=5, k=2, horizons="85", horizon_cap=183, methods="MV,SEMD", command="hedge",
         scope="full", scale=0, cap=None)
def test_the_cli_contract_holds_for_drawn_configs(
    length, seed, groups, k, horizons, horizon_cap, methods, scope, command, scale, cap
):
    """Every run exits with a documented code, a run that exits 0 fills a
    cell of each table it writes or names the table in ``empty_tables``,
    warns of nothing and writes nothing to stderr, a price outside
    [2^-511, 2^511) is a data error, a CV run over the split cap is a usage
    error, found before the prices are loaded, and every missing number has
    a reason. The prices are scaled by 10^scale."""
    with tempfile.TemporaryDirectory() as tmp:
        pair, outdir = Path(tmp) / "pair.csv", Path(tmp) / "out"
        assert main(["synth", "--out", str(pair), "--length", str(length), "--seed", str(seed)]) == 0
        outside = _scale_prices(pair, 10.0**scale) if scale else False
        argv = [command, "--input", str(pair), "--out", str(outdir), "--partition", f"equal:{groups}", "--k", str(k)]
        argv += ["--horizons", horizons, "--horizon-cap", str(horizon_cap), "--methods", methods]
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            with mock.patch.object(cpcv, "MAX_SPLITS", cap or cpcv.MAX_SPLITS):
                rc = main(argv + ["--decompose-scope", scope, "--max-lag", "2"])
        assert rc in (0, 1, 2, 3)
        if command != "hedge" and math.comb(groups, k) > (cap or cpcv.MAX_SPLITS):
            assert rc == 1 and "CV splits; a run takes at most" in err.getvalue()
        elif outside:  # a usage error comes before loading
            assert rc == 2
        if rc == 0:
            assert [str(w.message) for w in caught] == [] and err.getvalue() == ""
        if not (outdir / "manifest.json").exists():  # a usage error, before the run began
            assert rc == 1
            return
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert (manifest["status"] == "ok") == (rc == 0)
        if rc == 0:
            empty = manifest.get("empty_tables", {})
            assert "empty_tables" not in manifest or (empty and all(empty.values()))
            for name in (a for a in manifest["artifacts"] if a.endswith(".csv")):
                assert (name in empty) != _a_cell_is_finite(outdir / name), name
                if name in empty:  # header-only
                    assert len((outdir / name).read_text().splitlines()) == 1, name
        assert _unexplained_nans(outdir) == []


def _parse_outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h", "pipeline"],
        *([name, "--help"] for name in ("synth", *cli._STAGES_OF)),
        ["pipeline", "-h", "--max-lag", "3"],
        ["pipeline", "--bogus", "1"],
        ["cv", "--max-lag"],
        ["hedge", "--input"],
        ["synth", "--length", "abc"],
        ["nope", "--input", "x"],
        ["--input", "x", "pipeline"],
        ["-", "pipeline", "--help"],
        ["--", "pipeline", "--help"],
        ["", "cv", "--help"],
        ["--bogus", "analyze", "--help"],
        ["decompose", "--k", "3", "pipeline"],
    ],
)
def test_help_exits_0_and_a_bad_command_line_is_a_usage_error(argv, capsys):
    # help goes to stdout; a usage error prints the usage to stderr, nothing to stdout
    code, out, err = _parse_outcome(argv, capsys)
    assert code in (1, ("exit", 0))
    assert (out, err)[code == 1].startswith("usage: emdhedge") and not (err, out)[code == 1]
