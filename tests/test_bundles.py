"""The bundle comparison of tools/bundles.py on hand-made bundle directories."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bundles.py"
_spec = importlib.util.spec_from_file_location("bundles", TOOL)
bundles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bundles)

RATIO, CYCLE = 0.9123456789012345, 17.3
WARNINGS = ["cv MV imf4 h=50: all groups excluded at horizon 50", "in-sample AEMD imf1 h=2: no spot IMF"]


def write_bundle(
    root: Path, ratio: float = RATIO, warnings=WARNINGS, stars: str = "**", cycle: float = CYCLE, imfs: int = 3
) -> Path:
    out = root / "out"
    out.mkdir(parents=True)
    (out / "insample_ratios.csv").write_text(f"imf,horizon,MV,AEMD\nimf1,2,{ratio!r},nan\nimf2,6,1.5,0.25\n")
    (out / "determinants.csv").write_text(f"method,n,t_affine,stars\nMV,{imfs},2.5,{stars}\n")
    (out / "decomposition.json").write_text(json.dumps({"spot": {"cycles": [4.0, cycle, 90.5], "n_imfs": imfs}}))
    (out / "manifest.json").write_text(json.dumps({"status": "ok", "warnings": warnings}, indent=2, sort_keys=True))
    return root


def within(tmp_path, tol, ran=subprocess.CompletedProcess([], 0, "", ""), **changed) -> tuple[str, list[str]]:
    """The verdict on a bundle with ``changed`` against the plain one, both written by a run exiting 0."""
    a, b = write_bundle(tmp_path / "a"), write_bundle(tmp_path / "b", **changed)
    return bundles.verdict(subprocess.CompletedProcess([], 0, "", ""), ran, a, b, tol)


def test_a_one_ulp_move_reads_within_1e_12(tmp_path):
    # each float is measured against its CSV column's or JSON array's largest magnitude
    ratio, cycle = float(np.nextafter(RATIO, 1.0)), float(np.nextafter(CYCLE, 0.0))
    kind, found = within(tmp_path, 1e-12, ratio=ratio, cycle=cycle)
    assert kind == "within 1e-12"
    assert found == [
        "first differing file: out/decomposition.json",
        f"out/decomposition.json: largest move {(CYCLE - cycle) / 90.5:.3g} at /spot/cycles/1",
        f"out/insample_ratios.csv: largest move {(ratio - RATIO) / 1.5:.3g} at row 1, column MV",
    ]
    assert within(tmp_path / "bytes", None, ratio=ratio)[0] == "DIFFERS"  # without a tolerance, bytes decide


@pytest.mark.parametrize(
    "changed, found",
    [
        ({"stars": "*"}, "out/determinants.csv: value differs at row 1, column stars: '**' -> '*'"),
        ({"ratio": math.nan}, f"out/insample_ratios.csv: value differs at row 1, column MV: '{RATIO!r}' -> 'nan'"),
        ({"cycle": math.nan}, "out/decomposition.json: value differs at /spot/cycles/1: 17.3 -> nan"),
        ({"imfs": 4}, "out/decomposition.json: value differs at /spot/n_imfs: 3 -> 4"),
    ],
    ids=["flipped star", "CSV number turned NaN", "JSON number turned NaN", "integer count"],
)
def test_a_value_that_is_not_a_float_move_differs(tmp_path, changed, found):
    kind, lines = within(tmp_path, 1e-12, **changed)
    assert kind == "DIFFERS" and found in lines


def test_a_1e_9_relative_move_differs_at_1e_12(tmp_path):
    ratio = RATIO * (1 + 1e-9)
    kind, found = within(tmp_path, 1e-12, ratio=ratio)
    assert kind == "DIFFERS"
    assert found[1:] == [f"out/insample_ratios.csv: largest move {(ratio - RATIO) / 1.5:.3g} at row 1, column MV"]


def test_a_run_with_other_streams_differs_at_any_tolerance(tmp_path):
    kind, found = within(tmp_path, 1.0, ran=subprocess.CompletedProcess([], 0, "", "warning\n"))
    assert kind == "DIFFERS" and found == ["stderr differs: '' -> 'warning\\n'"]


def test_identical_bundles_have_no_difference(tmp_path):
    assert bundles.diff_dirs(write_bundle(tmp_path / "a"), write_bundle(tmp_path / "b")) == []


def test_a_one_ulp_change_in_one_ratio_cell_is_flagged(tmp_path):
    # the move is measured against the column's largest magnitude, 1.5
    moved = float(np.nextafter(RATIO, 1.0))
    found = bundles.diff_dirs(write_bundle(tmp_path / "a"), write_bundle(tmp_path / "b", ratio=moved))
    move = (moved - RATIO) / 1.5
    assert found == [
        "first differing file: out/insample_ratios.csv",
        f"out/insample_ratios.csv: largest move {move:.3g} at row 1, column MV",
    ]


def test_a_reordered_manifest_warning_is_flagged(tmp_path):
    found = bundles.diff_dirs(write_bundle(tmp_path / "a"), write_bundle(tmp_path / "b", warnings=WARNINGS[::-1]))
    assert found == [
        "first differing file: out/manifest.json",
        f"out/manifest.json: value differs at /warnings/0: {WARNINGS[0]!r} -> {WARNINGS[1]!r}",
    ]


def test_a_file_on_one_side_only_is_flagged(tmp_path):
    a, b = write_bundle(tmp_path / "a"), write_bundle(tmp_path / "b")
    (b / "out" / "cv_paths.json").write_text("{}\n")
    assert bundles.diff_dirs(a, b) == ["first differing file: out/cv_paths.json (only under the second tree)"]


@pytest.mark.parametrize(
    "a, b, move",
    [("1.0", "1.00", 0.0), ("nan", "nan", 0.0), ("nan", "0.5", np.inf), ("MV", "ECM", np.inf), ("1.0", "1", np.inf),
     ("1.0", "0.5", 0.5), (3, 3, 0.0), (3, 4, np.inf), (math.nan, math.nan, 0.0), (math.inf, 1e308, np.inf)],
)
def test_cell_moves(a, b, move):
    # a float moves by its distance over its magnitude; an integer count, text, NaN or infinity only by changing
    assert bundles._move(a, b, 0.0) == move


def test_a_run_with_another_exit_code_or_stderr_is_flagged(tmp_path):
    a, b = write_bundle(tmp_path / "a"), write_bundle(tmp_path / "b")
    ok = subprocess.CompletedProcess([], 0, "", "")
    failed = subprocess.CompletedProcess([], 2, "", "data error: x\n")
    assert bundles.diff_runs(ok, ok, a, b) == []
    assert bundles.diff_runs(ok, failed, a, b) == ["exit code 0 -> 2", "stderr differs: '' -> 'data error: x\\n'"]


EQ5, PER_SEGMENT = ["--partition", "equal:5"], ["--decompose-scope", "per-segment"]


# the corpus holds the only fresh-process rerun of each of these runs, on a seed-0 pair of the given length
@pytest.mark.parametrize(
    "command, length, flags",
    [
        ("pipeline", 300, [*EQ5, *PER_SEGMENT]),
        ("analyze", 300, [*EQ5, *PER_SEGMENT]),
        ("analyze", 300, EQ5),
        ("cv", 4000, ["--partition", "year", *PER_SEGMENT]),
        ("pipeline", 2000, ["--partition", "equal:8", "--k", "3"]),
    ],
    ids=["pipeline per-segment", "analyze per-segment", "analyze full", "cv year per-segment", "pipeline equal:8 k=3"],
)
def test_the_corpus_holds_each_run_only_it_reruns(command, length, flags):
    sources = [name for name, synth in bundles.SYNTH_INPUTS.items() if synth == ["--length", str(length), "--seed", "0"]]
    runs = [[command, "--input", f"../../inputs/{name}.csv", "--out", "out", *flags] for name in sources]
    assert any(argv in bundles._corpus().values() for argv in runs)


def test_a_run_exiting_with_another_code_than_its_configs_is_flagged():
    ok, failed = subprocess.CompletedProcess([], 0, "", ""), subprocess.CompletedProcess([], 2, "", "")
    assert bundles.unexpected_exit("pipeline_scoring", ok) == bundles.unexpected_exit("cv_huge", failed) == []
    assert bundles.unexpected_exit("pipeline_scoring", failed) == ["exit code 2, expected 0"]
    assert bundles.unexpected_exit("cv_huge", ok) == ["exit code 0, expected 2"]
    assert set(bundles.NONZERO_EXITS) <= set(bundles._corpus())


def test_each_cli_run_has_the_address_space_ceiling(tmp_path):
    # a stand-in package whose CLI prints its own limit, so nothing is allocated to reach the ceiling
    cli = tmp_path / "src" / "emdhedge" / "cli.py"
    cli.parent.mkdir(parents=True)
    (cli.parent / "__init__.py").write_text("")
    cli.write_text("import resource\nprint(*resource.getrlimit(resource.RLIMIT_AS))\n")
    run = bundles._run(tmp_path / "src", tmp_path / "run", [])
    assert run.stdout.split() == [str(bundles.CHILD_ADDRESS_SPACE)] * 2


def test_the_src_line_counts_of_two_trees(tmp_path):
    # only Python files under src/ and tests/ count, as ``wc -l`` counts their
    # lines (a last line without a newline is not one)
    trees = {
        "ref": {"src/a.py": "x\ny\n", "src/b.txt": "z\n", "tests/t.py": "1\n"},
        "new": {"src/a.py": "x\n", "src/sub/c.py": "1\n2\n3", "tests/t.py": "1\n2\n", "tools/d.py": "1\n"},
    }
    for tree, files in trees.items():
        for name, text in files.items():
            (tmp_path / tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / tree / name).write_text(text)
    found = bundles.line_counts("abc123", tmp_path / "ref", tmp_path / "new")
    assert found == ["src/: 2 lines at abc123, 3 here", "tests/: 1 lines at abc123, 2 here"]
