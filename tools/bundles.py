"""Bundle identity: run a corpus of CLI configs under the source tree of a
git revision and under this checkout's, and compare what they write byte for
byte.

    python tools/bundles.py compare REF [--within TOL]

REF is any git revision of this repository; its ``src/`` and ``tests/`` are
extracted with ``git archive``. The corpus inputs are generated once, by this checkout's
``synth``. Each config then runs under both trees, each run in a fresh
process with one BLAS thread and an address-space ceiling
(``CHILD_ADDRESS_SPACE``), from directories of the same relative path, so
whole manifests (their ``input`` and ``out`` included) compare. A config
whose memory grows without bound thus fails at the ceiling, and is reported
as differing, instead of exhausting the host. A config is
``identical`` when the exit codes, stdout, stderr and every file it wrote
match; otherwise its first difference is printed, with each differing
file's largest move (``largest_move``): a float cell or JSON number's move
against the larger of its own magnitude and the largest of its CSV column
or JSON array (so a value near zero is judged against its column's scale),
with its row and column or JSON pointer, or the first other value that
differs (text and stars, integer counts, NaN and infinities). A config whose run under this checkout's tree
exits with another code than its own (``NONZERO_EXITS``, else 0) is reported
too. In a clean checkout ``compare HEAD`` runs every config of one commit
twice, so it checks that reruns are byte-identical and exit as documented.

``--within TOL`` judges a numerical rewrite, whose floats may move by
round-off: a config that is not identical is ``within TOL`` when its exit
code, stdout, stderr and file set match and no file's largest move exceeds
TOL, so every other value is equal; any other config ``DIFFERS``. The last two lines give the line counts of the Python files under REF's
``src/`` and ``tests/`` and under this checkout's: code moved from ``src/``
into the tests is no reduction, so both numbers are needed.

The three benchmark workloads' configs are built from
``perfbench/worker.py``'s ``WORKLOADS``, on inputs 0-3 of the reference seed
and of hold-out seed 11. Everything runs in a temporary directory,
removed at the end. Exits 0 when every config is identical (or within TOL)
and exits with its own code, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each CLI run's address space; the corpus's largest runs (495 splits, EECM at L=80) peak at 150-190 MB of it
CHILD_ADDRESS_SPACE = 2 * 2**30
sys.path.insert(0, str(ROOT / "perfbench"))
from worker import REFERENCE_SEED, WORKLOADS, input_seeds  # noqa: E402  (perfbench is not a package)

# synth seeds of the workload inputs: inputs 0-3 of the reference seed and of hold-out seed 11
WORKLOAD_SEEDS = [seed for s in (REFERENCE_SEED, 11) for seed in input_seeds(s, 4)]
# the seeded pairs the configs read, by name: synth flags (this checkout's synth)
SYNTH_INPUTS = {
    "pair300": ["--length", "300", "--seed", "0"],
    "long2000": ["--length", "2000", "--seed", "0"],
    "long4000": ["--length", "4000", "--seed", "0"],
    "short100": ["--length", "100", "--seed", "3"],
    "short101": ["--length", "101", "--seed", "0"],
    # identical legs of four tones
    "tones1000": ["--length", "1000", "--mode", "tones", "--tones", "5:0.4,17:0.8,55:1.6,180:3.2", "--noise", "0.02"],
} | {
    f"pair{wl.length}_{seed}": ["--length", str(wl.length), "--seed", str(seed)]
    for wl in WORKLOADS.values()
    for seed in WORKLOAD_SEEDS
}


def _derived_inputs(inputs: Path) -> None:
    """Inputs edited from pair300, whose row i is at file line i + 2: a UTF-8
    byte order mark; prices scaled past 2^511, and by 1e-150, 1e-14 and 1e14; a
    linear spot leg; the loader's faults (a blank or NaT date, a repeated
    date, an unparseable or negative price, a blank line before a fault, and
    undecodable bytes after the rows, with and without a faulty row before
    them); a repeated spot column; a row with a blank price; and ``run.cfg``,
    a whole pipeline run as a config file."""
    text = (inputs / "pair300.csv").read_text()
    (inputs / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    header, *rows = [line.split(",") for line in text.splitlines()]

    def put(i: int, col: int, value: str) -> list[list[str]]:
        """The rows with row i's cell ``col`` set to ``value``."""
        return rows[:i] + [rows[i][:col] + [value] + rows[i][col + 1:]] + rows[i + 1:]

    def scaled(factor: float) -> list[list[str]]:
        """The rows with both prices times ``factor``."""
        return [[r[0], repr(float(r[1]) * factor), repr(float(r[2]) * factor)] for r in rows]

    # past the reader's first buffer (pair300 is ~12 kB), so the rows before it are read and checked first
    undecodable = b"\xff\xfe,1,2\n"
    edits = {  # name -> (header, rows ([] is a blank line), bytes after them)
        "huge": (header, scaled(1e160), b""),
        "scaled_tiny": (header, scaled(1e-150), b""),
        "scaled_down": (header, scaled(1e-14), b""),
        "scaled_up": (header, scaled(1e14), b""),
        "mono": (header, [[r[0], repr(100 + 0.1 * i), r[2]] for i, r in enumerate(rows)], b""),
        "nodate": (header, put(2, 0, ""), b""),
        "natdate": (header, put(4, 0, "NaT"), b""),
        "order": (header, put(5, 0, rows[4][0]), b""),
        "badprice": (header, put(7, 1, "x"), b""),
        "negprice": (header, put(9, 2, "-1"), b""),
        "blankline": (header, [*rows[:3], [], *put(10, 0, "notadate")[3:]], b""),
        "undecodable": (header, rows, undecodable),
        "undecodable_fault": (header, put(3, 2, "0"), undecodable),
        "twospot": (header + ["spot"], [r + [repr(2 * float(r[1]))] for r in rows], b""),
        "blankprice": (header, put(6, 1, ""), b""),
    }
    for name, (head, body, tail) in edits.items():
        (inputs / f"{name}.csv").write_bytes("".join(",".join(r) + "\n" for r in [head, *body]).encode() + tail)
    (inputs / "run.cfg").write_text(
        "# a whole run from the file; paths are relative to the run's directory\n"
        "input = ../../inputs/pair300.csv\nout = out\npartition = equal:5\n"
        "methods = MV,EECM,SEMD,AEMD  # no ECM\nmax_lag = 3\nhorizon_cap = 60\n"
    )


# the derived inputs with a loader fault, on each of which decompose is a data error
LOADER_FAULTS = ("nodate", "natdate", "order", "badprice", "negprice", "blankline", "undecodable", "undecodable_fault")
# the exit code of each corpus config that does not exit 0: the data errors, and the scaled pipelines,
# whose matching-degree regressions fail the rank rule at either scale
NONZERO_EXITS = dict.fromkeys(
    ["synth_out_of_range", "cv_horizon_90", "cv_huge", "hedge_mono", "hedge_whole", "hedge_aemd_short",
     "cv_all_excluded", "cv_no_row", "decompose_missing", *(f"decompose_{source}" for source in LOADER_FAULTS)],
    2,
) | {"pipeline_scaled_down": 3, "pipeline_scaled_up": 3, "cv_too_many_splits": 1}


def _corpus() -> dict[str, list[str]]:
    """Config name -> CLI arguments. Every run writes into its own directory;
    the pipeline subcommands read an input by its path from there and write
    their bundle to ``out``."""
    eq5 = ["--partition", "equal:5"]
    per_seg = ["--decompose-scope", "per-segment"]
    runs = {  # name -> (subcommand, input, flags)
        "pipeline_full": ["pipeline", "pair300", *eq5],
        "pipeline_segment": ["pipeline", "pair300", *eq5, *per_seg],
        "pipeline_k3": ["pipeline", "pair300", "--partition", "equal:6", "--k", "3"],
        # full-scope scoring of all six methods on 8-group paths, uncapped (the full_scoring workload drops EECM)
        "pipeline_scoring": ["pipeline", "long2000", "--partition", "equal:8", "--k", "3"],
        # a large split table: 495 splits and 165 paths for each of the six methods
        "pipeline_many_splits": ["pipeline", "long2000", "--partition", "equal:12", "--k", "4"],
        "pipeline_raw_levels": ["pipeline", "pair300", *eq5, "--levels", "raw"],
        "pipeline_segment_max_sifts_1": ["pipeline", "pair300", *eq5, *per_seg, "--max-sifts", "1"],
        "pipeline_tones": ["pipeline", "tones1000", *eq5],
        "hedge_horizons": ["hedge", "pair300", "--horizons", "1,5,20"],
        "decompose": ["decompose", "pair300"],
        "analyze_full": ["analyze", "pair300", *eq5],
        "analyze_segment": ["analyze", "pair300", *eq5, *per_seg],
        "cv_segment_emd": ["cv", "pair300", *eq5, *per_seg, "--methods", "VEMD,SEMD,AEMD"],
        "cv_bom": ["cv", "bom", *eq5],
        "pipeline_year": ["pipeline", "long4000", "--partition", "year"],
        "cv_year_segment": ["cv", "long4000", "--partition", "year", *per_seg],
        # data errors: exit 2 with a failed manifest
        "cv_horizon_90": ["cv", "pair300", *eq5, "--horizons", "1,90"],
        "cv_huge": ["cv", "huge", *eq5],
        "decompose_missing": ["decompose", "missing"],  # no input is named missing.csv
        "hedge_mono": ["hedge", "mono", "--methods", "MV", "--horizons", "1,5"],
        "hedge_whole": ["hedge", "pair300", "--horizons", "300"],
        "hedge_aemd_short": ["hedge", "short101", "--horizons", "1", "--methods", "AEMD"],
        "cv_all_excluded": ["cv", "short100", *eq5],
        "cv_no_row": ["cv", "pair600_3", "--partition", "equal:6", "--horizon-cap", "1", "--methods", "MV"],
        # all six methods at 1e-150, where every EMD cell that pairs its IMFs fails the rank rule
        "hedge_scaled_tiny": ["hedge", "scaled_tiny"],
        "pipeline_scaled_down": ["pipeline", "scaled_down", *eq5],
        "pipeline_scaled_up": ["pipeline", "scaled_up", *eq5],
        # C(50, 10) splits, over the split cap: a usage error, and no file
        "cv_too_many_splits": ["cv", "pair300", "--partition", "equal:50", "--k", "10"],
    }
    for source in (*LOADER_FAULTS, "twospot", "blankprice"):
        runs[f"decompose_{source}"] = ["decompose", source]
    for max_lag in (0, 1, 3, 40, 60, 80):
        runs[f"pipeline_max_lag_{max_lag}"] = [
            "pipeline", "pair300", *eq5, "--methods", "EECM,MV", "--max-lag", str(max_lag),
        ]
    # every EECM split fails its row check, so no batch reaches the lag search
    runs["cv_max_lag_180"] = ["cv", "pair300", *eq5, "--methods", "EECM,MV", "--max-lag", "180"]
    # more lags than differences: EECM's design has no row, so no block or 2005-column pad is built
    runs["hedge_max_lag_1000"] = ["hedge", "pair300", "--methods", "EECM,MV", "--max-lag", "1000"]
    # EECM split stacks of 165 columns, past LAPACK's 128-column switch, factored in several chunks per batch
    runs["cv_eecm_max_lag_80"] = ["cv", "long2000", "--partition", "equal:10", "--methods", "EECM", "--max-lag", "80"]
    return {
        "synth_coint": ["synth", "--out", "pair.csv", "--length", "300"],
        "synth_tones": ["synth", "--out", "tones.csv", "--length", "300", "--mode", "tones"],
        # a spot leg near 1e200, outside the price range: a data error, and no file
        "synth_out_of_range": ["synth", "--out", "big.csv", "--length", "300", "--b", "100"],
        "pipeline_config": ["pipeline", "--config", "../../inputs/run.cfg"],
    } | {
        f"{name}_{seed}": wl.argv(Path(f"../../inputs/pair{wl.length}_{seed}.csv"), Path("out"))
        for name, wl in WORKLOADS.items()
        for seed in WORKLOAD_SEEDS
    } | {
        name: [cmd, "--input", f"../../inputs/{source}.csv", "--out", "out", *flags]
        for name, (cmd, source, *flags) in runs.items()
    }


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _run(src: Path, cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One CLI call in a fresh process importing the tree at ``src``, under
    the ``CHILD_ADDRESS_SPACE`` ceiling."""
    cwd.mkdir(parents=True)
    return subprocess.run(
        [sys.executable, "-m", "emdhedge.cli", *args], cwd=cwd, env=_env(src), capture_output=True, text=True,
        preexec_fn=_limit_address_space,
    )


def _float(value) -> float | None:
    """A finite float, from a CSV cell written with a point or an exponent or
    from a JSON number that is not an integer; None for any other value."""
    if isinstance(value, str):
        try:
            int(value)
            return None
        except ValueError:
            pass
        try:
            value = float(value)
        except ValueError:
            return None
    return value if type(value) is float and math.isfinite(value) else None


def _move(x, y, scale: float) -> float:
    """How far value y lies from value x: for two finite floats, their
    distance over the larger of their magnitudes and ``scale``; else 0 when
    they are equal (NaN equal to NaN) and inf when not."""
    a, b = _float(x), _float(y)
    if a is not None and b is not None:
        return abs(a - b) / max(abs(a), abs(b), scale) if a != b else 0.0
    same = type(x) is type(y) and (x == y or isinstance(x, float) and math.isnan(x) and math.isnan(y))
    return 0.0 if same else math.inf


def _scale(values) -> float:
    """The largest magnitude among the finite floats of ``values``."""
    return max((abs(v) for v in map(_float, values) if v is not None), default=0.0)


def csv_moves(a: Path, b: Path):
    """(move, where, old, new) of each cell of CSV ``b`` that differs from
    CSV ``a``, each float measured against its column's largest magnitude."""
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if [len(r) for r in ra] != [len(r) for r in rb]:
        yield math.inf, "the shape", f"{len(ra)} rows", f"{len(rb)} rows"
        return
    scale = [_scale(col) for col in zip(*ra[1:], *rb[1:])] if len(ra) > 1 else []
    for i, (row_a, row_b) in enumerate(zip(ra, rb)):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x != y:
                yield _move(x, y, scale[j] if i else 0.0), f"row {i}, column {ra[0][j]}", x, y


def json_moves(x, y, key: str = "", scale: float = 0.0):
    """(move, key, old, new) of each value of JSON document ``y`` that
    differs from ``x``, keys as JSON pointers, each number of an array
    measured against that array's largest magnitude."""
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        for k in sorted(x):
            yield from json_moves(x[k], y[k], f"{key}/{k}")
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        scale = _scale(x + y)
        for i, (u, v) in enumerate(zip(x, y)):
            yield from json_moves(u, v, f"{key}/{i}", scale)
    elif (move := _move(x, y, scale)) > 0.0:
        yield move, key or "/", x, y


def largest_move(a: Path, b: Path) -> tuple[float, str]:
    """The largest move from file ``a`` to file ``b`` (``_move``; inf for a
    file that is neither CSV nor JSON) and a line that says where it is."""
    if a.suffix not in (".csv", ".json"):
        return math.inf, "its bytes differ"
    moves = csv_moves(a, b) if a.suffix == ".csv" else json_moves(*(json.loads(p.read_text()) for p in (a, b)))
    move, where, x, y = max(moves, key=lambda m: m[0], default=(0.0, "no value", "", ""))
    if math.isinf(move):
        return move, f"value differs at {where}: {x!r} -> {y!r}"
    return move, f"largest move {move:.3g} at {where}"


def _files(d: Path) -> set[str]:
    """The paths of the files under ``d``, relative to it."""
    return {p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}


def diff_dirs(a: Path, b: Path) -> list[str]:
    """How the files under ``b`` differ from those under ``a``: nothing when
    every file matches byte for byte; else the first differing path, in
    sorted order, then each differing file's ``largest_move``."""
    files_a, files_b = _files(a), _files(b)
    one_side = files_a ^ files_b
    differing = sorted(f for f in files_a & files_b if (a / f).read_bytes() != (b / f).read_bytes())
    if not one_side and not differing:
        return []
    first = min(one_side | set(differing))
    where = f" (only under {'the first' if first in files_a else 'the second'} tree)" if first in one_side else ""
    return [f"first differing file: {first}{where}"] + [f"{f}: {largest_move(a / f, b / f)[1]}" for f in differing]


def unexpected_exit(name: str, run: subprocess.CompletedProcess) -> list[str]:
    """Config ``name``'s ``run`` exit code, unless it is the config's own
    (``NONZERO_EXITS``, else 0)."""
    expected = NONZERO_EXITS.get(name, 0)
    return [] if run.returncode == expected else [f"exit code {run.returncode}, expected {expected}"]


def diff_runs(ref: subprocess.CompletedProcess, new: subprocess.CompletedProcess, a: Path, b: Path) -> list[str]:
    """How run ``new`` (writing under ``b``) differs from run ``ref`` (under ``a``)."""
    out = [f"exit code {ref.returncode} -> {new.returncode}"] if ref.returncode != new.returncode else []
    for stream in ("stdout", "stderr"):
        if getattr(ref, stream) != getattr(new, stream):
            out.append(f"{stream} differs: {getattr(ref, stream)[-200:]!r} -> {getattr(new, stream)[-200:]!r}")
    return out + diff_dirs(a, b)


def verdict(ref, new, a: Path, b: Path, tol: float | None = None) -> tuple[str, list[str]]:
    """``identical``, ``within TOL`` or ``DIFFERS`` for run ``new`` (writing
    under ``b``) against run ``ref`` (under ``a``), and how it differs
    (``diff_runs``). Without ``tol`` a run is identical or differs; with it,
    a run whose exit code, streams and file set match is within TOL when no
    differing file's ``largest_move`` exceeds ``tol``."""
    found = diff_runs(ref, new, a, b)
    streams = [(r.returncode, r.stdout, r.stderr) for r in (ref, new)]
    if not found or tol is None or streams[0] != streams[1] or _files(a) != _files(b):
        return ("DIFFERS" if found else "identical"), found
    moves = (largest_move(a / f, b / f)[0] for f in _files(a) if (a / f).read_bytes() != (b / f).read_bytes())
    return (f"within {tol:g}" if max(moves) <= tol else "DIFFERS"), found


def line_counts(ref: str, ref_root: Path, root: Path) -> list[str]:
    """Per directory, ``src/`` then ``tests/``, the line counts of the Python
    files under ``ref_root`` (REF's tree) and under ``root``, as ``wc -l``
    counts them."""
    found = []
    for d in ("src", "tests"):
        ref_lines, lines = (sum(p.read_bytes().count(b"\n") for p in (r / d).rglob("*.py")) for r in (ref_root, root))
        found.append(f"{d}/: {ref_lines} lines at {ref}, {lines} here")
    return found


def compare(ref: str, work: Path, tol: float | None = None) -> int:
    """Run the corpus under REF's tree and this checkout's; 0 if every config
    is identical, or with ``tol`` within it."""
    ref_src = work / "ref_tree"
    ref_src.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src", "tests"], capture_output=True
    )
    if archive.returncode:
        sys.exit(f"git archive {ref} failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(ref_src)], input=archive.stdout, check=True)
    inputs = work / "inputs"
    inputs.mkdir()
    for name, flags in SYNTH_INPUTS.items():
        made = _run(ROOT / "src", work / "synth" / name, ["synth", "--out", str(inputs / f"{name}.csv"), *flags])
        if made.returncode:
            sys.exit(f"synth of input {name} failed: {made.stderr.strip()}")
    _derived_inputs(inputs)

    corpus, kinds = _corpus(), []
    start = time.perf_counter()
    for name, args in corpus.items():
        a, b = work / "ref" / name, work / "new" / name
        ref_run, new = _run(ref_src / "src", a, args), _run(ROOT / "src", b, args)
        kind, found = verdict(ref_run, new, a, b, tol)
        if wrong_exit := unexpected_exit(name, new):
            kind, found = "DIFFERS", wrong_exit + found
        kinds.append(kind)
        print(f"{name}: {kind}", flush=True)
        for line in found:
            print(f"    {line}", flush=True)
    within = f", {sum(k.startswith('within') for k in kinds)} within {tol:g}" if tol is not None else ""
    print(f"{kinds.count('identical')} of {len(corpus)} configs identical to {ref}{within} "
          f"({time.perf_counter() - start:.0f} s for both trees)")
    print(*line_counts(ref, ref_src, ROOT), sep="\n")
    return 1 if "DIFFERS" in kinds else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compare", help="run the corpus under REF and this checkout and compare the outputs")
    c.add_argument("ref", metavar="REF", help="a git revision, e.g. HEAD or a commit id")
    c.add_argument("--within", metavar="TOL", type=float, help="also accept configs whose floats move by at most TOL")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bundles-") as tmp:
        return compare(args.ref, Path(tmp), args.within)


if __name__ == "__main__":
    sys.exit(main())
