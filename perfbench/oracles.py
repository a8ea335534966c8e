"""Correctness oracles for one CLI invocation, computed with numpy alone.

Every oracle holds for any input, so the benchmark can check each invocation
of every seed without stored answers:

- exit code 0 and manifest status ``ok``;
- the manifest lists the artifacts the stages produce, and each exists;
- IMFs plus residue in ``decomposition_*.csv`` reconstruct the input legs
  within 1e-9 * rms;
- every CV report has ``n_paths_total`` = C(N-1, k-1);
- the in-sample MV ratio equals cov/var of the horizon-h log returns within
  1e-9.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RECONSTRUCTION_TOL = 1e-9  # relative to the rms of the input leg
MV_RATIO_TOL = 1e-9

STAGE_ARTIFACTS = {
    "decompose": ["decomposition_spot.csv", "decomposition_futures.csv", "decomposition.json", "cycles.csv"],
    "preliminary": ["variance_decomposition.csv", "matching_degree.csv"],
    "insample": ["insample_ratios.csv", "insample_variance_reduction.csv", "insample_var.csv"],
    "cv": ["cv_variance_reduction.csv", "cv_var.csv", "cv_paths.json"],
    "determinants": ["determinants.csv", "relative_performance.csv"],
}
CV_TABLES = ("cv_variance_reduction.csv", "cv_var.csv")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def numeric_cells(path: Path, skip_cols: int) -> np.ndarray:
    """Table cells right of the first ``skip_cols`` columns as floats ('nan' -> NaN)."""
    _, rows = read_table(path)
    return np.array([[float(v) for v in row[skip_cols:]] for row in rows], dtype=float).reshape(len(rows), -1)


def log_returns(levels: np.ndarray, h: int) -> np.ndarray:
    lv = np.log(levels)
    return lv[h:] - lv[:-h]


def mv_ratio_oracle(spot: np.ndarray, fut: np.ndarray, h: int) -> float:
    ds, df = log_returns(spot, h), log_returns(fut, h)
    return float(np.cov(ds, df)[0, 1] / np.var(df, ddof=1))


def check(
    outdir: Path,
    rc: int,
    spot: np.ndarray,
    fut: np.ndarray,
    stages: tuple[str, ...],
    n_groups: int,
    k: int,
) -> list[str]:
    """Problems found in one invocation's outputs; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    expected = [a for stage in stages for a in STAGE_ARTIFACTS[stage]]
    listed = manifest.get("artifacts", [])
    problems += [f"artifact {a} not listed in the manifest" for a in expected if a not in listed]
    missing = [a for a in listed if not (outdir / a).is_file()]
    problems += [f"artifact {a} missing" for a in missing]
    if problems:
        return problems

    for leg, values in (("spot", spot), ("futures", fut)):
        parts = numeric_cells(outdir / f"decomposition_{leg}.csv", skip_cols=1)
        err = float(np.max(np.abs(parts.sum(axis=1) - values)))
        rms = float(np.sqrt(np.mean(values**2)))
        if not err <= RECONSTRUCTION_TOL * rms:
            problems.append(f"{leg} decomposition reconstructs with error {err:.3g} > {RECONSTRUCTION_TOL:g} * rms")

    if "cv" in stages:
        n_paths = math.comb(n_groups - 1, k - 1)
        reports = json.loads((outdir / "cv_paths.json").read_text())
        if not reports:
            problems.append("cv_paths.json holds no CV report")
        bad = [key for key, rep in reports.items() if rep["n_paths_total"] != n_paths]
        if bad:
            problems.append(f"n_paths_total != C({n_groups - 1},{k - 1}) = {n_paths} in {bad[:3]}")

    if "insample" in stages:
        header, rows = read_table(outdir / "insample_ratios.csv")
        if "MV" in header:
            col = header.index("MV")
            for row in rows:
                h, got = int(row[1]), float(row[col])
                want = mv_ratio_oracle(spot, fut, h)
                if not abs(got - want) <= MV_RATIO_TOL * max(1.0, abs(want)):
                    problems.append(f"in-sample MV ratio at h={h} is {got!r}, cov/var gives {want!r}")
    return problems


def cv_fill(outdir: Path) -> tuple[int, int]:
    """(non-NaN cells, all cells) of the CV statistic tables."""
    filled = total = 0
    for name in CV_TABLES:
        cells = numeric_cells(outdir / name, skip_cols=2)
        filled += int(np.count_nonzero(~np.isnan(cells)))
        total += cells.size
    return filled, total
