"""Reference snapshot of each workload's report on the reference seed.

The snapshot holds the CV and in-sample table cells of the first input of
seed 3 plus three counters of its traced invocation. A later change that
moves any cell beyond a relative 1e-9, changes the NaN pattern or changes a
counter has changed behaviour, not just speed, and must say so.

    python3 perfbench/reference.py check     # exit 1 on any difference
    python3 perfbench/reference.py record    # rewrite reference.json

Run from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("reference.json")
TABLES = (
    "cv_variance_reduction.csv",
    "cv_var.csv",
    "insample_ratios.csv",
    "insample_variance_reduction.csv",
    "insample_var.csv",
)
COUNTERS = ("emd.decompose.calls", "estimators.ols.calls", "cpcv.splits_failed")
REL_TOL = 1e-9
ABS_FLOOR = 1e-15  # round-off around an exact zero


def snapshot(outdir: Path, layers: dict | None) -> dict:
    from oracles import read_table

    tables = {}
    for name in TABLES:
        if (outdir / name).is_file():
            header, rows = read_table(outdir / name)
            tables[name] = [header] + rows
    counters = {c: layers[c] for c in COUNTERS} if layers else {}
    return {"tables": tables, "counters": counters}


def _cell_differs(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a != b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) != math.isnan(y)
    return abs(x - y) > max(REL_TOL * max(abs(x), abs(y)), ABS_FLOOR)


def diff(want: dict, got: dict) -> list[str]:
    """Differences of ``got`` from ``want``; counters are compared when both have them."""
    out = []
    for name, table in want["tables"].items():
        other = got["tables"].get(name)
        if other is None:
            out.append(f"{name}: missing")
            continue
        if len(other) != len(table) or other[0] != table[0]:
            out.append(f"{name}: shape or header differs")
            continue
        for r, (row_w, row_g) in enumerate(zip(table[1:], other[1:]), start=1):
            bad = [table[0][c] for c, (a, b) in enumerate(zip(row_w, row_g)) if _cell_differs(a, b)]
            if len(row_w) != len(row_g) or bad:
                out.append(f"{name} row {r}: {bad or 'length'}")
    for key, value in want["counters"].items():
        if key in got["counters"] and got["counters"][key] != value:
            out.append(f"{key}: {got['counters'][key]} (reference {value})")
    return out


def _run(workload: str, work: Path) -> dict:
    """Snapshot one untraced and one traced invocation of the reference input."""
    import worker
    from tracer import Tracer

    wl = worker.WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    seed = worker.input_seeds(worker.REFERENCE_SEED, 1)[0]
    csv_path = work / "pair.csv"
    legs = worker.make_input(wl.length, seed, csv_path)
    rec = worker.invoke(wl, csv_path, legs, work / "out")
    if rec["problems"]:
        raise SystemExit(f"{workload}: reference invocation failed its checks: {rec['problems']}")
    tables = snapshot(work / "out", None)["tables"]
    tracer = Tracer()
    tracer.install()
    try:
        worker.invoke(wl, csv_path, legs, work / "out")
    finally:
        tracer.uninstall()
    return {"input_seed": seed, "tables": tables, "counters": snapshot(work / "out", tracer.layer_metrics())["counters"]}


def main(argv: list[str]) -> int:
    if argv not in (["check"], ["record"]):
        print(__doc__, file=sys.stderr)
        return 2
    import shutil

    import worker

    work = Path(".perfbench_work") / f"reference-{os.getpid()}"
    try:
        got = {name: _run(name, work / name) for name in worker.WORKLOADS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if argv == ["record"]:
        payload = {"seed": worker.REFERENCE_SEED, "workloads": got}
        SNAPSHOT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT}")
        return 0
    want = json.loads(SNAPSHOT.read_text())["workloads"]
    status = 0
    for name in worker.WORKLOADS:
        problems = diff(want[name], got[name])
        print(f"{name}: " + ("matches the reference" if not problems else "DIFFERS: " + "; ".join(problems)))
        status |= bool(problems)
    return status


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, "src")
    sys.exit(main(sys.argv[1:]))
