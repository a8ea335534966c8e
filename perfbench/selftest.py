"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that

- every workload, traced and untraced, prints a final JSON line with exactly
  the metrics BENCHMARK.json names, each with its unit;
- the output oracles accept a real invocation and reject perturbed copies of
  it (an MV ratio nudged by 1e-6, a deleted artifact, a decomposition that
  no longer reconstructs, a wrong path count, a failed manifest, an exit
  code);
- the reference comparison flags a moved cell and a changed NaN pattern;
- run.py fails without printing a result where there are no sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
TINY_LENGTH = 240
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_bench(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics(bench: dict) -> None:
    for wl in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(
                ["--workload", wl["name"], "--seed", "5", "--seconds", "0.1", "--trace", str(trace),
                 "--length", str(TINY_LENGTH)],
                Path.cwd(),
            )
            what = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr[-1500:]}{proc.stdout[-1500:]}")
                continue
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            expect(set(final) == {"correct", "attempted", "failed", "metrics"}, f"{what}: final line has exactly the four keys")
            expect(final["correct"] and final["attempted"] >= 1 and final["failed"] == 0, f"{what}: correct, attempted >= 1")
            expect(got == want, f"{what}: emits every {section} metric with its unit")
            expect(
                all(isinstance(m["value"], (int, float)) for m in final["metrics"].values()),
                f"{what}: every value is a number",
            )


def check_oracles(work: Path) -> None:
    import oracles
    import reference
    import worker

    wl = replace(worker.WORKLOADS["full_eecm"], length=TINY_LENGTH)
    csv_path = work / "pair.csv"
    legs = worker.make_input(wl.length, 7, csv_path)
    good = work / "good"
    rec = worker.invoke(wl, csv_path, legs, good)
    expect(not rec["problems"], f"oracles accept a real invocation {rec['problems']}")

    def perturbed(name: str, edit) -> list[str]:
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        rc = edit(bad)
        return oracles.check(bad, rc or 0, legs[0], legs[1], wl.stages, wl.groups, wl.k)

    def nudge_mv(d: Path):
        header, rows = oracles.read_table(d / "insample_ratios.csv")
        col = header.index("MV")
        rows[0][col] = repr(float(rows[0][col]) + 1e-6)
        (d / "insample_ratios.csv").write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")

    def nudge_residue(d: Path):
        header, rows = oracles.read_table(d / "decomposition_spot.csv")
        rows[len(rows) // 2][-1] = repr(float(rows[len(rows) // 2][-1]) + 1e-6 * float(legs[0].mean()))
        (d / "decomposition_spot.csv").write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")

    def edit_json(name: str, fn):
        def edit(d: Path):
            payload = json.loads((d / name).read_text())
            fn(payload)
            (d / name).write_text(json.dumps(payload))
        return edit

    def wrong_paths(payload):
        next(iter(payload.values()))["n_paths_total"] += 1

    cases = {
        "an MV ratio nudged by 1e-6": nudge_mv,
        "a deleted artifact": lambda d: (d / "cv_var.csv").unlink(),
        "a residue moved by 1e-6 * level": nudge_residue,
        "a wrong n_paths_total": edit_json("cv_paths.json", wrong_paths),
        "a failed manifest status": edit_json("manifest.json", lambda m: m.update(status="failed")),
        "an artifact dropped from the manifest": edit_json("manifest.json", lambda m: m["artifacts"].remove("cv_var.csv")),
        "exit code 3": lambda d: 3,
    }
    for what, edit in cases.items():
        expect(bool(perturbed(what, edit)), f"oracles reject {what}")

    from emdhedge import cli

    real_main = cli.main
    cli.main = lambda argv: [][0]
    try:
        crashed = worker.invoke(wl, csv_path, legs, work / "crashed")
    finally:
        cli.main = real_main
    expect(bool(crashed["problems"]), "an invocation that raises counts as failed, not as a benchmark error")

    want = reference.snapshot(good, {c: 1 for c in reference.COUNTERS})
    expect(not reference.diff(want, want), "reference comparison accepts an identical snapshot")
    moved = json.loads(json.dumps(want))
    row = moved["tables"]["cv_var.csv"][1]
    idx = next(i for i, v in enumerate(row) if i > 1 and v != "nan")
    row[idx] = repr(float(row[idx]) * (1 + 1e-6))
    expect(bool(reference.diff(want, moved)), "reference comparison flags a cell moved by 1e-6 relative")
    row[idx] = "nan"
    expect(bool(reference.diff(want, moved)), "reference comparison flags a changed NaN pattern")
    counted = json.loads(json.dumps(want))
    counted["counters"]["estimators.ols.calls"] = 2
    expect(bool(reference.diff(want, counted)), "reference comparison flags a changed counter")


def check_bare(work: Path, root: Path) -> None:
    bare = work / "bare"
    shutil.copytree(root / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(["--workload", "full_eecm", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "fails without a result where there are no sources")


def main() -> int:
    root = Path.cwd()
    os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path[:0] = [str(HERE), str(root / "src")]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_oracles(work)
        check_bare(work, root)
        check_metrics(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
