"""emdhedge benchmark: seeded end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload full_eecm [--seed 3] [--seconds 25] [--trace 0]

Run from the repository root. Each run starts the workload's number of
worker processes, one after another. Each worker generates its own fixed
number of inputs with ``emdhedge.synth`` from ``--seed`` and calls
``emdhedge.cli.main`` on each, one input per invocation. The input count
depends on the workload and ``--seconds`` only, never on how fast the code
runs, so every commit measures the same inputs. Every invocation's outputs
are checked (see ``oracles.py``). Workers get BLAS/OpenMP threads pinned to 1 and
``PYTHONPATH=src``; nothing else about the machine is changed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` follows each
untraced invocation with a traced one and prints the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Spans of the first worker of the last traced run of a workload are left in
``.perfbench_work/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402
from worker import REFERENCE_SEED, WORKLOADS  # noqa: E402

# report_s is the median of all untraced calls of a run and setup_s the
# median of its workers' set-ups. Each worker is a fresh process, so no
# in-process cache outlives one worker's inputs.
RUN_TIMEOUT_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cv_filled_ratio": "ratio",
    "op_ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **LAYER_UNITS,
    "cli.warnings": "count",
    "setup.import_s": "s",
    "setup.synth_s": "s",
    "trace.report_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(argv: list[str], env: dict, work: Path, deadline: float) -> tuple[float, dict, dict]:
    """Run one worker to the end; return (seconds from start to its ready line, ready payload, result)."""
    err_path = work.with_suffix(".err")
    start = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv, "--work", str(work)],
            stdout=subprocess.PIPE, stderr=err, env=env, text=True,
        )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.startswith("ready ") or not out.startswith("result "):
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{err_path.read_text()[-2000:]}")
    return setup_s, json.loads(ready[len("ready "):]), json.loads(out[len("result "):])


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without leaving it; 'unknown' elsewhere."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "pinned_threads": {var: "1" for var in PINNED},
    }


def run(args) -> tuple[dict, list[str]]:
    """Measure; return the final JSON object and the lines to print before it."""
    root = Path.cwd()
    if not (root / "src" / "emdhedge" / "__init__.py").is_file():
        raise BenchError("no emdhedge sources under ./src; run from the repository root")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = child_env(root)
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload]
    count = wl.input_count(args.seconds)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace), "--inputs", str(count)]
    if args.length:
        common += ["--length", str(args.length)]
    spans = base / f"spans-{args.workload}.csv"
    setups: list[tuple[float, dict]] = []
    work.mkdir(parents=True, exist_ok=True)
    result: dict = {"records": [], "traced": [], "peak_rss_mb": []}
    try:
        for n in range(wl.workers):
            # the first worker of a traced run writes the spans
            argv = common + ["--first", str(n * count)] + (["--spans", str(spans)] if args.trace and n == 0 else [])
            setup_s, ready, part = run_worker(argv, env, work / f"worker{n}", deadline)
            setups.append((setup_s, ready))
            result["records"] += part["records"]
            result["traced"] += part["traced"]
            result["peak_rss_mb"].append(part["peak_rss_mb"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = []
    records = result["records"] + result["traced"]
    failed = [r for r in records if r["problems"]]
    for r in failed[:5]:
        lines.append(f"FAILED input seed {r['input_seed']}: {'; '.join(r['problems'])}")
    report_s = statistics.median(r["report_s"] for r in result["records"])
    if args.trace:
        traced = result["traced"]
        metrics = {m: statistics.median(t["layers"][m] for t in traced) for m in LAYER_UNITS}
        metrics["cli.warnings"] = statistics.median(t["layers"]["cli.warnings"] for t in traced)
        metrics["setup.import_s"] = statistics.median(r["import_s"] for _, r in setups)
        metrics["setup.synth_s"] = statistics.median(r["synth_s"] for _, r in setups)
        metrics["trace.report_s"] = statistics.median(t["report_s"] for t in traced)
        metrics["trace.overhead_s"] = metrics["trace.report_s"] - report_s
        units = PER_LAYER_UNITS
        lines.append(
            f"per-layer values are medians over {len(traced)} traced invocations, "
            f"each run right after an untraced one on the same input"
        )
        self_s: dict[str, list[float]] = {}
        for t in traced:
            for name, v in t["self_s"].items():
                self_s.setdefault(name, []).append(v)
        report = metrics["trace.report_s"]
        lines.append("median self time per span, share of traced report_s:")
        for name, vals in sorted(self_s.items(), key=lambda kv: -statistics.median(kv[1])):
            med = statistics.median(vals)
            lines.append(f"  {name:34s} {med:10.4f} s {100 * med / report:6.1f} %")
    else:
        cells = sum(r["cells"] for r in records)
        metrics = {
            "report_s": report_s,
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"]),
            "cv_filled_ratio": sum(r["filled"] for r in records) / cells if cells else 0.0,
            "op_ok_ratio": (len(records) - len(failed)) / len(records),
        }
        units = END_TO_END_UNITS
        times = [r["report_s"] for r in result["records"]]
        lines.append(
            f"report_s is the median of {len(times)} invocations on distinct inputs "
            f"({min(times):.4f} to {max(times):.4f} s; too few for a tail percentile)"
        )
        lines.append(f"setup_s is the median of {len(setups)} process set-ups")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append("provenance " + json.dumps(provenance(root), sort_keys=True))
    final = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return final, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--length", type=int, help="override the workloads' series length (self-test only)")
    args = p.parse_args(argv)
    try:
        final, lines = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
