"""One benchmark process: import emdhedge, generate the seeded inputs, then run
one workload's CLI invocation on each of them in turn.

Run by ``run.py`` with thread-pinned BLAS and ``PYTHONPATH=src``; it talks
back on stdout with two lines, ``ready {...}`` once set-up is done and
``result {...}`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import oracles

REFERENCE_SEED = 3  # the baseline seed of the ROADMAP; reference.json is recorded on it
INPUT_SEED_STRIDE = 1000  # input i of seed s is generated with synth seed s + 1000 * i
DESIGN_SECONDS = 25.0  # the run length the workloads' input counts are sized for


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    length: int  # samples per generated pair
    groups: int  # equal:N partition
    k: int  # test groups per split
    flags: tuple[str, ...]
    inputs: int  # inputs per worker process in a run of DESIGN_SECONDS
    workers: int  # worker processes per run, one after another, each on its own inputs; see run.py

    def input_count(self, seconds: float) -> int:
        """Inputs per worker in a run of ``seconds``: fixed by the run length
        alone, never by how fast the code runs, so every commit measures the
        same inputs."""
        return max(1, round(self.inputs * seconds / DESIGN_SECONDS))

    @property
    def stages(self) -> tuple[str, ...]:
        if self.command == "cv":
            return ("decompose", "cv")
        return ("decompose", "preliminary", "insample", "cv", "determinants")

    def argv(self, input_csv: Path, outdir: Path) -> list[str]:
        return [
            self.command,
            "--input", str(input_csv),
            "--out", str(outdir),
            "--partition", f"equal:{self.groups}",
            "--k", str(self.k),
            *self.flags,
        ]


# Auto horizons stay on everywhere (so the h = round(cycle) AEMD failure of
# the first IMF row shows); --horizon-cap sits in the gap between two IMF
# cycle octaves at each length, so every seed gets the same number of rows.
# Input counts are sized so that the calls of one run take about
# DESIGN_SECONDS to 1.5 * DESIGN_SECONDS on a 2-vCPU x86_64 host at the commit
# the benchmark was added; segment_emd and full_scoring take more calls, as
# their calls vary more.
WORKLOADS = {
    # all six methods; the 11x11 EECM lag search dominates, decomposition runs
    # once per leg on the full series. 2-3.5 s per call
    "full_eecm": Workload("pipeline", 600, 6, 2, ("--horizon-cap", "30"), inputs=2, workers=4),
    # per-segment scope re-decomposes every training segment of every split,
    # for every (method, row); no conventional estimator runs. 1.5-2.3 s per
    # call. Its cost varies by ~14% between inputs (sift counts), so a run
    # takes more inputs
    "segment_emd": Workload(
        "cv", 250, 5, 2,
        ("--decompose-scope", "per-segment", "--methods", "VEMD,SEMD,AEMD", "--horizon-cap", "5"),
        inputs=4, workers=3,
    ),
    # 56 splits x 21 paths of cheap fits: CV scoring, performance criteria and
    # report emission carry the time; each long leg is decomposed once.
    # 2-2.6 s per call
    "full_scoring": Workload(
        "pipeline", 2000, 8, 3, ("--methods", "MV,ECM,VEMD,SEMD,AEMD", "--horizon-cap", "70"),
        inputs=3, workers=4,
    ),
}


def input_seeds(seed: int, count: int, first: int = 0) -> list[int]:
    """Synth seeds of inputs ``first`` .. ``first + count - 1`` of ``seed``."""
    return [seed + INPUT_SEED_STRIDE * i for i in range(first, first + count)]


def make_input(length: int, synth_seed: int, path: Path):
    """Write one seeded cointegrated pair as date,spot,futures; return the legs."""
    from emdhedge.synth import CointSpec, SynthSpec, gen_coint_pair

    spot, fut = gen_coint_pair(SynthSpec(length=length, seed=synth_seed, coint=CointSpec()))
    with open(path, "w") as fh:
        fh.write("date,spot,futures\n")
        for d, s, f in zip(spot.timestamps.astype(str), spot.values.tolist(), fut.values.tolist()):
            fh.write(f"{d},{s!r},{f!r}\n")
    return spot.values.copy(), fut.values.copy()


def invoke(wl: Workload, input_csv: Path, legs, outdir: Path) -> dict:
    """Time one ``cli.main`` call and check its outputs."""
    from emdhedge import cli

    shutil.rmtree(outdir, ignore_errors=True)
    start = time.perf_counter()
    try:
        rc, crash = cli.main(wl.argv(input_csv, outdir)), None
    except Exception as exc:  # a crash fails this invocation, not the run
        rc, crash = None, f"cli.main raised {exc!r}"
    report_s = time.perf_counter() - start
    try:
        problems = [crash] if crash else oracles.check(outdir, rc, legs[0], legs[1], wl.stages, wl.groups, wl.k)
        filled, cells = oracles.cv_fill(outdir) if not problems else (0, 0)
        warnings = len(json.loads((outdir / "manifest.json").read_text())["warnings"]) if not problems else 0
    except Exception as exc:  # a malformed artifact fails the invocation, not the run
        problems, filled, cells, warnings = [f"output check raised {exc!r}"], 0, 0, 0
    return {
        "report_s": report_s,
        "problems": problems,
        "filled": filled,
        "cells": cells,
        "warnings": warnings,
    }


def measure(wl: Workload, inputs: list, trace: bool, work: Path, spans_path: Path | None) -> dict:
    """Invoke once on each input, in order. With ``trace`` each untraced
    invocation is followed by a traced one on the same input."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    outdir = work / "out"
    records: list[dict] = []
    traced: list[dict] = []
    spans_fh = open(spans_path, "w") if spans_path else None
    try:
        if spans_fh:
            spans_fh.write("input,id,parent,name,start,end\n")
        for i, (synth_seed, input_csv, legs) in enumerate(inputs):
            rec = invoke(wl, input_csv, legs, outdir)
            rec["input_seed"] = synth_seed
            records.append(rec)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    trec = invoke(wl, input_csv, legs, outdir)
                finally:
                    tracer.uninstall()
                trec["input_seed"] = synth_seed
                trec["layers"] = tracer.layer_metrics()
                trec["layers"]["cli.warnings"] = trec["warnings"]
                trec["self_s"] = tracer.self_times()
                traced.append(trec)
                if spans_fh:
                    tracer.dump(spans_fh, i)
    finally:
        if spans_fh:
            spans_fh.close()
    return {
        "records": records,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=int, required=True, help="number of inputs to generate and run")
    p.add_argument("--first", type=int, default=0, help="index of the first input")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    p.add_argument("--spans", help="CSV file the traced spans are written to")
    p.add_argument("--length", type=int, help="override the workload's series length (self-test)")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.length:
        wl = replace(wl, length=args.length)
    work = Path(args.work)

    start = time.perf_counter()
    import emdhedge.cli  # noqa: F401  (the import every CLI user pays)

    imported = time.perf_counter()
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    pool = []
    for synth_seed in input_seeds(args.seed, args.inputs, args.first):
        path = inputs / f"pair_{synth_seed}.csv"
        pool.append((synth_seed, path, make_input(wl.length, synth_seed, path)))
    generated = time.perf_counter()
    print("ready " + json.dumps({"import_s": imported - start, "synth_s": generated - imported}), flush=True)

    spans = Path(args.spans) if args.spans else None
    result = measure(wl, pool, bool(args.trace), work, spans)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
