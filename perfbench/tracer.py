"""Spans and counters recorded around calls into emdhedge's public functions.

The package is instrumented from the outside: each traced function is replaced
by a timing wrapper in every emdhedge module that holds a reference to it,
because ``cli``, ``methods`` and ``cpcv`` bind their dependencies with
``from .x import y`` and ``run_pipeline`` looks its ``_emit_*`` stages up in
``cli``'s globals at call time. ``uninstall`` puts every original back.

Spans are kept in memory as (parent, name, start, end) and summarised per
invocation by ``layer_metrics``; ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time

import numpy as np

# span name -> (defining module, attribute)
TRACED = {
    "series.load_csv": ("emdhedge.series", "load_csv"),
    "series.restrict": ("emdhedge.series", "restrict"),
    "emd.decompose": ("emdhedge.emd", "decompose"),
    "emd.sift": ("emdhedge.emd", "sift"),
    "emd.find_extrema": ("emdhedge.emd", "find_extrema"),
    "emd.envelope_mean": ("emdhedge.emd", "envelope_mean"),
    "estimators.ols": ("emdhedge.estimators", "ols"),
    "estimators.eecm_ratio": ("emdhedge.estimators", "eecm_ratio"),
    "cpcv.run_cv": ("emdhedge.cpcv", "run_cv"),
    "cpcv.path_statistics": ("emdhedge.cpcv", "path_statistics"),
    "performance.he_var": ("emdhedge.performance", "he_var"),
    "performance.he_variance": ("emdhedge.performance", "he_variance"),
    "performance.moments": ("emdhedge.performance", "moments"),
    "analysis.matching_degree": ("emdhedge.analysis", "matching_degree"),
    "analysis.variance_decomposition": ("emdhedge.analysis", "variance_decomposition"),
    "analysis.determinant_regression": ("emdhedge.analysis", "determinant_regression"),
    "cli.stage.decompose": ("emdhedge.cli", "_emit_decomposition"),
    "cli.stage.preliminary": ("emdhedge.cli", "_emit_preliminary"),
    "cli.stage.insample": ("emdhedge.cli", "_emit_insample"),
    "cli.stage.cv": ("emdhedge.cli", "_emit_cv"),
    "cli.stage.determinants": ("emdhedge.cli", "_emit_determinants"),
    "cli.write_csv": ("emdhedge.cli", "_write_csv"),
    "cli.write_json": ("emdhedge.cli", "_write_json"),
}
# factories whose returned callable is traced under the given span name
TRACED_RESULTS = {
    "methods.ratio_fn": ("emdhedge.methods", "make_ratio_fn"),
}

# per-layer metric name -> unit; every traced invocation yields all of them
LAYER_UNITS = {
    "series.load_csv.s": "s",
    "series.restrict.calls": "count",
    "emd.decompose.calls": "count",
    "emd.decompose.s": "s",
    "emd.decompose.unique_ratio": "ratio",
    "emd.sift.calls": "count",
    "emd.sift_iterations": "count",
    "emd.nonconverged_imfs": "count",
    "emd.find_extrema.calls": "count",
    "emd.find_extrema.s": "s",
    "emd.envelope_mean.calls": "count",
    "emd.envelope_mean.s": "s",
    "estimators.ols.calls": "count",
    "estimators.ols.s": "s",
    "estimators.ols.cells": "count",
    "estimators.eecm_ratio.calls": "count",
    "estimators.eecm_ratio.s": "s",
    "methods.ratio_fn.calls": "count",
    "methods.ratio_fn.s": "s",
    "cpcv.run_cv.s": "s",
    "cpcv.scoring_s": "s",
    "cpcv.path_statistics.s": "s",
    "cpcv.splits_attempted": "count",
    "cpcv.splits_failed": "count",
    "cpcv.split_ok_ratio": "ratio",
    "cpcv.paths_voided": "count",
    "performance.he_var.calls": "count",
    "performance.he_var.s": "s",
    "performance.he_variance.s": "s",
    "performance.moments.s": "s",
    "analysis.s": "s",
    "cli.stage.decompose.s": "s",
    "cli.stage.preliminary.s": "s",
    "cli.stage.insample.s": "s",
    "cli.stage.cv.s": "s",
    "cli.stage.determinants.s": "s",
    "cli.write.s": "s",
    "cli.bytes_written": "count",
}


def _ols_cells(args, kwargs, result):
    y, X = args[0], np.asarray(args[1])
    p = (1 if X.ndim == 1 else X.shape[1]) + bool(kwargs.get("intercept", args[2] if len(args) > 2 else True))
    return {"estimators.ols.cells": len(y) * p}


def _sift_iterations(args, kwargs, result):
    return {"emd.sift_iterations": result.n_sifts}


def _run_cv_counts(args, kwargs, result):
    reports = list(result.values())
    return {
        "cpcv.splits_attempted": len(reports[0].per_split_values),
        "cpcv.splits_failed": len(reports[0].failed_splits),
        "cpcv.paths_voided": sum(r.n_paths_voided for r in reports),
    }


def _bytes_written(args, kwargs, result):
    return {"cli.bytes_written": os.path.getsize(args[0])}


class Tracer:
    """Records spans and counters while installed; one ``reset`` per invocation."""

    def __init__(self):
        self.spans: list = []  # (parent index or -1, name, start, end)
        self.counts: dict[str, int] = {}
        self.decompose_inputs: set = set()
        self._stack: list[int] = []
        self._undo: list = []
        self._observers = {
            "estimators.ols": _ols_cells,
            "emd.sift": _sift_iterations,
            "emd.decompose": self._decompose_counts,
            "cpcv.run_cv": _run_cv_counts,
            "cli.write_csv": _bytes_written,
            "cli.write_json": _bytes_written,
        }

    def reset(self) -> None:
        self.spans, self.counts, self.decompose_inputs = [], {}, set()

    def _decompose_counts(self, args, kwargs, result):
        x = np.ascontiguousarray(args[0], dtype=float)
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        self.decompose_inputs.add((hashlib.sha1(x.tobytes()).hexdigest(), repr(cfg)))
        return {"emd.nonconverged_imfs": sum(not imf.converged for imf in result.imfs)}

    def wrap(self, name: str, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (parent, name, start, end)
            if observe is not None:
                for key, n in observe(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return traced

    def _wrap_factory(self, name: str, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def install(self) -> None:
        """Replace every emdhedge module's reference to each traced function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, _ in (*TRACED.values(), *TRACED_RESULTS.values()):
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items()) if n == "emdhedge" or n.startswith("emdhedge.")]
        targets = [(name, spec, self.wrap) for name, spec in TRACED.items()]
        targets += [(name, spec, self._wrap_factory) for name, spec in TRACED_RESULTS.items()]
        for name, (modname, attr), make in targets:
            original = getattr(sys.modules[modname], attr)
            replacement = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo = []

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        scoring_ratio_fn = 0.0
        for parent, name, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if name == "methods.ratio_fn" and parent >= 0 and self.spans[parent][1] == "cpcv.run_cv":
                scoring_ratio_fn += end - start
        out: dict[str, float] = {}
        for metric in LAYER_UNITS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "s" and (base in TRACED or base in TRACED_RESULTS):
                out[metric] = total.get(base, 0.0)
        for key in ("emd.sift_iterations", "emd.nonconverged_imfs", "estimators.ols.cells",
                    "cpcv.splits_attempted", "cpcv.splits_failed", "cpcv.paths_voided",
                    "cli.bytes_written"):
            out[key] = self.counts.get(key, 0)
        n_decompose = calls.get("emd.decompose", 0)
        out["emd.decompose.unique_ratio"] = len(self.decompose_inputs) / n_decompose if n_decompose else 1.0
        attempted = out["cpcv.splits_attempted"]
        out["cpcv.split_ok_ratio"] = (attempted - out["cpcv.splits_failed"]) / attempted if attempted else 1.0
        out["cpcv.scoring_s"] = total.get("cpcv.run_cv", 0.0) - scoring_ratio_fn
        out["analysis.s"] = sum(
            total.get(n, 0.0)
            for n in ("analysis.matching_degree", "analysis.variance_decomposition", "analysis.determinant_regression")
        )
        out["cli.write.s"] = total.get("cli.write_csv", 0.0) + total.get("cli.write_json", 0.0)
        missing = set(LAYER_UNITS) - set(out)
        if missing:
            raise KeyError(f"layer metrics not computed: {sorted(missing)}")
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by its child spans."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (_, name, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def dump(self, fh, label: int) -> None:
        """Append this invocation's spans as CSV rows: label,id,parent,name,start,end."""
        for i, (parent, name, start, end) in enumerate(self.spans):
            fh.write(f"{label},{i},{parent},{name},{start!r},{end!r}\n")
