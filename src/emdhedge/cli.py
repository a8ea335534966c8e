"""Batch front-end: subcommand dispatch, config handling, report emission.

Subcommands: synth, decompose, hedge, cv, analyze, pipeline. Outputs are
CSV tables plus JSON sidecars; all numbers are written at full precision so
reruns with the same config are byte-identical.

Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure. A stage that
fails writes a ``failed`` manifest and exits 2 for a data error and 3 for
anything else.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    determinant_regression,
    matching_degree,
    relative_performance,
    significance_stars,
    variance_decomposition,
)
from .cpcv import Criterion, PathReport, Scheme, excluded_groups, partition, run_cv
from .emd import ImfSet, SiftConfig, decompose
from .errors import DataError, EmdHedgeError, NumericError
from .estimators import Method, pair_imfs
from .methods import EMD_FAMILY, make_ratio_fn
from .performance import effectiveness_rows
from .series import DiffKind, PriceSeries, horizon_diff, load_csv
from .synth import CointSpec, SynthSpec, gen_coint_pair, gen_tones

ALL_METHODS = (Method.MV, Method.ECM, Method.EECM, Method.VEMD, Method.SEMD, Method.AEMD)
CV_CRITERIA = (Criterion.VARIANCE_REDUCTION, Criterion.VAR)


@dataclass
class RunConfig:
    input: str | None = None
    out: str = "out"
    date_col: str = "date"
    spot_col: str = "spot"
    futures_col: str = "futures"
    partition: str = "equal:10"
    k: int = 2
    horizons: str = "auto"  # "auto" or comma-separated days
    horizon_cap: int = 183  # about half a trading-free year of days
    methods: str = "MV,ECM,EECM,VEMD,SEMD,AEMD"
    alpha: float = 0.05
    envelope_tolerance: float = 0.05
    max_sifts: int = 64
    max_imfs: int = 16
    mirror: int = 2
    max_lag: int = 10
    decompose_scope: str = "full"  # or "per-segment"
    min_obs: int | None = None
    levels: str = "log"  # cointegrating regression on log or raw levels
    seed: int = 0

    def sift_config(self) -> SiftConfig:
        return SiftConfig(
            envelope_tolerance=self.envelope_tolerance,
            max_sifts_per_imf=self.max_sifts,
            max_imfs=self.max_imfs,
            boundary_mirror_count=self.mirror,
        )

    def method_list(self) -> list[Method]:
        out = []
        for name in self.methods.split(","):
            name = name.strip().upper()
            if not name:
                continue
            try:
                out.append(Method[name])
            except KeyError:
                raise UsageError(f"unknown method '{name}'") from None
        if not out:
            raise UsageError("empty method list")
        return out

    def horizon_list(self) -> list[int] | None:
        """Explicit horizons in the given order, or None for ``auto``."""
        if self.horizons == "auto":
            return None
        horizons = []
        for tok in self.horizons.split(","):
            try:
                horizons.append(int(tok))
                if horizons[-1] < 1:
                    raise ValueError
            except ValueError:
                raise UsageError(f"bad horizon '{tok}'") from None
        return horizons

    def partition_scheme(self) -> tuple[Scheme, int | None]:
        """(scheme, N) from ``equal:N`` or ``year``; N is None for ``year``."""
        spec = self.partition.strip().lower()
        if spec == "year":
            return Scheme.CALENDAR_YEAR, None
        if spec.startswith("equal:"):
            try:
                return Scheme.EQUAL_COUNT, int(spec.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad partition spec '{self.partition}'") from None
        raise UsageError(f"bad partition spec '{self.partition}' (use equal:N or year)")

    def partition_of(self, series: PriceSeries):
        scheme, n = self.partition_scheme()
        if n is None:
            return partition(series, scheme)
        return partition(series, scheme, n_groups=n)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit_(1, message)


class SystemExit_(Exception):
    def __init__(self, code, message=""):
        self.code = code
        self.message = message
        super().__init__(message)


# ---------------------------------------------------------------------------
# config file + flag merging

_CONFIG_KEYS = {f.name for f in RunConfig.__dataclass_fields__.values()}
_INT_KEYS = {"k", "horizon_cap", "max_sifts", "max_imfs", "mirror", "max_lag", "min_obs", "seed"}
_FLOAT_KEYS = {"alpha", "envelope_tolerance"}


def _read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    out = {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
        out[key] = value
    return out


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise UsageError(f"bad value for '{key}': {value}") from None
    return value


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Flags override config-file values override defaults."""
    cfg = RunConfig()
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_vals.items():
        setattr(cfg, key, _coerce(key, value))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, _coerce(key, value))
    if cfg.k < 1:
        raise UsageError(f"k must be >= 1, got {cfg.k}")
    _, n_groups = cfg.partition_scheme()
    if n_groups is not None and cfg.k >= n_groups:
        raise UsageError(f"k must be < N for equal:N, got k={cfg.k}, N={n_groups}")
    if cfg.max_lag < 0:
        raise UsageError(f"max_lag must be >= 0, got {cfg.max_lag}")
    try:
        cfg.sift_config()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not (0.0 < cfg.alpha <= 0.5):
        raise UsageError(f"alpha must be in (0, 0.5], got {cfg.alpha}")
    if cfg.horizon_cap < 1:
        raise UsageError("horizon_cap must be >= 1")
    if cfg.decompose_scope not in ("full", "per-segment"):
        raise UsageError(f"bad decompose_scope '{cfg.decompose_scope}'")
    horizons = cfg.horizon_list()
    if horizons is not None and len(set(horizons)) < len(horizons):
        raise UsageError(f"duplicate horizons in '{cfg.horizons}'")
    return cfg


# ---------------------------------------------------------------------------
# emission helpers

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pipeline stages

@dataclass
class PipelineState:
    cfg: RunConfig
    spot: PriceSeries
    fut: PriceSeries
    dropped_rows: int
    outdir: Path
    warnings: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    spot_set: ImfSet | None = None
    fut_set: ImfSet | None = None
    pairs: list | None = None
    surplus: list[str] = field(default_factory=list)
    rows: list[tuple[int, int]] = field(default_factory=list)  # (imf_index, horizon)
    match_rows: list | None = None
    cv_reports: dict = field(default_factory=dict)  # (method, horizon, criterion) -> PathReport
    exclusions: list = field(default_factory=list)
    cv_failed_splits: dict = field(default_factory=dict)  # exception class -> failed CV splits


def _load_state(cfg: RunConfig) -> PipelineState:
    if not cfg.input:
        raise UsageError("--input is required")
    spot, fut, dropped = load_csv(
        cfg.input, cfg.date_col, cfg.spot_col, cfg.futures_col
    )
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return PipelineState(cfg=cfg, spot=spot, fut=fut, dropped_rows=dropped, outdir=outdir)


def _imfset_payload(s: ImfSet, cfg: RunConfig) -> dict:
    return {
        "source_len": s.source_len,
        "n_imfs": len(s.imfs),
        "cycles": [imf.cycle for imf in s.imfs],
        "extrema": [
            {
                "n_maxima": imf.n_maxima,
                "n_minima": imf.n_minima,
                "n_zero_crossings": imf.n_zero_crossings,
                "n_sifts": imf.n_sifts,
                "converged": imf.converged,
            }
            for imf in s.imfs
        ],
        "config": {
            "envelope_tolerance": cfg.envelope_tolerance,
            "max_sifts_per_imf": cfg.max_sifts,
            "max_imfs": cfg.max_imfs,
            "boundary_mirror_count": cfg.mirror,
        },
    }


def _emit_decomposition(state: PipelineState) -> None:
    cfg = state.cfg
    sift_cfg = cfg.sift_config()
    state.spot_set = decompose(state.spot.values, sift_cfg)
    state.fut_set = decompose(state.fut.values, sift_cfg)
    for name, s in (("spot", state.spot_set), ("futures", state.fut_set)):
        header = ["t"] + [f"imf{i + 1}" for i in range(len(s.imfs))] + ["residue"]
        columns = np.column_stack([imf.values for imf in s.imfs] + [s.residue])
        path = state.outdir / f"decomposition_{name}.csv"
        with open(path, "w", newline="") as fh:  # _write_csv's bytes: repr of each float
            fh.write(",".join(header) + "\n")
            fh.writelines(
                f"{t},{','.join(map(repr, row))}\n" for t, row in enumerate(columns.tolist())
            )
        state.artifacts.append(path.name)
    sidecar = state.outdir / "decomposition.json"
    _write_json(
        sidecar,
        {
            "spot": _imfset_payload(state.spot_set, cfg),
            "futures": _imfset_payload(state.fut_set, cfg),
        },
    )
    state.artifacts.append(sidecar.name)

    # cycle table, one row per leg
    n = max(len(state.spot_set.imfs), len(state.fut_set.imfs))
    header = ["leg"] + [f"imf{i + 1}" for i in range(n)]
    rows = []
    for name, s in (("spot", state.spot_set), ("futures", state.fut_set)):
        rows.append([name] + [imf.cycle for imf in s.imfs] + [None] * (n - len(s.imfs)))
    path = state.outdir / "cycles.csv"
    _write_csv(path, header, rows)
    state.artifacts.append(path.name)

    state.pairs, state.surplus = pair_imfs(state.spot_set, state.fut_set)
    for s in state.surplus:
        state.warnings.append(f"unmatched {s} excluded from pairing")
    state.rows = _select_rows(state)


def _select_rows(state: PipelineState) -> list[tuple[int, int]]:
    """(imf index, hedging horizon) rows for the hedge/cv tables."""
    cfg = state.cfg
    cycles = [imf.cycle for imf in state.spot_set.imfs]
    rows: list[tuple[int, int]] = []
    horizons = cfg.horizon_list()
    if horizons is None:
        for i, c in enumerate(cycles, start=1):
            h = max(1, round(c))
            kept = [j for j, hj in rows if hj == h]  # tables and CV reports are keyed by horizon
            if kept:
                state.warnings.append(f"imf{i} dropped: horizon {h} is already imf{kept[0]}'s")
            elif h <= cfg.horizon_cap:
                rows.append((i, h))
    else:
        for h in horizons:
            nearest = min(range(len(cycles)), key=lambda j: abs(cycles[j] - h)) + 1 if cycles else 1
            rows.append((nearest, h))
    if not rows:
        state.warnings.append("no usable (imf, horizon) rows under the horizon cap")
    return rows


def _emit_preliminary(state: PipelineState) -> None:
    """Variance decomposition of the log-return series, and matching degree."""
    cfg = state.cfg
    sift_cfg = cfg.sift_config()
    rows = []
    for name, series in (("spot", state.spot), ("futures", state.fut)):
        lr = horizon_diff(series, 1, DiffKind.LOG).values
        lr_set = decompose(lr, sift_cfg)
        for vr in variance_decomposition(lr_set, lr):
            label = f"imf{vr.imf_index}" if vr.imf_index is not None else "residue"
            rows.append([name, label, vr.variance, vr.percent])
    path = state.outdir / "variance_decomposition.csv"
    _write_csv(path, ["leg", "component", "variance", "percent"], rows)
    state.artifacts.append(path.name)

    state.match_rows = matching_degree(state.pairs)
    rows = [
        [
            f"imf{m.imf_index}" if m.imf_index is not None else "residue",
            m.beta,
            m.r_squared,
            m.cycle_spot,
            m.cycle_fut,
        ]
        for m in state.match_rows
    ]
    path = state.outdir / "matching_degree.csv"
    _write_csv(path, ["component", "beta", "r_squared", "cycle_spot", "cycle_fut"], rows)
    state.artifacts.append(path.name)


def _ratio_fn(state: PipelineState, method: Method, imf_index: int, h: int, **kw):
    cfg = state.cfg
    return make_ratio_fn(
        method, state.spot, state.fut, h, imf_index=imf_index, spot_set=state.spot_set,
        fut_set=state.fut_set, max_lag=cfg.max_lag, cfg=cfg.sift_config(),
        log_levels=cfg.levels == "log", **kw,
    )


def _emit_insample(state: PipelineState) -> None:
    """In-sample tables: full sample as both training and testing set."""
    cfg = state.cfg
    methods = cfg.method_list()
    ratio_rows, vr_rows, var_rows = [], [], []
    for imf_index, h in state.rows:
        ds = horizon_diff(state.spot, h, DiffKind.LOG).values
        df = horizon_diff(state.fut, h, DiffKind.LOG).values
        ratios = []
        for method in methods:
            (ratio,) = _ratio_fn(state, method, imf_index, h)([(range(0, len(state.spot)),)])
            if isinstance(ratio, EmdHedgeError):
                state.warnings.append(f"in-sample {method.value} imf{imf_index} h={h}: {ratio}")
                ratio = float("nan")
            ratios.append(ratio)
        vr_vals, var_vals = [float("nan")] * len(methods), [float("nan")] * len(methods)
        ok = [i for i, r in enumerate(ratios) if not math.isnan(r)]
        if ok:  # the row's portfolios, scored by one call per criterion
            portfolios = ds[None, :] - np.array([ratios[i] for i in ok])[:, None] * df[None, :]
            vr, _, _ = effectiveness_rows(Criterion.VARIANCE_REDUCTION, ds, portfolios)
            try:
                var, _, _ = effectiveness_rows(Criterion.VAR, ds, portfolios, cfg.alpha)
            except EmdHedgeError:  # too few observations for the VaR quantile
                var = np.full(len(ok), np.nan)
            for i, a, b in zip(ok, vr.tolist(), var.tolist()):
                vr_vals[i], var_vals[i] = a, b
        ratio_rows.append([f"imf{imf_index}", h] + ratios)
        vr_rows.append([f"imf{imf_index}", h] + vr_vals)
        var_rows.append([f"imf{imf_index}", h] + var_vals)
    names = [m.value for m in methods]
    path = state.outdir / "insample_ratios.csv"
    _write_csv(path, ["imf", "horizon"] + names, ratio_rows)
    state.artifacts.append(path.name)
    path = state.outdir / "insample_variance_reduction.csv"
    _write_csv(path, ["imf", "horizon"] + names, vr_rows)
    state.artifacts.append(path.name)
    path = state.outdir / "insample_var.csv"
    _write_csv(path, ["imf", "horizon"] + names, var_rows)
    state.artifacts.append(path.name)


def _emit_cv(state: PipelineState) -> None:
    """Cross-validated path statistics plus a JSON sidecar with per-path values."""
    cfg = state.cfg
    methods = cfg.method_list()
    part = cfg.partition_of(state.spot)
    criteria = CV_CRITERIA
    sidecar: dict = {}
    decompositions: dict = {}  # per-segment scope: (leg, start, stop) -> ImfSet
    for imf_index, h in state.rows:
        for method in methods:
            try:
                fn = _ratio_fn(
                    state, method, imf_index, h, scope=cfg.decompose_scope,
                    decompositions=decompositions, groups=part.groups,
                )
                reports = run_cv(
                    state.spot,
                    state.fut,
                    fn,
                    h,
                    criteria,
                    part,
                    cfg.k,
                    min_obs=cfg.min_obs,
                    alpha=cfg.alpha,
                    method_label=method.value,
                )
            except EmdHedgeError as exc:
                state.warnings.append(f"cv {method.value} imf{imf_index} h={h}: {exc}")
                continue
            for cls, _ in reports[criteria[0]].failed_reasons:
                state.cv_failed_splits[cls] = state.cv_failed_splits.get(cls, 0) + 1
            for crit, rep in reports.items():
                state.cv_reports[(method, h, crit)] = rep
                sidecar[f"{method.value}:h{h}:{crit.value}"] = {
                    "imf_index": imf_index,
                    "per_path_values": list(rep.per_path_values),
                    "per_split_values": list(rep.per_split_values),
                    "excluded_groups": [list(e) for e in rep.excluded_groups],
                    "n_paths_total": rep.n_paths_total,
                    "n_paths_voided": rep.n_paths_voided,
                    "failed_splits": list(rep.failed_splits),
                    "failed_reasons": [list(r) for r in rep.failed_reasons],
                    "decompose_scope": cfg.decompose_scope,
                }
                for g, reason in rep.excluded_groups:
                    item = (h, g, reason)
                    if item not in state.exclusions:
                        state.exclusions.append(item)

    for crit, fname in (
        (Criterion.VARIANCE_REDUCTION, "cv_variance_reduction.csv"),
        (Criterion.VAR, "cv_var.csv"),
    ):
        header = ["horizon", "path"]
        for m in methods:
            header += [f"{m.value}_{c}" for c in ("mean", "std", "skew", "kurt")]
        rows = []
        for imf_index, h in state.rows:
            n_paths = 0
            cells = []
            for m in methods:
                rep = state.cv_reports.get((m, h, crit))
                if rep is None or rep.stats is None:
                    cells += [float("nan")] * 4
                    continue
                n_paths = max(n_paths, len(rep.per_path_values))
                cells += [rep.stats.mean, rep.stats.std, rep.stats.skew, rep.stats.kurt]
            rows.append([h, n_paths] + cells)
        path = state.outdir / fname
        _write_csv(path, header, rows)
        state.artifacts.append(path.name)
    path = state.outdir / "cv_paths.json"
    _write_json(path, sidecar)
    state.artifacts.append(path.name)


def _emit_determinants(state: PipelineState) -> None:
    """Performance-vs-matching-degree regressions across (IMF, horizon) rows."""
    methods = [m for m in state.cfg.method_list() if m in (Method.MV, *EMD_FAMILY)]
    match_by_imf = {m.imf_index: m.r_squared for m in state.match_rows if m.imf_index}
    det_rows = []
    for crit, panel in (
        (Criterion.VARIANCE_REDUCTION, "variance_reduction"),
        (Criterion.VAR, "var"),
    ):
        for method in methods:
            xs, ys = [], []
            for imf_index, h in state.rows:
                rep = state.cv_reports.get((method, h, crit))
                if rep is None or rep.stats is None or imf_index not in match_by_imf:
                    continue
                xs.append(match_by_imf[imf_index])
                ys.append(rep.stats.mean)
            if len(xs) < 3:
                state.warnings.append(f"determinants {panel}/{method.value}: fewer than 3 rows")
                continue
            try:
                fit = determinant_regression(np.array(ys), np.array(xs))
            except EmdHedgeError as exc:
                state.warnings.append(f"determinants {panel}/{method.value}: {exc}")
                continue
            det_rows.append(
                [
                    panel,
                    method.value,
                    fit.beta_origin,
                    fit.t_origin,
                    significance_stars(fit.t_origin, fit.n_obs - 1),
                    fit.r2_origin,
                    fit.alpha,
                    fit.t_alpha,
                    significance_stars(fit.t_alpha, fit.n_obs - 2),
                    fit.beta_affine,
                    fit.t_affine,
                    significance_stars(fit.t_affine, fit.n_obs - 2),
                    fit.r2_affine,
                    fit.n_obs,
                ]
            )
    path = state.outdir / "determinants.csv"
    _write_csv(
        path,
        [
            "panel",
            "method",
            "beta_origin",
            "t_origin",
            "sig_origin",
            "r2_origin",
            "alpha",
            "t_alpha",
            "sig_alpha",
            "beta_affine",
            "t_affine",
            "sig_affine",
            "r2_affine",
            "n",
        ],
        det_rows,
    )
    state.artifacts.append(path.name)

    # relative VaR performance of the EMD family vs the MV baseline
    rel_rows = []
    for method in (m for m in EMD_FAMILY if m in state.cfg.method_list()):
        xs, ys = [], []
        for imf_index, h in state.rows:
            rep = state.cv_reports.get((method, h, Criterion.VAR))
            mv = state.cv_reports.get((Method.MV, h, Criterion.VAR))
            if (
                rep is None
                or rep.stats is None
                or mv is None
                or mv.stats is None
                or imf_index not in match_by_imf
            ):
                continue
            try:
                rel = relative_performance(rep.stats.mean, mv.stats.mean)
            except EmdHedgeError:
                continue
            xs.append(match_by_imf[imf_index])
            ys.append(rel)
        if len(xs) < 3:
            state.warnings.append(f"relative performance {method.value}: fewer than 3 rows")
            continue
        try:
            fit = determinant_regression(np.array(ys), np.array(xs))
        except EmdHedgeError as exc:
            state.warnings.append(f"relative performance {method.value}: {exc}")
            continue
        rel_rows.append(
            [
                method.value,
                fit.alpha,
                fit.t_alpha,
                significance_stars(fit.t_alpha, fit.n_obs - 2),
                fit.beta_affine,
                fit.t_affine,
                significance_stars(fit.t_affine, fit.n_obs - 2),
                fit.r2_affine,
                fit.n_obs,
            ]
        )
    path = state.outdir / "relative_performance.csv"
    _write_csv(
        path,
        ["method", "alpha", "t_alpha", "sig_alpha", "beta", "t_beta", "sig_beta", "r_squared", "n"],
        rel_rows,
    )
    state.artifacts.append(path.name)


STAGES = ("decompose", "preliminary", "insample", "cv", "determinants")


def _check_cv_against_data(state: PipelineState) -> None:
    """Reject a CV config that the loaded data cannot serve, before any artifact:
    k >= the number of partition groups (for a calendar-year partition this
    needs the data), or an explicit horizon that excludes every group."""
    cfg = state.cfg
    part = cfg.partition_of(state.spot)
    if cfg.k >= part.n_groups:
        raise DataError(f"k must be < N, got k={cfg.k} with {part.n_groups} partition groups")
    for h in cfg.horizon_list() or ():
        if len(excluded_groups(part, h, CV_CRITERIA, cfg.min_obs)) == part.n_groups:
            raise DataError(
                f"horizon {h} excludes every partition group "
                f"(largest group: {max(part.sizes)} observations)"
            )


def run_pipeline(cfg: RunConfig, stages: tuple[str, ...] = STAGES) -> Path:
    """Run the selected stages and write the manifest; returns the out dir.

    A stage that raises ends the run with a ``failed`` manifest; the error is
    then re-raised as a ``DataError`` if it was one, else as a
    ``NumericError``, so the CLI exits 2 or 3.
    """
    cfg.method_list()  # a bad method list is a usage error, before any artifact
    state = _load_state(cfg)
    if "cv" in stages:
        _check_cv_against_data(state)
    status = "ok"
    failed_stage = None
    error: Exception | None = None
    stage_fns = {
        "decompose": _emit_decomposition,
        "preliminary": _emit_preliminary,
        "insample": _emit_insample,
        "cv": _emit_cv,
        "determinants": _emit_determinants,
    }
    try:
        for stage in STAGES:
            if stage in stages:
                stage_fns[stage](state)
    except Exception as exc:  # any failure, expected or not, ends the run with a manifest
        status = "failed"
        failed_stage = stage
        error = exc
        reason = str(exc) if isinstance(exc, EmdHedgeError) else f"{type(exc).__name__}: {exc}"
        state.warnings.append(f"stage {stage} failed: {reason}")
    manifest = {
        "version": __version__,
        "status": status,
        "failed_stage": failed_stage,
        "stages": list(stages),
        "config": asdict(cfg),
        "dropped_rows": state.dropped_rows,
        "artifacts": state.artifacts,
        "warnings": state.warnings,
        "exclusions": [list(e) for e in state.exclusions],
        "counters": {"cv_failed_splits": state.cv_failed_splits},
        "skipped_methods": [
            m.value for m in ALL_METHODS if m not in cfg.method_list()
        ],
    }
    _write_json(state.outdir / "manifest.json", manifest)
    if error is not None:
        cls = DataError if isinstance(error, DataError) else NumericError
        raise cls(f"pipeline stage '{failed_stage}' failed: {reason} (see manifest)") from error
    return state.outdir


# ---------------------------------------------------------------------------
# subcommands

def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input")
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--date-col", dest="date_col")
    p.add_argument("--spot-col", dest="spot_col")
    p.add_argument("--futures-col", dest="futures_col")
    p.add_argument("--k")
    p.add_argument("--alpha")
    p.add_argument("--horizons")
    p.add_argument("--horizon-cap", dest="horizon_cap")
    p.add_argument("--partition")
    p.add_argument("--methods")
    p.add_argument("--decompose-scope", dest="decompose_scope", choices=["full", "per-segment"])
    p.add_argument("--envelope-tolerance", dest="envelope_tolerance")
    p.add_argument("--max-sifts", dest="max_sifts")
    p.add_argument("--max-imfs", dest="max_imfs")
    p.add_argument("--mirror")
    p.add_argument("--max-lag", dest="max_lag")
    p.add_argument("--min-obs", dest="min_obs")
    p.add_argument("--seed")
    p.add_argument("--levels", choices=["log", "raw"])


def _cmd_synth(args) -> int:
    length = int(args.length)
    seed = int(args.seed or 0)
    if args.mode == "tones":
        tones = []
        if args.tones:
            for tok in args.tones.split(","):
                period, amp = tok.split(":")
                tones.append((float(period), float(amp)))
        spec = SynthSpec(
            length=length,
            seed=seed,
            tones=tuple(tones),
            trend_slope=float(args.trend),
            noise_sigma=float(args.noise),
        )
        series = gen_tones(spec)
        spot_vals = fut_vals = series.values
        ts = series.timestamps
    else:
        spec = SynthSpec(
            length=length,
            seed=seed,
            coint=CointSpec(
                long_run_slope=float(args.b),
                basis_phi=float(args.phi),
                basis_sigma=float(args.basis_sigma),
            ),
        )
        spot, fut = gen_coint_pair(spec)
        spot_vals, fut_vals, ts = spot.values, fut.values, spot.timestamps
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        [str(ts[i]), spot_vals[i], fut_vals[i]]
        for i in range(length)
    ]
    _write_csv(out, ["date", "spot", "futures"], rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="emdhedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic spot/futures CSV")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--length", default="1000")
    p_synth.add_argument("--seed", default="0")
    p_synth.add_argument("--mode", choices=["coint", "tones"], default="coint")
    p_synth.add_argument("--tones", help="comma list of period:amplitude")
    p_synth.add_argument("--trend", default="0.0")
    p_synth.add_argument("--noise", default="0.0")
    p_synth.add_argument("--b", default="0.9")
    p_synth.add_argument("--phi", default="0.8")
    p_synth.add_argument("--basis-sigma", dest="basis_sigma", default="0.005")

    stage_of = {
        "decompose": ("decompose",),
        "hedge": ("decompose", "insample"),
        "cv": ("decompose", "cv"),
        "analyze": ("decompose", "preliminary", "cv", "determinants"),
        "pipeline": STAGES,
    }
    for name in stage_of:
        p = sub.add_parser(name)
        _add_common_flags(p)

    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return _cmd_synth(args)
        cfg = parse_config(args)
        run_pipeline(cfg, stages=stage_of[args.command])
        return 0
    except SystemExit_ as exc:
        if exc.message:
            print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
