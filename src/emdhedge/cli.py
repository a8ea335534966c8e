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
import json
import math
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, asdict
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
from .cpcv import (
    MIN_PATHS, Criterion, PathReport, Scheme, excludes_every_group, partition, run_cv, split_table, why_too_few_paths,
)
from .emd import ImfSet, SiftConfig, _decomposed, decompose_all
from .errors import DataError, EmdHedgeError, NumericError
from .estimators import Method, horizon_of, pair_imfs
from .methods import EMD_FAMILY, make_ratio_fn, training_segments
from .performance import effectiveness_rows
from .series import PriceSeries, load_csv, log_returns
from .synth import CointSpec, SynthSpec, gen_coint_pair, gen_tones


@dataclass(frozen=True)  # checked once, at construction
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

    def __post_init__(self):
        """Check the rules a config obeys on its own, whether parsed or built
        in code. The CV partition's rules (``cpcv.why_too_few_paths``) apply
        only to runs with a CV stage; the decompose stage checks them."""
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        self.partition_scheme()
        if self.max_lag < 0:
            raise UsageError(f"max_lag must be >= 0, got {self.max_lag}")
        try:
            self.sift_config()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if not (0.0 < self.alpha <= 0.5):
            raise UsageError(f"alpha must be in (0, 0.5], got {self.alpha}")
        if self.horizon_cap < 1:
            raise UsageError("horizon_cap must be >= 1")
        if self.decompose_scope not in ("full", "per-segment"):
            raise UsageError(f"bad decompose_scope '{self.decompose_scope}'")
        if self.levels not in ("log", "raw"):
            raise UsageError(f"bad levels '{self.levels}' (use log or raw)")
        if self.min_obs is not None and self.min_obs < 1:
            raise UsageError(f"min_obs must be >= 1, got {self.min_obs}")
        horizons = self.horizon_list()
        if horizons is not None and len(set(horizons)) < len(horizons):
            raise UsageError(f"duplicate horizons in '{self.horizons}'")
        methods = self.method_list()
        if len(set(methods)) < len(methods):
            raise UsageError(f"duplicate methods in '{self.methods}'")

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config file + flag merging

# config key -> the type its string value is coerced to, from the field's
# annotation (a string under ``from __future__ import annotations``)
_TYPE_OF = {"int": int, "int | None": int, "float": float}
_CONFIG_TYPES = {f.name: _TYPE_OF.get(f.type, str) for f in fields(RunConfig)}


def _read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    out = {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:  # e.g. a directory, or no read permission
        raise UsageError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"undecodable config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
        out[key] = value
    return out


def _coerce(key: str, value):
    try:
        return _CONFIG_TYPES[key](value)
    except ValueError:
        raise UsageError(f"bad value for '{key}': {value}") from None


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Flags override config-file values override defaults; ``RunConfig``
    checks the merged values."""
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_TYPES if getattr(args, key, None) is not None)
    return RunConfig(**{key: _coerce(key, value) for key, value in values.items()})


# ---------------------------------------------------------------------------
# emission helpers

def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """The header, then one line per row: ``str`` of each cell, comma-joined.
    Cells are ``str``, ``int`` or ``float`` (a numpy float64's ``str`` is the
    same), so a float is written at its shortest round-trip repr; a missing
    cell is passed as ``""``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_csv(state: PipelineState, name: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write one report table into the bundle and list it as an artifact."""
    _write_csv(state.outdir / name, header, rows)
    state.artifacts.append(name)


# ---------------------------------------------------------------------------
# pipeline stages

@dataclass
class PipelineState:
    cfg: RunConfig
    outdir: Path
    stages: tuple[str, ...] = ()  # the stages this run selects
    spot: PriceSeries | None = None  # the input's legs, set by the load stage
    fut: PriceSeries | None = None
    dropped_rows: int | None = None  # the input's rows with a blank price
    groups: tuple[range, ...] | None = None  # the CV partition's groups; None for runs without a CV stage
    warnings: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    spot_set: ImfSet | None = None
    fut_set: ImfSet | None = None
    # each leg's 1-day log-return decomposition, or its error, for the preliminary stage
    return_sets: list[ImfSet | EmdHedgeError] | None = None
    # per-segment CV: each training segment's (spot, futures) decompositions, each an ImfSet or its error
    segment_sets: dict[range, tuple] = field(default_factory=dict)
    pairs: list | None = None
    rows: list[tuple[int, int]] = field(default_factory=list)  # (imf_index, horizon)
    match_rows: list | None = None
    cv_reports: dict = field(default_factory=dict)  # (method, horizon, criterion) -> PathReport
    exclusions: list = field(default_factory=list)
    cv_failed_splits: Counter = field(default_factory=Counter)  # exception class -> failed CV splits
    empty_tables: dict[str, str] = field(default_factory=dict)  # header-only table -> why it has no row


def _imfset_payload(s: ImfSet, sift_cfg: SiftConfig) -> dict:
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
        "config": asdict(sift_cfg),
    }


def _warn_unconverged(state: PipelineState, what: str, s: ImfSet) -> None:
    """One manifest warning for a decomposition with IMFs left at the sift cap."""
    if n := sum(not imf.converged for imf in s.imfs):
        state.warnings.append(f"decomposition of {what}: {n} of {len(s.imfs)} IMFs stopped unconverged at the sift cap")


def _emit_decomposition(state: PipelineState) -> None:
    """Decompose both legs, pair their IMFs and select the table rows, then
    write the decomposition tables. A CV partition that cannot serve the CV
    stage, an explicit horizon with no in-sample return, a leg with no IMF,
    no row for a run that fills per-horizon tables, or rows the CV stage
    cannot score, fail the stage before its first artifact. The run's one
    lockstep ``decompose_all`` call takes the prices, then, with a
    preliminary stage, their 1-day log returns, then, for a per-segment CV
    stage with an EMD method, both legs of each training segment of the
    partition's splits."""
    cfg = state.cfg
    groups = state.groups = _cv_partition(state) if "cv" in state.stages else None
    if "insample" in state.stages:  # an explicit horizon with no in-sample returns raises here
        for h in cfg.horizon_list() or ():
            log_returns(state.spot.values, h)
    sift_cfg = cfg.sift_config()
    prices = [state.spot.values, state.fut.values]
    returns = [log_returns(values, 1) for values in prices] if "preliminary" in state.stages else []
    segments = []
    if groups is not None and cfg.decompose_scope == "per-segment" and set(EMD_FAMILY) & set(cfg.method_list()):
        segments = list(training_segments(groups, split_table(len(groups), cfg.k)[1]).values())
    pieces = [leg.values[seg.start : seg.stop] for seg in segments for leg in (state.spot, state.fut)]
    results = decompose_all(prices + returns + pieces, sift_cfg)
    state.spot_set, state.fut_set = map(_decomposed, results[:2])
    n = len(prices + returns)
    state.return_sets = results[2:n]
    state.segment_sets = dict(zip(segments, zip(results[n::2], results[n + 1 :: 2])))
    legs = (("spot", state.spot_set), ("futures", state.fut_set))
    for name, s in legs:
        _warn_unconverged(state, f"{name} prices [0, {s.source_len})", s)
    state.pairs, surplus = pair_imfs(state.spot_set, state.fut_set)
    state.warnings.extend(f"unmatched {s} excluded from pairing" for s in surplus)
    rows = state.rows = _select_rows(state)
    if not rows:
        if "insample" in state.stages or "cv" in state.stages:
            raise DataError(f"no usable (imf, horizon) rows under the horizon cap {cfg.horizon_cap}")
        state.warnings.append("no usable (imf, horizon) rows under the horizon cap")
    # the explicit-horizon rule of _cv_partition, for the rows as a whole
    elif groups is not None:
        _check_served(groups, [h for _, h in rows], cfg.min_obs)

    for name, s in legs:
        header = ["t"] + [f"imf{i + 1}" for i in range(len(s.imfs))] + ["residue"]
        # a generator, so each leg's columns are freed once its table is written
        columns = (values.tolist() for values in [*(imf.values for imf in s.imfs), s.residue])
        _emit_csv(state, f"decomposition_{name}.csv", header, zip(range(s.source_len), *columns))
    _write_json(state.outdir / "decomposition.json", {name: _imfset_payload(s, sift_cfg) for name, s in legs})
    state.artifacts.append("decomposition.json")

    # cycle table, one row per leg
    n = max(len(state.spot_set.imfs), len(state.fut_set.imfs))
    header = ["leg"] + [f"imf{i + 1}" for i in range(n)]
    cycle_rows = [[name] + [imf.cycle for imf in s.imfs] + [""] * (n - len(s.imfs)) for name, s in legs]
    _emit_csv(state, "cycles.csv", header, cycle_rows)


def _select_rows(state: PipelineState) -> list[tuple[int, int]]:
    """(imf index, hedging horizon) rows for the hedge/cv tables."""
    cfg = state.cfg
    cycles = [imf.cycle for imf in state.spot_set.imfs]
    rows: list[tuple[int, int]] = []
    horizons = cfg.horizon_list()
    if horizons is None:
        for i, c in enumerate(cycles, start=1):
            h = horizon_of(c)
            kept = [j for j, hj in rows if hj == h]  # tables and CV reports are keyed by horizon
            if kept:
                state.warnings.append(f"imf{i} dropped: horizon {h} is already imf{kept[0]}'s")
            elif h <= cfg.horizon_cap:
                rows.append((i, h))
    else:
        for h in horizons:
            nearest = min(range(len(cycles)), key=lambda j: abs(cycles[j] - h)) + 1
            rows.append((nearest, h))
    return rows


def _emit_preliminary(state: PipelineState) -> None:
    """Variance decomposition of the log-return series, and matching degree;
    the decompositions come from the decompose stage, and are freed here."""
    rows = []
    legs = (("spot", state.spot), ("futures", state.fut))
    return_sets, state.return_sets = state.return_sets, None
    for (name, series), lr_set in zip(legs, map(_decomposed, return_sets)):
        _warn_unconverged(state, f"{name} log returns [1, {len(series)})", lr_set)
        for vr in variance_decomposition(lr_set, log_returns(series.values, 1)):
            label = f"imf{vr.imf_index}" if vr.imf_index is not None else "residue"
            rows.append([name, label, vr.variance, vr.percent])
    _emit_csv(state, "variance_decomposition.csv", ["leg", "component", "variance", "percent"], rows)

    state.match_rows = matching_degree(state.pairs)
    rows = [
        [f"imf{m.imf_index}", m.beta, m.r_squared, m.cycle_spot, m.cycle_fut]
        if m.imf_index is not None
        else ["residue", m.beta, m.r_squared, "", ""]  # a residue has no cycle
        for m in state.match_rows
    ]
    header = ["component", "beta", "r_squared", "cycle_spot", "cycle_fut"]
    _emit_csv(state, "matching_degree.csv", header, rows)


def _ratio_fn(state: PipelineState, method: Method, imf_index: int, h: int, imfs=None, groups=None):
    """The ratio function of one table cell; ``imfs`` defaults to the whole-series decompositions."""
    cfg = state.cfg
    imfs = (state.spot_set, state.fut_set) if imfs is None else imfs
    return make_ratio_fn(
        method, state.spot, state.fut, h, imf_index, imfs, cfg.max_lag, cfg.levels == "log", groups
    )


def _emit_insample(state: PipelineState) -> None:
    """In-sample tables: full sample as both training and testing set."""
    cfg = state.cfg
    methods = cfg.method_list()
    ratio_rows, score_rows = [], {crit: [] for crit in Criterion}
    for imf_index, h in state.rows:
        ds, df = log_returns(state.spot.values, h), log_returns(state.fut.values, h)
        ratios = []
        for method in methods:
            (ratio,) = _ratio_fn(state, method, imf_index, h)(np.ones((1, 1), dtype=bool))
            if isinstance(ratio, EmdHedgeError):
                state.warnings.append(f"in-sample {method.value} imf{imf_index} h={h}: {ratio}")
                ratio = float("nan")
            ratios.append(ratio)
        ratio_rows.append([f"imf{imf_index}", h] + ratios)
        ok = [i for i, r in enumerate(ratios) if not math.isnan(r)]
        # the row's portfolios, scored by one call per criterion
        portfolios = ds[None, :] - np.array([ratios[i] for i in ok])[:, None] * df[None, :]
        for crit in Criterion:
            values = [float("nan")] * len(methods)
            if ok:
                try:
                    got = effectiveness_rows(crit, ds, portfolios, cfg.alpha)
                    why = "degenerate spot returns"  # the only NaN a score can return
                except EmdHedgeError as exc:  # e.g. too few observations for the VaR quantile
                    got, why = np.full(len(ok), np.nan), str(exc)
                for i, v in zip(ok, got.tolist()):
                    values[i] = v
                    if math.isnan(v):
                        state.warnings.append(
                            f"in-sample {methods[i].value} imf{imf_index} h={h}: {crit.value} not scored: {why}"
                        )
            score_rows[crit].append([f"imf{imf_index}", h] + values)
    if not any(math.isfinite(v) for row in ratio_rows for v in row[2:]):  # a table of NaN alone fails
        raise DataError("no in-sample hedge ratio for any method and horizon")
    header = ["imf", "horizon"] + [m.value for m in methods]
    _emit_csv(state, "insample_ratios.csv", header, ratio_rows)
    for crit in Criterion:  # insample_variance_reduction.csv, insample_var.csv
        _emit_csv(state, f"insample_{crit.value}.csv", header, score_rows[crit])


def _emit_cv(state: PipelineState) -> None:
    """Cross-validated path statistics plus a JSON sidecar with per-path
    values: each entry is a ``PathReport``'s fields but ``stats``, with the
    row's ``imf_index`` and the run's ``decompose_scope``."""
    cfg = state.cfg
    methods = cfg.method_list()
    sidecar: dict = {}
    tables: dict = {crit: [] for crit in Criterion}  # criterion -> one row per horizon
    imfs = state.segment_sets if cfg.decompose_scope == "per-segment" else None
    keys = [f.name for f in fields(PathReport) if f.name != "stats"]
    for imf_index, h in state.rows:
        try:
            fns = {m.value: _ratio_fn(state, m, imf_index, h, imfs, state.groups) for m in methods}
            row = run_cv(state.spot, state.fut, fns, h, state.groups, cfg.k, min_obs=cfg.min_obs, alpha=cfg.alpha)
        except EmdHedgeError as exc:  # holds for the whole horizon, e.g. all groups excluded
            state.warnings.extend(f"cv {m.value} imf{imf_index} h={h}: {exc}" for m in methods)
            for crit in Criterion:
                tables[crit].append([h, 0] + [float("nan")] * (4 * len(methods)))
            continue
        # every report of a horizon holds the same excluded groups
        state.exclusions.extend((h, g, reason) for g, reason in next(iter(row.values())).excluded_groups)
        cv_rows = {crit: [h, 0] for crit in Criterion}  # criterion -> horizon, paths, then each method's moments
        for method in methods:
            reports = {c: row[method.value, c] for c in Criterion}
            failed = Counter(cls for cls, _ in reports[Criterion.VARIANCE_REDUCTION].failed_reasons)
            state.cv_failed_splits.update(failed)
            missing = [(c, r) for c, r in reports.items() if r.stats is None]
            voided = [f"{r.n_paths_voided} of {r.n_paths_total} {c.value} paths voided" for c, r in missing]
            if voided:
                classes = ", ".join(f"{n} {cls}" for cls, n in sorted(failed.items())) or "none"
                state.warnings.append(
                    f"cv {method.value} imf{imf_index} h={h}: no path statistics, fewer than "
                    f"{MIN_PATHS} paths left ({', '.join(voided)}); failed splits: {classes}"
                )
            for crit, rep in reports.items():
                state.cv_reports[(method, h, crit)] = rep
                sidecar[f"{method.value}:h{h}:{crit.value}"] = {key: getattr(rep, key) for key in keys} | {
                    "imf_index": imf_index, "decompose_scope": cfg.decompose_scope,
                }
                if rep.stats is None:
                    cv_rows[crit] += [float("nan")] * 4
                else:
                    cv_rows[crit][1] = max(cv_rows[crit][1], len(rep.per_path_values))
                    cv_rows[crit] += [rep.stats.mean, rep.stats.std, rep.stats.skew, rep.stats.kurt]
        for crit, cv_row in cv_rows.items():
            tables[crit].append(cv_row)

    for seg, sets in state.segment_sets.items():
        for leg, s in zip(("spot", "futures"), sets):
            if isinstance(s, ImfSet):
                _warn_unconverged(state, f"{leg} training segment [{seg.start}, {seg.stop})", s)
    for crit in Criterion:  # a table of NaN alone is a failed stage, not a result
        if not any(math.isfinite(v) for row in tables[crit] for v in row[2:]):
            raise DataError(f"no {crit.value} path statistics for any method and horizon")
    header = ["horizon", "path"] + [f"{m.value}_{c}" for m in methods for c in ("mean", "std", "skew", "kurt")]
    for crit in Criterion:  # cv_variance_reduction.csv, cv_var.csv
        _emit_csv(state, f"cv_{crit.value}.csv", header, tables[crit])
    _write_json(state.outdir / "cv_paths.json", sidecar)
    state.artifacts.append("cv_paths.json")


def _emit_determinants(state: PipelineState) -> None:
    """Performance-vs-matching-degree regressions across (IMF, horizon) rows:
    the CV mean of each method (``determinants.csv``) and the EMD family's VaR
    relative to MV's (``relative_performance.csv``). A table left without a
    row is named in the manifest's ``empty_tables`` with the reason."""
    methods = state.cfg.method_list()
    match_by_imf = {m.imf_index: m.r_squared for m in state.match_rows if m.imf_index}
    failed: dict[str, None] = {}  # the distinct errors of the current table's fits, in order

    def fit(label: str, method: Method, crit: Criterion, y_of):
        """The regression of ``y_of(report, h)`` on the rows' matching degree,
        skipping rows without a CV mean or where ``y_of`` gives None; None,
        with a warning, when it cannot be fitted."""
        xs, ys = [], []
        for imf_index, h in state.rows:
            rep = state.cv_reports.get((method, h, crit))
            if rep is None or rep.stats is None or imf_index not in match_by_imf:
                continue
            y = y_of(rep, h)
            if y is not None:
                xs.append(match_by_imf[imf_index])
                ys.append(y)
        try:
            return determinant_regression(np.array(ys), np.array(xs))
        except EmdHedgeError as exc:
            state.warnings.append(f"{label}: {exc}")
            failed[str(exc)] = None
            return None

    def emit(table: str, header: list[str], rows: list, no_method: str) -> None:
        _emit_csv(state, table, header, rows)
        if not rows:
            state.empty_tables[table] = f"no regression could be fitted: {'; '.join(failed)}" if failed else no_method
        failed.clear()

    def affine(f) -> list:
        return [
            f.alpha, f.t_alpha, significance_stars(f.t_alpha, f.n_obs - 2),
            f.beta_affine, f.t_affine, significance_stars(f.t_affine, f.n_obs - 2),
            f.r2_affine, f.n_obs,
        ]

    def relative_to_mv(label: str, rep: PathReport, h: int) -> float | None:
        mv = state.cv_reports.get((Method.MV, h, Criterion.VAR))
        if mv is None or mv.stats is None:
            return None
        try:
            return relative_performance(rep.stats.mean, mv.stats.mean)
        except EmdHedgeError as exc:  # the row leaves the regression; the warning names it
            state.warnings.append(f"{label} h={h}: {exc}")
            return None

    det_rows = []
    for crit in Criterion:
        for method in (m for m in methods if m in (Method.MV, *EMD_FAMILY)):
            f = fit(f"determinants {crit.value}/{method.value}", method, crit, lambda rep, h: rep.stats.mean)
            if f is not None:
                origin = [f.beta_origin, f.t_origin, significance_stars(f.t_origin, f.n_obs - 1), f.r2_origin]
                det_rows.append([crit.value, method.value] + origin + affine(f))
    header = ["panel", "method", "beta_origin", "t_origin", "sig_origin", "r2_origin", "alpha", "t_alpha"]
    header += ["sig_alpha", "beta_affine", "t_affine", "sig_affine", "r2_affine", "n"]
    emit("determinants.csv", header, det_rows, "no MV or EMD-family method selected")

    rel_rows = []
    for method in (m for m in EMD_FAMILY if m in methods):
        label = f"relative performance {method.value}"
        f = fit(label, method, Criterion.VAR, lambda rep, h: relative_to_mv(label, rep, h))
        if f is not None:
            rel_rows.append([method.value] + affine(f))
    header = ["method", "alpha", "t_alpha", "sig_alpha", "beta", "t_beta", "sig_beta", "r_squared", "n"]
    emit("relative_performance.csv", header, rel_rows, "no EMD-family method selected")


STAGES = ("decompose", "preliminary", "insample", "cv", "determinants")


def _cv_partition(state: PipelineState) -> tuple[range, ...]:
    """The CV partition's groups on the loaded data; a data error when they
    cannot serve the CV stage: calendar years that break
    ``why_too_few_paths``' rules (too many splits, or too few paths), or an
    explicit horizon that excludes every group."""
    cfg = state.cfg
    groups = partition(state.spot, *cfg.partition_scheme())
    if why := why_too_few_paths(len(groups), cfg.k):
        raise DataError(why)
    for h in cfg.horizon_list() or ():
        _check_served(groups, [h], cfg.min_obs)
    return groups


def _check_served(groups: tuple[range, ...], horizons: list[int], min_obs: int | None) -> None:
    """A data error when each of ``horizons`` excludes every one of ``groups``."""
    if all(excludes_every_group(groups, h, min_obs) for h in horizons):
        named = ", ".join(map(str, horizons))
        verb = f"horizon {named} excludes" if len(horizons) == 1 else f"horizons {named} each exclude"
        raise DataError(f"{verb} every partition group (largest group: {max(map(len, groups))} observations)")


def run_pipeline(cfg: RunConfig, stages: tuple[str, ...] = STAGES) -> Path:
    """Run the selected stages on the loaded input and write the manifest;
    returns the out dir.

    A stage that raises, loading (``load``) included, ends the run with a
    ``failed`` manifest (a float overflow, division by zero or invalid
    operation raises ``FloatingPointError``); the error is then re-raised
    as a ``DataError`` if it was one (the loader's as it is), else as a
    ``NumericError``, so the CLI exits 2 or 3.
    """
    _, n_groups = cfg.partition_scheme()
    if "cv" in stages and n_groups is not None and (why := why_too_few_paths(n_groups, cfg.k)):
        raise UsageError(why)  # equal:N: a config error, before loading
    if not cfg.input:
        raise UsageError("--input is required")
    state = PipelineState(cfg=cfg, outdir=Path(cfg.out), stages=stages)
    try:
        state.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at --out or above it
        raise UsageError(f"cannot create out directory {cfg.out}: {exc.strerror or exc}") from None
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
    stage = "load"
    try:
        state.spot, state.fut, state.dropped_rows = load_csv(cfg.input, cfg.date_col, cfg.spot_col, cfg.futures_col)
        # float overflow, division by zero and invalid operations fail their
        # stage; underflow does not, as paper-scale runs underflow legitimately
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
        **({"empty_tables": state.empty_tables} if state.empty_tables else {}),
        "skipped_methods": [
            m.value for m in Method if m not in cfg.method_list()
        ],
    }
    _write_json(state.outdir / "manifest.json", manifest)
    if error is not None:
        if failed_stage == "load" and isinstance(error, DataError):
            raise error
        cls = DataError if isinstance(error, DataError) else NumericError
        raise cls(f"pipeline stage '{failed_stage}' failed: {reason} (see manifest)") from error
    return state.outdir


# ---------------------------------------------------------------------------
# subcommands

def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one ``--<field-name>`` per ``RunConfig`` field; values
    are coerced in ``parse_config`` and checked by ``RunConfig``, as
    config-file values are."""
    p.add_argument("--config")
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name)


def _tone_list(text: str) -> tuple[tuple[float, float], ...]:
    """``period:amplitude`` pairs, comma-separated."""
    try:
        pairs = [tok.split(":") for tok in text.split(",")] if text else []
        return tuple((float(period), float(amp)) for period, amp in pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tone list '{text}' (use period:amplitude,...)") from None


# synth --mode -> its own flags, each flag's dest -> the spec field it sets
_SYNTH_FLAGS = {
    "tones": {"tones": "tones", "trend": "trend_slope", "noise": "noise_sigma"},
    "coint": {"b": "long_run_slope", "phi": "basis_phi", "basis_sigma": "basis_sigma"},
}


def _cmd_synth(args) -> int:
    """A flag of the other ``--mode`` is a usage error; a flag left unset
    takes its spec field's default."""
    for mode, flags in _SYNTH_FLAGS.items():
        given = [dest.replace("_", "-") for dest in flags if getattr(args, dest) is not None]
        if mode != args.mode and given:
            raise UsageError(f"--{given[0]} is a --mode {mode} flag, not a --mode {args.mode} one")
    values = {name: v for dest, name in _SYNTH_FLAGS[args.mode].items() if (v := getattr(args, dest)) is not None}
    if args.mode == "tones":
        spot = fut = gen_tones(SynthSpec(length=args.length, seed=args.seed, **values))
    else:
        spot, fut = gen_coint_pair(SynthSpec(length=args.length, seed=args.seed, coint=CointSpec(**values)))
    out = Path(args.out)
    rows = zip(map(str, spot.timestamps.tolist()), spot.values.tolist(), fut.values.tolist())
    if out.parent.exists() and not out.parent.is_dir():
        raise UsageError(f"cannot write {args.out}: {out.parent} is not a directory")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, ["date", "spot", "futures"], rows)
    except OSError as exc:  # a directory at --out, or a file further up
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    return 0


# subcommand -> the pipeline stages it runs
_STAGES_OF = {
    "decompose": ("decompose",),
    "hedge": ("decompose", "insample"),
    "cv": ("decompose", "cv"),
    "analyze": ("decompose", "preliminary", "cv", "determinants"),
    "pipeline": STAGES,
}


def _parser() -> _Parser:
    """The command-line parser; every pipeline subcommand gets the common flags."""
    parser = _Parser(prog="emdhedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic spot/futures CSV")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--length", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--mode", choices=["coint", "tones"], default="coint")
    p_synth.add_argument("--tones", type=_tone_list, help="comma list of period:amplitude")
    p_synth.add_argument("--trend", type=float)
    p_synth.add_argument("--noise", type=float)
    p_synth.add_argument("--b", type=float)
    p_synth.add_argument("--phi", type=float)
    p_synth.add_argument("--basis-sigma", dest="basis_sigma", type=float)

    for name in _STAGES_OF:
        _add_common_flags(sub.add_parser(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "synth":
            return _cmd_synth(args)
        cfg = parse_config(args)
        run_pipeline(cfg, stages=_STAGES_OF[args.command])
        return 0
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
