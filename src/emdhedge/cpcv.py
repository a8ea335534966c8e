"""Combinatorial time-series cross-validation with performance paths.

The sample is split chronologically into N groups; every choice of k test
groups gives one train/test split (C(N,k) of them, test sets in lexicographic
order). Each group's test appearances, taken in split order, are assigned
path ids 1..C(N-1,k-1); a path is a chronological reassembly with exactly one
test cell per group. Path scores are the mean of cell scores for variance
reduction and the minimum for VaR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, NumericError
from .performance import Criterion, Moments, effectiveness_rows, moments
from .series import PriceSeries, restrict

__all__ = [
    "Scheme",
    "GroupPartition",
    "SplitSet",
    "PathAssignment",
    "PathReport",
    "partition",
    "enumerate_splits",
    "assign_paths",
    "path_statistics",
    "excluded_groups",
    "RatioFn",
    "run_cv",
]


class Scheme(Enum):
    EQUAL_COUNT = "equal"
    CALENDAR_YEAR = "year"


@dataclass(frozen=True)
class GroupPartition:
    scheme: Scheme
    groups: tuple[range, ...]
    sizes: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class SplitSet:
    n_groups: int
    k: int
    splits: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (test, train)

    def __len__(self) -> int:
        return len(self.splits)


@dataclass(frozen=True)
class PathAssignment:
    n_paths: int
    # (group index, split index) -> 1-based path id
    cells: dict[tuple[int, int], int]
    # path id - 1 -> that path's (group index, split index) cells, by group
    paths: tuple[tuple[tuple[int, int], ...], ...]

    def cells_of_path(self, path_id: int) -> list[tuple[int, int]]:
        return list(self.paths[path_id - 1]) if 1 <= path_id <= self.n_paths else []


# cell status markers in the score table
EXCLUDED = "excluded"
FAILED = "failed"


@dataclass(frozen=True)
class PathReport:
    method: str
    horizon: int
    criterion: Criterion
    per_split_values: tuple[float | None, ...]
    per_path_values: tuple[float, ...]
    stats: Moments | None
    excluded_groups: tuple[tuple[int, str], ...]
    n_paths_total: int
    n_paths_voided: int
    failed_splits: tuple[int, ...]
    # (exception class, message) of each failed split, aligned with failed_splits
    failed_reasons: tuple[tuple[str, str], ...]


def partition(series: PriceSeries | int, scheme: Scheme, n_groups: int = 10) -> GroupPartition:
    """Partition the sample chronologically.

    EqualCount gives N-1 groups of floor(T/N) samples and a final group with
    the remainder; CalendarYear buckets by timestamp year.
    """
    if scheme is Scheme.EQUAL_COUNT:
        T = series if isinstance(series, int) else len(series)
        if n_groups < 2:
            raise DataError("need at least 2 groups")
        if T < 2 * n_groups:
            raise InsufficientDataError(f"{T} samples for {n_groups} groups")
        base = T // n_groups
        bounds = [i * base for i in range(n_groups)] + [T]
        groups = tuple(range(bounds[i], bounds[i + 1]) for i in range(n_groups))
    elif scheme is Scheme.CALENDAR_YEAR:
        if isinstance(series, int):
            raise DataError("calendar-year partition needs a timestamped series")
        years = series.timestamps.astype("datetime64[Y]").astype(int)
        _, starts = np.unique(years, return_index=True)
        if len(starts) < 2:
            raise InsufficientDataError("need at least 2 distinct calendar years")
        bounds = list(starts) + [len(series)]
        groups = tuple(range(bounds[i], bounds[i + 1]) for i in range(len(starts)))
    else:
        raise DataError(f"unknown partition scheme {scheme}")
    return GroupPartition(scheme=scheme, groups=groups, sizes=tuple(len(g) for g in groups))


def enumerate_splits(n_groups: int, k: int) -> SplitSet:
    """All C(N,k) train/test splits, test sets in lexicographic order."""
    if not (1 <= k < n_groups):
        raise DataError(f"k must satisfy 1 <= k < N, got k={k}, N={n_groups}")
    all_groups = set(range(n_groups))
    splits = tuple(
        (test, tuple(sorted(all_groups - set(test))))
        for test in combinations(range(n_groups), k)
    )
    return SplitSet(n_groups=n_groups, k=k, splits=splits)


def assign_paths(splits: SplitSet) -> PathAssignment:
    """Assign each (group, split) test cell a path id.

    Each group's test appearances, in split order, get ids 1, 2, ...; every
    group appears in exactly C(N-1, k-1) splits so the ids line up into that
    many complete paths.
    """
    n_paths = math.comb(splits.n_groups - 1, splits.k - 1)
    cells: dict[tuple[int, int], int] = {}
    paths = [[None] * splits.n_groups for _ in range(n_paths)]
    counters = [0] * splits.n_groups
    for s_idx, (test, _) in enumerate(splits.splits):
        for g in test:
            counters[g] += 1
            cells[(g, s_idx)] = counters[g]
            paths[counters[g] - 1][g] = (g, s_idx)
    assert all(c == n_paths for c in counters)
    return PathAssignment(n_paths=n_paths, cells=cells, paths=tuple(map(tuple, paths)))


def path_statistics(
    cell_scores: dict[tuple[int, int], float | str],
    assignment: PathAssignment,
    criterion: Criterion,
) -> tuple[tuple[float, ...], Moments | None, int]:
    """Aggregate cell scores into path values and their moments.

    Variance-reduction paths take the mean of their included cells, VaR paths
    the minimum (minmax rule). A path touching a failed split is voided; a
    path with every cell excluded is dropped. Returns
    (path values, moments, n voided/dropped).
    """
    per_path: list[float] = []
    voided = 0
    for p in range(1, assignment.n_paths + 1):
        scores = [cell_scores[c] for c in assignment.cells_of_path(p)]
        if any(s == FAILED for s in scores):
            voided += 1
            continue
        vals = [s for s in scores if not isinstance(s, str)]
        if not vals:
            voided += 1
            continue
        if criterion is Criterion.VARIANCE_REDUCTION:
            per_path.append(float(np.mean(vals)))
        else:
            per_path.append(float(np.min(vals)))
    stats = moments(np.array(per_path)) if len(per_path) >= 4 else None
    return tuple(per_path), stats, voided


RatioFn = Callable[[Sequence[tuple[range, ...]]], list]
"""A batched ratio function: given the training segments (merged index
ranges) of a batch of splits, in split order, it returns one outcome per
split, the hedge ratio or the ``DataError`` or ``NumericError`` its fit
raises. Any other exception ends the call. A split's outcome does not
depend on the rest of its batch."""


def excluded_groups(
    part: GroupPartition,
    horizon: int,
    criteria: tuple[Criterion, ...],
    min_obs: int | None = None,
) -> list[tuple[int, str]]:
    """(group index, reason) of each group too short to score at ``horizon``.

    A group needs ``min_obs`` within-group horizon differences (default
    max(10, 2 * horizon)), and at least 20 when VaR is among the criteria.
    """
    if min_obs is None:
        min_obs = max(10, 2 * horizon)
    if Criterion.VAR in criteria:
        min_obs = max(min_obs, 20)  # empirical quantile floor
    return [
        (gi, f"{max(len(g) - horizon, 0)} observations at horizon {horizon} < {min_obs}")
        for gi, g in enumerate(part.groups)
        if len(g) - horizon < min_obs
    ]


def run_cv(
    spot: PriceSeries,
    fut: PriceSeries,
    ratio_fn: RatioFn,
    horizon: int,
    criteria: tuple[Criterion, ...],
    part: GroupPartition,
    k: int,
    min_obs: int | None = None,
    alpha: float = 0.05,
    method_label: str = "",
) -> dict[Criterion, PathReport]:
    """Run the full combinatorial CV for one (method, horizon).

    ``ratio_fn`` is called once, with every split's training segments
    (merged index ranges, unions of whole ``part`` groups) in split order.
    Each test group is scored separately on within-group horizon differences;
    groups too short for ``min_obs`` of them are excluded at this horizon
    (``excluded_groups``).

    Phase 1 estimates the ratio of every split. A split whose outcome is a
    ``NumericError`` or ``DataError``, or a non-finite ratio, is failed; its
    exception class and message go to ``PathReport.failed_reasons``. Phase
    2 scores each included test group once: the ratios of its non-failed
    splits form one portfolio per row, and ``effectiveness_rows`` scores all
    rows per criterion, so the group's spot-side variance, degeneracy floor
    and alpha-quantile are computed once per group rather than once per
    cell. A degenerate spot side or a non-finite score excludes the cell.
    Per-split values (for reporting) average the split's included
    test-group scores, in test order.
    """
    if len(spot) != len(fut):
        raise DataError("spot and futures series must be aligned")
    splits = enumerate_splits(part.n_groups, k)
    assignment = assign_paths(splits)

    excluded = excluded_groups(part, horizon, criteria, min_obs)
    if len(excluded) == part.n_groups:
        raise InsufficientDataError(f"all groups excluded at horizon {horizon}")
    skip = {g for g, _ in excluded}
    group_rets: list[tuple[np.ndarray, np.ndarray] | None] = []
    for gi, g in enumerate(part.groups):
        if gi in skip:
            group_rets.append(None)
            continue
        sv = np.log(spot.values[g.start : g.stop])
        fv = np.log(fut.values[g.start : g.stop])
        group_rets.append((sv[horizon:] - sv[:-horizon], fv[horizon:] - fv[:-horizon]))

    # phase 1: one hedge ratio per split; None marks a failed split
    batch = [restrict(spot, [part.groups[g] for g in train]).segments for _, train in splits.splits]
    ratios: list[float | None] = []
    failed_splits: list[int] = []
    failed_reasons: list[tuple[str, str]] = []
    for s_idx, (_, ratio) in enumerate(zip(batch, ratio_fn(batch), strict=True)):
        if not isinstance(ratio, (NumericError, DataError)) and not math.isfinite(ratio):
            ratio = NumericError("non-finite hedge ratio")
        if isinstance(ratio, (NumericError, DataError)):
            failed_splits.append(s_idx)
            failed_reasons.append((type(ratio).__name__, str(ratio)))
            ratio = None
        ratios.append(ratio)

    # phase 2: score each test group once for all the splits it tests
    cell_scores: dict[Criterion, dict[tuple[int, int], float | str]] = {c: {} for c in criteria}
    for g, rets in enumerate(group_rets):
        tested_by = [path[g][1] for path in assignment.paths]  # g's test splits, in order
        ok = [s for s in tested_by if ratios[s] is not None]
        for c in criteria:
            for s in tested_by:
                cell_scores[c][(g, s)] = FAILED if ratios[s] is None else EXCLUDED
        if rets is None or not ok:
            continue
        ds, df = rets
        r = np.array([ratios[s] for s in ok])
        portfolios = ds[None, :] - r[:, None] * df[None, :]
        for c in criteria:
            values, _, _ = effectiveness_rows(c, ds, portfolios, alpha)
            for s, v in zip(ok, values.tolist()):
                if math.isfinite(v):  # degenerate spot side gives NaN
                    cell_scores[c][(g, s)] = v

    # per-split values average the split's included test-group scores
    per_split: dict[Criterion, list[float | None]] = {c: [] for c in criteria}
    for s_idx, (test, _) in enumerate(splits.splits):
        for c in criteria:
            vals = [cell_scores[c][(g, s_idx)] for g in test]
            vals = [v for v in vals if not isinstance(v, str)]
            per_split[c].append(float(np.mean(vals)) if vals else None)

    reports: dict[Criterion, PathReport] = {}
    for c in criteria:
        path_vals, stats, voided = path_statistics(cell_scores[c], assignment, c)
        reports[c] = PathReport(
            method=method_label,
            horizon=horizon,
            criterion=c,
            per_split_values=tuple(per_split[c]),
            per_path_values=path_vals,
            stats=stats,
            excluded_groups=tuple(excluded),
            n_paths_total=assignment.n_paths,
            n_paths_voided=voided,
            failed_splits=tuple(failed_splits),
            failed_reasons=tuple(failed_reasons),
        )
    return reports
