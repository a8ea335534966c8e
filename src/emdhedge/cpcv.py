"""Combinatorial time-series cross-validation with performance paths.

The sample is split chronologically into N groups; every choice of k test
groups gives one train/test split (C(N,k) of them, test sets in lexicographic
order). Each group's test appearances, taken in split order, are assigned
path ids 1..C(N-1,k-1); a path is a chronological reassembly with exactly one
test cell per group. Path scores are the mean of cell scores for variance
reduction and the minimum for VaR.

``run_cv`` scores every method of one horizon on every ``Criterion`` in
one call: the group returns and the spot side of each test group are
computed once, and each criterion's scores are one (method, path, group)
array, with failed and excluded cells as masks, aggregated by the same
kernel as ``path_statistics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, NumericError
from .performance import MOMENTS_MIN_OBS, VAR_MIN_OBS, Criterion, Moments, effectiveness_rows, moments
from .series import PriceSeries, log_returns

__all__ = [
    "Scheme",
    "GroupPartition",
    "PathAssignment",
    "PathReport",
    "partition",
    "enumerate_splits",
    "assign_paths",
    "path_statistics",
    "excluded_groups",
    "excludes_every_group",
    "MIN_PATHS",
    "why_too_few_paths",
    "RatioFn",
    "run_cv",
]


class Scheme(Enum):
    EQUAL_COUNT = "equal"
    CALENDAR_YEAR = "year"


@dataclass(frozen=True)
class GroupPartition:
    groups: tuple[range, ...]
    sizes: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class PathAssignment:
    n_paths: int
    # (group index, split index) -> 1-based path id
    cells: dict[tuple[int, int], int]
    # path id - 1 -> that path's (group index, split index) cells, by group
    paths: tuple[tuple[tuple[int, int], ...], ...]


MIN_PATHS = MOMENTS_MIN_OBS  # the fewest paths whose distribution gets moments


def why_too_few_paths(n_groups: int, k: int) -> str | None:
    """Why N partition groups with k test groups cannot give path
    statistics, or None: k must be below N, and the C(N-1, k-1) paths at
    least ``MIN_PATHS``."""
    if k >= n_groups:
        return f"k must be < N, got k={k} with N={n_groups} partition groups"
    n_paths = math.comb(n_groups - 1, k - 1)
    if n_paths < MIN_PATHS:
        return f"N={n_groups} groups with k={k} give {n_paths} CV paths; path statistics need {MIN_PATHS}"
    return None


# cell status markers in the score table
EXCLUDED = "excluded"
FAILED = "failed"


@dataclass(frozen=True)
class PathReport:
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
    return GroupPartition(groups=groups, sizes=tuple(len(g) for g in groups))


def enumerate_splits(n_groups: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All C(N,k) (test, train) splits, test sets in lexicographic order."""
    if not (1 <= k < n_groups):
        raise DataError(f"k must satisfy 1 <= k < N, got k={k}, N={n_groups}")
    all_groups = set(range(n_groups))
    return tuple(
        (test, tuple(sorted(all_groups - set(test))))
        for test in combinations(range(n_groups), k)
    )


def assign_paths(n_groups: int, k: int) -> PathAssignment:
    """Assign each (group, split) test cell of ``enumerate_splits(n_groups, k)`` a path id.

    Each group's test appearances, in split order, get ids 1, 2, ...; every
    group appears in exactly C(N-1, k-1) splits so the ids line up into that
    many complete paths.
    """
    splits = enumerate_splits(n_groups, k)  # checks (N, k) before math.comb
    n_paths = math.comb(n_groups - 1, k - 1)
    cells: dict[tuple[int, int], int] = {}
    paths = [[None] * n_groups for _ in range(n_paths)]
    counters = [0] * n_groups
    for s_idx, (test, _) in enumerate(splits):
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
    marks = [[cell_scores[c] for c in path] for path in assignment.paths]
    scores = np.array([[math.nan if isinstance(s, str) else s for s in row] for row in marks])
    included = np.array([[not isinstance(s, str) for s in row] for row in marks])
    failed = np.array([[isinstance(s, str) and s == FAILED for s in row] for row in marks])
    return _path_statistics(scores[None], included[None], failed[None], criterion)[0]


def _reduce_rows(values: np.ndarray, keep: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` (``np.mean`` or ``np.min``) of each row's kept values; NaN
    for a row with none. The kept values of the rows with the same count are
    packed left into one contiguous block, so each row reduces with the bits
    of the 1-D call on its own values: numpy's pairwise sum depends on the
    count, so an excluded value must be dropped, not zero-filled or masked."""
    out = np.full(len(values), np.nan)
    counts = keep.sum(axis=1)
    # a set, not np.unique: its first call in a process imports numpy.ma
    for n in sorted(set(counts[counts > 0].tolist())):
        rows = counts == n
        out[rows] = reduce(values[rows][keep[rows]].reshape(-1, n), axis=1)
    return out


def _path_statistics(
    scores: np.ndarray, included: np.ndarray, failed: np.ndarray, criterion: Criterion
) -> list[tuple[tuple[float, ...], Moments | None, int]]:
    """``path_statistics`` of each row of (row, path, group) cell arrays."""
    reduce = np.mean if criterion is Criterion.VARIANCE_REDUCTION else np.min
    rows, n_paths, n_groups = scores.shape
    values = _reduce_rows(scores.reshape(-1, n_groups), included.reshape(-1, n_groups), reduce)
    out = []
    for row, keep in zip(values.reshape(rows, n_paths), ~failed.any(axis=2) & included.any(axis=2)):
        per_path = row[keep]
        stats = moments(per_path) if len(per_path) >= MIN_PATHS else None
        out.append((tuple(per_path.tolist()), stats, n_paths - int(keep.sum())))
    return out


RatioFn = Callable[[Sequence[tuple[int, ...]]], list]
"""A batched ratio function: given the training groups (ascending indices
into the partition's groups, as ``enumerate_splits`` yields them) of a batch
of splits, in split order, it returns one outcome per split, the hedge ratio
or the ``DataError`` or ``NumericError`` its fit raises. Any other exception
ends the call. A split's outcome does not depend on the rest of its batch."""


def excluded_groups(part: GroupPartition, horizon: int, min_obs: int | None = None) -> list[tuple[int, str]]:
    """(group index, reason) of each group too short to score at ``horizon``.

    A group needs ``min_obs`` within-group horizon differences (default
    2 * horizon), and at least ``VAR_MIN_OBS``, the VaR quantile's floor.
    """
    min_obs = max(2 * horizon if min_obs is None else min_obs, VAR_MIN_OBS)
    return [
        (gi, f"{max(len(g) - horizon, 0)} observations at horizon {horizon} < {min_obs}")
        for gi, g in enumerate(part.groups)
        if len(g) - horizon < min_obs
    ]


def excludes_every_group(part: GroupPartition, horizon: int, min_obs: int | None = None) -> bool:
    """Whether ``excluded_groups`` excludes every group of ``part`` at ``horizon``."""
    return len(excluded_groups(part, horizon, min_obs)) == part.n_groups


def run_cv(
    spot: PriceSeries,
    fut: PriceSeries,
    ratio_fns: dict[str, RatioFn],
    horizon: int,
    part: GroupPartition,
    k: int,
    min_obs: int | None = None,
    alpha: float = 0.05,
) -> dict[tuple[str, Criterion], PathReport]:
    """Run the full combinatorial CV of every method of one horizon.

    ``ratio_fns`` maps each method label to its ratio function; the result
    maps each (label, criterion) to its report, labels in dict order, every
    ``Criterion`` in enum order. Each test group is scored separately on
    within-group horizon differences; groups too short for ``min_obs`` of
    them are excluded at this horizon (``excluded_groups``). If every group
    is excluded, no fit is made.

    Each ratio function is called once, in dict order, with every split's
    training groups (indices into ``part.groups``) in split order. A split
    whose outcome is a ``NumericError`` or ``DataError``, or a non-finite
    ratio, fails for that method, its exception class and message going to
    ``PathReport.failed_reasons``. Each included test group is then scored
    once: the ratios of every (method, split) cell it tests that did not
    fail form one portfolio per row, and ``effectiveness_rows`` scores all
    rows per criterion, so the group's spot side is computed once per
    (horizon, group). A degenerate spot side or a non-finite score excludes
    the cell. Each criterion's scores form one (method, path, group) array;
    per-split values average a split's included test-group scores, in test
    order, and path values follow ``path_statistics``' rules.
    """
    if len(spot) != len(fut):
        raise DataError("spot and futures series must be aligned")
    splits = enumerate_splits(part.n_groups, k)
    assignment = assign_paths(part.n_groups, k)
    if excludes_every_group(part, horizon, min_obs):
        raise InsufficientDataError(f"all groups excluded at horizon {horizon}")
    excluded = excluded_groups(part, horizon, min_obs)
    skip = {g for g, _ in excluded}

    # one hedge ratio per (method, split); NaN marks a failed split
    batch = [train for _, train in splits]
    ratios = np.full((len(ratio_fns), len(batch)), np.nan)
    failures = [{} for _ in ratio_fns]  # per method: failed split -> (exception class, message)
    for m, ratio_fn in enumerate(ratio_fns.values()):
        for s_idx, (_, ratio) in enumerate(zip(batch, ratio_fn(batch), strict=True)):
            if not isinstance(ratio, (NumericError, DataError)) and not math.isfinite(ratio):
                ratio = NumericError("non-finite hedge ratio")
            if isinstance(ratio, (NumericError, DataError)):
                failures[m][s_idx] = (type(ratio).__name__, str(ratio))
            else:
                ratios[m, s_idx] = ratio
    failed = np.isnan(ratios)

    # each included test group once, for every (method, split) it tests
    split_of = np.array([[s for _, s in path] for path in assignment.paths])  # (path, group) -> split
    scores = {c: np.full((len(ratio_fns), assignment.n_paths, part.n_groups), np.nan) for c in Criterion}
    for g, rg in enumerate(part.groups):
        ok = ~failed[:, split_of[:, g]]  # (method, path)
        if g in skip or not ok.any():
            continue
        ds, df = (log_returns(leg.values[rg.start : rg.stop], horizon) for leg in (spot, fut))
        portfolios = ds[None, :] - ratios[:, split_of[:, g]][ok][:, None] * df[None, :]
        for c in Criterion:
            scores[c][:, :, g][ok] = effectiveness_rows(c, ds, portfolios, alpha)

    # per-split and per-path values through index arrays
    tests = np.array([test for test, _ in splits])  # (split, test slot) -> group
    test_paths = np.array([[assignment.cells[g, s] - 1 for g in test] for s, test in enumerate(tests.tolist())])
    reports: dict[tuple[str, Criterion], PathReport] = {}
    for c in Criterion:
        cells = scores[c][:, test_paths, tests].reshape(-1, k)
        per_split = _reduce_rows(cells, np.isfinite(cells), np.mean).reshape(len(ratio_fns), len(batch)).tolist()
        per_path = _path_statistics(scores[c], np.isfinite(scores[c]), failed[:, split_of], c)
        for m, label in enumerate(ratio_fns):
            path_vals, stats, voided = per_path[m]
            reports[label, c] = PathReport(
                per_split_values=tuple(None if math.isnan(v) else v for v in per_split[m]),
                per_path_values=path_vals, stats=stats, excluded_groups=tuple(excluded),
                n_paths_total=assignment.n_paths, n_paths_voided=voided,
                failed_splits=tuple(failures[m]), failed_reasons=tuple(failures[m].values()),
            )
    return {(label, c): reports[label, c] for label in ratio_fns for c in Criterion}
