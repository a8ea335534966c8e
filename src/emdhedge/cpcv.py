"""Combinatorial time-series cross-validation with performance paths.

The sample is split chronologically into groups, and a partition is the
tuple of its groups' ranges: N equal-count groups (``partition``) or one
group per calendar year (``calendar_years``); every choice of k test groups
gives one train/test split (C(N,k) of them, at most ``MAX_SPLITS``, test sets
in lexicographic order), all made as arrays by ``split_table``. Each group's
test appearances, taken in split order, are assigned paths 0..C(N-1,k-1)-1
(``path_table``); a path is a chronological reassembly with exactly one test
cell per group. Path scores are the mean of cell scores for variance
reduction and the minimum for VaR.

``run_cv`` scores every method of one horizon on every ``Criterion`` in
one call: the group returns and the spot side of each test group are
computed once, and each criterion's scores are one (method, path, group)
array, with failed and excluded cells as masks, aggregated by
``path_statistics``. A (method, split, test group) cell's score reads only
that group's returns and the split's ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

import numpy as np

from .errors import DataError, InsufficientDataError, NumericError
from .performance import MOMENTS_MIN_OBS, VAR_MIN_OBS, Criterion, Moments, effectiveness_rows, moments
from .series import PriceSeries, log_returns

__all__ = [
    "PathReport",
    "partition",
    "calendar_years",
    "split_table",
    "path_table",
    "path_statistics",
    "excluded_groups",
    "excludes_every_group",
    "MIN_PATHS",
    "MAX_SPLITS",
    "why_too_few_paths",
    "RatioFn",
    "run_cv",
]


MIN_PATHS = MOMENTS_MIN_OBS  # the fewest paths whose distribution gets moments
# C(N, k) cap; its cost is extrapolated from runs of at most 15,504 splits (per-segment at
# T=4000, all six methods: ~2.1 s and ~23 MB of max RSS per 1,000 splits) to ~85 s and ~1 GB
MAX_SPLITS = 40_000


def _why_bad_k(n_groups: int, k: int) -> str | None:
    """Why N partition groups cannot be split with k test groups, or None:
    k outside [1, N), or more than ``MAX_SPLITS`` splits."""
    if not 1 <= k < n_groups:
        return f"k must satisfy 1 <= k < N, got k={k}, N={n_groups}"
    if (n_splits := math.comb(n_groups, k)) > MAX_SPLITS:
        return f"N={n_groups} groups with k={k} give {n_splits} CV splits; a run takes at most {MAX_SPLITS}"
    return None


def why_too_few_paths(n_groups: int, k: int) -> str | None:
    """Why N partition groups with k test groups cannot give path
    statistics, or None: ``split_table``'s k rule, then at least
    ``MIN_PATHS`` of the C(N-1, k-1) paths."""
    if why := _why_bad_k(n_groups, k):
        return why
    n_paths = math.comb(n_groups - 1, k - 1)
    if n_paths < MIN_PATHS:
        return f"N={n_groups} groups with k={k} give {n_paths} CV paths; path statistics need {MIN_PATHS}"
    return None


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


def partition(n_obs: int, n_groups: int) -> tuple[range, ...]:
    """The ranges of N = ``n_groups`` chronological groups of T = ``n_obs``
    observations: N-1 groups of floor(T/N) and a last group with the rest."""
    if n_groups < 2:
        raise DataError("need at least 2 groups")
    if n_obs < 2 * n_groups:
        raise InsufficientDataError(f"{n_obs} samples for {n_groups} groups")
    base = n_obs // n_groups
    bounds = [i * base for i in range(n_groups)] + [n_obs]
    return tuple(map(range, bounds[:-1], bounds[1:]))


def calendar_years(timestamps: np.ndarray) -> tuple[range, ...]:
    """One group per calendar year of the increasing ``timestamps``."""
    _, starts = np.unique(timestamps.astype("datetime64[Y]"), return_index=True)
    if len(starts) < 2:
        raise InsufficientDataError("need at least 2 distinct calendar years")
    bounds = [*starts.tolist(), len(timestamps)]
    return tuple(map(range, bounds[:-1], bounds[1:]))


def split_table(n_groups: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All C(N,k) splits, test sets in lexicographic order: (tests, train),
    each split's ascending test groups (splits, k) and its training mask
    (splits, N). A DataError for k outside [1, N) or over ``MAX_SPLITS``
    splits."""
    if why := _why_bad_k(n_groups, k):
        raise DataError(why)
    tests = np.fromiter(chain.from_iterable(combinations(range(n_groups), k)), dtype=np.intp).reshape(-1, k)
    train = np.ones((len(tests), n_groups), dtype=bool)
    np.put_along_axis(train, tests, False, axis=1)
    return tests, train


def path_table(train: np.ndarray) -> np.ndarray:
    """(path, group) -> split, from the training mask (splits, N) of
    ``split_table``: each group's test appearances, in split order, are its
    paths 0, 1, ...; every group is tested in C(N-1, k-1) splits, so each
    path has one test cell per group."""
    return np.nonzero(~train.T)[1].reshape(train.shape[1], -1).T


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


def path_statistics(
    scores: np.ndarray, included: np.ndarray, failed: np.ndarray, criterion: Criterion
) -> list[tuple[tuple[float, ...], Moments | None, int]]:
    """Aggregate each row of (row, path, group) cell arrays into path values
    and their moments.

    Variance-reduction paths take the mean of their included cells, VaR paths
    the minimum (minmax rule). A path touching a failed cell is voided; a
    path with every cell excluded (not ``included``) is dropped. Returns per
    row (path values, moments, n voided/dropped).
    """
    reduce = np.mean if criterion is Criterion.VARIANCE_REDUCTION else np.min
    rows, n_paths, n_groups = scores.shape
    values = _reduce_rows(scores.reshape(-1, n_groups), included.reshape(-1, n_groups), reduce)
    out = []
    for row, keep in zip(values.reshape(rows, n_paths), ~failed.any(axis=2) & included.any(axis=2)):
        per_path = row[keep]
        stats = moments(per_path) if len(per_path) >= MIN_PATHS else None
        out.append((tuple(per_path.tolist()), stats, n_paths - int(keep.sum())))
    return out


RatioFn = Callable[[np.ndarray], list]
"""A batched ratio function: given the training mask (splits, N) of a batch
of splits over the N groups of a partition, as ``split_table`` gives it, it
returns one outcome per split, the hedge ratio or the ``DataError`` or
``NumericError`` its fit gives. Any other exception ends the call. A split's outcome does not
depend on the rest of its batch: bit for bit up to 128 design columns, within round-off above."""


def excluded_groups(groups: tuple[range, ...], horizon: int, min_obs: int | None = None) -> list[tuple[int, str]]:
    """(group index, reason) of each group too short to score at ``horizon``.

    A group needs ``min_obs`` within-group horizon differences (default
    2 * horizon), and at least ``VAR_MIN_OBS``, the VaR quantile's floor.
    """
    min_obs = max(2 * horizon if min_obs is None else min_obs, VAR_MIN_OBS)
    return [
        (gi, f"{max(len(g) - horizon, 0)} observations at horizon {horizon} < {min_obs}")
        for gi, g in enumerate(groups)
        if len(g) - horizon < min_obs
    ]


def excludes_every_group(groups: tuple[range, ...], horizon: int, min_obs: int | None = None) -> bool:
    """Whether ``excluded_groups`` excludes every one of ``groups`` at ``horizon``."""
    return len(excluded_groups(groups, horizon, min_obs)) == len(groups)


def run_cv(
    spot: PriceSeries,
    fut: PriceSeries,
    ratio_fns: dict[str, RatioFn],
    horizon: int,
    groups: tuple[range, ...],
    k: int,
    min_obs: int | None = None,
    alpha: float = 0.05,
) -> dict[tuple[str, Criterion], PathReport]:
    """Run the full combinatorial CV of every method of one horizon over the
    partition ``groups`` with ``k`` test groups.

    ``ratio_fns`` maps each method label to its ratio function; the result
    maps each (label, criterion) to its report, labels in dict order, every
    ``Criterion`` in enum order. Each test group is scored separately on
    within-group horizon differences; groups too short for ``min_obs`` of
    them are excluded at this horizon (``excluded_groups``). If every group
    is excluded, no fit is made.

    Each ratio function is called once, in dict order, with the training
    mask of ``split_table`` (splits, ``groups``). A split whose outcome
    is a ``NumericError`` or ``DataError``, or a non-finite ratio, fails for
    that method, its exception class and message going to
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
    tests, train = split_table(len(groups), k)
    if excludes_every_group(groups, horizon, min_obs):
        raise InsufficientDataError(f"all groups excluded at horizon {horizon}")
    excluded = excluded_groups(groups, horizon, min_obs)
    skip = {g for g, _ in excluded}

    # one hedge ratio per (method, split); NaN marks a failed split
    ratios = np.full((len(ratio_fns), len(train)), np.nan)
    failures = [{} for _ in ratio_fns]  # per method: failed split -> (exception class, message)
    for m, ratio_fn in enumerate(ratio_fns.values()):
        for s_idx, ratio in zip(range(len(train)), ratio_fn(train), strict=True):
            if not isinstance(ratio, (NumericError, DataError)) and not math.isfinite(ratio):
                ratio = NumericError("non-finite hedge ratio")
            if isinstance(ratio, (NumericError, DataError)):
                failures[m][s_idx] = (type(ratio).__name__, str(ratio))
            else:
                ratios[m, s_idx] = ratio
    failed = np.isnan(ratios)

    # each included test group once, for every (method, split) it tests
    split_of = path_table(train)  # (path, group) -> split
    scores = {c: np.full((len(ratio_fns), len(split_of), len(groups)), np.nan) for c in Criterion}
    for g, rg in enumerate(groups):
        ok = ~failed[:, split_of[:, g]]  # (method, path)
        if g in skip or not ok.any():
            continue
        ds, df = (log_returns(leg.values[rg.start : rg.stop], horizon) for leg in (spot, fut))
        portfolios = ds[None, :] - ratios[:, split_of[:, g]][ok][:, None] * df[None, :]
        for c in Criterion:
            scores[c][:, :, g][ok] = effectiveness_rows(c, ds, portfolios, alpha)

    # per-split values through the (split, test slot) -> path table
    path_of = np.empty(train.shape, dtype=np.intp)  # (split, group) -> path, at test cells
    path_of[split_of, np.arange(len(groups))] = np.arange(len(split_of))[:, None]
    test_paths = np.take_along_axis(path_of, tests, axis=1)
    reports = {}
    for c in Criterion:
        cells = scores[c][:, test_paths, tests].reshape(-1, k)
        per_split = _reduce_rows(cells, np.isfinite(cells), np.mean).reshape(len(ratio_fns), len(train)).tolist()
        per_path = path_statistics(scores[c], np.isfinite(scores[c]), failed[:, split_of], c)
        for label, values, (path_vals, stats, voided), fails in zip(ratio_fns, per_split, per_path, failures):
            reports[label, c] = PathReport(
                per_split_values=tuple(None if math.isnan(v) else v for v in values),
                per_path_values=path_vals, stats=stats, excluded_groups=tuple(excluded),
                n_paths_total=len(split_of), n_paths_voided=voided,
                failed_splits=tuple(fails), failed_reasons=tuple(fails.values()),
            )
    return {(label, c): reports[label, c] for label in ratio_fns for c in Criterion}
