"""Time-series data model: price series, log returns, CSV ingestion.

Conventions
-----------
- Timestamps are numpy ``datetime64[D]`` arrays, strictly increasing.
- Horizon-h log returns (``log_returns``) are overlapping (stride 1) plain
  arrays; every scored return, in-sample and cross-validated, comes from it.
- A training sample is a tuple of index ranges ("segments") into one series
  (``check_segments``); no transform ever differences across a segment boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InsufficientDataError

__all__ = [
    "PriceSeries",
    "load_csv",
    "log_returns",
    "check_segments",
    "restrict",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PriceSeries:
    """A timestamped level series for one contract leg."""

    timestamps: np.ndarray  # datetime64[D]
    values: np.ndarray  # float64, strictly positive

    def __post_init__(self):
        ts = _readonly(np.asarray(self.timestamps, dtype="datetime64[D]"))
        vals = _readonly(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if len(ts) != len(vals):
            raise DataError("timestamps and values must have equal length")
        if len(vals) < 2:
            raise InsufficientDataError("price series needs at least 2 rows")
        if not np.all(np.isfinite(vals)):
            raise DataError("price values must be finite")
        if np.any(vals <= 0.0):
            raise DataError("price values must be strictly positive")
        if np.any(np.diff(ts).astype(int) <= 0):
            raise DataError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


def load_csv(
    path: str | Path,
    date_col: str = "date",
    spot_col: str = "spot",
    futures_col: str = "futures",
) -> tuple[PriceSeries, PriceSeries, int]:
    """Load a paired spot/futures CSV.

    Rows with a missing value on either leg are dropped pairwise so the two
    legs stay aligned. Returns (spot, futures, n_dropped).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    dates: list[np.datetime64] = []
    spot_vals: list[float] = []
    fut_vals: list[float] = []
    dropped = 0
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file")
            for col in (date_col, spot_col, futures_col):
                if col not in reader.fieldnames:
                    raise DataError(f"{path}: missing column '{col}' (have {reader.fieldnames})")
            for i, row in enumerate(reader, start=2):  # header is line 1
                raw_s = (row[spot_col] or "").strip()
                raw_f = (row[futures_col] or "").strip()
                if not raw_s or not raw_f:
                    dropped += 1
                    continue
                raw_d = (row[date_col] or "").strip()
                try:
                    d = np.datetime64(raw_d, "D")
                except ValueError:
                    raise DataError(f"{path}:{i}: unparseable date '{raw_d}'") from None
                try:
                    s = float(raw_s)
                    f = float(raw_f)
                except ValueError:
                    raise DataError(f"{path}:{i}: unparseable price") from None
                if not (math.isfinite(s) and math.isfinite(f)) or s <= 0 or f <= 0:
                    raise DataError(f"{path}:{i}: non-positive or non-finite price")
                if dates and d <= dates[-1]:
                    raise DataError(f"{path}:{i}: duplicated or out-of-order date {d}")
                dates.append(d)
                spot_vals.append(s)
                fut_vals.append(f)
    except (UnicodeDecodeError, csv.Error) as exc:  # undecodable bytes, or malformed CSV
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    except OSError as exc:  # e.g. a directory, or no read permission
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if len(dates) < 2:
        raise InsufficientDataError(f"{path}: fewer than 2 usable rows")
    ts = np.array(dates, dtype="datetime64[D]")
    spot = PriceSeries(ts, np.array(spot_vals))
    fut = PriceSeries(ts, np.array(fut_vals))
    return spot, fut, dropped


def log_returns(values: np.ndarray, horizon: int) -> np.ndarray:
    """Overlapping horizon-h differences of ``np.log(values)``."""
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    if horizon >= len(values):
        raise InsufficientDataError(f"horizon {horizon} >= series length {len(values)}")
    x = np.log(values)
    return x[horizon:] - x[:-horizon]


def check_segments(segments, n: int) -> tuple[range, ...]:
    """``segments`` as a tuple, once checked to be a training sample of a
    series of ``n`` observations: at least one range, each non-empty, step 1
    and inside [0, n), in order and non-overlapping."""
    segs = tuple(segments)
    if not segs:
        raise DataError("a training sample needs at least one segment")
    last_stop = 0
    for seg in segs:
        if seg.step != 1:
            raise DataError(f"segment {seg} has step {seg.step}, not 1")
        if len(seg) == 0:
            raise DataError(f"empty segment {seg}")
        if seg.start < 0 or seg.stop > n:
            raise DataError(f"segment {seg} out of bounds for {n} observations")
        if seg.start < last_stop:
            raise DataError(f"segment {seg} overlaps or precedes the segment before it")
        last_stop = seg.stop
    return segs


def restrict(series: PriceSeries, groups: list[range] | tuple[range, ...]) -> tuple[range, ...]:
    """The training sample of ``series`` on the given index ranges: the
    ranges in time order, adjacent ones merged."""
    merged: list[range] = []
    for g in check_segments(sorted(groups, key=lambda r: r.start), len(series)):
        if merged and g.start == merged[-1].stop:
            merged[-1] = range(merged[-1].start, g.stop)
        else:
            merged.append(g)
    return tuple(merged)
