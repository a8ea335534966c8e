"""Time-series data model: price series, log returns, CSV ingestion.

Conventions
-----------
- Timestamps are numpy ``datetime64[D]`` arrays, strictly increasing.
- Horizon-h log returns (``log_returns``) are overlapping (stride 1) plain
  arrays; every scored return, in-sample and cross-validated, comes from it.
- The CLI's training sample is partition groups plus a training mask, fitted
  by ``methods.make_ratio_fn``; for library callers, ``restrict`` merges
  training groups into index ranges ("segments") and ``check_segments``
  checks such a tuple.
"""

from __future__ import annotations

import csv
import warnings
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
    """A timestamped level series for one contract leg, and the one rule for
    which legs are accepted: dates strictly increasing, prices in ``_in_range``."""

    timestamps: np.ndarray  # datetime64[D]
    values: np.ndarray  # float64, each in [2^-511, 2^511)

    def __post_init__(self):
        ts = _readonly(np.asarray(self.timestamps, dtype="datetime64[D]"))
        vals = _readonly(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if len(ts) != len(vals):
            raise DataError("timestamps and values must have equal length")
        if len(vals) < 2:
            raise InsufficientDataError("price series needs at least 2 rows")
        if not _in_range(vals).all():
            raise DataError("price values must be in [2^-511, 2^511)")
        if not (np.diff(ts) > 0).all():  # a NaT date compares false
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
    legs stay aligned, before their date is read. Returns (spot, futures,
    n_dropped).

    The kept rows only build the two legs; ``PriceSeries`` accepts them. If a
    parse or it refuses, each kept row is checked in turn for a date that does
    not fix its day (blank, ``NaT``, ``today``, ``now`` or with a time zone), a
    price that does not parse or is outside [2^-511, 2^511), and a date not
    after the previous row's; the first line with a fault is named, by its
    line in the file: the header is line 1, blank lines count, and a row that
    spans lines (a quoted cell with a line break) is named by its last line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    lines: list[int] = []
    dates: list[str] = []
    spots: list[str] = []
    futs: list[str] = []
    dropped = 0
    unreadable = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            for col in (date_col, spot_col, futures_col):
                if col not in header:
                    raise DataError(f"{path}: missing column '{col}' (have {header})")
            # a repeated column name reads its last column
            cols = [len(header) - 1 - header[::-1].index(col) for col in (date_col, spot_col, futures_col)]
            for row in filter(None, reader):
                # a short row's missing cells are blank
                raw_d, raw_s, raw_f = (row[c].strip() if c < len(row) else "" for c in cols)
                if not raw_s or not raw_f:
                    dropped += 1
                    continue
                lines.append(reader.line_num)
                dates.append(raw_d)
                spots.append(raw_s)
                futs.append(raw_f)
    except (UnicodeDecodeError, csv.Error) as exc:  # undecodable bytes, or malformed CSV
        # a faulty row read before the unreadable part is named first
        unreadable = DataError(f"{path}: unreadable CSV: {exc}")
    except OSError as exc:  # e.g. a directory, or no read permission
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if unreadable is None:
        try:
            ts = _days(dates)
            s, f = (np.array([float(v) for v in cells]) for cells in (spots, futs))
            return PriceSeries(ts, s), PriceSeries(ts, f), dropped
        except (ValueError, UserWarning, DataError):  # its line is named by the rescan below
            pass
    _first_fault(path, zip(lines, dates, spots, futs))
    if unreadable is not None:
        raise unreadable
    raise InsufficientDataError(f"{path}: fewer than 2 usable rows")


def _days(cells: list[str]) -> np.ndarray:
    """The days of date cells; a ValueError or UserWarning for one that fixes no day."""
    with warnings.catch_warnings():  # numpy converts a time zone to UTC, with this warning
        warnings.filterwarnings("error", "no explicit representation of timezones")
        days = np.array(cells, dtype="datetime64[D]")
    if np.isnat(days).any() or not {"today", "now"}.isdisjoint(map(str.lower, cells)):  # read off the clock
        raise ValueError("a date that fixes no day")
    return days


def _in_range(v):
    """Whether a price, or each of an array's, is in ``PriceSeries``'s range
    [2^-511, 2^511) (NaN is not): squares and products of prices stay finite
    and normal, so a float exception in a run points at the method, not the input."""
    return (v >= 2.0**-511) & (v < 2.0**511)


def _first_fault(path: Path, rows) -> None:
    """Raise the DataError of the first faulty one of ``rows`` (line, date,
    spot and futures cells), in file order; within a row a date fault comes
    first, then a price that does not parse, one out of range, and the order."""
    last = None
    for line, raw_d, raw_s, raw_f in rows:
        where = f"{path}:{line}"
        try:
            (d,) = _days([raw_d])
        except (ValueError, UserWarning):
            raise DataError(f"{where}: unparseable date '{raw_d}'") from None
        try:
            s, f = float(raw_s), float(raw_f)
        except ValueError:
            raise DataError(f"{where}: unparseable price") from None
        if not (_in_range(s) and _in_range(f)):
            if all(0.0 < v < np.inf for v in (s, f)):
                raise DataError(f"{where}: price outside [2^-511, 2^511)")
            raise DataError(f"{where}: non-positive or non-finite price")
        if last is not None and d <= last:
            raise DataError(f"{where}: duplicated or out-of-order date {d}")
        last = d


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
