import math
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdhedge.errors import DataError, InsufficientDataError
from emdhedge.series import (
    PriceSeries,
    load_csv,
    log_returns,
    restrict,
)


def make_series(values, start="2020-01-01"):
    ts = np.datetime64(start) + np.arange(len(values))
    return PriceSeries(ts, np.array(values, dtype=float))


class TestPriceSeries:
    def test_rejects_short(self):
        with pytest.raises(InsufficientDataError):
            make_series([1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            make_series([1.0, 0.0, 2.0])

    def test_rejects_unsorted_dates(self):
        ts = np.array(["2020-01-02", "2020-01-01"], dtype="datetime64[D]")
        with pytest.raises(DataError):
            PriceSeries(ts, np.array([1.0, 2.0]))

    def test_values_immutable(self):
        s = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestLoadCsv:
    def test_valid_three_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n2020-01-01,1.5,2.5\n2020-01-02,1.6,2.6\n2020-01-03,1.7,2.7\n")
        spot, fut, dropped = load_csv(p)
        assert len(spot) == len(fut) == 3
        assert dropped == 0
        assert np.array_equal(spot.timestamps, fut.timestamps)

    def test_blank_cell_drops_row_pairwise(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n2020-01-01,1.5,2.5\n2020-01-02,1.6,\n2020-01-03,1.7,2.7\n")
        spot, fut, dropped = load_csv(p)
        assert len(spot) == len(fut) == 2
        assert dropped == 1

    def test_duplicate_date_names_it(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n2020-01-01,1,2\n2020-01-01,1,2\n")
        with pytest.raises(DataError, match="2020-01-01"):
            load_csv(p)

    def test_bad_date_names_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n2020-01-01,1,2\nnotadate,1,2\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n2020-01-01,1,2\n")
        with pytest.raises(InsufficientDataError):
            load_csv(p)

    @staticmethod
    def _error(tmp_path, lines):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n" + "".join(line + "\n" for line in lines))
        with pytest.raises(DataError) as info:
            load_csv(p)
        return str(info.value)[len(str(p)):]

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("notadate,1,2", "2020-01-09,x,2", ":3: unparseable date 'notadate'"),
            ("2020-01-02,x,2", "notadate,1,2", ":3: unparseable price"),
            ("2020-01-02,-1,2", "notadate,1,2", ":3: non-positive or non-finite price"),
            ("2020-01-02,1,inf", "2020-01-09,x,2", ":3: non-positive or non-finite price"),
            ("2020-01-01,1,2", "2020-01-09,0,2", ":3: duplicated or out-of-order date 2020-01-01"),
            ("2019-12-31,1,2", "notadate,1,2", ":3: duplicated or out-of-order date 2019-12-31"),
            ("2020-01-02,1,2", "2019-12-31,1,nan", ":5: non-positive or non-finite price"),
            ("2020-01-02,1,2", "2020-01-05,1,2", ":5: duplicated or out-of-order date 2020-01-05"),
            ("2020-01-02,1,2", "2019-12-31,1,2", ":5: duplicated or out-of-order date 2019-12-31"),
        ],
    )
    def test_the_first_bad_line_is_named(self, tmp_path, first, second, message):
        assert self._error(tmp_path, ["2020-01-01,1,2", first, "2020-01-05,1,2", second]) == message

    @pytest.mark.parametrize(
        "line, message",
        [
            ("notadate,x,2", "unparseable date 'notadate'"),
            ("notadate,-1,2", "unparseable date 'notadate'"),
            ("2020-01-02,1,y", "unparseable price"),
            ("2020-01-02,-1,y", "unparseable price"),
            ("2019-12-31,x,2", "unparseable price"),
            ("2019-12-31,1,0", "non-positive or non-finite price"),
            ("2019-12-31,-inf,2", "non-positive or non-finite price"),
            ("notadate,1e160,2", "unparseable date 'notadate'"),
            ("2020-01-02,1e-300,y", "unparseable price"),
            ("2019-12-31,1e160,2", "price outside [2^-511, 2^511)"),
            ("2019-12-31,1,1e-300", "price outside [2^-511, 2^511)"),
            ("2019-12-31,1e160,-1", "non-positive or non-finite price"),
        ],
    )
    def test_within_a_line_date_then_price_parse_then_value_then_order(self, tmp_path, line, message):
        assert self._error(tmp_path, ["2020-01-01,1,2", line]) == f":3: {message}"

    def test_the_price_range_is_closed_below_and_open_above(self, tmp_path):
        lo, hi = 2.0**-511, 2.0**511
        below_lo, below_hi = float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, 0.0))
        p = tmp_path / "a.csv"
        p.write_text(f"date,spot,futures\n2020-01-01,{lo!r},1\n2020-01-02,1,{below_hi!r}\n")
        spot, fut, _ = load_csv(p)
        assert (spot.values[0], fut.values[1]) == (lo, below_hi)
        for bad in (below_lo, hi):
            rows = ["2020-01-01,1,2", f"2020-01-02,{bad!r},2"]
            assert self._error(tmp_path, rows) == ":3: price outside [2^-511, 2^511)"

    @pytest.mark.parametrize(
        "price",
        [
            *(edge for e in (2.0**-511, 2.0**511) for edge in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))),
            0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e200,
        ],
    )
    def test_the_loader_accepts_exactly_the_prices_a_price_series_does(self, tmp_path, price):
        def accepts(build) -> bool:
            try:
                build()
            except DataError:
                return False
            return True

        p = tmp_path / "a.csv"
        p.write_text(f"date,spot,futures\n2020-01-01,1,2\n2020-01-02,{float(price)!r},2\n")
        in_range = bool(2.0**-511 <= price < 2.0**511)
        assert accepts(lambda: load_csv(p)) == accepts(lambda: make_series([1.0, price])) == in_range

    def test_a_row_with_a_blank_price_is_dropped_before_its_date_is_read(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = ["2020-01-01,1,2", "notadate,,2", "2019-12-31,1,", "2020-01-01, ,2", "2020-01-02,1.5,2.5"]
        p.write_text("date,spot,futures\n" + "".join(r + "\n" for r in rows))
        spot, fut, dropped = load_csv(p)
        assert dropped == 3
        assert spot.timestamps.tolist() == fut.timestamps.tolist() == [
            np.datetime64("2020-01-01").item(), np.datetime64("2020-01-02").item()
        ]
        assert (spot.values.tolist(), fut.values.tolist()) == ([1.0, 1.5], [2.0, 2.5])

    def test_a_short_row_counts_as_blank_cells(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,spot,futures\n2020-01-01,1,2\n2020-01-02,1\n2020-01-03\n2020-01-04,3,4,extra\n")
        spot, fut, dropped = load_csv(p)
        assert (len(spot), dropped) == (2, 2)
        assert fut.values.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_a_bad_line_read_before_undecodable_bytes_is_named(self, tmp_path, bad_first):
        # the rows before the undecodable bytes fill more than one read buffer,
        # so they are read, and checked, before the bytes are decoded
        p = tmp_path / "a.csv"
        rows = [f"{np.datetime64('2000-01-01') + i},1,2\n" for i in range(2000)]
        if bad_first:
            rows[3] = "notadate,1,2\n"
        p.write_bytes(("date,spot,futures\n" + "".join(rows)).encode() + b"\xff\xfe,1,2\n")
        with pytest.raises(DataError) as info:
            load_csv(p)
        expected = ":5: unparseable date 'notadate'" if bad_first else ": unreadable CSV"
        assert str(info.value)[len(str(p)):].startswith(expected)

    @pytest.mark.parametrize("cell, line", [("", 3), ("NaT", 5), ("nat", 2)])
    def test_a_blank_or_nat_date_names_its_line(self, tmp_path, cell, line):
        rows = [f"{np.datetime64('2020-01-01') + i},1,2" for i in range(5)]
        rows[line - 2] = f"{cell},1,2"
        assert self._error(tmp_path, rows) == f":{line}: unparseable date '{cell}'"

    @pytest.mark.parametrize("cell", ["today", "NOW", "2020-01-03T00:00Z", "2020-01-03T00:00+01:00"])
    def test_a_date_the_file_does_not_fix_names_its_line(self, tmp_path, cell):
        """numpy reads ``today`` and ``now`` off the clock, and converts a time
        zone to UTC with a warning: each is an unparseable date, and warns of nothing."""
        rows = [f"{np.datetime64('2020-01-01') + i},1,2" for i in range(5)]
        rows[2] = f"{cell},1,2"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._error(tmp_path, rows) == f":4: unparseable date '{cell}'"

    def test_a_blank_line_counts_as_a_file_line(self, tmp_path):
        p = tmp_path / "bl.csv"
        p.write_text("date,spot,futures\n2020-01-01,1,2\n\n2020-01-02,1,2\nbad,1,2\n")
        with pytest.raises(DataError) as info:
            load_csv(p)
        assert str(info.value) == f"{p}:5: unparseable date 'bad'"

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        vals_s = np.exp(rng.normal(0, 1, 50))
        vals_f = np.exp(rng.normal(0, 1, 50))
        dates = np.datetime64("2019-06-01") + np.arange(50)
        p = tmp_path / "rt.csv"
        lines = ["date,spot,futures"]
        for d, s, f in zip(dates, vals_s, vals_f):
            lines.append(f"{d},{float(s)!r},{float(f)!r}")
        p.write_text("\n".join(lines) + "\n")
        spot, fut, _ = load_csv(p)
        assert np.array_equal(spot.values, vals_s)
        assert np.array_equal(fut.values, vals_f)


# the differential property: load_csv against a plain row-by-row oracle on
# small CSVs, each a clean pair with up to two cells edited
FIRST_DAY = date(2020, 1, 1)
DATE_EDITS = {
    "repeated": -2, "earlier": -3, "blank": "", "nat": "NaT", "notadate": "notadate",
    "clock": "today", "zoned": "2020-01-01T00:00Z",
}
PRICE_CELLS = ["", "x", "-1", "0", "inf", "nan", "1e160", "1e-300"]
# blank lines longer than the text reader's buffer, so the rows before them
# are read, and checked, before the undecodable bytes after them
BUFFER_PAD = "\n" * (3 * 8192)


@st.composite
def edited_csvs(draw):
    """(rows, undecodable): the data lines of a CSV (None for a blank line),
    and where undecodable bytes follow them: None, "at once" (right after the
    rows, in the reader's first buffer) or "after the rows" (past BUFFER_PAD)."""
    n = draw(st.integers(2, 8))
    # row i's clean date is 2i days after FIRST_DAY: a repeated date is the row
    # before's, an earlier one a day before that
    rows = [
        [str(FIRST_DAY + timedelta(days=2 * i)), draw(st.sampled_from(["1", "2.5"])), draw(st.sampled_from(["1", "2.5"]))]
        for i in range(n)
    ]
    for i, col in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2)), max_size=2)):
        if col == 0:
            edit = DATE_EDITS[draw(st.sampled_from(sorted(DATE_EDITS)))]
            rows[i][0] = str(FIRST_DAY + timedelta(days=2 * i + edit)) if isinstance(edit, int) else edit
        else:
            rows[i][col] = draw(st.sampled_from(PRICE_CELLS))
    blank = draw(st.none() | st.integers(0, n))
    if blank is not None:
        rows.insert(blank, None)
    return rows, draw(st.sampled_from([None, None, None, "at once", "after the rows"]))


def oracle(path, rows, undecodable):
    """What load_csv gives for ``rows``, read one row at a time: the message of
    its error, or the kept (date, spot, futures) rows and the dropped count."""
    if undecodable == "at once":
        return f"{path}: unreadable CSV: 'utf-8' codec can't decode byte 0xff"
    kept, dropped = [], 0
    for line, row in enumerate(rows, start=2):  # the header is line 1
        if row is None:
            continue
        cell_d, cell_s, cell_f = row
        if not cell_s or not cell_f:
            dropped += 1
            continue
        where = f"{path}:{line}"
        try:
            day = date.fromisoformat(cell_d)
        except ValueError:
            return f"{where}: unparseable date '{cell_d}'"
        try:
            s, f = float(cell_s), float(cell_f)
        except ValueError:
            return f"{where}: unparseable price"
        if not all(0.0 < v < math.inf for v in (s, f)):
            return f"{where}: non-positive or non-finite price"
        if not all(2.0**-511 <= v < 2.0**511 for v in (s, f)):
            return f"{where}: price outside [2^-511, 2^511)"
        if kept and day <= kept[-1][0]:
            return f"{where}: duplicated or out-of-order date {day}"
        kept.append((day, s, f))
    if undecodable:
        return f"{path}: unreadable CSV: 'utf-8' codec can't decode byte 0xff"
    if len(kept) < 2:
        return f"{path}: fewer than 2 usable rows"
    return kept, dropped


@settings(max_examples=500, deadline=None)
@given(edited_csvs())
def test_load_csv_agrees_with_a_row_by_row_oracle(tmp_path_factory, drawn):
    rows, undecodable = drawn
    p = tmp_path_factory.mktemp("oracle") / "pair.csv"
    text = "date,spot,futures\n" + "".join("\n" if r is None else ",".join(r) + "\n" for r in rows)
    if undecodable == "after the rows":
        text += BUFFER_PAD
    p.write_bytes(text.encode() + (b"\xff\xfe,1,2\n" if undecodable else b""))
    expected = oracle(p, rows, undecodable)
    try:
        spot, fut, dropped = load_csv(p)
    except DataError as exc:
        assert isinstance(expected, str)
        # a decoder's message ends with the byte's position in its buffer
        assert str(exc).startswith(expected) if "unreadable" in expected else str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    kept, expected_dropped = expected
    days = np.array([np.datetime64(day) for day, _, _ in kept], dtype="datetime64[D]")
    assert dropped == expected_dropped
    assert np.array_equal(spot.timestamps, days) and np.array_equal(fut.timestamps, days)
    for series, column in ((spot, 1), (fut, 2)):
        assert series.values.tobytes() == np.array([row[column] for row in kept]).tobytes()


class TestLogReturns:
    def test_log_identity(self):
        e = math.e
        r = log_returns(make_series([e, e**2, e**3]).values, 1)
        assert np.allclose(r, [1.0, 1.0])

    def test_bit_identical_to_log_differences(self):
        rng = np.random.default_rng(5)
        x = np.exp(rng.normal(0, 0.1, 40).cumsum())
        for h in (1, 3, 39):
            assert np.array_equal(log_returns(x, h), np.log(x)[h:] - np.log(x)[:-h])

    def test_horizon_too_long(self):
        with pytest.raises(InsufficientDataError, match="horizon 3 >= series length 3"):
            log_returns(make_series([1, 2, 3]).values, 3)

    @pytest.mark.parametrize("h", [0, -1])
    def test_horizon_below_one(self, h):
        with pytest.raises(DataError, match="horizon must be >= 1"):
            log_returns(make_series([1, 2, 3]).values, h)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(11)
        vals = np.exp(rng.normal(0, 0.1, 60).cumsum())
        logs = np.log(vals)
        h, k = 4, 3
        d = log_returns(vals, h)
        # summing stride-h differences telescopes to the k*h difference
        for t in range(k * h, len(vals)):
            total = sum(d[t - h - j * h] for j in range(k))
            assert total == pytest.approx(logs[t] - logs[t - k * h], abs=1e-12)


class TestRestrict:
    def test_full_range_is_identity(self):
        s = make_series(np.arange(1.0, 11.0))
        assert restrict(s, [range(0, 10)]) == (range(0, 10),)

    def test_adjacent_groups_merge(self):
        s = make_series(np.arange(1.0, 26.0))
        groups = [range(5, 10), range(10, 15)]
        assert restrict(s, groups) == (range(5, 15),)

    def test_gap_kept(self):
        s = make_series(np.arange(1.0, 26.0))
        assert restrict(s, [range(0, 5), range(10, 15)]) == (range(0, 5), range(10, 15))

    def test_overlap_rejected(self):
        s = make_series(np.arange(1.0, 26.0))
        with pytest.raises(DataError):
            restrict(s, [range(0, 6), range(5, 10)])

