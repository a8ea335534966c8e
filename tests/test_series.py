import math

import numpy as np
import pytest

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

