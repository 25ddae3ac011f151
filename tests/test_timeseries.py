"""CSV loading, validation and windowing."""

import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from comove.timeseries import (
    DataError,
    MultiSeries,
    load_csv,
    parse_date,
    window,
)


def days(n, start="2020-01-01"):
    return np.datetime64(start, "D") + np.arange(n)


def make_ms(n=16, p=2, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"s{k}" for k in range(p))
    return MultiSeries(names, days(n), rng.normal(size=(n, p)))


# ---------------------------------------------------------------- parse_date


def test_parse_date_iso():
    assert parse_date("2021-03-09") == dt.date(2021, 3, 9)


def test_parse_date_dotted():
    assert parse_date("09.03.2021") == dt.date(2021, 3, 9)


def test_parse_date_strips_whitespace():
    assert parse_date("  2021-03-09 ") == dt.date(2021, 3, 9)


def test_parse_date_rejects_garbage():
    with pytest.raises(DataError, match="unparseable date"):
        parse_date("03/09/2021")


# ---------------------------------------------------------------- MultiSeries


def test_timeseries_requires_min_length():
    with pytest.raises(DataError, match="at least 8"):
        MultiSeries(("x",), days(7), np.zeros((7, 1)))


def test_timeseries_rejects_nan():
    vals = np.ones((10, 1))
    vals[3] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        MultiSeries(("x",), days(10), vals)


def test_multiseries_nonfinite_message_names_the_series():
    vals = np.ones((10, 3))
    vals[7, 1] = np.inf
    with pytest.raises(DataError, match="series 'y' contains non-finite"):
        MultiSeries(("x", "y", "z"), days(10), vals)


def test_timeseries_rejects_unsorted_dates():
    stamps = days(10).copy()
    stamps[[2, 3]] = stamps[[3, 2]]
    with pytest.raises(DataError, match="strictly increasing"):
        MultiSeries(("x",), stamps, np.ones((10, 1)))


def test_timeseries_rejects_duplicate_dates():
    stamps = days(10).copy()
    stamps[4] = stamps[3]
    with pytest.raises(DataError, match="strictly increasing"):
        MultiSeries(("x",), stamps, np.ones((10, 1)))


def test_timeseries_rejects_length_mismatch():
    with pytest.raises(DataError, match="timestamps vs"):
        MultiSeries(("x",), days(10), np.ones((9, 1)))


def test_multiseries_rejects_column_count_mismatch():
    with pytest.raises(DataError, match="timestamps vs"):
        MultiSeries(("x", "y"), days(10), np.ones((10, 3)))
    with pytest.raises(DataError, match="timestamps vs"):
        MultiSeries(("x",), days(10), np.ones(10))


def test_timeseries_arrays_are_read_only():
    ms = MultiSeries(("x",), days(10), np.ones((10, 1)))
    with pytest.raises(ValueError):
        ms.values[0, 0] = 5.0
    with pytest.raises(ValueError):
        ms.timestamps[0] = np.datetime64("1999-01-01")


def test_timeseries_copies_input():
    vals = np.ones((10, 1))
    stamps = days(10)
    ms = MultiSeries(("x",), stamps, vals)
    vals[0, 0] = 99.0
    stamps[0] = np.datetime64("1999-01-01")
    assert ms.values[0, 0] == 1.0
    assert ms.timestamps[0] == np.datetime64("2020-01-01")


def test_multiseries_replace_revalidates():
    ms = make_ms(n=10, p=2)
    vals = ms.values.copy()
    vals[2, 0] = np.nan
    with pytest.raises(DataError, match="series 's0' contains non-finite"):
        replace(ms, values=vals)


def test_multiseries_basic_properties():
    ms = make_ms(n=12, p=3)
    assert ms.p == 3
    assert ms.names == ("s0", "s1", "s2")
    assert len(ms) == 12
    assert ms.index_of("s1") == 1


def test_multiseries_values_column_order():
    vals = np.arange(30.0).reshape(10, 3)
    ms = MultiSeries(["a", "b", "c"], days(10), vals)
    assert ms.names == ("a", "b", "c")
    assert ms.values.shape == (10, 3)
    np.testing.assert_array_equal(ms.values, vals)


def test_multiseries_rejects_duplicate_names():
    with pytest.raises(DataError, match="duplicate series names"):
        MultiSeries(("x", "x"), days(10), np.column_stack([np.ones(10), np.zeros(10)]))


def test_multiseries_rejects_too_many_series():
    vals = np.tile(np.arange(9.0), (10, 1))
    with pytest.raises(DataError, match="between 1 and 8"):
        MultiSeries(tuple(f"s{k}" for k in range(9)), days(10), vals)


def test_multiseries_unknown_name():
    ms = make_ms()
    with pytest.raises(DataError, match="no series named"):
        ms.index_of("nope")


# ---------------------------------------------------------------- load_csv


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_csv_happy_path(tmp_path):
    lines = ["date,gold,silver"]
    for k in range(10):
        lines.append(f"2020-01-{k + 1:02d},{100 + k},{50 + k}")
    ms = load_csv(write_csv(tmp_path / "m.csv", lines))
    assert ms.names == ("gold", "silver")
    assert len(ms) == 10
    np.testing.assert_allclose(ms.values[:, 0], 100 + np.arange(10.0))
    rep = ms.load_report
    assert rep is not None
    assert (rep.rows_read, rep.rows_kept, rep.rows_dropped) == (10, 10, 0)


def test_load_csv_drops_and_counts_incomplete_rows(tmp_path):
    lines = ["date,a,b"]
    for k in range(12):
        lines.append(f"2020-01-{k + 1:02d},{k},{k * 2}")
    lines[3] = "2020-01-03,,6"  # missing a
    lines[5] = "2020-01-05,4,"  # missing b
    ms = load_csv(write_csv(tmp_path / "m.csv", lines))
    assert len(ms) == 10
    rep = ms.load_report
    assert rep.rows_dropped == 2
    assert rep.rows_read == 12
    assert "dropped 2" in rep.summary()


def test_load_csv_drops_and_counts_a_row_without_a_date(tmp_path):
    lines = ["date,a"] + [f"2020-01-{k + 1:02d},{k}" for k in range(10)]
    lines[4] = " ,3"
    ms = load_csv(write_csv(tmp_path / "m.csv", lines))
    assert len(ms) == 9
    assert (ms.load_report.rows_read, ms.load_report.rows_dropped) == (10, 1)
    assert "2020-01-04" not in [str(d) for d in ms.timestamps]


def test_load_csv_refuses_an_empty_value_column_list(tmp_path):
    lines = ["date,a"] + [f"2020-01-{k + 1:02d},{k}" for k in range(10)]
    with pytest.raises(DataError, match="no value columns"):
        load_csv(write_csv(tmp_path / "m.csv", lines), value_columns=())


def test_load_csv_sorts_rows_by_date(tmp_path):
    lines = ["date,v"]
    for k in reversed(range(9)):
        lines.append(f"2020-01-{k + 1:02d},{k}")
    ms = load_csv(write_csv(tmp_path / "m.csv", lines))
    np.testing.assert_allclose(ms.values[:, 0], np.arange(9.0))


def test_load_csv_dotted_dates(tmp_path):
    lines = ["date,v"] + [f"{k + 1:02d}.01.2020,{k}" for k in range(9)]
    ms = load_csv(write_csv(tmp_path / "m.csv", lines))
    assert ms.timestamps[0] == np.datetime64("2020-01-01")


def test_load_csv_value_columns_subset_and_order(tmp_path):
    lines = ["date,a,b,c"] + [
        f"2020-01-{k + 1:02d},{k},{k + 10},{k + 20}" for k in range(9)
    ]
    ms = load_csv(write_csv(tmp_path / "m.csv", lines), value_columns=("c", "a"))
    assert ms.names == ("c", "a")
    np.testing.assert_allclose(ms.values[:, 0], 20 + np.arange(9.0))


def test_load_csv_duplicate_date(tmp_path):
    lines = ["date,v"] + [f"2020-01-{k + 1:02d},{k}" for k in range(9)]
    lines.append("2020-01-03,99")
    with pytest.raises(DataError, match="duplicate date"):
        load_csv(write_csv(tmp_path / "m.csv", lines))


def test_load_csv_non_numeric_value(tmp_path):
    lines = ["date,v"] + [f"2020-01-{k + 1:02d},{k}" for k in range(9)]
    lines[4] = "2020-01-04,abc"
    with pytest.raises(DataError, match="m.csv: line 5: non-numeric value on 2020-01-04: "):
        load_csv(write_csv(tmp_path / "m.csv", lines))


def test_load_csv_missing_date_column(tmp_path):
    lines = ["day,v"] + [f"2020-01-{k + 1:02d},{k}" for k in range(9)]
    with pytest.raises(DataError, match="no column named 'date'"):
        load_csv(write_csv(tmp_path / "m.csv", lines))


def test_load_csv_missing_value_column(tmp_path):
    lines = ["date,v"] + [f"2020-01-{k + 1:02d},{k}" for k in range(9)]
    with pytest.raises(DataError, match="missing value columns"):
        load_csv(write_csv(tmp_path / "m.csv", lines), value_columns=("w",))


def test_load_csv_too_few_rows(tmp_path):
    lines = ["date,v"] + [f"2020-01-{k + 1:02d},{k}" for k in range(7)]
    with pytest.raises(DataError, match="complete rows"):
        load_csv(write_csv(tmp_path / "m.csv", lines))


def test_load_csv_nonexistent_file(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_csv(str(tmp_path / "missing.csv"))


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty file or missing header"):
        load_csv(str(p))


# ---------------------------------------------------------------- window


def test_window_is_inclusive_both_ends():
    ms = make_ms(n=20)
    w = window(ms, parse_date("2020-01-03"), parse_date("2020-01-12"))
    assert len(w) == 10
    assert w.timestamps[0] == np.datetime64("2020-01-03")
    assert w.timestamps[-1] == np.datetime64("2020-01-12")
    np.testing.assert_array_equal(w.values, ms.values[2:12])
    assert w.names == ms.names


def test_window_accepts_date_objects():
    ms = make_ms(n=20)
    w = window(ms, dt.date(2020, 1, 5), dt.date(2020, 1, 16))
    assert len(w) == 12


def test_window_start_after_end():
    ms = make_ms(n=20)
    with pytest.raises(DataError, match="is after end"):
        window(ms, parse_date("2020-01-10"), parse_date("2020-01-05"))


def test_window_empty_selection():
    ms = make_ms(n=20)
    with pytest.raises(DataError, match="selects no samples"):
        window(ms, parse_date("2021-06-01"), parse_date("2021-06-30"))


def test_window_too_short():
    ms = make_ms(n=20)
    with pytest.raises(DataError, match="need at least 8"):
        window(ms, parse_date("2020-01-03"), parse_date("2020-01-06"))

