"""Aligned multivariate time series: CSV loading and windowing.

The CLI loads its input as a :class:`MultiSeries`: named series held as
one (n, p) matrix on one strictly increasing date grid; the analysis
modules take plain arrays. Loading is deliberately strict: rows with
missing values are dropped (and counted), and unparseable dates are errors.
The panel's rules (the series count, ``MIN_LENGTH`` rows, finite values,
strictly increasing dates) are checked by :class:`MultiSeries` alone;
``load_csv`` and ``window`` relay its refusal prefixed with the file or window.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
from dataclasses import dataclass, field, replace

import numpy as np

MIN_LENGTH = 8
MAX_SERIES = 8  # the one series limit: the loader, the coherence field and the joint fit read it

_DATE_FORMATS = ("%Y-%m-%d", "%d.%m.%Y")


class DataError(ValueError):
    """Input data violates a contract (bad dates, short windows, NaNs...)."""


def read_text(path: str, kind: str = "") -> str:
    """The text of a UTF-8 file, less a leading byte-order mark, line endings
    as written; a :class:`DataError` naming the path if it cannot be opened
    (as ``kind``, such as ``"config "``) or is not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {kind}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text (byte {bad:#04x}: {exc.reason})") from exc


def parse_date(text: str) -> _dt.date:
    """Parse ``YYYY-MM-DD`` or ``DD.MM.YYYY`` into a date.

    Raises
    ------
    DataError
        If the text matches neither format.
    """
    text = text.strip()
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise DataError(f"unparseable date: {text!r}")


@dataclass(frozen=True)
class LoadReport:
    """Counts accumulated while reading a CSV file."""

    path: str
    rows_read: int
    rows_kept: int
    rows_dropped: int

    def summary(self) -> str:
        return (
            f"{self.path}: read {self.rows_read} rows, kept {self.rows_kept}, "
            f"dropped {self.rows_dropped} with missing values"
        )


@dataclass(frozen=True)
class MultiSeries:
    """Up to ``MAX_SERIES`` named series as one (n, p) matrix on one date grid.

    Arrays are copied and locked read-only on construction; derive new
    instances (``dataclasses.replace``) rather than mutating in place. A
    panel breaking a rule below is refused with a :class:`DataError`; a
    repeated date is named, as ``duplicate date 2020-01-04`` (the earliest).

    Parameters
    ----------
    names : tuple of str
        Unique column names, order significant (index 0 is the default
        target).
    timestamps : ndarray of datetime64[D], shape (n,)
        Strictly increasing dates shared by every column; n >= ``MIN_LENGTH``.
    values : ndarray, shape (n, p)
        Finite data, one column per name. The transforms take one time step
        per row, regardless of calendar gaps.
    """

    names: tuple[str, ...]
    timestamps: np.ndarray
    values: np.ndarray
    load_report: LoadReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = tuple(self.names)
        stamps = np.array(self.timestamps, dtype="datetime64[D]")
        vals = np.array(self.values, dtype=float)
        if not 1 <= len(names) <= MAX_SERIES:
            raise DataError(f"need between 1 and {MAX_SERIES} series, got {len(names)}")
        if len(set(names)) != len(names):
            raise DataError(f"duplicate series names: {list(names)}")
        if stamps.ndim != 1 or vals.shape != (stamps.size, len(names)):
            raise DataError(
                f"{stamps.size} timestamps vs values of shape {vals.shape} "
                f"for {len(names)} series"
            )
        if stamps.size < MIN_LENGTH:
            raise DataError(f"{stamps.size} samples, need at least {MIN_LENGTH}")
        bad = ~np.isfinite(vals).all(axis=0)
        if bad.any():
            raise DataError(
                f"series {names[int(np.argmax(bad))]!r} contains non-finite values"
            )
        steps = np.diff(stamps.astype("int64"))
        if (steps <= 0).any():
            repeat = np.flatnonzero(steps == 0)
            raise DataError(f"duplicate date {stamps[repeat[0]]}" if repeat.size else "timestamps not strictly increasing")
        stamps.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "timestamps", stamps)
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"no series named {name!r}; have {self.names}") from None


def load_csv(
    path: str,
    date_column: str = "date",
    value_columns: tuple[str, ...] | None = None,
) -> MultiSeries:
    """Load an aligned multivariate series from a headered CSV file.

    Rows where any selected value is missing (empty field) are dropped and
    counted; the counts are attached to the result as ``.load_report``.
    Rows are sorted by date before the panel is checked. A UTF-8 byte-order mark is skipped.

    Parameters
    ----------
    path : str
        CSV file with a header row.
    date_column : str
        Name of the date column. Accepts ``YYYY-MM-DD`` or ``DD.MM.YYYY``.
    value_columns : tuple of str, optional
        Which columns to load, in order. Default: every non-date column in
        header order.

    Raises
    ------
    DataError
        Missing columns, unparseable dates, non-numeric values, what
        :func:`read_text` or the ``csv`` module (a field over its size limit)
        refuses, or the panel :class:`MultiSeries` refuses, as ``{path}: ...``.
    """
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        header = reader.fieldnames
        if not header:
            raise DataError(f"{path}: empty file or missing header")
        if date_column not in header:
            raise DataError(f"{path}: no column named {date_column!r} in {header}")
        if value_columns is None:
            value_columns = tuple(c for c in header if c != date_column)
        else:
            value_columns = tuple(value_columns)
            missing = [c for c in value_columns if c not in header]
            if missing:
                raise DataError(f"{path}: missing value columns {missing}")

        rows_read = 0
        dates: list[_dt.date] = []
        rows: list[list[float]] = []
        dropped = 0
        for rec in reader:
            rows_read += 1
            raw = [rec.get(c) for c in value_columns]
            if any(v is None or v.strip() == "" for v in raw):
                dropped += 1
                continue
            date_text = rec.get(date_column)
            if date_text is None or date_text.strip() == "":
                dropped += 1
                continue
            try:  # DataError is a ValueError
                day = parse_date(date_text)
                vals = [float(v) for v in raw]  # type: ignore[arg-type]
            except ValueError as exc:
                what = exc if isinstance(exc, DataError) else f"non-numeric value on {day}: {exc}"
                raise DataError(f"{path}: line {reader.line_num}: {what}") from exc
            dates.append(day)
            rows.append(vals)
    except csv.Error as exc:  # a field over the size limit; the DictReader's line_num lags it
        raise DataError(f"{path}: line {reader.reader.line_num}: {exc}") from exc

    stamps = np.array(dates, dtype="datetime64[D]")
    order = np.argsort(stamps)
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(value_columns))  # (0, p) when no row is complete
    report = LoadReport(path=path, rows_read=rows_read, rows_kept=len(rows), rows_dropped=dropped)
    try:
        return MultiSeries(value_columns, stamps[order], data[order], load_report=report)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def window(ms: MultiSeries, start: _dt.date, end: _dt.date) -> MultiSeries:
    """Restrict to timestamps in [start, end], inclusive on both ends; the
    bounds are dates, as :func:`parse_date` reads them from text.

    Raises
    ------
    DataError
        If start > end; or, as ``window [start, end]: ...``, the panel's
        refusal of the rows kept (fewer than ``MIN_LENGTH``).
    """
    if start > end:
        raise DataError(f"window start {start} is after end {end}")
    mask = (ms.timestamps >= np.datetime64(start, "D")) & (ms.timestamps <= np.datetime64(end, "D"))
    try:
        return replace(ms, timestamps=ms.timestamps[mask], values=ms.values[mask])
    except DataError as exc:
        raise DataError(f"window [{start}, {end}]: {exc}") from exc
