"""Catalog model and parsers for the canonical CSV and NDK record formats.

A catalog is an immutable, time-sorted sequence of events, held as one
read-only array of rows, together with the study volume (region x time span)
it covers. Parsers build catalogs; all downstream analysis treats them as
read-only.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .geo import GeoPoint, GlobalSphere, Region, normalize_lon

CSV_COLUMNS = ("time", "lat", "lon", "depth_km", "mb", "ms", "id")
MAGNITUDE_SELECTORS = ("mb", "ms")
NDK_LINES_PER_RECORD = 5

# One row per event: exact microseconds since the epoch, lon in [-180, 180)
# and magnitudes that are 0.0 when absent (the NDK convention), else in
# (0, 10], so that rows compare with plain ==.
ROW_DTYPE = np.dtype([
    ("time_us", np.int64), ("lat", float), ("lon", float), ("depth_km", float),
    ("mb", float), ("ms", float), ("source_id", object),
])
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
SECONDS_PER_DAY = 86400.0
# more days than the datetime range spans: a window clamped to it still overruns
_OVERLONG_DAYS = (datetime.max - datetime.min).days + 1


class CatalogParseError(ValueError):
    """Catalog input violates its format; the message names the line or record."""


_TIME_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,6}))?(Z|\+00:00|-00:00)?$"
)


def parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 UTC instant such as 2004-12-26T00:58:53Z."""
    m = _TIME_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an ISO-8601 UTC instant: {text!r}")
    micro = int((m.group(7) or "").ljust(6, "0") or 0)
    return datetime(
        int(m.group(1)), int(m.group(2)), int(m.group(3)),
        int(m.group(4)), int(m.group(5)), int(m.group(6)),
        micro, tzinfo=timezone.utc,
    )


def format_instant(t: datetime) -> str:
    """Canonical ISO-8601 UTC rendering with a Z suffix: a four-digit year,
    and microseconds only when nonzero."""
    return _as_utc(t).replace(tzinfo=None).isoformat() + "Z"


def _as_utc(t: datetime) -> datetime:
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


def _to_us(t: datetime) -> int:
    """Exact microseconds since the epoch of an instant (naive means UTC)."""
    return (_as_utc(t) - _EPOCH) // _US


def _from_us(us: int) -> datetime:
    return _EPOCH + _US * us


def _seconds_to_us(seconds) -> np.ndarray:
    """Microseconds in each duration of ``seconds`` >= 0, rounded as timedelta
    rounds them (half to even) after clamping at _OVERLONG_DAYS, so they fit int64."""
    # in place where the steps allow: at most three arrays the size of the
    # input are alive at once, and the copy ends up holding the fraction
    x = np.array(seconds, dtype=float)
    np.minimum(x, _OVERLONG_DAYS * SECONDS_PER_DAY, out=x)
    us = np.modf(x, out=(x, None))[1].astype(np.int64)
    us *= 10**6
    x *= 1e6
    us += np.rint(x, out=x).astype(np.int64)
    return us[()]


def _checked_row(time_us, epicenter, depth_km, mb, ms, source_id) -> tuple:
    """One row of ROW_DTYPE, after the checks every event passes: the
    epicenter's own, then depth, mb, ms, id. Absent magnitudes come in as None."""
    # NaN fails every comparison
    if not 0.0 <= depth_km < math.inf:
        raise ValueError(f"depth must be nonnegative, got {depth_km!r}")
    if mb is not None and not 0.0 < mb <= 10.0:
        raise ValueError(f"mb={mb!r} outside (0, 10]")
    if ms is not None and not 0.0 < ms <= 10.0:
        raise ValueError(f"ms={ms!r} outside (0, 10]")
    if not (isinstance(source_id, str) and source_id and source_id == source_id.strip()):
        raise ValueError(f"id {source_id!r} is not a nonempty str without surrounding whitespace")
    return time_us, epicenter.lat, epicenter.lon, depth_km, mb or 0.0, ms or 0.0, source_id


def _row_tuples(rows: np.ndarray) -> Iterator[tuple]:
    """Each row as a tuple of Python values, read column by column."""
    return zip(*(rows[name].tolist() for name in ROW_DTYPE.names))


@dataclass(frozen=True, slots=True)
class Event:
    """One catalog entry: origin time, epicenter, depth, reported magnitudes.

    Depth is carried for provenance only; every computation in this package
    uses epicentral distance. Magnitudes may be absent; values, when present,
    must lie in (0, 10]. The id is a nonempty str equal to its own strip().
    Catalogs hold rows: :attr:`Catalog.events` builds a new Event per row on
    each call.
    """

    time: datetime
    epicenter: GeoPoint
    depth_km: float
    mb: float | None
    ms: float | None
    source_id: str

    def __post_init__(self):
        object.__setattr__(self, "time", _as_utc(self.time))
        self._row()

    def _row(self) -> tuple:
        return _checked_row(
            _to_us(self.time), self.epicenter, self.depth_km, self.mb, self.ms, self.source_id
        )

    def magnitude(self, selector: str = "mb") -> float | None:
        """The authoritative magnitude under the given selector, or None."""
        if selector not in MAGNITUDE_SELECTORS:
            raise ValueError(f"unknown magnitude selector {selector!r}")
        return getattr(self, selector)


@dataclass(frozen=True)
class StudyVolume:
    """Spatial region crossed with a time span; the space-time volume under study.

    Event containment uses the closed interval [t_start, t_end]; the span
    duration is t_end - t_start, so a leap year spans 366 days when bounded
    by consecutive New Year midnights.
    """

    region: Region
    t_start: datetime
    t_end: datetime

    def __post_init__(self):
        object.__setattr__(self, "t_start", _as_utc(self.t_start))
        object.__setattr__(self, "t_end", _as_utc(self.t_end))
        if not self.t_start < self.t_end:
            raise ValueError(f"need t_start < t_end, got {self.t_start} .. {self.t_end}")

    @property
    def area_km2(self) -> float:
        return self.region.area_km2

    @property
    def duration_s(self) -> float:
        return (self.t_end - self.t_start).total_seconds()


@dataclass(frozen=True, eq=False)
class Catalog:
    """Immutable, time-sorted events plus the study volume they cover.

    ``rows`` is a read-only ROW_DTYPE array, a row per event; the accessors
    return new arrays. Catalogs are equal when rows, span and selector are.
    """

    rows: np.ndarray
    span: StudyVolume
    magnitude_selector: str = "mb"

    def __init__(
        self, events: Iterable[Event], span: StudyVolume, magnitude_selector: str = "mb"
    ):
        rows = np.array([e._row() for e in events], dtype=ROW_DTYPE)
        self._store(rows, span, magnitude_selector)

    @classmethod
    def _from_rows(
        cls, rows: np.ndarray, span: StudyVolume | None, magnitude_selector: str = "mb"
    ) -> "Catalog":
        """Catalog over ``rows``. With no span, the rows are first sorted by
        time (equal times keep their order) and the span is their global-sphere
        envelope, a dummy day when there are none."""
        if span is None:
            rows = rows[np.argsort(rows["time_us"], kind="stable")]
            t = rows["time_us"]
            t_min, t_max = (int(t[0]), int(t[-1])) if len(t) else (0, 86_400_000_000)
            t_max = t_max if t_max > t_min else t_min + 1_000_000
            span = StudyVolume(GlobalSphere(), _from_us(t_min), _from_us(t_max))
        catalog = cls.__new__(cls)
        catalog._store(rows, span, magnitude_selector)
        return catalog

    def _store(self, rows: np.ndarray, span: StudyVolume, magnitude_selector: str) -> None:
        """Check the invariants in one vectorised pass, then make the rows read-only."""
        if magnitude_selector not in MAGNITUDE_SELECTORS:
            raise ValueError(f"unknown magnitude selector {magnitude_selector!r}")
        t = rows["time_us"]
        out_of_order = np.append(False, t[1:] < t[:-1])
        outside_interval = (t < _to_us(span.t_start)) | (t > _to_us(span.t_end))
        outside_region = ~span.region.contains_arrays(rows["lat"], rows["lon"])
        bad = np.flatnonzero(out_of_order | outside_interval | outside_region)
        if bad.size:  # the first bad event, with the first of its checks that fails
            i = int(bad[0])
            if out_of_order[i]:
                raise ValueError(f"events out of time order at position {i}")
            where = "interval" if outside_interval[i] else "region"
            raise ValueError(f"event {i} ({rows['source_id'][i]}) outside the span {where}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "magnitude_selector", magnitude_selector)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        same = (self.span, self.magnitude_selector) == (other.span, other.magnitude_selector)
        return same and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((len(self), self.span, self.magnitude_selector))

    def __reduce__(self):  # copies and unpickled catalogs keep read-only rows
        return Catalog._from_rows, (self.rows, self.span, self.magnitude_selector)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def events(self) -> tuple[Event, ...]:
        """A new Event per row, built on each call."""
        return tuple(
            Event(_from_us(t), GeoPoint(lat, lon), depth, mb or None, ms or None, source_id)
            for t, lat, lon, depth, mb, ms, source_id in _row_tuples(self.rows)
        )

    def with_events(self, events: Sequence[Event]) -> "Catalog":
        return Catalog(events, self.span, self.magnitude_selector)

    def times_s(self) -> np.ndarray:
        """Event times as POSIX seconds (float64); instants compare as rows["time_us"]."""
        return self.rows["time_us"] / 1e6

    def latitudes(self) -> np.ndarray:
        return self.rows["lat"].copy()

    def longitudes(self) -> np.ndarray:
        return self.rows["lon"].copy()

    def magnitudes(self) -> np.ndarray:
        """Authoritative magnitudes; NaN where absent."""
        m = self.rows[self.magnitude_selector]
        return np.where(m > 0.0, m, np.nan)

    def source_ids(self) -> tuple[str, ...]:
        return tuple(self.rows["source_id"].tolist())


def _decode(source: bytes | str | IO) -> str:
    """The text of ``source``, without a leading byte-order mark."""
    if not isinstance(source, (bytes, str)):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogParseError(f"input is not valid UTF-8: {exc}") from exc
    return source.removeprefix("\ufeff")


def csv_rows(source: bytes | str | IO, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each data row of a CSV whose header
    is exactly ``columns``.

    A leading byte-order mark is ignored and blank rows are skipped; a bad
    header, a row with the wrong number of fields or one the CSV reader
    rejects (a line break in an unquoted field) raises
    :class:`CatalogParseError` naming its line.
    """
    reader = csv.reader(io.StringIO(_decode(source)))
    end = 0
    try:
        header = next(reader, None)
        if header is None:
            raise CatalogParseError("empty input: missing CSV header")
        if [c.strip() for c in header] != list(columns):
            raise CatalogParseError(
                f"line 1: bad header {','.join(header)!r}; expected {','.join(columns)!r}"
            )
        end = reader.line_num
        for row in reader:
            # a quoted field can span lines: name the physical line the row starts on
            line_no, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(columns):
                raise CatalogParseError(
                    f"line {line_no}: expected {len(columns)} fields, got {len(row)}"
                )
            yield line_no, [c.strip() for c in row]
    except csv.Error as exc:
        raise CatalogParseError(f"line {end + 1}: {exc}") from exc


def parse_csv(source: bytes | str | IO, magnitude_selector: str = "mb") -> Catalog:
    """Parse the canonical CSV catalog format.

    Header must be exactly ``time,lat,lon,depth_km,mb,ms,id``. Times are
    ISO-8601 UTC. Empty magnitude cells mean "absent"; a row with both
    magnitudes absent is rejected. Rows are re-sorted by time, equal times
    keeping file order; empty ids get stable row-number ids, and an id may
    appear only once.
    """
    rows = []
    line_of_id: dict[str, int] = {}
    for line_no, fields in csv_rows(source, CSV_COLUMNS):
        time_text, lat_text, lon_text, depth_text, mb_text, ms_text, id_text = fields
        source_id = id_text or f"row{line_no - 1:06d}"
        try:
            time_us = _to_us(parse_instant(time_text))
            lat = float(lat_text)
            lon = float(lon_text)
            depth = float(depth_text)
            if not -180.0 <= lon < 360.0:
                raise ValueError(f"longitude {lon} outside [-180, 360)")
            mb = float(mb_text) if mb_text else None
            ms = float(ms_text) if ms_text else None
            if mb is None and ms is None:
                raise ValueError("both magnitudes absent")
            rows.append(_checked_row(time_us, GeoPoint(lat, lon), depth, mb, ms, source_id))
        except ValueError as exc:
            raise CatalogParseError(f"line {line_no}: {exc}") from exc
        first = line_of_id.setdefault(source_id, line_no)
        if first != line_no:
            raise CatalogParseError(f"line {line_no}: id {source_id!r} repeats line {first}")
    return Catalog._from_rows(np.array(rows, dtype=ROW_DTYPE), None, magnitude_selector)


def dumps_csv(catalog: Catalog) -> str:
    """Serialize to the canonical CSV format (LF line endings, minimal quoting)."""
    lines = [",".join(CSV_COLUMNS)]
    for t, lat, lon, depth, mb, ms, source_id in _row_tuples(catalog.rows):
        # csv.writer would leave a lone \r unquoted, and the reader rejects that
        if any(c in source_id for c in ',"\r\n'):
            source_id = '"' + source_id.replace('"', '""') + '"'
        lines.append(",".join((
            format_instant(_from_us(t)),
            repr(lat),
            repr(lon),
            repr(depth),
            repr(mb) if mb else "",
            repr(ms) if ms else "",
            source_id,
        )))
    return "\n".join(lines) + "\n"


def _parse_ndk_hypocenter(line: str, record_index: int) -> tuple:
    """Row from the first line of a 5-line NDK record.

    Fixed columns: date [6-15], time [17-26], latitude [28-33],
    longitude [35-41], depth [43-47], two magnitudes [49-55] (mb then MS,
    0.0 meaning "not determined").
    """
    try:
        date_text = line[5:15].strip()
        time_text = line[16:26].strip()
        lat = float(line[27:33])
        lon = float(line[34:41])
        depth = float(line[42:47])
        mag_tokens = line[48:55].split()
        if len(mag_tokens) != 2:
            raise ValueError(f"expected two magnitudes, got {line[48:55]!r}")
        mb_raw, ms_raw = (float(tok) for tok in mag_tokens)

        year, month, day = (int(p) for p in date_text.split("/"))
        hh_text, mm_text, ss_text = time_text.split(":")
        # seconds occasionally reach 60.x in published files; roll them over
        time = datetime(year, month, day, tzinfo=timezone.utc) + timedelta(
            hours=int(hh_text), minutes=int(mm_text), seconds=float(ss_text)
        )
        mb, ms = (m if m > 0.0 else None for m in (mb_raw, ms_raw))
        record_id = f"ndk{record_index:06d}"
        return _checked_row(_to_us(time), GeoPoint(lat, lon), depth, mb, ms, record_id)
    except (ValueError, OverflowError) as exc:
        raise CatalogParseError(f"NDK record {record_index + 1}: {exc}") from exc


# The first columns of a hypocenter line in the layout the column-wise scan
# reads: D a digit, N a digit, blank or minus of the integer part of a number,
# which spells " *-?\d*", ? a column _parse_ndk_hypocenter skips, anything else itself.
_NDK_LAYOUT = "?????DDDD/DD/DD?DD:DD:DD.D?NNN.DD?NNNN.DD?NNN.D?D.D D.D"
_MAX_US = _to_us(datetime.max)


def _scan_ndk_hypocenters(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the hypocenter ``lines``, read column-wise, and the mask of the
    canonical ones: those in _NDK_LAYOUT whose values pass every check of
    _parse_ndk_hypocenter, which reads each of them to the same row. An
    integer over 10^k is correctly rounded, as float() of its text is, and a
    tenth of a second is a whole number of microseconds, as timedelta rounds it."""
    n, width = len(lines), len(_NDK_LAYOUT)
    c = np.array(lines, dtype=f"U{width}").view(np.uint32).reshape(n, width)
    d = c - np.uint32(ord("0"))  # wraps below "0": the digits are exactly d <= 9
    digit, blank, minus = d <= 9, c == ord(" "), c == ord("-")
    layout = np.array(list(_NDK_LAYOUT))
    fixed, num = ~np.isin(layout, ["?", "D", "N"]), layout == "N"
    ok = (c[:, fixed] == [ord(ch) for ch in layout[fixed]]).all(1)
    ok &= digit[:, layout == "D"].all(1) & (digit | blank | minus)[:, num].all(1)
    # in an integer part, only a blank comes before a blank or a minus
    ok &= (digit[:, 1:] | blank[:, :-1])[:, num[:-1] & num[1:]].all(1)

    columns = np.where(digit, d, 0).T  # a row per column

    def number(start, stop):  # the integer its digits in columns [start, stop) spell
        value = np.zeros(n, np.int64)
        for j in range(start, stop):
            if _NDK_LAYOUT[j] in "DN":
                value = value * 10 + columns[j]
        return value

    def decimal(start, stop, places):
        sign = np.where(minus[:, start:stop].any(1), -1.0, 1.0)
        return number(start, stop) / 10.0**places * sign

    year, month, day = number(5, 9), number(10, 12), number(13, 15)
    hour, minute, tenths_s = number(16, 18), number(19, 21), number(22, 26)
    lat, lon, depth = decimal(27, 33, 2), decimal(34, 41, 2), decimal(42, 47, 1)
    months = ((year - 1970) * 12 + month - 1).astype("M8[M]")
    days = months.astype("M8[D]").astype(np.int64) + day - 1
    month_end = (months + 1).astype("M8[D]").astype(np.int64)
    time_us = days * 86_400_000_000 + ((hour * 60 + minute) * 600 + tenths_s) * 100_000
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (days < month_end)
    ok &= (hour < 24) & (minute < 60) & (time_us <= _MAX_US)
    ok &= (np.abs(lat) <= 90.0) & (depth >= 0.0)

    rows = np.zeros(n, ROW_DTYPE)  # np.empty fills the object field slower
    rows["time_us"], rows["lat"], rows["lon"] = time_us, lat, normalize_lon(lon)
    rows["depth_km"], rows["mb"], rows["ms"] = depth, decimal(48, 51, 1), decimal(52, 55, 1)
    rows["source_id"] = ("ndk%06d " * n % tuple(range(n))).split()  # one C loop, not n f-strings
    return rows, ok


def parse_ndk(source: bytes | str | IO, magnitude_selector: str = "mb") -> Catalog:
    """Parse the published 5-lines-per-event NDK format.

    Only the hypocenter line of each record is consumed. Records whose
    magnitudes are all undetermined are retained; thresholding happens in
    :func:`filter_catalog`. Canonical records are read column-wise; every
    other record goes through :func:`_parse_ndk_hypocenter`, in record order.
    """
    lines = _decode(source).splitlines()
    if len(lines) % NDK_LINES_PER_RECORD != 0:
        raise CatalogParseError(
            f"NDK line count {len(lines)} is not a multiple of {NDK_LINES_PER_RECORD}"
        )
    hypocenters = lines[::NDK_LINES_PER_RECORD]
    rows, canonical = _scan_ndk_hypocenters(hypocenters)
    for i in np.flatnonzero(~canonical).tolist():
        rows[i] = _parse_ndk_hypocenter(hypocenters[i], i)
    return Catalog._from_rows(rows, None, magnitude_selector)


def filter_catalog(
    catalog: Catalog,
    mag_min: float,
    window: tuple[datetime, datetime] | None = None,
) -> Catalog:
    """Events with authoritative magnitude >= mag_min inside the time window.

    Events whose authoritative magnitude is absent are dropped. The result's
    span is the window (region unchanged); both window endpoints are
    inclusive. The window defaults to the catalog's own span.
    """
    if not math.isfinite(mag_min):
        raise ValueError(f"mag_min must be finite, got {mag_min!r}")
    if window is None:
        t_start, t_end = catalog.span.t_start, catalog.span.t_end
    else:
        t_start, t_end = (_as_utc(t) for t in window)
    span = replace(catalog.span, t_start=t_start, t_end=t_end)
    rows = catalog.rows
    m, t = rows[catalog.magnitude_selector], rows["time_us"]
    keep = (m > 0.0) & (m >= mag_min) & (t >= _to_us(t_start)) & (t <= _to_us(t_end))
    return Catalog._from_rows(rows[keep], span, catalog.magnitude_selector)
