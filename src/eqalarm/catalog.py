"""Catalog model and parsers for the canonical CSV and NDK record formats.

A catalog is an immutable, time-sorted sequence of events together with the
study volume (region x time span) it covers. Parsers build catalogs; all
downstream analysis treats them as read-only.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import IO, Iterator, Sequence

import numpy as np

from .geo import GeoPoint, GlobalSphere, Region

CSV_COLUMNS = ("time", "lat", "lon", "depth_km", "mb", "ms", "id")
MAGNITUDE_SELECTORS = ("mb", "ms")
NDK_LINES_PER_RECORD = 5


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
    """Canonical ISO-8601 UTC rendering with a Z suffix."""
    t = _as_utc(t)
    base = t.strftime("%Y-%m-%dT%H:%M:%S")
    if t.microsecond:
        return f"{base}.{t.microsecond:06d}Z"
    return base + "Z"


def _as_utc(t: datetime) -> datetime:
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


@dataclass(frozen=True)
class Event:
    """One catalog entry: origin time, epicenter, depth, reported magnitudes.

    Depth is carried for provenance only; every computation in this package
    uses epicentral distance. Magnitudes may be absent; values, when present,
    must lie in (0, 10].
    """

    time: datetime
    epicenter: GeoPoint
    depth_km: float
    mb: float | None
    ms: float | None
    source_id: str

    def __post_init__(self):
        object.__setattr__(self, "time", _as_utc(self.time))
        if not math.isfinite(self.depth_km) or self.depth_km < 0.0:
            raise ValueError(f"depth must be nonnegative, got {self.depth_km!r}")
        for name in ("mb", "ms"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value) or not (0.0 < value <= 10.0):
                raise ValueError(f"{name}={value!r} outside (0, 10]")

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


@dataclass(frozen=True)
class Catalog:
    """Immutable, time-sorted event list plus the study volume it covers."""

    events: tuple[Event, ...]
    span: StudyVolume
    magnitude_selector: str = "mb"

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if self.magnitude_selector not in MAGNITUDE_SELECTORS:
            raise ValueError(f"unknown magnitude selector {self.magnitude_selector!r}")
        # times compare exactly as UTC datetimes; the span interval is closed
        t_start, t_end = self.span.t_start, self.span.t_end
        in_region = self.span.region.contains_arrays(self.latitudes(), self.longitudes())
        previous = None
        for i, (event, inside) in enumerate(zip(self.events, in_region.tolist())):
            if previous is not None and event.time < previous:
                raise ValueError(f"events out of time order at position {i}")
            previous = event.time
            if not t_start <= event.time <= t_end:
                raise ValueError(f"event {i} ({event.source_id}) outside the span interval")
            if not inside:
                raise ValueError(f"event {i} ({event.source_id}) outside the span region")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def with_events(self, events: Sequence[Event]) -> "Catalog":
        return replace(self, events=tuple(events))

    def times_s(self) -> np.ndarray:
        """Event times as POSIX seconds (float64)."""
        return np.array([e.time.timestamp() for e in self.events], dtype=float)

    def latitudes(self) -> np.ndarray:
        return np.array([e.epicenter.lat for e in self.events], dtype=float)

    def longitudes(self) -> np.ndarray:
        return np.array([e.epicenter.lon for e in self.events], dtype=float)

    def magnitudes(self) -> np.ndarray:
        """Authoritative magnitudes; NaN where absent."""
        return np.array(
            [
                m if (m := e.magnitude(self.magnitude_selector)) is not None else np.nan
                for e in self.events
            ],
            dtype=float,
        )

    def source_ids(self) -> tuple[str, ...]:
        return tuple(e.source_id for e in self.events)


def _decode(source: bytes | str | IO) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogParseError(f"input is not valid UTF-8: {exc}") from exc
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return _decode(data)
    return data


def csv_rows(source: bytes | str | IO, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each data row of a CSV whose header
    is exactly ``columns``.

    A leading byte-order mark is ignored and blank rows are skipped; a bad
    header or a row with the wrong number of fields raises
    :class:`CatalogParseError` naming its line.
    """
    reader = csv.reader(io.StringIO(_decode(source).removeprefix("\ufeff")))
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


def _sorted_events(events: list[Event]) -> list[Event]:
    # sorted() is stable, so equal times keep their input order
    return sorted(events, key=lambda e: e.time)


def _envelope_span(events: Sequence[Event]) -> StudyVolume:
    """Tight global-sphere span around time-sorted events (a dummy day when empty)."""
    if not events:
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        return StudyVolume(GlobalSphere(), epoch, epoch + timedelta(days=1))
    t_min, t_max = events[0].time, events[-1].time
    if t_max == t_min:
        t_max = t_min + timedelta(seconds=1)
    return StudyVolume(GlobalSphere(), t_min, t_max)


def parse_csv(source: bytes | str | IO, magnitude_selector: str = "mb") -> Catalog:
    """Parse the canonical CSV catalog format.

    Header must be exactly ``time,lat,lon,depth_km,mb,ms,id``. Times are
    ISO-8601 UTC. Empty magnitude cells mean "absent"; a row with both
    magnitudes absent is rejected. Rows are re-sorted by time, equal times
    keeping file order; empty ids get stable row-number ids, and an id may
    appear only once.
    """
    events: list[Event] = []
    line_of_id: dict[str, int] = {}
    for line_no, fields in csv_rows(source, CSV_COLUMNS):
        time_text, lat_text, lon_text, depth_text, mb_text, ms_text, id_text = fields
        try:
            time = parse_instant(time_text)
            lat = float(lat_text)
            lon = float(lon_text)
            depth = float(depth_text)
            if not -180.0 <= lon < 360.0:
                raise ValueError(f"longitude {lon} outside [-180, 360)")
            mb = float(mb_text) if mb_text else None
            ms = float(ms_text) if ms_text else None
            if mb is None and ms is None:
                raise ValueError("both magnitudes absent")
            event = Event(
                time=time,
                epicenter=GeoPoint(lat, lon),
                depth_km=depth,
                mb=mb,
                ms=ms,
                source_id=id_text or f"row{line_no - 1:06d}",
            )
        except ValueError as exc:
            raise CatalogParseError(f"line {line_no}: {exc}") from exc
        first = line_of_id.setdefault(event.source_id, line_no)
        if first != line_no:
            raise CatalogParseError(
                f"line {line_no}: id {event.source_id!r} repeats line {first}"
            )
        events.append(event)
    events = _sorted_events(events)
    return Catalog(tuple(events), _envelope_span(events), magnitude_selector)


def dumps_csv(catalog: Catalog) -> str:
    """Serialize to the canonical CSV format (LF line endings, minimal quoting)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in catalog.events:
        writer.writerow((
            format_instant(e.time),
            repr(e.epicenter.lat),
            repr(e.epicenter.lon),
            repr(e.depth_km),
            "" if e.mb is None else repr(e.mb),
            "" if e.ms is None else repr(e.ms),
            e.source_id,
        ))
    return out.getvalue()


def _parse_ndk_hypocenter(line: str, record_index: int) -> Event:
    """Event from the first line of a 5-line NDK record.

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
        return Event(
            time=time,
            epicenter=GeoPoint(lat, lon),
            depth_km=depth,
            mb=mb_raw if mb_raw > 0.0 else None,
            ms=ms_raw if ms_raw > 0.0 else None,
            source_id=f"ndk{record_index:06d}",
        )
    except ValueError as exc:
        raise CatalogParseError(f"NDK record {record_index + 1}: {exc}") from exc


def parse_ndk(source: bytes | str | IO, magnitude_selector: str = "mb") -> Catalog:
    """Parse the published 5-lines-per-event NDK format.

    Only the hypocenter line of each record is consumed. Records whose
    magnitudes are all undetermined are retained; thresholding happens in
    :func:`filter_catalog`.
    """
    text = _decode(source)
    lines = text.splitlines()
    if len(lines) % NDK_LINES_PER_RECORD != 0:
        raise CatalogParseError(
            f"NDK line count {len(lines)} is not a multiple of {NDK_LINES_PER_RECORD}"
        )
    events = [
        _parse_ndk_hypocenter(lines[i * NDK_LINES_PER_RECORD], i)
        for i in range(len(lines) // NDK_LINES_PER_RECORD)
    ]
    events = _sorted_events(events)
    return Catalog(tuple(events), _envelope_span(events), magnitude_selector)


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
    selector = catalog.magnitude_selector
    kept = tuple(
        e
        for e in catalog.events
        if (m := e.magnitude(selector)) is not None
        and m >= mag_min
        and t_start <= e.time <= t_end
    )
    return Catalog(kept, span, selector)
