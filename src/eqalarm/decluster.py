"""Window declustering: punch a space-time hole after every event.

An event is deleted when any strictly larger earlier event has it inside
that larger event's magnitude-dependent window (within the window's days
after the larger event, within its distance of the epicenter). By default
deleted events still punch holes, which makes the outcome a pure pairwise
predicate independent of sweep order; a mode flag restricts hole-punching
to retained events instead. Equal magnitudes never delete each other.

No window table ships as ground truth; tables are user configuration
loaded from a 3-column CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .catalog import ROW_DTYPE, SECONDS_PER_DAY, Catalog, CatalogParseError, _row_tuples, csv_rows
from .catalog import _seconds_to_us
from .alarm import pair_blocks

WINDOW_CSV_COLUMNS = ("mag_min", "time_days", "distance_km")


@dataclass(frozen=True)
class WindowRow:
    mag_min: float
    time_days: float
    distance_km: float

    def __post_init__(self):
        if math.isnan(self.mag_min):
            raise ValueError("mag_min may not be NaN")
        if not (self.time_days > 0.0 and math.isfinite(self.time_days)):
            raise ValueError(f"time_days must be positive, got {self.time_days!r}")
        if not (self.distance_km > 0.0 and math.isfinite(self.distance_km)):
            raise ValueError(f"distance_km must be positive, got {self.distance_km!r}")


@dataclass(frozen=True)
class WindowTable:
    """Magnitude-dependent windows; an event takes the row with the largest
    mag_min not exceeding its magnitude. The first row must have
    mag_min = -inf so every magnitude resolves."""

    rows: tuple[WindowRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("window table needs at least one row")
        mags = [r.mag_min for r in self.rows]
        if mags[0] != -math.inf:
            raise ValueError("first window row must have mag_min = -inf (default row)")
        if any(a >= b for a, b in zip(mags, mags[1:])):
            raise ValueError("mag_min must be strictly increasing across rows")

    @classmethod
    def uniform(cls, time_days: float, distance_km: float) -> "WindowTable":
        return cls((WindowRow(-math.inf, time_days, distance_km),))

    @classmethod
    def from_csv(cls, source: bytes | str | IO) -> "WindowTable":
        """Load from CSV with header ``mag_min,time_days,distance_km``."""
        rows = tuple(csv_rows(source, WINDOW_CSV_COLUMNS, lambda _, f: WindowRow(*map(float, f))))
        try:
            return cls(rows)
        except ValueError as exc:
            raise CatalogParseError(str(exc)) from exc


@dataclass(frozen=True)
class DeclusterResult:
    catalog: Catalog
    deleted_indices: tuple[int, ...]


def decluster(
    catalog: Catalog, windows: WindowTable, retained_only: bool = False
) -> DeclusterResult:
    """Delete every event covered by a strictly larger earlier event's window.

    With ``retained_only`` set, only events that themselves survive punch
    holes (sequential sweep); by default every event punches one, deleted
    or not. Events without an authoritative magnitude neither punch holes
    nor get deleted. Retained events keep their original order.
    """
    n = len(catalog)
    times = catalog.rows["time_us"]
    lats = catalog.latitudes()
    lons = catalog.longitudes()
    mags = catalog.magnitudes()
    # every event's window row at once, lengths rounded as alarm windows are
    row = np.searchsorted([r.mag_min for r in windows.rows], mags, side="right") - 1
    time_windows_us = _seconds_to_us([r.time_days * SECONDS_PER_DAY for r in windows.rows])[row]
    distance_km = np.array([r.distance_km for r in windows.rows])
    dist_windows_km = np.where(np.isnan(mags), 0.0, distance_km[row])

    deleted = np.zeros(n, dtype=bool)
    # target k, "alarm" j: j's window holds k; absent (NaN) magnitudes get no
    # distance window and fail the comparison, so they neither punch nor get deleted
    for k, j in pair_blocks(lats, lons, lats, lons, dist_windows_km):
        dt = times[k] - times[j]
        punch = (mags[j] > mags[k]) & (dt > 0) & (dt <= time_windows_us[j])
        k, j = k[punch], j[punch]
        if not retained_only:
            deleted[k] = True
            continue
        # pairs come sorted by k, and on a time-sorted catalog every puncher
        # j precedes its k, so j's own fate is settled when k is reached
        for kk, jj in zip(k.tolist(), j.tolist()):
            if not deleted[jj]:
                deleted[kk] = True

    kept = Catalog._from_rows(catalog.rows[~deleted], catalog.span, catalog.magnitude_selector)
    return DeclusterResult(kept, tuple(np.flatnonzero(deleted).tolist()))


def _ordered_subsequence(before: np.ndarray, after: np.ndarray) -> bool:
    """Whether the time-sorted rows ``after`` are an ordered subsequence of
    the time-sorted rows ``before``. Rows are equal as their tuples of Python
    values are, so a NaN never matches."""
    t = before["time_us"]
    # an after row can only be one of the before rows at its own time, [lo, hi)
    lo, hi = (np.searchsorted(t, after["time_us"], side) for side in ("left", "right"))
    tied = hi - lo > 1
    one = np.flatnonzero(~tied)
    at = lo[one]
    # a time held once in before: that row, each at most once
    if not ((hi[one] - at == 1).all() and (np.diff(at) > 0).all()):
        return False
    if not all((before[name][at] == after[name][one]).all() for name in ROW_DTYPE.names):
        return False
    if not tied.any():
        return True
    # rows at different times never match, so one walk over the rows of every
    # tied time checks each time's rows in order
    same = t[1:] == t[:-1]
    remaining = _row_tuples(before[np.append(same, False) | np.append(False, same)])
    # ``in`` consumes the iterator up to the match, so order is enforced
    return all(row in remaining for row in _row_tuples(after[tied]))


def decluster_stats(before: Catalog, after: Catalog) -> tuple[int, float]:
    """(n_deleted, fraction_deleted) between a catalog and its declustering.

    ``after`` must keep ``before``'s order, as ``decluster`` guarantees: its
    rows must be an ordered subsequence of ``before``'s, else ValueError.
    """
    if not _ordered_subsequence(before.rows, after.rows):
        raise ValueError("after is not an ordered subset of before")
    n_deleted = len(before) - len(after)
    fraction = n_deleted / len(before) if len(before) else 0.0
    return n_deleted, fraction
