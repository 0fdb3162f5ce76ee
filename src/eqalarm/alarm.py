"""Alarm generation and scoring.

An alarm is a spherical cap crossed with a half-open time interval and a
magnitude floor. The automatic strategy raises one alarm after every
catalog event at or above a threshold magnitude; the floor is either the
threshold itself (``FloorRule.THRESHOLD``) or the triggering event's own
magnitude (``FloorRule.TRIGGER``). An event counts as predicted when some
alarm covers it in space and time and its magnitude reaches the largest
floor among the covering alarms; with trigger floors that max-floor rule
is exactly "no stronger trigger nearby outranks it". An alarm never covers
its own trigger: the interval excludes the trigger instant, and trigger
identity is excluded outright so the guarantee survives reassigned times.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from datetime import datetime
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from ._random import as_key
from .catalog import _MAX_US, SECONDS_PER_DAY, Catalog, StudyVolume, _as_utc, _from_us, _to_us
from .catalog import _seconds_to_us, format_instant
from .geo import EARTH_RADIUS_KM, GeoPoint, cap_area_km2, check_cap_radius, great_circle_km_arrays

# Working memory the batched kernels (the alarm x target join, the count
# kernel and the replicate blocks) may hold at once; each divides it by its
# own bytes per element to size its chunks.
MEMORY_BUDGET_BYTES = 256 * 2**20


def rows_within_budget(bytes_per_row: int) -> int:
    """Rows of a batch whose working arrays fit MEMORY_BUDGET_BYTES (at least 1)."""
    return max(1, MEMORY_BUDGET_BYTES // max(bytes_per_row, 1))


# Peak bytes per pair of a join block and of its callers' reductions of it,
# under tracemalloc with every candidate a pair (4000 targets x 400 alarms,
# 1500 events for decluster): the block 16, decluster 41, and _covered_us,
# behind the alarm measure and the union volume, 49. Candidates bound pairs.
JOIN_BYTES_PER_CANDIDATE = 56
# Haversines evaluated at once: 196,608 candidates take 24-25 ms in one pass
# and 14.7-15.3 ms in slices of 2**14, whose temporaries fit a 2 MiB L2 cache.
CANDIDATE_SLICE = 2**14
# A target's join key is strip * STRIP_KEY + x, x its longitude moved onto
# [0, 360]: a longitude window narrower than 180 degrees, shifted by up to
# 360, never reaches another strip's keys. Strips are no lower than
# 180 / MAX_STRIPS degrees, so a key keeps x to within 1e-8 degrees. An alarm
# whose band spans more than WIDE_STRIPS strips takes the whole band as one
# key range.
STRIP_KEY = 1000.0
MAX_STRIPS = 2**16
WIDE_STRIPS = 8
# Target x alarm pairs from which a join builds strips. Below, building them
# costs more than the candidates they save: on the perfbench seed-3 catalog
# (2-vCPU host), strips against latitude bands took 89 against 60 us for the
# 6-40-point regional joins and 181 against 128 us for 266 x 266 points, and
# paid from about 10**6 pairs (694 against 742 us for 1009 x 1009, 1.75
# against 2.32 ms for 2013 x 2013).
STRIP_MIN_PAIRS = 2**19


def _key_ranges(lat_t, lon_t, lon_a, band_lo, band_hi, half_band, half_lon):
    """The targets' join keys and the alarms' key ranges, as (key_t, range_lo,
    range_hi, range_alarm): a target whose key lies in [range_lo[r],
    range_hi[r]] is a candidate of alarm range_alarm[r]. Every target in an
    alarm's band and longitude window is one of its candidates, and no
    target is a candidate of an alarm twice.

    A join of STRIP_MIN_PAIRS target x alarm pairs or more keys its targets
    by latitude strip, then longitude. Strips are twice the alarms' median
    half-band high, so a typical band spans two of them. A wide alarm (its
    band reaches a pole or spans more than WIDE_STRIPS strips) takes one
    range over all its strips; any other takes one per strip, and one more
    per strip where its window wraps past x = 0 or 360. Strips partition
    half_band in place.
    """
    n, m = lat_t.size, band_lo.size
    if n * m < STRIP_MIN_PAIRS:
        # the keys are the latitudes, and each alarm's band is its one range,
        # as with strips when every alarm is wide
        return lat_t, band_lo, band_hi, np.arange(m)
    # x is a longitude plus 180; arrays of n are built in place, for the
    # peak memory of a large join
    x = np.concatenate((lon_t, lon_a))
    x += 180.0
    # x loses up to 1e-8 degrees in a key
    w = half_lon + 1e-6
    # strips h high, numbered from the south pole
    h = 180.0
    if m:
        half_band.partition(m // 2)
        h = max(2.0 * float(half_band[m // 2]), 180.0 / MAX_STRIPS)
    strip = np.concatenate((lat_t, band_lo, band_hi))
    strip += 90.0
    strip /= h
    np.floor(strip, out=strip)
    key_t = strip[:n]
    key_t *= STRIP_KEY
    key_t += x[:n]
    first_key = strip[n:n + m] * STRIP_KEY
    spans = strip[n + m:] - strip[n:n + m]
    # alarm row j's ranges are [lo_j, hi_j] + i * STRIP_KEY for i below
    # count_j; a window wrapping past 0 or 360 adds an alarm row for its
    # other piece, shifted by 360
    x_lo, x_hi = x[n:] - w, x[n:] + w
    count = spans.astype(np.intp) + 1
    wraps = (x_lo < 0.0) | (x_hi > 360.0)
    wide = ((w >= 180.0) | (spans >= WIDE_STRIPS)).nonzero()[0]
    x_lo[wide], x_hi[wide] = 0.0, spans[wide] * STRIP_KEY + 360.0
    count[wide], wraps[wide] = 1, False
    lo, hi, alarm, wraps = first_key + x_lo, first_key + x_hi, np.arange(m), wraps.nonzero()[0]
    turn = np.where(x_lo[wraps] < 0.0, 360.0, -360.0)
    lo, hi = np.concatenate((lo, lo[wraps] + turn)), np.concatenate((hi, hi[wraps] + turn))
    count, alarm = np.concatenate((count, count[wraps])), np.concatenate((alarm, wraps))
    row = np.arange(count.size).repeat(count)
    step = (np.arange(row.size) - (count.cumsum() - count)[row]) * STRIP_KEY
    return key_t, lo[row] + step, hi[row] + step, alarm[row]


def pair_blocks(lat_t, lon_t, lat_a, lon_a, radius_km_a):
    """Every (target, alarm) index pair whose haversine distance is at most
    the alarm's radius, in blocks of targets, each sorted by target then
    alarm. A block starts as all targets (one empty block if none) and is
    halved, lower half first, while it holds more than one target and the
    candidates it generates, at JOIN_BYTES_PER_CANDIDATE each, overflow
    MEMORY_BUDGET_BYTES.

    An alarm's band holds the targets whose latitude lies within its radius
    in degrees (great-circle distance is never below R * |dlat|) plus 1e-5:
    near the antipode the haversine's arcsin loses up to some 5e-7 degrees,
    and the slack keeps every pair it accepts. Its longitude window is, for
    an angular radius a at latitude p, asin(sin a / cos p) plus the same
    slack, or the whole circle when the band reaches a pole (so when
    sin a >= cos p). Latitudes must lie in [-90, 90] and longitudes in
    [-180, 180]; neither is checked.

    A block sorts its targets by join key (see _key_ranges) once, and takes
    each alarm's candidates from a few key ranges that cover its band and,
    in a large join, its window. Only candidates in the band and the window
    reach the haversine, and each is re-checked against ``<= radius``, so
    the pairs are exactly the dense haversine join's.
    """
    lat_t, lon_t, lat_a, lon_a = (np.asarray(x, float) for x in (lat_t, lon_t, lat_a, lon_a))
    radius = np.full(lat_a.shape, radius_km_a, dtype=float)
    alpha = radius / EARTH_RADIUS_KM
    half_band = np.degrees(alpha) + 1e-5
    band_lo, band_hi = lat_a - half_band, lat_a + half_band
    window = np.degrees(np.arcsin(np.minimum(np.sin(alpha) / np.cos(np.radians(lat_a)), 1.0)))
    half_lon = np.where(np.abs(lat_a) + half_band >= 90.0, 180.0, window + 1e-5)
    key_t, range_lo, range_hi, range_alarm = _key_ranges(
        lat_t, lon_t, lon_a, band_lo, band_hi, half_band, half_lon
    )
    # ranges in ascending order of their lower key, for ordered searches; a
    # block sorts its pairs, so the order changes none it yields
    by_lo = range_lo.argsort()
    range_lo, range_hi, range_alarm = range_lo[by_lo], range_hi[by_lo], range_alarm[by_lo]
    m = lat_a.size

    def block(t0, t1, range_lo, range_hi, range_alarm):
        order = key_t[t0:t1].argsort()
        order += t0
        keys = key_t[order]
        first = keys.searchsorted(range_lo, "left")
        n_cand = keys.searchsorted(range_hi, "right") - first
        # range r's candidates c = offsets[r], ..., offsets[r + 1] - 1 sit at
        # sorted positions first[r] + c - offsets[r]
        offsets = np.concatenate(([0], n_cand.cumsum()))
        n_total = int(offsets[-1])
        if n_total * JOIN_BYTES_PER_CANDIDATE > MEMORY_BUDGET_BYTES and t1 - t0 > 1:
            # a range with no candidate in this block has none in either half
            has = n_cand.nonzero()[0]
            ranges = range_lo[has], range_hi[has], range_alarm[has]
            yield from block(t0, (t0 + t1) // 2, *ranges)
            yield from block((t0 + t1) // 2, t1, *ranges)
            return
        # ranges in runs of about CANDIDATE_SLICE candidates, at least one run;
        # the last cut lies past n_total, so the last run ends with the ranges
        cuts = np.arange(0, n_total + CANDIDATE_SLICE + 1, CANDIDATE_SLICE)
        bounds = offsets[1:].searchsorted(cuts, "left").tolist()
        shift, kept = first - offsets[:-1], []
        for r0, r1 in zip(bounds, bounds[1:]):
            r = np.arange(r0, r1).repeat(n_cand[r0:r1])
            t = order[np.arange(offsets[r0], offsets[r0] + r.size) + shift[r]]
            a = range_alarm[r]
            lat = lat_t[t]
            d_lon = np.abs(lon_t[t] - lon_a[a]) % 360.0
            near = (lat >= band_lo[a]) & (lat <= band_hi[a])
            near &= np.minimum(d_lon, 360.0 - d_lon) <= half_lon[a]
            t, a = t[near], a[near]
            keep = great_circle_km_arrays(lat_t[t], lon_t[t], lat_a[a], lon_a[a]) <= radius[a]
            kept.append((t * m + a)[keep])
        # keys t * m + a sort pairs by target, then alarm; a block keeps no copy of what it yields
        pairs = np.concatenate(kept)
        kept.clear()
        pairs.sort()
        yield np.divmod(pairs, max(m, 1), out=(pairs, np.empty_like(pairs)))

    yield from block(0, lat_t.size, range_lo, range_hi, range_alarm)


class FloorRule(str, Enum):
    """How a generated alarm's magnitude floor is set."""

    THRESHOLD = "threshold"  # floor = the trigger threshold
    TRIGGER = "trigger"      # floor = the triggering event's magnitude


@dataclass(frozen=True, slots=True)
class Alarm:
    """One prediction: cap x half-open time interval (t_start, t_end] x floor."""

    center: GeoPoint
    radius_km: float
    t_start: datetime
    t_end: datetime
    mag_floor: float
    trigger_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_start", _as_utc(self.t_start))
        object.__setattr__(self, "t_end", _as_utc(self.t_end))
        check_cap_radius(self.radius_km)
        if not self.t_start < self.t_end:
            raise ValueError("alarm interval is empty")
        if math.isnan(self.mag_floor):  # it would outrank every target it covers
            raise ValueError("alarm mag_floor may not be NaN")


# One row per alarm: the window (start_us, end_us] in exact microseconds since
# the epoch; trigger_id is None for an alarm without a trigger.
ALARM_DTYPE = np.dtype([
    ("lat", float), ("lon", float), ("radius_km", float), ("start_us", np.int64),
    ("end_us", np.int64), ("mag_floor", float), ("trigger_id", object),
])


@dataclass(frozen=True, eq=False)
class AlarmSet:
    """Ordered alarms, held as ``rows``, a read-only ALARM_DTYPE array with a
    row per alarm; :attr:`alarms` and iteration build new Alarm views on each
    call. Alarm sets compare by identity."""

    rows: np.ndarray

    def __init__(self, alarms: Iterable[Alarm]):
        rows = [
            (a.center.lat, a.center.lon, a.radius_km, _to_us(a.t_start), _to_us(a.t_end),
             a.mag_floor, a.trigger_id)
            for a in alarms
        ]
        self._store(np.array(rows, dtype=ALARM_DTYPE))

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "AlarmSet":
        alarm_set = cls.__new__(cls)
        alarm_set._store(rows)
        return alarm_set

    def _store(self, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Alarm]:
        return iter(self.alarms)

    @property
    def alarms(self) -> tuple[Alarm, ...]:
        """A new Alarm per row, built on each call."""
        return tuple(
            Alarm(GeoPoint(lat, lon), radius, _from_us(start), _from_us(end), floor, trigger_id)
            for lat, lon, radius, start, end, floor, trigger_id in self.rows.tolist()
        )


def generate_alarms(
    catalog: Catalog,
    mag_threshold: float,
    window_days: float = 21.0,
    radius_km: float = 50.0,
    floor_rule: FloorRule = FloorRule.THRESHOLD,
) -> AlarmSet:
    """One alarm per event at or above the threshold magnitude.

    The alarm covers a cap of ``radius_km`` around the trigger's epicenter
    for the half-open window of ``window_days`` after the trigger instant.
    Windows are not clipped at the span end: events beyond the span are
    absent from any catalog being scored, and the summed alarm volume is
    defined on full windows. A window that rounds to 0 microseconds, or
    that ends an alarm after ``datetime.max``, raises ValueError.
    """
    if not math.isfinite(mag_threshold):
        raise ValueError(f"mag_threshold must be finite, got {mag_threshold!r}")
    if not (math.isfinite(window_days) and window_days > 0.0):
        raise ValueError(f"window_days must be positive, got {window_days!r}")
    check_cap_radius(radius_km)
    floor_rule = FloorRule(floor_rule)
    window_us = int(_seconds_to_us(window_days * SECONDS_PER_DAY))
    magnitudes = catalog.magnitudes()
    # absent magnitudes are NaN and never trigger, whatever the threshold
    index = np.flatnonzero(magnitudes >= mag_threshold)
    triggers = catalog.rows[index]
    if index.size and window_us == 0:
        raise ValueError("alarm interval is empty")
    if index.size and int(triggers["time_us"].max()) + window_us > _MAX_US:
        raise ValueError(f"window_days={window_days!r} ends an alarm after {datetime.max}")
    rows = np.zeros(index.size, dtype=ALARM_DTYPE)
    rows["lat"], rows["lon"], rows["radius_km"] = triggers["lat"], triggers["lon"], radius_km
    rows["start_us"], rows["end_us"] = triggers["time_us"], triggers["time_us"] + window_us
    rows["mag_floor"] = mag_threshold if floor_rule is FloorRule.THRESHOLD else magnitudes[index]
    rows["trigger_id"] = triggers["source_id"]
    return AlarmSet._from_rows(rows)


# The last index's pair join, reused by the next index whose targets and
# alarms agree with it on every array the join reads: (those arrays, (pk, pj,
# lo, hi)). cmd_table1 scores each row's targets under threshold floors,
# then tests them under trigger floors, with the same alarm geometry.
_last_join = None

# positions and gathers of the permutation rows counted at once against a
# kept verdict table: 169 rows at 2013 targets, 954 of them scoring
_CACHE_CHUNK_BYTES = 4 * 2**20


class AlarmTargetIndex:
    """Precomputed spatial join between a fixed alarm set and target events.

    The spatial containment, floor comparisons, and trigger-identity
    exclusions do not depend on event times, so they are resolved once into
    a pair list. Target ids must be unique, since an alarm's trigger is found
    among the targets by id. The targets are sorted by time, and every
    evaluation takes time *positions* into those sorted times: target k takes
    ``times[positions[k]]``, so ``np.arange(n_targets)`` is the observed
    assignment and a permutation of it reassigns the times. The verdicts
    form the board P, target k predicted at position j, which is stored once
    as maximal runs, and every membership question reads them.
    """

    # peak working bytes per (row, scoring target) of a block's gathers: the
    # gathered intp table offsets and the bool verdicts read at them
    BYTES_PER_GATHER = 9
    # largest verdict table a block expands, whatever the budget: gathers from
    # tables much larger run slower (on the 10x stress row, 0.38 s per 512
    # rows with 134 MB tables against 0.15 s with 8 MiB ones)
    TABLE_BYTES = 8 * 2**20

    def __init__(self, targets: Catalog, alarm_set: AlarmSet):
        global _last_join
        self.n_targets = n = len(targets)
        rows = alarm_set.rows
        key = (*(targets.rows[f] for f in ("lat", "lon", "time_us", "source_id")),
               *(rows[f] for f in ("lat", "lon", "radius_km", "start_us", "end_us", "trigger_id")))
        last = _last_join
        if last is None or not all(map(np.array_equal, key, last[0])):
            id_of: dict[str, int] = {}
            for i, s in enumerate(targets.source_ids()):
                if id_of.setdefault(s, i) != i:
                    raise ValueError(
                        f"target id {s!r} repeats (positions {id_of[s]} and {i}); "
                        "ids must be unique"
                    )
            # trigger id resolved to a target position, or -1 when not a target
            a_trig = np.array([id_of.get(s, -1) for s in rows["trigger_id"]], dtype=np.int64)
            pk, pj = (np.concatenate(parts) for parts in zip(*pair_blocks(
                targets.latitudes(), targets.longitudes(),
                rows["lat"], rows["lon"], rows["radius_km"],
            )))
            keep = a_trig[pj] != pk
            pk, pj = pk[keep], pj[keep]
            # a pair's window (start, end] holds the sorted times at positions [lo, hi)
            times = targets.rows["time_us"]
            lo, hi = (np.searchsorted(times, rows[f][pj], "right") for f in ("start_us", "end_us"))
            join = (pk, pj, lo, hi)
            for a in join:
                a.flags.writeable = False  # shared with the next index that reuses them
            last = _last_join = (tuple(np.array(k) for k in key), join)
        self._pk, self._pj, self._lo, self._hi = last[1]
        # per pair: does the target reach the alarm's floor (a NaN never does)
        with np.errstate(invalid="ignore"):
            self._floor_ok = targets.magnitudes()[self._pk] >= rows["mag_floor"][self._pj]

        # The board P as maximal runs (target, start, stop): a pair adds its
        # weight to its target's row from lo and takes it back at hi, 1 if the
        # target reaches the floor and n_pairs + 1 (more than all such pairs) if
        # not, so a stretch is predicted exactly when its summed weight lies in
        # (0, n_pairs + 1). Keys k * (n + 1) + position keep the rows apart, each
        # back at weight 0 by its position n, which no time takes.
        weight = np.where(self._floor_ok, 1, self.n_pairs + 1)
        row_key = self._pk * (n + 1)
        keys = np.concatenate((row_key + self._lo, row_key + self._hi))
        by_key = np.argsort(keys)
        keys = keys[by_key]
        depth = np.concatenate((weight, -weight))[by_key].cumsum()
        # the verdict from a key to the next, read after all pairs at that key
        last = np.ones(keys.size, dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        ok = (depth[last] > 0) & (depth[last] <= self.n_pairs)
        # keys where the verdict switches, alternately on and off
        edges = keys[last][np.diff(ok, prepend=False)]
        run_k, start = np.divmod(edges[0::2], n + 1)
        self._runs = (run_k, start, edges[1::2] - run_k * (n + 1))
        for a in self._runs:
            a.flags.writeable = False
        # the targets predicted at some position, and each run's row among them
        self._scoring, self._run_row = np.unique(run_k, return_inverse=True)
        self._table = None  # the scoring targets' verdicts, kept between counts

    @property
    def n_pairs(self) -> int:
        return int(self._pk.size)

    def _positions(self, positions, ndim: int) -> np.ndarray:
        """``positions`` as intp, refused unless they are integers with ``ndim``
        axes, the last of n_targets, each in [0, n_targets)."""
        positions = np.asarray(positions)
        if not np.issubdtype(positions.dtype, np.integer):
            raise TypeError(f"time positions must be integers, got {positions.dtype}")
        n = self.n_targets
        if positions.ndim != ndim or positions.shape[-1:] != (n,):
            raise ValueError(
                f"need {n} time positions per assignment, got shape {positions.shape}"
            )
        positions = positions.astype(np.intp, copy=False)
        # one pass: a negative position reads as a huge unsigned one
        if positions.size and positions.view(np.uintp).max() >= n:
            raise ValueError(f"time positions must lie in [0, {n})")
        return positions

    def predicted_mask(self, positions: np.ndarray) -> np.ndarray:
        """Per-target prediction flags when target k takes the time at
        ``positions[k]``: a target is predicted when one of its runs holds its
        position."""
        positions = self._positions(positions, 1)
        k, start, stop = self._runs
        at = positions[k]
        mask = np.zeros(self.n_targets, dtype=bool)
        mask[k[(at >= start) & (at < stop)]] = True
        return mask

    def predicted_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The board of verdicts as read-only runs (target, start, stop): target
        k is predicted at the time positions [start, stop) of its runs and at no
        other. Runs are maximal and sorted by target, then start."""
        return self._runs

    def _block(self, n_rows: int) -> int:
        """Scoring targets per verdict table when n_rows rows are counted: the
        table and their gathers fit half the budget, the table TABLE_BYTES."""
        width = max(self.n_targets, 1)  # no target scores when n is 0
        per_target = width + self.BYTES_PER_GATHER * n_rows
        return max(1, min(self.TABLE_BYTES // width, MEMORY_BUDGET_BYTES // 2 // per_target))

    def _rows_per_call(self) -> int:
        """Rows per count call: positions of half the budget, or positions and
        gathers of _CACHE_CHUNK_BYTES when one kept table covers all scoring targets."""
        n, n_scoring = self.n_targets, self._scoring.size
        rows = rows_within_budget(16 * n)
        cached = max(1, _CACHE_CHUNK_BYTES // max(8 * n + self.BYTES_PER_GATHER * n_scoring, 1))
        return min(rows, cached) if self._block(cached) >= n_scoring else rows

    def counts_for_time_matrix(self, order: np.ndarray) -> np.ndarray:
        """Predicted-event counts for a batch of time assignments: row r gives
        target k the time ``times[order[r, k]]`` of the sorted target times, so
        a permutation of ``range(n_targets)`` per row reassigns the times.

        Each block of scoring targets (those with a run) expands its runs into
        a bool verdict table of n_targets bytes per target, and all rows read it
        with one gather per target; a one-block table is kept for later calls.
        """
        order = self._positions(order, 2)
        counts = np.zeros(len(order), dtype=np.int64)
        n, n_scoring = self.n_targets, self._scoring.size
        _, start, stop = self._runs
        block = self._block(len(order))
        if block < n_scoring:
            self._table = None  # it would not fit beside a block's table
        for u0 in range(0, n_scoring, block):
            u1 = min(u0 + block, n_scoring)
            table = self._table
            if table is None:
                r0, r1 = np.searchsorted(self._run_row, (u0, u1))
                offset = (self._run_row[r0:r1] - u0) * n
                # the table's stretches between run edges, alternately off and on
                edges = np.column_stack((offset + start[r0:r1], offset + stop[r0:r1])).ravel()
                stretch = np.diff(edges, prepend=0, append=(u1 - u0) * n)
                table = np.repeat(np.arange(stretch.size) % 2 == 1, stretch)
                self._table = table if block >= n_scoring else None
            # positions were checked, so clipping changes none
            at = np.take(order, self._scoring[u0:u1], axis=1, mode="clip")
            at += np.arange(u1 - u0) * n
            hit = np.take(table, at, mode="clip")
            del table, at  # freed before the verdicts widen to float32
            # faster than count_nonzero on short rows, and exact: a block holds
            # at most sqrt(TABLE_BYTES) < 2**24 targets
            counts += (hit.astype(np.float32) @ np.ones(u1 - u0, np.float32)).astype(np.int64)
            del hit  # freed before the next block's table is built
        return counts

    def successful_alarms(self, positions: np.ndarray) -> int:
        """Alarms containing at least one target above their floor when target
        k takes the time at ``positions[k]``."""
        at = self._positions(positions, 1)[self._pk]
        hit = (at >= self._lo) & (at < self._hi) & self._floor_ok
        return int(np.unique(self._pj[hit]).size)


def count_predicted(targets: Catalog, alarm_set: AlarmSet) -> int:
    """Number of target events predicted by the alarm set.

    Targets are expected to be pre-filtered to the study threshold and
    window; a target is predicted when some alarm covers it and its
    magnitude reaches the largest floor among the covering alarms.
    """
    index = AlarmTargetIndex(targets, alarm_set)
    return int(index.predicted_mask(np.arange(len(targets))).sum())


@dataclass(frozen=True)
class ScoreSummary:
    """Counts and rates of alarm performance against a target catalog.

    F = A - S and M = Q - P by construction; rates with zero denominators
    are reported as 0.
    """

    Q: int
    A: int
    S: int
    P: int
    # derived from the counts in __post_init__, never passed in
    F: int = field(init=False)
    M: int = field(init=False)
    s: float = field(init=False)
    p: float = field(init=False)
    f: float = field(init=False)
    m: float = field(init=False)
    v_upper: float = 0.0

    def __post_init__(self):
        if min(self.Q, self.A, self.S, self.P) < 0:
            raise ValueError("counts must be nonnegative")
        if self.S > self.A or self.P > self.Q:
            raise ValueError("successes cannot exceed their totals")
        object.__setattr__(self, "F", self.A - self.S)
        object.__setattr__(self, "M", self.Q - self.P)
        object.__setattr__(self, "s", self.S / self.A if self.A else 0.0)
        object.__setattr__(self, "p", self.P / self.Q if self.Q else 0.0)
        object.__setattr__(self, "f", self.F / self.A if self.A else 0.0)
        object.__setattr__(self, "m", self.M / self.Q if self.Q else 0.0)
        if not 0.0 <= self.v_upper <= 1.0:
            raise ValueError(f"v_upper {self.v_upper!r} outside [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


def alarm_volume_fraction(alarm_set: AlarmSet, sv: StudyVolume) -> float:
    """Summed alarm space-time volume over the study volume.

    Overlap between alarms is not subtracted, so this upper-bounds the true
    union fraction (and can exceed 1 for heavily overlapping sets). Each
    alarm contributes its full cap area times its full window duration.
    """
    total = sv.area_km2 * sv.duration_s
    rows = alarm_set.rows
    durations_s = (rows["end_us"] - rows["start_us"]) / 1e6
    # Python's sum, in alarm order, keeps the rounding of a running total
    covered = sum((cap_area_km2(rows["radius_km"]) * durations_s).tolist())
    return covered / total


def score(targets: Catalog, alarm_set: AlarmSet, sv: StudyVolume) -> ScoreSummary:
    """All count and rate statistics for an alarm set against a catalog."""
    index = AlarmTargetIndex(targets, alarm_set)
    observed = np.arange(len(targets))
    return ScoreSummary(
        Q=len(targets),
        A=len(alarm_set),
        S=index.successful_alarms(observed),
        P=int(index.predicted_mask(observed).sum()),
        v_upper=min(1.0, alarm_volume_fraction(alarm_set, sv)),
    )


def _covered_us(lat, lon, alarm_set: AlarmSet, t0: int, t1: int) -> tuple[np.ndarray, float]:
    """Per point, the int64 microseconds of [t0, t1] some alarm covers it; and their
    exact total over (t1 - t0) * points, one correctly rounded division."""
    rows = alarm_set.rows
    covered = np.zeros(np.size(lat), dtype=np.int64)
    for k, j in pair_blocks(lat, lon, rows["lat"], rows["lon"], rows["radius_km"]):
        # a window outside [t0, t1] shrinks to a point on its edge
        lo, hi = np.clip(rows["start_us"][j], t0, t1), np.clip(rows["end_us"][j], t0, t1)
        # sorted apart, a point's starts and ends keep its coverage depth, and its
        # ith start precedes its ith end: each pair adds what passes the last end
        lo = lo[np.lexsort((lo, k))]
        hi = hi[np.lexsort((hi, k))]
        prev_end = np.where(np.diff(k, prepend=-1) == 0, np.roll(hi, 1), lo)
        np.add.at(covered, k, hi - np.maximum(lo, prev_end, out=prev_end))
    # the total can pass int64; its 32-bit halves sum exactly below 2**31 points
    total = (int((covered >> 32).sum()) << 32) + int((covered & 0xFFFFFFFF).sum())
    return covered, total / ((t1 - t0) * covered.size)


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo union-volume estimate: mean covered share and its standard error."""

    estimate: float
    stderr: float
    n_samples: int


def union_volume_fraction_mc(
    alarm_set: AlarmSet, sv: StudyVolume, n_samples: int, rng
) -> VolumeEstimate:
    """Estimate the union alarm fraction of the study volume by sampling.

    Points are drawn area-uniform over the study region; the estimate is
    their mean exact covered share of the study interval (as in
    alarm_measure_pi), the standard error the shares' population SD over
    sqrt(n_samples). Alarm extent outside the study volume does not count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    t0, t1 = _to_us(sv.t_start), _to_us(sv.t_end)
    lat, lon = sv.region.sample(n_samples, as_key(rng).generator())
    covered, estimate = _covered_us(lat, lon, alarm_set, t0, t1)
    stderr = float(covered.std()) / (t1 - t0) / math.sqrt(n_samples)
    return VolumeEstimate(estimate, stderr, n_samples)


def dumps_alarms_csv(alarm_set: AlarmSet) -> str:
    """Serialize alarms to CSV: trigger_time,lat,lon,radius_km,t_start,t_end,mag_floor."""
    lines = ["trigger_time,lat,lon,radius_km,t_start,t_end,mag_floor"]
    for lat, lon, radius_km, start_us, end_us, mag_floor, _ in alarm_set.rows.tolist():
        t_start = format_instant(_from_us(start_us))
        lines.append(
            ",".join(
                (
                    t_start,
                    repr(lat),
                    repr(lon),
                    repr(radius_km),
                    t_start,
                    format_instant(_from_us(end_us)),
                    repr(mag_floor),
                )
            )
        )
    return "\n".join(lines) + "\n"
