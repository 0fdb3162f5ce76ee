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

from ._random import as_generator
from .catalog import SECONDS_PER_DAY, Catalog, StudyVolume, _as_utc, _from_us, _to_us
from .catalog import _seconds_to_us, format_instant
from .geo import JOIN_BYTES_PER_CANDIDATE, GeoPoint, cap_area_km2, pairs_within_km

# Working memory the batched kernels (the alarm x target join, the count
# kernel and the replicate blocks) may hold at once; each divides it by its
# own bytes per element to size its chunks.
MEMORY_BUDGET_BYTES = 256 * 2**20


def rows_within_budget(bytes_per_row: int) -> int:
    """Rows of a batch whose working arrays fit MEMORY_BUDGET_BYTES (at least 1)."""
    return max(1, MEMORY_BUDGET_BYTES // max(bytes_per_row, 1))


def pair_blocks(lat_t, lon_t, lat_a, lon_a, radius_km_a):
    """:func:`pairs_within_km` over consecutive blocks of targets, each small
    enough that its pairs fit MEMORY_BUDGET_BYTES even when every alarm
    covers every target. Yields (target, alarm) index arrays block by block
    in target order, each sorted by target then alarm, so the blocks
    concatenate to the whole join's pairs. With no targets it yields one
    empty block."""
    # the join's bytes per candidate also bound its callers' reductions of a
    # block: decluster, alarm_measure_pi and union_volume_fraction_mc peak at
    # about 88 B per pair under tracemalloc when every candidate is a pair
    step = rows_within_budget(JOIN_BYTES_PER_CANDIDATE * len(lat_a))
    for lo in range(0, max(len(lat_t), 1), step):
        t, a = pairs_within_km(
            lat_t[lo : lo + step], lon_t[lo : lo + step], lat_a, lon_a, radius_km_a
        )
        yield t + lo, a


class FloorRule(str, Enum):
    """How a generated alarm's magnitude floor is set."""

    THRESHOLD = "threshold"  # floor = the trigger threshold
    TRIGGER = "trigger"      # floor = the triggering event's magnitude

    @classmethod
    def from_cli(cls, label: str) -> "FloorRule":
        """Map the CLI's predictor labels: 'i' -> THRESHOLD, 'ii' -> TRIGGER."""
        mapping = {"i": cls.THRESHOLD, "ii": cls.TRIGGER}
        try:
            return mapping[label]
        except KeyError:
            raise ValueError(f"unknown predictor {label!r}; use 'i' or 'ii'") from None


@dataclass(frozen=True, slots=True)
class Alarm:
    """One prediction: cap x half-open time interval (t_start, t_end] x floor."""

    center: GeoPoint
    radius_km: float
    t_start: datetime
    t_end: datetime
    mag_floor: float
    trigger_index: int | None = None
    trigger_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_start", _as_utc(self.t_start))
        object.__setattr__(self, "t_end", _as_utc(self.t_end))
        if not (math.isfinite(self.radius_km) and self.radius_km > 0.0):
            raise ValueError(f"alarm radius must be positive, got {self.radius_km!r}")
        if not self.t_start < self.t_end:
            raise ValueError("alarm interval is empty")


# One row per alarm: the window (start_us, end_us] in exact microseconds since
# the epoch; trigger_index and trigger_id are None for an alarm without a trigger.
ALARM_DTYPE = np.dtype([
    ("lat", float), ("lon", float), ("radius_km", float), ("start_us", np.int64),
    ("end_us", np.int64), ("mag_floor", float), ("trigger_index", object), ("trigger_id", object),
])
_MAX_US = _to_us(datetime.max)


@dataclass(frozen=True, eq=False)
class AlarmSet:
    """Ordered alarms, held as ``rows``, a read-only ALARM_DTYPE array with a
    row per alarm; :attr:`alarms` and iteration build new Alarm views on each
    call. Alarm sets compare by identity."""

    rows: np.ndarray

    def __init__(self, alarms: Iterable[Alarm]):
        rows = [
            (a.center.lat, a.center.lon, a.radius_km, _to_us(a.t_start), _to_us(a.t_end),
             a.mag_floor, a.trigger_index, a.trigger_id)
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
            Alarm(GeoPoint(lat, lon), radius, _from_us(start), _from_us(end), *floor_and_trigger)
            for lat, lon, radius, start, end, *floor_and_trigger in self.rows.tolist()
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
    if not (math.isfinite(radius_km) and radius_km > 0.0):
        raise ValueError(f"radius_km must be positive, got {radius_km!r}")
    floor_rule = FloorRule(floor_rule)
    window_us = int(_seconds_to_us(window_days * SECONDS_PER_DAY))
    selector = catalog.magnitude_selector
    magnitudes = catalog.rows[selector]
    # absent magnitudes are 0.0 and never trigger, whatever the threshold
    index = np.flatnonzero((magnitudes > 0.0) & (magnitudes >= mag_threshold))
    triggers = catalog.rows[index]
    if index.size and window_us == 0:
        raise ValueError("alarm interval is empty")
    if index.size and int(triggers["time_us"].max()) + window_us > _MAX_US:
        raise ValueError(f"window_days={window_days!r} ends an alarm after {datetime.max}")
    rows = np.zeros(index.size, dtype=ALARM_DTYPE)
    rows["lat"], rows["lon"], rows["radius_km"] = triggers["lat"], triggers["lon"], radius_km
    rows["start_us"], rows["end_us"] = triggers["time_us"], triggers["time_us"] + window_us
    rows["mag_floor"] = mag_threshold if floor_rule is FloorRule.THRESHOLD else triggers[selector]
    rows["trigger_index"], rows["trigger_id"] = index, triggers["source_id"]
    return AlarmSet._from_rows(rows)


def _instants(times_us) -> np.ndarray:
    """``times_us`` as int64; floats are refused (they merge microseconds far from 1970)."""
    times_us = np.asarray(times_us)
    if not np.issubdtype(times_us.dtype, np.signedinteger):
        raise TypeError(f"event times must be int64 microseconds, got {times_us.dtype}")
    return times_us.astype(np.int64, copy=False)


class AlarmTargetIndex:
    """Precomputed spatial join between a fixed alarm set and target events.

    The spatial containment, floor comparisons, and trigger-identity
    exclusions do not depend on event times, so they are resolved once into
    a pair list; evaluating a new assignment of times is then a few
    vectorised comparisons. This is what makes time-permutation replicates
    cheap. Target ids must be unique, since an alarm's trigger is found
    among the targets by id. Event times are ``targets.rows["time_us"]``, or
    a rearrangement of it: int64 microseconds since the epoch.
    """

    # peak working bytes per (row, pair) in the count kernel: the gathered
    # int64 pair times plus the comparison and covered masks
    BYTES_PER_PAIR = 11

    def __init__(self, targets: Catalog, alarm_set: AlarmSet):
        self.n_targets = len(targets)
        self.n_alarms = len(alarm_set)
        t_mag = targets.magnitudes()
        id_of: dict[str, int] = {}
        for i, s in enumerate(targets.source_ids()):
            if id_of.setdefault(s, i) != i:
                raise ValueError(
                    f"target id {s!r} repeats (positions {id_of[s]} and {i}); "
                    "ids must be unique"
                )

        rows = alarm_set.rows
        # trigger id resolved to a target position, or -1 when not a target
        a_trig = np.array([id_of.get(s, -1) for s in rows["trigger_id"]], dtype=np.int64)

        blocks = list(pair_blocks(
            targets.latitudes(), targets.longitudes(), rows["lat"], rows["lon"], rows["radius_km"]
        ))
        pk, pj = (np.concatenate(parts) for parts in zip(*blocks))
        keep = a_trig[pj] != pk
        self._pk, self._pj = pk[keep], pj[keep]
        self._pair_start, self._pair_end = rows["start_us"][self._pj], rows["end_us"][self._pj]
        # verdict code per pair: 1 if the target reaches the alarm's floor, else 2 (NaN too)
        with np.errstate(invalid="ignore"):
            floor_ok = t_mag[self._pk] >= rows["mag_floor"][self._pj]
        self._code = np.where(floor_ok, np.uint8(1), np.uint8(2))
        # pairs come sorted by target; segment boundaries for reduceat
        self._uniq_k, self._seg_idx = np.unique(self._pk, return_index=True)

    @property
    def n_pairs(self) -> int:
        return int(self._pk.size)

    def _covered(self, t_pair: np.ndarray) -> np.ndarray:
        """Whether each pair's alarm window (start, end] holds its gathered time."""
        return (t_pair > self._pair_start) & (t_pair <= self._pair_end)

    def _predicted_rows(self, times_rows: np.ndarray) -> np.ndarray:
        """Prediction flags of the paired targets (columns ``_uniq_k``) for
        each row of event times; needs at least one pair. A target's covered
        codes OR to 0 (uncovered), 1 (predicted) or 2-3 (outranked)."""
        covered = self._covered(times_rows[:, self._pk])
        return np.bitwise_or.reduceat(covered * self._code, self._seg_idx, axis=1) == 1

    def predicted_mask(self, times_us: np.ndarray) -> np.ndarray:
        """Per-target prediction flags for one assignment of event times."""
        row = _instants(times_us)[None, :]
        mask = np.zeros(self.n_targets, dtype=bool)
        if self.n_pairs:
            mask[self._uniq_k] = self._predicted_rows(row)[0]
        return mask

    def count_predicted(self, times_us: np.ndarray) -> int:
        return int(self.predicted_mask(times_us).sum())

    def counts_for_time_matrix(self, times_matrix: np.ndarray) -> np.ndarray:
        """Predicted-event counts for a batch of time assignments (rows),
        evaluated in chunks of rows that fit the memory budget."""
        times_matrix = _instants(times_matrix)
        n_rows = times_matrix.shape[0]
        if self.n_pairs == 0 or n_rows == 0:
            return np.zeros(n_rows, dtype=np.int64)
        counts = np.empty(n_rows, dtype=np.int64)
        chunk = rows_within_budget(self.n_pairs * self.BYTES_PER_PAIR)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            counts[lo:hi] = self._predicted_rows(times_matrix[lo:hi]).sum(axis=1)
        return counts

    def successful_alarms(self, times_us: np.ndarray) -> int:
        """Alarms containing at least one target above their floor."""
        hit = self._covered(_instants(times_us)[self._pk]) & (self._code == 1)
        return int(np.unique(self._pj[hit]).size)


def count_predicted(targets: Catalog, alarm_set: AlarmSet) -> int:
    """Number of target events predicted by the alarm set.

    Targets are expected to be pre-filtered to the study threshold and
    window; a target is predicted when some alarm covers it and its
    magnitude reaches the largest floor among the covering alarms.
    """
    index = AlarmTargetIndex(targets, alarm_set)
    return index.count_predicted(targets.rows["time_us"])


def count_successful_alarms(alarm_set: AlarmSet, targets: Catalog) -> int:
    """Number of alarms containing at least one target event.

    Containment is spatial, temporal, and above the alarm's own floor;
    success is binary per alarm, and an alarm's own trigger never counts.
    """
    index = AlarmTargetIndex(targets, alarm_set)
    return index.successful_alarms(targets.rows["time_us"])


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
    durations_s = ((rows["end_us"] - rows["start_us"]) / 1e6).tolist()
    covered = sum(cap_area_km2(r) * d for r, d in zip(rows["radius_km"].tolist(), durations_s))
    return covered / total


def score(targets: Catalog, alarm_set: AlarmSet, sv: StudyVolume) -> ScoreSummary:
    """All count and rate statistics for an alarm set against a catalog."""
    index = AlarmTargetIndex(targets, alarm_set)
    times = targets.rows["time_us"]
    return ScoreSummary(
        Q=len(targets),
        A=len(alarm_set),
        S=index.successful_alarms(times),
        P=index.count_predicted(times),
        v_upper=min(1.0, alarm_volume_fraction(alarm_set, sv)),
    )


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo union-volume estimate with its binomial standard error."""

    estimate: float
    stderr: float
    n_samples: int


def union_volume_fraction_mc(
    alarm_set: AlarmSet, sv: StudyVolume, n_samples: int, rng
) -> VolumeEstimate:
    """Estimate the union alarm fraction of the study volume by sampling.

    Points are drawn area-uniform over the study region and uniform in
    time; the estimate is the hit fraction of "inside at least one alarm".
    Sampling never leaves the study volume, so alarm extent beyond it does
    not contribute.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    g = as_generator(rng)
    lat, lon = sv.region.sample(n_samples, g)
    times = _to_us(sv.t_start) + _seconds_to_us(g.uniform(0.0, sv.duration_s, size=n_samples))
    rows = alarm_set.rows
    hit = np.zeros(n_samples, dtype=bool)
    for k, j in pair_blocks(lat, lon, rows["lat"], rows["lon"], rows["radius_km"]):
        in_time = (times[k] > rows["start_us"][j]) & (times[k] <= rows["end_us"][j])
        hit[k[in_time]] = True
    p_hat = float(hit.mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return VolumeEstimate(p_hat, stderr, n_samples)


def dumps_alarms_csv(alarm_set: AlarmSet) -> str:
    """Serialize alarms to CSV: trigger_time,lat,lon,radius_km,t_start,t_end,mag_floor."""
    lines = ["trigger_time,lat,lon,radius_km,t_start,t_end,mag_floor"]
    for lat, lon, radius_km, start_us, end_us, mag_floor, _, _ in alarm_set.rows.tolist():
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
