"""Slow scalar and per-alarm reference implementations, kept as test oracles
for the vectorised paths in ``eqalarm``: point distance, region
containment and window-table lookup, the cap sampler by rotation from the
pole, the rounding of durations to
microseconds, the per-record NDK reader, the catalog invariants and the
magnitude/window filter, alarm generation, the membership rule, alarm
success, the batched pair kernel that counts predicted events over rows of
event times, declustering and its ordered-subset check, the covered time
of points (behind the alarm measure and the union volume), the
gamma-renewal running sums, the scheme-3 weighted sampling of R-score
baselines, the reference time-permutation shuffle, the null models'
catalog assembly, and the exact null distribution by enumerating all Q!
orderings."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from datetime import timedelta

import numpy as np

from eqalarm import (
    Alarm, Catalog, CatalogParseError, FloorRule, GlobalSphere, LatLonBox, SphericalCap,
)
from eqalarm._random import as_key
from eqalarm.catalog import (
    NDK_LINES_PER_RECORD, ROW_DTYPE, SECONDS_PER_DAY,
    _as_utc, _decode, _parse_ndk_hypocenter, _row_tuples, _to_us,
)
from eqalarm.geo import EARTH_RADIUS_KM, great_circle_km_arrays


def great_circle_km(a, b) -> float:
    """Great-circle distance in km between two GeoPoints."""
    return float(great_circle_km_arrays(a.lat, a.lon, b.lat, b.lon))


def region_contains(region, point) -> bool:
    """Whether a region holds a GeoPoint, one point at a time: a box by its
    closed latitude edges and its eastward longitude width from lon_min, a
    cap by distance at most its radius."""
    if isinstance(region, GlobalSphere):
        return True
    if isinstance(region, LatLonBox):
        east = (point.lon - region.lon_min) % 360.0
        return region.lat_min <= point.lat <= region.lat_max and east <= region.lon_width_deg
    if isinstance(region, SphericalCap):
        return great_circle_km(region.center, point) <= region.radius_km
    raise TypeError(f"not a region: {region!r}")


def cap_samples_by_rotation(cap, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``SphericalCap.sample`` by rotation: the same two draws placed around
    the +z pole, then turned onto the centre by the Rodrigues matrix about
    z x centre. Centres within 1e-15 of a pole take the identity (north) or
    diag(1, -1, -1) (south)."""
    alpha = cap.radius_km / EARTH_RADIUS_KM
    cos_theta = 1.0 - rng.uniform(0.0, 1.0, size=n) * (1.0 - math.cos(alpha))
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    pts = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=-1)
    lat, lon = math.radians(cap.center.lat), math.radians(cap.center.lon)
    target = np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, target))
    if c > 1.0 - 1e-15:
        rot = np.eye(3)
    elif c < -1.0 + 1e-15:
        rot = np.diag([1.0, -1.0, -1.0])
    else:
        axis = np.cross(z, target)
        axis /= np.linalg.norm(axis)
        s = math.sqrt(max(0.0, 1.0 - c * c))
        k = np.array(
            [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
        )
        rot = np.eye(3) + s * k + (1.0 - c) * (k @ k)
    xyz = pts @ rot.T
    return (np.degrees(np.arcsin(np.clip(xyz[:, 2], -1.0, 1.0))),
            np.degrees(np.arctan2(xyz[:, 1], xyz[:, 0])))


def window_lookup(windows, magnitude: float):
    """The window row with the largest mag_min not exceeding ``magnitude``."""
    mags = [r.mag_min for r in windows.rows]
    return windows.rows[bisect_right(mags, magnitude) - 1]


def seconds_to_us(seconds: float) -> int:
    """Whole microseconds in a duration of ``seconds``, as timedelta rounds it."""
    return timedelta(seconds=seconds) // timedelta(microseconds=1)


def parse_ndk_by_record(source, magnitude_selector: str = "mb") -> Catalog:
    """``parse_ndk`` as a loop that reads every hypocenter line, in record
    order, with ``catalog._parse_ndk_hypocenter``."""
    lines = _decode(source).splitlines()
    if len(lines) % NDK_LINES_PER_RECORD != 0:
        raise CatalogParseError(
            f"NDK line count {len(lines)} is not a multiple of {NDK_LINES_PER_RECORD}"
        )
    rows = [
        _parse_ndk_hypocenter(line, i) for i, line in enumerate(lines[::NDK_LINES_PER_RECORD])
    ]
    return Catalog._from_rows(np.array(rows, dtype=ROW_DTYPE), None, magnitude_selector)


def catalog_invariant_error(events, span, magnitude_selector: str = "mb") -> str | None:
    """The message ``Catalog(events, span, magnitude_selector)`` raises, by a
    per-event loop: each event in turn is checked for time order, then the
    span interval, then the span region. None when every invariant holds."""
    if magnitude_selector not in ("mb", "ms"):
        return f"unknown magnitude selector {magnitude_selector!r}"
    previous = None
    for i, event in enumerate(events):
        if previous is not None and event.time < previous:
            return f"events out of time order at position {i}"
        previous = event.time
        if not span.t_start <= event.time <= span.t_end:
            return f"event {i} ({event.source_id}) outside the span interval"
        if not region_contains(span.region, event.epicenter):
            return f"event {i} ({event.source_id}) outside the span region"
    return None


def filter_events(catalog, mag_min: float, window=None) -> tuple:
    """The events ``filter_catalog`` keeps, by a per-event test: authoritative
    magnitude present and at least ``mag_min``, time inside the closed window
    (the catalog's span by default)."""
    if window is None:
        t_start, t_end = catalog.span.t_start, catalog.span.t_end
    else:
        t_start, t_end = (_as_utc(t) for t in window)
    selector = catalog.magnitude_selector
    return tuple(
        e
        for e in catalog.events
        if (m := e.magnitude(selector)) is not None
        and m >= mag_min
        and t_start <= e.time <= t_end
    )


def alarms_per_trigger(
    catalog, mag_threshold, window_days=21.0, radius_km=50.0, floor_rule=FloorRule.THRESHOLD
) -> tuple:
    """The alarms ``generate_alarms`` raises, built one trigger at a time: an
    Alarm per event whose authoritative magnitude is present and at least
    the threshold, over (t, t + window], its floor the threshold or the
    trigger's own magnitude."""
    window = timedelta(seconds=window_days * SECONDS_PER_DAY)
    alarms = []
    for e in catalog.events:
        m = e.magnitude(catalog.magnitude_selector)
        if m is None or m < mag_threshold:
            continue
        floor = mag_threshold if FloorRule(floor_rule) is FloorRule.THRESHOLD else m
        alarms.append(
            Alarm(e.epicenter, radius_km, e.time, e.time + window, floor, e.source_id)
        )
    return tuple(alarms)


def alarm_covers(alarm, time, point) -> bool:
    """Space-time containment; the left time endpoint is excluded."""
    t = _as_utc(time)
    if not (alarm.t_start < t <= alarm.t_end):
        return False
    return great_circle_km(alarm.center, point) <= alarm.radius_km


def is_predicted(event, alarm_set, selector: str = "mb") -> bool:
    """Max-floor membership: covered by some alarm and at or above every
    covering alarm's floor. Alarms triggered by this same event (matching
    trigger id) are ignored."""
    covering_floors = [
        a.mag_floor
        for a in alarm_set.alarms
        if not (a.trigger_id is not None and a.trigger_id == event.source_id)
        and alarm_covers(a, event.time, event.epicenter)
    ]
    if not covering_floors:
        return False
    magnitude = event.magnitude(selector)
    if magnitude is None:
        return False
    return magnitude >= max(covering_floors)


def successful_alarm_count(alarm_set, events, selector: str = "mb") -> int:
    """Alarms that cover some event other than their own trigger whose
    magnitude is present and reaches the alarm's floor, one alarm at a time."""
    return sum(
        any(
            e.source_id != a.trigger_id
            and alarm_covers(a, e.time, e.epicenter)
            and (m := e.magnitude(selector)) is not None
            and m >= a.mag_floor
            for e in events
        )
        for a in alarm_set.alarms
    )


def pair_kernel_counts(index, alarm_set, targets, times_matrix) -> np.ndarray:
    """Predicted-event counts of an AlarmTargetIndex of ``targets`` over
    ``alarm_set`` for each row of event times in µs, by the batched pair
    kernel: gather each of the index's pairs' target time, test it against
    the alarm's own window (start, end] from ``alarm_set.rows``, and OR the
    covered pairs' verdict codes per target with one reduceat. A pair's code
    is 1 if the target's magnitude reaches the alarm's ``mag_floor`` and 2 if
    not (a NaN magnitude too); a target whose codes OR to 1 is predicted."""
    times_matrix = np.asarray(times_matrix, dtype=np.int64)
    if index.n_pairs == 0:
        return np.zeros(len(times_matrix), dtype=np.int64)
    rows = alarm_set.rows
    with np.errstate(invalid="ignore"):
        floor_ok = targets.magnitudes()[index._pk] >= rows["mag_floor"][index._pj]
    code = np.where(floor_ok, 1, 2)
    t_pair = times_matrix[:, index._pk]
    covered = (t_pair > rows["start_us"][index._pj]) & (t_pair <= rows["end_us"][index._pj])
    _, segments = np.unique(index._pk, return_index=True)
    codes = np.bitwise_or.reduceat(covered * code, segments, axis=1)
    return (codes == 1).sum(axis=1)


def decluster_deleted(catalog, windows, retained_only: bool = False) -> tuple[int, ...]:
    """Indices ``decluster`` deletes, by a per-event sweep over all earlier
    events; times compare as exact datetimes, windows as timedeltas."""
    n = len(catalog)
    if n == 0:
        return ()
    times = [e.time for e in catalog.events]
    lats = catalog.latitudes()
    lons = catalog.longitudes()
    mags = catalog.magnitudes()
    # a window longer than timedelta allows covers every later instant anyway
    time_windows = [
        timedelta(seconds=min(window_lookup(windows, m).time_days, timedelta.max.days)
                  * SECONDS_PER_DAY) if not np.isnan(m) else timedelta(0)
        for m in mags
    ]
    dist_windows_km = np.array(
        [window_lookup(windows, m).distance_km if not np.isnan(m) else 0.0 for m in mags]
    )
    deleted = np.zeros(n, dtype=bool)
    for k in range(1, n):
        if np.isnan(mags[k]):
            continue
        earlier = np.arange(k)
        if retained_only:
            earlier = earlier[~deleted[:k]]
        if earlier.size == 0:
            continue
        larger = mags[earlier] > mags[k]
        if not larger.any():
            continue
        cand = np.array(
            [j for j in earlier[larger].tolist()
             if timedelta(0) < times[k] - times[j] <= time_windows[j]],
            dtype=np.int64,
        )
        if cand.size == 0:
            continue
        d = great_circle_km_arrays(lats[cand], lons[cand], lats[k], lons[k])
        if np.any(d <= dist_windows_km[cand]):
            deleted[k] = True
    return tuple(int(i) for i in np.flatnonzero(deleted))


def decluster_stats(before, after) -> tuple[int, float]:
    """``decluster_stats`` by one greedy walk over every row as a tuple."""
    remaining = _row_tuples(before.rows)
    # ``in`` consumes the iterator up to the match, so order is enforced
    if not all(row in remaining for row in _row_tuples(after.rows)):
        raise ValueError("after is not an ordered subset of before")
    n_deleted = len(before) - len(after)
    fraction = n_deleted / len(before) if len(before) else 0.0
    return n_deleted, fraction


def covered_us(alarm_set, lat, lon, t_interval) -> list[int]:
    """Per point, the microseconds of the interval during which some alarm
    covers it: each alarm's clipped window joins the list of every point
    within its radius, and each point's list is merged in sorted order."""
    t0, t1 = (_to_us(t) for t in t_interval)
    lat, lon = np.asarray(lat, dtype=float), np.asarray(lon, dtype=float)
    segments = [[] for _ in range(lat.size)]
    for a in alarm_set.alarms:
        lo = max(_to_us(a.t_start), t0)
        hi = min(_to_us(a.t_end), t1)
        if hi <= lo:
            continue
        near = great_circle_km_arrays(lat, lon, a.center.lat, a.center.lon) <= a.radius_km
        for i in np.flatnonzero(near).tolist():
            segments[i].append((lo, hi))
    covered = []
    for point_segments in segments:
        total, end = 0, t0
        for lo, hi in sorted(point_segments):
            if hi > end:
                total += hi - max(lo, end)
                end = hi
        covered.append(total)
    return covered


def alarm_measure_pi(alarm_set, historical_epicenters, t_interval) -> float:
    """``sigtests.alarm_measure_pi`` by covered_us: the covered microseconds
    summed over the epicenters, over the interval's length times their number."""
    t0, t1 = (_to_us(t) for t in t_interval)
    lat = [p.lat for p in historical_epicenters]
    lon = [p.lon for p in historical_epicenters]
    covered = sum(covered_us(alarm_set, lat, lon, t_interval))
    return covered / ((t1 - t0) * len(historical_epicenters))


def union_volume_covered_us(alarm_set, sv, n_samples: int, rng) -> list[int]:
    """``union_volume_fraction_mc``'s points, the region's first n_samples
    draws from ``rng``, each scored by covered_us over the study interval."""
    lat, lon = sv.region.sample(n_samples, as_key(rng).generator())
    return covered_us(alarm_set, lat, lon, (sv.t_start, sv.t_end))


def gamma_renewal_instants(shape, mean_interval_s, t_interval, rng) -> list:
    """``gen_gamma_renewal`` by adding each gap in turn to a running sum: the
    same batches of draws, each instant the interval start plus the sum."""
    g = as_key(rng).generator()
    t_start, t_end = (_as_utc(t) for t in t_interval)
    horizon = (t_end - t_start).total_seconds()
    batch = max(16, int(1.5 * horizon / mean_interval_s) + 16)
    elapsed, instants = 0.0, []
    while True:
        for gap in g.gamma(shape, mean_interval_s / shape, size=batch):
            elapsed += float(gap)
            if elapsed > horizon:
                return instants
            instants.append(t_start + timedelta(seconds=elapsed))


def permutation_indices(n: int, g) -> np.ndarray:
    """Uniform random permutation by the descending-index swap shuffle.

    Reference draw order, for trace tests with injected draws: for
    i = n-1 down to 1, draw j = g.integers(0, i+1) and swap positions i, j.
    """
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(g.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def assemble(templates, time_us, span, selector, keep_ids: bool = False) -> Catalog:
    """``nullmodels._assemble`` by copying the templates, assigning the times
    (and the ids sim000000, ... in template order), then sorting by time."""
    rows = templates.copy()
    rows["time_us"] = time_us
    if not keep_ids:
        rows["source_id"] = [f"sim{k:06d}" for k in range(len(rows))]
    return Catalog._from_rows(rows[np.argsort(time_us, kind="stable")], span, selector)


def all_orderings(n: int) -> np.ndarray:
    """The n! orderings of range(n) as rows, in itertools.permutations order:
    block v of the orderings of range(m) is v followed by the orderings of
    range(m - 1), each entry from v up shifted by one."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, n + 1):
        out = np.empty((m, len(rows), m), dtype=np.intp)
        out[:, :, 0] = np.arange(m)[:, None]
        tail = out[:, :, 1:]
        tail[...] = rows
        tail += tail >= out[:, :, :1]
        rows = out.reshape(-1, m)
    return rows


def enumerated_null_counts(index) -> list[int]:
    """N_h, h = 0..Q, of an AlarmTargetIndex by counting all Q! orderings
    (Q <= 8): how many assignments of the targets' times predict h targets."""
    counts = index.counts_for_time_matrix(all_orderings(index.n_targets))
    return np.bincount(counts, minlength=index.n_targets + 1).tolist()


def weighted_sample_without_replacement(weights, k: int, g) -> np.ndarray:
    """Sequential draws with renormalization among the remaining cells; once
    the positive weights are used up, the rest uniformly among the others."""
    weights = np.asarray(weights, dtype=float).copy()
    chosen = np.empty(k, dtype=np.int64)
    for i in range(k):
        total = weights.sum()
        if total <= 0.0:
            remaining = np.flatnonzero(weights >= 0.0)
            pool = np.setdiff1d(remaining, chosen[:i], assume_unique=False)
            chosen[i:] = g.choice(pool, size=k - i, replace=False)
            break
        pick = int(g.choice(weights.size, p=weights / total))
        chosen[i] = pick
        weights[pick] = 0.0
    return chosen


def sequential_set_probabilities(weights, k: int) -> dict[frozenset, float]:
    """Exact probability of each k-set under ``weighted_sample_without_replacement``,
    by enumerating its draw sequences."""
    weights = [float(w) for w in weights]
    probs: dict[frozenset, float] = {}

    def walk(chosen: tuple[int, ...], p: float) -> None:
        if len(chosen) == k:
            key = frozenset(chosen)
            probs[key] = probs.get(key, 0.0) + p
            return
        remaining = [i for i in range(len(weights)) if i not in chosen]
        total = sum(weights[i] for i in remaining)
        if total <= 0.0:
            rest = list(itertools.combinations(remaining, k - len(chosen)))
            for combo in rest:
                key = frozenset(chosen + combo)
                probs[key] = probs.get(key, 0.0) + p / len(rest)
            return
        for i in remaining:
            if weights[i] > 0.0:
                walk(chosen + (i,), p * weights[i] / total)

    walk((), 1.0)
    return probs
