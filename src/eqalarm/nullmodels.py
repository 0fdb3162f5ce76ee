"""Seeded generators for the stochastic null models, plus rate estimation.

Every generator is a pure function of its inputs and an Rng key (or numpy
Generator), so replicate outputs are reproducible and independent of
scheduling. Marks (location, magnitude, depth) are resampled jointly from
an observed catalog where one is supplied, preserving the empirical
magnitude-location coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from ._random import Rng, as_generator
from .catalog import Catalog, Event, StudyVolume, _as_utc
from .geo import GeoPoint, GlobalSphere, Region

__all__ = [
    "Rng",
    "CellGrid",
    "permute_times",
    "randomize_times_uniform",
    "gen_homogeneous_poisson",
    "gen_heterogeneous_poisson",
    "gen_gamma_renewal",
    "historical_cell_rates",
]

_PLACEHOLDER_MB = 5.0
_PLACEHOLDER_DEPTH_KM = 10.0


def permute_times(catalog: Catalog, rng) -> Catalog:
    """Reassign event times by a uniformly random permutation.

    Locations, magnitudes, and ids stay with their events; the multiset of
    times and the multiset of marks are each preserved exactly. The result
    is re-sorted by time.
    """
    events = catalog.events
    perm = as_generator(rng).permutation(len(events)).tolist()
    shuffled = [replace(e, time=events[p].time) for e, p in zip(events, perm)]
    shuffled.sort(key=lambda e: e.time)
    return catalog.with_events(shuffled)


def randomize_times_uniform(catalog: Catalog, rng) -> Catalog:
    """Redraw every event time iid uniform over the span interval."""
    g = as_generator(rng)
    n = len(catalog)
    t0 = catalog.span.t_start
    offsets = g.uniform(0.0, catalog.span.duration_s, size=n)
    redrawn = [
        replace(e, time=t0 + timedelta(seconds=float(offsets[k])))
        for k, e in enumerate(catalog.events)
    ]
    redrawn.sort(key=lambda e: e.time)
    return catalog.with_events(redrawn)


def _resample_marks(
    marks: Catalog | None,
    n: int,
    region: Region,
    g: np.random.Generator,
) -> list[Event]:
    """n template events carrying marks; times and ids are filled in later."""
    if marks is not None and len(marks) > 0:
        picks = g.integers(0, len(marks), size=n)
        return [marks.events[int(i)] for i in picks]
    lat, lon = region.sample(n, g)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return [
        Event(
            time=epoch,
            epicenter=GeoPoint(float(lat[i]), float(lon[i])),
            depth_km=_PLACEHOLDER_DEPTH_KM,
            mb=_PLACEHOLDER_MB,
            ms=None,
            source_id="",
        )
        for i in range(n)
    ]


def gen_homogeneous_poisson(
    rate_per_s: float,
    sv: StudyVolume,
    marks: Catalog | None,
    rng,
) -> Catalog:
    """Homogeneous Poisson catalog over the study volume.

    The event count is Poisson(rate x duration); times are iid uniform.
    Marks are resampled with replacement from ``marks``; with no marks,
    locations are area-uniform on the region and a placeholder magnitude
    of 5.0 mb is attached.
    """
    if not (math.isfinite(rate_per_s) and rate_per_s >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {rate_per_s!r}")
    g = as_generator(rng)
    n = int(g.poisson(rate_per_s * sv.duration_s))
    offsets = np.sort(g.uniform(0.0, sv.duration_s, size=n))
    templates = _resample_marks(marks, n, sv.region, g)
    events = [
        replace(
            templates[i],
            time=sv.t_start + timedelta(seconds=float(offsets[i])),
            source_id=f"sim{i:06d}",
        )
        for i in range(n)
    ]
    selector = marks.magnitude_selector if marks is not None else "mb"
    return Catalog(tuple(events), sv, selector)


@dataclass(frozen=True)
class CellGrid:
    """Spatial cells partitioning a region, each with a historical rate."""

    cells: tuple[Region, ...]
    rates_per_s: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "rates_per_s", tuple(float(r) for r in self.rates_per_s))
        if len(self.cells) != len(self.rates_per_s):
            raise ValueError("cells and rates differ in length")
        for r in self.rates_per_s:
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"rates must be nonnegative, got {r!r}")


def historical_cell_rates(catalog: Catalog, cells: list[Region]) -> CellGrid:
    """Empirical per-cell rates: cell event count over the span duration.

    Cells must jointly cover every epicenter; an event matching no cell is a
    partition violation. Boundary points go to the first matching cell.
    """
    lat, lon = catalog.latitudes(), catalog.longitudes()
    cell_of = np.full(len(catalog), -1, dtype=np.int64)
    for j, cell in enumerate(cells):
        cell_of[(cell_of < 0) & cell.contains_arrays(lat, lon)] = j
    uncovered = np.flatnonzero(cell_of < 0)
    if uncovered.size:
        i = int(uncovered[0])
        raise ValueError(
            f"event {i} ({catalog.events[i].source_id}) falls in no cell; "
            "cells must partition the region"
        )
    counts = np.bincount(cell_of, minlength=len(cells))
    duration = catalog.span.duration_s
    return CellGrid(tuple(cells), tuple(float(c) / duration for c in counts))


def gen_heterogeneous_poisson(
    grid: CellGrid,
    t_interval: tuple[datetime, datetime],
    marks: Catalog | None,
    rng,
) -> Catalog:
    """Spatially heterogeneous, temporally homogeneous Poisson catalog.

    Each cell gets an independent homogeneous Poisson stream at its own
    rate; locations are uniform within the cell. Magnitudes are resampled
    from the marks falling in that cell, falling back to the whole mark
    catalog when the cell has none.
    """
    g = as_generator(rng)
    t_start, t_end = (_as_utc(t) for t in t_interval)
    sv = StudyVolume(GlobalSphere(), t_start, t_end)
    events: list[Event] = []
    serial = 0
    has_marks = marks is not None and len(marks) > 0
    if has_marks:
        mark_lat, mark_lon = marks.latitudes(), marks.longitudes()
    for cell, rate in zip(grid.cells, grid.rates_per_s):
        n = int(g.poisson(rate * sv.duration_s))
        if n == 0:
            continue
        cell_marks = None
        if has_marks:
            inside = np.flatnonzero(cell.contains_arrays(mark_lat, mark_lon))
            cell_marks = (
                marks.with_events([marks.events[i] for i in inside]) if inside.size else marks
            )
        templates = _resample_marks(cell_marks, n, cell, g)
        lat, lon = cell.sample(n, g)
        offsets = g.uniform(0.0, sv.duration_s, size=n)
        for i in range(n):
            events.append(
                replace(
                    templates[i],
                    time=t_start + timedelta(seconds=float(offsets[i])),
                    epicenter=GeoPoint(float(lat[i]), float(lon[i])),
                    source_id=f"sim{serial:06d}",
                )
            )
            serial += 1
    events.sort(key=lambda e: e.time)
    selector = marks.magnitude_selector if marks is not None else "mb"
    return Catalog(tuple(events), sv, selector)


def gen_gamma_renewal(
    shape: float,
    mean_interval_s: float,
    t_interval: tuple[datetime, datetime],
    rng,
) -> list[datetime]:
    """Instants of a gamma renewal process started at the interval start.

    Interevent gaps are iid Gamma(shape, scale=mean/shape); shape 1 is the
    Poisson process, shape < 1 clusters in time (coefficient of variation
    1/sqrt(shape)). The sequence is truncated at the interval end.
    """
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape must be positive, got {shape!r}")
    if not (math.isfinite(mean_interval_s) and mean_interval_s > 0.0):
        raise ValueError(f"mean interval must be positive, got {mean_interval_s!r}")
    g = as_generator(rng)
    t_start, t_end = (_as_utc(t) for t in t_interval)
    horizon = (t_end - t_start).total_seconds()
    if horizon <= 0.0:
        raise ValueError("t_interval is empty")
    scale = mean_interval_s / shape
    elapsed = 0.0
    instants: list[datetime] = []
    batch = max(16, int(1.5 * horizon / mean_interval_s) + 16)
    while True:
        for gap in g.gamma(shape, scale, size=batch):
            elapsed += float(gap)
            if elapsed > horizon:
                return instants
            instants.append(t_start + timedelta(seconds=elapsed))
