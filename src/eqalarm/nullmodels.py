"""Seeded generators for the stochastic null models, plus rate estimation.

Every generator is a pure function of its inputs and an Rng key (or numpy
Generator), so replicate outputs are reproducible and independent of
scheduling. Marks (location, magnitude, depth) are resampled jointly from
an observed catalog where one is supplied, preserving the empirical
magnitude-location coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from ._random import Rng, as_generator
from .catalog import Catalog, Event, StudyVolume, _as_utc, _sorted_events
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

# the marks of a simulated event when no mark catalog is given
_PLACEHOLDER = Event(
    time=datetime(1970, 1, 1, tzinfo=timezone.utc),
    epicenter=GeoPoint(0.0, 0.0),
    depth_km=10.0,
    mb=5.0,
    ms=None,
    source_id="",
)


def _assemble(
    templates: Sequence[Event],
    times: Sequence[datetime],
    span: StudyVolume,
    selector: str,
    keep_ids: bool = False,
    epicenters: Sequence[GeoPoint] | None = None,
) -> Catalog:
    """Event k of ``templates`` at ``times[k]`` (and ``epicenters[k]``, if
    given), sorted by time with ties in template order. Ids are the
    templates' own with ``keep_ids``, else sim000000, ... in template order."""
    if epicenters is None:
        epicenters = [e.epicenter for e in templates]
    events = [
        Event(t, p, e.depth_km, e.mb, e.ms, e.source_id if keep_ids else f"sim{k:06d}")
        for k, (e, t, p) in enumerate(zip(templates, times, epicenters))
    ]
    return Catalog(tuple(_sorted_events(events)), span, selector)


def _after(t0: datetime, offsets_s: np.ndarray) -> list[datetime]:
    return [t0 + timedelta(seconds=s) for s in offsets_s.tolist()]


def permute_times(catalog: Catalog, rng) -> Catalog:
    """Reassign event times by a uniformly random permutation.

    Locations, magnitudes, and ids stay with their events; the multiset of
    times and the multiset of marks are each preserved exactly. The result
    is re-sorted by time.
    """
    events = catalog.events
    perm = as_generator(rng).permutation(len(events)).tolist()
    times = [events[p].time for p in perm]
    return _assemble(events, times, catalog.span, catalog.magnitude_selector, keep_ids=True)


def randomize_times_uniform(catalog: Catalog, rng) -> Catalog:
    """Redraw every event time iid uniform over the span interval."""
    offsets = as_generator(rng).uniform(0.0, catalog.span.duration_s, size=len(catalog))
    times = _after(catalog.span.t_start, offsets)
    return _assemble(
        catalog.events, times, catalog.span, catalog.magnitude_selector, keep_ids=True
    )


def _resample_marks(
    pool: Sequence[Event],
    n: int,
    region: Region,
    g: np.random.Generator,
) -> tuple[list[Event], list[GeoPoint]]:
    """n template events and their epicenters: drawn with replacement from
    ``pool``, or the placeholder at area-uniform locations on ``region`` when
    the pool is empty."""
    if pool:
        templates = [pool[i] for i in g.integers(0, len(pool), size=n).tolist()]
        return templates, [e.epicenter for e in templates]
    lat, lon = region.sample(n, g)
    return [_PLACEHOLDER] * n, [GeoPoint(a, b) for a, b in zip(lat.tolist(), lon.tolist())]


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
    return _marked_catalog(_after(sv.t_start, offsets), sv, marks, g)


def _marked_catalog(
    times: Sequence[datetime],
    sv: StudyVolume,
    marks: Catalog | None,
    g: np.random.Generator,
) -> Catalog:
    """Simulated catalog at ``times``, its marks resampled from ``marks``."""
    pool = marks.events if marks is not None else ()
    templates, epicenters = _resample_marks(pool, len(times), sv.region, g)
    selector = marks.magnitude_selector if marks is not None else "mb"
    return _assemble(templates, times, sv, selector, epicenters=epicenters)


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
    sv = StudyVolume(GlobalSphere(), *t_interval)
    pool = marks.events if marks is not None else ()
    mark_lat, mark_lon = (marks.latitudes(), marks.longitudes()) if pool else ((), ())
    templates, times, epicenters = [], [], []
    for cell, rate in zip(grid.cells, grid.rates_per_s):
        n = int(g.poisson(rate * sv.duration_s))
        if n == 0:
            continue
        inside = np.flatnonzero(cell.contains_arrays(mark_lat, mark_lon)).tolist()
        # a cell without marks of its own resamples from all of them; with no
        # marks at all, placeholder locations are drawn and then replaced
        cell_pool = [pool[i] for i in inside] or pool
        templates += _resample_marks(cell_pool, n, cell, g)[0]
        lat, lon = cell.sample(n, g)
        epicenters += [GeoPoint(a, b) for a, b in zip(lat.tolist(), lon.tolist())]
        times += _after(sv.t_start, g.uniform(0.0, sv.duration_s, size=n))
    selector = marks.magnitude_selector if marks is not None else "mb"
    return _assemble(templates, times, sv, selector, epicenters=epicenters)


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
