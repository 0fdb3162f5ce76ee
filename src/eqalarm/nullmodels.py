"""Seeded generators for the stochastic null models, plus rate estimation.

Every generator is a pure function of its inputs and an Rng key (or int
seed), so replicate outputs are reproducible and independent of
scheduling. Marks (location, magnitude, depth) are resampled jointly from
an observed catalog where one is supplied, preserving the empirical
magnitude-location coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ._random import as_key
from .alarm import rows_within_budget
from .catalog import _EPOCH, ROW_DTYPE, Catalog, StudyVolume, _as_utc, _seconds_to_us, _to_us
from .geo import GlobalSphere, Region, normalize_lon

# the marks of a simulated event when no mark catalog is given
_PLACEHOLDER = np.array([(0, 0.0, 0.0, 10.0, 5.0, 0.0, "")], dtype=ROW_DTYPE)


def _assemble(
    templates: np.ndarray,
    time_us: np.ndarray | list[int],
    span: StudyVolume,
    selector: str,
    keep_ids: bool = False,
) -> Catalog:
    """Row k of ``templates`` at ``time_us[k]``, sorted by time with ties in
    template order. Ids are the templates' own with ``keep_ids``, else
    sim000000, ... in template order."""
    # numpy gathers rows with an object field several times faster than it
    # copies them, so the sort's gather is the only copy
    order = np.argsort(time_us, kind="stable")
    rows = templates[order]
    rows["time_us"] = np.asarray(time_us)[order]
    if not keep_ids:
        rows["source_id"] = [f"sim{k:06d}" for k in order.tolist()]
    return Catalog._from_rows(rows, span, selector)


def permute_times(catalog: Catalog, rng) -> Catalog:
    """Reassign event times by a uniformly random permutation.

    Locations, magnitudes, and ids stay with their events; the multiset of
    times and the multiset of marks are each preserved exactly. The result
    is re-sorted by time.
    """
    rows = catalog.rows
    perm = as_key(rng).generator().permutation(len(rows))
    return _assemble(
        rows, rows["time_us"][perm], catalog.span, catalog.magnitude_selector, keep_ids=True
    )


def randomize_times_uniform(catalog: Catalog, rng) -> Catalog:
    """Redraw every event time iid uniform over the span interval."""
    offsets = as_key(rng).generator().uniform(0.0, catalog.span.duration_s, size=len(catalog))
    time_us = _to_us(catalog.span.t_start) + _seconds_to_us(offsets)
    return _assemble(
        catalog.rows, time_us, catalog.span, catalog.magnitude_selector, keep_ids=True
    )


def _placed(templates: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """``templates`` moved, in place, to the points (lat, lon)."""
    templates["lat"], templates["lon"] = lat, normalize_lon(lon)
    return templates


def _resample_marks(
    pool: np.ndarray,
    n: int,
    region: Region,
    g: np.random.Generator,
) -> np.ndarray:
    """n template rows: drawn with replacement from the ``pool`` rows, or the
    placeholder at area-uniform locations on ``region`` when the pool is
    empty."""
    if len(pool):
        return pool[g.integers(0, len(pool), size=n)]
    return _placed(np.repeat(_PLACEHOLDER, n), *region.sample(n, g))


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
    g = as_key(rng).generator()
    n = int(g.poisson(rate_per_s * sv.duration_s))
    offsets = np.sort(g.uniform(0.0, sv.duration_s, size=n))
    return _marked_catalog(_to_us(sv.t_start) + _seconds_to_us(offsets), sv, marks, g)


def _marked_catalog(
    time_us: np.ndarray | list[int],
    sv: StudyVolume,
    marks: Catalog | None,
    g: np.random.Generator,
) -> Catalog:
    """Simulated catalog at the microsecond instants ``time_us``, its marks
    resampled from ``marks``."""
    pool = marks.rows if marks is not None else _PLACEHOLDER[:0]
    templates = _resample_marks(pool, len(time_us), sv.region, g)
    selector = marks.magnitude_selector if marks is not None else "mb"
    return _assemble(templates, time_us, sv, selector)


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
            f"event {i} ({catalog.rows['source_id'][i]}) falls in no cell; "
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
    sv = StudyVolume(GlobalSphere(), *t_interval)
    g = as_key(rng).generator()
    pool = marks.rows if marks is not None else _PLACEHOLDER[:0]
    templates, times = [pool[:0]], [np.zeros(0, dtype=np.int64)]
    for cell, rate in zip(grid.cells, grid.rates_per_s):
        n = int(g.poisson(rate * sv.duration_s))
        if n == 0:
            continue
        inside = cell.contains_arrays(pool["lat"], pool["lon"])
        # a cell without marks of its own resamples from all of them; with no
        # marks at all, placeholder locations are drawn and then replaced
        cell_pool = pool[inside] if inside.any() else pool
        templates.append(_placed(_resample_marks(cell_pool, n, cell, g), *cell.sample(n, g)))
        times.append(_to_us(sv.t_start) + _seconds_to_us(g.uniform(0.0, sv.duration_s, size=n)))
    selector = marks.magnitude_selector if marks is not None else "mb"
    return _assemble(np.concatenate(templates), np.concatenate(times), sv, selector)


def gen_gamma_renewal(
    shape: float, mean_interval_s: float, t_interval: tuple[datetime, datetime], rng
) -> list[datetime]:
    """Instants of a gamma renewal process started at the interval start.

    Interevent gaps are iid Gamma(shape, scale=mean/shape); shape 1 is the
    Poisson process, shape < 1 clusters in time (coefficient of variation
    1/sqrt(shape)). The sequence is truncated at the interval end. When the
    gaps drawn to pass the interval end would exceed the memory budget
    (a tiny shape makes most gaps 0.0), ValueError is raised instead.
    """
    time_us = _gamma_renewal_us(shape, mean_interval_s, t_interval, rng)
    return list(map(_EPOCH.__add__, time_us.astype("timedelta64[us]").tolist()))


def _gamma_renewal_us(shape, mean_interval_s, t_interval, rng) -> np.ndarray:
    """:func:`gen_gamma_renewal`'s instants as int64 microseconds since the epoch."""
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape must be positive, got {shape!r}")
    if not (math.isfinite(mean_interval_s) and mean_interval_s > 0.0):
        raise ValueError(f"mean interval must be positive, got {mean_interval_s!r}")
    t_start, t_end = (_as_utc(t) for t in t_interval)
    horizon = (t_end - t_start).total_seconds()
    if horizon <= 0.0:
        raise ValueError("t_interval is empty")
    g = as_key(rng).generator()
    scale = mean_interval_s / shape
    batch = max(16, int(1.5 * horizon / mean_interval_s) + 16)
    # each batch's running sums start from the last one: the gaps add in draw order
    sums = [np.zeros(1)]
    while sums[-1][-1] <= horizon:
        if len(sums) * batch > rows_within_budget(8):  # the gaps after this batch
            raise ValueError(
                f"gamma renewal with shape={shape!r} and mean_interval_s={mean_interval_s!r}"
                " does not reach the interval end within the memory budget"
            )
        sums.append(np.cumsum(np.append(sums[-1][-1], g.gamma(shape, scale, size=batch)))[1:])
    elapsed = np.concatenate(sums[1:])
    elapsed = elapsed[: np.searchsorted(elapsed, horizon, side="right")]
    return _to_us(t_start) + _seconds_to_us(elapsed)
