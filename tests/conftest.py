"""Shared fixtures: synthetic catalogs, NDK sample records, optional real data."""

from __future__ import annotations

import os
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from eqalarm import Catalog, Event, GeoPoint, GlobalSphere, StudyVolume, parse_ndk

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)

CMT_ENV_VAR = "CMT_NDK_PATH"

# one degree of latitude is ~111.2 km, so 0.1 deg is well inside a 50 km cap
DEG_KM = 111.19508


def utc(*args) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


def day(x: float) -> timedelta:
    return timedelta(days=x)


def make_event(
    t_days: float,
    lat: float,
    lon: float,
    mb: float | None,
    ident: str,
    depth: float = 10.0,
    ms: float | None = None,
    t_start: datetime = T0,
) -> Event:
    return Event(t_start + timedelta(days=t_days), GeoPoint(lat, lon), depth, mb, ms, ident)


def make_catalog(rows, span_days: float = 365.0, t_start: datetime = T0) -> Catalog:
    """Catalog from (t_days, lat, lon, mb) rows over a global span."""
    events = sorted(
        (
            make_event(t, lat, lon, m, f"ev{i:03d}", t_start=t_start)
            for i, (t, lat, lon, m) in enumerate(rows)
        ),
        key=lambda e: e.time,
    )
    span = StudyVolume(GlobalSphere(), t_start, t_start + timedelta(days=span_days))
    return Catalog(tuple(events), span)


def traced_peak(fn):
    """Result of fn() and the peak bytes it allocated above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def random_catalog(
    rng: np.random.Generator,
    n: int = 20,
    span_days: float = 200.0,
    n_clusters: int = 3,
    cluster_scale_deg: float = 0.3,
) -> Catalog:
    """Spatially clustered synthetic catalog for property tests."""
    centers_lat = rng.uniform(-60.0, 60.0, size=n_clusters)
    centers_lon = rng.uniform(-150.0, 150.0, size=n_clusters)
    rows = []
    for _ in range(n):
        c = int(rng.integers(n_clusters))
        rows.append(
            (
                float(rng.uniform(0.0, span_days)),
                float(np.clip(centers_lat[c] + rng.normal(0, cluster_scale_deg), -89, 89)),
                float(centers_lon[c] + rng.normal(0, cluster_scale_deg)),
                float(rng.uniform(5.5, 7.5)),
            )
        )
    return make_catalog(rows, span_days=span_days)


_NDK_BODY = (
    "C200401100629A   B:  4    4  40 S: 27   33 130 M: 33   37 140 CMT: 1 TRIHD:  0.6",
    "CENTROID:     -0.3 0.9  13.76 0.06  -88.84 0.06 162.8 12.5 FREE S-20050322125201",
    "23  0.838 0.201 0.005 0.231 -0.270 0.073 -0.369 0.151 0.044 0.240 0.343 0.177",
    "V10   1.581 56 12  -0.537 23 140  -1.044 24 261 1.312 9 29  142 133 72   66 -179",
)


def ndk_record(
    date: str = "2004/01/10",
    time: str = "06:29:19.4",
    lat: float = 13.78,
    lon: float = -88.78,
    depth: float = 193.1,
    mb: float = 5.0,
    ms: float = 0.0,
    name: str = "EL SALVADOR",
    catalog: str = "PDE",
) -> str:
    line1 = (
        f"{catalog:<4} {date:>10} {time:>10} {lat:>6.2f} {lon:>7.2f} "
        f"{depth:>5.1f} {mb:>3.1f} {ms:>3.1f} {name:<24}"
    )
    assert len(line1) == 80
    return "\n".join([line1, *_NDK_BODY])


def ndk_file(records: list[str]) -> str:
    return "\n".join(records) + "\n"


def _cmt_path() -> Path | None:
    env = os.environ.get(CMT_ENV_VAR)
    if env and Path(env).exists():
        return Path(env)
    bundled = Path(__file__).resolve().parent.parent / "data" / "cmt_2000_2004.ndk"
    if bundled.exists():
        return bundled
    return None


@pytest.fixture(scope="session")
def cmt_catalog() -> Catalog:
    path = _cmt_path()
    if path is None:
        pytest.skip(
            f"real CMT NDK catalog for 2000-2004 not available; "
            f"set {CMT_ENV_VAR} or place data/cmt_2000_2004.ndk"
        )
    return parse_ndk(path.read_bytes())
