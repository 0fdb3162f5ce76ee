"""Spherical geometry: epicentral distances, cap areas, and study regions.

Distances are great-circle kilometres on a spherical Earth of IUGG mean
radius. Ellipsoidal corrections are below the precision of 50-km-scale
alarm geometry and are deliberately not applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0088
EARTH_AREA_KM2 = 4.0 * math.pi * EARTH_RADIUS_KM**2
HALF_CIRCUMFERENCE_KM = math.pi * EARTH_RADIUS_KM


def normalize_lon(lon):
    """Map longitudes in degrees (a float or an array) onto [-180, 180):
    one in range comes back as it was, -0.0 included, and any other wraps.
    ``%`` takes the C ``fmod`` and adds 360 to a negative remainder; just
    below -180 that sum rounds to 360, which the second ``% 360`` takes to 0.
    A scalar comes back as a float.
    """
    in_range = (lon >= -180.0) & (lon < 180.0)
    wrapped = np.where(in_range, lon, (lon + 180.0) % 360.0 % 360.0 - 180.0)
    return wrapped if np.ndim(lon) else float(wrapped)


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """Point on the sphere: latitude in [-90, 90], longitude stored in [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self):
        if not math.isfinite(self.lat) or not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not math.isfinite(self.lon):
            raise ValueError(f"longitude {self.lon!r} is not finite")
        object.__setattr__(self, "lat", float(self.lat))
        object.__setattr__(self, "lon", normalize_lon(float(self.lon)))


def check_cap_radius(radius_km: float) -> None:
    """The one rule for alarm and cap radii: refuse any outside
    (0, HALF_CIRCUMFERENCE_KM], NaN included, with a ValueError."""
    if not 0.0 < radius_km <= HALF_CIRCUMFERENCE_KM:
        raise ValueError(
            f"cap radius must be in (0, {HALF_CIRCUMFERENCE_KM:.1f}] km, got {radius_km!r}"
        )


def great_circle_km_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorised haversine distance in km between degree coordinates."""
    lat1, lon1, lat2, lon2 = (np.radians(x, dtype=float) for x in (lat1, lon1, lat2, lon2))
    sin_dlat = np.sin((lat2 - lat1) / 2.0)
    sin_dlon = np.sin((lon2 - lon1) / 2.0)
    # x * x, not x**2: on 0-d input the ufuncs return numpy scalars, whose
    # ** goes through C pow and can land an ulp away from the array result
    h = sin_dlat * sin_dlat + np.cos(lat1) * np.cos(lat2) * (sin_dlon * sin_dlon)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h.clip(0.0, 1.0)))


def cap_area_km2(radius_km):
    """Area in km^2 of a spherical cap of the given great-circle radius, a
    float or an array of them: 2*pi*R^2*(1 - cos(r/R)). Radii must lie in
    [0, HALF_CIRCUMFERENCE_KM]: 0 is the empty cap, and half the
    circumference gives the whole sphere.
    """
    r = np.asarray(radius_km, dtype=float)
    bad = ~((r >= 0.0) & (r <= HALF_CIRCUMFERENCE_KM))  # NaN too
    if bad.any():
        raise ValueError(
            f"cap radius must be in [0, {HALF_CIRCUMFERENCE_KM:.1f}] km (half the "
            f"circumference), got {float(r[bad].flat[0])!r}"
        )
    area = 2.0 * math.pi * EARTH_RADIUS_KM**2 * (1.0 - np.cos(r / EARTH_RADIUS_KM))
    return area if area.ndim else float(area)


@dataclass(frozen=True)
class GlobalSphere:
    """The whole sphere."""

    @property
    def area_km2(self) -> float:
        return EARTH_AREA_KM2

    def contains_arrays(self, lat, lon) -> np.ndarray:
        return np.ones(np.broadcast(np.asarray(lat), np.asarray(lon)).shape, dtype=bool)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n points uniform by area: sin(lat) uniform, lon uniform."""
        z = rng.uniform(-1.0, 1.0, size=n)
        lat = np.degrees(np.arcsin(z))
        lon = rng.uniform(-180.0, 180.0, size=n)
        return lat, lon


@dataclass(frozen=True)
class LatLonBox:
    """Latitude-longitude box; crosses the dateline when lon_max < lon_min.

    Edges are inclusive on all sides; grids built from shared edges should
    resolve boundary points by first match.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (-90.0 <= self.lat_min < self.lat_max <= 90.0):
            raise ValueError(
                f"need -90 <= lat_min < lat_max <= 90, got [{self.lat_min}, {self.lat_max}]"
            )
        if not (math.isfinite(self.lon_min) and math.isfinite(self.lon_max)):
            raise ValueError(
                f"longitude edges must be finite, got [{self.lon_min}, {self.lon_max}]"
            )

    @property
    def lon_width_deg(self) -> float:
        return (self.lon_max - self.lon_min) % 360.0 or 360.0

    @property
    def area_km2(self) -> float:
        band = math.sin(math.radians(self.lat_max)) - math.sin(math.radians(self.lat_min))
        return EARTH_RADIUS_KM**2 * math.radians(self.lon_width_deg) * band

    def contains_arrays(self, lat, lon) -> np.ndarray:
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        dlon = np.mod(lon - self.lon_min, 360.0)
        return (lat >= self.lat_min) & (lat <= self.lat_max) & (dlon <= self.lon_width_deg)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        z = rng.uniform(
            math.sin(math.radians(self.lat_min)), math.sin(math.radians(self.lat_max)), size=n
        )
        lat = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
        return lat, normalize_lon(self.lon_min + rng.uniform(0.0, self.lon_width_deg, size=n))


@dataclass(frozen=True)
class SphericalCap:
    """Spherical cap: all points within a great-circle radius of a center."""

    center: GeoPoint
    radius_km: float

    def __post_init__(self):
        check_cap_radius(self.radius_km)

    @property
    def area_km2(self) -> float:
        return cap_area_km2(self.radius_km)

    def contains_arrays(self, lat, lon) -> np.ndarray:
        d = great_circle_km_arrays(lat, lon, self.center.lat, self.center.lon)
        return d <= self.radius_km

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Area-uniform points: cos(theta) of the distance theta from the
        centre is uniform on [cos(alpha), 1], and the bearing uniform. Each
        point is laid out in the centre's frame (c, east e, north n = c x e)
        as cos(theta) c + sin(theta) (sin(psi - lon) e - cos(psi - lon) n):
        one formula at every centre, poles included."""
        alpha = self.radius_km / EARTH_RADIUS_KM
        cos_theta = 1.0 - rng.uniform(0.0, 1.0, size=n) * (1.0 - math.cos(alpha))
        sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
        lat, lon = math.radians(self.center.lat), math.radians(self.center.lon)
        psi = rng.uniform(0.0, 2.0 * math.pi, size=n) - lon
        c = [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        e = [-math.sin(lon), math.cos(lon), 0.0]
        xyz = np.stack([cos_theta, sin_theta * np.sin(psi), -sin_theta * np.cos(psi)], axis=-1)
        xyz = xyz @ np.array([c, e, np.cross(c, e)])
        return (np.degrees(np.arcsin(np.clip(xyz[:, 2], -1.0, 1.0))),
                np.degrees(np.arctan2(xyz[:, 1], xyz[:, 0])))


Region = GlobalSphere | LatLonBox | SphericalCap
