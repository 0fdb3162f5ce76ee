import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqalarm import (
    EARTH_RADIUS_KM,
    GeoPoint,
    GlobalSphere,
    LatLonBox,
    SphericalCap,
    cap_area_km2,
)
from eqalarm.geo import (
    EARTH_AREA_KM2,
    HALF_CIRCUMFERENCE_KM,
    check_cap_radius,
    great_circle_km_arrays,
    normalize_lon,
)

from oracles import cap_samples_by_rotation, great_circle_km, region_contains

lat_st = st.floats(min_value=-90.0, max_value=90.0)
lon_st = st.floats(min_value=-180.0, max_value=360.0, exclude_max=True)
point_st = st.builds(GeoPoint, lat_st, lon_st)


class TestGeoPoint:
    def test_lat_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.001, 0.0)

    def test_lon_normalized(self):
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, 270.0).lon == -90.0
        assert GeoPoint(0.0, -180.0).lon == -180.0
        assert GeoPoint(0.0, 359.0).lon == -1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, float("inf"))

    def test_normalize_lon_range(self):
        for lon in np.linspace(-720, 720, 97):
            assert -180.0 <= normalize_lon(float(lon)) < 180.0

    def test_normalize_lon_arrays_match_scalars(self):
        rng = np.random.default_rng(8)
        lons = np.concatenate(
            [rng.uniform(-1000.0, 1000.0, 5000), [-540.0, -180.0, 0.0, -0.0, 180.0, 540.0]]
        )
        wrapped = normalize_lon(lons)
        scalars = [normalize_lon(float(x)) for x in lons]
        assert wrapped.tolist() == scalars
        assert all(type(x) is float for x in scalars)
        # == does not tell -0.0 from 0.0
        assert np.signbit(wrapped).tolist() == np.signbit(scalars).tolist()
        assert np.all((wrapped >= -180.0) & (wrapped < 180.0))

    def test_normalize_lon_just_below_minus_180_wraps_to_minus_180(self):
        # the float below -180: (lon + 180) % 360 rounds to 360, giving 180.0
        lon = -180.00000000000003
        assert normalize_lon(lon) == -180.0
        wrapped = normalize_lon(np.array([lon, 200.0, np.nan]))
        assert wrapped[:2].tolist() == [-180.0, -160.0] and np.isnan(wrapped[2])
        assert GeoPoint(0.0, lon).lon == -180.0

    @given(st.floats(min_value=-180.0, max_value=180.0, exclude_max=True))
    def test_normalize_lon_keeps_in_range_values(self, lon):
        # written digits survive, and -0.0 keeps its sign as latitude does
        assert type(normalize_lon(lon)) is float
        assert repr(normalize_lon(lon)) == repr(lon)
        assert repr(normalize_lon(np.array([lon, 200.0]))[0].item()) == repr(lon)


class TestGreatCircle:
    def test_coincident_points(self):
        p = GeoPoint(12.3, -45.6)
        assert great_circle_km(p, p) == 0.0

    def test_antipodal_half_circumference(self):
        d = great_circle_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-6)

    def test_one_degree_equatorial_arc(self):
        d = great_circle_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert d == pytest.approx(EARTH_RADIUS_KM * math.pi / 180.0, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(point_st, point_st)
    def test_symmetry(self, a, b):
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(point_st, point_st, point_st)
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_km(a, b)
        bc = great_circle_km(b, c)
        ac = great_circle_km(a, c)
        assert ac <= ab + bc + 1e-6

    def test_scalar_and_one_element_array_distances_agree(self):
        # 0-d inputs make numpy scalars, whose ** goes through C pow; the
        # batched path must not depend on the shape of its input
        rng = np.random.default_rng(20)
        lat1, lat2 = rng.uniform(-90.0, 90.0, (2, 20000))
        lon1, lon2 = rng.uniform(-180.0, 180.0, (2, 20000))
        batched = great_circle_km_arrays(lat1, lon1, lat2, lon2)
        for args, d in zip(zip(lat1, lon1, lat2, lon2), batched.tolist()):
            assert float(great_circle_km_arrays(*args)) == d
            assert great_circle_km_arrays(*([x] for x in args))[0] == d


class TestCapArea:
    def test_degenerate_cap(self):
        assert cap_area_km2(0.0) == 0.0

    def test_full_sphere_limit(self):
        assert cap_area_km2(math.pi * EARTH_RADIUS_KM) == pytest.approx(
            4.0 * math.pi * EARTH_RADIUS_KM**2, rel=1e-12
        )

    def test_fifty_km_matches_planar_disc(self):
        # at 50 km the spherical correction is below 1e-5 relative
        spherical = cap_area_km2(50.0)
        planar = math.pi * 50.0**2
        assert abs(spherical - planar) / planar < 1e-5
        assert spherical == pytest.approx(7853.94, abs=0.01)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            cap_area_km2(-1.0)

    def test_beyond_half_circumference_rejected(self):
        # one rule with check_cap_radius above 0: no slack past half the
        # circumference, not even an ulp
        assert cap_area_km2(HALF_CIRCUMFERENCE_KM) == EARTH_AREA_KM2
        for bad in (math.nextafter(HALF_CIRCUMFERENCE_KM, math.inf), HALF_CIRCUMFERENCE_KM * 1.01):
            for call in (cap_area_km2, check_cap_radius):
                with pytest.raises(ValueError):
                    call(bad)

    def test_arrays_match_scalars(self):
        radii = np.concatenate(
            [np.random.default_rng(2).uniform(0.0, HALF_CIRCUMFERENCE_KM, 1000), [0.0, 50.0]]
        )
        areas = cap_area_km2(radii)
        assert areas.tolist() == [cap_area_km2(r) for r in radii.tolist()]
        assert type(cap_area_km2(50.0)) is float
        assert cap_area_km2(np.empty(0)).shape == (0,)
        for bad in (-1.0, math.nan, math.inf, HALF_CIRCUMFERENCE_KM * 1.01):
            with pytest.raises(ValueError):
                cap_area_km2(np.array([50.0, bad]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=HALF_CIRCUMFERENCE_KM),
        st.floats(min_value=0.0, max_value=HALF_CIRCUMFERENCE_KM),
    )
    def test_monotone_increasing(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert cap_area_km2(lo) <= cap_area_km2(hi) + 1e-9


class TestRegions:
    def test_global_sphere_area(self):
        assert GlobalSphere().area_km2 == pytest.approx(
            4.0 * math.pi * EARTH_RADIUS_KM**2
        )

    def test_global_sample_support_and_mean(self):
        rng = np.random.default_rng(7)
        lat, lon = GlobalSphere().sample(20000, rng)
        assert np.all((lat >= -90) & (lat <= 90))
        assert np.all((lon >= -180) & (lon < 180))
        # z = sin(lat) is uniform on [-1, 1]: mean within 3 sigma of 0
        z = np.sin(np.radians(lat))
        assert abs(z.mean()) < 3.0 / math.sqrt(12 * 20000) * 2

    def test_box_area_hemisphere(self):
        box = LatLonBox(0.0, 90.0, -180.0, 180.0)
        assert box.area_km2 == pytest.approx(2.0 * math.pi * EARTH_RADIUS_KM**2)

    def test_box_contains_and_wrap(self):
        box = LatLonBox(-10.0, 10.0, 170.0, -170.0)
        lat, lon = [0.0, 0.0, 0.0], [175.0, -175.0, 0.0]
        assert box.contains_arrays(lat, lon).tolist() == [True, True, False]
        assert [region_contains(box, GeoPoint(*p)) for p in zip(lat, lon)] == [True, True, False]
        assert box.lon_width_deg == pytest.approx(20.0)

    def test_box_sample_inside(self):
        box = LatLonBox(10.0, 20.0, 30.0, 40.0)
        rng = np.random.default_rng(3)
        lat, lon = box.sample(500, rng)
        assert np.all(box.contains_arrays(lat, lon))

    def test_box_invalid_lats(self):
        with pytest.raises(ValueError):
            LatLonBox(10.0, 5.0, 0.0, 20.0)

    @pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf])
    def test_box_nonfinite_lons_rejected(self, edge):
        with pytest.raises(ValueError, match="longitude edges must be finite"):
            LatLonBox(0.0, 10.0, edge, 10.0)
        with pytest.raises(ValueError, match="longitude edges must be finite"):
            LatLonBox(0.0, 10.0, 0.0, edge)

    def test_cap_contains_and_area(self):
        cap = SphericalCap(GeoPoint(45.0, 45.0), 300.0)
        assert cap.contains_arrays([45.0, -45.0], [45.0, 45.0]).tolist() == [True, False]
        assert region_contains(cap, GeoPoint(45.0, 45.0))
        assert not region_contains(cap, GeoPoint(-45.0, 45.0))
        assert cap.area_km2 == pytest.approx(cap_area_km2(300.0))

    def test_cap_sample_inside(self):
        cap = SphericalCap(GeoPoint(-30.0, 120.0), 800.0)
        rng = np.random.default_rng(11)
        lat, lon = cap.sample(500, rng)
        d = [great_circle_km(GeoPoint(float(a), float(b)), cap.center) for a, b in zip(lat, lon)]
        assert max(d) <= 800.0 * (1 + 1e-9)

    def test_cap_sample_at_south_pole(self):
        cap = SphericalCap(GeoPoint(-90.0, 0.0), 500.0)
        lat, lon = cap.sample(200, np.random.default_rng(5))
        assert np.all(cap.contains_arrays(lat, lon))
        assert np.all(lat < -85.0)

    @pytest.mark.parametrize("radius_km", [0.0, -1.0, math.nan, HALF_CIRCUMFERENCE_KM * 1.01])
    def test_cap_radius_rule(self, radius_km):
        with pytest.raises(ValueError, match="cap radius must be in"):
            SphericalCap(GeoPoint(0.0, 0.0), radius_km)

    @pytest.mark.parametrize(
        "lon_min,lon_max",
        [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (10.0, 10.0 + 1e-14), (10.0 + 1e-14, 10.0),
         (-180.0, 180.0), (180.0, -180.0), (0.0, 720.0), (170.0, -170.0), (-1e-14, 0.0),
         (5.0, 4.0), (359.9, -0.1)],
    )
    def test_box_lon_width_is_the_fmod_rule(self, lon_min, lon_max):
        width = math.fmod(lon_max - lon_min, 360.0)
        width = width + 360.0 if width < 0.0 else width
        assert LatLonBox(0.0, 1.0, lon_min, lon_max).lon_width_deg == (width or 360.0)

    def test_cap_sample_near_pole(self):
        cap = SphericalCap(GeoPoint(90.0, 0.0), 500.0)
        rng = np.random.default_rng(5)
        lat, lon = cap.sample(200, rng)
        assert np.all(lat > 80.0)

    @pytest.mark.parametrize(
        "region",
        [
            GlobalSphere(),
            LatLonBox(-10.0, 10.0, 170.0, -170.0),
            LatLonBox(-90.0, -60.0, -180.0, 180.0),
            SphericalCap(GeoPoint(89.5, 0.0), 300.0),
            SphericalCap(GeoPoint(-30.0, 179.0), HALF_CIRCUMFERENCE_KM),
        ],
    )
    def test_contains_arrays_matches_scalar_oracle(self, region):
        rng = np.random.default_rng(9)
        lat = np.concatenate([rng.uniform(-90.0, 90.0, 3000), [-90.0, -10.0, 10.0, 90.0]])
        lon = np.concatenate([rng.uniform(-180.0, 180.0, 3000), [-180.0, 170.0, -170.0, 0.0]])
        expected = [region_contains(region, GeoPoint(a, b)) for a, b in zip(lat, lon)]
        assert region.contains_arrays(lat, lon).tolist() == expected


CAP_CENTRES = [(0.0, 0.0), (45.0, 45.0), (-30.0, 120.0), (89.5, 0.0), (90.0, 77.0),
               (10.0, -179.9), (-89.5, 170.0)]
CAP_RADII_KM = [1.0, 50.0, 800.0, 10_000.0, HALF_CIRCUMFERENCE_KM]


def unit_vectors(lat, lon) -> np.ndarray:
    lat, lon = np.radians(lat), np.radians(lon)
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1)


def ks_uniform(u) -> float:
    """Kolmogorov-Smirnov distance of a sample from the uniform law on [0, 1]."""
    u = np.sort(u)
    i = np.arange(1, u.size + 1)
    return float(max((i / u.size - u).max(), (u - (i - 1) / u.size).max()))


class TestCapSampler:
    @pytest.mark.parametrize("radius_km", CAP_RADII_KM)
    @pytest.mark.parametrize("centre", CAP_CENTRES)
    def test_same_map_as_rotation_from_the_pole(self, centre, radius_km):
        cap = SphericalCap(GeoPoint(*centre), radius_km)
        got = unit_vectors(*cap.sample(5000, np.random.default_rng(17)))
        want = unit_vectors(*cap_samples_by_rotation(cap, 5000, np.random.default_rng(17)))
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("radius_km", CAP_RADII_KM)
    @pytest.mark.parametrize("seed,centre", enumerate(CAP_CENTRES + [(-90.0, 33.0)]))
    def test_area_uniform(self, seed, centre, radius_km):
        # about the centre c, (1 - cos d) / (1 - cos alpha) and the bearing
        # are each uniform on their range for an area-uniform cap. The bound
        # is fixed before any draw: P(sqrt(n) D > 2.5) ~ 2 exp(-12.5) = 7.5e-6
        # per test, so the 80 tests here fail falsely with probability < 0.1%
        n = 20_000
        cap = SphericalCap(GeoPoint(*centre), radius_km)
        p = unit_vectors(*cap.sample(n, np.random.default_rng([seed, int(radius_km)])))
        lon = math.radians(centre[1])
        c = unit_vectors(*centre)
        east = np.array([-math.sin(lon), math.cos(lon), 0.0])
        north = np.cross(c, east)
        one_minus_cos_d = ((p - c) ** 2).sum(axis=1) / 2.0  # half the squared chord
        one_minus_cos_alpha = 1.0 - math.cos(radius_km / EARTH_RADIUS_KM)
        bearing = np.arctan2(p @ east, p @ north) / (2.0 * math.pi) % 1.0
        bound = 2.5 / math.sqrt(n)
        assert ks_uniform(one_minus_cos_d / one_minus_cos_alpha) <= bound
        assert ks_uniform(bearing) <= bound
