"""The pair join against the dense haversine oracle, its blocks against the
budget, its callers (declustering, the alarm measure, the union volume)
against their old loops, the count kernel against the pair kernel, the
memory budget of the batched kernels, and no second join or coverage loop in
the package."""

import ast
import contextlib
import math
import statistics
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqalarm
import eqalarm.alarm
from eqalarm import (
    Alarm,
    AlarmSet,
    AlarmTargetIndex,
    FloorRule,
    GeoPoint,
    GlobalSphere,
    LatLonBox,
    Rng,
    SphericalCap,
    StudyVolume,
    alarm_measure_pi,
    decluster,
    generate_alarms,
    poisson_binomial_pvalue,
    union_volume_fraction_mc,
)
from eqalarm.alarm import JOIN_BYTES_PER_CANDIDATE, MAX_STRIPS, STRIP_KEY, WIDE_STRIPS, pair_blocks
from eqalarm.catalog import _to_us
from eqalarm.decluster import WindowRow, WindowTable
from eqalarm.geo import (
    EARTH_RADIUS_KM,
    HALF_CIRCUMFERENCE_KM,
    great_circle_km_arrays,
    normalize_lon,
)

import oracles
from conftest import T0, day, make_catalog, traced_peak


def dense_pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius_km_a, block=512):
    """Reference join: every target x alarm haversine distance, in blocks of
    target rows; pairs come out sorted by target then alarm."""
    lat_t, lon_t, lat_a, lon_a = (
        np.asarray(x, dtype=float) for x in (lat_t, lon_t, lat_a, lon_a)
    )
    radius = np.broadcast_to(np.asarray(radius_km_a, dtype=float), lat_a.shape)
    t_parts = [np.empty(0, dtype=np.int64)]
    a_parts = [np.empty(0, dtype=np.int64)]
    for lo in range(0, lat_t.size, block):
        hi = min(lo + block, lat_t.size)
        d = great_circle_km_arrays(
            lat_t[lo:hi, None], lon_t[lo:hi, None], lat_a[None, :], lon_a[None, :]
        )
        rows, cols = np.nonzero(d <= radius[None, :])
        t_parts.append((rows + lo).astype(np.int64))
        a_parts.append(cols.astype(np.int64))
    return np.concatenate(t_parts), np.concatenate(a_parts)


def dense_index_pairs(targets, alarm_set):
    """Reference pair list of AlarmTargetIndex: the dense join minus each
    alarm's own trigger, found by id."""
    t, a = dense_pairs_within_km(
        targets.latitudes(),
        targets.longitudes(),
        [x.center.lat for x in alarm_set],
        [x.center.lon for x in alarm_set],
        [x.radius_km for x in alarm_set],
    )
    trig = np.array([x.trigger_id for x in alarm_set], dtype=object)
    keep = trig[a] != np.array(targets.source_ids(), dtype=object)[t]
    return t[keep], a[keep]


def pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius_km_a):
    """The whole join's pairs: :func:`pair_blocks`' blocks concatenated."""
    blocks = list(pair_blocks(lat_t, lon_t, lat_a, lon_a, radius_km_a))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def assert_same_pairs(got, expected):
    assert got[0].dtype == np.int64 and got[1].dtype == np.int64
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])


lat_st = st.one_of(
    st.sampled_from([-90.0, 90.0, 0.0]), st.floats(min_value=-90.0, max_value=90.0)
)
lon_st = st.one_of(
    st.sampled_from([-180.0, 180.0, 179.99, -179.99]),
    st.floats(min_value=-180.0, max_value=180.0),
)
radius_st = st.one_of(
    st.floats(min_value=0.5, max_value=500.0),
    st.floats(min_value=500.0, max_value=HALF_CIRCUMFERENCE_KM),
)


@st.composite
def join_inputs(draw):
    """Targets, then alarms either anywhere or a small step from a target,
    with some radii set to exactly one target's distance."""
    n = draw(st.integers(0, 25))
    m = draw(st.integers(0, 25))
    lat_t = [draw(lat_st) for _ in range(n)]
    lon_t = [draw(lon_st) for _ in range(n)]
    lat_a, lon_a, radius = [], [], []
    for _ in range(m):
        if n and draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            dlat = draw(st.floats(-1.0, 1.0))
            lat_a.append(float(np.clip(lat_t[k] + dlat, -90.0, 90.0)))
            lon_a.append(normalize_lon(lon_t[k] + draw(st.floats(-1.0, 1.0))))
        else:
            lat_a.append(draw(lat_st))
            lon_a.append(draw(lon_st))
        radius.append(draw(radius_st))
    if n and m:
        for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
            k = draw(st.integers(0, n - 1))
            exact = float(great_circle_km_arrays(lat_t[k], lon_t[k], lat_a[j], lon_a[j]))
            radius[j] = max(exact, 1e-6)
    return lat_t, lon_t, lat_a, lon_a, radius


# the default (one block), one target per block, and a few targets per block;
# a pytest fixture is not reset between hypothesis examples, so tests patch
budget_st = st.sampled_from([eqalarm.alarm.MEMORY_BUDGET_BYTES, 1, 10_000])
# one candidate per slice, a few, and the default
slice_st = st.sampled_from([1, 7, eqalarm.alarm.CANDIDATE_SLICE])


def _budget(budget_bytes):
    return mock.patch.object(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget_bytes)


def _slice(n_candidates):
    return mock.patch.object(eqalarm.alarm, "CANDIDATE_SLICE", n_candidates)


def _strips():
    """Strips for a join of any size (see _key_ranges)."""
    return mock.patch.object(eqalarm.alarm, "STRIP_MIN_PAIRS", 0)


class TestPairsWithinKm:
    @settings(max_examples=400, deadline=None)
    @given(join_inputs())
    def test_matches_dense_oracle(self, inputs):
        assert_same_pairs(pairs_within_km(*inputs), dense_pairs_within_km(*inputs))

    @settings(max_examples=200, deadline=None)
    @given(join_inputs(), budget_st, slice_st)
    def test_budget_blocks_do_not_change_pairs(self, inputs, budget_bytes, n_slice):
        # the blocks concatenate to the whole join's pairs under any budget,
        # whatever the number of candidates evaluated at once, with strips
        with _budget(budget_bytes), _slice(n_slice), _strips():
            got = pairs_within_km(*(np.asarray(x, dtype=float) for x in inputs))
        assert_same_pairs(got, dense_pairs_within_km(*inputs))

    def test_exactly_at_radius_counts_as_inside(self):
        d = float(great_circle_km_arrays(0.0, 0.0, 0.3, 0.4))
        t, a = pairs_within_km([0.0], [0.0], [0.3], [0.4], d)
        assert (t.tolist(), a.tolist()) == ([0], [0])
        t, a = pairs_within_km([0.0], [0.0], [0.3], [0.4], np.nextafter(d, 0.0))
        assert t.size == 0

    def test_near_antipodes_at_exact_radius(self):
        # on one meridian near opposite poles the computed distance can fall
        # short of R * |dlat| by some 5e-7 degrees; such pairs still count
        rng = np.random.default_rng(4)
        lat_t = 90.0 - rng.uniform(0.0, 1e-5, 20000)
        lat_a = -90.0 + rng.uniform(0.0, 1e-5, 20000)
        lon = rng.uniform(-180.0, 180.0, 20000)
        radius = great_circle_km_arrays(lat_t, lon, lat_a, lon)
        shortfall = (lat_t - lat_a) - np.degrees(radius / EARTH_RADIUS_KM)
        worst = np.argsort(shortfall)[-50:]
        assert shortfall[worst].max() > 2e-7
        args = (lat_t[worst], lon[worst], lat_a[worst], lon[worst], radius[worst])
        got = pairs_within_km(*args)
        assert_same_pairs(got, dense_pairs_within_km(*args))
        assert set(range(50)) <= {t for t, a in zip(*got) if t == a}

    def test_pole_and_dateline(self):
        # every meridian meets at the pole; the dateline is no boundary
        lat_t, lon_t = [90.0, 89.8, 0.0, 0.0], [0.0, 180.0, 179.9, -179.9]
        t, _ = pairs_within_km(lat_t, lon_t, [90.0], [37.0], 30.0)
        assert t.tolist() == [0, 1]
        t, _ = pairs_within_km([0.0, 0.0], [179.9, -179.9], [0.0], [-180.0], 12.0)
        assert t.tolist() == [0, 1]

    def test_empty_and_single_inputs(self):
        empty_cases = (
            ([], [], [], [], 50.0),
            ([1.0], [2.0], [], [], []),
            ([], [], [1.0], [2.0], 50.0),
        )
        for args in empty_cases:
            t, a = pairs_within_km(*args)
            assert t.size == a.size == 0 and t.dtype == a.dtype == np.int64
        t, a = pairs_within_km([1.0], [2.0], [1.0], [2.0], 50.0)
        assert (t.tolist(), a.tolist()) == ([0], [0])

    def test_longitudes_at_the_dateline(self):
        lons = [180.0, -180.0, 179.999, -179.999]
        lat_t = [0.0, 0.0, 0.0, 0.0, 30.0, -30.0, 30.0, -30.0]
        lon_t = lons + lons
        lat_a = [0.0, 0.0, 30.0, -30.0]
        args = (lat_t, lon_t, lat_a, lons, [1.0, 0.5, 1.0, 0.5])
        got = pairs_within_km(*args)
        assert_same_pairs(got, dense_pairs_within_km(*args))
        # points on one parallel lie at most 0.002 degrees of longitude apart
        # across the dateline: 0.22 km on the equator, 0.19 km at +-30
        assert set(zip(*(x.tolist() for x in got))) == {
            (0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1),
            (4, 2), (5, 3), (6, 2), (7, 3),
        }

    def test_caps_over_a_pole(self):
        # an alarm within r / R of a pole covers points on every meridian,
        # across the pole; its latitude band reaches past +-90 degrees
        rng = np.random.default_rng(6)
        lat_t = np.concatenate([rng.uniform(88.0, 90.0, 300), rng.uniform(-90.0, -88.0, 300)])
        lon_t = rng.uniform(-180.0, 180.0, 600)
        lat_a = np.array([89.9, 89.8, 90.0, -89.7, -90.0])
        lon_a = np.array([0.0, 180.0, -37.0, -179.999, 12.0])
        radius = np.array([25.0, 40.0, 45.0, 60.0, 100.0])
        assert np.all(90.0 - np.abs(lat_a) < np.degrees(radius / EARTH_RADIUS_KM))
        got = pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius)
        assert_same_pairs(got, dense_pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius))
        for j in range(lat_a.size):
            lons = lon_t[got[0][got[1] == j]]
            assert np.ptp(lons) > 300.0  # pairs all round the pole

    def test_radii_up_to_half_the_circumference(self):
        rng = np.random.default_rng(7)
        lat_t = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 400)))
        lon_t = rng.uniform(-180.0, 180.0, 400)
        lat_a, lon_a = np.array([0.0, 90.0, -45.0, 12.0]), np.array([0.0, 0.0, 170.0, -180.0])
        radius = np.array([HALF_CIRCUMFERENCE_KM, HALF_CIRCUMFERENCE_KM, 15_000.0, 19_000.0])
        got = pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius)
        assert_same_pairs(got, dense_pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius))
        # half the circumference covers the whole sphere
        assert np.bincount(got[1], minlength=4)[:2].tolist() == [400, 400]

    def test_one_alarm_with_more_candidates_than_a_slice(self):
        # every target lies in the band of the middle alarm; its neighbours in
        # the alarm order have a few candidates each
        n = eqalarm.alarm.CANDIDATE_SLICE + 3000
        rng = np.random.default_rng(8)
        lat_t = rng.uniform(-0.4, 0.4, n)
        lon_t = rng.uniform(-180.0, 180.0, n)
        lat_a, lon_a = np.array([0.3, 0.0, -0.3]), np.array([10.0, 0.0, -10.0])
        radius = np.array([20.0, 60.0, 20.0])
        first = np.searchsorted(np.sort(lat_t), lat_a - np.degrees(radius / EARTH_RADIUS_KM))
        last = np.searchsorted(np.sort(lat_t), lat_a + np.degrees(radius / EARTH_RADIUS_KM))
        assert (last - first)[1] == n
        for n_slice in (eqalarm.alarm.CANDIDATE_SLICE, 1000):
            with _slice(n_slice):
                got = pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius)
            assert_same_pairs(got, dense_pairs_within_km(lat_t, lon_t, lat_a, lon_a, radius))


QUARTER_CIRCUMFERENCE_KM = HALF_CIRCUMFERENCE_KM / 2.0
# radii about a quarter of the circumference (alpha near 90 degrees) and up to half
window_radius_st = st.one_of(
    radius_st,
    st.floats(QUARTER_CIRCUMFERENCE_KM * (1 - 1e-9), QUARTER_CIRCUMFERENCE_KM * (1 + 1e-9)),
    st.floats(QUARTER_CIRCUMFERENCE_KM, HALF_CIRCUMFERENCE_KM),
)
window_lon_st = st.one_of(
    st.sampled_from([-180.0, math.nextafter(180.0, 0.0), 179.99, -179.99]), lon_st
)


@st.composite
def window_inputs(draw):
    """Caps at the edges of their longitude windows: centres with |lat| just
    either side of 90 - alpha, where the latitude band starts to reach a
    pole, with alpha also near and above 90 degrees; longitudes at -180,
    just under 180 and across the dateline; and targets near the two points
    where a cap reaches furthest in longitude, some on its boundary, and some
    radii set to exactly another target's distance."""
    lat_a, lon_a, radius, lat_t, lon_t = [], [], [], [], []
    for _ in range(draw(st.integers(1, 6))):
        r = draw(window_radius_st)
        alpha = r / EARTH_RADIUS_KM
        step = draw(st.one_of(st.floats(-1e-4, 1e-4), st.floats(-3.0, 3.0)))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        lat = float(np.clip(sign * (90.0 - math.degrees(alpha) + step), -90.0, 90.0))
        lat_a.append(lat)
        lon_a.append(draw(window_lon_st))
        radius.append(r)
        ratio = math.sin(alpha) / math.cos(math.radians(lat))
        if ratio < 1.0:
            # the cap's boundary touches the meridians lon +- asin(ratio) at
            # the latitude whose sine is sin(lat) / cos(alpha)
            widest = math.degrees(math.asin(ratio))
            sin_lat = min(max(math.sin(math.radians(lat)) / math.cos(alpha), -1.0), 1.0)
            for side in (-1.0, 1.0):
                nudge = draw(st.sampled_from([0.0, 1e-6, -1e-6, 1e-3, -1e-3]))
                lat_t.append(float(np.clip(math.degrees(math.asin(sin_lat)) + nudge, -90.0, 90.0)))
                lon_t.append(float(normalize_lon(lon_a[-1] + side * widest + nudge)))
            if draw(st.booleans()):  # the last target on the cap's boundary
                radius[-1] = float(great_circle_km_arrays(lat_t[-1], lon_t[-1], lat, lon_a[-1]))
    for _ in range(draw(st.integers(0, 10))):
        lat_t.append(draw(lat_st))
        lon_t.append(draw(window_lon_st))
    if lat_t:
        for j in draw(st.lists(st.integers(0, len(lat_a) - 1), max_size=len(lat_a))):
            k = draw(st.integers(0, len(lat_t) - 1))
            exact = float(great_circle_km_arrays(lat_t[k], lon_t[k], lat_a[j], lon_a[j]))
            radius[j] = max(exact, 1e-6)
    return lat_t, lon_t, lat_a, lon_a, radius


class TestLongitudeWindow:
    @settings(max_examples=400, deadline=None)
    @given(window_inputs(), budget_st, slice_st)
    def test_matches_dense_oracle(self, inputs, budget_bytes, n_slice):
        with _budget(budget_bytes), _slice(n_slice), _strips():
            got = pairs_within_km(*inputs)
        assert_same_pairs(got, dense_pairs_within_km(*inputs))

    def test_distances_only_inside_the_window(self):
        # the seeded global join of test_a_sparse_global_join_is_one_block:
        # the haversine sees each candidate the window keeps, and no other
        rng = np.random.default_rng(9)
        lat, lon = GlobalSphere().sample(6000, rng)
        args = (lat[:3000], lon[:3000], lat[3000:], lon[3000:], np.full(3000, 50.0))
        with mock.patch.object(
            eqalarm.alarm, "great_circle_km_arrays", wraps=great_circle_km_arrays
        ) as haversine:
            got = pairs_within_km(*args)
        evaluated = sum(np.size(call.args[0]) for call in haversine.call_args_list)
        assert evaluated == window_candidates(*args)
        assert got[0].size <= evaluated < band_candidates(lat[:3000], lat[3000:], 50.0) / 10


def window_candidates(lat_t, lon_t, lat_a, lon_a, radius_km_a):
    """Band candidates (see band_candidates) whose longitude lies within
    asin(sin alpha / cos lat) + 1e-5 degrees of their alarm's, by brute
    force over every target and alarm; all longitudes when the band reaches
    a pole."""
    alpha = np.asarray(radius_km_a) / EARTH_RADIUS_KM
    half_band = np.degrees(alpha) + 1e-5
    ratio = np.minimum(np.sin(alpha) / np.cos(np.radians(lat_a)), 1.0)
    window = np.degrees(np.arcsin(ratio)) + 1e-5
    half_lon = np.where(np.abs(lat_a) + half_band >= 90.0, 180.0, window)
    n = 0
    for k in range(len(lat_t)):
        in_band = (lat_t[k] >= lat_a - half_band) & (lat_t[k] <= lat_a + half_band)
        d_lon = np.abs(lon_t[k] - lon_a) % 360.0
        n += int((in_band & (np.minimum(d_lon, 360.0 - d_lon) <= half_lon)).sum())
    return n


def band_candidates(lat_t, lat_a, radius_km_a):
    """Candidates of a join block by the band rule: target latitudes within
    an alarm's radius in degrees plus 1e-5."""
    half_band = np.degrees(np.asarray(radius_km_a) / EARTH_RADIUS_KM) + 1e-5
    lat_t = np.asarray(lat_t)[:, None]
    return int(((lat_t >= lat_a - half_band) & (lat_t <= lat_a + half_band)).sum())


def strip_candidates(lat_t, lon_t, lat_a, lon_a, radius_km_a):
    """Candidates of a join block by the strip rule, brute force over every
    target and alarm. Strips are twice the alarms' upper median half-band
    (see band_candidates) high, numbered from the south pole. A target is a
    candidate of an alarm when its strip lies among those of the alarm's
    band and, unless the alarm is wide, its longitude lies within the
    alarm's window (see window_candidates) plus 1e-6 degrees. An alarm is
    wide when its band reaches a pole or spans more than WIDE_STRIPS strips.
    Longitudes must lie in [-180, 180]."""
    lat_t, lon_t, lat_a, lon_a = (np.asarray(x, float) for x in (lat_t, lon_t, lat_a, lon_a))
    alpha = np.broadcast_to(np.asarray(radius_km_a, float), lat_a.shape) / EARTH_RADIUS_KM
    half_band = np.degrees(alpha) + 1e-5
    ratio = np.minimum(np.sin(alpha) / np.cos(np.radians(lat_a)), 1.0)
    window = np.degrees(np.arcsin(ratio)) + 1e-5
    half_lon = np.where(np.abs(lat_a) + half_band >= 90.0, 180.0, window) + 1e-6
    h = max(2.0 * np.sort(half_band)[lat_a.size // 2], 180.0 / MAX_STRIPS)
    s_lo, s_hi = (np.floor((lat + 90.0) / h) for lat in (lat_a - half_band, lat_a + half_band))
    wide = (half_lon >= 180.0) | (s_hi - s_lo >= WIDE_STRIPS)
    n = 0
    for k in range(lat_t.size):
        strip = np.floor((lat_t[k] + 90.0) / h)
        d_lon = np.abs(lon_t[k] - lon_a)
        in_window = np.minimum(d_lon, 360.0 - d_lon) <= half_lon
        n += int(((strip >= s_lo) & (strip <= s_hi) & (wide | in_window)).sum())
    return n


class TestPairBlocksBudget:
    def test_a_sparse_global_join_is_one_block(self):
        # 3000 targets and 3000 alarms of 50 km over the globe: about 70,000
        # candidates, far inside the default budget
        rng = np.random.default_rng(9)
        lat, lon = GlobalSphere().sample(6000, rng)
        radius = np.full(3000, 50.0)
        blocks = list(pair_blocks(lat[:3000], lon[:3000], lat[3000:], lon[3000:], radius))
        assert len(blocks) == 1
        assert band_candidates(lat[:3000], lat[3000:], 50.0) * JOIN_BYTES_PER_CANDIDATE < (
            eqalarm.alarm.MEMORY_BUDGET_BYTES
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 20_000, 200_000]))
    def test_blocks_are_halved_only_past_the_budget(self, seed, budget_bytes):
        # a self-join with clustered points and mixed radii: every point pairs
        # with itself, so each block's targets are the range its pairs span.
        # The blocks are the leaves of halving [0, n) while a block of more
        # than one target generates over budget // JOIN_BYTES_PER_CANDIDATE
        # candidates by the strip rule, in target order, lower half first
        rng = np.random.default_rng(seed)
        n = 300
        lat = np.clip(rng.normal(rng.choice([-60.0, 0.0, 89.0], n), 2.0), -90.0, 90.0)
        lon = rng.uniform(-180.0, 180.0, n)
        radius = rng.choice([10.0, 100.0, 500.0], n)

        def fits(lo, hi):
            n_cand = strip_candidates(lat[lo:hi], lon[lo:hi], lat, lon, radius)
            return n_cand * JOIN_BYTES_PER_CANDIDATE <= budget_bytes

        def halved(lo, hi):
            if hi - lo > 1 and not fits(lo, hi):
                return halved(lo, (lo + hi) // 2) + halved((lo + hi) // 2, hi)
            return [(lo, hi)]

        with _budget(budget_bytes), _strips():
            blocks = list(pair_blocks(lat, lon, lat, lon, radius))
        spans = [(int(t[0]), int(t[-1]) + 1) for t, _ in blocks]
        assert spans == halved(0, n)
        assert all(fits(lo, hi) for lo, hi in spans if hi - lo > 1)
        assert_same_pairs(
            tuple(np.concatenate(parts) for parts in zip(*blocks)),
            dense_pairs_within_km(lat, lon, lat, lon, radius),
        )


def strip_edges(h):
    """The lowest latitude of each strip but the first under floor((lat + 90) / h),
    by bisection down to adjacent floats."""
    k = np.arange(1, math.ceil(180.0 / h))
    lo, hi = -90.0 + h * (k - 0.5), np.minimum(-90.0 + h * (k + 0.5), 90.0)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        upper = np.floor((mid + 90.0) / h) >= k
        lo, hi = np.where(upper, lo, mid), np.where(upper, mid, hi)
    return hi


def evaluated_and_ranges(*args, strips=True):
    """The join's pairs, the number of distances it computes and what
    _key_ranges returned (key_t, range_lo, range_hi, range_alarm), with
    strips whatever the join's size unless ``strips`` is false."""
    key_ranges, seen = eqalarm.alarm._key_ranges, []

    def spy(*a):
        seen.append(key_ranges(*a))
        return seen[-1]

    with mock.patch.object(eqalarm.alarm, "_key_ranges", spy), mock.patch.object(
        eqalarm.alarm, "great_circle_km_arrays", wraps=great_circle_km_arrays
    ) as haversine, _strips() if strips else contextlib.nullcontext():
        got = pairs_within_km(*args)
    return got, sum(np.size(call.args[0]) for call in haversine.call_args_list), seen[0]


class TestStripRanges:
    """Edge cases of the strip rule, whatever the join's size: the pairs are
    the dense join's under any budget and slice, and the haversine sees
    exactly the candidates inside the band and the longitude window."""

    def check(self, *args):
        expected = dense_pairs_within_km(*args)
        assert_same_pairs(pairs_within_km(*args), expected)
        for budget_bytes, n_slice in (
            (eqalarm.alarm.MEMORY_BUDGET_BYTES, eqalarm.alarm.CANDIDATE_SLICE), (1, 7), (10_000, 1)
        ):
            with _budget(budget_bytes), _slice(n_slice), _strips():
                assert_same_pairs(pairs_within_km(*args), expected)
        got, evaluated, ranges = evaluated_and_ranges(*args)
        assert evaluated == window_candidates(*args)
        return got, ranges

    def test_points_on_strip_edges(self):
        # one radius, so strips are 2 * half_band high: targets on every strip
        # edge and a float either side, alarms whose band starts or ends near
        # one, and alarms whose band has an edge in its middle
        rng = np.random.default_rng(21)
        half_band = math.degrees(30.0 / EARTH_RADIUS_KM) + 1e-5
        edges = strip_edges(2.0 * half_band)
        below, above = np.nextafter(edges, -90.0), np.nextafter(edges, 90.0)
        lat_t = np.concatenate([edges, below, above])
        lon_t = rng.uniform(-0.05, 0.05, lat_t.size)
        lat_a = np.concatenate(
            [edges[::3] + half_band, edges[1::3] - half_band, edges[2::3] + half_band / 2]
        )
        lat_a = np.clip(lat_a, -90.0, 90.0)
        lon_a = rng.uniform(-0.05, 0.05, lat_a.size)
        got, (key_t, *_) = self.check(lat_t, lon_t, lat_a, lon_a, np.full(lat_a.size, 30.0))
        strips = np.floor(key_t / STRIP_KEY).reshape(3, -1)
        k = np.arange(1, edges.size + 1)
        assert np.array_equal(strips, [k, k - 1, k])
        assert got[0].size >= edges.size

    def test_windows_wrapping_past_the_dateline_both_ways(self):
        rng = np.random.default_rng(22)
        lat_t = rng.uniform(-62.0, 62.0, 600)
        lon_t = normalize_lon(rng.uniform(178.0, 182.0, 600))
        lat_a = np.array([0.0, 60.0, -60.0, 0.0, 60.0, -60.0, 30.0, 30.0])
        lon_a = np.array([179.9, 179.5, 179.99, -179.9, -179.5, -179.99, -180.0,
                          math.nextafter(180.0, 0.0)])
        radius = np.full(lat_a.size, 200.0)
        got, (_, range_lo, _, range_alarm) = self.check(lat_t, lon_t, lat_a, lon_a, radius)
        # every alarm pairs with targets on both sides of the dateline
        for j in range(lat_a.size):
            assert {-1.0, 1.0} <= set(np.sign(lon_t[got[0][got[1] == j]]).tolist())
        # each window wraps: in each strip it is two ranges, one from below
        # x = 0 and one from just below x = 360
        x_lo = range_lo - np.round(range_lo / STRIP_KEY) * STRIP_KEY
        for j in range(lat_a.size):
            assert (x_lo[range_alarm == j] < 0.0).any() and (x_lo[range_alarm == j] > 350.0).any()

    def test_polar_caps(self):
        # caps on and near both poles reach every meridian and are wide: one
        # range each, beside caps that are not
        rng = np.random.default_rng(24)
        lat_t = np.concatenate([rng.uniform(85.0, 90.0, 300), rng.uniform(-90.0, -85.0, 300)])
        lon_t = rng.uniform(-180.0, 180.0, 600)
        lat_a = np.array([90.0, 89.99, -90.0, -89.999, 87.0, -86.0, 88.5])
        lon_a = np.array([0.0, -179.0, 45.0, 179.9, 10.0, -100.0, 180.0])
        radius = np.array([5.0, 50.0, 500.0, 30.0, 150.0, 120.0, 200.0])
        got, (_, _, _, range_alarm) = self.check(lat_t, lon_t, lat_a, lon_a, radius)
        per_alarm = np.bincount(range_alarm, minlength=lat_a.size)
        assert per_alarm[:4].tolist() == [1, 1, 1, 1]
        assert np.bincount(got[1], minlength=lat_a.size).min() > 0

    def test_all_points_in_one_strip(self):
        rng = np.random.default_rng(25)
        lat_t, lat_a = np.full(500, 10.0), np.full(100, 10.0)
        lon_t, lon_a = rng.uniform(-180.0, 180.0, 500), rng.uniform(-180.0, 180.0, 100)
        got, (key_t, *_) = self.check(lat_t, lon_t, lat_a, lon_a, np.full(100, 80.0))
        assert np.unique(np.floor(key_t / STRIP_KEY)).size == 1
        assert got[0].size > 0

    def test_strips_only_from_strip_min_pairs(self):
        # below STRIP_MIN_PAIRS target x alarm pairs the keys are the
        # latitudes and each alarm's band its one range; from there, strips
        rng = np.random.default_rng(27)
        lat, lon = GlobalSphere().sample(1600, rng)
        side = math.isqrt(eqalarm.alarm.STRIP_MIN_PAIRS)
        for n, m in ((20, 20), (side, side - 1), (side, side + 1)):
            args = (lat[:n], lon[:n], lat[-m:], lon[-m:], np.full(m, 300.0))
            got, evaluated, (key_t, range_lo, range_hi, range_alarm) = evaluated_and_ranges(
                *args, strips=False
            )
            assert_same_pairs(got, dense_pairs_within_km(*args))
            assert evaluated == window_candidates(*args)
            if n * m < eqalarm.alarm.STRIP_MIN_PAIRS:
                assert np.array_equal(key_t, lat[:n]) and np.array_equal(range_alarm, np.arange(m))
            else:
                assert key_t.max() > STRIP_KEY and range_alarm.size > m

    def test_mixed_half_kilometre_and_half_circumference_radii(self):
        # a median of either radius, 40,000 times apart, yet a few ranges per
        # alarm: a cap reaching a pole takes one range
        rng = np.random.default_rng(26)
        lat, lon = GlobalSphere().sample(300, rng)
        lat_t, lon_t = lat[:150], lon[:150]
        lat_t[:50], lon_t[:50] = lat[150:200], lon[150:200] + 0.001  # within 0.5 km of an alarm
        for share_small in (0.2, 0.8):
            radius = np.where(rng.uniform(size=150) < share_small, 0.5, 20_015.0)
            got, (_, _, _, range_alarm) = self.check(lat_t, lon_t, lat[150:], lon[150:], radius)
            assert range_alarm.size <= 3 * radius.size
            assert (radius[got[1]] < 1.0).any()


def _package_nodes():
    """Every AST node of the package's modules, as (where, node): where is
    "module.py:scope", the scope being the top-level function or class
    method holding the node, the class for a class attribute, "" at module
    level."""
    for path in sorted(Path(eqalarm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for item in top.body if isinstance(top, ast.ClassDef) else [top]:
                scope = ".".join(getattr(x, "name", "") for x in dict.fromkeys((top, item)))
                for node in ast.walk(item):
                    yield f"{path.name}:{scope.strip('.')}", node


def test_one_pair_join_in_the_package():
    # pair_blocks is the one place points are paired by distance; a region
    # tests its points against one centre
    allowed = {"alarm.py:pair_blocks", "geo.py:SphericalCap.contains_arrays"}
    uses, joins = set(), []
    for where, node in _package_nodes():
        name = getattr(node, "id", getattr(node, "attr", None))
        if name == "great_circle_km_arrays":
            uses.add(where)
        if "pairs_within_km" in (name, getattr(node, "name", None)):
            joins.append(f"{where}:{node.lineno}")
    assert uses == allowed
    assert joins == []


def test_one_coverage_loop_in_the_package():
    # the index, declustering and the covered time of points (behind the
    # alarm measure and the union volume) are the join's only callers
    callers = {
        where
        for where, node in _package_nodes()
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pair_blocks"
    }
    assert callers == {
        "alarm.py:AlarmTargetIndex.__init__", "alarm.py:_covered_us", "decluster.py:decluster"
    }


def test_sigtests_reads_the_index_through_its_methods():
    # how many rows a count call takes is the index's decision, made beside
    # the rule that keeps its verdict table
    reads = {
        node.attr
        for where, node in _package_nodes()
        if where.startswith("sigtests.py:")
        and isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "index"
    }
    assert "counts_for_time_matrix" in reads
    assert reads <= {
        "n_targets", "predicted_mask", "predicted_segments", "counts_for_time_matrix",
        "_rows_per_call",
    }


class TestIndexPairs:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 60.0), lat_st, lon_st, st.floats(5.5, 7.5)),
            max_size=25,
        ),
        radius_st,
        budget_st,
    )
    def test_matches_dense_oracle(self, rows, radius_km, budget_bytes):
        cat = make_catalog(rows, span_days=61.0)
        for rule in (FloorRule.THRESHOLD, FloorRule.TRIGGER):
            aset = generate_alarms(cat, 5.5, radius_km=radius_km, floor_rule=rule)
            with _budget(budget_bytes):
                index = AlarmTargetIndex(cat, aset)
            assert_same_pairs((index._pk, index._pj), dense_index_pairs(cat, aset))


mag_st = st.one_of(
    st.none(), st.sampled_from([5.0, 5.5, 6.0, 6.5]), st.floats(min_value=4.0, max_value=8.0)
)
# whole days give tied times and gaps exactly at a window's length
days_st = st.one_of(st.integers(0, 6).map(float), st.floats(min_value=0.0, max_value=30.0))
length_st = st.one_of(st.integers(1, 6).map(float), st.floats(min_value=0.01, max_value=40.0))


def _point_near(draw, points):
    """A fresh point, or one within a degree of one of ``points``."""
    if points and draw(st.booleans()):
        lat, lon = draw(st.sampled_from(points))
        lat = float(np.clip(lat + draw(st.floats(-1.0, 1.0)), -90.0, 90.0))
        return lat, lon + draw(st.floats(-1.0, 1.0))
    return draw(lat_st), draw(lon_st)


def _radius_to_a_point(draw, lat, lon, points):
    """A radius from ``radius_st``, or exactly the distance from (lat, lon)
    to one of ``points`` (lat, lon pairs)."""
    if points and draw(st.booleans()):
        p_lat, p_lon = draw(st.sampled_from(points))
        return max(float(great_circle_km_arrays(p_lat, p_lon, lat, lon)), 1e-6)
    return draw(radius_st)


@st.composite
def decluster_inputs(draw):
    """A catalog of up to 25 events and a window table of up to three rows,
    some window radii exactly the distance between two events."""
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        lat, lon = _point_near(draw, [(r[1], r[2]) for r in rows])
        rows.append((draw(days_st), lat, lon, draw(mag_st)))
    cat = make_catalog(rows, span_days=31.0)
    points = list(zip(cat.latitudes().tolist(), cat.longitudes().tolist()))

    def row(mag_min):
        lat, lon = draw(st.sampled_from(points)) if points else (0.0, 0.0)
        return WindowRow(mag_min, draw(length_st), _radius_to_a_point(draw, lat, lon, points))

    mag_mins = sorted(set(draw(st.lists(st.sampled_from([5.0, 5.5, 6.0, 6.5]), max_size=2))))
    return cat, WindowTable(tuple(row(m) for m in [-math.inf, *mag_mins]))


@st.composite
def alarm_inputs(draw):
    """Up to 15 epicenters, up to 15 alarms (some centred a small step from an
    epicenter, some with radius exactly the distance to one), and an
    interval that may clip the alarm windows."""
    points = draw(st.lists(st.tuples(lat_st, lon_st), min_size=1, max_size=15))
    epicenters = [GeoPoint(lat, lon) for lat, lon in points]
    points = [(p.lat, p.lon) for p in epicenters]
    alarms = []
    for _ in range(draw(st.integers(0, 15))):
        center = GeoPoint(*_point_near(draw, points))
        radius = _radius_to_a_point(draw, center.lat, center.lon, points)
        start = draw(days_st)
        alarms.append(Alarm(center, radius, T0 + day(start), T0 + day(start + draw(length_st)), 5.5))
    start = draw(st.floats(min_value=-5.0, max_value=30.0))
    interval = (T0 + day(start), T0 + day(start + draw(length_st)))
    return AlarmSet(tuple(alarms)), epicenters, interval


DAY_US = 86_400_000_000
# one paired target per block and one row per chunk, a few of each, and one of each
kernel_budget_st = st.sampled_from([1, 64 * 2**10, eqalarm.alarm.MEMORY_BUDGET_BYTES])


class TestCountKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(days_st, lat_st, lon_st, mag_st), min_size=1, max_size=25),
        length_st,
        radius_st,
        kernel_budget_st,
        st.randoms(use_true_random=False),
    )
    def test_matches_the_pair_kernel(self, rows, window_days, radius_km, budget, random):
        # tied times, windows ending on a later event, absent magnitudes, the
        # poles and the dateline; permutations and arbitrary in-range rows
        cat = make_catalog(rows, span_days=31.0)
        n = len(cat)
        order = np.array(
            [random.sample(range(n), n) for _ in range(3)]
            + [[random.randrange(n) for _ in range(n)] for _ in range(3)],
            dtype=np.intp,
        )
        times = cat.rows["time_us"]
        for rule in FloorRule:
            aset = generate_alarms(cat, 5.5, window_days, radius_km, rule)
            # the trigger-floor index reuses the threshold-floor index's join
            index = AlarmTargetIndex(cat, aset)
            with _budget(budget):
                got = index.counts_for_time_matrix(order)
            assert got.tolist() == oracles.pair_kernel_counts(index, aset, cat, times[order]).tolist()
            assert_same_readers(index, fresh_index(cat, aset), order)

    # under trigger floors ev001 is paired but outranked at every position,
    # and each keyed change below moves some reader's answer
    BOARD = [(1.0, 0.0, 0.0, 6.5), (2.0, 0.0, 0.1, 5.6), (10.0, 0.0, 0.2, 6.0),
             (12.0, 0.0, 0.05, 6.8), (30.0, 10.0, 10.0, 5.7), (40.0, 10.0, 10.1, 5.9)]
    CHANGES = {
        "target time": ("targets", "time_us", -1, lambda t: t + 12 * DAY_US),
        "target id": ("targets", "source_id", 0, lambda s: "other"),
        "alarm lat": ("alarms", "lat", 2, lambda lat: lat + 0.5),
        "alarm radius": ("alarms", "radius_km", 0, lambda r: r / 10.0),
        "alarm start": ("alarms", "start_us", 0, lambda t: t + 2 * DAY_US),
        "alarm end": ("alarms", "end_us", 4, lambda t: t - 15 * DAY_US),
        "alarm trigger id": ("alarms", "trigger_id", 1, lambda s: "ev003"),
        "alarm floor (not keyed)": ("alarms", "mag_floor", 0, lambda m: 5.0),
    }

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_a_changed_join_input_is_joined_again(self, change, monkeypatch):
        monkeypatch.setattr(eqalarm.alarm, "_last_join", None)
        cat = make_catalog(self.BOARD, span_days=60.0)
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        first = AlarmTargetIndex(cat, aset)
        assert first._scoring.size < np.unique(first._pk).size
        which, name, i, new = self.CHANGES[change]
        rows = (cat if which == "targets" else aset).rows.copy()
        rows[name][i] = new(rows[name][i])
        if which == "targets":
            cat = eqalarm.Catalog._from_rows(rows, cat.span)
        else:
            aset = AlarmSet._from_rows(rows)
        second = AlarmTargetIndex(cat, aset)
        assert (second._pk is first._pk) == (change == "alarm floor (not keyed)")
        rng = np.random.default_rng(8)
        order = np.stack([rng.permutation(len(cat)) for _ in range(20)])
        assert_same_readers(second, fresh_index(cat, aset), order)
        expected = oracles.pair_kernel_counts(second, aset, cat, cat.rows["time_us"][order])
        assert second.counts_for_time_matrix(order).tolist() == expected.tolist()


def fresh_index(targets, alarm_set):
    """An index of ``targets`` over ``alarm_set`` that joins them itself."""
    with mock.patch.object(eqalarm.alarm, "_last_join", None):
        return AlarmTargetIndex(targets, alarm_set)


def assert_same_readers(index, fresh, order):
    """Every reader of ``index`` agrees with ``fresh``'s: the verdicts and
    successful alarms at the identity and at order[0], the runs of the
    board and the counts of every row of ``order``."""
    for positions in (np.arange(index.n_targets), order[0]):
        assert index.predicted_mask(positions).tolist() == fresh.predicted_mask(positions).tolist()
        assert index.successful_alarms(positions) == fresh.successful_alarms(positions)
    for got, expected in zip(index.predicted_segments(), fresh.predicted_segments()):
        assert got.tolist() == expected.tolist()
    got, expected = index.counts_for_time_matrix(order), fresh.counts_for_time_matrix(order)
    assert got.tolist() == expected.tolist()


region_st = st.sampled_from(
    [GlobalSphere(), LatLonBox(-10.0, 10.0, 170.0, -170.0),
     SphericalCap(GeoPoint(89.5, 0.0), 300.0)]
)


def union_volume_oracle(alarm_set, sv, n_samples, seed):
    """What union_volume_fraction_mc should give: its points' exact mean
    covered share by the oracle's per-point interval union, and the shares'
    population SD over sqrt(n_samples)."""
    covered = oracles.union_volume_covered_us(alarm_set, sv, n_samples, seed)
    length = _to_us(sv.t_end) - _to_us(sv.t_start)
    sd = statistics.pstdev([c / length for c in covered])
    return sum(covered) / (length * n_samples), sd / math.sqrt(n_samples)


class TestJoinCallersMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(decluster_inputs(), st.booleans(), budget_st)
    def test_decluster(self, inputs, retained_only, budget_bytes):
        cat, windows = inputs
        with _budget(budget_bytes):
            got = decluster(cat, windows, retained_only=retained_only).deleted_indices
        assert got == oracles.decluster_deleted(cat, windows, retained_only)

    @settings(max_examples=300, deadline=None)
    @given(alarm_inputs(), budget_st)
    def test_alarm_measure_pi(self, inputs, budget_bytes):
        with _budget(budget_bytes):
            got = alarm_measure_pi(*inputs)
        assert got == oracles.alarm_measure_pi(*inputs)

    def test_alarm_measure_pi_radius_within_an_ulp(self):
        # a falsifying example once found by test_alarm_measure_pi: the third
        # alarm's radius lies within a few ulps of its distance to the north
        # pole, where scalar and batched haversines once disagreed
        center = GeoPoint(0.7250144880822709, -180.0)
        south = GeoPoint(-90.0, -180.0)
        north = GeoPoint(90.0, 0.0)
        epicenters = [south, GeoPoint(0.0, -180.0), north]
        interval = (T0, T0 + day(1))
        exact = float(great_circle_km_arrays(center.lat, center.lon, north.lat, north.lon))
        for radius, expected in ((9926.939176845179, None), (exact, 1.0)):
            alarms = AlarmSet(
                tuple(
                    Alarm(c, r, T0, T0 + day(1), 5.5)
                    for c, r in ((south, 1.0), (south, 1e-6), (center, radius))
                )
            )
            got = alarm_measure_pi(alarms, epicenters, interval)
            assert got == oracles.alarm_measure_pi(alarms, epicenters, interval)
            assert expected is None or got == expected

    @settings(max_examples=150, deadline=None)
    @given(alarm_inputs(), region_st, st.integers(1, 300), st.integers(0, 2**32 - 1), budget_st)
    def test_union_volume(self, inputs, region, n_samples, seed, budget_bytes):
        alarm_set, _, interval = inputs
        sv = StudyVolume(region, *interval)
        with _budget(budget_bytes):
            got = union_volume_fraction_mc(alarm_set, sv, n_samples, seed).estimate
        assert got == union_volume_oracle(alarm_set, sv, n_samples, seed)[0]

    @settings(max_examples=100, deadline=None)
    @given(alarm_inputs(), region_st, st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_union_volume_stderr(self, inputs, region, n_samples, seed):
        alarm_set, _, interval = inputs
        sv = StudyVolume(region, *interval)
        got = union_volume_fraction_mc(alarm_set, sv, n_samples, seed).stderr
        assert got == pytest.approx(union_volume_oracle(alarm_set, sv, n_samples, seed)[1],
                                    rel=1e-9, abs=1e-15)

    def test_union_volume_one_sample(self):
        # the one point is covered for 3 of the 10 days, and it is the
        # region's first draw from the key's stream
        alarm_set = AlarmSet((Alarm(GeoPoint(0.0, 0.0), 20_000.0, T0 + day(2), T0 + day(5), 5.5),))
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(10))
        est = union_volume_fraction_mc(alarm_set, sv, 1, Rng(14))
        assert (est.estimate, est.stderr) == (0.3, 0.0)
        assert oracles.union_volume_covered_us(alarm_set, sv, 1, Rng(14)) == [3 * 86_400 * 10**6]

    def test_empty_and_one_event_catalogs(self):
        windows = WindowTable.uniform(10.0, HALF_CIRCUMFERENCE_KM)
        for rows in ([], [(1.0, 90.0, -180.0, 6.0)]):
            cat = make_catalog(rows)
            for retained_only in (False, True):
                assert decluster(cat, windows, retained_only=retained_only).deleted_indices == ()


class TestMemoryBudget:
    BUDGET = 2 * 2**20

    def test_one_latitude_band_join(self, monkeypatch):
        # 1200 targets and alarms on the equator: every alarm's band holds
        # every target, so the unblocked candidates would take ~130 MB
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", self.BUDGET)
        rows = [(i * 0.01, 0.0, -180.0 + 0.3 * i, 6.0) for i in range(1200)]
        cat = make_catalog(rows, span_days=20.0)
        aset = generate_alarms(cat, 5.5, radius_km=50.0)
        index, peak = traced_peak(lambda: AlarmTargetIndex(cat, aset))
        assert peak <= 2 * self.BUDGET + 1_000_000
        assert_same_pairs((index._pk, index._pj), dense_index_pairs(cat, aset))
        assert index.n_pairs > 2000

    def test_large_count_batch(self, monkeypatch):
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", self.BUDGET)
        rng = np.random.default_rng(3)
        rows = [
            (float(t), float(lat), float(lon), 6.0)
            for t, lat, lon in zip(
                rng.uniform(0, 300, 300), rng.normal(0, 0.2, 300), rng.normal(0, 0.2, 300)
            )
        ]
        cat = make_catalog(rows, span_days=301.0)
        index = AlarmTargetIndex(cat, generate_alarms(cat, 5.5))
        times = cat.rows["time_us"]
        matrix = np.stack([rng.permutation(len(times)) for _ in range(400)])
        # a kernel holding 11 B per (row, pair) would take about 390 MB
        assert matrix.shape[0] * index.n_pairs * 11 > 100 * self.BUDGET
        counts, peak = traced_peak(lambda: index.counts_for_time_matrix(matrix))
        assert peak <= 2 * self.BUDGET + counts.nbytes
        expected = [index.predicted_mask(row).sum() for row in matrix[:40]]
        assert counts[:40].tolist() == expected

    def test_count_kernel_blocks_its_verdict_table(self, monkeypatch):
        # 1200 targets on the equator, 1080 of them scoring: the verdict
        # table of every scoring target at every position is over 4x the budget
        budget = 256 * 2**10
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
        rows = [(i * 0.01, 0.0, -180.0 + 0.3 * i, 5.5 + 0.1 * (i % 10)) for i in range(1200)]
        cat = make_catalog(rows, span_days=20.0)
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        index = AlarmTargetIndex(cat, aset)
        assert index._scoring.size * len(cat) > 4 * budget
        rng = np.random.default_rng(12)
        order = np.stack([rng.permutation(len(cat)) for _ in range(300)])
        counts, peak = traced_peak(lambda: index.counts_for_time_matrix(order))
        assert peak <= 2 * budget + counts.nbytes
        expected = oracles.pair_kernel_counts(index, aset, cat, cat.rows["time_us"][order])
        assert counts.tolist() == expected.tolist()
        assert len(set(counts.tolist())) > 1

    def test_kept_verdict_table_follows_the_budget(self):
        # one index counts one row and 1000 rows under the default budget,
        # where one table covers every scoring target and is kept, then under a
        # budget that splits them into blocks, then under the default again
        rows = [(i * 0.01, 0.0, -180.0 + 0.3 * i, 5.5 + 0.1 * (i % 10)) for i in range(1200)]
        cat = make_catalog(rows, span_days=20.0)
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        index = AlarmTargetIndex(cat, aset)
        n_scoring = index._scoring.size
        rng = np.random.default_rng(13)
        times = cat.rows["time_us"]
        for n_rows, budget in ((1, None), (1000, None), (300, 256 * 2**10), (300, None)):
            order = np.stack([rng.permutation(len(cat)) for _ in range(n_rows)])
            with _budget(budget or eqalarm.alarm.MEMORY_BUDGET_BYTES):
                assert (index._block(n_rows) < n_scoring) == (budget is not None)
                counts = index.counts_for_time_matrix(order)
            expected = oracles.pair_kernel_counts(index, aset, cat, times[order])
            assert counts.tolist() == expected.tolist(), (n_rows, budget)
            assert n_rows == 1 or len(set(counts.tolist())) > 1

    def test_decluster_half_circumference_window(self, monkeypatch):
        # 1200 events on the equator with a 20,000 km window: every event
        # pairs with every other, ~130 MB of join candidates unblocked
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", self.BUDGET)
        rows = [(i * 0.01, 0.0, -180.0 + 0.3 * i, 5.0 + 0.1 * (i % 20)) for i in range(1200)]
        cat = make_catalog(rows, span_days=20.0)
        windows = WindowTable.uniform(30.0, 20_000.0)
        for retained_only in (False, True):
            result, peak = traced_peak(
                lambda: decluster(cat, windows, retained_only=retained_only)
            )
            assert peak <= 2 * self.BUDGET + 1_000_000
            expected = oracles.decluster_deleted(cat, windows, retained_only)
            assert result.deleted_indices == expected
            assert len(expected) > 100

    def test_union_volume_half_circumference_radius(self, monkeypatch):
        # 3000 samples in an equatorial band and 600 alarms of 20,000 km:
        # ~170 MB of join candidates unblocked
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", self.BUDGET)
        alarm_set = AlarmSet(
            tuple(
                Alarm(GeoPoint(0.0, -180.0 + 0.6 * i), 20_000.0, T0, T0 + day(5.0 + 0.01 * i), 5.5)
                for i in range(600)
            )
        )
        sv = StudyVolume(LatLonBox(-1.0, 1.0, -180.0, 180.0), T0, T0 + day(20.0))
        est, peak = traced_peak(lambda: union_volume_fraction_mc(alarm_set, sv, 3000, 9))
        assert peak <= 2 * self.BUDGET + 1_000_000
        assert est.estimate == union_volume_oracle(alarm_set, sv, 3000, 9)[0]
        assert 0.2 < est.estimate < 0.8

    def test_simulated_poisson_binomial_blocks(self, monkeypatch):
        probs = np.linspace(0.001, 0.01, 2013)
        n_reps = 2000
        # under the default budget a block of 1024 rows holds about 18 MB
        expected = poisson_binomial_pvalue(12, probs, "simulate", n_reps, Rng(5))
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", self.BUDGET)
        p, peak = traced_peak(
            lambda: poisson_binomial_pvalue(12, probs, "simulate", n_reps, Rng(5))
        )
        assert peak <= 2 * self.BUDGET + 100_000
        assert p == expected
        assert 0.0 < p < 1.0
