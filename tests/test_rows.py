"""A catalog holds its events, and an alarm set its alarms, as one read-only
row array: checks that the rows give back the events and alarms they were
built from, exact times, the reference filter, the reference invariant
messages, a lossless CSV round trip and the per-trigger alarm reference."""

import copy
import pickle
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqalarm import (
    Alarm,
    AlarmSet,
    Catalog,
    Event,
    FloorRule,
    GeoPoint,
    GlobalSphere,
    LatLonBox,
    SphericalCap,
    StudyVolume,
    dumps_alarms_csv,
    dumps_csv,
    filter_catalog,
    format_instant,
    generate_alarms,
    parse_csv,
    parse_instant,
)

from conftest import make_catalog
from oracles import alarms_per_trigger, catalog_invariant_error, filter_events

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
FIRST_US = -2524521600000000  # 1890-01-01
LAST_US = 3976214400000000  # 2096-01-01
# instants drawn often, so that ties and the epoch's neighbours come up
COMMON_US = (-86_400_000_001, -1, 0, 1, 1_072_915_200_000_000)

SETTINGS = settings(max_examples=60, deadline=None)


def instant(us: int) -> datetime:
    return EPOCH + timedelta(microseconds=us)


instants = st.one_of(st.integers(FIRST_US, LAST_US), st.sampled_from(COMMON_US)).map(instant)
latitudes = st.one_of(st.floats(-90.0, 90.0), st.sampled_from((-90.0, 90.0, -0.0)))
longitudes = st.one_of(st.floats(-540.0, 540.0), st.sampled_from((-180.0, 180.0, -0.0, 359.5)))
magnitudes = st.one_of(st.none(), st.floats(0.0, 10.0, exclude_min=True))
# ids that survive the CSV reader's stripping of each field
ids = st.text(alphabet='ab,"\r\n x', min_size=1, max_size=5).filter(lambda s: s == s.strip())


@st.composite
def events(draw, region=None):
    lat, lon = draw(latitudes), draw(longitudes)
    if region is not None and draw(st.booleans()):
        # often a point of the region, so that valid catalogs come up
        g = np.random.default_rng(draw(st.integers(0, 99)))
        lat, lon = (float(x[0]) for x in region.sample(1, g))
    return Event(
        draw(instants),
        GeoPoint(lat, lon),
        draw(st.one_of(st.floats(0.0, 700.0), st.just(-0.0))),
        draw(magnitudes),
        draw(magnitudes),
        draw(ids),
    )


def sorted_events(max_size=8, both_absent=True):
    return st.lists(
        events().filter(lambda e: both_absent or e.mb is not None or e.ms is not None),
        max_size=max_size,
        unique_by=lambda e: e.source_id,
    ).map(lambda evs: tuple(sorted(evs, key=lambda e: e.time)))


def envelope(evs) -> StudyVolume:
    """The span ``parse_csv`` gives time-sorted events."""
    if not evs:
        return StudyVolume(GlobalSphere(), EPOCH, EPOCH + timedelta(days=1))
    t0, t1 = evs[0].time, evs[-1].time
    return StudyVolume(GlobalSphere(), t0, t1 if t1 > t0 else t0 + timedelta(seconds=1))


WIDE = StudyVolume(GlobalSphere(), instant(FIRST_US), instant(LAST_US))


@SETTINGS
@given(sorted_events(), st.sampled_from(("mb", "ms")))
def test_rows_give_back_their_events(evs, selector):
    cat = Catalog(evs, WIDE, selector)
    assert cat.events == evs
    assert len(cat) == len(evs)
    assert cat.with_events(cat.events) == cat


@SETTINGS
@given(sorted_events())
def test_times_are_exact_timestamps(evs):
    cat = Catalog(evs, WIDE)
    want = np.array([e.time.timestamp() for e in evs], dtype=float)
    assert cat.times_s().tobytes() == want.tobytes()


@SETTINGS
@given(
    sorted_events(),
    st.sampled_from(("mb", "ms")),
    st.floats(-1.0, 11.0),
    st.one_of(st.none(), st.lists(instants, min_size=2, max_size=2, unique=True)),
)
def test_filter_matches_reference(evs, selector, mag_min, window):
    cat = Catalog(evs, WIDE, selector)
    window = None if window is None else tuple(sorted(window))
    kept = filter_catalog(cat, mag_min, window)
    assert kept.events == filter_events(cat, mag_min, window)
    assert (kept.span.t_start, kept.span.t_end) == (window or (cat.span.t_start, cat.span.t_end))


REGIONS = (
    GlobalSphere(),
    LatLonBox(-10.0, 40.0, 170.0, -170.0),
    SphericalCap(GeoPoint(89.0, 0.0), 500.0),
)


@SETTINGS
@given(
    st.sampled_from(REGIONS).flatmap(
        lambda region: st.tuples(
            st.just(region),
            st.lists(events(region), max_size=6),
            st.lists(instants, min_size=2, max_size=2, unique=True),
        )
    ),
    st.sampled_from(("mb", "ms", "ml")),
    st.booleans(),
)
def test_invariant_errors_match_reference(case, selector, time_sorted):
    region, evs, bounds = case
    if time_sorted:
        evs = sorted(evs, key=lambda e: e.time)
    span = StudyVolume(region, *sorted(bounds))
    want = catalog_invariant_error(evs, span, selector)
    if want is None:
        assert Catalog(evs, span, selector).events == tuple(evs)
    else:
        with pytest.raises(ValueError) as info:
            Catalog(evs, span, selector)
        assert str(info.value) == want


@SETTINGS
@given(sorted_events(both_absent=False))
def test_csv_round_trip(evs):
    cat = Catalog(evs, envelope(evs))
    assert parse_csv(dumps_csv(cat)) == cat


def test_empty_and_one_event_round_trip():
    for cat in (make_catalog([]), make_catalog([(1.5, -90.0, 180.0, 6.0)])):
        once = parse_csv(dumps_csv(cat))
        assert once.events == cat.events
        assert parse_csv(dumps_csv(once)) == once


def test_csv_round_trip_before_year_1000():
    # instants before 1000 are written with a four-digit year, as parse_instant needs
    evs = (
        Event(datetime(1, 1, 1, tzinfo=timezone.utc), GeoPoint(0.0, 0.0), 10.0, 6.0, None, "a"),
        Event(datetime(999, 3, 1, tzinfo=timezone.utc), GeoPoint(1.0, 2.0), 5.0, 5.5, None, "b"),
        Event(datetime(999, 3, 1, 0, 0, 0, 5, timezone.utc), GeoPoint(0.0, 0.1), 5.0, None, 6.5, "c"),
    )
    cat = Catalog(evs, envelope(evs))
    text = dumps_csv(cat)
    assert "\n0999-03-01T00:00:00Z," in text and "\n0999-03-01T00:00:00.000005Z," in text
    assert parse_csv(text) == cat
    alarm_set = generate_alarms(cat, 5.5)
    lines = dumps_alarms_csv(alarm_set).splitlines()[1:]
    for line, a in zip(lines, alarm_set.alarms, strict=True):
        trigger, _, _, _, start, end, _ = line.split(",")
        assert [parse_instant(t) for t in (trigger, start, end)] == [a.t_start, a.t_start, a.t_end]


class TestReadOnly:
    def test_rows_cannot_be_written(self):
        cat = make_catalog([(1.0, 10.0, 20.0, 6.0)])
        assert not cat.rows.flags.writeable
        with pytest.raises(ValueError):
            cat.rows["lat"][0] = 0.0
        with pytest.raises(AttributeError):
            cat.rows = cat.rows.copy()

    def test_copies_keep_read_only_rows(self):
        cat = make_catalog([(1.0, 10.0, 20.0, 6.0)])
        for twin in (pickle.loads(pickle.dumps(cat)), copy.deepcopy(cat)):
            assert twin == cat and not twin.rows.flags.writeable

    def test_accessors_return_arrays_the_caller_owns(self):
        cat = make_catalog([(1.0, 10.0, 20.0, 6.0), (2.0, 11.0, 21.0, 5.0)])
        for values in (cat.times_s(), cat.latitudes(), cat.longitudes(), cat.magnitudes()):
            values[0] = -1.0
        assert cat.latitudes()[0] == 10.0 and cat.magnitudes()[0] == 6.0

    def test_events_are_new_and_equal_on_each_call(self):
        cat = make_catalog([(1.0, 10.0, 20.0, 6.0)])
        first, second = cat.events, cat.events
        assert first == second and first[0] is not second[0]

    def test_absent_magnitude_is_a_zero_row_and_nan_accessor(self):
        span = StudyVolume(GlobalSphere(), EPOCH, EPOCH + timedelta(days=1))
        cat = Catalog([Event(EPOCH, GeoPoint(0.0, 0.0), 0.0, None, 6.0, "x")], span)
        assert cat.rows["mb"][0] == 0.0 and np.isnan(cat.magnitudes()[0])
        assert cat.events[0].mb is None


@st.composite
def alarms(draw):
    t_start = draw(instants)
    return Alarm(
        GeoPoint(draw(latitudes), draw(longitudes)),
        draw(st.floats(0.0, 20_000.0, exclude_min=True)),
        t_start,
        t_start + timedelta(microseconds=draw(st.integers(1, 10**14))),
        draw(st.floats(-1.0, 11.0)),
        draw(st.one_of(st.none(), ids)),
    )


@SETTINGS
@given(st.lists(alarms(), max_size=8))
def test_alarm_rows_give_back_their_alarms(alarm_list):
    aset = AlarmSet(alarm_list)
    assert aset.alarms == tuple(alarm_list)
    assert len(aset) == len(alarm_list) and list(aset) == alarm_list


@SETTINGS
@given(st.lists(alarms(), max_size=8))
def test_alarm_csv_matches_per_alarm_rendering(alarm_list):
    want = [
        ",".join((
            format_instant(a.t_start), repr(a.center.lat), repr(a.center.lon), repr(a.radius_km),
            format_instant(a.t_start), format_instant(a.t_end), repr(a.mag_floor),
        ))
        for a in alarm_list
    ]
    assert dumps_alarms_csv(AlarmSet(alarm_list)).splitlines()[1:] == want


@SETTINGS
@given(
    sorted_events(),
    st.sampled_from(("mb", "ms")),
    st.one_of(st.floats(1e-6, 400.0), st.sampled_from((21.0, 0.5, 1 / 3))),
    st.sampled_from(tuple(FloorRule)),
    st.data(),
)
def test_generate_alarms_matches_per_trigger_loop(evs, selector, window_days, rule, data):
    cat = Catalog(evs, WIDE, selector)
    present = [m for m in cat.rows[selector].tolist() if m > 0.0]
    # often a magnitude of the catalog itself, so that ties with the threshold come up
    threshold = data.draw(st.one_of(st.floats(-1.0, 11.0), st.sampled_from(present or [5.5])))
    aset = generate_alarms(cat, threshold, window_days, 75.0, rule)
    want = alarms_per_trigger(cat, threshold, window_days, 75.0, rule)
    assert aset.alarms == want
    assert aset.rows.tolist() == AlarmSet(want).rows.tolist()


class TestAlarmRows:
    def aset(self):
        cat = make_catalog([(1.0, 10.0, 20.0, 6.0), (2.0, 11.0, 21.0, 5.7)])
        return generate_alarms(cat, 5.5)

    def test_rows_cannot_be_written(self):
        for aset in (self.aset(), AlarmSet(self.aset().alarms)):
            assert not aset.rows.flags.writeable
            with pytest.raises(ValueError):
                aset.rows["mag_floor"][0] = 0.0
            with pytest.raises(AttributeError):
                aset.rows = aset.rows.copy()

    def test_alarms_are_new_and_equal_on_each_call(self):
        aset = self.aset()
        first, second = aset.alarms, aset.alarms
        assert first == second and first[0] is not second[0]

    def test_missing_trigger_round_trips_as_none(self):
        alarm = Alarm(GeoPoint(0.0, 0.0), 50.0, EPOCH, EPOCH + timedelta(days=1), 5.5)
        (back,) = AlarmSet([alarm]).alarms
        assert back.trigger_id is None
