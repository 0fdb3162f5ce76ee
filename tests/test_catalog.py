import io
from datetime import timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqalarm import (
    Catalog,
    CatalogParseError,
    Event,
    GeoPoint,
    GlobalSphere,
    StudyVolume,
    WindowTable,
    dumps_csv,
    filter_catalog,
    parse_csv,
    parse_instant,
    parse_ndk,
)
from eqalarm.catalog import format_instant

from conftest import T0, day, make_catalog, ndk_file, ndk_record, utc

CSV_HEADER = "time,lat,lon,depth_km,mb,ms,id\n"


class TestInstant:
    def test_parse_z_suffix(self):
        t = parse_instant("2004-12-26T00:58:53Z")
        assert (t.year, t.hour, t.second) == (2004, 0, 53)
        assert t.tzinfo == timezone.utc

    def test_parse_fractional(self):
        t = parse_instant("2004-12-26T00:58:53.4Z")
        assert t.microsecond == 400000

    def test_parse_offset_form(self):
        assert parse_instant("2004-01-01T00:00:00+00:00") == utc(2004, 1, 1)

    def test_reject_garbage(self):
        for bad in ("2004-13-01T00:00:00Z", "not a time", "2004-01-01", ""):
            with pytest.raises(ValueError):
                parse_instant(bad)

    def test_format_round_trip(self):
        for text in ("2004-12-26T00:58:53Z", "2004-02-29T23:59:59.123456Z"):
            assert format_instant(parse_instant(text)) == text


class TestEventInvariants:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            Event(T0, GeoPoint(0, 0), -0.1, 5.0, None, "x")

    def test_magnitude_range(self):
        with pytest.raises(ValueError):
            Event(T0, GeoPoint(0, 0), 10.0, 0.0, None, "x")
        with pytest.raises(ValueError):
            Event(T0, GeoPoint(0, 0), 10.0, 10.5, None, "x")
        Event(T0, GeoPoint(0, 0), 10.0, 10.0, None, "x")

    def test_naive_time_becomes_utc(self):
        e = Event(T0.replace(tzinfo=None), GeoPoint(0, 0), 0.0, 5.0, None, "x")
        assert e.time == T0

    def test_ms_range(self):
        with pytest.raises(ValueError, match="ms=10.5"):
            Event(T0, GeoPoint(0, 0), 10.0, None, 10.5, "x")

    @pytest.mark.parametrize("bad", [None, 7, "", " a", "b\n", "\tc"])
    def test_id_rule(self, bad):
        # a None id once matched an alarm without a trigger (trigger_id None)
        # and dropped its pairs; an int or None id broke dumps_csv; and " a",
        # "" and "b\n" came back from a CSV round trip as "a", "row000001" and "b"
        with pytest.raises(ValueError, match="is not a nonempty str"):
            Event(T0, GeoPoint(0, 0), 10.0, 5.0, None, bad)

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1).filter(lambda s: s == s.strip()))
    def test_accepted_ids_survive_csv(self, ident):
        span = StudyVolume(GlobalSphere(), T0, T0 + day(1))
        catalog = Catalog((Event(T0, GeoPoint(0, 0), 10.0, 5.0, None, ident),), span)
        assert parse_csv(dumps_csv(catalog)).source_ids() == (ident,)

    def test_magnitude_selector(self):
        e = Event(T0, GeoPoint(0, 0), 0.0, None, 6.1, "x")
        assert e.magnitude("mb") is None
        assert e.magnitude("ms") == 6.1
        with pytest.raises(ValueError):
            e.magnitude("ml")


class TestCatalogInvariants:
    def test_out_of_order_rejected(self):
        span = StudyVolume(GlobalSphere(), T0, T0 + day(10))
        events = (
            Event(T0 + day(2), GeoPoint(0, 0), 0, 5.0, None, "a"),
            Event(T0 + day(1), GeoPoint(0, 0), 0, 5.0, None, "b"),
        )
        with pytest.raises(ValueError, match="time order"):
            Catalog(events, span)

    def test_event_outside_span_rejected(self):
        span = StudyVolume(GlobalSphere(), T0, T0 + day(1))
        events = (Event(T0 + day(2), GeoPoint(0, 0), 0, 5.0, None, "a"),)
        with pytest.raises(ValueError, match="outside the span"):
            Catalog(events, span)

    def test_equality_and_hash(self):
        rows = [(1.0, 0.0, 0.0, 5.0), (2.0, 1.0, 1.0, 6.0)]
        a, b = make_catalog(rows), make_catalog(rows)
        assert a == b and hash(a) == hash(b)
        assert (a == 5) is False

    def test_span_needs_positive_duration(self):
        with pytest.raises(ValueError):
            StudyVolume(GlobalSphere(), T0, T0)

    def test_leap_year_duration(self):
        sv = StudyVolume(GlobalSphere(), utc(2004, 1, 1), utc(2005, 1, 1))
        assert sv.duration_s == 366 * 86400


class TestParseCsv:
    def test_minimal_single_row(self):
        text = CSV_HEADER + "2004-01-02T03:04:05Z,10.0,20.0,33.0,5.5,,ev1\n"
        cat = parse_csv(text)
        assert len(cat) == 1
        e = cat.events[0]
        assert e.mb == 5.5 and e.ms is None and e.source_id == "ev1"
        assert e.epicenter == GeoPoint(10.0, 20.0)

    def test_lat_out_of_range_cites_line(self):
        text = (
            CSV_HEADER
            + "2004-01-02T03:04:05Z,10.0,20.0,33.0,5.5,,a\n"
            + "2004-01-03T03:04:05Z,91.0,20.0,33.0,5.5,,b\n"
        )
        with pytest.raises(CatalogParseError, match="line 3"):
            parse_csv(text)

    def test_lon_out_of_range_cites_line(self):
        text = (
            CSV_HEADER
            + "2004-01-02T03:04:05Z,10.0,359.5,33.0,5.5,,a\n"
            + "2004-01-03T03:04:05Z,10.0,360.0,33.0,5.5,,b\n"
        )
        with pytest.raises(CatalogParseError, match=r"line 3: longitude 360.0 outside \[-180, 360\)"):
            parse_csv(text)
        with pytest.raises(CatalogParseError, match="line 2: longitude -180.5"):
            parse_csv(CSV_HEADER + "2004-01-02T03:04:05Z,10.0,-180.5,33.0,5.5,,a\n")

    def test_blank_rows_skipped(self):
        row = "2004-01-02T03:04:05Z,10.0,20.0,33.0,5.5,,ev1\n"
        cat = parse_csv(CSV_HEADER + "\n" + row + "\n\n")
        assert cat == parse_csv(CSV_HEADER + row)
        assert [e.source_id for e in cat.events] == ["ev1"]

    def test_bad_timestamp_cites_line(self):
        text = CSV_HEADER + "2004/01/02 03:04,10.0,20.0,33.0,5.5,,a\n"
        with pytest.raises(CatalogParseError, match="line 2"):
            parse_csv(text)

    def test_both_magnitudes_absent_rejected(self):
        text = CSV_HEADER + "2004-01-02T03:04:05Z,10.0,20.0,33.0,,,a\n"
        with pytest.raises(CatalogParseError, match="both magnitudes absent"):
            parse_csv(text)

    def test_wrong_field_count(self):
        text = CSV_HEADER + "2004-01-02T03:04:05Z,10.0,20.0,33.0,5.5\n"
        with pytest.raises(CatalogParseError, match="expected 7 fields"):
            parse_csv(text)

    def test_bad_header(self):
        with pytest.raises(CatalogParseError, match="line 1"):
            parse_csv("when,lat,lon,depth_km,mb,ms,id\n")

    def test_empty_input(self):
        with pytest.raises(CatalogParseError, match="header"):
            parse_csv("")

    def test_rows_sorted_against_hand_sorted_fixture(self):
        # five rows in scrambled time order; the hand-sorted order is by
        # timestamp with the tie (c, d at the same instant) keeping file order
        rows = [
            ("2004-03-01T00:00:00Z", "a"),
            ("2004-01-01T00:00:00Z", "b"),
            ("2004-02-01T00:00:00Z", "c"),
            ("2004-02-01T00:00:00Z", "d"),
            ("2004-01-15T00:00:00Z", "e"),
        ]
        text = CSV_HEADER + "".join(
            f"{t},0.0,0.0,10.0,5.5,,{ident}\n" for t, ident in rows
        )
        cat = parse_csv(text)
        assert [e.source_id for e in cat.events] == ["b", "e", "c", "d", "a"]

    def test_missing_ids_get_row_numbers(self):
        text = (
            CSV_HEADER
            + "2004-01-02T00:00:00Z,0,0,10,5.5,,\n"
            + "2004-01-03T00:00:00Z,0,0,10,5.5,,\n"
        )
        cat = parse_csv(text)
        assert [e.source_id for e in cat.events] == ["row000001", "row000002"]

    def test_repeated_id_cites_both_lines(self):
        text = (
            CSV_HEADER
            + "2004-01-02T00:00:00Z,0,0,10,5.5,,a\n"
            + "2004-01-03T00:00:00Z,0,0,10,5.5,,b\n"
            + "2004-01-04T00:00:00Z,0,0,10,5.5,,a\n"
        )
        with pytest.raises(CatalogParseError, match="line 4: id 'a' repeats line 2"):
            parse_csv(text)

    def test_leading_bom_accepted(self):
        text = CSV_HEADER + "2004-01-02T03:04:05Z,10.0,20.0,33.0,5.5,,a\n"
        assert parse_csv(("\ufeff" + text).encode("utf-8")) == parse_csv(text)

    def test_accepts_bytes(self):
        text = CSV_HEADER + "2004-01-02T03:04:05Z,10.0,20.0,33.0,5.5,,a\n"
        assert len(parse_csv(text.encode())) == 1

    def test_accepts_file_objects(self):
        # a text or a binary stream gives what its bytes give
        catalog = (
            CSV_HEADER
            + "2004-03-01T02:03:04.5Z,10.5,-120.25,33.0,5.5,6.1,x1\n"
            + "2004-01-02T03:04:05Z,-10.0,-1.0,0.0,,4.8,\n"
        ).encode()
        windows = b"mag_min,time_days,distance_km\n-inf,5,10\n6.0,10,20\n"
        for parse, data in ((parse_csv, catalog), (WindowTable.from_csv, windows)):
            want = parse(data)
            assert parse(io.StringIO(data.decode())) == want
            assert parse(io.BytesIO(data)) == want

    def test_round_trip_identity(self):
        text = (
            CSV_HEADER
            + "2004-03-01T02:03:04.5Z,10.5,-120.25,33.0,5.5,6.1,x1\n"
            + "2004-01-02T03:04:05Z,-10.0,359.0,0.0,,4.8,\n"
            + "2004-02-02T03:04:05Z,0.125,20.0,12.5,6.25,,x3\n"
        )
        once = parse_csv(text)
        again = parse_csv(dumps_csv(once))
        assert once == again
        assert dumps_csv(once) == dumps_csv(again)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-180.0, 180.0, exclude_max=True), min_size=1, max_size=20))
    def test_round_trip_keeps_in_range_longitudes(self, lons):
        # a longitude in [-180, 180) is stored, written and read back as
        # given, -0.0 included
        text = CSV_HEADER + "".join(
            f"2004-01-02T00:00:{i:02d}Z,0.0,{lon!r},10.0,5.5,,e{i}\n" for i, lon in enumerate(lons)
        )
        once = parse_csv(text)
        assert dumps_csv(once) == text
        again = parse_csv(dumps_csv(once)).longitudes().tolist()
        assert [repr(x) for x in again] == [repr(x) for x in lons]

    def test_round_trip_ids_that_need_quoting(self):
        text = (
            CSV_HEADER
            + '2004-01-02T00:00:00Z,0,0,10,5.5,,"a,b"\n'
            + '2004-01-03T00:00:00Z,0,0,10,5.5,,"q""x"\n'
            + '2004-01-04T00:00:00Z,0,0,10,5.5,,"l1\nl2"\n'
        )
        once = parse_csv(text)
        assert once.source_ids() == ("a,b", 'q"x', "l1\nl2")
        assert parse_csv(dumps_csv(once)) == once
        assert dumps_csv(once).splitlines()[1] == "2004-01-02T00:00:00Z,0.0,0.0,10.0,5.5,,\"a,b\""

    def test_lone_carriage_return_in_unquoted_field_cites_line(self):
        text = (
            CSV_HEADER
            + "2004-01-02T00:00:00Z,0,0,10,5.5,,a\n"
            + "2004-01-03T00:00:00Z,0,0,10,5.5,,b\rc\n"
        )
        with pytest.raises(CatalogParseError, match="line 3: new-line character"):
            parse_csv(text)

    def test_round_trip_id_with_lone_carriage_return(self):
        once = parse_csv(CSV_HEADER + '2004-01-02T00:00:00Z,0,0,10,5.5,,"a\rb"\n')
        assert once.source_ids() == ("a\rb",)
        assert dumps_csv(once).split("\n")[1].endswith(',"a\rb"')
        assert parse_csv(dumps_csv(once)) == once

    # a quoted id spanning lines 2-3 moves every later row one line down
    TWO_LINE_ROW = '2004-01-02T00:00:00Z,0,0,10,5.5,,"a\nb"\n'

    def test_field_count_names_physical_line_after_two_line_row(self):
        text = CSV_HEADER + self.TWO_LINE_ROW + "2004-01-03T00:00:00Z,0,0,10,5.5\n"
        with pytest.raises(CatalogParseError, match="line 4: expected 7 fields, got 5"):
            parse_csv(text)

    def test_repeated_id_names_physical_lines_after_two_line_row(self):
        text = (
            CSV_HEADER
            + self.TWO_LINE_ROW
            + "2004-01-03T00:00:00Z,0,0,10,5.5,,c\n"
            + self.TWO_LINE_ROW.replace("01-02", "01-04")
        )
        with pytest.raises(CatalogParseError, match=r"line 5: id 'a\\nb' repeats line 2"):
            parse_csv(text)

    def test_missing_ids_after_two_line_row_number_the_start_line(self):
        text = CSV_HEADER + self.TWO_LINE_ROW + "2004-01-03T00:00:00Z,0,0,10,5.5,,\n"
        assert parse_csv(text).source_ids() == ("a\nb", "row000003")


class TestParseNdk:
    def test_two_records(self):
        text = ndk_file(
            [
                ndk_record(date="2004/01/10", time="06:29:19.4", mb=5.0, ms=0.0),
                ndk_record(date="2004/01/11", time="01:02:03.0", lat=-31.5, lon=179.9, mb=5.8, ms=5.6),
            ]
        )
        cat = parse_ndk(text)
        assert len(cat) == 2
        assert cat.events[0].mb == 5.0 and cat.events[0].ms is None
        assert cat.events[1].mb == 5.8 and cat.events[1].ms == 5.6
        assert cat.events[1].epicenter.lat == pytest.approx(-31.5)

    def test_line_count_not_multiple_of_five(self):
        text = ndk_file([ndk_record()])
        lines = text.splitlines()[:2]
        with pytest.raises(CatalogParseError, match="multiple of 5"):
            parse_ndk("\n".join([*lines, *lines, *lines, "x"]) + "\n")

    def test_zero_magnitudes_are_absent_and_retained(self):
        cat = parse_ndk(ndk_file([ndk_record(mb=0.0, ms=0.0)]))
        assert len(cat) == 1
        assert cat.events[0].mb is None and cat.events[0].ms is None

    def test_unparseable_hypocenter_cites_record(self):
        good = ndk_record()
        bad = good.replace("13.78", "x3.78")
        with pytest.raises(CatalogParseError, match="record 2"):
            parse_ndk(ndk_file([good, bad]))

    def test_leap_second_style_rollover(self):
        cat = parse_ndk(ndk_file([ndk_record(time="23:59:60.5")]))
        assert cat.events[0].time == utc(2004, 1, 11, 0, 0, 0, 500000)

    def test_record_count_is_line_count_over_five(self):
        records = [
            ndk_record(date=f"2004/01/{d:02d}", time="01:00:00.0") for d in range(1, 11)
        ]
        text = ndk_file(records)
        assert len(parse_ndk(text)) == len(text.splitlines()) // 5

    def test_byte_order_mark_is_ignored(self):
        text = ndk_file([
            ndk_record(date="2000/01/15", time="04:03:29.6", lat=0.47, depth=492.8, mb=5.1, ms=5.4)
        ])
        bom = "\ufeff" + text
        for source in (bom, bom.encode(), io.StringIO(bom), io.BytesIO(bom.encode())):
            cat = parse_ndk(source)
            assert cat == parse_ndk(text)
            event = cat.events[0]
            assert event.time == utc(2000, 1, 15, 4, 3, 29, 600000)
            assert (event.epicenter.lat, event.depth_km, event.ms) == (0.47, 492.8, 5.4)

    def test_sorted_by_time(self):
        text = ndk_file(
            [
                ndk_record(date="2004/02/01", time="00:00:00.0"),
                ndk_record(date="2004/01/01", time="00:00:00.0"),
            ]
        )
        cat = parse_ndk(text)
        assert cat.events[0].time < cat.events[1].time
        assert cat.events[0].source_id == "ndk000001"


class TestFilter:
    def test_above_maximum_magnitude_empty(self):
        cat = make_catalog([(1, 0, 0, 6.0), (2, 1, 1, 7.0)])
        assert len(filter_catalog(cat, 11.0)) == 0

    def test_magnitude_threshold_inclusive(self):
        cat = make_catalog([(1, 0, 0, 5.5), (2, 1, 1, 5.4999)])
        kept = filter_catalog(cat, 5.5)
        assert [e.source_id for e in kept.events] == ["ev000"]

    def test_window_restricts_and_becomes_span(self):
        cat = make_catalog([(1, 0, 0, 6.0), (50, 1, 1, 6.0), (100, 2, 2, 6.0)])
        window = (T0 + day(25), T0 + day(75))
        kept = filter_catalog(cat, 5.0, window)
        assert [e.source_id for e in kept.events] == ["ev001"]
        assert kept.span.t_start == window[0] and kept.span.t_end == window[1]

    def test_absent_authoritative_magnitude_dropped(self):
        events = (
            Event(T0 + day(1), GeoPoint(0, 0), 0, None, 6.0, "no-mb"),
            Event(T0 + day(2), GeoPoint(0, 0), 0, 6.0, None, "has-mb"),
        )
        span = StudyVolume(GlobalSphere(), T0, T0 + day(10))
        cat = Catalog(events, span)
        assert [e.source_id for e in filter_catalog(cat, 5.0).events] == ["has-mb"]

    def test_nonfinite_threshold_rejected(self):
        cat = make_catalog([(1, 0, 0, 6.0)])
        with pytest.raises(ValueError):
            filter_catalog(cat, float("nan"))

    def test_idempotent(self):
        cat = make_catalog([(i, i % 30, i % 40, 5.0 + (i % 20) / 10) for i in range(40)])
        window = (T0 + day(5), T0 + day(35))
        once = filter_catalog(cat, 5.8, window)
        twice = filter_catalog(once, 5.8, window)
        assert once == twice

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=4.0, max_value=8.0))
    def test_idempotent_any_threshold(self, mag_min):
        cat = make_catalog([(i, 0, i, 4.0 + (i % 50) / 10) for i in range(30)])
        once = filter_catalog(cat, mag_min)
        assert filter_catalog(once, mag_min) == once
