import math

import numpy as np
import pytest

from eqalarm import (
    Catalog,
    CatalogParseError,
    Event,
    GeoPoint,
    WindowRow,
    WindowTable,
    decluster,
    decluster_stats,
)

from conftest import T0, day, make_catalog, random_catalog
from oracles import great_circle_km, window_lookup

W10_20 = WindowTable.uniform(time_days=10.0, distance_km=20.0)


def chain_catalog():
    """A(6.0) at t0, B(5.5) inside A's window, C(5.0) inside B's but not A's."""
    return make_catalog([(0.0, 0.0, 0.0, 6.0), (5.0, 0.0, 0.0, 5.5), (13.0, 0.0, 0.0, 5.0)])


class TestWindowTable:
    def test_uniform_constructor(self):
        row = window_lookup(W10_20, 7.3)
        assert (row.time_days, row.distance_km) == (10.0, 20.0)

    def test_requires_default_row(self):
        with pytest.raises(ValueError, match="-inf"):
            WindowTable((WindowRow(5.0, 10.0, 20.0),))

    def test_strictly_increasing(self):
        rows = (
            WindowRow(-math.inf, 5.0, 10.0),
            WindowRow(6.0, 10.0, 20.0),
            WindowRow(6.0, 20.0, 40.0),
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            WindowTable(rows)

    def test_lookup_picks_largest_row_at_or_below(self):
        table = WindowTable(
            (
                WindowRow(-math.inf, 5.0, 10.0),
                WindowRow(6.0, 10.0, 20.0),
                WindowRow(7.0, 30.0, 60.0),
            )
        )
        assert window_lookup(table, 5.9).time_days == 5.0
        assert window_lookup(table, 6.0).time_days == 10.0
        assert window_lookup(table, 6.99).time_days == 10.0
        assert window_lookup(table, 7.5).time_days == 30.0

    def test_needs_a_row_and_a_magnitude(self):
        with pytest.raises(ValueError, match="at least one row"):
            WindowTable(())
        with pytest.raises(ValueError, match="NaN"):
            WindowRow(math.nan, 10.0, 20.0)

    def test_positive_extents_required(self):
        with pytest.raises(ValueError):
            WindowRow(-math.inf, 0.0, 10.0)
        with pytest.raises(ValueError):
            WindowRow(-math.inf, 10.0, -1.0)

    def test_from_csv(self):
        text = "mag_min,time_days,distance_km\n-inf,5,10\n6.0,10,20\n"
        table = WindowTable.from_csv(text)
        assert len(table.rows) == 2
        assert window_lookup(table, 6.2).distance_km == 20.0

    def test_from_csv_errors_cite_lines(self):
        with pytest.raises(CatalogParseError, match="line 2"):
            WindowTable.from_csv("mag_min,time_days,distance_km\n-inf,zero,10\n")
        with pytest.raises(CatalogParseError, match="header"):
            WindowTable.from_csv("a,b,c\n")

    def test_from_csv_leading_bom(self):
        text = "mag_min,time_days,distance_km\n-inf,5,10\n6.0,10,20\n"
        with_bom = WindowTable.from_csv(("\ufeff" + text).encode("utf-8"))
        assert with_bom == WindowTable.from_csv(text)


class TestDecluster:
    def test_empty_catalog_unchanged(self):
        cat = make_catalog([])
        for retained_only in (False, True):
            result = decluster(cat, W10_20, retained_only=retained_only)
            assert result.catalog == cat
            assert result.deleted_indices == ()

    def test_single_event_unchanged(self):
        cat = make_catalog([(1.0, 0, 0, 6.0)])
        result = decluster(cat, W10_20)
        assert result.catalog == cat
        assert result.deleted_indices == ()

    def test_smaller_follower_deleted(self):
        cat = make_catalog([(0.0, 0, 0, 6.0), (1.0, 0, 0, 5.5)])
        result = decluster(cat, W10_20)
        assert [e.source_id for e in result.catalog.events] == ["ev000"]
        assert result.deleted_indices == (1,)

    def test_chain_deleted_event_still_punches_hole(self):
        result = decluster(chain_catalog(), W10_20)
        assert [e.source_id for e in result.catalog.events] == ["ev000"]
        assert result.deleted_indices == (1, 2)

    def test_chain_retained_only_mode_keeps_tail(self):
        result = decluster(chain_catalog(), W10_20, retained_only=True)
        assert [e.source_id for e in result.catalog.events] == ["ev000", "ev002"]

    def test_equal_magnitudes_never_delete(self):
        cat = make_catalog([(0.0, 0, 0, 6.0), (1.0, 0, 0, 6.0)])
        assert len(decluster(cat, W10_20).catalog) == 2

    def test_earlier_smaller_event_safe(self):
        cat = make_catalog([(0.0, 0, 0, 5.0), (1.0, 0, 0, 6.0)])
        assert len(decluster(cat, W10_20).catalog) == 2

    def test_outside_window_safe(self):
        cat = make_catalog([(0.0, 0, 0, 6.0), (11.0, 0, 0, 5.0)])
        assert len(decluster(cat, W10_20).catalog) == 2
        far = make_catalog([(0.0, 0, 0, 6.0), (1.0, 0.5, 0, 5.0)])  # ~55 km away
        assert len(decluster(far, W10_20).catalog) == 2

    def test_magnitude_dependent_windows(self):
        table = WindowTable(
            (WindowRow(-math.inf, 2.0, 20.0), WindowRow(6.5, 30.0, 20.0))
        )
        cat = make_catalog([(0.0, 0, 0, 6.6), (10.0, 0, 0, 5.0), (0.5, 1.0, 0, 6.0), (2.0, 1.0, 0, 5.5)])
        result = decluster(cat, table)
        # the 6.6 trigger has a 30-day window and deletes the 5.0 at day 10;
        # the 6.0 trigger only reaches 2 days, so the 5.5 at day 2 ... dt=1.5d <= 2 -> deleted
        assert {e.source_id for e in result.catalog.events} == {"ev000", "ev002"}

    def test_simultaneous_events_do_not_interact(self):
        cat = make_catalog([(1.0, 0, 0, 6.0), (1.0, 0, 0, 5.5)])
        assert len(decluster(cat, W10_20).catalog) == 2

    def test_absent_magnitude_events_inert(self):
        events = (
            Event(T0 + day(0), GeoPoint(0, 0), 0, 6.0, None, "big"),
            Event(T0 + day(1), GeoPoint(0, 0), 0, None, 5.0, "no-mb"),
            Event(T0 + day(2), GeoPoint(0, 0), 0, 5.5, None, "small"),
        )
        cat = Catalog(events, make_catalog([]).span)
        result = decluster(cat, W10_20)
        assert {e.source_id for e in result.catalog.events} == {"big", "no-mb"}

    def test_idempotent_both_modes(self):
        rng = np.random.default_rng(2)
        for retained_only in (False, True):
            for _ in range(15):
                cat = random_catalog(rng, n=25, span_days=60)
                once = decluster(cat, W10_20, retained_only=retained_only).catalog
                twice = decluster(once, W10_20, retained_only=retained_only).catalog
                assert once == twice

    def test_largest_event_never_deleted(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            cat = random_catalog(rng, n=20, span_days=40)
            mags = cat.magnitudes()
            biggest = cat.events[int(np.nanargmax(mags))]
            retained = decluster(cat, W10_20).catalog
            assert biggest in retained.events

    def test_output_has_no_covered_event(self):
        # footnote property: declustering imposes a minimum spacing
        rng = np.random.default_rng(4)
        for _ in range(10):
            cat = random_catalog(rng, n=25, span_days=60)
            out = decluster(cat, W10_20).catalog
            sel = out.magnitude_selector
            for i, e in enumerate(out.events):
                for j, other in enumerate(out.events[:i]):
                    m_e, m_o = e.magnitude(sel), other.magnitude(sel)
                    if m_e is None or m_o is None or m_o <= m_e:
                        continue
                    dt_days = (e.time - other.time).total_seconds() / 86400.0
                    row = window_lookup(W10_20, m_o)
                    covered = (
                        0.0 < dt_days <= row.time_days
                        and great_circle_km(other.epicenter, e.epicenter)
                        <= row.distance_km
                    )
                    assert not covered

    def test_monotone_windows(self):
        rng = np.random.default_rng(5)
        small = WindowTable.uniform(5.0, 10.0)
        large = WindowTable.uniform(15.0, 60.0)
        for _ in range(15):
            cat = random_catalog(rng, n=25, span_days=60)
            kept_small = len(decluster(cat, small).catalog)
            kept_large = len(decluster(cat, large).catalog)
            assert kept_large <= kept_small


class TestDeclusterStats:
    def test_identical(self):
        cat = chain_catalog()
        assert decluster_stats(cat, cat) == (0, 0.0)

    def test_empty_after(self):
        cat = chain_catalog()
        assert decluster_stats(cat, cat.with_events(())) == (3, 1.0)

    def test_chain_fixture(self):
        cat = chain_catalog()
        result = decluster(cat, W10_20)
        n_deleted, fraction = decluster_stats(cat, result.catalog)
        assert n_deleted == 2
        assert fraction == pytest.approx(2 / 3)

    def test_not_subset_rejected(self):
        cat = chain_catalog()
        other = make_catalog([(50.0, 10, 10, 7.0)])
        with pytest.raises(ValueError, match="subset"):
            decluster_stats(cat, other)

    def test_repeated_event_rejected(self):
        cat = chain_catalog()
        twice = cat.with_events((cat.events[0], cat.events[0], cat.events[1]))
        with pytest.raises(ValueError, match="subset"):
            decluster_stats(cat, twice)

    def test_empty_before(self):
        cat = make_catalog([])
        assert decluster_stats(cat, cat) == (0, 0.0)
