import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from eqalarm import (
    Alarm,
    AlarmSet,
    AlarmTargetIndex,
    Catalog,
    EARTH_RADIUS_KM,
    Event,
    FloorRule,
    GeoPoint,
    GlobalSphere,
    ScoreSummary,
    StudyVolume,
    alarm_volume_fraction,
    cap_area_km2,
    count_predicted,
    filter_catalog,
    generate_alarms,
    score,
    union_volume_fraction_mc,
)

from eqalarm.geo import HALF_CIRCUMFERENCE_KM

from conftest import T0, day, make_catalog, make_event, random_catalog
from oracles import alarm_covers, great_circle_km, is_predicted


def eligibility_predicted(catalog, k, mag_threshold, window_days, radius_km):
    """Independent oracle: covered by a nearby recent trigger and not outranked.

    Direct double loop over the catalog: event k counts as predicted iff some
    other event at or above the threshold lies within radius and within the
    window before it, and no strictly larger event does.
    """
    events = catalog.events
    e = events[k]
    m_k = e.magnitude(catalog.magnitude_selector)
    window = timedelta(days=window_days)
    covered = False
    for j, other in enumerate(events):
        if j == k:
            continue
        m_j = other.magnitude(catalog.magnitude_selector)
        if m_j is None:
            continue
        if not (other.time < e.time <= other.time + window):
            continue
        if great_circle_km(other.epicenter, e.epicenter) > radius_km:
            continue
        if m_j > m_k:
            return False
        if m_j >= mag_threshold:
            covered = True
    return covered


class TestGenerateAlarms:
    def test_empty_catalog(self):
        cat = make_catalog([])
        aset = generate_alarms(cat, 5.5)
        assert len(aset) == 0

    def test_one_alarm_per_trigger(self):
        cat = make_catalog([(1, 0, 0, 5.4), (2, 0, 0, 5.5), (3, 0, 0, 6.0)])
        aset = generate_alarms(cat, 5.5)
        assert len(aset) == 2
        assert [a.trigger_id for a in aset] == ["ev001", "ev002"]

    def test_alarm_window_is_half_open_after_trigger(self):
        cat = make_catalog([(10, 5, 5, 6.0)])
        (alarm,) = generate_alarms(cat, 5.5, window_days=21).alarms
        e = cat.events[0]
        assert alarm.t_start == e.time
        assert alarm.t_end == e.time + timedelta(days=21)
        cases = ((e.time, False), (e.time + timedelta(seconds=1), True), (alarm.t_end, True))
        for t, inside in cases:
            assert alarm_covers(alarm, t, e.epicenter) == inside
        # the same three instants through the index, as three targets that
        # are not the trigger itself, each at its own time position
        targets = cat.with_events(
            [replace(e, time=t, source_id=f"target{i}") for i, (t, _) in enumerate(cases)]
        )
        index = AlarmTargetIndex(targets, AlarmSet((alarm,)))
        assert index.predicted_mask(np.arange(3)).tolist() == [False, True, True]

    def test_event_never_predicted_by_own_alarm(self):
        cat = make_catalog([(10, 5, 5, 6.0)])
        aset = generate_alarms(cat, 5.5)
        assert not is_predicted(cat.events[0], aset)
        assert count_predicted(cat, aset) == 0

    def test_floor_rules(self):
        cat = make_catalog([(1, 0, 0, 6.3)])
        threshold = generate_alarms(cat, 5.5, floor_rule=FloorRule.THRESHOLD)
        trigger = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        assert threshold.alarms[0].mag_floor == 5.5
        assert trigger.alarms[0].mag_floor == 6.3

    @pytest.mark.parametrize("floor_rule", list(FloorRule))
    @pytest.mark.parametrize("selector", ["mb", "ms"])
    def test_absent_magnitude_never_triggers(self, selector, floor_rule):
        # "mb-only" has no ms and "ms-only" no mb; a threshold <= 0 passes the other
        events = [
            Event(T0 + day(1), GeoPoint(0, 0), 10.0, 5.0, None, "mb-only"),
            Event(T0 + day(2), GeoPoint(0, 0), 10.0, None, 6.0, "ms-only"),
        ]
        cat = Catalog(events, StudyVolume(GlobalSphere(), T0, T0 + day(10)), selector)
        trigger, magnitude = ("mb-only", 5.0) if selector == "mb" else ("ms-only", 6.0)
        for threshold in (0.0, -1.0, -1e300):
            (alarm,) = generate_alarms(cat, threshold, floor_rule=floor_rule).alarms
            assert alarm.trigger_id == trigger
            want = threshold if floor_rule is FloorRule.THRESHOLD else magnitude
            assert alarm.mag_floor == want

    def test_bad_arguments(self):
        cat = make_catalog([(1, 0, 0, 6.0)])
        with pytest.raises(ValueError):
            generate_alarms(cat, 5.5, window_days=0.0)
        with pytest.raises(ValueError):
            generate_alarms(cat, 5.5, radius_km=-1.0)
        with pytest.raises(ValueError):
            generate_alarms(cat, float("inf"))

    def test_window_ending_after_datetime_max_is_refused(self):
        cat = make_catalog([(1, 0, 0, 6.0)])
        for window_days in (1.0674e8, 1e9, 1e300):
            with pytest.raises(ValueError, match="window_days"):
                generate_alarms(cat, 5.5, window_days=window_days)
        # without a trigger no alarm ends anywhere
        assert len(generate_alarms(make_catalog([]), 5.5, window_days=1e300)) == 0

    def test_alarm_may_end_exactly_at_datetime_max(self):
        last = datetime.max.replace(tzinfo=timezone.utc)
        span = StudyVolume(GlobalSphere(), last - day(2), last)
        for offset_us, ok in ((0, True), (1, False)):
            trigger_time = last - day(1) + timedelta(microseconds=offset_us)
            cat = Catalog([Event(trigger_time, GeoPoint(0, 0), 10.0, 6.0, None, "a")], span)
            if ok:
                assert generate_alarms(cat, 5.5, window_days=1.0).alarms[0].t_end == last
            else:
                with pytest.raises(ValueError, match="window_days=1.0 "):
                    generate_alarms(cat, 5.5, window_days=1.0)

    def test_window_rounding_to_zero_microseconds_is_empty(self):
        cat = make_catalog([(1, 0, 0, 6.0)])
        with pytest.raises(ValueError, match="alarm interval is empty"):
            generate_alarms(cat, 5.5, window_days=1e-12)
        with pytest.raises(ValueError, match="alarm interval is empty"):
            Alarm(GeoPoint(0, 0), 50.0, T0, T0, 5.5)

    @pytest.mark.parametrize("radius_km", [0.0, -1.0, math.nan, math.inf, 30_000.0])
    def test_radius_outside_half_circumference_refused(self, radius_km):
        # the one cap-radius rule of eqalarm.geo, shared with Alarm and SphericalCap
        cat = make_catalog([(1, 0, 0, 6.0)])
        with pytest.raises(ValueError, match="cap radius must be in"):
            generate_alarms(cat, 5.5, radius_km=radius_km)
        with pytest.raises(ValueError, match="cap radius must be in"):
            Alarm(GeoPoint(0, 0), radius_km, T0, T0 + day(1), 5.5)
        # no trigger, yet the radius is still refused
        with pytest.raises(ValueError, match="cap radius must be in"):
            generate_alarms(make_catalog([]), 5.5, radius_km=radius_km)
        assert len(generate_alarms(cat, 5.5, radius_km=HALF_CIRCUMFERENCE_KM)) == 1

    def test_raising_threshold_never_adds_alarms(self):
        rng = np.random.default_rng(42)
        cat = random_catalog(rng, n=40)
        counts = [len(generate_alarms(cat, m)) for m in (5.0, 5.5, 6.0, 6.5, 7.0)]
        assert counts == sorted(counts, reverse=True)

    def test_alarms_ordered_by_trigger_time(self):
        rng = np.random.default_rng(1)
        cat = random_catalog(rng, n=25)
        aset = generate_alarms(cat, 5.5)
        starts = [a.t_start for a in aset]
        assert starts == sorted(starts)


class TestIsPredicted:
    def test_single_covering_alarm_above_floor(self):
        # a 6.2 event 10 km and 5 days after a 6.0 trigger, trigger floors
        cat = make_catalog([(0, 0, 0, 6.0), (5, 0.09, 0, 6.2)])
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        assert is_predicted(cat.events[1], aset)

    def test_max_floor_rule_fails_between_floors(self):
        # covered by trigger-floor alarms at 5.6 and 6.4; a 6.0 event misses
        cat = make_catalog([(0, 0, 0, 5.6), (1, 0.05, 0, 6.4), (5, 0.02, 0, 6.0)])
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        assert not is_predicted(cat.events[2], aset)
        # the same event clears the threshold-floor alarms
        threshold = generate_alarms(cat, 5.5, floor_rule=FloorRule.THRESHOLD)
        assert is_predicted(cat.events[2], threshold)

    def test_equal_magnitude_trigger_counts(self):
        # floors are closed below: an equal-magnitude predecessor still predicts
        cat = make_catalog([(0, 0, 0, 6.0), (5, 0.09, 0, 6.0)])
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        assert is_predicted(cat.events[1], aset)

    def test_distance_boundary_inclusive(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.3, 0.2)
        d = great_circle_km(a, b)
        e = make_event(5, b.lat, b.lon, 6.0, "target")
        inside = AlarmSet((Alarm(a, d, T0, T0 + day(10), 5.5),))
        outside = AlarmSet((Alarm(a, d * (1 - 1e-9), T0, T0 + day(10), 5.5),))
        assert is_predicted(e, inside)
        assert not is_predicted(e, outside)

    def test_absent_magnitude_never_predicted(self):
        e = Event(T0 + day(1), GeoPoint(0, 0), 0, None, 6.0, "x")
        aset = AlarmSet((Alarm(GeoPoint(0, 0), 100.0, T0, T0 + day(10), 5.5),))
        assert not is_predicted(e, aset)


def successful_alarms(alarm_set, targets):
    """Alarms containing at least one target, as score(...).S counts them."""
    return AlarmTargetIndex(targets, alarm_set).successful_alarms(np.arange(len(targets)))


class TestCounts:
    def test_one_alarm_containing_three_events_is_one_success(self):
        aset = AlarmSet((Alarm(GeoPoint(0, 0), 100.0, T0, T0 + day(10), 5.5),))
        cat = make_catalog([(1, 0, 0, 6.0), (2, 0.1, 0, 6.0), (3, 0, 0.1, 6.0)])
        assert successful_alarms(aset, cat) == 1

    def test_nan_floor_refused(self):
        # such an alarm would outrank every target it covers: one among the
        # alarms of a two-event set would drop the count from 2 to 0
        cat = make_catalog([(1, 0, 0, 6.0), (2, 0.1, 0, 6.0)])
        alarm = Alarm(GeoPoint(0, 0), 100.0, T0, T0 + day(10), 5.5)
        assert count_predicted(cat, AlarmSet((alarm,))) == 2
        with pytest.raises(ValueError, match="mag_floor may not be NaN"):
            replace(alarm, mag_floor=math.nan)

    def test_empty_alarm_set(self):
        cat = make_catalog([(1, 0, 0, 6.0)])
        assert successful_alarms(AlarmSet(()), cat) == 0
        assert count_predicted(cat, AlarmSet(())) == 0

    def test_hand_enumerated_three_event_fixture(self):
        # two events inside the first external alarm, one outside all
        alarms = AlarmSet(
            (
                Alarm(GeoPoint(0, 0), 50.0, T0, T0 + day(10), 5.5),
                Alarm(GeoPoint(80, 0), 50.0, T0, T0 + day(10), 5.5),
            )
        )
        cat = make_catalog([(1, 0.0, 0.0, 5.9), (2, 0.1, 0.0, 6.0), (3, 40.0, 40.0, 6.0)])
        assert successful_alarms(alarms, cat) == 1
        assert count_predicted(cat, alarms) == 2

    def test_generated_fixture_hand_computed(self):
        # A triggers; B sits 5 days and ~11 km after A; C is far from both
        cat = make_catalog([(0, 0.0, 0.0, 6.0), (5, 0.1, 0.0, 5.6), (10, 50.0, 50.0, 5.7)])
        threshold = generate_alarms(cat, 5.5, floor_rule=FloorRule.THRESHOLD)
        trigger = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        assert count_predicted(cat, threshold) == 1  # B only
        assert count_predicted(cat, trigger) == 0    # B is below A's 6.0 floor
        assert successful_alarms(threshold, cat) == 1
        assert successful_alarms(trigger, cat) == 0

    def test_repeated_target_id_rejected(self):
        # two M6.0 events a day apart at one epicenter: the first predicts the
        # second, unless a shared id makes the second look like its trigger
        first = make_event(0, 10.0, 20.0, 6.0, "x")
        cat = make_catalog([]).with_events([first, make_event(1, 10.0, 20.0, 6.0, "y")])
        assert count_predicted(cat, generate_alarms(cat, 5.5)) == 1
        dup = cat.with_events([first, make_event(1, 10.0, 20.0, 6.0, "x")])
        with pytest.raises(ValueError, match="'x' repeats"):
            count_predicted(dup, generate_alarms(dup, 5.5))

    def test_hand_built_alarm_names_its_trigger_by_id_only(self):
        # the swap [1, 0] gives the trigger the second time, inside its own
        # window; an alarm naming no trigger then predicts it, one naming the
        # trigger's id does not
        cat = make_catalog([(1, 0.0, 0.0, 6.0), (5, 0.0, 0.0, 6.0)])
        trigger = cat.events[0]
        window = (trigger.epicenter, 50.0, trigger.time, trigger.time + day(10), 5.5)
        swap = np.array([1, 0])
        anonymous = AlarmTargetIndex(cat, AlarmSet((Alarm(*window),)))
        assert anonymous.predicted_mask(swap).tolist() == [True, False]
        named = AlarmTargetIndex(cat, AlarmSet((Alarm(*window, trigger.source_id),)))
        assert named.predicted_mask(swap).tolist() == [False, False]
        with pytest.raises(TypeError, match="trigger_index"):
            Alarm(*window, trigger_index=0)


class TestScore:
    def test_degenerate_all_zero(self):
        cat = make_catalog([])
        sv = cat.span
        summary = score(cat, AlarmSet(()), sv)
        assert (summary.Q, summary.A, summary.S, summary.P) == (0, 0, 0, 0)
        assert (summary.s, summary.p, summary.f, summary.m) == (0.0, 0.0, 0.0, 0.0)
        assert summary.v_upper == 0.0

    def test_whole_volume_alarm_predicts_everything(self):
        cat = make_catalog([(1, 10, 10, 6.0), (100, -40, 100, 5.6)], span_days=200)
        sv = cat.span
        whole = Alarm(
            GeoPoint(0, 0),
            math.pi * EARTH_RADIUS_KM,
            sv.t_start - day(1),
            sv.t_end,
            5.0,
        )
        summary = score(cat, AlarmSet((whole,)), sv)
        assert summary.s == 1.0 and summary.p == 1.0
        assert summary.v_upper == 1.0

    def test_hand_computed_summary(self):
        alarms = AlarmSet(
            (
                Alarm(GeoPoint(0, 0), 50.0, T0, T0 + day(10), 5.5),
                Alarm(GeoPoint(80, 0), 50.0, T0, T0 + day(10), 5.5),
            )
        )
        cat = make_catalog(
            [(1, 0.0, 0.0, 5.9), (2, 0.1, 0.0, 6.0), (3, 40.0, 40.0, 6.0)], span_days=100
        )
        summary = score(cat, alarms, cat.span)
        assert (summary.Q, summary.A, summary.S, summary.P) == (3, 2, 1, 2)
        assert (summary.F, summary.M) == (1, 1)
        assert summary.s == 0.5 and summary.p == pytest.approx(2 / 3)
        assert summary.f == 0.5 and summary.m == pytest.approx(1 / 3)

    def test_identities_enforced_in_constructor(self):
        with pytest.raises(ValueError):
            ScoreSummary(Q=1, A=1, S=2, P=0)
        with pytest.raises(ValueError):
            ScoreSummary(Q=1, A=1, S=0, P=2)
        summary = ScoreSummary(Q=10, A=4, S=3, P=7)
        assert summary.F == 1 and summary.M == 3

    def test_counts_and_volume_bounded(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScoreSummary(Q=1, A=-1, S=0, P=0)
        for v_upper in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="outside"):
                ScoreSummary(Q=1, A=1, S=0, P=0, v_upper=v_upper)

    @pytest.mark.parametrize("derived", ["F", "M", "s", "p", "f", "m"])
    def test_derived_counts_and_rates_are_not_parameters(self, derived):
        with pytest.raises(TypeError):
            ScoreSummary(Q=10, A=4, S=3, P=7, **{derived: 99})


class TestVolumeFraction:
    def test_no_alarms(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(366))
        assert alarm_volume_fraction(AlarmSet(()), sv) == 0.0

    @pytest.mark.parametrize(
        "n_alarms,span_days,expected_2sf",
        [(445, 366, "3.9e-04"), (207, 366, "1.8e-04"), (2013, 1827, "3.6e-04"), (996, 1827, "1.8e-04")],
    )
    def test_benchmark_volume_fractions(self, n_alarms, span_days, expected_2sf):
        # v for N 50-km, 21-day alarms over the global sphere and span
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(span_days))
        alarms = tuple(
            Alarm(GeoPoint(0, 0), 50.0, T0 + day(i % 300), T0 + day(i % 300 + 21), 5.5)
            for i in range(n_alarms)
        )
        v = alarm_volume_fraction(AlarmSet(alarms), sv)
        assert f"{v:.1e}" == expected_2sf

    def test_matches_closed_form_product(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(366))
        alarms = tuple(
            Alarm(GeoPoint(i % 80, i), 50.0, T0 + day(i), T0 + day(i + 21), 5.5)
            for i in range(100)
        )
        v = alarm_volume_fraction(AlarmSet(alarms), sv)
        expected = 100 * cap_area_km2(50.0) * 21 / (GlobalSphere().area_km2 * 366)
        assert v == pytest.approx(expected, rel=1e-12)


class TestUnionVolumeMc:
    def test_disjoint_alarms_match_sum(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(100))
        alarms = AlarmSet(
            (
                Alarm(GeoPoint(0, 0), 2000.0, T0, T0 + day(50), 5.5),
                Alarm(GeoPoint(0, 180), 2000.0, T0 + day(50), T0 + day(100), 5.5),
            )
        )
        v_upper = alarm_volume_fraction(alarms, sv)
        est = union_volume_fraction_mc(alarms, sv, 40000, rng=1)
        assert abs(est.estimate - v_upper) <= 3 * est.stderr + 1e-12

    def test_duplicated_alarm_halves(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(100))
        a = Alarm(GeoPoint(30, 40), 3000.0, T0, T0 + day(60), 5.5)
        doubled = AlarmSet((a, a))
        v_upper = alarm_volume_fraction(doubled, sv)
        est = union_volume_fraction_mc(doubled, sv, 40000, rng=2)
        assert abs(est.estimate - v_upper / 2) <= 3 * est.stderr + 1e-12

    def test_hemisphere_for_half_duration(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(100))
        hemisphere = Alarm(
            GeoPoint(90, 0), math.pi * EARTH_RADIUS_KM / 2, T0, T0 + day(50), 5.0
        )
        est = union_volume_fraction_mc(AlarmSet((hemisphere,)), sv, 50000, rng=3)
        se = math.sqrt(0.25 * 0.75 / 50000)
        assert abs(est.estimate - 0.25) <= 3 * se

    def test_bad_arguments(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(10))
        alarms = AlarmSet((Alarm(GeoPoint(0, 0), 1000.0, T0, T0 + day(5), 5.5),))
        with pytest.raises(ValueError, match="n_samples"):
            union_volume_fraction_mc(alarms, sv, 0, rng=7)
        with pytest.raises(TypeError, match="Rng key or an integer seed, got float"):
            union_volume_fraction_mc(alarms, sv, 10, rng=7.0)
        g = np.random.default_rng(7)
        with pytest.raises(ValueError, match="n_samples"):
            union_volume_fraction_mc(alarms, sv, 0, rng=g)
        with pytest.raises(TypeError, match="Rng key or an integer seed, got Generator"):
            union_volume_fraction_mc(alarms, sv, 10, rng=g)

    def test_deterministic_given_seed(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(10))
        alarms = AlarmSet((Alarm(GeoPoint(0, 0), 1000.0, T0, T0 + day(5), 5.5),))
        e1 = union_volume_fraction_mc(alarms, sv, 5000, rng=7)
        e2 = union_volume_fraction_mc(alarms, sv, 5000, rng=7)
        assert e1 == e2

    def test_upper_bound_property(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            cat = random_catalog(rng, n=15, span_days=60)
            aset = generate_alarms(cat, 5.5, radius_km=500.0)
            v_upper = alarm_volume_fraction(aset, cat.span)
            est = union_volume_fraction_mc(aset, cat.span, 20000, rng=trial)
            assert est.estimate <= v_upper + 3 * est.stderr + 1e-12


class TestKernelAgreesWithScalarPath:
    def test_predicted_mask_matches_is_predicted(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            cat = filter_catalog(random_catalog(rng, n=30, span_days=90), 5.5)
            for rule in (FloorRule.THRESHOLD, FloorRule.TRIGGER):
                aset = generate_alarms(cat, 5.5, floor_rule=rule)
                index = AlarmTargetIndex(cat, aset)
                mask = index.predicted_mask(np.arange(len(cat)))
                scalar = [is_predicted(e, aset) for e in cat.events]
                assert mask.tolist() == scalar

    def test_time_matrix_rows_match_single_calls(self):
        rng = np.random.default_rng(6)
        cat = filter_catalog(random_catalog(rng, n=20, span_days=60), 5.5)
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        index = AlarmTargetIndex(cat, aset)
        matrix = np.stack([rng.permutation(len(cat)) for _ in range(25)])
        counts = index.counts_for_time_matrix(matrix)
        for row, expected in zip(matrix, counts):
            assert index.predicted_mask(row).sum() == expected


class TestEligibilityEquivalence:
    def test_pointwise_on_fixture(self):
        cat = filter_catalog(
            make_catalog(
                [
                    (0, 0.0, 0.0, 6.0),
                    (5, 0.1, 0.0, 5.6),
                    (8, 0.05, 0.0, 6.4),
                    (12, 0.02, 0.0, 6.0),
                    (40, 50.0, 50.0, 5.7),
                    (45, 50.1, 50.0, 5.9),
                ]
            ),
            5.5,
        )
        aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
        for k, e in enumerate(cat.events):
            assert is_predicted(e, aset) == eligibility_predicted(cat, k, 5.5, 21.0, 50.0)

    def test_pointwise_on_random_catalogs(self):
        rng = np.random.default_rng(8)
        for trial in range(15):
            cat = filter_catalog(random_catalog(rng, n=25, span_days=80), 5.5)
            aset = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
            for k, e in enumerate(cat.events):
                assert is_predicted(e, aset) == eligibility_predicted(
                    cat, k, 5.5, 21.0, 50.0
                ), f"trial {trial}, event {k}"


class TestDominance:
    def test_trigger_floor_count_never_exceeds_threshold_floor(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            cat = filter_catalog(random_catalog(rng, n=30, span_days=90), 5.5)
            threshold = generate_alarms(cat, 5.5, floor_rule=FloorRule.THRESHOLD)
            trigger = generate_alarms(cat, 5.5, floor_rule=FloorRule.TRIGGER)
            assert count_predicted(cat, trigger) <= count_predicted(cat, threshold)
