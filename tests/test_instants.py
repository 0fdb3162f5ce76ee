"""Instants compare as exact int64 microseconds: the index, declustering,
the alarm windows, the alarm measure and the union volume give the same
answers wherever a catalog sits in time, durations round to microseconds as
timedelta rounds them, the index agrees with the per-event oracles under
reassigned times, every evaluation of the index refuses the same bad time
positions, and no module of the package converts an instant to float
seconds."""

import ast
import dataclasses
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqalarm
from eqalarm import (
    AlarmTargetIndex,
    Catalog,
    Event,
    FloorRule,
    GeoPoint,
    GlobalSphere,
    SphericalCap,
    StudyVolume,
    alarm_measure_pi,
    count_predicted,
    decluster,
    generate_alarms,
    union_volume_fraction_mc,
)
from eqalarm.catalog import _OVERLONG_DAYS, SECONDS_PER_DAY, _from_us, _seconds_to_us, _to_us
from eqalarm.decluster import WindowRow, WindowTable

import oracles
from conftest import traced_peak


def utc(*args) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


def catalog_at(rows) -> Catalog:
    """Catalog of (time_us, lat, lon, mb) rows, in time order, ids ev000...
    in row order, over the global sphere from the first time to a second
    after the last."""
    events = sorted(
        (Event(_from_us(t), GeoPoint(lat, lon), 10.0, mb, None, f"ev{i:03d}")
         for i, (t, lat, lon, mb) in enumerate(rows)),
        key=lambda e: e.time,
    )
    times = [e.time for e in events]
    return Catalog(events, StudyVolume(GlobalSphere(), times[0], times[-1] + timedelta(seconds=1)))


class TestMicrosecondEdges:
    def test_decluster_does_not_depend_on_absolute_time(self):
        # the M5 sits exactly at the end of the M7's window; as float POSIX
        # seconds it was deleted for about a quarter of such shifts of t0
        days = 13.123457
        windows = WindowTable.uniform(days, 100.0)
        window_us = oracles.seconds_to_us(days * SECONDS_PER_DAY)
        lo, hi = _to_us(utc(2000, 1, 1)), _to_us(utc(2003, 1, 1))
        for t0 in np.random.default_rng(2000).integers(lo, hi, size=60).tolist():
            cat = catalog_at([(t0, 0.0, 0.0, 7.0), (t0 + window_us, 0.1, 0.0, 5.0)])
            for retained_only in (False, True):
                assert decluster(cat, windows, retained_only).deleted_indices == (1,)

    @pytest.mark.parametrize("trigger", [utc(1650, 1, 1), utc(2900, 1, 1)])
    def test_target_one_microsecond_past_the_alarm(self, trigger):
        # float seconds this far from 1970 cannot tell the two targets apart
        t0 = _to_us(trigger)
        end = t0 + oracles.seconds_to_us(21 * SECONDS_PER_DAY)
        at_end = catalog_at([(t0, 0.0, 0.0, 6.0), (end, 0.1, 0.0, 5.6)])
        past_end = catalog_at([(t0, 0.0, 0.0, 6.0), (end + 1, 0.1, 0.0, 5.6)])
        assert count_predicted(at_end, generate_alarms(at_end, 5.5)) == 1
        assert count_predicted(past_end, generate_alarms(past_end, 5.5)) == 0


# whole days give window ends that land on a later event exactly
window_days_st = st.one_of(
    st.integers(1, 5).map(float), st.floats(0.001, 20.0), st.just(13.123457)
)
# new start times, in microseconds, from the 1600s to the 2900s
start_us_st = st.one_of(
    st.sampled_from([utc(1600, 1, 1), utc(1697, 6, 1), utc(2243, 1, 1), utc(2900, 1, 1)]).map(
        _to_us
    ),
    st.integers(_to_us(utc(1600, 1, 1)), _to_us(utc(2950, 1, 1))),
)


@st.composite
def edge_catalogs(draw):
    """(time_us, lat, lon, mb) rows from 2000 on, many of them within 2 µs of
    the end of an earlier event's window, and the window's length in days."""
    days = draw(window_days_st)
    window_us = oracles.seconds_to_us(days * SECONDS_PER_DAY)
    t0 = _to_us(utc(2000, 1, 1))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            t = draw(st.sampled_from(rows))[0] + window_us + draw(st.integers(-2, 2))
        else:
            t = t0 + draw(st.integers(0, 60 * 86_400 * 10**6))
        lat, lon = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))
        rows.append((t, lat, lon, draw(st.sampled_from([None, 5.0, 5.5, 6.0, 6.5, 7.0]))))
    return rows, days


def _outcomes(rows, days, permutations):
    """Everything that compares instants, for the catalog of ``rows``."""
    cat = catalog_at(rows)
    windows = WindowTable((WindowRow(-math.inf, days, 40.0), WindowRow(6.0, days, 80.0)))
    out = [decluster(cat, windows, retained_only).deleted_indices for retained_only in (False, True)]
    observed = np.arange(len(cat))
    for rule in FloorRule:
        index = AlarmTargetIndex(cat, generate_alarms(cat, 5.5, days, 50.0, rule))
        out += [
            index.predicted_mask(observed).tolist(),
            index.successful_alarms(observed),
            index.counts_for_time_matrix(permutations).tolist(),
        ]
    return out


@settings(max_examples=150, deadline=None)
@given(edge_catalogs(), start_us_st, st.randoms(use_true_random=False))
def test_common_shift_changes_nothing(inputs, start_us, random):
    rows, days = inputs
    n = len(rows)
    permutations = np.array([random.sample(range(n), n) for _ in range(4)], dtype=np.int64)
    shift = start_us - min(t for t, *_ in rows)
    shifted = [(t + shift, *rest) for t, *rest in rows]
    assert _outcomes(shifted, days, permutations) == _outcomes(rows, days, permutations)


def _measures(rows, days, interval_us, seed):
    """The alarm measure over the catalog's epicenters and the union-volume
    estimate near them, for the catalog of ``rows`` and an interval in µs."""
    cat = catalog_at(rows)
    alarm_set = generate_alarms(cat, 5.5, days, 50.0)
    interval = tuple(_from_us(t) for t in interval_us)
    pi = alarm_measure_pi(alarm_set, [e.epicenter for e in cat.events], interval)
    sv = StudyVolume(SphericalCap(GeoPoint(0.0, 0.0), 60.0), *interval)
    return pi, union_volume_fraction_mc(alarm_set, sv, 500, seed).estimate


def _days_after_2000(year: int) -> int:
    return (utc(year, 1, 1) - utc(2000, 1, 1)).days


@settings(max_examples=150, deadline=None)
@given(
    edge_catalogs(),
    st.data(),
    st.one_of(
        st.integers(_days_after_2000(1600), _days_after_2000(1699)),
        st.integers(_days_after_2000(2900), _days_after_2000(2999)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_common_shift_keeps_the_measures(inputs, data, shift_days, seed):
    # the interval's ends fall on or within 2 µs of an alarm's start or end
    rows, days = inputs
    window_us = oracles.seconds_to_us(days * SECONDS_PER_DAY)
    edges = [t + d for t, *_ in rows for d in (0, window_us)]
    edge_st = st.sampled_from(edges).flatmap(lambda t: st.integers(t - 2, t + 2))
    interval = sorted(data.draw(st.lists(edge_st, min_size=2, max_size=2, unique=True)))
    shift = shift_days * 86_400 * 10**6
    shifted = [(t + shift, *rest) for t, *rest in rows]
    want = _measures(rows, days, interval, seed)
    assert _measures(shifted, days, [t + shift for t in interval], seed) == want


def test_no_module_calls_timestamp():
    # .timestamp() turns an instant into float seconds, which merge adjacent
    # microseconds far from 1970
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(eqalarm.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "timestamp"
    ]
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(edge_catalogs(), st.randoms(use_true_random=False))
def test_reassigned_times_match_the_oracles(inputs, random):
    # the count kernel and alarm success under permuted times, against the
    # per-event membership rule and the per-alarm success rule
    rows, days = inputs
    cat = catalog_at(rows)
    n = len(rows)
    permutations = np.array(
        [list(range(n))] + [random.sample(range(n), n) for _ in range(3)], dtype=np.int64
    )
    times = cat.rows["time_us"]
    for rule in FloorRule:
        alarm_set = generate_alarms(cat, 5.5, days, 50.0, rule)
        index = AlarmTargetIndex(cat, alarm_set)
        predicted = []
        for perm in permutations:
            events = [
                dataclasses.replace(e, time=_from_us(t))
                for e, t in zip(cat.events, times[perm].tolist())
            ]
            predicted.append(sum(oracles.is_predicted(e, alarm_set) for e in events))
            want = oracles.successful_alarm_count(alarm_set, events)
            assert index.successful_alarms(perm) == want
        assert index.counts_for_time_matrix(permutations).tolist() == predicted


@settings(max_examples=100, deadline=None)
@given(edge_catalogs(), st.randoms(use_true_random=False))
def test_predicted_mask_reads_the_runs(inputs, random):
    # the per-target lookup under the identity row, permutations and
    # arbitrary rows of positions, against the per-event membership rule and
    # against the count kernel's rows
    rows, days = inputs
    cat = catalog_at(rows)
    n = len(rows)
    order = np.array(
        [list(range(n))]
        + [random.sample(range(n), n) for _ in range(3)]
        + [[random.randrange(n) for _ in range(n)] for _ in range(2)],
        dtype=np.intp,
    )
    times = cat.rows["time_us"]
    for rule in FloorRule:
        alarm_set = generate_alarms(cat, 5.5, days, 50.0, rule)
        index = AlarmTargetIndex(cat, alarm_set)
        masks = [index.predicted_mask(row) for row in order]
        for row, mask in zip(order, masks):
            want = [
                oracles.is_predicted(dataclasses.replace(e, time=_from_us(t)), alarm_set)
                for e, t in zip(cat.events, times[row].tolist())
            ]
            assert mask.tolist() == want
        assert [int(m.sum()) for m in masks] == index.counts_for_time_matrix(order).tolist()


# one paired target per block and one row per chunk, blocks and chunks of
# a few targets and rows, and one of each
KERNEL_BUDGETS = (1, 64 * 2**10, eqalarm.alarm.MEMORY_BUDGET_BYTES)


@settings(max_examples=150, deadline=None)
@given(
    edge_catalogs(), start_us_st, st.sampled_from(KERNEL_BUDGETS), st.randoms(use_true_random=False)
)
def test_position_kernel_matches_the_pair_kernel(inputs, start_us, budget, random):
    # permutations and arbitrary rows of positions, which may give several
    # targets one time, against the pair kernel on the times they select
    rows, days = inputs
    shift = start_us - min(t for t, *_ in rows)
    cat = catalog_at([(t + shift, *rest) for t, *rest in rows])
    n = len(rows)
    order = np.array(
        [random.sample(range(n), n) for _ in range(3)]
        + [[random.randrange(n) for _ in range(n)] for _ in range(3)],
        dtype=np.intp,
    )
    times = cat.rows["time_us"]
    for rule in FloorRule:
        alarm_set = generate_alarms(cat, 5.5, days, 50.0, rule)
        index = AlarmTargetIndex(cat, alarm_set)
        with mock.patch.object(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget):
            got = index.counts_for_time_matrix(order)
        want = oracles.pair_kernel_counts(index, alarm_set, cat, times[order])
        assert got.tolist() == want.tolist()


class TestRounding:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, _OVERLONG_DAYS * SECONDS_PER_DAY),
                st.floats(0.0, 1.0),
                # half a microsecond, where timedelta rounds to even
                st.integers(0, 10**9).map(lambda k: k + 0.5e-6),
                st.sampled_from((0.5e-6, 1.5e-6, 2.5e-6, 0.9999995, 1_133_866.6848)),
            ),
            max_size=20,
        )
    )
    def test_matches_timedelta(self, seconds):
        want = [oracles.seconds_to_us(s) for s in seconds]
        assert _seconds_to_us(np.array(seconds, dtype=float)).tolist() == want

    def test_matches_the_one_expression_formula(self):
        # the in-place steps give what modf, rint and one product and sum of
        # fresh arrays give, and hold at most three arrays of the input's size
        def formula(seconds):
            frac, whole = np.modf(np.minimum(seconds, _OVERLONG_DAYS * SECONDS_PER_DAY))
            return whole.astype(np.int64) * 10**6 + np.rint(frac * 1e6).astype(np.int64)

        ties = np.arange(0, 4000) + 0.5e-6
        seconds = np.concatenate((
            [0.0, 0.5e-6, 1.5e-6, 2.5e-6, 0.9999995, _OVERLONG_DAYS * SECONDS_PER_DAY, 1e300],
            ties,
            np.random.default_rng(3).uniform(0.0, 1e11, 100_000),
        ))
        got, peak = traced_peak(lambda: _seconds_to_us(seconds))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, formula(seconds))
        assert peak <= 3 * seconds.nbytes + 10_000
        for s in (0.0, 2.5e-6, 1e300):
            assert _seconds_to_us(s) == formula(s)

    @pytest.mark.parametrize("days", [_OVERLONG_DAYS, _OVERLONG_DAYS + 0.5, 1e300])
    def test_clamps_overlong_durations(self, days):
        clamp = oracles.seconds_to_us(_OVERLONG_DAYS * SECONDS_PER_DAY)
        assert _seconds_to_us(days * SECONDS_PER_DAY) == clamp
        assert _seconds_to_us(np.array([days * SECONDS_PER_DAY])).dtype == np.int64

    def test_decluster_accepts_the_longest_window(self):
        cat = catalog_at([(0, 0.0, 0.0, 7.0), (1, 0.0, 0.0, 5.0)])
        assert decluster(cat, WindowTable.uniform(1e300, 10.0)).deleted_indices == (1,)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(_to_us(utc(1600, 1, 1)), _to_us(utc(2950, 1, 1))),
        st.one_of(window_days_st, st.floats(1e-6, 1e4)),
    )
    def test_one_window_rule_for_alarms_and_decluster(self, t0, days):
        # an event exactly at trigger + window is covered and deleted; one a
        # microsecond later is neither
        end = t0 + oracles.seconds_to_us(days * SECONDS_PER_DAY)
        for t, inside in ((end, True), (end + 1, False)):
            cat = catalog_at([(t0, 0.0, 0.0, 7.0), (t, 0.1, 0.0, 5.0)])
            (alarm,) = generate_alarms(cat, 6.0, days, 100.0).alarms
            assert oracles.alarm_covers(alarm, _from_us(t), GeoPoint(0.1, 0.0)) == inside
            deleted = decluster(cat, WindowTable.uniform(days, 100.0)).deleted_indices
            assert deleted == ((1,) if inside else ())


@pytest.fixture
def index():
    """Index of three targets: an M6 trigger at position 0, an M5.6 it
    predicts at position 1 and an unrelated M5.7 at position 2."""
    t0 = _to_us(utc(2004, 1, 1))
    cat = catalog_at(
        [(t0, 0.0, 0.0, 6.0), (t0 + 10**9, 0.1, 0.0, 5.6), (t0 + 10**10, 5.0, 5.0, 5.7)]
    )
    return AlarmTargetIndex(cat, generate_alarms(cat, 5.5))


# each evaluation and what it gives when every target keeps its own time:
# the trigger's alarm predicts the M5.6
OBSERVED = {
    "predicted_mask": [False, True, False],
    "successful_alarms": 1,
    "counts_for_time_matrix": [1],
}


@pytest.mark.parametrize("method", OBSERVED)
def test_every_evaluation_checks_positions_alike(index, method):
    # predicted_mask and successful_alarms take one row of positions, the
    # count kernel a batch of rows; each refuses the same rows alike
    ndim = 2 if method == "counts_for_time_matrix" else 1
    call = getattr(index, method)

    def as_input(row, dtype=None):
        row = np.array(row, dtype=dtype)
        return row.reshape((1,) * (ndim - 1) + row.shape)

    for dtype in (float, np.float32, bool):
        with pytest.raises(TypeError, match="time positions must be integers"):
            call(as_input([0, 1, 2], dtype))
    for row in ([0, 1, 3], [0, -1, 2], [2, 1, -3], [0, 1, 2**40]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 3\)"):
            call(as_input(row))
    with pytest.raises(ValueError, match=r"must lie in \[0, 3\)"):
        call(as_input([0, 1, 2**64 - 1], np.uint64))
    # too few, too many, one axis too many and one too few
    row = as_input([0, 1, 2])
    for positions in (as_input([0, 1]), as_input([0, 1, 2, 0]), row[None], row[0]):
        with pytest.raises(ValueError, match="need 3 time positions"):
            call(positions)
    for dtype in (np.int32, np.int64, np.uint8):
        got = call(as_input([0, 1, 2], dtype))
        assert (got.tolist() if isinstance(got, np.ndarray) else got) == OBSERVED[method]


class TestCountKernelInput:
    @pytest.mark.parametrize(
        "order", [[[0, 1, 3]], [[0, -1, 2]], [[0, 1, 2], [2, 1, -3]], np.array([[0, 1, 2**40]])]
    )
    def test_out_of_range_positions_raise(self, index, order):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            index.counts_for_time_matrix(np.array(order))

    def test_unsigned_positions_past_int64_raise(self, index):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            index.counts_for_time_matrix(np.array([[0, 1, 2**64 - 1]], dtype=np.uint64))

    @pytest.mark.parametrize("order", [[[0, 1]], [[0, 1, 2, 0]], [0, 1, 2], [[[0, 1, 2]]]])
    def test_wrong_widths_raise(self, index, order):
        with pytest.raises(ValueError, match="3 time positions"):
            index.counts_for_time_matrix(np.array(order))

    @pytest.mark.parametrize("dtype", [float, np.float32, bool])
    def test_non_integer_positions_raise(self, index, dtype):
        with pytest.raises(TypeError, match="positions"):
            index.counts_for_time_matrix(np.array([[0, 1, 2]], dtype=dtype))

    def test_in_range_rows_and_no_rows(self, index):
        assert index.counts_for_time_matrix(np.array([[0, 1, 2], [0, 0, 0]])).tolist() == [1, 0]
        assert index.counts_for_time_matrix(np.zeros((0, 3), dtype=np.int64)).tolist() == []
