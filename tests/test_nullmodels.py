import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from eqalarm import (
    CellGrid,
    GlobalSphere,
    LatLonBox,
    Rng,
    StudyVolume,
    gen_gamma_renewal,
    gen_heterogeneous_poisson,
    gen_homogeneous_poisson,
    historical_cell_rates,
    permute_times,
    randomize_times_uniform,
)
from eqalarm.catalog import _seconds_to_us, _to_us

import oracles
from conftest import T0, day, make_catalog, random_catalog, utc


class StubRng:
    """Duck-typed stand-in replaying recorded integer draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def integers(self, low, high=None):
        return self._draws.pop(0)


class TestPermuteTimes:
    def test_multisets_preserved(self):
        rng = np.random.default_rng(0)
        cat = random_catalog(rng, n=25)
        shuffled = permute_times(cat, Rng(1))
        assert sorted(e.time for e in shuffled) == sorted(e.time for e in cat.events)
        marks = lambda c: Counter((e.epicenter, e.mb, e.ms, e.source_id) for e in c.events)
        assert marks(shuffled) == marks(cat)

    def test_three_event_reference_trace(self):
        # the reference shuffle, n=3: i=2 swaps with draw 0 -> [2,1,0]; i=1
        # swaps with draw 1 -> unchanged
        assert oracles.permutation_indices(3, StubRng([0, 1])).tolist() == [2, 1, 0]

    def test_four_event_orderings_uniform(self):
        # the order of ids along the sorted times names which event got
        # which time: all 24 assignments should be equally likely
        cat = make_catalog([(i * 5.0, i, i, 6.0) for i in range(4)])
        g = np.random.default_rng(2024)
        seen = Counter(
            tuple(e.source_id for e in permute_times(cat, g).events) for _ in range(4800)
        )
        assert len(seen) == 24
        assert stats.chisquare(list(seen.values())).pvalue > 1e-3

    def test_sorted_output(self):
        rng = np.random.default_rng(2)
        cat = random_catalog(rng, n=30)
        shuffled = permute_times(cat, Rng(5))
        times = [e.time for e in shuffled.events]
        assert times == sorted(times)

    def test_double_permutation_same_distribution(self):
        # the time landing on one fixed event should be uniform over the
        # multiset whether we permute once or twice
        cat = make_catalog([(i * 3, i, i, 6.0) for i in range(8)])
        once, twice = [], []
        for seed in range(400):
            p1 = permute_times(cat, Rng(seed, 1))
            once.append(next(e.time for e in p1.events if e.source_id == "ev000"))
            p2 = permute_times(permute_times(cat, Rng(seed, 2)), Rng(seed, 3))
            twice.append(next(e.time for e in p2.events if e.source_id == "ev000"))
        to_s = lambda ts: np.array([t.timestamp() for t in ts])
        assert stats.ks_2samp(to_s(once), to_s(twice)).pvalue > 0.01


class TestRandomizeTimesUniform:
    def test_empty_catalog(self):
        cat = make_catalog([])
        assert len(randomize_times_uniform(cat, Rng(0))) == 0

    def test_support_inside_span(self):
        cat = make_catalog([(i, 0, i, 6.0) for i in range(20)], span_days=50)
        redrawn = randomize_times_uniform(cat, Rng(3))
        for e in redrawn.events:
            assert cat.span.t_start <= e.time <= cat.span.t_end

    def test_mean_near_midpoint(self):
        cat = make_catalog([(0.5, 0, 0, 6.0)] * 1 + [(i % 100, 0, i % 90, 6.0) for i in range(9999)], span_days=100)
        redrawn = randomize_times_uniform(cat, Rng(4))
        offsets = (redrawn.times_s() - cat.span.t_start.timestamp()) / 86400.0
        se = 100.0 / math.sqrt(12.0) / math.sqrt(10000)
        assert abs(offsets.mean() - 50.0) < 3 * se


class TestHomogeneousPoisson:
    def test_zero_rate_empty(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(100))
        cat = gen_homogeneous_poisson(0.0, sv, None, Rng(0))
        assert len(cat) == 0

    def test_negative_rate_rejected(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(100))
        with pytest.raises(ValueError):
            gen_homogeneous_poisson(-1e-9, sv, None, Rng(0))

    def test_mean_count_calibration(self):
        # rate x duration = 100; mean of 1000 replicate counts within 3 sigma
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(100))
        rate = 100.0 / sv.duration_s
        counts = [
            len(gen_homogeneous_poisson(rate, sv, None, Rng(77, r))) for r in range(1000)
        ]
        assert abs(np.mean(counts) - 100.0) < 3.0 * 10.0 / math.sqrt(1000)

    def test_deterministic_given_key(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(30))
        marks = make_catalog([(1, 10, 10, 6.0), (2, -20, 40, 5.7)])
        a = gen_homogeneous_poisson(3e-5, sv, marks, Rng(9, 2))
        b = gen_homogeneous_poisson(3e-5, sv, marks, Rng(9, 2))
        assert a == b

    def test_marks_resampled_jointly(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(30))
        marks = make_catalog([(1, 10.0, 10.0, 6.0), (2, -20.0, 40.0, 5.7)])
        cat = gen_homogeneous_poisson(2e-4, sv, marks, Rng(11))
        allowed = {(e.epicenter, e.mb) for e in marks.events}
        assert len(cat) > 0
        for e in cat.events:
            assert (e.epicenter, e.mb) in allowed

    def test_no_marks_placeholder(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(30))
        cat = gen_homogeneous_poisson(2e-4, sv, None, Rng(12))
        assert len(cat) > 0
        assert all(e.mb == 5.0 for e in cat.events)


class TestHeterogeneousPoisson:
    def grid(self, rates):
        cells = (
            LatLonBox(0.0, 10.0, 0.0, 10.0),
            LatLonBox(0.0, 10.0, 10.0, 20.0),
        )
        return CellGrid(cells, rates)

    def test_all_zero_rates_empty(self):
        grid = self.grid((0.0, 0.0))
        cat = gen_heterogeneous_poisson(grid, (T0, T0 + day(50)), None, Rng(0))
        assert len(cat) == 0

    def test_zero_rate_cell_stays_empty(self):
        lam = 20.0 / (50 * 86400.0)
        grid = self.grid((0.0, lam))
        cat = gen_heterogeneous_poisson(grid, (T0, T0 + day(50)), None, Rng(1))
        assert len(cat) > 0
        for e in cat.events:
            assert oracles.region_contains(grid.cells[1], e.epicenter)

    def test_single_cell_matches_homogeneous(self):
        box = LatLonBox(0.0, 10.0, 0.0, 10.0)
        lam = 10.0 / (30 * 86400.0)
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(30))
        het = [
            len(gen_heterogeneous_poisson(CellGrid((box,), (lam,)), (T0, T0 + day(30)), None, Rng(21, r)))
            for r in range(1000)
        ]
        hom = [
            len(gen_homogeneous_poisson(lam, sv, None, Rng(22, r))) for r in range(1000)
        ]
        assert stats.ks_2samp(het, hom).pvalue > 0.01

    def test_total_count_moment(self):
        lam1 = 5.0 / (40 * 86400.0)
        lam2 = 15.0 / (40 * 86400.0)
        grid = self.grid((lam1, lam2))
        counts = [
            len(gen_heterogeneous_poisson(grid, (T0, T0 + day(40)), None, Rng(23, r)))
            for r in range(800)
        ]
        assert abs(np.mean(counts) - 20.0) < 3 * math.sqrt(20.0) / math.sqrt(800)

    def test_cell_restricted_marks(self):
        lam = 30.0 / (40 * 86400.0)
        grid = self.grid((lam, lam))
        marks = make_catalog([(1, 5.0, 5.0, 6.5), (2, 5.0, 15.0, 5.6)])
        cat = gen_heterogeneous_poisson(grid, (T0, T0 + day(40)), marks, Rng(24))
        for e in cat.events:
            if oracles.region_contains(grid.cells[0], e.epicenter):
                assert e.mb == 6.5
            else:
                assert e.mb == 5.6


class TestGammaRenewal:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gen_gamma_renewal(1.0, 60.0, (T0, T0), Rng(0))

    def gaps(self, shape, mean_s, horizon_s, seed):
        instants = gen_gamma_renewal(
            shape, mean_s, (T0, T0 + timedelta(seconds=horizon_s)), Rng(seed)
        )
        t = np.array([i.timestamp() for i in instants])
        return np.diff(np.concatenate([[T0.timestamp()], t]))

    def test_exponential_cv_at_shape_one(self):
        gaps = self.gaps(1.0, 1.0, 12000.0, 31)
        assert len(gaps) > 9000
        cv = gaps.std(ddof=1) / gaps.mean()
        assert abs(cv - 1.0) < 0.05

    def test_clustering_cv_at_small_shape(self):
        gaps = self.gaps(0.25, 1.0, 12000.0, 32)
        cv = gaps.std(ddof=1) / gaps.mean()
        assert abs(cv - 2.0) < 0.15

    def test_empty_probability_matches_first_gap_survival(self):
        shape, mean_s, horizon = 0.5, 500.0, 100.0
        empties = sum(
            not gen_gamma_renewal(shape, mean_s, (T0, T0 + timedelta(seconds=horizon)), Rng(33, r))
            for r in range(2000)
        )
        p_theory = stats.gamma.sf(horizon, a=shape, scale=mean_s / shape)
        se = math.sqrt(p_theory * (1 - p_theory) / 2000)
        assert abs(empties / 2000 - p_theory) < 3 * se

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_gamma_renewal(0.0, 1.0, (T0, T0 + day(1)), Rng(0))
        with pytest.raises(ValueError):
            gen_gamma_renewal(1.0, 0.0, (T0, T0 + day(1)), Rng(0))

    def test_matches_per_gap_reference(self):
        for shape, start in ((0.3, T0), (1.0, utc(1931, 5, 2, 3, 4, 5, 678901)), (4.0, T0)):
            interval = (start, start + day(50))
            for seed in range(20):
                got = gen_gamma_renewal(shape, 3600.0 * (seed + 1), interval, Rng(35, seed))
                want = oracles.gamma_renewal_instants(
                    shape, 3600.0 * (seed + 1), interval, Rng(35, seed)
                )
                assert got == want

    def test_instants_inside_interval(self):
        instants = gen_gamma_renewal(0.5, 3600.0, (T0, T0 + day(2)), Rng(34))
        assert all(T0 < t <= T0 + day(2) for t in instants)


class TestHistoricalRates:
    def cells(self):
        return [
            LatLonBox(0.0, 10.0, 0.0, 10.0),
            LatLonBox(0.0, 10.0, 10.0, 20.0),
            LatLonBox(10.0, 20.0, 0.0, 10.0),
            LatLonBox(10.0, 20.0, 10.0, 20.0),
        ]

    def test_single_event_single_cell_rate(self):
        cat = make_catalog([(1, 5, 5, 6.0)], span_days=365)
        grid = historical_cell_rates(cat, [LatLonBox(0.0, 10.0, 0.0, 10.0)])
        assert grid.rates_per_s[0] == pytest.approx(1.0 / (365 * 86400.0))

    def test_empty_catalog_zero_rates(self):
        cat = make_catalog([])
        grid = historical_cell_rates(cat, self.cells())
        assert grid.rates_per_s == (0.0, 0.0, 0.0, 0.0)

    def test_hand_counted_twelve_events(self):
        # 12 events: 5 in cell 0, 3 in cell 1, 4 in cell 3, none in cell 2
        rows = (
            [(i, 5.0, 5.0, 6.0) for i in range(5)]
            + [(i + 10, 5.0, 15.0, 6.0) for i in range(3)]
            + [(i + 20, 15.0, 15.0, 6.0) for i in range(4)]
        )
        cat = make_catalog(rows, span_days=120)
        grid = historical_cell_rates(cat, self.cells())
        duration = 120 * 86400.0
        assert grid.rates_per_s == tuple(
            n / duration for n in (5, 3, 0, 4)
        )

    def test_partition_violation_named(self):
        cat = make_catalog([(1, 50.0, 5.0, 6.0)])
        with pytest.raises(ValueError, match="partition"):
            historical_cell_rates(cat, self.cells())

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CellGrid((GlobalSphere(),), (1.0, 2.0))
        with pytest.raises(ValueError):
            CellGrid((GlobalSphere(),), (-1.0,))


class TestStreamContract:
    def test_rng_must_name_a_stream(self):
        catalog = make_catalog([(1.0, 0.0, 0.0, 5.0)])
        with pytest.raises(TypeError, match="Rng key or an integer seed, got str"):
            permute_times(catalog, "1")

    def test_distinct_streams_differ(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(30))
        a = gen_homogeneous_poisson(5e-5, sv, None, Rng(1, 0))
        b = gen_homogeneous_poisson(5e-5, sv, None, Rng(1, 1))
        assert a != b

    def test_replicate_key_independent_of_order(self):
        sv = StudyVolume(GlobalSphere(), T0, T0 + day(30))
        direct = gen_homogeneous_poisson(5e-5, sv, None, Rng(6).replicate(5))
        for r in range(5):
            gen_homogeneous_poisson(5e-5, sv, None, Rng(6).replicate(r))
        again = gen_homogeneous_poisson(5e-5, sv, None, Rng(6).replicate(5))
        assert direct == again


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-2524521600000000, 3976214400000000),
    st.lists(
        st.one_of(
            st.floats(0.0, 1e11),
            st.floats(0.0, 1.0),
            # half a microsecond, where timedelta rounds to even
            st.integers(0, 10**9).map(lambda k: k + 0.5e-6),
            st.sampled_from((0.5e-6, 1.5e-6, 2.5e-6, 0.9999995)),
        ),
        max_size=20,
    ),
)
def test_after_rounds_like_timedelta(t0_us, offsets):
    t0 = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=t0_us)
    want = [_to_us(t0 + timedelta(seconds=s)) for s in offsets]
    got = _to_us(t0) + _seconds_to_us(np.array(offsets, dtype=float))
    assert got.tolist() == want
