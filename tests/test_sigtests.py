import itertools
import math
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from eqalarm import (
    Alarm,
    AlarmSet,
    FloorRule,
    GeoPoint,
    GridOutcome,
    Rng,
    alarm_measure_pi,
    binomial_tail_pvalue,
    exact_permutation_pvalue,
    filter_catalog,
    generate_alarms,
    permutation_test,
    permutation_test_fixed_alarms,
    poisson_binomial_pvalue,
    r_score,
    r_score_baseline,
    randomize_times_uniform,
)
from eqalarm.sigtests import _all_orderings

from conftest import T0, day, make_catalog, random_catalog
from oracles import great_circle_km


def oracle_exact_pvalue(catalog, mag_threshold, window_days, radius_km, floor_rule):
    """Plain-loop enumeration over all time assignments, no shared kernels.

    Alarms keep the original catalog's trigger times; an event is predicted
    under an assignment iff a covering alarm from a different trigger exists
    and its magnitude reaches the largest covering floor. Times compare as
    exact datetimes.
    """
    targets = filter_catalog(catalog, mag_threshold)
    events = targets.events
    n = len(events)
    window = timedelta(seconds=window_days * 86400)
    alarms = []
    for e in events:
        m = e.magnitude(targets.magnitude_selector)
        floor = mag_threshold if floor_rule is FloorRule.THRESHOLD else m
        alarms.append((e.epicenter, e.time, floor, e.source_id))

    def count(times):
        total = 0
        for k, e in enumerate(events):
            floors = []
            for center, t_start, floor, trig_id in alarms:
                if trig_id == e.source_id:
                    continue
                if not (t_start < times[k] <= t_start + window):
                    continue
                if great_circle_km(center, e.epicenter) > radius_km:
                    continue
                floors.append(floor)
            if floors and e.magnitude(targets.magnitude_selector) >= max(floors):
                total += 1
        return total

    base = [e.time for e in events]
    observed = count(base)
    hits = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        total += 1
        if count([base[p] for p in perm]) >= observed:
            hits += 1
    return Fraction(hits, total) if total else Fraction(1, 1)


FIVE_EVENT_FIXTURE = [
    (0.0, 0.0, 0.0, 6.0),
    (3.0, 0.05, 0.0, 5.8),
    (9.0, 0.10, 0.0, 6.1),
    (30.0, 20.0, 20.0, 5.9),
    (33.0, 20.05, 20.0, 6.2),
]


class TestPermutationTest:
    def test_far_apart_events_give_p_one(self):
        cat = make_catalog([(i * 10.0, i * 20.0 - 60, i * 40.0 - 90, 6.0) for i in range(4)])
        report = permutation_test(cat, 5.5, n_reps=200, rng=Rng(0))
        assert report.observed == 0
        assert report.p_estimate == 1.0
        assert report.max_sim == 0

    def test_int_seed_is_the_rng_of_that_seed(self):
        cat = make_catalog(FIVE_EVENT_FIXTURE)
        by_int = permutation_test(cat, 5.5, n_reps=300, rng=42)
        assert by_int == permutation_test(cat, 5.5, n_reps=300, rng=Rng(42))

    def test_deterministic_given_seed(self):
        cat = make_catalog(FIVE_EVENT_FIXTURE)
        a = permutation_test(cat, 5.5, n_reps=300, rng=Rng(42))
        b = permutation_test(cat, 5.5, n_reps=300, rng=Rng(42))
        assert a == b

    def test_zero_reps_rejected(self):
        cat = make_catalog(FIVE_EVENT_FIXTURE)
        with pytest.raises(ValueError):
            permutation_test(cat, 5.5, n_reps=0, rng=Rng(0))

    def test_report_invariants(self):
        cat = make_catalog(FIVE_EVENT_FIXTURE)
        report = permutation_test(cat, 5.5, n_reps=500, rng=Rng(3))
        assert report.p_estimate == report.sims_geq / report.sim_count
        assert report.p_is_upper_bound == (report.sims_geq == 0)
        payload = report.to_json_dict()
        assert set(payload) == {
            "observed", "n_reps", "sims_geq", "p_estimate",
            "p_is_upper_bound", "max_sim", "seed", "config",
        }

    def test_flag_when_no_exceedances(self):
        # a strong cluster plus far-apart singles: observed count is hard to
        # reach once times are shuffled
        rows = [(i * 0.5, 0.0 + 0.01 * i, 0.0, 5.8 + 0.01 * i) for i in range(8)]
        rows += [(40 + 30.0 * i, 30.0 * (i - 2), 50.0 * i - 120, 6.5) for i in range(5)]
        cat = make_catalog(rows, span_days=400)
        report = permutation_test(cat, 5.5, n_reps=400, rng=Rng(5))
        if report.sims_geq == 0:
            assert report.p_estimate == 0.0
            assert report.p_is_upper_bound
            assert report.p_display() == "<0.0025"

    def test_external_alarm_set_engine(self):
        cat = filter_catalog(make_catalog(FIVE_EVENT_FIXTURE), 5.5)
        alarms = AlarmSet((Alarm(GeoPoint(0, 0), 100.0, T0, T0 + day(15), 5.5),))
        report, sims = permutation_test_fixed_alarms(
            cat, alarms, 200, Rng(8), return_sims=True
        )
        assert sims.shape == (200,)
        assert report.max_sim == sims.max()
        assert report.sims_geq == int((sims >= report.observed).sum())


class TestExactPermutation:
    def test_single_event_p_one(self):
        cat = make_catalog([(1.0, 0, 0, 6.0)])
        assert exact_permutation_pvalue(cat, 5.5) == Fraction(1, 1)

    def test_no_event_above_threshold_gives_one(self):
        cat = make_catalog([(1.0, 0, 0, 5.0), (2.0, 0.1, 0, 5.2)])
        assert exact_permutation_pvalue(cat, 5.5) == Fraction(1, 1)
        assert exact_permutation_pvalue(make_catalog([]), 5.5) == Fraction(1, 1)

    def test_two_colocated_events(self):
        # identity order predicts the second event (count 1); the swapped
        # order predicts nothing, because each event's own alarm is excluded
        # and the other alarm's window no longer covers it -> p = 1/2
        cat = make_catalog([(0.0, 10.0, 10.0, 6.0), (5.0, 10.0, 10.0, 6.0)])
        p = exact_permutation_pvalue(cat, 5.5)
        assert p == Fraction(1, 2)
        assert p == oracle_exact_pvalue(cat, 5.5, 21.0, 50.0, FloorRule.TRIGGER)

    def test_matches_plain_loop_oracle_on_fixtures(self):
        fixtures = [
            [(0.0, 0.0, 0.0, 6.0), (5.0, 0.05, 0.0, 5.8), (40.0, 30.0, 30.0, 6.1)],
            [(0.0, 0.0, 0.0, 5.6), (2.0, 0.1, 0.0, 6.4), (6.0, 0.05, 0.0, 6.0), (50.0, -40.0, 10.0, 5.9)],
            FIVE_EVENT_FIXTURE,
        ]
        for rows in fixtures:
            cat = make_catalog(rows)
            for rule in (FloorRule.THRESHOLD, FloorRule.TRIGGER):
                lib = exact_permutation_pvalue(cat, 5.5, floor_rule=rule)
                oracle = oracle_exact_pvalue(cat, 5.5, 21.0, 50.0, rule)
                assert lib == oracle, (rows, rule)

    def test_target_one_microsecond_past_the_window_in_2900(self):
        # float POSIX seconds this far from 1970 merge the M5.6 into the M6's
        # window; identity then counts 1 and half the orders reach it
        rows = [
            (0.0, 0.0, 0.0, 6.0),
            (21.0 + 1e-6 / 86_400, 0.1, 0.0, 5.6),
            (10.0, 30.0, 30.0, 5.7),
        ]
        cat = make_catalog(rows, t_start=datetime(2900, 1, 1, tzinfo=timezone.utc))
        assert cat.events[-1].time - cat.events[0].time == timedelta(days=21, microseconds=1)
        lib = exact_permutation_pvalue(cat, 5.5, floor_rule=FloorRule.THRESHOLD)
        assert lib == Fraction(1, 1)
        assert oracle_exact_pvalue(cat, 5.5, 21.0, 50.0, FloorRule.THRESHOLD) == lib

    def test_monte_carlo_agrees_with_exact(self):
        cat = make_catalog(FIVE_EVENT_FIXTURE)
        exact = exact_permutation_pvalue(cat, 5.5)
        report = permutation_test(cat, 5.5, n_reps=10_000, rng=Rng(100))
        se = math.sqrt(float(exact) * (1 - float(exact)) / 10_000)
        assert abs(report.p_estimate - float(exact)) <= 3 * se + 1e-12

    @pytest.mark.parametrize("q", range(9))
    def test_orderings_follow_itertools(self, q):
        want = list(itertools.permutations(range(q)))
        got = _all_orderings(q)
        assert got.shape == (len(want), q)
        assert list(map(tuple, got.tolist())) == want

    def test_guard_against_large_catalogs(self):
        cat = make_catalog([(float(i), 0.0, float(i), 6.0) for i in range(9)])
        with pytest.raises(ValueError, match="guard"):
            exact_permutation_pvalue(cat, 5.5)


class TestBinomialTail:
    def test_zero_successes_full_tail(self):
        for q, pi in [(0, 0.3), (5, 0.0), (12, 0.9)]:
            assert binomial_tail_pvalue(0, q, pi) == 1.0

    def test_certain_success(self):
        assert binomial_tail_pvalue(3, 3, 1.0) == pytest.approx(1.0)

    def test_half_coin_enumeration(self):
        assert binomial_tail_pvalue(1, 2, 0.5) == pytest.approx(0.75)

    def test_against_enumeration(self):
        for q in (1, 4, 7):
            for pi in (0.1, 0.5, 0.9):
                for s in range(q + 1):
                    exact = sum(
                        math.comb(q, x) * pi**x * (1 - pi) ** (q - x)
                        for x in range(s, q + 1)
                    )
                    assert binomial_tail_pvalue(s, q, pi) == pytest.approx(exact, abs=1e-12)

    def test_monotone_in_s_and_pi(self):
        values = [binomial_tail_pvalue(s, 10, 0.4) for s in range(11)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        for s in (1, 5, 9):
            along_pi = [binomial_tail_pvalue(s, 10, pi) for pi in np.linspace(0, 1, 21)]
            assert all(a <= b + 1e-15 for a, b in zip(along_pi, along_pi[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_tail_pvalue(3, 2, 0.5)
        with pytest.raises(ValueError):
            binomial_tail_pvalue(1, 2, 1.5)


class TestPoissonBinomial:
    def test_zero_observed(self):
        assert poisson_binomial_pvalue(0, [0.2, 0.9]) == 1.0

    def test_zero_observed_still_validates_method_and_reps(self):
        for method in ("exact_dp", "simulate", "poisson_approx"):
            assert poisson_binomial_pvalue(0, [0.2, 0.9], method, 10) == 1.0
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            poisson_binomial_pvalue(0, [0.2, 0.9], method="bogus")
        with pytest.raises(ValueError, match="n_reps"):
            poisson_binomial_pvalue(0, [0.2, 0.9], method="simulate", n_reps=0)

    def test_probs_must_be_flat(self):
        with pytest.raises(ValueError, match="flat"):
            poisson_binomial_pvalue(1, [[0.5, 0.5]])

    def test_two_half_coins(self):
        assert poisson_binomial_pvalue(2, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_equal_probs_reduce_to_binomial(self):
        probs = [0.37] * 9
        for s in range(10):
            assert poisson_binomial_pvalue(s, probs) == pytest.approx(
                binomial_tail_pvalue(s, 9, 0.37), abs=1e-12
            )

    def test_exact_dp_matches_subset_enumeration(self):
        probs = [0.1, 0.7, 0.35, 0.9, 0.5]
        for s in range(len(probs) + 1):
            exact = 0.0
            for outcome in itertools.product((0, 1), repeat=len(probs)):
                if sum(outcome) >= s:
                    weight = 1.0
                    for o, p in zip(outcome, probs):
                        weight *= p if o else 1 - p
                    exact += weight
            assert poisson_binomial_pvalue(s, probs) == pytest.approx(exact, abs=1e-12)

    def test_exact_tail_never_passes_one_with_certain_alarms(self):
        # uncapped, rounding carries some of these tails to 1 + 2e-16
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = int(rng.integers(2, 12))
            probs = rng.random(a)
            n_certain = int(rng.integers(1, a))
            probs[:n_certain] = 1.0
            rng.shuffle(probs)
            for s in range(1, a + 1):
                tail = poisson_binomial_pvalue(s, probs)
                assert tail <= 1.0
                if s <= n_certain:
                    assert tail == pytest.approx(1.0, abs=1e-12)

    def test_simulate_within_three_se(self):
        probs = [0.15, 0.6, 0.45, 0.8]
        s = 2
        exact = poisson_binomial_pvalue(s, probs)
        sim = poisson_binomial_pvalue(s, probs, method="simulate", n_reps=100_000, rng=Rng(7))
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(sim - exact) <= 3 * se

    def test_poisson_approx_sane(self):
        probs = [0.02] * 50
        approx = poisson_binomial_pvalue(3, probs, method="poisson_approx")
        exact = poisson_binomial_pvalue(3, probs)
        assert approx == pytest.approx(float(stats.poisson.sf(2, 1.0)))
        assert abs(approx - exact) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_binomial_pvalue(1, [0.5, 1.2])
        with pytest.raises(ValueError):
            poisson_binomial_pvalue(3, [0.5, 0.5])
        with pytest.raises(ValueError):
            poisson_binomial_pvalue(1, [0.5], method="magic")

    def test_simulate_validates_before_resolving_rng(self):
        with pytest.raises(ValueError, match="s_obs"):
            poisson_binomial_pvalue(3, [0.5, 0.5], "simulate", 10, object())
        with pytest.raises(ValueError, match="n_reps"):
            poisson_binomial_pvalue(1, [0.5], "simulate", 0, object())
        with pytest.raises(TypeError, match="Rng key"):
            poisson_binomial_pvalue(1, [0.5], "simulate", 10, np.random.default_rng(0))


class TestAlarmMeasurePi:
    def interval(self):
        return (T0, T0 + day(10))

    def test_full_coverage(self):
        points = [GeoPoint(0, 0), GeoPoint(10, 10)]
        alarms = AlarmSet(
            tuple(
                Alarm(p, 100.0, T0 - day(1), T0 + day(11), 5.5) for p in points
            )
        )
        assert alarm_measure_pi(alarms, points, self.interval()) == pytest.approx(1.0)

    def test_no_spatial_overlap(self):
        alarms = AlarmSet((Alarm(GeoPoint(80, 0), 50.0, T0, T0 + day(10), 5.5),))
        points = [GeoPoint(0, 0), GeoPoint(-10, 120)]
        assert alarm_measure_pi(alarms, points, self.interval()) == 0.0

    def test_half_and_none_average(self):
        covered = GeoPoint(0, 0)
        uncovered = GeoPoint(50, 50)
        alarms = AlarmSet((Alarm(covered, 100.0, T0, T0 + day(5), 5.5),))
        pi = alarm_measure_pi(alarms, [covered, uncovered], self.interval())
        assert pi == pytest.approx(0.25)

    def test_overlapping_windows_not_double_counted(self):
        p = GeoPoint(0, 0)
        alarms = AlarmSet(
            (
                Alarm(p, 100.0, T0, T0 + day(6), 5.5),
                Alarm(p, 100.0, T0 + day(4), T0 + day(10), 5.5),
            )
        )
        assert alarm_measure_pi(alarms, [p], self.interval()) == pytest.approx(1.0)

    def test_order_invariance(self):
        points = [GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(30, 30)]
        alarms = [
            Alarm(GeoPoint(0, 0), 200.0, T0 + day(i), T0 + day(i + 2), 5.5)
            for i in range(4)
        ]
        base = alarm_measure_pi(AlarmSet(tuple(alarms)), points, self.interval())
        flipped = alarm_measure_pi(
            AlarmSet(tuple(reversed(alarms))), list(reversed(points)), self.interval()
        )
        assert base == pytest.approx(flipped, abs=1e-15)

    def test_adding_alarm_never_decreases(self):
        points = [GeoPoint(0, 0), GeoPoint(5, 5)]
        alarms = [
            Alarm(GeoPoint(0, 0), 300.0, T0 + day(1), T0 + day(3), 5.5),
            Alarm(GeoPoint(5, 5), 300.0, T0 + day(7), T0 + day(9), 5.5),
            Alarm(GeoPoint(2, 2), 500.0, T0 + day(2), T0 + day(8), 5.5),
        ]
        values = []
        for upto in range(len(alarms) + 1):
            values.append(
                alarm_measure_pi(AlarmSet(tuple(alarms[:upto])), points, self.interval())
            )
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_empty_epicenters_rejected(self):
        with pytest.raises(ValueError):
            alarm_measure_pi(AlarmSet(()), [], self.interval())

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            alarm_measure_pi(AlarmSet(()), [GeoPoint(0, 0)], (T0, T0))

    def test_covered_total_past_int64(self):
        # 30 epicenters covered through the whole datetime range hold about
        # 9.5e18 covered microseconds, more than an int64 sum holds
        p = GeoPoint(0, 0)
        interval = (datetime(1, 1, 1, tzinfo=timezone.utc), datetime.max)
        alarms = AlarmSet((Alarm(p, 100.0, *interval, 5.5),))
        assert alarm_measure_pi(alarms, [p] * 30, interval) == 1.0


class TestRScore:
    def test_perfect_prediction(self):
        outcome = GridOutcome((True, True, False, False), (True, True, False, False))
        assert r_score(outcome) == 1.0

    def test_predict_everything_scores_zero(self):
        outcome = GridOutcome((True,) * 6, (True, False, True, False, False, False))
        assert r_score(outcome) == 0.0

    def test_worked_example(self):
        # 10 cells: 2 occurred and predicted, 3 false alarms among 8 aseismic
        predicted = (True, True, True, True, True, False, False, False, False, False)
        occurred = (True, True, False, False, False, False, False, False, False, False)
        assert r_score(GridOutcome(predicted, occurred)) == pytest.approx(0.625)

    def test_zero_denominators_named(self):
        with pytest.raises(ValueError, match="no cells with earthquakes"):
            r_score(GridOutcome((True,), (False,)))
        with pytest.raises(ValueError, match="aseismic"):
            r_score(GridOutcome((True,), (True,)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GridOutcome((True,), (True, False))


class TestRScoreBaselines:
    def test_rates_match_outcomes(self):
        with pytest.raises(ValueError, match="differ in length"):
            r_score_baseline(2, [0.1, 0.2], 1, (True, False, False), 10, Rng(0))

    @pytest.mark.parametrize("observed_r", [math.nan, math.inf, -math.inf])
    def test_observed_r_must_be_finite(self, observed_r):
        # every scores >= NaN is False, so NaN once read as significant
        with pytest.raises(ValueError, match="observed_r"):
            r_score_baseline(1, None, 1, (True, False), 10, Rng(0), observed_r=observed_r)

    def test_scheme1_full_prediction_degenerate(self):
        report = r_score_baseline(
            1, None, 4, (True, False, False, True), n_reps=50, rng=Rng(0)
        )
        assert report.mean == 0.0 and report.sd == 0.0

    def test_scheme1_four_cell_expectation(self):
        report = r_score_baseline(
            1, None, 1, (True, False, False, False), n_reps=10_000, rng=Rng(1)
        )
        sigma_mean = math.sqrt((1.0 / 3.0) / 10_000)
        assert abs(report.mean) < 3 * sigma_mean

    def test_scheme2_equal_rates_coin_flips(self):
        report = r_score_baseline(
            2,
            [1.0] * 8,
            2,
            (True,) + (False,) * 7,
            n_reps=10_000,
            rng=Rng(2),
            avg_occupied_cells=4.0,
        )
        # p_j = 2/4 per cell; expected predicted cells = 0.5 * 8 = 4
        se_mean = math.sqrt(8 * 0.25 / 10_000)
        assert abs(report.mean_predicted_cells - 4.0) < 3 * se_mean
        assert report.n_clipped_probs == 0

    def test_scheme2_clipping_flagged(self):
        report = r_score_baseline(
            2,
            [10.0, 0.1],
            5,
            (True, False),
            n_reps=20,
            rng=Rng(3),
            avg_occupied_cells=1.0,
        )
        assert report.n_clipped_probs == 1

    def test_scheme3_zero_weight_cell_never_chosen(self):
        report = r_score_baseline(
            3,
            [0.0, 1.0, 1.0, 1.0],
            3,
            (True, False, False, False),
            n_reps=200,
            rng=Rng(4),
        )
        assert report.mean == pytest.approx(-1.0)
        assert report.sd == 0.0

    def test_scheme3_equal_weights_match_scheme1_expectation(self):
        report = r_score_baseline(
            3, [1.0, 1.0, 1.0, 1.0], 1, (True, False, False, False),
            n_reps=10_000, rng=Rng(5),
        )
        sigma_mean = math.sqrt((1.0 / 3.0) / 10_000)
        assert abs(report.mean) < 3 * sigma_mean

    def test_p_estimate_against_observed(self):
        report = r_score_baseline(
            1, None, 1, (True, False, False, False), n_reps=2_000, rng=Rng(6),
            observed_r=1.0,
        )
        # simulated R reaches 1 only when the single occupied cell is chosen
        assert report.p_estimate == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / 2000))

    @pytest.mark.parametrize(
        "scheme, rates, cell",
        [(2, [math.nan, 1.0, 1.0, 1.0], 0), (3, [1.0, 1.0, -1.0, 1.0], 2),
         (2, [1.0, math.inf, 1.0, 1.0], 1)],
    )
    def test_bad_rate_named(self, scheme, rates, cell):
        with pytest.raises(ValueError, match=f"rate of cell {cell} "):
            r_score_baseline(scheme, rates, 2, (True, False, True, False), 200, Rng(0))

    def test_negative_n_predicted_scheme2(self):
        with pytest.raises(ValueError, match="n_predicted -3"):
            r_score_baseline(2, [1.0] * 4, -3, (True, False, True, False), 200, Rng(0))

    def test_nan_avg_occupied_cells(self):
        with pytest.raises(ValueError, match="occupied cells"):
            r_score_baseline(
                2, [1.0] * 4, 2, (True, False, True, False), 200, Rng(0),
                avg_occupied_cells=math.nan,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            r_score_baseline(1, None, 5, (True, False), n_reps=10, rng=Rng(0))
        with pytest.raises(ValueError):
            r_score_baseline(2, None, 1, (True, False), n_reps=10, rng=Rng(0))
        with pytest.raises(ValueError):
            r_score_baseline(4, None, 1, (True, False), n_reps=10, rng=Rng(0))
        with pytest.raises(ValueError):
            r_score_baseline(1, None, 1, (True, False), n_reps=0, rng=Rng(0))


class TestCalibrationSmoke:
    def test_external_alarms_under_true_null(self):
        # alarms from one catalog, targets regenerated independently: the
        # tie-broken p-values over 60 trials should look uniform
        rng = np.random.default_rng(123)
        source = filter_catalog(random_catalog(rng, n=12, span_days=90), 5.5)
        alarms = generate_alarms(source, 5.5, radius_km=400.0, window_days=15.0)
        base = random_catalog(rng, n=40, span_days=90)
        tie_break = np.random.default_rng(77)
        pstars = []
        for trial in range(60):
            targets = filter_catalog(
                randomize_times_uniform(base, Rng(500, trial)), 5.5
            )
            report, sims = permutation_test_fixed_alarms(
                targets, alarms, 99, Rng(900, trial), return_sims=True
            )
            greater = int((sims > report.observed).sum())
            ties = int((sims == report.observed).sum())
            pstars.append((greater + tie_break.uniform() * (ties + 1)) / (99 + 1))
        assert stats.kstest(pstars, "uniform").pvalue > 0.01
