"""The replicate engines: permutation replicates, R-score baselines and the
simulated Poisson-binomial tail, all drawn in blocks keyed by (seed, stream,
block), against their stream properties, the memory budget and the
sequential weighted-sampling oracle."""

from collections import Counter

import numpy as np
import pytest
from scipy import stats

import eqalarm._random
import eqalarm.alarm
import eqalarm.sigtests
from eqalarm import (
    AlarmTargetIndex,
    GridOutcome,
    Rng,
    filter_catalog,
    generate_alarms,
    poisson_binomial_pvalue,
    r_score,
    r_score_baseline,
)
from eqalarm._random import substream
from eqalarm.sigtests import (
    REPLICATE_BLOCK,
    _draw_predicted,
    _scheme_probs,
    _simulated_counts,
)

import oracles
from conftest import make_catalog, random_catalog, traced_peak

BUDGET = 2 * 2**20


def _sims(targets, alarms, n_reps, key=Rng(77, 3)):
    return _simulated_counts(AlarmTargetIndex(targets, alarms), n_reps, key)


@pytest.fixture(scope="module")
def small_case():
    rng = np.random.default_rng(41)
    targets = filter_catalog(random_catalog(rng, n=30, span_days=60.0), 5.5)
    return targets, generate_alarms(targets, 5.5, radius_km=200.0, window_days=10.0)


@pytest.fixture(scope="module")
def two_thousand_targets():
    """2000 clustered targets, their alarms and 1100 replicate counts."""
    rng = np.random.default_rng(8)
    centers = rng.uniform(-50.0, 50.0, size=(400, 2))
    rows = [
        (float(rng.uniform(0.0, 300.0)), float(lat), float(lon), float(rng.uniform(5.5, 7.0)))
        for lat, lon in centers[rng.integers(400, size=2000)] + rng.normal(0.0, 0.2, (2000, 2))
    ]
    targets = make_catalog(rows, span_days=301.0)
    alarms = generate_alarms(targets, 5.5)
    return targets, alarms, _sims(targets, alarms, 1100)


OUTCOMES = tuple(bool(x) for x in np.random.default_rng(12).random(3000) < 0.2)
RATES = np.random.default_rng(13).gamma(0.5, 0.2, size=3000)
PROBS = np.random.default_rng(14).uniform(0.0, 0.2, size=40)


class RecordingGenerator:
    """Passes draws through from a Generator and keeps a copy of each."""

    def __init__(self, g, drawn):
        self._g, self._drawn = g, drawn

    def random(self, *args, **kwargs):
        out = self._g.random(*args, **kwargs)
        self._drawn.append(out.copy())
        return out

    def permuted(self, *args, **kwargs):
        out = self._g.permuted(*args, **kwargs)
        self._drawn.append(out.copy())
        return out


ENGINES = {
    "permutation": lambda case, n: _sims(*case, n),
    **{
        f"rscore{s}": lambda case, n, s=s: r_score_baseline(
            s, None if s == 1 else RATES[:200], 40, OUTCOMES[:200], n, Rng(21, s)
        )
        for s in (1, 2, 3)
    },
    "pbinom": lambda case, n: poisson_binomial_pvalue(4, PROBS, "simulate", n, Rng(23)),
}


def _replicates(engine, case, n_reps, monkeypatch):
    """An engine's result and its replicates' draws, one row per replicate."""
    drawn = []
    with monkeypatch.context() as patch:
        patch.setattr(
            eqalarm.sigtests,
            "substream",
            lambda *key: RecordingGenerator(eqalarm._random.substream(*key), drawn),
        )
        result = ENGINES[engine](case, n_reps)
    return result, np.concatenate(drawn)


@pytest.mark.parametrize("engine", ENGINES)
class TestReplicateStreams:
    def test_prefix_across_block_edges(self, engine, small_case, monkeypatch):
        full = _replicates(engine, small_case, 3000, monkeypatch)[1]
        assert full.shape[0] == 3000 and np.unique(full, axis=0).shape[0] > 2
        for m in (1, REPLICATE_BLOCK - 1, REPLICATE_BLOCK, REPLICATE_BLOCK + 1, 2500):
            assert np.array_equal(_replicates(engine, small_case, m, monkeypatch)[1], full[:m]), m

    def test_budget_does_not_change_replicates(self, engine, small_case, monkeypatch):
        result, full = _replicates(engine, small_case, 3000, monkeypatch)
        # one block per chunk, chunks that do not divide a block, one row per chunk
        for budget in (BUDGET, 100_000, 1):
            monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
            again, rows = _replicates(engine, small_case, 3000, monkeypatch)
            assert np.array_equal(rows, full), budget
            np.testing.assert_equal(again, result)


class TestPermutationReplicates:
    def test_every_row_is_a_permutation_of_the_times(self, small_case, monkeypatch):
        targets, alarms = small_case
        rows = []
        counts = AlarmTargetIndex.counts_for_time_matrix

        def spy(index, matrix):
            rows.append(np.array(matrix))
            return counts(index, matrix)

        monkeypatch.setattr(AlarmTargetIndex, "counts_for_time_matrix", spy)
        _sims(targets, alarms, 2500)
        rows = np.concatenate(rows)
        # the kernel gets positions into the sorted times
        times = targets.rows["time_us"]
        assert rows.shape == (2500, times.size)
        assert np.array_equal(np.sort(rows, axis=1), np.tile(np.arange(times.size), (2500, 1)))
        assert np.unique(times[rows], axis=0).shape[0] == 2500

    def test_memory_budget_at_two_thousand_targets(self, two_thousand_targets, monkeypatch):
        targets, alarms, expected = two_thousand_targets
        # a whole block of tiled times alone would take 16 MB
        assert 8 * len(targets) * REPLICATE_BLOCK > 4 * BUDGET
        index = AlarmTargetIndex(targets, alarms)
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", BUDGET)
        sims, peak = traced_peak(lambda: _simulated_counts(index, 1100, Rng(77, 3)))
        # the position rows and the count kernel share one budget
        assert peak <= BUDGET + BUDGET // 8 + sims.nbytes
        assert np.array_equal(sims, expected)
        assert np.unique(sims).size > 2

    def test_kept_table_at_two_thousand_targets(self, two_thousand_targets):
        targets, alarms, expected = two_thousand_targets
        index = AlarmTargetIndex(targets, alarms)
        # every paired target reaches the threshold floor at some position
        assert index._scoring.size == np.unique(index._pk).size == 1933
        assert index._block(REPLICATE_BLOCK) >= index._scoring.size
        sims, peak = traced_peak(lambda: _simulated_counts(index, 1000, Rng(77, 3)))
        # the kept verdict table of 1933 scoring targets x 2000 B and the
        # positions and gathers of one cache-sized chunk; a block of positions
        # alone would take 16 MB
        assert peak <= 12 * 10**6
        assert np.array_equal(sims, expected[:1000])

    def test_count_call_sizes_at_two_thousand_targets(self, two_thousand_targets, monkeypatch):
        targets, alarms, expected = two_thousand_targets
        index = AlarmTargetIndex(targets, alarms)
        sizes = []
        counts = AlarmTargetIndex.counts_for_time_matrix

        def spy(index, matrix):
            sizes.append(len(matrix))
            return counts(index, matrix)

        monkeypatch.setattr(AlarmTargetIndex, "counts_for_time_matrix", spy)
        # cache-sized calls against the kept table, then calls of positions
        # of half the budget once the table is split into blocks
        for budget, kept, calls in (
            (eqalarm.alarm.MEMORY_BUDGET_BYTES, True, [125] * 8 + [24, 76]),
            (BUDGET, False, [65] * 15 + [49, 65, 11]),
        ):
            monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
            sizes.clear()
            assert np.array_equal(_simulated_counts(index, 1100, Rng(77, 3)), expected)
            assert sizes == calls, budget
            assert (index._table is not None) == kept


class TestRScoreBaselineBlocks:
    @pytest.mark.parametrize("scheme", [1, 2, 3])
    def test_budget_does_not_change_report(self, scheme, monkeypatch):
        rates = None if scheme == 1 else RATES
        report = r_score_baseline(scheme, rates, 40, OUTCOMES, 300, Rng(21, scheme))
        # budgets of a few rows per block and of one row per block
        for budget in (BUDGET, 1):
            monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
            assert r_score_baseline(scheme, rates, 40, OUTCOMES, 300, Rng(21, scheme)) == report

    @pytest.mark.parametrize("scheme", [1, 2, 3])
    def test_rows_scored_like_r_score(self, scheme):
        outcomes = OUTCOMES[:50]
        rates = None if scheme == 1 else RATES[:50]
        report = r_score_baseline(
            scheme, rates, 8, outcomes, 200, Rng(22, scheme), avg_occupied_cells=10.0
        )
        probs = None if scheme == 1 else _scheme_probs(RATES[:50], 8, 10.0)[0]
        # 200 replicates are one chunk of block 0
        rows = _draw_predicted(substream(22, scheme, 0), scheme, 200, 50, 8, probs)
        scores = np.array([r_score(GridOutcome(row, outcomes)) for row in rows])
        assert report.mean == scores.mean()
        assert report.quantiles["q50"] == np.quantile(scores, 0.5)
        assert report.mean_predicted_cells == rows.sum(axis=1).mean()

    def test_denominator_errors_before_drawing(self):
        # the rng is resolved after validation, so even a value that is no
        # key loses to the ValueError
        with pytest.raises(ValueError, match="no cells with earthquakes"):
            r_score_baseline(1, None, 1, (False, False), 10, object())
        with pytest.raises(ValueError, match="aseismic"):
            r_score_baseline(1, None, 1, (True, True), 10, object())
        with pytest.raises(TypeError, match="Rng key"):
            r_score_baseline(1, None, 1, (True, False), 10, np.random.default_rng(0))


SCHEME3_CASES = [
    ([0.0, 0.1, 0.5, 0.9, 0.3, 0.0], 5),
    ([0.0, 0.1, 0.5, 0.9, 0.3, 0.0], 2),
    ([0.2, 0.2, 1.0, 0.05], 2),
    ([0.0, 0.0, 0.4, 0.4, 1.0], 4),
    ([0.3, 0.3, 0.3], 3),
]


def _set_frequencies(chosen_rows, n_cells):
    """Counter of chosen sets, each as a bit code over the cells."""
    return Counter((np.asarray(chosen_rows, dtype=np.int64) @ (1 << np.arange(n_cells))).tolist())


def _chi_square_pvalue(counts: Counter, expected: dict, n_rows: int) -> float:
    codes = {sum(1 << i for i in s): p for s, p in expected.items()}
    assert set(counts) <= set(codes), "a set of probability zero was drawn"
    observed = [counts.get(c, 0) for c in codes]
    if len(codes) == 1:
        return 1.0
    return stats.chisquare(observed, [p * n_rows for p in codes.values()]).pvalue


class TestScheme3Sampling:
    @pytest.mark.parametrize("weights,k", SCHEME3_CASES)
    def test_set_frequencies_match_sequential_draws(self, weights, k):
        expected = oracles.sequential_set_probabilities(weights, k)
        assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)
        n_rows = 400_000
        predicted = _draw_predicted(
            Rng(2006).generator(), 3, n_rows, len(weights), k, np.array(weights)
        )
        assert (predicted.sum(axis=1) == k).all()
        counts = _set_frequencies(predicted, len(weights))
        assert _chi_square_pvalue(counts, expected, n_rows) > 1e-3

    @pytest.mark.parametrize("weights,k", SCHEME3_CASES)
    def test_zero_weight_cells_wait_for_positive_weight(self, weights, k):
        weights = np.array(weights)
        predicted = _draw_predicted(Rng(2007).generator(), 3, 20_000, weights.size, k, weights)
        n_positive = int((weights > 0).sum())
        if k <= n_positive:
            assert not predicted[:, weights == 0].any()
        else:
            assert predicted[:, weights > 0].all()

    @pytest.mark.parametrize("weights,k", SCHEME3_CASES[:3])
    def test_oracle_sampler_matches_exact_probabilities(self, weights, k):
        g = np.random.default_rng(2008)
        n_rows = 4000
        picks = np.zeros((n_rows, len(weights)), dtype=bool)
        for row in picks:
            row[oracles.weighted_sample_without_replacement(np.array(weights), k, g)] = True
        counts = _set_frequencies(picks, len(weights))
        expected = oracles.sequential_set_probabilities(weights, k)
        assert _chi_square_pvalue(counts, expected, n_rows) > 1e-3
