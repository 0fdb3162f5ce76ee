"""Hypothesis-test engines for alarm-based predictions.

The headline engine scores a fixed alarm set against random reassignments
of the catalog's event times (times exchangeable given locations,
magnitudes, and the predictions). The observed statistic is the number of
predicted events; the p-estimate is the plain fraction of replicates whose
simulated count reaches the observed one, with zero exceedances flagged as
"< 1/N". Also here: exact enumeration over all Q! time assignments (the
oracle for the Monte-Carlo engine), the binomial tail used with a
normalized alarm measure, Poisson-binomial tails for sums of independent
alarm successes, and the grid R-score with its three randomized baselines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import bdtrc, pdtrc

from ._random import Rng, as_key, substream
from .alarm import (
    AlarmSet,
    AlarmTargetIndex,
    FloorRule,
    _covered_us,
    generate_alarms,
    rows_within_budget,
)
from .catalog import Catalog, _to_us, filter_catalog
from .geo import GeoPoint

MAX_EXACT_EVENTS = 8

# permutation replicates per keyed random stream; changing it changes every
# seed's replicates
REPLICATE_BLOCK = 1024
# peak working bytes per (replicate, cell) of an R-score baseline block,
# measured with tracemalloc on scheme 3 (the largest): uniforms, arrivals,
# their sort order and the prediction flags
BASELINE_BYTES_PER_CELL = 32


@dataclass(frozen=True)
class TestReport:
    """Outcome of a simulation test, with enough context to rerun it.

    p_estimate is sims_geq / sim_count; when no replicate reaches the
    observed statistic it is 0.0 and p_is_upper_bound marks that the true
    p-value is below 1 / sim_count.
    """

    observed: float
    sim_count: int
    sims_geq: int
    p_estimate: float
    p_is_upper_bound: bool
    max_sim: float
    seed: int
    config: dict

    def p_display(self) -> str:
        if self.p_is_upper_bound:
            return f"<{1.0 / self.sim_count:.3g}"
        return f"{self.p_estimate:.6g}"

    def to_json_dict(self) -> dict:
        payload = asdict(self)
        payload["n_reps"] = payload.pop("sim_count")
        return payload


def _replicate_chunks(key: Rng, n_reps: int, rows_per_chunk: int):
    """Yield (lo, hi, g) over the rows of n_reps replicates: the one replicate
    stream scheme of every Monte-Carlo engine.

    Block b of REPLICATE_BLOCK rows draws from the stream keyed by (seed,
    stream_id, b), in chunks of at most rows_per_chunk rows. A caller that
    draws its chunk's rows one after another from g makes replicate r depend
    only on the key and r: not on n_reps beyond r, the chunk size or the
    evaluation order, so blocks are safe to split across workers.
    """
    chunk = min(REPLICATE_BLOCK, rows_per_chunk)
    for block_lo in range(0, n_reps, REPLICATE_BLOCK):
        g = substream(key.seed, key.stream_id, block_lo // REPLICATE_BLOCK)
        block_hi = min(block_lo + REPLICATE_BLOCK, n_reps)
        for lo in range(block_lo, block_hi, chunk):
            yield lo, min(lo + chunk, block_hi), g


def _simulated_counts(index: AlarmTargetIndex, n_reps: int, key: Rng) -> np.ndarray:
    """Predicted-event counts under n_reps random permutations of the targets' times.

    Each chunk, of the rows the index counts per call, refills one array
    with the positions ``range(n_targets)``, shuffled in place row by row;
    the draws depend neither on the values nor on the chunking, so the
    positions move as the times would.
    """
    n, step = index.n_targets, index._rows_per_call()
    counts = np.empty(n_reps, dtype=np.int64)
    rows = np.empty((min(step, REPLICATE_BLOCK, n_reps), n), dtype=np.intp)
    for lo, hi, g in _replicate_chunks(key, n_reps, step):
        chunk = rows[: hi - lo]
        chunk[:] = np.arange(n)
        g.permuted(chunk, axis=1, out=chunk)
        counts[lo:hi] = index.counts_for_time_matrix(chunk)
    return counts


def permutation_test_fixed_alarms(
    targets: Catalog,
    alarm_set: AlarmSet,
    n_reps: int,
    rng,
    config: dict | None = None,
    return_sims: bool = False,
):
    """Permutation test of a fixed alarm set against the target catalog.

    The alarms stay exactly as given; each replicate permutes the targets'
    times (locations and magnitudes fixed) and recounts predicted events
    with the max-floor membership rule. An alarm never predicts its own
    trigger under any time assignment.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    key = as_key(rng)
    index = AlarmTargetIndex(targets, alarm_set)
    observed = int(index.predicted_mask(np.arange(len(targets))).sum())
    sims = _simulated_counts(index, n_reps, key)
    sims_geq = int((sims >= observed).sum())
    report = TestReport(
        observed=float(observed),
        sim_count=n_reps,
        sims_geq=sims_geq,
        p_estimate=sims_geq / n_reps,
        p_is_upper_bound=sims_geq == 0,
        max_sim=float(sims.max()),
        seed=key.seed,
        config=dict(config or {}),
    )
    if return_sims:
        return report, sims
    return report


def permutation_test(
    catalog: Catalog,
    mag_threshold: float,
    window_days: float = 21.0,
    radius_km: float = 50.0,
    floor_rule: FloorRule = FloorRule.TRIGGER,
    n_reps: int = 1000,
    rng: Rng | int = 0,
) -> TestReport:
    """Generate alarms from the catalog once, then test them on permuted times.

    The statistic is the number of predicted events among the events at or
    above the threshold within the catalog span.
    """
    floor_rule = FloorRule(floor_rule)
    targets = filter_catalog(catalog, mag_threshold)
    alarm_set = generate_alarms(targets, mag_threshold, window_days, radius_km, floor_rule)
    key = as_key(rng)
    config = {
        "mag_threshold": mag_threshold,
        "window_days": window_days,
        "radius_km": radius_km,
        "floor_rule": floor_rule.value,
        "n_reps": n_reps,
        "seed": key.seed,
        "stream_id": key.stream_id,
        "n_targets": len(targets),
        "n_alarms": len(alarm_set),
    }
    return permutation_test_fixed_alarms(targets, alarm_set, n_reps, key, config)


def exact_permutation_pvalue(
    catalog: Catalog,
    mag_threshold: float,
    window_days: float = 21.0,
    radius_km: float = 50.0,
    floor_rule: FloorRule = FloorRule.TRIGGER,
) -> Fraction:
    """Exact p-value by enumerating every assignment of times to events.

    All Q! permutations are equally likely under the exchangeable-times
    null; the result is the exact fraction whose predicted-event count
    reaches the observed count. Guarded to Q <= 8 events, beyond which the
    enumeration is not attempted.
    """
    targets = filter_catalog(catalog, mag_threshold)
    n = len(targets)
    if n > MAX_EXACT_EVENTS:
        raise ValueError(
            f"exact enumeration guard: {n} events exceed the limit of "
            f"{MAX_EXACT_EVENTS} (use the Monte-Carlo test instead)"
        )
    alarm_set = generate_alarms(targets, mag_threshold, window_days, radius_km, floor_rule)
    perms = _all_orderings(n)
    counts = AlarmTargetIndex(targets, alarm_set).counts_for_time_matrix(perms)
    # row 0 is the identity ordering: the observed times
    return Fraction(int((counts >= counts[0]).sum()), len(perms))


def _all_orderings(n: int) -> np.ndarray:
    """The n! orderings of range(n) as rows, in itertools.permutations order:
    block v of the orderings of range(m) is v followed by the orderings of
    range(m - 1), each entry from v up shifted by one."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, n + 1):
        out = np.empty((m, len(rows), m), dtype=np.intp)
        out[:, :, 0] = np.arange(m)[:, None]
        tail = out[:, :, 1:]
        tail[...] = rows
        tail += tail >= out[:, :, :1]
        rows = out.reshape(-1, m)
    return rows


def binomial_tail_pvalue(s: int, q: int, pi: float) -> float:
    """P(X >= s) for X ~ Binomial(q, pi): the chance that s or more of q
    events fall inside alarms of normalized measure pi."""
    if s < 0 or q < 0 or s > q:
        raise ValueError(f"need 0 <= s <= q, got s={s}, q={q}")
    if not (0.0 <= pi <= 1.0):
        raise ValueError(f"pi must be in [0, 1], got {pi!r}")
    if s == 0:
        return 1.0
    return float(bdtrc(s - 1, q, pi))


def poisson_binomial_pvalue(
    s_obs: int,
    probs: Sequence[float],
    method: str = "exact_dp",
    n_reps: int = 100_000,
    rng: Rng | int = 0,
) -> float:
    """P(S >= s_obs) where S sums independent Bernoulli(p_j) alarm successes.

    Methods: ``exact_dp`` runs the O(A^2) convolution of the probability
    mass function; ``simulate`` draws the Bernoulli sums as keyed replicate
    blocks of ``rng``; ``poisson_approx`` uses a Poisson tail with mean
    sum(p_j).
    """
    if method not in ("exact_dp", "simulate", "poisson_approx"):
        raise ValueError(f"unknown method {method!r}")
    if method == "simulate" and n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probs must be a flat sequence")
    if np.any((probs < 0.0) | (probs > 1.0) | ~np.isfinite(probs)):
        raise ValueError("every probability must lie in [0, 1]")
    if s_obs < 0 or s_obs > probs.size:
        raise ValueError(f"need 0 <= s_obs <= {probs.size}, got {s_obs}")
    if s_obs == 0:
        return 1.0
    if method == "exact_dp":
        pmf = np.array([1.0])
        for p in probs:
            pmf = np.convolve(pmf, (1.0 - p, p))
        # rounding can carry the tail just past 1 when some p_j are 1
        return min(1.0, float(pmf[s_obs:].sum()))
    if method == "simulate":
        hits = 0
        # a row holds A float64 uniforms and their bool mask
        chunk = rows_within_budget(9 * probs.size)
        for lo, hi, g in _replicate_chunks(as_key(rng), n_reps, chunk):
            sums = (g.random((hi - lo, probs.size)) < probs).sum(axis=1)
            hits += int((sums >= s_obs).sum())
        return hits / n_reps
    return float(pdtrc(s_obs - 1, probs.sum()))


def alarm_measure_pi(
    alarm_set: AlarmSet,
    historical_epicenters: Sequence[GeoPoint],
    t_interval: tuple[datetime, datetime],
) -> float:
    """Normalized alarm measure: counting measure in space, uniform in time.

    For each historical epicenter, the microseconds of the interval during
    which some alarm covers that point; pi is their exact integer total over
    the interval's length times the number of epicenters, one correctly
    rounded division.
    """
    if not historical_epicenters:
        raise ValueError("historical_epicenters must be nonempty")
    t0, t1 = (_to_us(t) for t in t_interval)
    if not t0 < t1:
        raise ValueError("t_interval is empty")
    lat, lon = np.array([(p.lat, p.lon) for p in historical_epicenters], dtype=float).T
    return _covered_us(lat, lon, alarm_set, t0, t1)[1]


@dataclass(frozen=True)
class GridOutcome:
    """Per-cell prediction and occurrence flags for one evaluation period."""

    predicted: tuple[bool, ...]
    occurred: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "predicted", tuple(bool(x) for x in self.predicted))
        object.__setattr__(self, "occurred", tuple(bool(x) for x in self.occurred))
        if len(self.predicted) != len(self.occurred):
            raise ValueError("predicted and occurred must have equal length")


def _r_score_denominators(occurred: np.ndarray) -> tuple[int, int]:
    """Numbers of occupied and aseismic cells, the R-score's denominators."""
    n_occurred = int(occurred.sum())
    n_aseismic = int(occurred.size) - n_occurred
    if n_occurred == 0:
        raise ValueError("no cells with earthquakes: hit-rate denominator is zero")
    if n_aseismic == 0:
        raise ValueError("no aseismic cells: false-alarm denominator is zero")
    return n_occurred, n_aseismic


def r_score(outcome: GridOutcome) -> float:
    """Hit rate over occupied cells minus false-alarm rate over aseismic cells."""
    predicted = np.asarray(outcome.predicted, dtype=bool)
    occurred = np.asarray(outcome.occurred, dtype=bool)
    n_occurred, n_aseismic = _r_score_denominators(occurred)
    hits = int((predicted & occurred).sum())
    false_alarms = int((predicted & ~occurred).sum())
    return hits / n_occurred - false_alarms / n_aseismic


@dataclass(frozen=True)
class BaselineReport:
    """Simulated R-score distribution for one random-prediction scheme."""

    scheme: int
    n_reps: int
    mean: float
    sd: float
    quantiles: dict[str, float]
    p_estimate: float | None
    observed_r: float | None
    mean_predicted_cells: float
    n_clipped_probs: int
    seed: int
    config: dict = field(default_factory=dict)


def _scheme_probs(
    rates: np.ndarray, n_predicted: int, avg_occupied_cells: float | None
) -> tuple[np.ndarray, int]:
    """Per-cell prediction probabilities proportional to historical rates.

    The proportionality constant is n_predicted over the historical annual
    average number of occupied cells; when that average is not supplied it
    is estimated as sum(1 - exp(-rate)) from per-year rates. Probabilities
    pushed past 1 are clipped and counted.
    """
    if avg_occupied_cells is None:
        avg_occupied_cells = float(np.sum(1.0 - np.exp(-rates)))
    if not (np.isfinite(avg_occupied_cells) and avg_occupied_cells > 0.0):
        raise ValueError(f"average occupied cells {avg_occupied_cells} not positive and finite")
    raw = rates * (n_predicted / avg_occupied_cells)
    clipped = int((raw > 1.0).sum())
    return np.clip(raw, 0.0, 1.0), clipped


def _draw_predicted(
    g: np.random.Generator,
    scheme: int,
    rows: int,
    n_cells: int,
    n_predicted: int,
    probs: np.ndarray | None,
) -> np.ndarray:
    """Prediction flags, shape (rows, n_cells), of a block of baseline replicates."""
    u = g.random((rows, n_cells))
    if scheme == 2:
        return u < probs
    if scheme == 1:
        order = np.argsort(u, axis=1)
    else:
        # exponential keys (Efraimidis & Spirakis 2006): cells ordered by
        # arrival E / p, E ~ Exp(1), come out in the order of sequential
        # draws renormalised among the remaining cells; zero-weight cells
        # arrive last, in uniform order by u
        arrival = np.full_like(u, np.inf)
        np.divide(-np.log1p(-u), probs, out=arrival, where=probs > 0.0)
        order = np.lexsort((u, arrival), axis=-1)
    predicted = np.zeros((rows, n_cells), dtype=bool)
    np.put_along_axis(predicted, order[:, :n_predicted], True, axis=1)
    return predicted


def r_score_baseline(
    scheme: int,
    rates: Sequence[float] | None,
    n_predicted: int,
    outcomes: Sequence[bool],
    n_reps: int,
    rng: Rng | int,
    observed_r: float | None = None,
    avg_occupied_cells: float | None = None,
) -> BaselineReport:
    """Simulate the R-score of random predictions against fixed outcomes.

    Scheme 1 predicts n_predicted cells uniformly without replacement;
    scheme 2 tosses an independent coin per cell with probability
    proportional to its historical rate; scheme 3 draws n_predicted cells
    without replacement with those same probabilities as weights
    (sequential renormalized draws, sampled by exponential keys). Replicates
    are drawn as keyed blocks of ``rng``, like permutation replicates. Rates
    must be finite and nonnegative, and n_predicted nonnegative.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    occurred = np.asarray(outcomes, dtype=bool)
    n_cells = occurred.size
    if scheme not in (1, 2, 3):
        raise ValueError(f"scheme must be 1, 2, or 3, got {scheme!r}")
    # scheme 2 predicts each cell by its own coin, so only its sign is bounded
    upper = n_cells if scheme in (1, 3) else np.inf
    if not 0 <= n_predicted <= upper:
        raise ValueError(f"n_predicted {n_predicted} outside [0, {upper}]")
    probs = None
    n_clipped = 0
    if scheme in (2, 3):
        if rates is None:
            raise ValueError(f"scheme {scheme} needs per-cell historical rates")
        rates_arr = np.asarray(rates, dtype=float)
        if rates_arr.size != n_cells:
            raise ValueError("rates and outcomes differ in length")
        bad = np.flatnonzero(~np.isfinite(rates_arr) | (rates_arr < 0.0))
        if bad.size:
            raise ValueError(f"rate of cell {bad[0]} is {rates_arr[bad[0]]}, not finite and >= 0")
        probs, n_clipped = _scheme_probs(rates_arr, n_predicted, avg_occupied_cells)

    if observed_r is not None and not np.isfinite(observed_r):
        raise ValueError(f"observed_r must be finite, got {observed_r!r}")
    n_occurred, n_aseismic = _r_score_denominators(occurred)

    key = as_key(rng)
    hits = np.empty(n_reps, dtype=np.int64)
    n_predicted_cells = np.empty(n_reps, dtype=np.int64)
    chunk = rows_within_budget(BASELINE_BYTES_PER_CELL * n_cells)
    for lo, hi, g in _replicate_chunks(key, n_reps, chunk):
        predicted = _draw_predicted(g, scheme, hi - lo, n_cells, n_predicted, probs)
        n_predicted_cells[lo:hi] = predicted.sum(axis=1)
        hits[lo:hi] = (predicted & occurred).sum(axis=1)
    # r_score's expression, row by row
    scores = hits / n_occurred - (n_predicted_cells - hits) / n_aseismic

    quantile_levels = {"q025": 0.025, "q25": 0.25, "q50": 0.5, "q75": 0.75, "q975": 0.975}
    return BaselineReport(
        scheme=scheme,
        n_reps=n_reps,
        mean=float(scores.mean()),
        sd=float(scores.std(ddof=1)) if n_reps > 1 else 0.0,
        quantiles={k: float(np.quantile(scores, q)) for k, q in quantile_levels.items()},
        p_estimate=(
            float((scores >= observed_r).mean()) if observed_r is not None else None
        ),
        observed_r=observed_r,
        mean_predicted_cells=float(n_predicted_cells.mean()),
        n_clipped_probs=n_clipped,
        seed=key.seed,
        config={
            "scheme": scheme,
            "n_predicted": n_predicted,
            "n_cells": n_cells,
            "avg_occupied_cells": avg_occupied_cells,
            "sampling": "sequential-renormalized" if scheme == 3 else None,
        },
    )
