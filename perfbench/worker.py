"""Run one benchmark workload against eqalarm in this process.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``; it refuses an eqalarm imported from anywhere else.
A workload is a fixed batch of operations (one *pass*). After one warm-up
pass the worker repeats passes until ``--seconds`` have elapsed; each
operation is timed between two runs of the reference loop (``refloop.py``)
and reported in its units, as the median over the passes, and every output
is checked against the independent oracle after the pass's clock has
stopped. With ``--trace 1`` passes
alternate between untraced and traced, so the per-layer numbers and the
tracing overhead come from the same process. The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

import catalogs
import oracle
from refloop import Reference, scaled
from spans import Tracer

import eqalarm
import eqalarm.cli
from eqalarm.decluster import WindowRow, WindowTable
from eqalarm.geo import LatLonBox

SEED_KEY = 20002004


def _window(t0_s: int, t1_s: int) -> tuple[datetime, datetime]:
    return datetime.fromtimestamp(t0_s, timezone.utc), datetime.fromtimestamp(t1_s, timezone.utc)


class Workload:
    """A fixed batch of operations; ``ops()`` yields (call, check) pairs.

    ``check(result)`` returns a list of problems (empty when correct).
    """

    replicates_per_pass = 0

    def ops(self):
        raise NotImplementedError


class Table1(Workload):
    """``eqalarm table1 --format ndk --deterministic --reps 1000`` in-process."""

    REPS = 1000

    def __init__(self, inputs: Path, expected: dict, work: Path):
        self.out = work / "table1.csv"
        self.argv = [
            "table1", "--input", str(inputs / "cmt.ndk"), "--format", "ndk",
            "--deterministic", "--reps", str(self.REPS), "--out", str(self.out),
        ]
        self.expected = expected["table1"]
        self.first: bytes | None = None
        self.replicates_per_pass = len(self.expected) * self.REPS

    def ops(self):
        yield self._invoke, self._check

    def _invoke(self):
        with contextlib.redirect_stderr(io.StringIO()):
            return eqalarm.cli.main(self.argv)

    def _check(self, rc) -> list[str]:
        if rc != 0:
            return [f"table1 exited with {rc}"]
        data = self.out.read_bytes()
        if self.first is not None:
            return [] if data == self.first else ["table1 CSV differs from the first repeat"]
        self.first = data
        return check_table1_csv(data.decode("utf-8"), self.expected, self.REPS)


def check_table1_csv(text: str, expected: list[dict], reps: int) -> list[str]:
    lines = text.splitlines()
    if lines[0] != "year,mag_threshold,events,succ,succ_wo,max_sim,p_est,v":
        return [f"bad table1 header {lines[0]!r}"]
    if len(lines) != len(expected) + 1:
        return [f"table1 has {len(lines) - 1} rows, expected {len(expected)}"]
    problems = []
    for line, want in zip(lines[1:], expected):
        label, mag, events, succ, succ_wo, max_sim, p_est, v = line.split(",")
        got = {"events": int(events), "succ": int(succ), "succ_wo": int(succ_wo)}
        for key, value in got.items():
            if value != want[key]:
                problems.append(f"{label} M{mag} {key}={value}, oracle {want[key]}")
        if label != want["label"] or float(mag) != want["threshold"]:
            problems.append(f"row {label},{mag} out of order")
        # stream-dependent columns get range checks only
        if not 0 <= int(max_sim) <= want["events"]:
            problems.append(f"{label} M{mag} max_sim={max_sim} outside [0, events]")
        if p_est.startswith("<"):
            if p_est != f"<{1.0 / reps:.3g}":
                problems.append(f"{label} M{mag} p_est bound {p_est}")
        elif not 0.0 <= float(p_est) <= 1.0:
            problems.append(f"{label} M{mag} p_est={p_est} outside [0, 1]")
        exponent = math.floor(math.log10(want["v"])) if want["v"] > 0 else 0
        if abs(float(v) - want["v"]) > 0.5 * 10.0 ** (exponent - 1) * (1 + 1e-9):
            problems.append(f"{label} M{mag} v={v}, oracle {want['v']:.4e}")
    return problems


class TestSmallQ(Workload):
    """Significance tests on small clustered regional catalogs."""

    def __init__(self, inputs: Path, expected: dict, work: Path):
        self.threshold = expected["regional_threshold"]
        self.cases = []
        for i, entry in enumerate(expected["regional"]):
            catalog = eqalarm.parse_ndk((inputs / entry["file"]).read_bytes())
            self.cases.append((i, catalog, entry))
        self.replicates_per_pass = sum(e["reps"] for _, _, e in self.cases)

    def ops(self):
        for i, catalog, entry in self.cases:
            if "exact" in entry:
                yield (
                    lambda c=catalog: eqalarm.exact_permutation_pvalue(c, self.threshold),
                    lambda p, e=entry: check_exact(p, e),
                )
            yield (
                lambda c=catalog, e=entry, i=i: eqalarm.permutation_test(
                    c, self.threshold, n_reps=e["reps"], rng=eqalarm.Rng(SEED_KEY, i)
                ),
                lambda report, e=entry: check_permutation(report, e),
            )


def check_exact(p: Fraction, entry: dict) -> list[str]:
    want = Fraction(*entry["exact"])
    return [] if p == want else [f"{entry['file']}: exact p {p}, oracle {want}"]


def check_permutation(report, entry: dict) -> list[str]:
    problems = []
    n = entry["reps"]
    if report.observed != entry["observed"]:
        problems.append(f"{entry['file']}: observed {report.observed}, oracle {entry['observed']}")
    if report.sim_count != n or not 0 <= report.sims_geq <= n:
        problems.append(f"{entry['file']}: {report.sims_geq} of {report.sim_count} replicates")
    if report.p_estimate != report.sims_geq / n or report.p_is_upper_bound != (
        report.sims_geq == 0
    ):
        problems.append(f"{entry['file']}: p_estimate inconsistent with sims_geq")
    if not 0 <= report.max_sim <= entry["q"]:
        problems.append(f"{entry['file']}: max_sim {report.max_sim} outside [0, Q]")
    if "exact" in entry:
        exact = entry["exact"][0] / entry["exact"][1]
        se = math.sqrt(exact * (1.0 - exact) / n) + 1.0 / n
        if abs(report.p_estimate - exact) > 5.0 * se:
            problems.append(
                f"{entry['file']}: p {report.p_estimate} more than 5 SE from exact {exact:.4g}"
            )
    return problems


class Toolbox(Workload):
    """One call each of the rest of the public toolbox on the 1x catalog."""

    GRID_DEG = 30
    RSCORE_REPS = 500
    PBINOM_REPS = 20_000
    UNION_SAMPLES = 100_000
    MEASURE_EPICENTERS = 100
    GAMMA_MEAN_S = 3600.0
    ALARMS_55 = 300  # at scale 1 the 2004 rows hold about 445 and 207 events
    ALARMS_58 = 150
    N_PREDICTED = 20

    def __init__(self, inputs: Path, expected: dict, work: Path):
        ea = eqalarm
        self.catalog = ea.parse_ndk((inputs / "cmt.ndk").read_bytes())
        self.deleted = expected["decluster"]
        self.windows = WindowTable(
            tuple(
                WindowRow(-math.inf if m is None else m / 10.0, days, km)
                for m, days, km in catalogs.WINDOWS
            )
        )
        self.span = _window(catalogs.SPAN_START_S, catalogs.SPAN_END_S)
        self.hist_window = _window(catalogs.SPAN_START_S, catalogs.YEAR_2004_S)
        self.year = _window(catalogs.YEAR_2004_S, catalogs.SPAN_END_S)
        self.history = ea.filter_catalog(self.catalog, 5.5, self.hist_window)
        year_55 = ea.filter_catalog(self.catalog, 5.5, self.year)
        year_58 = ea.filter_catalog(self.catalog, 5.8, self.year)
        self.marks = year_58
        # fixed alarm counts, so the cost of a call does not vary with the seed
        first_55 = year_55.with_events(year_55.events[: self.ALARMS_55])
        first_58 = year_58.with_events(year_58.events[: self.ALARMS_58])
        self.alarms_55 = ea.generate_alarms(first_55, 5.5, floor_rule=ea.FloorRule.TRIGGER)
        self.alarms_58 = ea.generate_alarms(first_58, 5.8, floor_rule=ea.FloorRule.TRIGGER)
        self.year_volume = ea.StudyVolume(ea.GlobalSphere(), *self.year)
        step = max(1, len(self.history) // self.MEASURE_EPICENTERS)
        self.epicenters = [e.epicenter for e in self.history.events[::step]][
            : self.MEASURE_EPICENTERS
        ]

        deg = self.GRID_DEG
        self.cells = [
            LatLonBox(la, la + deg, lo, lo + deg)
            for la in range(-90, 90, deg)
            for lo in range(-180, 180, deg)
        ]
        hist_counts = np.bincount(self.cell_of(self.history), minlength=len(self.cells))
        years = (catalogs.YEAR_2004_S - catalogs.SPAN_START_S) / (365.25 * 86400.0)
        self.rates_per_year = hist_counts / years
        self.outcomes = np.bincount(self.cell_of(year_55), minlength=len(self.cells)) > 0
        self.n_predicted = min(self.N_PREDICTED, len(self.cells) // 2)
        self.grid = ea.CellGrid(tuple(self.cells), tuple(self.rates_per_year / (365.25 * 86400.0)))

        # per-alarm success chance from its cell's historical rate over the cap and window
        cap_fraction = ea.cap_area_km2(50.0) / np.array([c.area_km2 for c in self.cells])
        alarm_cells = first_cell(
            self.cells,
            np.array([a.center.lat for a in self.alarms_55]),
            np.array([a.center.lon for a in self.alarms_55]),
        )
        lam = (self.rates_per_year * cap_fraction)[alarm_cells] * 21.0 / 365.25
        self.probs = 1.0 - np.exp(-lam)
        self.s_obs = int(min(len(self.probs), max(1, round(float(self.probs.sum())))))
        self.replicates_per_pass = 3 * self.RSCORE_REPS + self.PBINOM_REPS
        self.pbinom_exact: float | None = None

    def ops(self):
        ea, cat = eqalarm, self.catalog
        state = {}

        def keep(key, fn):
            def call():
                state[key] = fn()
                return state[key]
            return call

        yield keep("default", lambda: ea.decluster(cat, self.windows)), (
            lambda r: self._check_decluster(r, "default")
        )
        yield keep("retained", lambda: ea.decluster(cat, self.windows, retained_only=True)), (
            lambda r: self._check_decluster(r, "retained")
        )
        for mode in ("default", "retained"):
            yield (
                lambda m=mode: ea.decluster_stats(cat, state[m].catalog),
                lambda r, m=mode: self._check_stats(r, m),
            )
        yield lambda: ea.permute_times(cat, ea.Rng(SEED_KEY, 1)), self._check_permuted
        yield (
            lambda: ea.historical_cell_rates(self.history, self.cells),
            self._check_rates,
        )
        yield (
            lambda: ea.gen_heterogeneous_poisson(
                self.grid, self.year, self.marks, ea.Rng(SEED_KEY, 2)
            ),
            self._check_het_poisson,
        )
        yield (
            lambda: ea.gen_gamma_renewal(0.5, self.GAMMA_MEAN_S, self.span, ea.Rng(SEED_KEY, 3)),
            self._check_gamma,
        )
        for scheme in (1, 2, 3):
            yield (
                lambda s=scheme: ea.r_score_baseline(
                    s, self.rates_per_year, self.n_predicted, self.outcomes,
                    self.RSCORE_REPS, ea.Rng(SEED_KEY, 10 + s),
                ),
                lambda r, s=scheme: self._check_rscore(r, s),
            )
        yield (
            lambda: ea.alarm_measure_pi(self.alarms_58, self.epicenters, self.year),
            self._check_measure_pi,
        )
        yield (
            lambda: ea.union_volume_fraction_mc(
                self.alarms_55, self.year_volume, self.UNION_SAMPLES, ea.Rng(SEED_KEY, 4)
            ),
            self._check_union,
        )
        yield (
            lambda: ea.poisson_binomial_pvalue(self.s_obs, self.probs, "exact_dp"),
            self._check_pbinom_exact,
        )
        yield (
            lambda: ea.poisson_binomial_pvalue(
                self.s_obs, self.probs, "simulate", self.PBINOM_REPS, ea.Rng(SEED_KEY, 5)
            ),
            self._check_pbinom_sim,
        )

    def cell_of(self, cat) -> np.ndarray:
        return first_cell(self.cells, cat.latitudes(), cat.longitudes())

    def _check_decluster(self, result, mode) -> list[str]:
        want = self.deleted[mode]
        got = list(result.deleted_indices)
        if got != want:
            return [f"decluster {mode}: {len(got)} deleted, oracle {len(want)}"]
        if len(result.catalog) != len(self.catalog) - len(want):
            return [f"decluster {mode}: retained catalog has the wrong size"]
        return []

    def _check_stats(self, result, mode) -> list[str]:
        n = len(self.deleted[mode])
        if result != (n, n / len(self.catalog)):
            return [f"decluster_stats {mode}: {result}, oracle {n}"]
        return []

    def _check_permuted(self, permuted) -> list[str]:
        def marks(cat):
            return Counter(
                (e.epicenter, e.depth_km, e.mb, e.ms, e.source_id) for e in cat.events
            )

        times = [e.time for e in permuted.events]
        problems = []
        if times != sorted(times):
            problems.append("permute_times: times not sorted")
        if sorted(times) != sorted(e.time for e in self.catalog.events):
            problems.append("permute_times: multiset of times changed")
        if marks(permuted) != marks(self.catalog):
            problems.append("permute_times: multiset of marks changed")
        return problems

    def _check_rates(self, grid) -> list[str]:
        counts = np.bincount(self.cell_of(self.history), minlength=len(self.cells))
        duration = (self.hist_window[1] - self.hist_window[0]).total_seconds()
        got = np.array(grid.rates_per_s) * duration
        if not np.allclose(got, counts, rtol=1e-9, atol=1e-6):
            return ["historical_cell_rates: per-cell counts differ from the oracle"]
        return []

    def _check_het_poisson(self, cat) -> list[str]:
        times = cat.times_s()
        t0, t1 = (t.timestamp() for t in self.year)
        mean = sum(self.grid.rates_per_s) * (t1 - t0)
        problems = []
        if np.any(np.diff(times) < 0) or times.size and (times[0] < t0 or times[-1] > t1):
            problems.append("gen_heterogeneous_poisson: times unsorted or outside the interval")
        if abs(len(cat) - mean) > 8.0 * math.sqrt(mean) + 1:
            problems.append(f"gen_heterogeneous_poisson: {len(cat)} events, mean {mean:.0f}")
        if not {e.mb for e in cat.events} <= {e.mb for e in self.marks.events}:
            problems.append("gen_heterogeneous_poisson: magnitude not from the marks")
        return problems

    def _check_gamma(self, instants) -> list[str]:
        t0, t1 = self.span
        horizon = (t1 - t0).total_seconds()
        mean = horizon / self.GAMMA_MEAN_S
        sd = math.sqrt(mean / 0.5)  # renewal count variance: horizon * cv^2 / mean gap
        problems = []
        if instants != sorted(instants) or (instants and not t0 < instants[0] <= instants[-1] <= t1):
            problems.append("gen_gamma_renewal: instants unsorted or outside the interval")
        if abs(len(instants) - mean) > 8.0 * sd:
            problems.append(f"gen_gamma_renewal: {len(instants)} instants, mean {mean:.0f}")
        return problems

    def _check_rscore(self, report, scheme) -> list[str]:
        q = report.quantiles
        problems = []
        if report.n_reps != self.RSCORE_REPS or not -1.0 <= report.mean <= 1.0:
            problems.append(f"r_score_baseline {scheme}: mean {report.mean} or reps wrong")
        if not q["q025"] <= q["q25"] <= q["q50"] <= q["q75"] <= q["q975"]:
            problems.append(f"r_score_baseline {scheme}: quantiles not monotone")
        if scheme != 2 and report.mean_predicted_cells != self.n_predicted:
            problems.append(f"r_score_baseline {scheme}: wrong number of predicted cells")
        return problems

    def _check_measure_pi(self, pi) -> list[str]:
        want = measure_pi_oracle(self.alarms_58, self.epicenters, self.year)
        return [] if abs(pi - want) <= 1e-9 else [f"alarm_measure_pi {pi}, oracle {want}"]

    def _check_union(self, est) -> list[str]:
        bound = min(1.0, eqalarm.alarm_volume_fraction(self.alarms_55, self.year_volume))
        if est.n_samples != self.UNION_SAMPLES or not 0.0 < est.estimate <= bound + 5 * est.stderr:
            return [f"union_volume_fraction_mc {est.estimate} outside (0, {bound:.3g}]"]
        return []

    def _check_pbinom_exact(self, p) -> list[str]:
        self.pbinom_exact = p
        return [] if 0.0 <= p <= 1.0 else [f"poisson_binomial exact_dp {p} outside [0, 1]"]

    def _check_pbinom_sim(self, p) -> list[str]:
        exact = self.pbinom_exact
        se = math.sqrt(exact * (1.0 - exact) / self.PBINOM_REPS) + 1.0 / self.PBINOM_REPS
        if abs(p - exact) > 5.0 * se:
            return [f"poisson_binomial simulate {p} more than 5 SE from exact_dp {exact}"]
        return []


def first_cell(cells, lat, lon) -> np.ndarray:
    """Index of the first cell containing each point (shared edges go first)."""
    lat, lon = np.asarray(lat, dtype=float), np.asarray(lon, dtype=float)
    found = np.full(lat.size, -1, dtype=np.int64)
    for j, c in enumerate(cells):
        inside = (lat >= c.lat_min) & (lat <= c.lat_max)
        inside &= np.mod(lon - c.lon_min, 360.0) <= c.lon_width_deg
        found[(found < 0) & inside] = j
    return found


def measure_pi_oracle(alarm_set, epicenters, interval) -> float:
    """Mean covered share of the interval per epicenter, by merging intervals."""
    t0, t1 = (t.timestamp() for t in interval)
    a_lat = np.array([a.center.lat for a in alarm_set])
    a_lon = np.array([a.center.lon for a in alarm_set])
    lo = np.maximum([a.t_start.timestamp() for a in alarm_set], t0)
    hi = np.minimum([a.t_end.timestamp() for a in alarm_set], t1)
    radius = np.array([a.radius_km for a in alarm_set])
    shares = []
    for p in epicenters:
        near = oracle.haversine_km(a_lat, a_lon, p.lat, p.lon) <= radius
        use = near & (hi > lo)
        order = np.argsort(lo[use], kind="stable")
        starts, ends = lo[use][order], hi[use][order]
        covered, reach = 0.0, -math.inf
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e > reach:
                covered += e - max(s, reach)
                reach = e
        shares.append(covered / (t1 - t0))
    return float(np.mean(shares))


WORKLOADS = {"table1": Table1, "test-smallq": TestSmallQ, "toolbox": Toolbox}


class Runner:
    """Times the passes of one workload and checks every operation."""

    def __init__(self, workload: Workload, tracer: Tracer | None):
        self.workload = workload
        self.tracer = tracer
        self.reference = Reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, traced: bool) -> tuple[list[float], list[float]]:
        """Run one pass and check its outputs.

        Returns each operation's seconds and the reference loop's mean
        seconds around it (timed just before and just after the operation).
        """
        if traced:
            self.tracer.install()
        results, op_times = [], []
        refs = [self.reference.time()]
        try:
            for call, check in self.workload.ops():
                with self.tracer.span("op") if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        results.append((call(), check, None))
                    except Exception:
                        results.append((None, check, traceback.format_exc(limit=3)))
                    op_times.append(time.perf_counter() - t0)
                refs.append(self.reference.time())
        finally:
            if traced:
                self.tracer.uninstall()
        for result, check, error in results:
            self.attempted += 1
            try:
                problems = [error] if error else check(result)
            except Exception:  # an output the check cannot even read is wrong
                problems = [f"check raised:\n{traceback.format_exc(limit=3)}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return op_times, [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]


def median_per_op(passes: list[list[float]]) -> list[float]:
    """Each operation's median over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def quantile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    if not Path(eqalarm.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"eqalarm imported from {eqalarm.__file__}, not {args.src}", file=sys.stderr)
        return 2
    expected = json.loads((args.inputs / "expected.json").read_text())
    workload = WORKLOADS[args.workload](args.inputs, expected, args.work)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer)

    runner.run_pass(traced=False)  # warm-up: caches, lazy imports, first checks
    raw: dict[bool, list[list[float]]] = {False: [], True: []}
    ref_units: dict[bool, list[list[float]]] = {False: [], True: []}
    layer_totals: list[dict[str, float]] = []
    # Passes rotate over the allowed CPUs, so that one CPU's slow spell does
    # not hold every repeat of an operation. A traced run keeps each
    # untraced/traced pair of passes on one CPU.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (args.trace and not raw[True]):
        n_passes = len(raw[False]) + len(raw[True])
        os.sched_setaffinity(0, {cpus[n_passes // (1 + args.trace) % len(cpus)]})
        traced = bool(args.trace) and len(raw[False]) > len(raw[True])
        first_span = len(tracer.spans) if traced else 0
        op_times, refs = runner.run_pass(traced)
        raw[traced].append(op_times)
        ref_units[traced].append([scaled(t, r) for t, r in zip(op_times, refs)])
        if traced:
            # self times in reference units, at the pass's median loop time
            ref_s = statistics.median(refs)
            layer_totals.append(
                {
                    k: scaled(v, ref_s) if k.endswith(".s") else v
                    for k, v in tracer.totals(first_span).items()
                }
            )

    per_op = median_per_op(ref_units[False])
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "passes": len(raw[False]),
        "ops_per_pass": len(per_op),
        "raw_wall_s": sum(median_per_op(raw[False])),
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": quantile(per_op, 0.9),
        "replicates_per_pass": workload.replicates_per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        names = sorted(set().union(*layer_totals))
        result["trace_problems"] = tracer.check()[:20]
        result["trace_totals"] = {
            k: statistics.median(totals.get(k, 0.0) for totals in layer_totals) for k in names
        }
        result["trace_overhead_s"] = sum(median_per_op(ref_units[True])) - result["wall_s"]
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
