"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from conftest import BENCH_DIR, ROOT

import catalogs
import run
import worker
from spans import Tracer

import eqalarm.cli

# per-layer metrics that must be nonzero wherever their layer runs
LAYERS_RUN = {
    "table1": (
        "cli.s", "catalog.parse.s", "catalog.parse.records", "catalog.filter.calls",
        "alarm.generate.alarms", "alarm.join.s", "alarm.join.calls", "alarm.join.pairs",
        "alarm.join.dist_evals", "alarm.join.yield", "alarm.count.s", "alarm.count.pair_evals",
        "alarm.count.bytes", "sigtests.permtest.s", "sigtests.permtest.calls",
        "sigtests.permtest.reps",
    ),
    "test-smallq": (
        "catalog.filter.calls", "alarm.generate.alarms", "alarm.join.calls",
        "alarm.join.pairs", "alarm.count.pair_evals", "sigtests.permtest.s",
        "sigtests.permtest.reps", "sigtests.exact.s", "sigtests.exact.perms",
    ),
    "toolbox": (
        "decluster.s", "decluster.events", "decluster.deleted", "decluster.stats.s",
        "nullmodels.permute_times.s", "nullmodels.cell_rates.s", "nullmodels.het_poisson.s",
        "nullmodels.het_poisson.events", "nullmodels.gamma_renewal.s", "sigtests.rscore.s",
        "sigtests.rscore.reps", "sigtests.measure_pi.s", "sigtests.measure_pi.epicenters",
        "alarm.union_mc.s", "alarm.union_mc.samples", "sigtests.pbinom.s",
    ),
}
IMPORTS = ("import.eqalarm.s", "import.scipy.s", "import.numpy.s")


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--scale", "0.1"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert all(values[name] > 0 for name in LAYERS_RUN[workload] + IMPORTS)
        assert "trace.overhead_s" in values


def test_injected_wrong_count_counts_as_failure(tmp_path, monkeypatch):
    expected = catalogs.generate(3, 0.1, tmp_path)
    workload = worker.Table1(tmp_path, expected, tmp_path)

    honest = worker.Runner(workload, None)
    honest.run_pass(traced=False)
    assert (honest.attempted, honest.failed) == (1, 0), honest.problems

    original = eqalarm.cli.count_predicted
    monkeypatch.setattr(eqalarm.cli, "count_predicted", lambda *a: original(*a) + 1)
    workload.first = None  # check the next output against the oracle again
    runner = worker.Runner(workload, None)
    runner.run_pass(traced=False)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert any("succ" in p for p in runner.problems), runner.problems


def test_changed_repeat_counts_as_failure(tmp_path):
    expected = catalogs.generate(3, 0.1, tmp_path)
    workload = worker.Table1(tmp_path, expected, tmp_path)
    workload.first = b"year,mag_threshold\n"
    runner = worker.Runner(workload, None)
    runner.run_pass(traced=False)
    assert runner.failed == 1 and "differs" in runner.problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "table1", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_env_caps_threads_at_nproc():
    env = run.bench_env(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert 1 <= int(env[var]) <= (os.cpu_count() or 1)
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_span_self_times_reconcile():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("cli"):
            with tracer.span("alarm.join"):
                time.sleep(0.002)
            time.sleep(0.001)
        with tracer.span("alarm.count"):
            time.sleep(0.001)
    assert tracer.check() == []
    totals = tracer.totals()
    root = tracer.spans[0]
    assert math.isclose(
        sum(v for k, v in totals.items() if k.endswith(".s")), root.duration, rel_tol=1e-9
    )
    assert totals["cli.s"] < tracer.spans[1].duration


def test_tracer_restores_the_program():
    original = eqalarm.cli.main
    tracer = Tracer()
    tracer.install()
    assert eqalarm.cli.main is not original
    tracer.uninstall()
    assert eqalarm.cli.main is original
