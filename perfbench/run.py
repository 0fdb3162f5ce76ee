"""Benchmark entry point for eqalarm; run it from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1``, ``test-smallq`` and ``toolbox`` (see README.md here).
Each run generates its inputs from ``--seed`` in one process, times fresh
interpreters importing eqalarm (``setup_s``), then runs the workload in a
third process against the checkout's ``src``. Times are reported in the
units of the reference loop in ``refloop.py``, timed next to each of them, so
that a slow spell of the shared host does not show as a slower program. It
prints human-readable lines and, as the last line, one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refloop import REF_S, Reference, scaled

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # fresh interpreters timed for setup_s, before and again after
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170.0  # the whole run, generation and setup included

# name -> unit; reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_COUNTS = {
    "catalog.parse": ("records",),
    "catalog.filter": ("calls",),
    "alarm.generate": ("alarms",),
    "alarm.join": ("calls", "pairs", "dist_evals"),
    "alarm.count": ("pair_evals", "bytes"),
    "alarm.union_mc": ("samples",),
    "sigtests.permtest": ("calls", "reps"),
    "sigtests.exact": ("perms",),
    "sigtests.measure_pi": ("epicenters",),
    "sigtests.rscore": ("reps",),
    "sigtests.pbinom": (),
    "nullmodels.permute_times": (),
    "nullmodels.cell_rates": (),
    "nullmodels.het_poisson": ("events",),
    "nullmodels.gamma_renewal": (),
    "decluster": ("events", "deleted"),
    "decluster.stats": (),
    "cli": (),
}
# name -> unit; reported with --trace 1, per traced pass
PER_LAYER = {}
for _layer, _counts in _LAYER_COUNTS.items():
    PER_LAYER[f"{_layer}.s"] = "s"
    for _count in _counts:
        PER_LAYER[f"{_layer}.{_count}"] = "B" if _count == "bytes" else "count"
    if _layer == "alarm.join":
        PER_LAYER["alarm.join.yield"] = "1"
PER_LAYER.update(
    {"import.eqalarm.s": "s", "import.scipy.s": "s", "import.numpy.s": "s", "trace.overhead_s": "s"}
)

PROBE = (
    "import time; t0 = time.perf_counter(); import eqalarm.cli; "
    "eqalarm.cli.build_parser(); print(time.perf_counter() - t0); print(eqalarm.cli.__file__)"
)
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


class BenchError(Exception):
    pass


def _run(cmd, env, deadline, what) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {what}")
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish in {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{what} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def bench_env(src: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, and one BLAS/OpenMP thread, so the numbers
    measure the program rather than the scheduler of a small shared host."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(env, src: Path, deadline, reference: Reference, samples: list[float]) -> None:
    """Append SETUP_REPEATS samples of the time a fresh interpreter takes to
    import eqalarm and build the CLI parser, in reference units (the loop is
    timed in this process just before and after each probe, on its CPU),
    rotating over the CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for _ in range(SETUP_REPEATS):
            os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})  # inherited by the probe
            before = reference.time()
            out = _run([sys.executable, "-c", PROBE], env, deadline, "setup probe").stdout.split()
            after = reference.time()
            if not Path(out[1]).resolve().is_relative_to(src):
                raise BenchError(f"eqalarm imported from {out[1]}, not from {src}")
            samples.append(scaled(float(out[0]), (before + after) / 2.0))
    finally:
        os.sched_setaffinity(0, cpus)


def import_times(env, deadline, reference: Reference) -> dict[str, float]:
    """Median import.* times from ``python -X importtime -c 'import eqalarm'``,
    in reference units like setup_s.

    eqalarm is the cumulative time of the package; scipy and numpy are the
    summed self times of their own modules within it.
    """
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        before = reference.time()
        err = _run(
            [sys.executable, "-X", "importtime", "-c", "import eqalarm"], env, deadline, "importtime"
        ).stderr
        ref_s = (before + reference.time()) / 2.0
        totals = {"eqalarm": 0.0, "scipy": 0.0, "numpy": 0.0}
        for line in err.splitlines():
            m = _IMPORTTIME.match(line)
            if m is None:
                continue
            self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
            top = name.split(".")[0]
            if name == "eqalarm":
                totals["eqalarm"] = cumulative_us / 1e6
            elif top in ("scipy", "numpy"):
                totals[top] += self_us / 1e6
        runs.append({k: scaled(v, ref_s) for k, v in totals.items()})
    return {f"import.{k}.s": statistics.median(r[k] for r in runs) for k in runs[0]}


def per_layer_metrics(report: dict, imports: dict[str, float]) -> dict[str, float]:
    totals = report["trace_totals"]
    values = {name: totals.get(name, 0.0) for name in PER_LAYER}
    evals = values["alarm.join.dist_evals"]
    values["alarm.join.yield"] = values["alarm.join.pairs"] / evals if evals else 0.0
    values.update(imports)
    values["trace.overhead_s"] = report["trace_overhead_s"]
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table1", "test-smallq", "toolbox"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="catalog and replicate scale (tests use < 1)"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "eqalarm" / "__init__.py").is_file():
        print(f"no eqalarm sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = bench_env(src)
    try:
        t0 = time.perf_counter()
        _run(
            [sys.executable, str(BENCH_DIR / "catalogs.py"), "--seed", str(args.seed),
             "--scale", str(args.scale), "--out", str(work / "inputs")],
            env, deadline, "input generation",
        )
        generate_s = time.perf_counter() - t0
        # setup_s is an end-to-end metric; a traced run times the imports instead.
        # Half the setup samples come before the workload and half after, so
        # their median spans the run rather than one moment of a shared host.
        setup: list[float] = []
        reference = Reference()
        if not args.trace:
            time_setup(env, src, deadline, reference, setup)
        imports = import_times(env, deadline, reference) if args.trace else {}
        spans = work_root / f"spans-{args.workload}-seed{args.seed}.json"
        done = _run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--inputs", str(work / "inputs"), "--work", str(work), "--src", str(src),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans)],
            env, deadline, f"workload {args.workload}",
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        if not args.trace:
            time_setup(env, src, deadline, reference, setup)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer_metrics(report, imports)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": report["wall_s"],
            "op_p50_s": report["op_p50_s"],
            "op_p90_s": report["op_p90_s"],
            "replicates_per_s": report["replicates_per_pass"] / report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
    problems = report["problems"] + report.get("trace_problems", [])
    attempted, failed = report["attempted"], report["failed"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  inputs generated in {generate_s:.2f} s (not a program metric)")
    if setup:
        print(f"  setup_s samples: {', '.join(f'{s:.3f}' for s in setup)} s")
    print(
        f"  {report['passes']} untraced passes of {report['ops_per_pass']} operations; "
        f"op_p50_s and op_p90_s over the {report['ops_per_pass']} per-operation medians"
    )
    print(
        f"  times are in reference units (seconds where the loop in refloop.py takes "
        f"{REF_S} s); unscaled wall time of a pass {report['raw_wall_s']:.4g} s"
    )
    print(f"  fail_ratio = {failed / attempted:.4g} ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
