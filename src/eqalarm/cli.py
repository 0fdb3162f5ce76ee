"""Command-line surface: ingest catalogs, score alarms, run tests.

Output is machine-first: JSON or CSV on stdout (or --out), human-readable
summaries on stderr. Exit codes: 0 success, 1 usage or configuration
error, 2 input parse error. Every JSON report embeds the run
configuration and seed; rerunning with the same inputs and seed
reproduces the bytes exactly (a generated-at timestamp is emitted unless
--deterministic suppresses it).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from ._random import Rng
from .alarm import (
    FloorRule,
    alarm_volume_fraction,
    dumps_alarms_csv,
    count_predicted,
    generate_alarms,
    score,
)
from .catalog import (
    SECONDS_PER_DAY,
    Catalog,
    CatalogParseError,
    StudyVolume,
    csv_rows,
    dumps_csv,
    filter_catalog,
    format_instant,
    parse_csv,
    parse_instant,
    parse_ndk,
)
from .decluster import WindowTable, decluster, decluster_stats
from .geo import GlobalSphere, LatLonBox
from .nullmodels import (
    CellGrid,
    _gamma_renewal_us,
    _marked_catalog,
    gen_heterogeneous_poisson,
    gen_homogeneous_poisson,
    permute_times,
    randomize_times_uniform,
)
from .sigtests import permutation_test, permutation_test_fixed_alarms

DEFAULT_SEED = 20002004
DEFAULT_WINDOW_DAYS = 21.0
DEFAULT_RADIUS_KM = 50.0
DEFAULT_REPS = 1000
# --predictor labels: (i) floors every alarm at the threshold, (ii) at its trigger's magnitude
PREDICTORS = {"i": FloorRule.THRESHOLD, "ii": FloorRule.TRIGGER}

TABLE1_ROWS = (
    ("2004", 5.5, "2004-01-01T00:00:00Z", "2005-01-01T00:00:00Z"),
    ("2004", 5.8, "2004-01-01T00:00:00Z", "2005-01-01T00:00:00Z"),
    ("2000-2004", 5.5, "2000-01-01T00:00:00Z", "2005-01-01T00:00:00Z"),
    ("2000-2004", 5.8, "2000-01-01T00:00:00Z", "2005-01-01T00:00:00Z"),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_cli_time(text: str) -> datetime:
    if len(text.strip()) == 10:
        text = text.strip() + "T00:00:00Z"
    return parse_instant(text)


def positive_int(text: str) -> int:
    """The --reps rule of every subcommand that takes it."""
    reps = int(text)
    if reps < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {reps}")
    return reps


def _load_catalog(path: str, fmt: str) -> Catalog:
    data = Path(path).read_bytes()
    if fmt == "ndk":
        return parse_ndk(data)
    return parse_csv(data)


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args) -> None:
    if not args.deterministic:
        payload = {**payload, "generated_at": format_instant(datetime.now(timezone.utc))}
    _write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)


def _config_echo(args, subcommand: str) -> dict:
    echo = {"subcommand": subcommand}
    for key, value in sorted(vars(args).items()):
        if callable(value):
            continue
        echo[key] = value
    return echo


def _window_from_args(args, catalog: Catalog | None) -> tuple[datetime, datetime]:
    """--from and --to; the catalog's span stands in for either one missing."""
    t_start = _parse_cli_time(args.time_from) if args.time_from else catalog.span.t_start
    t_end = _parse_cli_time(args.time_to) if args.time_to else catalog.span.t_end
    if not t_start < t_end:
        raise _UsageError(f"--from {t_start} must precede --to {t_end}")
    return t_start, t_end


def cmd_ingest(args) -> int:
    catalog = _load_catalog(args.input, args.format)
    _write_text(dumps_csv(catalog), args.out)
    print(
        f"ingested {len(catalog)} events spanning "
        f"{format_instant(catalog.span.t_start)} .. {format_instant(catalog.span.t_end)}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    catalog = _load_catalog(args.input, args.format)
    window = _window_from_args(args, catalog)
    targets = filter_catalog(catalog, args.mag_threshold, window)
    if len(targets) == 0:
        print("warning: no events pass the magnitude/window filter", file=sys.stderr)
    alarms = generate_alarms(
        targets, args.mag_threshold, args.window_days, args.radius_km, PREDICTORS[args.predictor]
    )
    summary = score(targets, alarms, targets.span)
    if args.alarms_out:
        Path(args.alarms_out).write_text(dumps_alarms_csv(alarms), encoding="utf-8")
    payload = {**summary.to_dict(), "config": _config_echo(args, "eval")}
    _emit_json(payload, args)
    print(
        f"Q={summary.Q} A={summary.A} S={summary.S} P={summary.P} "
        f"v_upper={summary.v_upper:.3g}",
        file=sys.stderr,
    )
    return 0


def cmd_test(args) -> int:
    catalog = _load_catalog(args.input, args.format)
    window = _window_from_args(args, catalog)
    report = permutation_test(
        filter_catalog(catalog, args.mag_threshold, window),
        args.mag_threshold,
        window_days=args.window_days,
        radius_km=args.radius_km,
        floor_rule=PREDICTORS[args.predictor],
        n_reps=args.reps,
        rng=Rng(args.seed),
    )
    payload = report.to_json_dict()
    payload["config"] = {**payload["config"], **_config_echo(args, "test")}
    _emit_json(payload, args)
    print(
        f"observed={report.observed:.0f} max_sim={report.max_sim:.0f} "
        f"p={report.p_display()} ({report.sim_count} permutations)",
        file=sys.stderr,
    )
    return 0


def cmd_table1(args) -> int:
    catalog = _load_catalog(args.input, args.format)
    need_start = parse_instant("2000-02-01T00:00:00Z")
    need_end = parse_instant("2004-12-01T00:00:00Z")
    if catalog.span.t_start > need_start or catalog.span.t_end < need_end:
        raise _UsageError(
            f"catalog does not cover {format_instant(need_start)} through "
            f"{format_instant(need_end)}: its first event must be at or before the start "
            f"and its last at or after the end (found {format_instant(catalog.span.t_start)}"
            f" .. {format_instant(catalog.span.t_end)})"
        )
    lines = ["year,mag_threshold,events,succ,succ_wo,max_sim,p_est,v"]
    for label, mag_threshold, from_text, to_text in TABLE1_ROWS:
        window = (parse_instant(from_text), parse_instant(to_text))
        targets = filter_catalog(catalog, mag_threshold, window)
        threshold_alarms = generate_alarms(
            targets, mag_threshold, args.window_days, args.radius_km, FloorRule.THRESHOLD
        )
        trigger_alarms = generate_alarms(
            targets, mag_threshold, args.window_days, args.radius_km, FloorRule.TRIGGER
        )
        succ = count_predicted(targets, threshold_alarms)
        # the test's observed statistic is the trigger-floor success count
        report = permutation_test_fixed_alarms(
            targets, trigger_alarms, args.reps, Rng(args.seed)
        )
        v = alarm_volume_fraction(trigger_alarms, targets.span)
        lines.append(
            f"{label},{mag_threshold},{len(targets)},{succ},{report.observed:.0f},"
            f"{report.max_sim:.0f},{report.p_display()},{v:.1e}"
        )
        print(f"row {label} M>={mag_threshold}: {lines[-1]}", file=sys.stderr)
    _write_text("\n".join(lines) + "\n", args.out)
    print(
        json.dumps({"config": _config_echo(args, "table1")}, sort_keys=True),
        file=sys.stderr,
    )
    return 0


def cmd_decluster(args) -> int:
    catalog = _load_catalog(args.input, args.format)
    try:
        windows = WindowTable.from_csv(Path(args.windows).read_bytes())
    except CatalogParseError as exc:
        raise _UsageError(f"bad window table: {exc}") from exc
    result = decluster(catalog, windows, retained_only=args.retained_only)
    n_deleted, fraction = decluster_stats(catalog, result.catalog)
    _write_text(dumps_csv(result.catalog), args.out)
    stats_payload = {
        "n_deleted": n_deleted,
        "fraction_deleted": fraction,
        "deleted_indices": list(result.deleted_indices),
        "retained": len(result.catalog),
        "config": _config_echo(args, "decluster"),
    }
    stats_text = json.dumps(stats_payload, sort_keys=True, indent=2) + "\n"
    if args.stats_out:
        Path(args.stats_out).write_text(stats_text, encoding="utf-8")
    else:
        sys.stderr.write(stats_text)
    return 0


CELL_CSV_COLUMNS = ("lat_min", "lat_max", "lon_min", "lon_max", "rate_per_day")


def _load_cell_grid(path: str) -> CellGrid:
    """Cells file: lat_min,lat_max,lon_min,lon_max,rate_per_day per line."""
    def cell(_, fields: list[str]) -> tuple[LatLonBox, float]:
        lat_min, lat_max, lon_min, lon_max, rate = map(float, fields)
        return LatLonBox(lat_min, lat_max, lon_min, lon_max), rate / SECONDS_PER_DAY

    try:
        rows = list(csv_rows(Path(path).read_bytes(), CELL_CSV_COLUMNS, cell))
    except CatalogParseError as exc:
        raise _UsageError(f"cells file {path}: {exc}") from exc
    return CellGrid(tuple(c for c, _ in rows), tuple(r for _, r in rows))


def cmd_simulate(args) -> int:
    rng = Rng(args.seed)
    if args.model in ("permute", "uniform-times"):
        if not args.input:
            raise _UsageError(f"--input is required for model {args.model!r}")
        catalog = _load_catalog(args.input, args.format)
        generator = permute_times if args.model == "permute" else randomize_times_uniform
        out_catalog = generator(catalog, rng)
    else:  # a generative model; argparse restricts the choices
        flag, value = {
            "poisson": ("--rate-per-day", args.rate_per_day),
            "heterogeneous-poisson": ("--cells", args.cells),
            "gamma-renewal": ("--mean-interval-days", args.mean_interval_days),
        }[args.model]
        if value in (None, "") or not (args.time_from and args.time_to):
            raise _UsageError(f"model {args.model!r} needs {flag}, --from, and --to")
        interval = _window_from_args(args, None)
        sv = StudyVolume(GlobalSphere(), *interval)
        marks = _load_catalog(args.input, args.format) if args.input else None
        if args.model == "poisson":
            out_catalog = gen_homogeneous_poisson(value / SECONDS_PER_DAY, sv, marks, rng)
        elif args.model == "heterogeneous-poisson":
            out_catalog = gen_heterogeneous_poisson(_load_cell_grid(value), interval, marks, rng)
        else:
            time_us = _gamma_renewal_us(args.shape, value * SECONDS_PER_DAY, interval, rng)
            out_catalog = _marked_catalog(time_us, sv, marks, rng.replicate(1).generator())
    _write_text(dumps_csv(out_catalog), args.out)
    print(f"simulated {len(out_catalog)} events (model={args.model})", file=sys.stderr)
    return 0


def _add_common_io(sub, with_input=True):
    if with_input:
        sub.add_argument("--input", required=True, help="catalog file path")
    sub.add_argument("--format", choices=("csv", "ndk"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--deterministic", action="store_true",
                     help="suppress the generated-at timestamp")


def _add_prediction_flags(sub):
    sub.add_argument("--mag-threshold", type=float, required=True, dest="mag_threshold")
    sub.add_argument("--window-days", type=float, default=DEFAULT_WINDOW_DAYS,
                     dest="window_days")
    sub.add_argument("--radius-km", type=float, default=DEFAULT_RADIUS_KM,
                     dest="radius_km")
    sub.add_argument("--predictor", choices=PREDICTORS, default="ii")
    sub.add_argument("--from", dest="time_from", default=None, metavar="ISO")
    sub.add_argument("--to", dest="time_to", default=None, metavar="ISO")


def _add_replicate_flags(sub):
    sub.add_argument("--reps", type=positive_int, default=DEFAULT_REPS)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> _Parser:
    parser = _Parser(prog="eqalarm", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("ingest", help="convert a catalog to canonical CSV")
    _add_common_io(p)
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("eval", help="generate alarms and score them")
    _add_common_io(p)
    _add_prediction_flags(p)
    p.add_argument("--alarms-out", default=None, help="write the alarm set as CSV")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("test", help="permutation test of the automatic alarms")
    _add_common_io(p)
    _add_prediction_flags(p)
    _add_replicate_flags(p)
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("table1", help="four-row benchmark table for 2000-2004")
    _add_common_io(p)
    p.add_argument("--window-days", type=float, default=DEFAULT_WINDOW_DAYS,
                   dest="window_days")
    p.add_argument("--radius-km", type=float, default=DEFAULT_RADIUS_KM,
                   dest="radius_km")
    _add_replicate_flags(p)
    p.set_defaults(func=cmd_table1)

    p = subs.add_parser("decluster", help="window-decluster a catalog")
    _add_common_io(p)
    p.add_argument("--windows", required=True, help="window table CSV path")
    p.add_argument("--retained-only", action="store_true",
                   help="only retained events punch holes")
    p.add_argument("--stats-out", default=None)
    p.set_defaults(func=cmd_decluster)

    p = subs.add_parser("simulate", help="draw synthetic catalogs from the null models")
    _add_common_io(p, with_input=False)
    p.add_argument("--model", required=True,
                   choices=("permute", "uniform-times", "poisson",
                            "heterogeneous-poisson", "gamma-renewal"))
    p.add_argument("--input", default=None, help="catalog for times/marks (model-dependent)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--rate-per-day", type=float, default=None, dest="rate_per_day")
    p.add_argument("--cells", default=None, help="cell grid CSV for the heterogeneous model")
    p.add_argument("--shape", type=float, default=1.0)
    p.add_argument("--mean-interval-days", type=float, default=None,
                   dest="mean_interval_days")
    p.add_argument("--from", dest="time_from", default=None, metavar="ISO")
    p.add_argument("--to", dest="time_to", default=None, metavar="ISO")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CatalogParseError as exc:  # a ValueError, so it comes first
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
