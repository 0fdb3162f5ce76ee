import csv
import io
import json
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import eqalarm.alarm
from eqalarm import dumps_csv, exact_permutation_pvalue, parse_csv
from eqalarm.cli import main

from conftest import make_catalog, ndk_file, ndk_record

THREE_EVENT_ROWS = [(0.0, 0.0, 0.0, 6.0), (5.0, 0.1, 0.0, 5.6), (10.0, 50.0, 50.0, 5.7)]

FIVE_EVENT_ROWS = [
    (0.0, 0.0, 0.0, 6.0),
    (3.0, 0.05, 0.0, 5.8),
    (9.0, 0.10, 0.0, 6.1),
    (30.0, 20.0, 20.0, 5.9),
    (33.0, 20.05, 20.0, 6.2),
]

CHAIN_ROWS = [(0.0, 0.0, 0.0, 6.0), (5.0, 0.0, 0.0, 5.5), (13.0, 0.0, 0.0, 5.0)]

WINDOW_TABLE = "mag_min,time_days,distance_km\n-inf,10,20\n"

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture
def csv_path(tmp_path):
    def write(rows, name="catalog.csv"):
        path = tmp_path / name
        path.write_text(dumps_csv(make_catalog(rows)), encoding="utf-8")
        return str(path)

    return write


def _never_called(*args, **kwargs):
    raise AssertionError("reached past the argument checks")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_ndk_to_canonical_csv(self, tmp_path, capsys):
        path = tmp_path / "two.ndk"
        path.write_text(
            ndk_file(
                [
                    ndk_record(date="2004/01/10", mb=5.0),
                    ndk_record(date="2004/01/12", mb=6.1, ms=5.9, lat=-31.5, lon=179.9),
                ]
            )
        )
        code, out, err = run(capsys, "ingest", "--input", str(path), "--format", "ndk")
        assert code == 0
        cat = parse_csv(out)
        assert len(cat) == 2
        assert "ingested 2 events" in err

    def test_corrupt_ndk_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ndk"
        path.write_text("\n".join(["x"] * 7) + "\n")
        code, out, err = run(capsys, "ingest", "--input", str(path), "--format", "ndk")
        assert code == 2
        assert "parse error" in err and "multiple of 5" in err

    def test_ndk_date_past_datetime_max_exits_two(self, tmp_path, capsys):
        path = tmp_path / "late.ndk"
        path.write_text(ndk_file([ndk_record(date="9999/12/31", time="23:59:60.0")]))
        code, out, err = run(capsys, "ingest", "--input", str(path), "--format", "ndk")
        assert code == 2
        assert "parse error: NDK record 1: " in err and out == ""

    def test_lone_carriage_return_in_unquoted_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        path.write_bytes(
            b"time,lat,lon,depth_km,mb,ms,id\n2004-01-02T00:00:00Z,0,0,10,5.5,,a\rb\n"
        )
        code, out, err = run(capsys, "ingest", "--input", str(path))
        assert code == 2
        assert "parse error: line 2: new-line character" in err and out == ""

    def test_input_not_utf8_exits_two(self, tmp_path, capsys, csv_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(Path(csv_path(THREE_EVENT_ROWS)).read_bytes() + b"\xe9\n")
        code, out, err = run(capsys, "ingest", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: input is not valid UTF-8")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "ingest", "--input", "/nonexistent.csv")
        assert code == 1

    def test_directory_as_input_exits_one(self, tmp_path, capsys):
        code, out, err = run(capsys, "ingest", "--input", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err and out == ""

    def test_directory_as_out_exits_one(self, tmp_path, capsys, csv_path):
        code, out, err = run(capsys, "ingest", "--input", csv_path(THREE_EVENT_ROWS),
                             "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err and out == ""

    def test_csv_roundtrip_via_out_file(self, tmp_path, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        out_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "ingest", "--input", src, "--out", str(out_path))
        assert code == 0
        assert parse_csv(out_path.read_text()) == parse_csv(Path(src).read_text())


class TestEval:
    def test_three_event_fixture_hand_scored(self, tmp_path, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        alarms_out = tmp_path / "alarms.csv"
        code, out, err = run(
            capsys,
            "eval", "--input", src, "--mag-threshold", "5.5", "--predictor", "i",
            "--deterministic", "--alarms-out", str(alarms_out),
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["Q"], payload["A"], payload["S"], payload["P"]) == (3, 3, 1, 1)
        assert payload["F"] == 2 and payload["M"] == 2
        assert payload["config"]["mag_threshold"] == 5.5
        assert "generated_at" not in payload
        header = alarms_out.read_text().splitlines()[0]
        assert header == "trigger_time,lat,lon,radius_km,t_start,t_end,mag_floor"
        assert len(alarms_out.read_text().splitlines()) == 4

    def test_trigger_floors_reduce_count(self, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        code, out, _ = run(
            capsys,
            "eval", "--input", src, "--mag-threshold", "5.5", "--predictor", "ii",
            "--deterministic",
        )
        assert code == 0
        assert json.loads(out)["P"] == 0

    def test_empty_filter_warns_and_zeroes(self, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        code, out, err = run(
            capsys,
            "eval", "--input", src, "--mag-threshold", "9.5", "--deterministic",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["Q"] == 0 and payload["P"] == 0
        assert "no events pass" in err

    def test_repeated_id_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text(dumps_csv(make_catalog(THREE_EVENT_ROWS)).replace("ev001", "ev000"))
        code, out, err = run(
            capsys, "eval", "--input", str(path), "--mag-threshold", "5.5", "--deterministic"
        )
        assert code == 2
        assert out == ""
        assert "'ev000' repeats line 2" in err

    def test_timestamp_present_without_deterministic(self, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        code, out, _ = run(capsys, "eval", "--input", src, "--mag-threshold", "5.5")
        assert code == 0
        assert "generated_at" in json.loads(out)


class TestTest:
    def test_probability_matches_exact_oracle(self, capsys, csv_path):
        src = csv_path(FIVE_EVENT_ROWS)
        code, out, err = run(
            capsys,
            "test", "--input", src, "--mag-threshold", "5.5", "--predictor", "ii",
            "--reps", "4000", "--seed", "11", "--deterministic",
        )
        assert code == 0
        payload = json.loads(out)
        exact = float(exact_permutation_pvalue(parse_csv(Path(src).read_text()), 5.5))
        se = math.sqrt(exact * (1 - exact) / 4000)
        assert abs(payload["p_estimate"] - exact) <= 3 * se + 1e-12
        assert payload["config"]["subcommand"] == "test"
        assert payload["config"]["seed"] == 11

    def test_deterministic_output_is_byte_identical(self, capsys, csv_path):
        src = csv_path(FIVE_EVENT_ROWS)
        args = (
            "test", "--input", src, "--mag-threshold", "5.5", "--reps", "300",
            "--seed", "4", "--deterministic",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_zero_reps_is_usage_error(self, capsys, csv_path):
        src = csv_path(FIVE_EVENT_ROWS)
        code, _, err = run(
            capsys, "test", "--input", src, "--mag-threshold", "5.5", "--reps", "0"
        )
        assert code == 1
        assert "reps" in err


class TestDecluster:
    def test_chain_fixture(self, tmp_path, capsys, csv_path):
        src = csv_path(CHAIN_ROWS)
        table = tmp_path / "windows.csv"
        table.write_text(WINDOW_TABLE)
        stats_out = tmp_path / "stats.json"
        code, out, _ = run(
            capsys,
            "decluster", "--input", src, "--windows", str(table),
            "--stats-out", str(stats_out), "--deterministic",
        )
        assert code == 0
        retained = parse_csv(out)
        assert len(retained) == 1
        stats = json.loads(stats_out.read_text())
        assert stats["n_deleted"] == 2
        assert stats["fraction_deleted"] == pytest.approx(2 / 3)
        assert stats["deleted_indices"] == [1, 2]

    def test_idempotent_second_pass(self, tmp_path, capsys, csv_path):
        src = csv_path(CHAIN_ROWS)
        table = tmp_path / "windows.csv"
        table.write_text(WINDOW_TABLE)
        first_out = tmp_path / "first.csv"
        run(
            capsys,
            "decluster", "--input", src, "--windows", str(table),
            "--out", str(first_out), "--deterministic",
        )
        stats_out = tmp_path / "stats2.json"
        code, out, _ = run(
            capsys,
            "decluster", "--input", str(first_out), "--windows", str(table),
            "--stats-out", str(stats_out), "--deterministic",
        )
        assert code == 0
        assert json.loads(stats_out.read_text())["n_deleted"] == 0

    def test_bad_window_table_is_usage_error(self, tmp_path, capsys, csv_path):
        src = csv_path(CHAIN_ROWS)
        table = tmp_path / "windows.csv"
        table.write_text("mag_min,time_days,distance_km\n5.0,10,20\n")
        code, _, err = run(capsys, "decluster", "--input", src, "--windows", str(table))
        assert code == 1
        assert "window table" in err


    def test_carriage_return_in_window_table_is_usage_error(self, tmp_path, capsys, csv_path):
        src = csv_path(CHAIN_ROWS)
        table = tmp_path / "windows.csv"
        table.write_bytes(b"mag_min,time_days,distance_km\n-inf,10,2\r0\n")
        code, _, err = run(capsys, "decluster", "--input", src, "--windows", str(table))
        assert code == 1
        assert "bad window table: line 2: new-line character" in err


class TestSimulate:
    def test_poisson_deterministic(self, capsys):
        args = (
            "simulate", "--model", "poisson", "--rate-per-day", "0.5",
            "--from", "2004-01-01", "--to", "2004-06-01", "--seed", "9",
            "--deterministic",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        cat = parse_csv(out1)
        assert len(cat) > 30

    def test_permute_preserves_time_multiset(self, capsys, csv_path):
        src = csv_path(FIVE_EVENT_ROWS)
        code, out, _ = run(
            capsys,
            "simulate", "--model", "permute", "--input", src, "--seed", "3",
            "--deterministic",
        )
        assert code == 0
        original = parse_csv(Path(src).read_text())
        shuffled = parse_csv(out)
        assert sorted(e.time for e in shuffled) == sorted(e.time for e in original)

    def test_gamma_renewal_produces_catalog(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--model", "gamma-renewal", "--shape", "0.5",
            "--mean-interval-days", "2.0", "--from", "2004-01-01",
            "--to", "2004-12-31", "--seed", "5", "--deterministic",
        )
        assert code == 0
        assert len(parse_csv(out)) > 50

    def test_heterogeneous_poisson_respects_cells(self, tmp_path, capsys):
        cells = tmp_path / "cells.csv"
        cells.write_text(
            "lat_min,lat_max,lon_min,lon_max,rate_per_day\n"
            "0,10,0,10,0\n"
            "0,10,10,20,0.8\n"
        )
        code, out, _ = run(
            capsys,
            "simulate", "--model", "heterogeneous-poisson", "--cells", str(cells),
            "--from", "2004-01-01", "--to", "2004-03-01", "--seed", "2",
            "--deterministic",
        )
        assert code == 0
        cat = parse_csv(out)
        assert len(cat) > 20
        assert all(10.0 <= e.epicenter.lon <= 20.0 for e in cat.events)

    CELLS = "lat_min,lat_max,lon_min,lon_max,rate_per_day\n0,10,170,-170,0.8\n"
    HET_ARGS = (
        "simulate", "--model", "heterogeneous-poisson", "--from", "2004-01-01",
        "--to", "2004-03-01", "--seed", "2", "--deterministic",
    )

    def test_heterogeneous_poisson_cells_with_bom(self, tmp_path, capsys):
        plain = tmp_path / "cells.csv"
        plain.write_text(self.CELLS, encoding="utf-8")
        bom = tmp_path / "cells_bom.csv"
        bom.write_bytes(("\ufeff" + self.CELLS).encode("utf-8"))
        code, out, err = run(capsys, *self.HET_ARGS, "--cells", str(plain))
        assert code == 0 and len(parse_csv(out)) > 20
        assert run(capsys, *self.HET_ARGS, "--cells", str(bom)) == (0, out, err)

    def test_cells_row_with_wrong_field_count(self, tmp_path, capsys):
        cells = tmp_path / "cells.csv"
        cells.write_text(self.CELLS + "0,10,10,20\n", encoding="utf-8")
        code, _, err = run(capsys, *self.HET_ARGS, "--cells", str(cells))
        assert code == 1
        assert "cells file" in err and "line 3: expected 5 fields, got 4" in err

    def test_cells_row_with_carriage_return(self, tmp_path, capsys):
        cells = tmp_path / "cells.csv"
        cells.write_bytes((self.CELLS + "0,10,10,2\r0,1\n").encode("utf-8"))
        code, _, err = run(capsys, *self.HET_ARGS, "--cells", str(cells))
        assert code == 1
        assert f"cells file {cells}: line 3: new-line character" in err

    def test_cells_row_with_nonfinite_longitude(self, tmp_path, capsys):
        cells = tmp_path / "cells.csv"
        cells.write_text(self.CELLS.replace("170,-170", "nan,-170"), encoding="utf-8")
        code, _, err = run(capsys, *self.HET_ARGS, "--cells", str(cells))
        assert code == 1
        assert f"cells file {cells}: line 2: longitude edges must be finite" in err

    def test_cells_file_with_only_its_header(self, tmp_path, capsys):
        cells = tmp_path / "cells.csv"
        cells.write_text(self.CELLS.splitlines(keepends=True)[0], encoding="utf-8")
        code, out, err = run(capsys, *self.HET_ARGS, "--cells", str(cells))
        assert code == 0 and len(parse_csv(out)) == 0
        assert err == "simulated 0 events (model=heterogeneous-poisson)\n"

    def test_allocation_numpy_refuses_is_an_error(self, capsys):
        # 1e12 events a day for a year: numpy refuses the 2.6 PiB at once
        code, out, err = run(
            capsys, "simulate", "--model", "poisson", "--rate-per-day", "1e12",
            "--from", "2004-01-01", "--to", "2005-01-01",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_gamma_renewal_past_the_memory_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", 64 * 2**10)
        code, out, err = run(
            capsys, "simulate", "--model", "gamma-renewal", "--shape", "1e-20",
            "--mean-interval-days", "1", *SIM_SPAN,
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: gamma renewal with shape=1e-20 and mean_interval_s=86400.0"
            " does not reach the interval end within the memory budget\n"
        )

    def test_missing_model_inputs_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "poisson")
        assert code == 1
        for model, flag in (
            ("poisson", "--rate-per-day"),
            ("heterogeneous-poisson", "--cells"),
            ("gamma-renewal", "--mean-interval-days"),
        ):
            code, _, err = run(capsys, "simulate", "--model", model, *SIM_SPAN)
            assert code == 1
            assert err == f"error: model {model!r} needs {flag}, --from, and --to\n"

    @pytest.mark.parametrize(
        "model_args",
        [
            ("poisson", "--rate-per-day", "0.1"),
            ("heterogeneous-poisson", "--cells", str(DATA_DIR / "simulate" / "cells.csv")),
            ("gamma-renewal", "--mean-interval-days", "9"),
        ],
        ids=lambda a: a[0],
    )
    def test_reversed_interval_one_message(self, capsys, model_args):
        code, out, err = run(
            capsys, "simulate", "--model", *model_args, "--from", "2004-07-01", "--to", "2004-01-01"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: --from 2004-07-01 00:00:00+00:00 must precede --to 2004-01-01 00:00:00+00:00\n"
        )

    def test_permute_requires_input(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "permute")
        assert code == 1
        assert "--input" in err


SIM_DIR = DATA_DIR / "simulate"
SIM_SPAN = ("--from", "2004-01-01", "--to", "2004-07-01")
SIM_MARKS = ("--input", str(SIM_DIR / "marks.csv"))
SIM_CELLS = ("--cells", str(SIM_DIR / "cells.csv"))
SIM_GAMMA = ("--shape", "0.5", "--mean-interval-days", "9")
SIM_CASES = {
    "permute": ("permute", *SIM_MARKS),
    "uniform-times": ("uniform-times", *SIM_MARKS),
    "poisson": ("poisson", "--rate-per-day", "0.1", *SIM_SPAN),
    "poisson-marks": ("poisson", "--rate-per-day", "0.1", *SIM_MARKS, *SIM_SPAN),
    "heterogeneous-poisson": ("heterogeneous-poisson", *SIM_CELLS, *SIM_SPAN),
    "heterogeneous-poisson-marks": (
        "heterogeneous-poisson", *SIM_CELLS, *SIM_MARKS, *SIM_SPAN
    ),
    "gamma-renewal": ("gamma-renewal", *SIM_GAMMA, *SIM_SPAN),
    "gamma-renewal-marks": ("gamma-renewal", *SIM_GAMMA, *SIM_MARKS, *SIM_SPAN),
}


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_simulate_matches_golden_file(case, capsys):
    # tests/data/simulate/<case>.csv holds this command's output at seed 7;
    # the files were written before the null models shared one catalog
    # assembler, and any change to their bytes must be deliberate. The marks
    # hold tied times and an absent mb; the first cell crosses the dateline
    # and the fourth holds no marks.
    code, out, _ = run(
        capsys, "simulate", "--model", *SIM_CASES[case], "--seed", "7", "--deterministic"
    )
    assert code == 0
    assert out == (SIM_DIR / f"{case}.csv").read_text(encoding="utf-8")


def synthetic_ndk_2000_2004():
    """Small five-year NDK file with one tight cluster per year."""
    records = []
    for year in range(2000, 2005):
        base_lat = 10.0 + (year - 2000) * 12.0
        records.append(
            ndk_record(date=f"{year}/01/15", time="01:00:00.0", lat=base_lat, lon=30.0, mb=6.5)
        )
        records.append(
            ndk_record(date=f"{year}/01/20", time="02:00:00.0", lat=base_lat + 0.1, lon=30.0, mb=5.9)
        )
        records.append(
            ndk_record(date=f"{year}/06/10", time="03:00:00.0", lat=base_lat, lon=-60.0, mb=5.6)
        )
        records.append(
            ndk_record(date=f"{year}/12/15", time="04:00:00.0", lat=-base_lat, lon=100.0, mb=5.8)
        )
    return ndk_file(records)


def clustered_ndk_2000_2004(n_mainshocks: int = 150, seed: int = 2004) -> str:
    """Five-year NDK file: mainshocks in four belts, each followed by up to
    three aftershocks within 20 days and a few tens of km, with
    Gutenberg-Richter magnitudes (b = 1) above M5.0 in 0.1 steps."""
    rng = np.random.default_rng(seed)
    t0 = datetime(2000, 1, 1, tzinfo=timezone.utc)
    belts = ((35.0, 140.0), (-20.0, -70.0), (0.0, 100.0), (55.0, -150.0))
    records = []
    for _ in range(n_mainshocks):
        lat, lon = belts[rng.integers(len(belts))] + rng.normal(0.0, 3.0, 2)
        t = rng.uniform(1.0, 1826.0)
        shocks = [(t, lat, lon)] + [
            (t + rng.uniform(0.1, 20.0), lat + rng.normal(0.0, 0.2), lon + rng.normal(0.0, 0.2))
            for _ in range(rng.integers(0, 4))
        ]
        for t_days, s_lat, s_lon in shocks:
            when = t0 + timedelta(days=float(t_days))
            mb = min(7.9, 5.0 + rng.exponential(1.0 / math.log(10.0)))
            records.append(
                ndk_record(
                    date=when.strftime("%Y/%m/%d"), time=when.strftime("%H:%M:%S.0"),
                    lat=float(s_lat), lon=float(s_lon), mb=round(mb, 1),
                )
            )
    return ndk_file(records)


class TestTable1:
    def test_four_rows_and_composition(self, tmp_path, capsys):
        path = tmp_path / "synthetic.ndk"
        path.write_text(synthetic_ndk_2000_2004())
        code, out, err = run(
            capsys,
            "table1", "--input", str(path), "--format", "ndk",
            "--reps", "60", "--seed", "17", "--deterministic",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "year,mag_threshold,events,succ,succ_wo,max_sim,p_est,v"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2004" and first[1] == "5.5"
        # row 1 composes from eval + test with the same window and seed
        code, eval_out, _ = run(
            capsys,
            "eval", "--input", str(path), "--format", "ndk",
            "--mag-threshold", "5.5", "--predictor", "ii",
            "--from", "2004-01-01", "--to", "2005-01-01", "--deterministic",
        )
        eval_payload = json.loads(eval_out)
        assert int(first[2]) == eval_payload["Q"]
        assert int(first[4]) == eval_payload["P"]
        code, test_out, _ = run(
            capsys,
            "test", "--input", str(path), "--format", "ndk",
            "--mag-threshold", "5.5", "--predictor", "ii",
            "--from", "2004-01-01", "--to", "2005-01-01",
            "--reps", "60", "--seed", "17", "--deterministic",
        )
        test_payload = json.loads(test_out)
        assert int(first[5]) == int(test_payload["max_sim"])

    def test_deterministic_output_matches_golden_file(self, tmp_path, capsys):
        # tests/data/table1_golden.csv holds this command's output; any change
        # to the bytes must be deliberate. It was written again when the
        # permutation replicates moved to streams keyed by (seed, stream,
        # block): only max_sim and p_est moved. The columns no replicate draw
        # touches must still equal those of the file the join was checked on.
        undrawn = [
            ("2004", "5.5", "32", "8", "4", "2.8e-05"),
            ("2004", "5.8", "22", "4", "3", "1.9e-05"),
            ("2000-2004", "5.5", "134", "31", "16", "2.4e-05"),
            ("2000-2004", "5.8", "72", "12", "7", "1.3e-05"),
        ]
        path = tmp_path / "clustered.ndk"
        path.write_text(clustered_ndk_2000_2004())
        code, out, _ = run(
            capsys,
            "table1", "--input", str(path), "--format", "ndk",
            "--reps", "200", "--deterministic",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(*r[:5], r[7]) for r in rows] == undrawn
        assert out == (DATA_DIR / "table1_golden.csv").read_text(encoding="utf-8")

    def test_table1_joins_each_row_once(self, tmp_path, capsys, monkeypatch):
        # a row's threshold-floor count and trigger-floor test share one join
        calls = []
        pair_blocks = eqalarm.alarm.pair_blocks
        monkeypatch.setattr(eqalarm.alarm, "_last_join", None)
        monkeypatch.setattr(
            eqalarm.alarm, "pair_blocks", lambda *a: calls.append(1) or pair_blocks(*a)
        )
        path = tmp_path / "clustered.ndk"
        path.write_text(clustered_ndk_2000_2004())
        code, out, _ = run(
            capsys,
            "table1", "--input", str(path), "--format", "ndk",
            "--reps", "200", "--deterministic",
        )
        assert code == 0
        assert out == (DATA_DIR / "table1_golden.csv").read_text(encoding="utf-8")
        assert len(calls) == 4

    def test_zero_reps_is_usage_error_before_the_catalog_is_read(self, capsys, monkeypatch):
        # the --reps rule of ``test`` too
        monkeypatch.setattr("eqalarm.cli._load_catalog", _never_called)
        code, out, err = run(capsys, "table1", "--input", "absent.ndk", "--reps", "0")
        assert (code, out) == (1, "")
        assert err == "error: argument --reps: must be >= 1, got 0\n"

    def test_non_covering_catalog_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.ndk"
        path.write_text(ndk_file([ndk_record(date="2004/01/10")]))
        code, _, err = run(capsys, "table1", "--input", str(path), "--format", "ndk")
        assert code == 1
        assert "does not cover" in err

    @pytest.mark.parametrize(
        "first,last,covers",
        [
            ("2000-02-01T00:00:00Z", "2004-12-01T00:00:00Z", True),
            ("2000-02-01T00:00:00.000001Z", "2004-12-01T00:00:00Z", False),
            ("2000-02-01T00:00:00Z", "2004-11-30T23:59:59.999999Z", False),
        ],
    )
    def test_coverage_rule_at_its_bounds(self, tmp_path, capsys, first, last, covers):
        # the first event at or before 2000-02-01 and the last at or after 2004-12-01
        path = tmp_path / "bounds.csv"
        path.write_text(
            "time,lat,lon,depth_km,mb,ms,id\n"
            f"{first},0.0,0.0,10.0,6.0,,a\n{last},10.0,10.0,10.0,6.0,,b\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "table1", "--input", str(path), "--reps", "1")
        if covers:
            assert code == 0 and out.startswith("year,mag_threshold,")
        else:
            assert (code, out) == (1, "")
            assert "does not cover 2000-02-01T00:00:00Z through 2004-12-01T00:00:00Z" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        assert run(capsys, "eval", "--input", src)[0] == 1

    def test_bad_window_order(self, capsys, csv_path):
        src = csv_path(THREE_EVENT_ROWS)
        code, _, err = run(
            capsys,
            "eval", "--input", src, "--mag-threshold", "5.5",
            "--from", "2021-01-01", "--to", "2020-01-01",
        )
        assert code == 1
        assert "precede" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--mag-threshold", "5.5"),
            ("test", "--mag-threshold", "5.5", "--reps", "10"),
            ("table1", "--reps", "10"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_radius_past_half_circumference_refused_before_any_join(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        path = tmp_path / "synthetic.ndk"
        path.write_text(synthetic_ndk_2000_2004())
        monkeypatch.setattr("eqalarm.alarm.pair_blocks", _never_called)
        code, out, err = run(
            capsys, *argv, "--input", str(path), "--format", "ndk", "--radius-km", "30000"
        )
        assert (code, out) == (1, "")
        assert err == "error: cap radius must be in (0, 20015.1] km, got 30000.0\n"

    @pytest.mark.parametrize("subcommand", ["eval", "test"])
    @pytest.mark.parametrize("days", ["1e8", "1e9", "1e300"])
    def test_window_past_datetime_max_is_an_error(self, capsys, csv_path, subcommand, days):
        src = csv_path(THREE_EVENT_ROWS)
        code, out, err = run(
            capsys, subcommand, "--input", src, "--mag-threshold", "5.5", "--window-days", days
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: window_days={float(days)!r} ends an alarm after")
