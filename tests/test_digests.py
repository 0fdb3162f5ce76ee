"""Byte-identity pins for the CLI commands and the pair join's callers on a
CMT-scale catalog.

The catalog is drawn with ``Generator.integers`` on PCG64 alone, whose
stream numpy keeps stable, and written as exact decimal text. Each output
is pinned by its SHA-256 digest, at the default memory budget and at a
small one that splits every join (and the count kernel) into several
blocks; both budgets must give the same bytes. A change that moves any of
these digests changes what users get, and must say so.
"""

import hashlib
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import eqalarm.alarm
from eqalarm import (
    GeoPoint,
    GlobalSphere,
    LatLonBox,
    SphericalCap,
    StudyVolume,
    alarm_measure_pi,
    filter_catalog,
    generate_alarms,
    parse_csv,
    union_volume_fraction_mc,
)
from eqalarm.alarm import FloorRule, pair_blocks
from eqalarm.cli import main
from eqalarm.decluster import WindowTable

EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)
SPAN_S = 5 * 365 * 86400 + 86400  # 2000-01-01 through 2004-12-31
N_MAIN, N_AFTER = 5200, 1230
WINDOWS_CSV = "mag_min,time_days,distance_km\n-inf,10,30\n6.0,30,60\n7.0,90,120\n"
# splits the decluster self-join into over a hundred blocks, the eval join
# into dozens and the union volume's into several, and the count kernel's
# verdict tables and replicate chunks into several
SMALL_BUDGET = 32 * 2**10
BUDGETS = (None, SMALL_BUDGET)

DIGESTS = {
    "decluster": "0797c50842213e54f5b7eea0fca23fce63273f0fbf62a5725e8a55fe9418ca8b",
    "decluster-retained": "129c04065c57114dd4b12b2650bca99e94d92c6476cbfc547a71be49fc7d85db",
    "eval-i": "5319352343043c3f4f1d021c925e26dff47715ad3c32fc781488c221cbad8779",
    "eval-ii": "df40d2bc4a50320cec7d335f7586d8ed235ec78221734fd83339d2bbe7a41836",
    "table1": "ed4a6e704d780f9318de2ef82d80fe116ff3ea12ceaa5d79b489607b4682f47f",
    "ingest": "234f951f44b32191f5455affc144e30e6fa534b383e30b0540ff46d1603b5f97",
    "test": "77d960aa91b745d4341ad390d729a5b6326291b806b4749bc1ca77f0a19635a8",
    "union-volume": "2db1f984a6f97ea48e0dc0fe278808b8a4fcb05b24e2a3d46e9084b887ed144b",
    "measure-pi": "93acbe6cb4962a5a77d0ff1947f5779d1f207e456dbc89bfd12a462f6a4e6b27",
    "union-volume-cap": "69bf48dae1d7906cd6b5ace7e43ae8a6c44e756b4562c66de9225f86a34f98af",
    "union-volume-box": "8d267c0fdc5b818667e4845238c69c893c3ad5c66f50d863ee2d83407352b91c",
}


def cmt_scale_csv() -> str:
    """6430 events over 2000-2004 in the canonical CSV: belts of clustered
    mainshocks (some across the dateline and near the poles), aftershocks a
    few days and tens of km after a mainshock, Gutenberg-Richter magnitudes
    with b = 1 above M5.0, and 1% of events with an MS but no mb."""
    g = np.random.Generator(np.random.PCG64(20002004))
    # 60 cluster centres in hundredths of a degree
    c_lat = g.integers(-6000, 6001, 60)
    c_lon = g.integers(-18000, 18000, 60)
    c_lat[:3], c_lon[:3] = (8850, -8900, 1000), (17950, -3000, -17990)
    cluster = g.integers(0, 60, N_MAIN)
    lat = np.clip(c_lat[cluster] + g.integers(-250, 251, N_MAIN), -9000, 9000)
    lon = c_lon[cluster] + g.integers(-250, 251, N_MAIN)
    t_s = g.integers(0, SPAN_S, N_MAIN)
    parent = g.integers(0, N_MAIN, N_AFTER)
    lat = np.concatenate((lat, np.clip(lat[parent] + g.integers(-20, 21, N_AFTER), -9000, 9000)))
    lon = np.concatenate((lon, lon[parent] + g.integers(-20, 21, N_AFTER)))
    lon = (lon + 18000) % 36000 - 18000
    t_s = np.concatenate((t_s, np.minimum(t_s[parent] + g.integers(60, 20 * 86400, N_AFTER),
                                          SPAN_S - 1)))
    t_s[:2] = 0, SPAN_S - 1  # the catalog spans the whole five years
    # magnitude tenths above 5.0 by counting thresholds 10**6 * 10**(-k/10)
    u = g.integers(0, 10**6, t_s.size)
    thresholds = np.array([round(10**6 * 10 ** (-k / 10)) for k in range(1, 31)])
    mag = 50 + (u[:, None] < thresholds).sum(axis=1)
    no_mb = g.integers(0, 100, t_s.size) == 0
    depth = g.integers(0, 7000, t_s.size)
    lines = ["time,lat,lon,depth_km,mb,ms,id"]
    for i, (t, la, lo, d, m, absent) in enumerate(
        zip(t_s.tolist(), lat.tolist(), lon.tolist(), depth.tolist(), mag.tolist(),
            no_mb.tolist())
    ):
        when = (EPOCH + timedelta(seconds=t)).strftime("%Y-%m-%dT%H:%M:%SZ")
        mb, ms = ("", f"{m / 10:.1f}") if absent else (f"{m / 10:.1f}", "")
        lines.append(f"{when},{la / 100:.2f},{lo / 100:.2f},{d / 10:.1f},{mb},{ms},ev{i:05d}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def catalog_text():
    return cmt_scale_csv()


@pytest.fixture
def workdir(tmp_path, monkeypatch, catalog_text):
    # relative paths: the config echo then holds no temporary directory
    (tmp_path / "cmt.csv").write_text(catalog_text, encoding="utf-8")
    (tmp_path / "windows.csv").write_text(WINDOWS_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _cli(capsys, workdir, argv, files):
    assert main(argv) == 0
    out = capsys.readouterr().out
    return _digest(out, *((workdir / f).read_text(encoding="utf-8") for f in files))


CLI_CASES = {
    "decluster": (
        ["decluster", "--input", "cmt.csv", "--windows", "windows.csv",
         "--stats-out", "stats.json"],
        ["stats.json"],
    ),
    "decluster-retained": (
        ["decluster", "--input", "cmt.csv", "--windows", "windows.csv", "--retained-only",
         "--stats-out", "stats.json"],
        ["stats.json"],
    ),
    "eval-i": (
        ["eval", "--input", "cmt.csv", "--mag-threshold", "5.5", "--predictor", "i",
         "--deterministic", "--alarms-out", "alarms.csv"],
        ["alarms.csv"],
    ),
    "eval-ii": (
        ["eval", "--input", "cmt.csv", "--mag-threshold", "5.5", "--predictor", "ii",
         "--deterministic", "--alarms-out", "alarms.csv"],
        ["alarms.csv"],
    ),
    "table1": (["table1", "--input", "cmt.csv", "--deterministic", "--reps", "200"], []),
    "ingest": (["ingest", "--input", "cmt.csv"], []),
    "test": (
        ["test", "--input", "cmt.csv", "--mag-threshold", "5.5", "--from", "2004-01-01",
         "--to", "2005-01-01", "--reps", "200", "--deterministic"],
        [],
    ),
}


def _year(catalog, mag):
    window = (datetime(2004, 1, 1, tzinfo=timezone.utc), datetime(2005, 1, 1, tzinfo=timezone.utc))
    return filter_catalog(catalog, mag, window), window


# regions other than the sphere, each over alarms of the busy cluster at
# (10, -179.9): a cap away from the poles, and a box across the antimeridian
REGIONS = {
    "union-volume-cap": SphericalCap(GeoPoint(10.0, -179.9), 500.0),
    "union-volume-box": LatLonBox(0.0, 20.0, 170.0, -170.0),
}


def union_volume_repr(catalog, region=GlobalSphere()) -> str:
    targets, window = _year(catalog, 5.5)
    alarms = generate_alarms(targets, 5.5, floor_rule=FloorRule.TRIGGER)
    return repr(union_volume_fraction_mc(alarms, StudyVolume(region, *window), 50_000, 4))


def measure_pi_repr(catalog) -> str:
    targets, window = _year(catalog, 5.8)
    alarms = generate_alarms(targets, 5.8, floor_rule=FloorRule.TRIGGER)
    history = filter_catalog(catalog, 5.5, (catalog.span.t_start, window[0]))
    epicenters = [GeoPoint(la, lo) for la, lo in zip(history.latitudes(), history.longitudes())]
    return repr(alarm_measure_pi(alarms, epicenters[::4], window))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_outputs(case, budget, capsys, workdir, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
    argv, files = CLI_CASES[case]
    assert _cli(capsys, workdir, argv, files) == DIGESTS[case]


@pytest.mark.parametrize("budget", BUDGETS)
def test_union_volume_and_measure(budget, catalog_text, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
    catalog = parse_csv(catalog_text)
    assert _digest(union_volume_repr(catalog)) == DIGESTS["union-volume"]
    assert _digest(measure_pi_repr(catalog)) == DIGESTS["measure-pi"]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", sorted(REGIONS))
def test_union_volume_on_regions(case, budget, catalog_text, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", budget)
    assert _digest(union_volume_repr(parse_csv(catalog_text), REGIONS[case])) == DIGESTS[case]


def test_small_budget_splits_the_joins(catalog_text, monkeypatch):
    # the pins above cover blocked joins only if the small budget blocks them:
    # the decluster self-join, the eval join and the union volume's join
    catalog = parse_csv(catalog_text)
    windows = WindowTable.from_csv(WINDOWS_CSV)
    mags = catalog.magnitudes()
    row = np.searchsorted([r.mag_min for r in windows.rows], mags, side="right") - 1
    radii = np.where(np.isnan(mags), 0.0, np.array([r.distance_km for r in windows.rows])[row])
    targets = filter_catalog(catalog, 5.5, (catalog.span.t_start, catalog.span.t_end))

    def alarm_join(triggers, points):
        rows = generate_alarms(triggers, 5.5).rows
        return (*points, rows["lat"], rows["lon"], rows["radius_km"])

    lat, lon = catalog.latitudes(), catalog.longitudes()
    joins = (
        (lat, lon, lat, lon, radii),
        alarm_join(targets, (targets.latitudes(), targets.longitudes())),
        alarm_join(_year(catalog, 5.5)[0], GlobalSphere().sample(50_000, np.random.default_rng(4))),
    )
    monkeypatch.setattr(eqalarm.alarm, "MEMORY_BUDGET_BYTES", SMALL_BUDGET)
    assert all(len(list(pair_blocks(*args))) >= 2 for args in joins)
