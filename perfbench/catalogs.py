"""Deterministic synthetic inputs: CMT-like NDK catalogs and their oracles.

Run as a script in its own process, so that generation time and memory stay
out of the measured process:

    python3 perfbench/catalogs.py --seed 1 --scale 1.0 --out .perfbench_work/inputs

It writes ``cmt.ndk`` (about 6.4k records over 2000-2004), ``regional/*.ndk``
(small clustered regional catalogs for the significance tests) and
``expected.json``, the values the independent oracle in ``oracle.py`` gives
for them. Numpy only; eqalarm is never imported here.

The global catalog puts epicenters on elongated seismic belts whose weights
are heavy-tailed, draws Gutenberg-Richter magnitudes (b = 1 above M5.0) and
adds short-range aftershock clusters whose size grows with the mainshock
magnitude. Magnitudes, mainshock times and aftershock counts are stratified
samples, so every seed gives nearly the same counts per table row (about
430/215/2013/1009 at scale 1; the paper has 445/207/2013/996) while
positions, clusters and times differ.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import oracle
from oracle import haversine_km

SPAN_START_S = 946_684_800  # 2000-01-01T00:00:00Z
YEAR_2004_S = 1_072_915_200  # 2004-01-01T00:00:00Z
SPAN_END_S = 1_104_537_600  # 2005-01-01T00:00:00Z

# (label, threshold in tenths of a magnitude unit, window start, window end)
TABLE1_ROWS = (
    ("2004", 55, YEAR_2004_S, SPAN_END_S),
    ("2004", 58, YEAR_2004_S, SPAN_END_S),
    ("2000-2004", 55, SPAN_START_S, SPAN_END_S),
    ("2000-2004", 58, SPAN_START_S, SPAN_END_S),
)

RECORDS_AT_SCALE_1 = 6366  # records with an mb; 10**-0.5 of them reach M5.5
ABSENT_MB_SHARE = 0.01  # extra records whose mb is "not determined" (0.0)
AFTERSHOCK_SHARE = 0.35
PRODUCTIVITY_ALPHA = 0.6  # aftershock count grows as 10**(alpha * (M - 5))
TIME_TREND = 0.3  # mainshock rate grows linearly by this share over the span
N_BELTS = 120
KM_PER_DEG = 111.19508

REGIONAL_THRESHOLD = 50  # M5.0
# (targets Q, Monte-Carlo replicates) per regional catalog; Q <= 8 is also
# enumerated exactly
REGIONAL = (
    (6, 5000), (7, 5000), (8, 5000), (6, 5000), (7, 5000), (8, 5000),
    (10, 5000), (12, 5000), (14, 5000), (16, 5000), (18, 5000), (20, 5000),
    (24, 5000), (28, 5000), (32, 10000), (36, 10000), (40, 10000), (40, 20000),
)

# decluster window table rows: (mag_min in tenths or None for -inf, days, km)
WINDOWS = ((None, 10, 30), (60, 30, 60), (70, 90, 120))


def _gr_tenths(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stratified Gutenberg-Richter magnitudes (b = 1, M >= 5.0) in tenths."""
    u = (rng.permutation(n) + rng.random(n)) / n
    m = 4.95 - np.log10(1.0 - u)
    return np.clip(np.rint(m * 10.0), 50, 94).astype(np.int64)


def _offset(lat, lon, north_km, east_km):
    """Move points by local north/east offsets (flat-earth step)."""
    new_lat = np.clip(lat + north_km / KM_PER_DEG, -89.0, 89.0)
    new_lon = lon + east_km / (KM_PER_DEG * np.cos(np.radians(new_lat)))
    return new_lat, (new_lon + 180.0) % 360.0 - 180.0


def _belt_points(rng, n, belts):
    """n epicenters on belts chosen by their heavy-tailed weights."""
    b_lat, b_lon, b_az, b_len, b_width, b_weight = belts
    pick = rng.choice(b_lat.size, size=n, p=b_weight)
    along = rng.uniform(-0.5, 0.5, size=n) * b_len[pick]
    across = rng.normal(0.0, 1.0, size=n) * b_width[pick]
    az = b_az[pick]
    north = along * np.cos(az) - across * np.sin(az)
    east = along * np.sin(az) + across * np.cos(az)
    return _offset(b_lat[pick], b_lon[pick], north, east)


def cmt_like(rng: np.random.Generator, scale: float) -> dict[str, np.ndarray]:
    """Columns of a clustered global catalog over 2000-2004, sorted by time."""
    n_mb = max(40, int(round(RECORDS_AT_SCALE_1 * scale)))
    n_after = int(round(AFTERSHOCK_SHARE * n_mb))
    n_main = n_mb - n_after
    span = SPAN_END_S - SPAN_START_S

    z = rng.uniform(math.sin(math.radians(-60)), math.sin(math.radians(60)), N_BELTS)
    # the same belts every seed, at random places: heavy-tailed (Pareto 1.3)
    # weights, the busiest belts the longest and widest
    levels = (np.arange(N_BELTS) + 0.5) / N_BELTS
    weight = (1.0 - levels) ** (-1.0 / 1.3)
    belts = (
        np.degrees(np.arcsin(z)),
        rng.uniform(-180.0, 180.0, N_BELTS),
        rng.uniform(0.0, math.pi, N_BELTS),
        200.0 + 1800.0 * levels,
        15.0 + 35.0 * levels,
        weight / weight.sum(),
    )

    mag = _gr_tenths(rng, n_mb)
    main_mag, after_mag = mag[:n_main], mag[n_main:]  # views: swaps below update mag
    # stratified draw from a linearly rising rate: invert F(x) = (x + b x^2 / 2) / (1 + b / 2)
    u = (rng.permutation(n_main) + rng.random(n_main)) / n_main
    b = TIME_TREND
    x = (np.sqrt(1.0 + 2.0 * b * u * (1.0 + b / 2.0)) - 1.0) / b
    main_t = SPAN_START_S + x * span
    main_lat, main_lon = _belt_points(rng, n_main, belts)

    productivity = 10.0 ** (PRODUCTIVITY_ALPHA * (main_mag - 50) / 10.0)
    # systematic sampling: each mainshock gets the floor or ceiling of its share
    edges = np.cumsum(productivity) / productivity.sum()
    parent = np.searchsorted(edges, (np.arange(n_after) + rng.random()) / n_after)
    parent = rng.permutation(np.minimum(parent, n_main - 1))
    # Bath's law, loosely: most aftershocks that outsize their mainshock swap
    # magnitudes with it, so the mainshock is usually the cluster's largest
    for a in np.flatnonzero(rng.random(n_after) < 0.8).tolist():
        p = parent[a]
        if after_mag[a] > main_mag[p]:
            after_mag[a], main_mag[p] = main_mag[p], after_mag[a]
    # Omori-like delays (c = 0.05 d, p = 1.3), truncated at 60 days
    tail = 1.0 - (1.0 + 60.0 / 0.05) ** -0.3
    delay_days = 0.05 * ((1.0 - rng.random(n_after) * tail) ** (-1.0 / 0.3) - 1.0)
    after_t = main_t[parent] + delay_days * 86400.0
    late = after_t >= SPAN_END_S - 1.0
    after_t[late] = main_t[parent[late]] + rng.random(late.sum()) * (
        SPAN_END_S - 1.0 - main_t[parent[late]]
    )
    sigma_km = 8.0 * 10.0 ** (0.5 * (main_mag[parent] - 50) / 10.0)  # rupture-length scaling
    after_lat, after_lon = _offset(
        main_lat[parent],
        main_lon[parent],
        rng.normal(0.0, 1.0, n_after) * sigma_km,
        rng.normal(0.0, 1.0, n_after) * sigma_km,
    )

    n_absent = int(round(ABSENT_MB_SHARE * n_mb))
    absent_lat, absent_lon = _belt_points(rng, n_absent, belts)
    absent_t = SPAN_START_S + rng.random(n_absent) * (span - 1.0)

    t = np.concatenate([main_t, after_t, absent_t])
    lat = np.concatenate([main_lat, after_lat, absent_lat])
    lon = np.concatenate([main_lon, after_lon, absent_lon])
    mb = np.concatenate([mag, np.zeros(n_absent, dtype=np.int64)])
    return _finish(rng, t, lat, lon, mb)


def _finish(rng, t_s, lat, lon, mb_tenths) -> dict[str, np.ndarray]:
    """Quantize to the NDK resolution and sort by time."""
    n = t_s.size
    ms = np.where(
        mb_tenths > 0, mb_tenths + rng.integers(-3, 4, n), rng.integers(50, 61, n)
    )
    ms = np.where(rng.random(n) < 0.2, 0, ms)  # MS is often "not determined"
    ms = np.where(mb_tenths > 0, ms, np.maximum(ms, 50))  # keep one magnitude
    cols = {
        "t": np.floor(t_s * 10.0).astype(np.int64),  # tenths of a second
        "lat": np.rint(lat * 100.0).astype(np.int64),  # hundredths of a degree
        "lon": np.rint(lon * 100.0).astype(np.int64),
        "depth": rng.integers(50, 6000, n),  # tenths of a km
        "mb": mb_tenths.astype(np.int64),
        "ms": ms.astype(np.int64),
    }
    cols["lon"] = np.where(cols["lon"] >= 18000, cols["lon"] - 36000, cols["lon"])
    order = np.argsort(cols["t"], kind="stable")
    return {k: v[order] for k, v in cols.items()}


def regional(rng: np.random.Generator, q: int) -> dict[str, np.ndarray]:
    """Small clustered regional catalog: q events at M >= 5.0 plus a few below.

    Events come in equal mainshock-aftershock clusters a few km across and a
    few weeks long, on a 200 km grid over two years, so some are predicted by
    the 21-day, 50-km alarms of earlier ones in the same cluster and the
    number of pairs within 50 km hardly varies with the seed.
    """
    c_lat = rng.uniform(-50.0, 50.0)
    c_lon = rng.uniform(-180.0, 180.0)
    n_clusters = max(2, q // 4)
    cell = rng.permutation(16)[:n_clusters]
    k_lat, k_lon = _offset(
        np.full(n_clusters, c_lat),
        np.full(n_clusters, c_lon),
        200.0 * (cell // 4) + rng.uniform(-20.0, 20.0, n_clusters),
        200.0 * (cell % 4) + rng.uniform(-20.0, 20.0, n_clusters),
    )
    k_t = SPAN_START_S + rng.random(n_clusters) * 700 * 86400.0
    n_below = max(1, q // 5)
    member = np.arange(q + n_below) % n_clusters
    n = member.size
    first = np.arange(n) < n_clusters
    t = k_t[member] + np.where(first, 0.0, rng.exponential(8.0, n) * 86400.0 + 60.0)
    lat, lon = _offset(k_lat[member], k_lon[member], rng.normal(0, 15, n), rng.normal(0, 15, n))
    mb = np.concatenate([_gr_tenths(rng, q), rng.integers(45, 50, n_below)])
    return _finish(rng, t, lat, lon, mb)


def _ndk_record(i: int, t: int, lat: int, lon: int, depth: int, mb: int, ms: int) -> str:
    when = datetime.fromtimestamp(t // 10, timezone.utc)
    line1 = (
        f"PDE  {when:%Y/%m/%d} {when:%H:%M:%S}.{t % 10} {lat / 100:6.2f} {lon / 100:7.2f} "
        f"{depth / 10:5.1f} {mb / 10:3.1f} {ms / 10:3.1f} {'SYNTHETIC REGION':<24}"
    )
    line2 = f"S{when:%Y%m%d%H%M}A{i:05d} B: 12   20  40 S: 30   60  50 M:  0    0   0 CMT: 1 TRIHD:  1.1"
    line3 = f"CENTROID:      1.2 0.1 {lat / 100:6.2f} 0.01 {lon / 100:7.2f} 0.01  {depth / 10:5.1f}  0.5 FREE S-20050101000000"
    line4 = "24  1.250 0.050 -0.720 0.040 -0.530 0.040  0.210 0.030 -0.880 0.050  0.340 0.030"
    line5 = "V10   1.650 12  83  -0.090 10 350  -1.560 75 225   1.610 213 36  124  43 61   63"
    return "\n".join((line1, line2, line3, line4, line5))


def write_ndk(path: Path, cols: dict[str, np.ndarray]) -> None:
    rows = zip(*(cols[k].tolist() for k in ("t", "lat", "lon", "depth", "mb", "ms")))
    text = "\n".join(_ndk_record(i, *row) for i, row in enumerate(rows)) + "\n"
    path.write_text(text, encoding="ascii")


def _targets(cols, threshold, t0_s=None, t1_s=None):
    keep = cols["mb"] >= threshold
    if t0_s is not None:
        keep &= (cols["t"] >= t0_s * 10) & (cols["t"] <= t1_s * 10)
    return (
        cols["t"][keep],
        cols["lat"][keep] / 100.0,
        cols["lon"][keep] / 100.0,
        cols["mb"][keep],
    )


def _decluster_oracle(cols) -> dict[str, list[int]]:
    """Deleted positions under WINDOWS, by the pairwise predicate (default
    mode) and by a sequential sweep over the same pairs (retained-only mode).

    Event j punches k when j precedes k in the catalog, both have an mb,
    mb_j > mb_k, 0 < t_k - t_j <= the window days of mb_j and the epicenters
    are within its window distance.
    """
    t, mb = cols["t"], cols["mb"]
    lat, lon = cols["lat"] / 100.0, cols["lon"] / 100.0
    n = t.size
    row = np.zeros(n, dtype=np.int64)
    for r, (mag_min, _, _) in enumerate(WINDOWS):
        if mag_min is not None:
            row[mb >= mag_min] = r
    days = np.array([w[1] for w in WINDOWS])[row]
    km = np.array([w[2] for w in WINDOWS], dtype=float)[row]
    punchers: dict[int, list[int]] = {}
    for j in np.flatnonzero(mb > 0):
        hi = np.searchsorted(t, t[j] + days[j] * 864_000, side="right")
        k = np.arange(j + 1, hi)
        k = k[(mb[k] > 0) & (mb[k] < mb[j]) & (t[k] > t[j])]
        k = k[haversine_km(lat[j], lon[j], lat[k], lon[k]) <= km[j]]
        for kk in k.tolist():
            punchers.setdefault(kk, []).append(int(j))
    retained_deleted: set[int] = set()
    for k in sorted(punchers):
        if any(j not in retained_deleted for j in punchers[k]):
            retained_deleted.add(k)
    return {"default": sorted(punchers), "retained": sorted(retained_deleted)}


def generate(seed: int, scale: float, out: Path) -> dict:
    """Write every input for ``seed`` under ``out`` and return the expectations."""
    rng = np.random.default_rng([seed, 20002004])
    out.mkdir(parents=True, exist_ok=True)
    cmt = cmt_like(rng, scale)
    write_ndk(out / "cmt.ndk", cmt)
    rows = []
    for label, threshold, t0, t1 in TABLE1_ROWS:
        row = oracle.table1_row(*_targets(cmt, threshold, t0, t1), threshold, t1 - t0)
        rows.append({"label": label, "threshold": threshold / 10.0, **row})

    (out / "regional").mkdir(exist_ok=True)
    regionals = []
    for i, (q, reps) in enumerate(REGIONAL):
        cols = regional(rng, q)
        name = f"regional/r{i:02d}.ndk"
        write_ndk(out / name, cols)
        times, lat, lon, mag = _targets(cols, REGIONAL_THRESHOLD)
        entry = {
            "file": name,
            "q": int(times.size),
            "reps": max(100, int(round(reps * min(scale, 1.0)))),
            "observed": int(oracle.predicted_counts(times, oracle.near_pairs(lat, lon), mag, mag)[0]),
        }
        if times.size <= 8:
            entry["exact"] = list(oracle.exact_pvalue(times, lat, lon, mag))
        regionals.append(entry)
    return {
        "seed": seed,
        "scale": scale,
        "records": int(cmt["t"].size),
        "table1": rows,
        "decluster": _decluster_oracle(cmt),
        "regional_threshold": REGIONAL_THRESHOLD / 10.0,
        "regional": regionals,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    expected = generate(args.seed, args.scale, args.out)
    expected["generate_s"] = time.perf_counter() - start
    (args.out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
