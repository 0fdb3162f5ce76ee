"""Independent reference computations for checking the program's outputs.

Numpy only: nothing here imports eqalarm, so a defect in the package cannot
hide by agreeing with itself. Magnitudes are integer tenths and times are
integer tenths of a second, exactly as the generator writes them to NDK.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

EARTH_RADIUS_KM = 6371.0088
WINDOW_TENTHS = 21 * 86400 * 10  # 21-day alarm window in tenths of a second
RADIUS_KM = 50.0


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km between degree coordinates (broadcasting)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (
        np.sin((p2 - p1) / 2.0) ** 2
        + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def near_pairs(lat, lon) -> np.ndarray:
    """near[k, j]: epicenters k and j within RADIUS_KM, and k != j."""
    near = haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :]) <= RADIUS_KM
    np.fill_diagonal(near, False)
    return near


def predicted_counts(times, near, mag, floors, base_times=None) -> np.ndarray:
    """Brute-force max-floor membership over every target x alarm pair.

    The alarm at position j is triggered by target j and covers target k
    when ``near[k, j]`` and k's time lies in (t_j, t_j + 21 days]; position
    j never covers itself. k is predicted when some alarm covers it and its
    magnitude reaches every covering alarm's floor. ``times`` is one row of
    target times or a matrix with one assignment per row; the alarms always
    sit at ``base_times`` (the observed times).
    """
    times = np.atleast_2d(np.asarray(times, dtype=np.int64))
    base = times[0] if base_times is None else np.asarray(base_times, dtype=np.int64)
    floor_ok = mag[:, None] >= floors[None, :]
    counts = np.empty(times.shape[0], dtype=np.int64)
    rows = max(1, 4_000_000 // max(near.size, 1))
    for lo in range(0, times.shape[0], rows):
        dt = times[lo : lo + rows, :, None] - base[None, None, :]
        cover = near & (dt > 0) & (dt <= WINDOW_TENTHS)
        hit = cover.any(axis=2) & ~(cover & ~floor_ok).any(axis=2)
        counts[lo : lo + rows] = hit.sum(axis=1)
    return counts


def table1_row(times, lat, lon, mag, threshold, span_s: float) -> dict:
    """events, succ (threshold floors), succ_wo (trigger floors) and v."""
    q = len(times)
    near = near_pairs(lat, lon)
    succ = predicted_counts(times, near, mag, np.full(q, threshold))[0] if q else 0
    succ_wo = predicted_counts(times, near, mag, mag)[0] if q else 0
    cap = 2.0 * math.pi * EARTH_RADIUS_KM**2 * (1.0 - math.cos(RADIUS_KM / EARTH_RADIUS_KM))
    sphere = 4.0 * math.pi * EARTH_RADIUS_KM**2
    v = q * cap * WINDOW_TENTHS / 10.0 / (sphere * span_s)
    return {"events": q, "succ": int(succ), "succ_wo": int(succ_wo), "v": v}


def exact_pvalue(times, lat, lon, mag) -> tuple[int, int]:
    """Exact permutation p-value (numerator, denominator) under trigger floors."""
    near = near_pairs(lat, lon)
    perms = np.array(list(itertools.permutations(range(len(times)))), dtype=np.int64)
    counts = predicted_counts(np.asarray(times)[perms], near, mag, mag, base_times=times)
    observed = predicted_counts(times, near, mag, mag)[0]
    frac = Fraction(int((counts >= observed).sum()), len(perms))
    return frac.numerator, frac.denominator
