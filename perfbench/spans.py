"""In-memory span tracing around eqalarm's public entry points.

Nothing under ``src/`` is edited: :class:`Tracer` swaps wrappers into every
loaded ``eqalarm`` module namespace (and onto ``AlarmTargetIndex`` for its
methods) while a traced pass runs, and puts the originals back afterwards.
A span has a name, start, end, parent and counts taken from the call's
arguments and result. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    index: int  # position in Tracer.spans
    parent: int  # index of the parent span, -1 for a root
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_join(args, kwargs, index, span):
    targets, alarm_set = _arg(args, kwargs, 1, "targets"), _arg(args, kwargs, 2, "alarm_set")
    dist_evals = len(targets) * len(alarm_set)
    return {"calls": 1, "pairs": index.n_pairs, "dist_evals": dist_evals}


def _count_kernel(args, kwargs, result, span):
    index, matrix = args[0], args[1]
    rows = len(matrix)
    # computed, not measured: the gathered float64 pair times plus the three
    # boolean pair masks (covered, good, bad), and the input matrix read once
    per_row = index.n_pairs * (8 + 3) + index.n_targets * 8
    return {"rows": rows, "pair_evals": rows * index.n_pairs, "bytes": rows * per_row}


# (module, attribute, span name, counts(args, kwargs, result, span) or None)
ENTRY_POINTS = (
    ("eqalarm.cli", "main", "cli", None),
    ("eqalarm.catalog", "parse_ndk", "catalog.parse", lambda a, k, r, s: {"records": len(r)}),
    ("eqalarm.catalog", "parse_csv", "catalog.parse", lambda a, k, r, s: {"records": len(r)}),
    ("eqalarm.catalog", "filter_catalog", "catalog.filter", lambda a, k, r, s: {"calls": 1}),
    ("eqalarm.alarm", "generate_alarms", "alarm.generate", lambda a, k, r, s: {"alarms": len(r)}),
    (
        "eqalarm.alarm",
        "union_volume_fraction_mc",
        "alarm.union_mc",
        lambda a, k, r, s: {"samples": r.n_samples},
    ),
    (
        "eqalarm.sigtests",
        "permutation_test_fixed_alarms",
        "sigtests.permtest",
        lambda a, k, r, s: {"calls": 1, "reps": _arg(a, k, 2, "n_reps")},
    ),
    ("eqalarm.sigtests", "exact_permutation_pvalue", "sigtests.exact", "exact"),
    (
        "eqalarm.sigtests",
        "alarm_measure_pi",
        "sigtests.measure_pi",
        lambda a, k, r, s: {"epicenters": len(_arg(a, k, 1, "historical_epicenters"))},
    ),
    (
        "eqalarm.sigtests",
        "r_score_baseline",
        "sigtests.rscore",
        lambda a, k, r, s: {"reps": r.n_reps},
    ),
    ("eqalarm.sigtests", "poisson_binomial_pvalue", "sigtests.pbinom", None),
    ("eqalarm.nullmodels", "permute_times", "nullmodels.permute_times", None),
    ("eqalarm.nullmodels", "historical_cell_rates", "nullmodels.cell_rates", None),
    (
        "eqalarm.nullmodels",
        "gen_heterogeneous_poisson",
        "nullmodels.het_poisson",
        lambda a, k, r, s: {"events": len(r)},
    ),
    ("eqalarm.nullmodels", "gen_gamma_renewal", "nullmodels.gamma_renewal", None),
    (
        "eqalarm.decluster",
        "decluster",
        "decluster",
        lambda a, k, r, s: {"events": len(a[0]), "deleted": len(r.deleted_indices)},
    ),
    ("eqalarm.decluster", "decluster_stats", "decluster.stats", None),
)

# methods of eqalarm.alarm.AlarmTargetIndex
METHODS = (
    ("__init__", "alarm.join", _count_join),
    ("counts_for_time_matrix", "alarm.count", _count_kernel),
)


class Tracer:
    """Records spans while installed; ``spans`` keeps every one in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, len(self.spans), parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.index)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.duration

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter == "exact":
                # the enumeration's size is the row count it hands the kernel
                kids = [s for s in tracer.spans[sp.index + 1 :] if s.parent == sp.index]
                sp.counts = {"perms": sum(c.counts.get("rows", 0) for c in kids)}
            elif counter is not None:
                # for __init__ the interesting "result" is the object itself
                sp.counts = counter(args, kwargs, args[0] if result is None else result, sp)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Swap wrappers into every loaded eqalarm module and the index class."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "eqalarm"]
        for mod_name, attr, name, counter in ENTRY_POINTS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        cls = sys.modules["eqalarm.alarm"].AlarmTargetIndex
        for attr, name, counter in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def check(self) -> list[str]:
        """Problems with the span tree: open spans, children outside or
        overlapping within their parent, or self time that does not
        reconcile with duration minus the children's time."""
        problems = []
        kids = defaultdict(list)
        for i, sp in enumerate(self.spans):
            if not sp.end >= sp.start:
                problems.append(f"span {i} {sp.name} is not closed")
            if sp.parent >= 0:
                kids[sp.parent].append(sp)
        for i, children in kids.items():
            parent = self.spans[i]
            last_end = parent.start
            for child in children:
                if child.start < last_end or child.end > parent.end:
                    problems.append(f"span {i} {parent.name}: child {child.name} out of order")
                last_end = child.end
            summed = sum(c.duration for c in children)
            if abs(parent.self_s + summed - parent.duration) > 1e-9 or parent.self_s < -1e-6:
                problems.append(f"span {i} {parent.name}: self time does not reconcile")
        return problems

    def totals(self, first: int = 0) -> dict[str, float]:
        """Self seconds (``<name>.s``) and summed counts (``<name>.<count>``)
        over the spans recorded since position ``first``."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans[first:]:
            out[f"{sp.name}.s"] += sp.self_s
            for key, value in sp.counts.items():
                out[f"{sp.name}.{key}"] += value
        return dict(out)

    def dump(self, path) -> None:
        records = [
            {
                "name": sp.name,
                "parent": sp.parent,
                "start": sp.start,
                "end": sp.end,
                "self_s": sp.self_s,
                "counts": sp.counts,
            }
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
            fh.write("\n")
