"""The benchmark tracer (``perfbench/spans.py``) wraps eqalarm's entry points
by module and attribute name and reads some of their arguments by position,
and the benchmark's checks (``perfbench/worker.py``) read members of
catalogs, events and alarm sets; these checks catch a rename or a signature
change without running the benchmark."""

import ast
import importlib
import importlib.util
from collections import Counter
import inspect
import sys
from pathlib import Path

import pytest

from eqalarm import AlarmTargetIndex, Event, generate_alarms

from conftest import make_catalog

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "eqalarm"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _, _ in SPANS.ENTRY_POINTS], ids=lambda x: x
)
def test_entry_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_index_methods_in_class_dict():
    methods = AlarmTargetIndex.__dict__
    assert {attr for attr, _, _ in SPANS.METHODS} == {"__init__", "counts_for_time_matrix"}
    assert _params(methods["__init__"]) == ["self", "targets", "alarm_set"]
    assert len(_params(methods["counts_for_time_matrix"])) == 2


def test_arguments_read_by_position():
    sigtests = importlib.import_module("eqalarm.sigtests")
    assert _params(sigtests.permutation_test_fixed_alarms)[2] == "n_reps"
    assert _params(sigtests.alarm_measure_pi)[1] == "historical_epicenters"


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_table1_counts_succ_by_a_positional_count_predicted_call():
    # the benchmark's wrong-count check replaces eqalarm.cli.count_predicted
    # with ``lambda *a: original(*a) + 1``: only a positional call by that
    # name reaches the replacement
    (value,) = [
        node.value
        for node in ast.walk(_function("cli", "cmd_table1"))
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["succ"]
    ]
    assert isinstance(value, ast.Call) and ast.unparse(value.func) == "count_predicted"
    assert value.args and not value.keywords


def test_n_reps_is_the_third_parameter_of_the_fixed_alarm_test():
    # the tracer reads the replicate count as argument 2 or keyword n_reps
    args = _function("sigtests", "permutation_test_fixed_alarms").args
    assert not args.posonlyargs
    assert [a.arg for a in args.args[:3]] == ["targets", "alarm_set", "n_reps"]


def test_members_the_benchmark_checks_read():
    cat = make_catalog([(1.0, 10.0, 20.0, 6.0), (2.0, 10.1, 20.0, 5.8)])
    events = cat.events
    assert isinstance(events, tuple) and len(cat) == len(events) == 2
    assert cat.with_events(events[:1]).events == events[:1]
    for values in (cat.times_s(), cat.latitudes(), cat.longitudes()):
        assert values.shape == (2,)
    assert _params(Event) == ["time", "epicenter", "depth_km", "mb", "ms", "source_id"]
    # the worker counts marks in a Counter and sorts times
    marks = Counter((e.epicenter, e.depth_km, e.mb, e.ms, e.source_id) for e in events)
    assert len(marks) == 2 and sorted(e.time for e in events) == [e.time for e in events]
    alarms = generate_alarms(cat, 5.5)
    assert len(alarms) == 2
    assert [(a.center.lat, a.center.lon, a.radius_km) for a in alarms] == [
        (10.0, 20.0, 50.0),
        (10.1, 20.0, 50.0),
    ]
    starts = [a.t_start.timestamp() for a in alarms]
    assert starts == cat.times_s().tolist()
    assert [a.t_end.timestamp() for a in alarms] == [t + 21 * 86400.0 for t in starts]
