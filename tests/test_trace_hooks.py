"""The benchmark tracer (``perfbench/spans.py``) wraps eqalarm's entry points
by module and attribute name and reads some of their arguments by position;
these checks catch a rename or a signature change without running the
benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from eqalarm import AlarmTargetIndex

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
