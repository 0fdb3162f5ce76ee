"""``parse_ndk`` reads canonical hypocenter lines column-wise, from the input
bytes when they are ASCII with \\n line ends and from the decoded lines
otherwise, and hands every other record to ``catalog._parse_ndk_hypocenter``;
these tests compare it with the per-record reader
``oracles.parse_ndk_by_record`` on both kinds of input, check which records
take which path and bound the memory the byte path takes."""

import importlib.util
import sys
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqalarm import CatalogParseError, GlobalSphere, StudyVolume, catalog, parse_ndk

from conftest import ndk_file, ndk_record, utc
from oracles import parse_ndk_by_record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def outcome(parse, source):
    """("ok", catalog) or the exception's type and message."""
    try:
        return "ok", parse(source)
    except Exception as exc:  # any type: both readers must agree on it
        return type(exc), str(exc)


def assert_same_as_oracle(source):
    got = outcome(parse_ndk, source)
    assert got == outcome(parse_ndk_by_record, source)
    return got


def count_per_record_reads():
    """Patch the per-record reader with a call counter; the oracle keeps its own."""
    return mock.patch.object(
        catalog, "_parse_ndk_hypocenter", side_effect=catalog._parse_ndk_hypocenter
    )


LEAP_DAYS = [date(1904, 2, 29), date(2000, 2, 29), date(2004, 2, 29), date(2400, 2, 29)]


@st.composite
def hypocenters(draw) -> dict:
    """ndk_record arguments in the canonical layout, over its whole range."""
    d = draw(st.one_of(st.dates(), st.sampled_from(LEAP_DAYS)))
    tenths = draw(st.integers(0, 609))  # seconds 00.0-60.9
    magnitude = st.one_of(st.just(0.0), st.integers(1, 99).map(lambda k: k / 10))
    return {
        "date": f"{d.year:04d}/{d.month:02d}/{d.day:02d}",
        "time": f"{draw(st.integers(0, 23)):02d}:{draw(st.integers(0, 59)):02d}:"
        f"{tenths // 10:02d}.{tenths % 10}",
        "lat": draw(st.integers(-9000, 9000)) / 100,
        "lon": draw(st.integers(-18000, 18000)) / 100,
        "depth": draw(st.integers(0, 9999)) / 10,
        "mb": draw(magnitude),
        "ms": draw(magnitude),
    }


def ndk_text(records: list[dict]) -> str:
    return ndk_file([ndk_record(**r) for r in records]) if records else ""


@settings(max_examples=300, deadline=None)
@given(st.lists(hypocenters(), max_size=6))
@example([{"date": "2004/02/29", "time": "23:59:60.9", "lat": -90.0, "lon": -180.0, "mb": 9.9}])
@example([{"lat": 90.0, "lon": 180.0, "depth": 0.0, "mb": 0.0, "ms": 0.0}])
def test_well_formed_records_read_column_wise_as_by_record(records):
    text = ndk_text(records)
    for source in (text, text.encode()):
        with count_per_record_reads() as per_record:
            kind, cat = assert_same_as_oracle(source)
        assert kind == "ok" and len(cat) == len(records)
        assert per_record.call_count == 0


# İ (U+0130) is "0" (0x30) in its low byte
ALPHABET = "0123456789 -+./:_eExX\t\x00\ufeff٣éİ\r\x0b\x0c\x1c\x85\u2028"


@st.composite
def broken_texts(draw) -> str:
    """A few well-formed records, then one hypocenter line with one character
    of its columns 0-54 replaced, or the line cut short."""
    records = draw(st.lists(hypocenters(), min_size=1, max_size=3))
    lines = ndk_text(records).splitlines()
    k = 5 * draw(st.integers(0, len(records) - 1))
    line = lines[k]
    if draw(st.booleans()):
        j = draw(st.integers(0, 54))
        line = line[:j] + draw(st.sampled_from(ALPHABET)) + line[j + 1:]
    else:
        line = line[: draw(st.integers(0, 79))]
    lines[k] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(broken_texts())
@example(ndk_file([ndk_record(date="0000/01/01")]))
@example(ndk_file([ndk_record(date="2003/02/29")]))
@example(ndk_file([ndk_record(date="2004/13/01")]))
@example(ndk_file([ndk_record(date="2004/00/10")]))
@example(ndk_file([ndk_record(date="2004/01/00")]))
@example(ndk_file([ndk_record().replace(" 13.78", "1 3.78")]))
@example(ndk_file([ndk_record().replace(" -88.78", " - 8.78")]))
@example(ndk_file([ndk_record().replace(" 13.78", "   .78").replace(" -88.78", "   -.78")]))
@example(ndk_file(["é" + ndk_record()]))  # in column 0, one code point is one column
@example(ndk_file([ndk_record().replace("2004", "2İ04", 1)]))  # column 6 is a digit
@example(ndk_file([ndk_record(), ndk_record()])[:-1])
@example(ndk_file([ndk_record().rsplit("\n", 1)[0] + "\n"]))  # the last line is empty
@example(ndk_file([ndk_record().replace("EL SALVADOR", "EL\rSALVADOR")]))
def test_broken_records_give_the_same_catalog_or_error(text):
    for source in (text, text.encode()):
        assert_same_as_oracle(source)


def test_year_9999_overflow_still_raises_from_the_per_record_reader():
    # the leap second rolls past datetime.max: a parse error, not OverflowError
    text = ndk_file([ndk_record(date="9999/12/31", time="23:59:60.0")])
    with count_per_record_reads() as per_record:
        kind, message = assert_same_as_oracle(text)
    assert kind is CatalogParseError and per_record.call_count == 1
    assert message.startswith("NDK record 1: ")


class TestFastPath:
    def test_conftest_layout_never_reaches_the_per_record_reader(self):
        records = [
            ndk_record(),
            ndk_record(date="2004/01/11", time="01:02:03.0", lat=-31.5, lon=179.9, mb=5.8, ms=5.6),
            ndk_record(date="2000/02/29", time="00:00:00.0", lat=90.0, lon=-180.0, depth=0.0),
            ndk_record(time="23:59:60.5", mb=0.0, ms=0.0),
        ]
        with count_per_record_reads() as per_record:
            kind, cat = assert_same_as_oracle(ndk_file(records))
        assert kind == "ok" and len(cat) == 4 and per_record.call_count == 0

    def test_perfbench_catalog_never_reaches_the_per_record_reader(self, perfbench_ndk):
        data, records = perfbench_ndk
        with count_per_record_reads() as per_record:
            kind, cat = assert_same_as_oracle(data)
        assert kind == "ok" and len(cat) == records > 0
        assert per_record.call_count == 0

    def test_bytes_parse_peaks_below_twice_the_input(self, perfbench_ndk):
        # the ratio does not depend on the catalog's scale
        data, records = perfbench_ndk
        parse_ndk(data)  # numpy's first-call set-up is not the parse's
        tracemalloc.start()
        try:
            cat = parse_ndk(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cat) == records
        assert peak <= 2 * len(data)

    def test_ascii_str_parse_peaks_below_three_times_the_input(self, perfbench_ndk):
        # ASCII text is encoded once and takes the byte path: the copy plus
        # the byte parse, not the split lines and their re-encoding
        data, records = perfbench_ndk
        text = data.decode()
        parse_ndk(text)
        tracemalloc.start()
        try:
            cat = parse_ndk(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cat == parse_ndk(data) and len(cat) == records
        assert peak <= 3 * len(text)

    @pytest.mark.parametrize(
        "record",
        [
            ndk_record(date="2004/1/10"),
            ndk_record(time="24:00:00.0"),
            ndk_record(time="06:60:19.4"),
            ndk_record(date="٢٠٠٤/01/10"),  # int() reads any Unicode digit
            ndk_record().replace(" 13.78", "+13.78"),
        ],
        ids=["short-month", "hour-24", "minute-60", "arabic-indic-year", "plus-sign"],
    )
    def test_valid_non_canonical_records_reach_it(self, record):
        text = ndk_file([ndk_record(), record, ndk_record(date="2004/01/12")])
        with count_per_record_reads() as per_record:
            kind, cat = assert_same_as_oracle(text)
        assert kind == "ok" and len(cat) == 3
        assert [c.args for c in per_record.call_args_list] == [(record.split("\n")[0], 1)]

    @pytest.mark.parametrize(
        "text",
        [
            ndk_file([ndk_record(), ndk_record(date="2004/01/12")]).replace("\n", "\r\n"),
            ndk_file([ndk_record(name="ÎLES LOYAUTÉ"), ndk_record(name="日本")]),
        ],
        ids=["crlf", "non-ascii-after-column-55"],
    )
    def test_line_breaks_and_text_after_column_55_stay_on_the_fast_path(self, text):
        # splitlines drops every line break, and the scan reads columns 0-54 only
        for source in (text, text.encode()):
            with count_per_record_reads() as per_record:
                kind, cat = assert_same_as_oracle(source)
            assert kind == "ok" and len(cat) == 2 and per_record.call_count == 0

    @pytest.mark.parametrize("source", ["", b"", "\ufeff", "\ufeff".encode()])
    def test_empty_input_gives_the_empty_catalog(self, source):
        kind, cat = assert_same_as_oracle(source)
        assert kind == "ok" and len(cat) == 0
        assert cat.span == StudyVolume(GlobalSphere(), utc(1970, 1, 1), utc(1970, 1, 2))


def test_in_range_longitudes_pass_through_normalize_lon():
    cat = parse_ndk(ndk_file([ndk_record(lon=105.46), ndk_record(lon=-0.0, lat=-0.0)]))
    # an in-range longitude reads back as written, and -0.0 keeps its sign
    assert cat.rows["lon"].tolist() == [105.46, -0.0]
    assert str(cat.rows["lon"][1]) == str(cat.rows["lat"][1]) == "-0.0"


@pytest.fixture(scope="module")
def perfbench_ndk(tmp_path_factory) -> tuple[bytes, int]:
    """The bytes of a 0.05-scale perfbench CMT-like NDK file and its record count."""
    catalogs = load_perfbench_catalogs()
    cols = catalogs.cmt_like(np.random.default_rng([3, 20002004]), 0.05)
    path = tmp_path_factory.mktemp("perfbench") / "cmt.ndk"
    catalogs.write_ndk(path, cols)
    return path.read_bytes(), cols["t"].size


def load_perfbench_catalogs():
    """perfbench/catalogs.py, which imports its sibling ``oracle``."""
    spec = importlib.util.spec_from_file_location("perfbench_catalogs", PERFBENCH / "catalogs.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module
