"""Malformed telemetry CSVs: every refusal is an EngineError, row refusals name file:line.

The table test lists one row per row-level rule, checked through ``ingest``
(with its exact location) and, for the rules a record owns, through direct
construction of the record. The property test edits one field or inserts
bytes into a small valid data set and requires that ``ingest`` either
returns a store or raises an ``EngineError`` subclass.
"""

import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcause.errors import DataError, EngineError
from rootcause.telemetry import (
    FILE_NAMES,
    Alert,
    LogEntry,
    MetricSample,
    TelemetryStore,
    export,
    ingest,
)

from .conftest import T0, make_span, walkthrough_store

OVERSIZE = "x" * (csv.field_size_limit() + 1)


def _walkthrough_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        export(walkthrough_store(), tmp)
        return {name: (Path(tmp) / name).read_bytes() for name in FILE_NAMES.values()}


FILES = _walkthrough_files()


def _set_field(data: bytes, line: int, column: int, value: str) -> bytes:
    """The file with one field of one line (1-based) replaced, re-quoted by csv."""
    lines = data.decode("utf-8").splitlines()
    row = next(csv.reader([lines[line - 1]]))
    if column < len(row):
        row[column] = value
    else:
        row.append(value)
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(row)
    lines[line - 1] = out.getvalue()
    return ("\n".join(lines) + "\n").encode("utf-8")


def _insert(data: bytes, line: int, raw: bytes) -> bytes:
    """The file with raw bytes inserted at the start of one line (1-based)."""
    lines = data.split(b"\n")
    lines[line - 1] = raw + lines[line - 1]
    return b"\n".join(lines)


def _write(root: Path, name: str, data: bytes) -> Path:
    for other, content in FILES.items():
        (root / other).write_bytes(content)
    (root / name).write_bytes(data)
    return root


# name -> (file, line, edit of that file's bytes, message after "file:line: ",
#          record construction for rules a record owns, or None)
REFUSALS = {
    "integer overflow": (
        "traces.csv", 2, lambda d: _set_field(d, 2, 7, "1.5e400"),
        "field duration_ms is not an integer", None,
    ),
    "integer not a number": (
        "traces.csv", 6, lambda d: _set_field(d, 6, 7, "nan"),
        "field duration_ms is not an integer", None,
    ),
    "integer infinite": (
        "traces.csv", 7, lambda d: _set_field(d, 7, 8, "inf"),
        "field status_code is not an integer", None,
    ),
    "duplicate cmdb_id": (
        "topology.csv", 9, lambda d: d + b"frontend2-0,otherservice,node-9\n",
        "duplicate cmdb_id frontend2-0", None,
    ),
    "not a number": (
        "metrics.csv", 40, lambda d: _set_field(d, 40, 3, "high"),
        "field value is not a number", None,
    ),
    "non-finite value": (
        "metrics.csv", 41, lambda d: _set_field(d, 41, 3, "nan"),
        "field value must be finite",
        lambda: MetricSample(T0, "pod-a", "cpu", float("nan")),
    ),
    "infinite value": (
        "metrics.csv", 42, lambda d: _set_field(d, 42, 3, "1e400"),
        "field value must be finite",
        lambda: MetricSample(T0, "pod-a", "cpu", float("inf")),
    ),
    "span start at zero": (
        "traces.csv", 3, lambda d: _set_field(d, 3, 6, "0"),
        "field start_time_ms must be > 0",
        lambda: make_span(span_id="s0", start=0),
    ),
    "log timestamp at zero": (
        "logs.csv", 4, lambda d: _set_field(d, 4, 0, "0"),
        "field timestamp_ms must be > 0",
        lambda: LogEntry(0, "pod-a", "INFO", "k", "m"),
    ),
    "metric timestamp negative": (
        "metrics.csv", 5, lambda d: _set_field(d, 5, 0, "-1"),
        "field timestamp_ms must be > 0",
        lambda: MetricSample(-1, "pod-a", "cpu", 1.0),
    ),
    "alert timestamp negative": (
        "alerts.csv", 2, lambda d: _set_field(d, 2, 1, "-5"),
        "field timestamp_ms must be > 0",
        lambda: Alert("a1", -5, "tr-1", "s0", ""),
    ),
    "negative duration": (
        "traces.csv", 4, lambda d: _set_field(d, 4, 7, "-1"),
        "field duration_ms must be >= 0",
        lambda: make_span(span_id="s0", duration=-1),
    ),
    "unknown level": (
        "logs.csv", 3, lambda d: _set_field(d, 3, 2, "SHOUT"),
        "field level must be one of",
        lambda: LogEntry(T0, "pod-a", "SHOUT", "k", "m"),
    ),
    # Far past the streaming decoder's first chunk, so its offsets would be wrong.
    "bad byte": (
        "metrics.csv", 3001, lambda d: _insert(d, 3001, b"\xff"),
        "not UTF-8", None,
    ),
    "oversize field": (
        "logs.csv", 5, lambda d: _set_field(d, 5, 4, OVERSIZE),
        "field larger than field limit", None,
    ),
    "wrong field count": (
        "traces.csv", 5, lambda d: _set_field(d, 5, 9, "extra"),
        "expected 9 fields, got 10", None,
    ),
    "bad header": (
        "logs.csv", 1, lambda d: _set_field(d, 1, 2, "severity"),
        "bad header", None,
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_row_refusal_names_file_and_line(tmp_path, name):
    file, line, edit, message, _ = REFUSALS[name]
    _write(tmp_path, file, edit(FILES[file]))
    with pytest.raises(DataError, match=re.escape(f"{file}:{line}: ") + ".*" + re.escape(message)):
        ingest(tmp_path)


@pytest.mark.parametrize("raw, value", [
    ("1000", 1000), ("1e3", 1000), ("17e2", 1700), ("1.7e3", 1700), ("12.9", 12),
])
def test_integer_field_accepts_every_finite_number_form(tmp_path, raw, value):
    _write(tmp_path, "traces.csv", _set_field(FILES["traces.csv"], 3, 7, raw))
    assert ingest(tmp_path).span("s1").duration == value


@pytest.mark.parametrize("name", sorted(n for n, row in REFUSALS.items() if row[4]))
def test_record_refuses_bad_field_at_construction(name):
    *_, message, construct = REFUSALS[name]
    with pytest.raises(DataError, match=re.escape(message)):
        construct()


def test_store_refuses_duplicate_alert_id(tmp_path):
    _write(tmp_path, "alerts.csv", FILES["alerts.csv"] + FILES["alerts.csv"].splitlines()[1] + b"\n")
    with pytest.raises(DataError, match="duplicate alert_id alert-1"):
        ingest(tmp_path)
    alert = Alert("a1", T0, "tr-1", "s0", "")
    with pytest.raises(DataError, match="duplicate alert_id a1"):
        TelemetryStore([make_span(span_id="s0")], [], [], [alert, alert],
                       walkthrough_store().topology)


FIELD_VALUES = st.sampled_from([
    "1.5e400", "nan", "-1", "0", "inf", "1e400", "", "1.5", "9" * 5000, "SHOUT", OVERSIZE,
    '"', "a,b", "line\nbreak",
]) | st.text(max_size=12)
INSERTED = st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b"\r", b",", b"\n"]) | st.binary(
    max_size=6
)


@st.composite
def malformed(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    data = FILES[name]
    line = draw(st.integers(1, data.count(b"\n")))
    if draw(st.booleans()):
        return name, _set_field(data, line, draw(st.integers(0, 9)), draw(FIELD_VALUES))
    return name, _insert(data, line, draw(INSERTED))


@settings(derandomize=True, database=None, deadline=None)
@given(malformed())
@example(("traces.csv", _set_field(FILES["traces.csv"], 2, 7, "1.5e400")))
@example(("metrics.csv", _insert(FILES["metrics.csv"], 2, b"\xff")))
@example(("logs.csv", _set_field(FILES["logs.csv"], 2, 4, OVERSIZE)))
def test_ingest_returns_a_store_or_raises_an_engine_error(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        root = _write(Path(tmp), name, data)
        try:
            store = ingest(root)
        except EngineError:
            return
        assert isinstance(store, TelemetryStore)
