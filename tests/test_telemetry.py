import csv
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootcause.errors import DataError, NotFoundError
from rootcause.telemetry import (
    METRIC_HEADER,
    Alert,
    AlertWindow,
    LogEntry,
    MetricSample,
    TelemetryStore,
    Topology,
    children_of,
    export,
    ingest,
    slice_window,
    windows_from_alerts,
)

from .conftest import T0, make_span, make_topology, walkthrough_store


def small_topology():
    return make_topology({
        "pod-a": ("svc-a", "node-1"),
        "pod-b": ("svc-b", "node-1"),
        "pod-c": ("svc-c", "node-2"),
    })


def test_walkthrough_store_single_trace_with_error_root():
    store = walkthrough_store()
    assert {s.trace_id for s in store.spans} == {"tr-walkthrough"}
    (root,) = [s for s in store.trace("tr-walkthrough") if s.is_root]
    assert root.status_code == 13


def test_ingest_empty_directory(tmp_path):
    store = ingest(tmp_path)
    assert store.report.as_dict() == {
        "spans": 0, "logs": 0, "metrics": 0, "alerts": 0, "topology_entries": 0,
    }


def test_dangling_parent_rejected():
    spans = [
        make_span(span_id="s0"),
        make_span(span_id="s1", parent="nope"),
    ]
    with pytest.raises(DataError, match="s1"):
        TelemetryStore(spans, [], [], [], small_topology())


def test_two_roots_rejected():
    spans = [make_span(span_id="s0"), make_span(span_id="s1")]
    with pytest.raises(DataError, match="root"):
        TelemetryStore(spans, [], [], [], small_topology())


def test_missing_topology_entry_named():
    spans = [make_span(span_id="s0", cmdb="mystery-pod")]
    with pytest.raises(DataError, match="mystery-pod"):
        TelemetryStore(spans, [], [], [], small_topology())


def test_children_of_walkthrough_root():
    store = walkthrough_store()
    kids = children_of(store, "s0")
    assert [s.span_id for s in kids] == ["s1", "s2", "s3"]
    assert [s.operation for s in kids] == [
        "CartService/GetCart",
        "RecommendationService/List",
        "CurrencyService/GetSupportedCurrencies",
    ]


def test_children_of_leaf_and_unknown():
    store = walkthrough_store()
    assert children_of(store, "s5") == []
    with pytest.raises(NotFoundError):
        children_of(store, "never-seen")


def test_children_tie_broken_by_span_id():
    spans = [
        make_span(span_id="root"),
        make_span(span_id="kid-b", parent="root", start=T0 + 5),
        make_span(span_id="kid-a", parent="root", start=T0 + 5),
    ]
    store = TelemetryStore(spans, [], [], [], small_topology())
    assert [s.span_id for s in children_of(store, "root")] == ["kid-a", "kid-b"]


def test_children_of_partitions_spans():
    store = walkthrough_store()
    roots = [s.span_id for s in store.spans if s.is_root]
    seen = list(roots)
    for s in store.spans:
        seen.extend(k.span_id for k in children_of(store, s.span_id))
    assert sorted(seen) == sorted(s.span_id for s in store.spans)
    # every non-root appears in exactly one child list
    non_roots = [s.span_id for s in store.spans if not s.is_root]
    assert sorted(x for x in seen if x not in roots) == sorted(non_roots)


def test_slice_closed_interval_boundaries():
    logs = [LogEntry(t, "pod-a", "INFO", "k", "m") for t in (899, 900, 1100, 1101)]
    metrics = [MetricSample(t, "pod-a", "cpu", 1.0) for t in (899, 900, 1100, 1101)]
    spans = [make_span(span_id="s0", start=1000, cmdb="pod-a")]
    store = TelemetryStore(spans, logs, metrics, [], small_topology())
    got_logs, got_metrics = slice_window(store, 1000, 100, "pod-a")
    assert [e.timestamp for e in got_logs] == [900, 1100]
    assert [m.timestamp for m in got_metrics] == [900, 1100]


def test_slice_unknown_component_is_empty_signal():
    store = walkthrough_store()
    assert slice_window(store, T0, 1000, "no-such-pod") == ([], [])


def test_slice_rejects_nonpositive_delta():
    store = walkthrough_store()
    with pytest.raises(DataError):
        slice_window(store, T0, 0, "frontend2-0")


def test_slice_matches_linear_scan_oracle():
    rng = random.Random(7)
    logs = []
    metrics = []
    for i in range(400):
        t = T0 + rng.randrange(-90_000, 90_000)
        comp = rng.choice(["pod-a", "pod-b", "pod-c"])
        logs.append(LogEntry(t, comp, "INFO", "k", f"m{i}"))
        metrics.append(MetricSample(t + 1, comp, rng.choice(["cpu", "mem"]), rng.random()))
    spans = [make_span(span_id="s0", cmdb="pod-a")]
    store = TelemetryStore(spans, logs, metrics, [], small_topology())

    delta = 30_000
    for comp in ("pod-a", "pod-b", "pod-c"):
        got_logs, got_metrics = slice_window(store, T0, delta, comp)
        want_logs = sorted(
            (e for e in logs if e.component == comp and abs(e.timestamp - T0) <= delta),
            key=lambda e: (e.timestamp, e.component, e.kind),
        )
        want_metric_count = sum(
            1 for m in metrics if m.component == comp and abs(m.timestamp - T0) <= delta
        )
        assert got_logs == want_logs
        assert len(got_metrics) == want_metric_count
        assert [m.timestamp for m in got_metrics] == sorted(m.timestamp for m in got_metrics)


def test_export_ingest_round_trip(tmp_path):
    store = walkthrough_store()
    export(store, tmp_path)
    back = ingest(tmp_path)
    assert back.spans == store.spans
    assert back.logs == store.logs
    assert back.metrics == store.metrics
    assert back.alerts == store.alerts
    assert back.topology == store.topology


def test_ingest_malformed_row_names_file_line_field(tmp_path):
    export(walkthrough_store(), tmp_path)
    traces = tmp_path / "traces.csv"
    lines = traces.read_text().splitlines()
    broken = lines[1].split(",")
    broken[7] = "not-a-number"
    lines[1] = ",".join(broken)
    traces.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        ingest(tmp_path)
    msg = str(err.value)
    assert "traces.csv" in msg and ":2" in msg and "duration_ms" in msg


def test_ingest_bad_header_rejected(tmp_path):
    export(walkthrough_store(), tmp_path)
    (tmp_path / "logs.csv").write_text("a,b,c\n")
    with pytest.raises(DataError, match="header"):
        ingest(tmp_path)


def test_alert_entry_span_must_be_root():
    spans = [make_span(span_id="s0"), make_span(span_id="s1", parent="s0")]
    bad = Alert("a1", T0, "tr-1", "s1", "entry is not the root")
    with pytest.raises(DataError, match="a1"):
        TelemetryStore(spans, [], [], [bad], small_topology())


def test_traceless_alert_binds_to_nearest_root(tmp_path):
    store = walkthrough_store()
    export(store, tmp_path)
    with open(tmp_path / "alerts.csv", "a", newline="") as fh:
        fh.write(f"alert-free,{T0 + 500},,,no trace recorded\n")
    back = ingest(tmp_path)
    bound = back.alert("alert-free")
    assert bound.trace_id == "tr-walkthrough"
    assert bound.entry_span_id == "s0"
    assert bound.trace_binding == "nearest"


def test_log_level_validated():
    with pytest.raises(DataError):
        TelemetryStore(
            [make_span(span_id="s0")],
            [LogEntry(T0, "pod-a", "SHOUT", "k", "m")],
            [], [], small_topology(),
        )


def test_windows_cluster_on_gap():
    alerts = [
        Alert("a1", T0, "t", "s", ""),
        Alert("a2", T0 + 10_000, "t", "s", ""),
        Alert("a3", T0 + 200_000, "t", "s", ""),
    ]
    wins = windows_from_alerts(alerts, window_ms=60_000)
    assert [len(w.alerts) for w in wins] == [2, 1]
    assert wins[0].end - wins[0].start >= 60_000
    for w in wins:
        for a in w.alerts:
            assert w.start <= a.timestamp <= w.end


def test_alert_window_invariants():
    with pytest.raises(DataError):
        AlertWindow(start=10, end=10, alerts=())
    with pytest.raises(DataError):
        AlertWindow(start=0, end=5, alerts=(Alert("a", 9, "t", "s", ""),))


COMPONENTS = ("pod-a", "pod-b", "node-1")
METRICS = ("cpu", "mem", "rt_ms")
# Few distinct timestamps, so a series repeats them and ties must keep file order.
METRIC_ROW = st.tuples(
    st.integers(1, 30), st.sampled_from(COMPONENTS), st.sampled_from(METRICS),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _write_metrics(root: Path, rows) -> None:
    with open(root / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_HEADER)
        writer.writerows((t, comp, metric, repr(v)) for t, comp, metric, v in rows)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.lists(METRIC_ROW, max_size=80),
    st.randoms(use_true_random=False),
    st.lists(st.tuples(st.integers(0, 32), st.integers(1, 16)), min_size=1, max_size=4),
)
def test_ingested_columns_equal_the_records_store(rows, rng, windows):
    rng.shuffle(rows)
    records = [MetricSample(*row) for row in rows]
    # The order the store has always promised: a stable sort of the records.
    ordered = sorted(records, key=lambda m: (m.component, m.metric, m.timestamp))
    built = TelemetryStore([], [], records, [], Topology({}, {}))
    with tempfile.TemporaryDirectory() as tmp:
        _write_metrics(Path(tmp), rows)
        ingested = ingest(tmp)
        assert ingested.report.metrics == len(rows)
        assert ingested.metrics == built.metrics == tuple(ordered)
        export(ingested, Path(tmp) / "out")
        assert ingest(Path(tmp) / "out").metrics == tuple(ordered)
    for t0, delta in windows:
        for comp in COMPONENTS:
            got = slice_window(ingested, t0, delta, comp)
            assert got == slice_window(built, t0, delta, comp)
            assert got[1] == sorted((m for m in ordered if m.component == comp
                                     and t0 - delta <= m.timestamp <= t0 + delta),
                                    key=lambda m: (m.timestamp, m.metric))
            for metric in METRICS:
                want = [m for m in ordered if m.component == comp and m.metric == metric
                        and t0 - delta <= m.timestamp <= t0 + delta]
                for store in (ingested, built):
                    times, values = store.metric_window(comp, metric, t0 - delta, t0 + delta)
                    assert list(zip(times, values)) == [(m.timestamp, m.value) for m in want]


def test_ingest_builds_no_metric_sample(tmp_path, monkeypatch):
    export(walkthrough_store(), tmp_path)

    def refuse(self):
        raise AssertionError("ingest built a MetricSample")

    monkeypatch.setattr(MetricSample, "__post_init__", refuse)
    store = ingest(tmp_path)
    times, values = store.metric_window("frontend", "err_rate", T0 - 5_000, T0 + 5_000)
    assert store.report.metrics > 0 and len(times) == len(values) > 0


def test_metric_timestamp_past_64_bits_is_kept(tmp_path):
    big = 2 ** 64 + 5
    _write_metrics(tmp_path, [(big, "pod-a", "cpu", 1.5), (7, "pod-a", "cpu", 2.5)])
    store = ingest(tmp_path)
    times, values = store.metric_window("pod-a", "cpu", 1, big)
    assert list(times) == [7, big] and list(values) == [2.5, 1.5]
