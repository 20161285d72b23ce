"""Telemetry domain model and ingestion.

Five record types (spans, logs, metrics, alerts, topology) are parsed from
CSV files into an immutable :class:`TelemetryStore` with the indexes the
rest of the engine needs: span by id, children by parent, logs by
component, metric series by (component, metric). All timestamps are
integer milliseconds UTC; sub-millisecond precision in sources is
truncated at parse time so the whole engine compares in one time domain.

Each rule on the data is checked in exactly one of three layers:

- the CSV reader (``_read``) owns the file format: UTF-8, the exact
  header, the field count, and fields that parse as numbers. It names
  ``file:line`` for every refusal, including those the next layer raises;
- each record (:class:`Span`, :class:`LogEntry`, :class:`MetricSample`,
  :class:`Alert`) checks its own fields when it is made, however it is
  made: positive timestamps, a non-negative duration, a known log level,
  a finite metric value;
- the store checks the rules that span several records: unique span and
  alert ids, parents inside the same trace, one root and no cycle per
  trace, topology coverage, and alert bindings.

The store is immutable after ingest and safe for unrestricted concurrent
reads; ingest itself is single-threaded per store instance.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

from .errors import DataError, NotFoundError

T = TypeVar("T")

LOG_LEVELS = ("DEBUG", "INFO", "WARN", "ERROR", "FATAL")

TRACE_HEADER = [
    "trace_id", "span_id", "parent_span_id", "cmdb_id", "service",
    "operation", "start_time_ms", "duration_ms", "status_code",
]
LOG_HEADER = ["timestamp_ms", "cmdb_id", "level", "kind", "message"]
METRIC_HEADER = ["timestamp_ms", "cmdb_id", "metric", "value"]
ALERT_HEADER = ["alert_id", "timestamp_ms", "trace_id", "entry_span_id", "description"]
TOPOLOGY_HEADER = ["cmdb_id", "service", "node"]

FILE_NAMES = {
    "traces": "traces.csv",
    "logs": "logs.csv",
    "metrics": "metrics.csv",
    "alerts": "alerts.csv",
    "topology": "topology.csv",
}


@dataclass(frozen=True)
class Span:
    """One operation's execution record inside a distributed trace."""

    trace_id: str
    span_id: str
    parent_span_id: str | None
    cmdb_id: str
    service: str
    operation: str
    start_time: int
    duration: int
    status_code: int

    def __post_init__(self):
        if self.start_time <= 0:
            raise DataError(f"span {self.span_id}: field start_time_ms must be > 0")
        if self.duration < 0:
            raise DataError(f"span {self.span_id}: field duration_ms must be >= 0")

    @property
    def is_root(self) -> bool:
        return self.parent_span_id is None


@dataclass(frozen=True)
class LogEntry:
    timestamp: int
    component: str
    level: str
    kind: str
    message: str

    def __post_init__(self):
        if self.timestamp <= 0:
            raise DataError(f"log entry at {self.component}: field timestamp_ms must be > 0")
        if self.level not in LOG_LEVELS:
            raise DataError(
                f"log entry at {self.component}: field level must be one of "
                f"{LOG_LEVELS}, got {self.level!r}"
            )


@dataclass(frozen=True)
class MetricSample:
    timestamp: int
    component: str
    metric: str
    value: float

    def __post_init__(self):
        if self.timestamp <= 0:
            raise DataError(f"metric {self.metric}@{self.component}: field timestamp_ms must be > 0")
        if not math.isfinite(self.value):
            raise DataError(f"metric {self.metric}@{self.component}: field value must be finite")


@dataclass(frozen=True)
class Alert:
    """An anomalous request, bound to the trace that carried it."""

    alert_id: str
    timestamp: int
    trace_id: str
    entry_span_id: str
    description: str
    trace_binding: str = "explicit"  # "explicit" or "nearest" (bound at ingest)

    def __post_init__(self):
        if self.timestamp <= 0:
            raise DataError(f"alert {self.alert_id}: field timestamp_ms must be > 0")


@dataclass(frozen=True)
class AlertWindow:
    start: int
    end: int
    alerts: tuple[Alert, ...]

    def __post_init__(self):
        if self.start >= self.end:
            raise DataError(f"alert window start {self.start} must precede end {self.end}")
        for a in self.alerts:
            if not (self.start <= a.timestamp <= self.end):
                raise DataError(
                    f"alert {a.alert_id} at {a.timestamp} outside window "
                    f"[{self.start}, {self.end}]"
                )


@dataclass(frozen=True)
class Topology:
    """Pod to service and pod to host-node maps, total over ingested pods."""

    pod_to_service: dict[str, str]
    pod_to_node: dict[str, str]

    def service_of(self, pod: str) -> str | None:
        return self.pod_to_service.get(pod)

    def node_of(self, pod: str) -> str | None:
        return self.pod_to_node.get(pod)

    def pods_of_service(self, service: str) -> list[str]:
        return sorted(p for p, s in self.pod_to_service.items() if s == service)

    def pods_on_node(self, node: str) -> list[str]:
        return sorted(p for p, n in self.pod_to_node.items() if n == node)

    @property
    def services(self) -> set[str]:
        return set(self.pod_to_service.values())

    @property
    def nodes(self) -> set[str]:
        return set(self.pod_to_node.values())

    def level_of(self, component: str) -> str | None:
        """Classify a component id as pod, service or node, if known."""
        if component in self.pod_to_service:
            return "pod"
        if component in self.services:
            return "service"
        if component in self.nodes:
            return "node"
        return None


@dataclass
class IngestReport:
    spans: int = 0
    logs: int = 0
    metrics: int = 0
    alerts: int = 0
    topology_entries: int = 0

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "logs": self.logs,
            "metrics": self.metrics,
            "alerts": self.alerts,
            "topology_entries": self.topology_entries,
        }


class TelemetryStore:
    """Immutable, indexed view over one ingested data set.

    Record tuples are never mutated after construction; every index is
    derived once here and shared by concurrent readers.
    """

    def __init__(
        self,
        spans: list[Span] | tuple[Span, ...],
        logs: list[LogEntry] | tuple[LogEntry, ...],
        metrics: list[MetricSample] | tuple[MetricSample, ...],
        alerts: list[Alert] | tuple[Alert, ...],
        topology: Topology,
    ):
        self.spans = tuple(sorted(spans, key=lambda s: (s.trace_id, s.start_time, s.span_id)))
        self.logs = tuple(sorted(logs, key=lambda e: (e.timestamp, e.component, e.kind)))
        self.metrics = tuple(
            sorted(metrics, key=lambda m: (m.component, m.metric, m.timestamp))
        )
        self.alerts = tuple(sorted(alerts, key=lambda a: (a.timestamp, a.alert_id)))
        self.topology = topology
        self.report = IngestReport(
            spans=len(self.spans), logs=len(self.logs), metrics=len(self.metrics),
            alerts=len(self.alerts), topology_entries=len(topology.pod_to_service),
        )

        self._span_by_id: dict[str, Span] = {}
        self._children: dict[str, list[Span]] = {}
        self._trace_spans: dict[str, list[Span]] = {}
        for s in self.spans:
            if s.span_id in self._span_by_id:
                raise DataError(f"duplicate span_id {s.span_id}")
            self._span_by_id[s.span_id] = s
            self._trace_spans.setdefault(s.trace_id, []).append(s)
        for s in self.spans:
            if s.parent_span_id is not None and s.parent_span_id in self._span_by_id:
                self._children.setdefault(s.parent_span_id, []).append(s)
        for kids in self._children.values():
            kids.sort(key=lambda s: (s.start_time, s.span_id))

        self._logs_by_component: dict[str, list[LogEntry]] = {}
        for entry in self.logs:
            self._logs_by_component.setdefault(entry.component, []).append(entry)
        self._log_times: dict[str, list[int]] = {
            c: [e.timestamp for e in entries]
            for c, entries in self._logs_by_component.items()
        }

        self._metric_series: dict[tuple[str, str], list[MetricSample]] = {}
        for sample in self.metrics:
            self._metric_series.setdefault((sample.component, sample.metric), []).append(sample)
        self._metric_times: dict[tuple[str, str], list[int]] = {
            k: [s.timestamp for s in series] for k, series in self._metric_series.items()
        }
        self._metrics_of: dict[str, list[str]] = {}
        for comp, metric in sorted(self._metric_series):
            self._metrics_of.setdefault(comp, []).append(metric)

        self._alert_by_id: dict[str, Alert] = {}
        for a in self.alerts:
            if a.alert_id in self._alert_by_id:
                raise DataError(f"duplicate alert_id {a.alert_id}")
            self._alert_by_id[a.alert_id] = a
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        dangling = sorted(
            s.span_id for s in self.spans
            if s.parent_span_id is not None and s.parent_span_id not in self._span_by_id
        )
        if dangling:
            raise DataError(f"dangling parent_span_id for spans: {dangling}")
        for s in self.spans:
            if s.parent_span_id is not None:
                parent = self._span_by_id[s.parent_span_id]
                if parent.trace_id != s.trace_id:
                    raise DataError(
                        f"span {s.span_id} parent {s.parent_span_id} lies in a different trace"
                    )
        for trace_id, members in self._trace_spans.items():
            roots = [s for s in members if s.is_root]
            if len(roots) != 1:
                raise DataError(
                    f"trace {trace_id} has {len(roots)} root spans, expected exactly 1"
                )
            self._check_acyclic(trace_id, members)
        missing = sorted(
            {s.cmdb_id for s in self.spans} - set(self.topology.pod_to_service)
        )
        if missing:
            raise DataError(f"topology entry missing for cmdb_id: {missing[0]}")
        for a in self.alerts:
            if a.trace_id not in self._trace_spans:
                raise DataError(f"alert {a.alert_id} references unknown trace {a.trace_id}")
            entry = self._span_by_id.get(a.entry_span_id)
            if entry is None or entry.trace_id != a.trace_id or not entry.is_root:
                raise DataError(
                    f"alert {a.alert_id} entry span {a.entry_span_id} is not the "
                    f"root of trace {a.trace_id}"
                )

    def _check_acyclic(self, trace_id: str, members: list[Span]) -> None:
        # Walking parent links from any span must terminate within |trace| hops.
        limit = len(members) + 1
        for s in members:
            hops = 0
            cur = s
            while cur.parent_span_id is not None:
                cur = self._span_by_id[cur.parent_span_id]
                hops += 1
                if hops > limit:
                    raise DataError(f"trace {trace_id} contains a parent cycle at {s.span_id}")

    # -- lookups ---------------------------------------------------------

    def span(self, span_id: str) -> Span:
        try:
            return self._span_by_id[span_id]
        except KeyError:
            raise NotFoundError(f"unknown span_id {span_id}")

    def has_span(self, span_id: str) -> bool:
        return span_id in self._span_by_id

    def alert(self, alert_id: str) -> Alert:
        try:
            return self._alert_by_id[alert_id]
        except KeyError:
            raise NotFoundError(f"unknown alert_id {alert_id}")

    def trace(self, trace_id: str) -> list[Span]:
        try:
            return list(self._trace_spans[trace_id])
        except KeyError:
            raise NotFoundError(f"unknown trace_id {trace_id}")

    @property
    def trace_ids(self) -> list[str]:
        return sorted(self._trace_spans)

    def root_of(self, trace_id: str) -> Span:
        for s in self.trace(trace_id):
            if s.is_root:
                return s
        raise NotFoundError(f"trace {trace_id} has no root span")

    def metrics_of(self, component: str) -> list[str]:
        return list(self._metrics_of.get(component, []))

    def metric_series(
        self, component: str, metric: str, t_lo: int, t_hi: int
    ) -> list[MetricSample]:
        """Samples for one series with timestamp in the closed [t_lo, t_hi]."""
        series = self._metric_series.get((component, metric))
        if not series:
            return []
        times = self._metric_times[(component, metric)]
        lo = bisect.bisect_left(times, t_lo)
        hi = bisect.bisect_right(times, t_hi)
        return series[lo:hi]

    def logs_between(self, component: str, t_lo: int, t_hi: int) -> list[LogEntry]:
        entries = self._logs_by_component.get(component)
        if not entries:
            return []
        times = self._log_times[component]
        lo = bisect.bisect_left(times, t_lo)
        hi = bisect.bisect_right(times, t_hi)
        return entries[lo:hi]


def children_of(store: TelemetryStore, span_id: str) -> list[Span]:
    """Direct children of a span, ordered by start_time then span_id."""
    store.span(span_id)  # raises NotFoundError for unknown ids
    return list(store._children.get(span_id, []))


def slice_window(
    store: TelemetryStore, t0: int, delta: int, component: str
) -> tuple[list[LogEntry], list[MetricSample]]:
    """Logs and metrics of one component within the closed [t0-delta, t0+delta].

    An unknown component yields empty lists: absence of telemetry is a
    signal, not a failure.
    """
    if delta <= 0:
        raise DataError(f"slice delta must be > 0, got {delta}")
    t_lo, t_hi = t0 - delta, t0 + delta
    logs = store.logs_between(component, t_lo, t_hi)
    metrics: list[MetricSample] = []
    for metric in store.metrics_of(component):
        metrics.extend(store.metric_series(component, metric, t_lo, t_hi))
    metrics.sort(key=lambda m: (m.timestamp, m.metric))
    return logs, metrics


# -- parsing ---------------------------------------------------------------


def _int(raw: str, field: str) -> int:
    try:
        # Truncate sub-millisecond precision from float-ish sources.
        return int(float(raw)) if "." in raw else int(raw)
    except (ValueError, OverflowError):
        raise DataError(f"field {field} is not an integer: {raw!r}") from None


def _float(raw: str, field: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"field {field} is not a number: {raw!r}") from None


def _span(trace_id, span_id, parent, cmdb, service, op, start, dur, status) -> Span:
    return Span(
        trace_id, span_id, parent or None, cmdb, service, op,
        _int(start, "start_time_ms"), _int(dur, "duration_ms"), _int(status, "status_code"),
    )


def _log(ts, cmdb, level, kind, message) -> LogEntry:
    return LogEntry(_int(ts, "timestamp_ms"), cmdb, level, kind, message)


def _metric(ts, cmdb, metric, value) -> MetricSample:
    return MetricSample(_int(ts, "timestamp_ms"), cmdb, metric, _float(value, "value"))


def _alert(alert_id, ts, trace_id, entry_span_id, description) -> Alert:
    return Alert(alert_id, _int(ts, "timestamp_ms"), trace_id, entry_span_id, description)


def _read(path: Path, header: list[str], make: Callable[..., T]) -> list[T]:
    """``make(*fields)`` for each data row of a telemetry CSV, in file order.

    Blank lines are skipped. Every refusal, the reader's own or a
    ``DataError`` from ``make``, is a ``DataError`` naming ``path:line``,
    where line is the physical line the offending row starts on.
    """
    records: list[T] = []
    line = 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            first = next(rows, None)
            if first != header:
                found = "empty file" if first is None else f"bad header {','.join(first)!r}"
                raise DataError(f"{path}:1: {found}, expected {','.join(header)!r}")
            line = rows.line_num + 1
            for row in rows:
                if row:
                    if len(row) != len(header):
                        raise DataError(
                            f"{path}:{line}: expected {len(header)} fields, got {len(row)}"
                        )
                    try:
                        records.append(make(*row))
                    except DataError as exc:
                        raise DataError(f"{path}:{line}: {exc}") from None
                line = rows.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{line}: {exc}") from None
    except UnicodeDecodeError as exc:
        # The streaming decoder's offsets are relative to its current chunk,
        # so decode the whole file once to find the line of the bad byte.
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8: {exc.reason}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    return records


def _bind_alerts(alerts: list[Alert], spans: list[Span], window_ms: int) -> list[Alert]:
    """Attach trace-less alerts to the trace whose root is nearest in time."""
    roots = sorted(
        (s for s in spans if s.is_root), key=lambda s: (s.start_time, s.trace_id)
    )
    bound = []
    for a in alerts:
        if a.trace_id:
            bound.append(a)
            continue
        best = None
        for r in roots:
            gap = abs(r.start_time - a.timestamp)
            if gap <= window_ms and (best is None or gap < best[0]):
                best = (gap, r)
        if best is None:
            raise DataError(
                f"alert {a.alert_id} has no trace_id and no root span within "
                f"{window_ms} ms of {a.timestamp}"
            )
        root = best[1]
        bound.append(Alert(
            alert_id=a.alert_id, timestamp=a.timestamp, trace_id=root.trace_id,
            entry_span_id=root.span_id, description=a.description,
            trace_binding="nearest",
        ))
    return bound


def ingest(data_dir: str | Path, window_ms: int = 60_000) -> TelemetryStore:
    """Parse a directory of telemetry CSVs into an indexed store.

    An empty directory (header-only or absent optional files) yields an
    empty store with a zero-count report. Dataset-specific converters plug
    in by producing these CSVs or by constructing a :class:`TelemetryStore`
    directly from records.
    """
    root = Path(data_dir)
    if not root.is_dir():
        raise DataError(f"telemetry directory not found: {root}")

    def read(name: str, header: list[str], make: Callable[..., T]) -> list[T]:
        path = root / FILE_NAMES[name]
        return _read(path, header, make) if path.exists() else []

    spans = read("traces", TRACE_HEADER, _span)
    logs = read("logs", LOG_HEADER, _log)
    metrics = read("metrics", METRIC_HEADER, _metric)
    alerts = read("alerts", ALERT_HEADER, _alert)
    topo_path = root / FILE_NAMES["topology"]
    if spans and not topo_path.exists():
        raise DataError(f"missing telemetry file: {topo_path}")
    pods = read("topology", TOPOLOGY_HEADER, lambda *row: row)
    topology = Topology({p: s for p, s, _ in pods}, {p: n for p, _, n in pods})
    alerts = _bind_alerts(alerts, spans, window_ms)
    return TelemetryStore(spans, logs, metrics, alerts, topology)


def export(store: TelemetryStore, out_dir: str | Path) -> None:
    """Write the store back to the canonical CSV schema (round-trippable)."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    def write(name: str, header: list[str], rows) -> None:
        with open(root / FILE_NAMES[name], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    write("traces", TRACE_HEADER, (
        (s.trace_id, s.span_id, s.parent_span_id or "", s.cmdb_id, s.service,
         s.operation, s.start_time, s.duration, s.status_code)
        for s in store.spans
    ))
    write("logs", LOG_HEADER, (
        (e.timestamp, e.component, e.level, e.kind, e.message) for e in store.logs
    ))
    write("metrics", METRIC_HEADER, (
        (m.timestamp, m.component, m.metric, repr(m.value)) for m in store.metrics
    ))
    write("alerts", ALERT_HEADER, (
        (a.alert_id, a.timestamp, a.trace_id, a.entry_span_id, a.description)
        for a in store.alerts
    ))
    write("topology", TOPOLOGY_HEADER, (
        (pod, store.topology.pod_to_service[pod], store.topology.pod_to_node[pod])
        for pod in sorted(store.topology.pod_to_service)
    ))


def windows_from_alerts(
    alerts: list[Alert] | tuple[Alert, ...], window_ms: int = 60_000
) -> list[AlertWindow]:
    """Cluster alerts into windows wherever the timestamp gap exceeds window_ms."""
    if not alerts:
        return []
    ordered = sorted(alerts, key=lambda a: (a.timestamp, a.alert_id))
    groups: list[list[Alert]] = [[ordered[0]]]
    for a in ordered[1:]:
        if a.timestamp - groups[-1][-1].timestamp > window_ms:
            groups.append([a])
        else:
            groups[-1].append(a)
    windows = []
    for group in groups:
        start = group[0].timestamp
        end = max(group[-1].timestamp, start + window_ms)
        windows.append(AlertWindow(start=start, end=end, alerts=tuple(group)))
    return windows
