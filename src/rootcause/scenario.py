"""Synthetic microservice scenarios with injected faults and ground truth.

The generator builds a layered service topology, samples background
request trees over a quiet baseline period, then injects one fault at a
labeled component and routes victim requests through it inside the alert
window. Five fault kinds exercise the different evidence channels:

- LatencyInflation: victim spans slow down and the pod's latency metric
  spikes.
- ErrorStatus: victim spans carry status 13 up to the root and the pod
  logs errors.
- MetricSpike: one pod metric shifts by six sigma; spans slow down enough
  to raise the alert.
- LogBurst: at least twenty ERROR entries at the pod; spans slow down.
- NodeDegradation: a node metric spikes and every resident pod on the
  victim paths inflates.

Background metric noise is uniform, so its worst excursion sits near 1.7
sigma and a three-sigma test stays deterministically quiet off the fault.
All randomness flows from one seed; regenerating is byte-identical.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, DataError
from .telemetry import (
    Alert,
    LogEntry,
    MetricSample,
    Span,
    TelemetryStore,
    Topology,
    _int,
    _read,
    export as export_telemetry,
    ingest,
)

TRUTH_HEADER = ["level", "component", "fault_kind", "seed"]

FAULT_KINDS = (
    "LatencyInflation", "ErrorStatus", "MetricSpike", "LogBurst", "NodeDegradation",
)

T_FAULT = 1_600_000_000_000  # fixed epicenter; only the rng depends on the seed
POD_METRICS = {"cpu_pct": (50.0, 4.0), "rt_ms": (120.0, 10.0)}  # base, half-width
SERVICE_METRICS = {"err_rate": (2.0, 0.5)}
NODE_METRICS = {"cpu_pct": (40.0, 4.0)}
UNIFORM_SIGMA = 1.0 / (3.0 ** 0.5)  # sigma of U(-h, h) is h/sqrt(3)


@dataclass(frozen=True)
class ScenarioSpec:
    services: int = 5
    pods_per_service: int = 2
    traces: int = 8          # background requests
    victims: int = 2         # anomalous requests routed through the fault
    depth: int = 3           # call layers; entry service sits in layer 0
    fault_kind: str = "MetricSpike"
    seed: int = 0
    fault_layer: int | None = None  # layer of the truth pod, default deepest
    inflation_factor: float = 10.0  # latency multiplier at the faulty pod
    sample_period_ms: int = 2_000
    baseline_minutes: float = 6.0
    window_ms: int = 60_000

    def validate(self) -> None:
        if self.services < 2:
            raise ConfigError("scenario needs at least 2 services")
        if self.pods_per_service < 1:
            raise ConfigError("scenario needs at least 1 pod per service")
        if self.traces < 1:
            raise ConfigError("scenario needs at least 1 trace")
        if self.victims < 1:
            raise ConfigError("scenario needs at least 1 victim request")
        if self.depth < 2:
            raise ConfigError("scenario needs at least 2 call layers")
        if self.fault_kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.fault_kind!r}")
        layer = self.fault_layer if self.fault_layer is not None else self.depth - 1
        if not (1 <= layer <= self.depth - 1):
            raise ConfigError("fault layer must lie between 1 and depth-1")


@dataclass
class JitterSpec:
    """Perturbation for one clone produced by duplicate_alerts.

    The jittered clone is shifted later in time and the target pod's
    metrics are displaced inside the part of the clone's summary window
    that no other alert sees, so only that clone's graph moves.
    """

    # The shift keeps the 10 s log grid and 2 s metric grid aligned, so
    # background summary windows stay count-identical after the move.
    shift_sigma: float = 12.0
    time_shift_ms: int = 40_000
    component: str | None = None  # default: the scenario's truth pod
    alert_index: int = 0


@dataclass
class Scenario:
    spec: ScenarioSpec
    topology: Topology
    spans: list[Span]
    logs: list[LogEntry]
    metrics: list[MetricSample]
    alerts: list[Alert]
    truth: tuple[str, str]  # (level, component)
    fault_kind: str
    seed: int

    def to_store(self) -> TelemetryStore:
        return TelemetryStore(self.spans, self.logs, self.metrics, self.alerts, self.topology)

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_telemetry(self.to_store(), out)
        with open(out / "truth.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRUTH_HEADER)
            writer.writerow([self.truth[0], self.truth[1], self.fault_kind, self.seed])

    @property
    def truth_pod(self) -> str:
        if self.truth[0] == "pod":
            return self.truth[1]
        if self.truth[0] == "node":
            return self.topology.pods_on_node(self.truth[1])[0]
        return self.topology.pods_of_service(self.truth[1])[0]


def load_truth(scenario_dir: str | Path) -> tuple[str, str, str, int]:
    """The fault a scenario directory's ``truth.csv`` names; a bad row is a
    ``DataError`` naming ``truth.csv:<line>``."""
    path = Path(scenario_dir) / "truth.csv"
    rows = []
    _read(path, TRUTH_HEADER, lambda level, component, kind, seed: rows.append(
        (level, component, kind, _int(seed, "seed"))))
    if len(rows) != 1:
        raise DataError(f"{path}: expected one truth row, got {len(rows)}")
    return rows[0]


def load_scenario(scenario_dir: str | Path) -> "Scenario":
    """Rebuild a scenario from a written directory (telemetry plus truth)."""
    level, component, kind, seed = load_truth(scenario_dir)
    store = ingest(scenario_dir)
    return Scenario(
        spec=ScenarioSpec(fault_kind=kind, seed=seed),
        topology=store.topology,
        spans=list(store.spans),
        logs=list(store.logs),
        metrics=list(store.metrics),
        alerts=list(store.alerts),
        truth=(level, component),
        fault_kind=kind,
        seed=seed,
    )


# -- construction ------------------------------------------------------------------


class _TreeBuilder:
    def __init__(self, spec: ScenarioSpec, rng: random.Random, layers: dict[int, list[str]],
                 pods: dict[str, list[str]]):
        self.spec = spec
        self.rng = rng
        self.layers = layers
        self.pods = pods
        self.spans: list[Span] = []

    def build(
        self,
        trace_id: str,
        start_ms: int,
        victim_path: list[str] | None,
        avoid: set[str] | None = None,
    ) -> Span:
        """Build one request tree; victim_path pins the pod chain to traverse.

        Off-path branches never enter pods in ``avoid``: decoy siblings must
        stay quiet or they would erase the contrast that makes the slow
        branch detectable.
        """
        entry_service = self.layers[0][0]
        if victim_path:
            entry_pod = victim_path[0]
        else:
            entry_pod = self.rng.choice(self.pods[entry_service])
        self.avoid = avoid or set()
        root, _ = self._grow(
            trace_id, span_prefix=f"{trace_id}-s", counter=[0], parent=None,
            pod=entry_pod, layer=0, start=start_ms, victim_path=victim_path,
        )
        return root

    def _allowed(self, service: str) -> list[str]:
        return [p for p in self.pods[service] if p not in self.avoid]

    def _grow(self, trace_id, span_prefix, counter, parent, pod, layer, start, victim_path):
        span_id = f"{span_prefix}{counter[0]}"
        counter[0] += 1
        service = pod.rsplit("-", 1)[0]
        own = self.rng.randint(20, 40)
        children: list[Span] = []
        cursor = start + 1
        next_layer = layer + 1
        if next_layer < self.spec.depth:
            callees = list(self.layers[next_layer])
            picks: list[str] = []
            if victim_path and next_layer < len(victim_path):
                path_pod = victim_path[next_layer]
                path_svc = path_pod.rsplit("-", 1)[0]
                picks.append(path_pod)
                # a quiet decoy sibling keeps the slow child detectable
                decoy_pods: list[str] = []
                for svc in callees:
                    if svc != path_svc:
                        decoy_pods += self._allowed(svc)
                if not decoy_pods:
                    decoy_pods = [p for p in self._allowed(path_svc) if p != path_pod]
                if decoy_pods:
                    picks.append(self.rng.choice(sorted(decoy_pods)))
            else:
                for svc in self.rng.sample(callees, k=min(len(callees), self.rng.randint(1, 2))):
                    allowed = self._allowed(svc)
                    if allowed:
                        picks.append(self.rng.choice(allowed))
            for child_pod in picks:
                child_path = victim_path if (victim_path and next_layer < len(victim_path)
                                             and child_pod == victim_path[next_layer]) else None
                child, sub = self._grow(
                    trace_id, span_prefix, counter, span_id, child_pod, next_layer,
                    cursor, child_path,
                )
                children.append(child)
                cursor = child.start_time + child.duration + 1
        total = own + sum(c.duration for c in children)
        span = Span(
            trace_id=trace_id, span_id=span_id, parent_span_id=parent,
            cmdb_id=pod, service=service, operation=f"{service}/op{layer}",
            start_time=start, duration=total, status_code=0,
        )
        self.spans.append(span)
        return span, children


def _layered_services(spec: ScenarioSpec) -> dict[int, list[str]]:
    if spec.services < spec.depth:
        raise ConfigError(
            f"need at least {spec.depth} services to fill {spec.depth} call layers"
        )
    layers: dict[int, list[str]] = {}
    for i in range(spec.services):
        layers.setdefault(i % spec.depth, []).append(f"svc{i:02d}")
    return layers


def _uniform_series(rng, component, metric, base, half, t_lo, t_hi, period):
    out = []
    t = t_lo
    while t <= t_hi:
        out.append(MetricSample(t, component, metric, round(base + rng.uniform(-half, half), 6)))
        t += period
    return out


def _shift_metrics(metrics, component, metric, t_lo, t_hi, shift):
    out = []
    for m in metrics:
        if m.component == component and m.metric == metric and t_lo <= m.timestamp <= t_hi:
            out.append(MetricSample(m.timestamp, m.component, m.metric, round(m.value + shift, 6)))
        else:
            out.append(m)
    return out


def _bump_span_tree(spans: list[Span], trace_id: str, target_pod: str,
                    extra_of) -> list[Span]:
    """Grow the target pod's spans in one trace by ``extra_of(span)`` ms and
    propagate each increase through every ancestor's duration."""
    by_id = {s.span_id: s for s in spans}
    bumps: dict[str, int] = {}
    for s in spans:
        if s.trace_id != trace_id or s.cmdb_id != target_pod:
            continue
        extra = int(extra_of(s))
        if extra <= 0:
            continue
        cur: Span | None = s
        while cur is not None:
            bumps[cur.span_id] = bumps.get(cur.span_id, 0) + extra
            cur = by_id.get(cur.parent_span_id) if cur.parent_span_id else None
    out = []
    for s in spans:
        extra = bumps.get(s.span_id, 0)
        out.append(replace(s, duration=s.duration + extra) if extra else s)
    return out


def _inflate_span_tree(spans: list[Span], trace_id: str, target_pod: str,
                       factor: float) -> list[Span]:
    """Multiply the target pod's span durations by ``factor``."""
    return _bump_span_tree(
        spans, trace_id, target_pod, lambda s: s.duration * (factor - 1.0)
    )


def _propagate_error_status(spans: list[Span], trace_id: str, target_pod: str, code: int):
    by_id = {s.span_id: s for s in spans}
    flagged: set[str] = set()
    for s in spans:
        if s.trace_id != trace_id or s.cmdb_id != target_pod:
            continue
        cur: Span | None = s
        while cur is not None:
            flagged.add(cur.span_id)
            cur = by_id.get(cur.parent_span_id) if cur.parent_span_id else None
    return [replace(s, status_code=code) if s.span_id in flagged else s for s in spans]


def generate(spec: ScenarioSpec) -> Scenario:
    """Deterministically generate one faulted scenario from its seed."""
    spec.validate()
    rng = random.Random(spec.seed)
    layers = _layered_services(spec)
    services = [svc for layer in sorted(layers) for svc in layers[layer]]
    pods = {svc: [f"{svc}-{p}" for p in range(spec.pods_per_service)] for svc in services}
    all_pods = [p for svc in services for p in pods[svc]]
    n_nodes = max(2, -(-len(all_pods) // 3))
    pod_to_node = {p: f"node-{i % n_nodes}" for i, p in enumerate(sorted(all_pods))}
    pod_to_service = {p: svc for svc in services for p in pods[svc]}

    fault_layer = spec.fault_layer if spec.fault_layer is not None else spec.depth - 1
    truth_service = rng.choice(layers[fault_layer])
    truth_pod = rng.choice(pods[truth_service])

    if spec.fault_kind == "NodeDegradation":
        # Co-locate a second faulty pod from another service on the truth
        # node, so alerts converge on the node through different pods. The
        # partner must leave every call layer enough quiet pods that victim
        # paths keep a quiet decoy sibling at each step.
        truth_node = pod_to_node[truth_pod]
        truth_layer = _service_layer(truth_service, layers)

        def decoys_remain(avoid: set[str]) -> bool:
            for layer in range(1, spec.depth):
                allowed = [
                    p for svc in layers[layer] for p in pods[svc] if p not in avoid
                ]
                needed = 1 if layer == truth_layer else 2
                if len(allowed) < needed:
                    return False
            return True

        partner_candidates = sorted(
            p for p in all_pods
            if pod_to_service[p] != truth_service
            and _service_layer(pod_to_service[p], layers) >= 1
            and decoys_remain({truth_pod, p})
        )
        if not partner_candidates:
            raise ConfigError(
                "NodeDegradation needs spare pods in every call layer; "
                "raise services or pods_per_service"
            )
        partner = partner_candidates[rng.randrange(len(partner_candidates))]
        pod_to_node[partner] = truth_node
        victim_pods = [truth_pod, partner]
        truth = ("node", truth_node)
    else:
        victim_pods = [truth_pod]
        truth = ("pod", truth_pod)

    topology = Topology(pod_to_service=pod_to_service, pod_to_node=pod_to_node)

    # victim call paths: entry -> one pod per layer -> victim pod's layer
    def victim_path_for(pod: str) -> list[str]:
        target_layer = _service_layer(pod_to_service[pod], layers)
        path = [rng.choice(pods[layers[0][0]])]
        for layer in range(1, target_layer):
            # route intermediates around other victims: the decoy pool stays
            # intact and each hop keeps its quiet contrast
            options = sorted(
                p for svc in layers[layer] for p in pods[svc]
                if p not in victim_pods
            )
            path.append(options[rng.randrange(len(options))])
        path.append(pod)
        return path

    builder = _TreeBuilder(spec, rng, layers, pods)
    horizon_lo = T_FAULT - int(spec.baseline_minutes * 60_000) - 60_000
    bg_spread = (T_FAULT - 120_000) - (horizon_lo + 30_000)
    for i in range(spec.traces):
        start = horizon_lo + 30_000 + (bg_spread * i) // max(spec.traces - 1, 1)
        builder.build(f"bg{i:03d}", start, victim_path=None)

    victim_traces = []
    for v in range(spec.victims):
        pod = victim_pods[v % len(victim_pods)]
        trace_id = f"vt{v:03d}"
        builder.build(
            trace_id, T_FAULT, victim_path=victim_path_for(pod),
            avoid=set(victim_pods),
        )
        victim_traces.append(trace_id)

    spans = builder.spans
    roots = {s.trace_id: s for s in spans if s.parent_span_id is None}
    bg_max = max(roots[t].duration for t in roots if t.startswith("bg"))

    w_half = spec.window_ms // 2
    fault_lo, fault_hi = T_FAULT - w_half, T_FAULT + w_half

    metrics: list[MetricSample] = []
    horizon_hi = T_FAULT + 150_000  # covers shifted near-duplicate windows too
    for pod in sorted(all_pods):
        for metric, (base, half) in POD_METRICS.items():
            metrics += _uniform_series(rng, pod, metric, base, half, horizon_lo,
                                       horizon_hi, spec.sample_period_ms)
    for svc in services:
        for metric, (base, half) in SERVICE_METRICS.items():
            metrics += _uniform_series(rng, svc, metric, base, half, horizon_lo,
                                       horizon_hi, spec.sample_period_ms)
    for node in sorted(set(pod_to_node.values())):
        for metric, (base, half) in NODE_METRICS.items():
            metrics += _uniform_series(rng, node, metric, base, half, horizon_lo,
                                       horizon_hi, spec.sample_period_ms)

    logs: list[LogEntry] = []
    for pod in sorted(all_pods):
        t = horizon_lo
        while t <= horizon_hi:
            logs.append(LogEntry(t, pod, "INFO", "heartbeat", "ok"))
            t += 10_000

    # fault injection
    kind = spec.fault_kind
    needs_inflation = kind in ("LatencyInflation", "MetricSpike", "LogBurst", "NodeDegradation")
    if needs_inflation:
        for trace_id in victim_traces:
            for pod in victim_pods:
                spans = _inflate_span_tree(spans, trace_id, pod, spec.inflation_factor)
        # guarantee the alert trigger: if the multiplied latency still sits
        # near the background ceiling, stretch the faulty span further
        target = int(2.2 * bg_max)
        roots_now = {s.trace_id: s for s in spans if s.parent_span_id is None}
        for trace_id in victim_traces:
            shortfall = target - roots_now[trace_id].duration
            if shortfall > 0:
                on_trace = [p for p in victim_pods
                            if any(s.cmdb_id == p and s.trace_id == trace_id for s in spans)]
                pod = on_trace[0] if on_trace else victim_pods[0]
                first = min(
                    (s.span_id for s in spans
                     if s.trace_id == trace_id and s.cmdb_id == pod),
                    default=None,
                )
                if first is not None:
                    spans = _bump_span_tree(
                        spans, trace_id, pod,
                        lambda s: shortfall if s.span_id == first else 0,
                    )
                roots_now = {s.trace_id: s for s in spans if s.parent_span_id is None}
    if kind == "ErrorStatus":
        for trace_id in victim_traces:
            spans = _propagate_error_status(spans, trace_id, truth_pod, 13)

    def sigma_shift(metric_half: float, n_sigmas: float) -> float:
        return n_sigmas * metric_half * UNIFORM_SIGMA

    if kind == "LatencyInflation":
        metrics = _shift_metrics(metrics, truth_pod, "rt_ms", fault_lo, fault_hi,
                                 sigma_shift(POD_METRICS["rt_ms"][1], 8))
    elif kind == "MetricSpike":
        metrics = _shift_metrics(metrics, truth_pod, "cpu_pct", fault_lo, fault_hi,
                                 sigma_shift(POD_METRICS["cpu_pct"][1], 6))
    elif kind == "NodeDegradation":
        metrics = _shift_metrics(metrics, truth[1], "cpu_pct", fault_lo, fault_hi,
                                 sigma_shift(NODE_METRICS["cpu_pct"][1], 8))
        for pod in victim_pods:
            metrics = _shift_metrics(metrics, pod, "rt_ms", fault_lo, fault_hi,
                                     sigma_shift(POD_METRICS["rt_ms"][1], 4))
    if kind in ("LogBurst", "ErrorStatus"):
        count = 25 if kind == "LogBurst" else 12
        for i in range(count):
            logs.append(LogEntry(
                fault_lo + 2_000 + i * 2_000, truth_pod, "ERROR", "app_error",
                "upstream connection refused",
            ))

    roots = {s.trace_id: s for s in spans if s.parent_span_id is None}
    threshold = 1.5 * bg_max
    alerts = []
    for trace_id in sorted(roots):
        root = roots[trace_id]
        if root.status_code != 0 or root.duration > threshold:
            alerts.append(Alert(
                alert_id=f"al-{trace_id}", timestamp=root.start_time,
                trace_id=trace_id, entry_span_id=root.span_id,
                description=f"{kind} symptom at entry {root.cmdb_id}",
            ))
    if not alerts:
        raise ConfigError("scenario produced no alerts; fault injection failed")
    alerted_traces = {a.trace_id for a in alerts}
    reachable = any(
        any(s.cmdb_id in victim_pods for s in spans if s.trace_id == t)
        for t in alerted_traces
    )
    if not reachable:
        raise ConfigError("ground truth unreachable from any alerted trace")

    return Scenario(
        spec=spec, topology=topology, spans=spans, logs=logs, metrics=metrics,
        alerts=alerts, truth=truth, fault_kind=kind, seed=spec.seed,
    )


def _service_layer(service: str, layers: dict[int, list[str]]) -> int:
    for layer, svcs in layers.items():
        if service in svcs:
            return layer
    raise DataError(f"service {service} missing from layer map")


# -- near-duplicate alerts -----------------------------------------------------------


def duplicate_alerts(
    scenario: Scenario, copies: int, jitter: JitterSpec | None = None
) -> Scenario:
    """Clone every alert's trace ``copies`` times with fresh identifiers.

    Clones keep the original timestamps, so their extracted graphs are
    attribute-identical to the original's. With a jitter spec, the last
    clone of the selected alert shifts later in time and the target pod's
    metrics move inside the region only that clone's summary window sees,
    landing it past the divergence threshold while every other clone
    still matches exactly.
    """
    if copies < 1:
        raise ConfigError("duplicate_alerts needs copies >= 1")
    spans = list(scenario.spans)
    metrics = list(scenario.metrics)
    logs = list(scenario.logs)
    alerts = list(scenario.alerts)
    by_trace: dict[str, list[Span]] = {}
    for s in scenario.spans:
        by_trace.setdefault(s.trace_id, []).append(s)

    w_half = scenario.spec.window_ms // 2
    for a_idx, alert in enumerate(list(scenario.alerts)):
        for j in range(1, copies + 1):
            jittered = (
                jitter is not None and a_idx == jitter.alert_index and j == copies
            )
            shift = jitter.time_shift_ms if jittered else 0
            suffix = f"~{a_idx}c{j}"
            trace_id = alert.trace_id + suffix
            for s in by_trace[alert.trace_id]:
                spans.append(replace(
                    s,
                    trace_id=trace_id,
                    span_id=s.span_id + suffix,
                    parent_span_id=(s.parent_span_id + suffix) if s.parent_span_id else None,
                    start_time=s.start_time + shift,
                ))
            alerts.append(replace(
                alert,
                alert_id=alert.alert_id + suffix,
                timestamp=alert.timestamp + shift,
                trace_id=trace_id,
                entry_span_id=alert.entry_span_id + suffix,
            ))
            if jittered:
                component = jitter.component or scenario.truth_pod
                own_metrics = sorted({
                    m.metric for m in scenario.metrics if m.component == component
                })
                lo = alert.timestamp + w_half + 1  # past every unshifted window
                hi = alert.timestamp + shift + w_half
                for metric in own_metrics:
                    half = POD_METRICS.get(metric, (0.0, 4.0))[1]
                    metrics = _shift_metrics(
                        metrics, component, metric, lo, hi,
                        jitter.shift_sigma * half * UNIFORM_SIGMA,
                    )
    return Scenario(
        spec=scenario.spec, topology=scenario.topology, spans=spans, logs=logs,
        metrics=metrics, alerts=alerts, truth=scenario.truth,
        fault_kind=scenario.fault_kind, seed=scenario.seed,
    )
