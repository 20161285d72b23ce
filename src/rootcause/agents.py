"""Evidence-gathering agents, the reasoning transcript, and the consolidator.

Three read-only agents pull the per-span evidence the reasoner needs: the
trace agent lists child calls, the log agent filters relevant log entries
around a timestamp, and the metric agent runs an n-sigma test against a
historical baseline for the component and its related entities (its
service and host node for a pod). A ``Step`` records one span's verdict
with that evidence, and a ``Transcript`` orders the steps of one alert;
the reasoner writes them, memory stores and remaps them, their JSON form
is written by ``as_dict`` and read by ``records.read_record`` off their
fields, and a transcript's stage markers off its steps. The
consolidator is a pure function from steps to a ranked candidate list; it
never touches the store, which is what makes the final review stage
auditable.

Everything here reads the immutable store and may be called concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_LOG_PATTERNS
from .errors import DataError
from .graph import SIGMA_FLOOR, mean_std
from .telemetry import LogEntry, TelemetryStore, Topology, children_of

ALERTING_LEVELS = ("WARN", "ERROR", "FATAL")
LEVELS = ("pod", "service", "node")


@dataclass(frozen=True)
class ChildCall:
    """One child call as seen from a parent span."""

    t: int
    child_span: str
    svc: str
    op: str
    d: int
    sigma: int


@dataclass(frozen=True)
class MetricAnomaly:
    component: str
    metric: str
    series: tuple[tuple[int, float], ...]
    baseline: tuple[float, float]  # (mean, std before flooring)
    max_deviation: float  # max |v - mean| / floored std, > n by construction
    first_exceed: int  # timestamp of the first crossing

    def as_dict(self) -> dict:
        return {**vars(self), "series": [list(p) for p in self.series],
                "baseline": list(self.baseline)}


# -- the reasoning transcript ------------------------------------------------------

VERDICTS = ("Suspect", "ConfirmedRootCause", "Cleared", "Expanded")
STAGES = ("Initial", "Reflection")


@dataclass(frozen=True)
class Step:
    """One reasoning step, linked to a span and its causal-graph node."""

    index: int
    stage: str
    node: str
    span: str
    pod: str
    op: str
    span_status: int
    span_start: int
    instruction: str
    trace_evidence: tuple[ChildCall, ...]
    log_evidence: tuple[LogEntry, ...]
    metric_evidence: tuple[MetricAnomaly, ...]
    verdict: str
    errored: bool = False
    stale: bool = False

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DataError(f"unknown verdict {self.verdict!r}")
        if self.stage not in STAGES:
            raise DataError(f"unknown stage {self.stage!r}")

    def as_dict(self) -> dict:
        return {
            **vars(self),
            "trace_evidence": [dict(vars(c)) for c in self.trace_evidence],
            "log_evidence": [dict(vars(e)) for e in self.log_evidence],
            "metric_evidence": [a.as_dict() for a in self.metric_evidence],
        }


@dataclass
class Transcript:
    alert_id: str
    steps: list[Step]  # initial before reflection
    truncated: tuple[str, ...] = ()  # stages ("initial", "reflection") a budget cut short

    def __post_init__(self):
        seen_reflection = False
        for s in self.steps:
            if s.stage == "Reflection":
                seen_reflection = True
            elif seen_reflection:
                raise DataError("initial-stage steps must precede reflection steps")

    @property
    def suspects(self) -> list[Step]:
        return [s for s in self.steps if s.verdict == "Suspect" and not s.stale]

    @property
    def stage_markers(self) -> dict[str, int]:
        """Step counts per stage, plus ``truncated_<stage>: 1`` per truncated stage."""
        initial = sum(s.stage == "Initial" for s in self.steps)
        markers = {"initial": initial, "reflection": len(self.steps) - initial}
        markers.update((f"truncated_{stage}", 1) for stage in self.truncated)
        return markers

    def as_dict(self) -> dict:
        return {"alert_id": self.alert_id, "stage_markers": self.stage_markers,
                "steps": [s.as_dict() for s in self.steps]}


@dataclass(frozen=True)
class TranscriptJson:
    """What ``Transcript.as_dict`` writes, as ``read_record`` reads it."""

    alert_id: str
    stage_markers: dict[str, int]
    steps: list[Step]

    def transcript(self) -> Transcript:
        """The transcript, if its steps bear out its stage markers."""
        markers = self.stage_markers
        t = Transcript(self.alert_id, self.steps, tuple(
            s for s in ("initial", "reflection") if f"truncated_{s}" in markers))
        if t.stage_markers != markers:
            raise DataError(f"stage_markers {markers} do not match the steps: {t.stage_markers}")
        return t


@dataclass
class Candidate:
    level: str
    root_cause: str
    reason: str
    evidence: list[int]  # supporting transcript step indexes
    score: float
    evidence_time: int

    def __post_init__(self):
        if self.level not in LEVELS:
            raise DataError(f"candidate level must be one of {LEVELS}, got {self.level!r}")
        if not math.isfinite(self.score):
            raise DataError("candidate score must be finite")


class RootCauseRanking(list):
    """Ordered candidates, best first."""

    def rank_of(self, level: str, component: str) -> int | None:
        for i, c in enumerate(self, start=1):
            if c.level == level and c.root_cause == component:
                return i
        return None

    def as_rows(self) -> list[dict]:
        return [
            {
                "rank": i,
                "level": c.level,
                "root_cause": c.root_cause,
                "score": round(c.score, 9),
                "reason": c.reason,
                "evidence_steps": list(c.evidence),
            }
            for i, c in enumerate(self, start=1)
        ]


# -- scopes --------------------------------------------------------------------


def metric_scope(topology: Topology, component: str) -> list[str]:
    """Components whose metrics speak for ``component``."""
    level = topology.level_of(component)
    if level == "pod":
        related = [component, topology.service_of(component), topology.node_of(component)]
    elif level == "service":
        related = [component] + topology.pods_of_service(component)
    elif level == "node":
        related = [component] + topology.pods_on_node(component)
    else:
        related = [component]
    return _dedupe(related)


def log_scope(topology: Topology, component: str) -> list[str]:
    """Components whose logs speak for ``component``; a pod also listens to
    its service's other pods."""
    level = topology.level_of(component)
    if level == "pod":
        service = topology.service_of(component)
        related = [component]
        if service:
            related += topology.pods_of_service(service)
            related.append(service)
        node = topology.node_of(component)
        if node:
            related.append(node)
    elif level == "service":
        related = [component] + topology.pods_of_service(component)
    elif level == "node":
        related = [component] + topology.pods_on_node(component)
    else:
        related = [component]
    return _dedupe(related)


def _dedupe(items) -> list:
    """``items`` without None and repeats, in first-seen order."""
    seen = []
    for x in items:
        if x is not None and x not in seen:
            seen.append(x)
    return seen


# -- agents ---------------------------------------------------------------------


def trace_agent(store: TelemetryStore, span_id: str) -> list[ChildCall]:
    """Child calls of a span with their metadata, in child start order."""
    return [
        ChildCall(t=c.start_time, child_span=c.span_id, svc=c.service,
                  op=c.operation, d=c.duration, sigma=c.status_code)
        for c in children_of(store, span_id)
    ]


def is_relevant(entry: LogEntry, patterns: tuple[str, ...] = DEFAULT_LOG_PATTERNS) -> bool:
    """Relevance filter: alerting level or a configured message pattern."""
    if entry.level in ALERTING_LEVELS:
        return True
    message = entry.message.lower()
    return any(p in message for p in patterns)


def log_agent(
    store: TelemetryStore,
    t0: int,
    delta: int,
    component: str,
    topology: Topology | None = None,
    patterns: tuple[str, ...] = DEFAULT_LOG_PATTERNS,
) -> list[LogEntry]:
    """Relevant log entries for a component and its related entities within
    the closed [t0-delta, t0+delta]. Empty output is a valid signal."""
    if delta <= 0:
        raise DataError(f"log_agent delta must be > 0, got {delta}")
    topology = topology or store.topology
    out: list[LogEntry] = []
    for comp in log_scope(topology, component):
        out.extend(
            e for e in store.logs_between(comp, t0 - delta, t0 + delta)
            if is_relevant(e, patterns)
        )
    out.sort(key=lambda e: (e.timestamp, e.component, e.kind))
    return out


def metric_agent(
    store: TelemetryStore,
    topology: Topology,
    t0: int,
    delta: int,
    component: str,
    n: float,
    baseline_ms: int = 15 * 60_000,
    sigma_floor: float = SIGMA_FLOOR,
    diagnostics: list | None = None,
    _baseline_cache: dict | None = None,
) -> list[MetricAnomaly]:
    """n-sigma anomalies for a component's metrics and its related entities.

    Baselines are the historical mean and standard deviation over
    [t0 - baseline_ms, t0 - delta), which excludes the anomaly window
    itself; a metric with an empty baseline is skipped and recorded in
    ``diagnostics`` as insufficient history, never reported as anomalous.
    """
    if delta <= 0:
        raise DataError(f"metric_agent delta must be > 0, got {delta}")
    if n <= 0:
        raise DataError(f"metric_agent n must be > 0, got {n}")
    anomalies: list[MetricAnomaly] = []
    for comp in metric_scope(topology, component):
        for metric in store.metrics_of(comp):
            cache_key = (comp, metric, t0, delta, baseline_ms)
            baseline = None
            if _baseline_cache is not None:
                baseline = _baseline_cache.get(cache_key)
            if baseline is None:
                _, hist = store.metric_window(comp, metric, t0 - baseline_ms, t0 - delta - 1)
                baseline = mean_std(hist) if hist else ()
                if _baseline_cache is not None:
                    _baseline_cache[cache_key] = baseline
            if baseline == ():
                if diagnostics is not None:
                    diagnostics.append({
                        "component": comp, "metric": metric, "reason": "empty baseline",
                    })
                continue
            mu, sd = baseline
            sd_f = max(sd, sigma_floor)
            times, values = store.metric_window(comp, metric, t0 - delta, t0 + delta)
            max_dev = 0.0
            first = None
            for t, v in zip(times, values):
                dev = abs(v - mu) / sd_f
                if dev > max_dev:
                    max_dev = dev
                if first is None and abs(v - mu) > n * sd_f:
                    first = t
            if first is not None:
                anomalies.append(MetricAnomaly(
                    component=comp,
                    metric=metric,
                    series=tuple(zip(times, values)),
                    baseline=(mu, sd),
                    max_deviation=max_dev,
                    first_exceed=first,
                ))
    anomalies.sort(key=lambda a: (-a.max_deviation, a.component, a.metric))
    return anomalies


# -- consolidation ----------------------------------------------------------------


@dataclass
class ScoreWeights:
    w_metric: float = 1.0
    w_log: float = 0.5
    w_status: float = 0.5
    n_sigma: float = 3.0


def _op_service(op_name: str, fallback: str) -> str:
    """Service named by a ``Service/Operation`` style op, else the fallback.

    Operation prefixes give vertical expansion its service-level candidate:
    a call recorded on one pod may name the downstream service it invokes.
    """
    if "/" in op_name:
        prefix = op_name.split("/", 1)[0]
        if prefix and all(c.isalnum() or c in "-_" for c in prefix):
            return prefix.lower()
    return fallback


def _candidate_levels_for_step(step: Step, topology: Topology) -> list[tuple[str, str]]:
    pod = step.pod
    out: list[tuple[str, str]] = [("pod", pod)]
    service = _op_service(step.op, topology.service_of(pod) or "")
    if service:
        out.append(("service", service))
    node = topology.node_of(pod)
    if node:
        out.append(("node", node))
    for anomaly in step.metric_evidence:
        level = topology.level_of(anomaly.component)
        if level:
            out.append((level, anomaly.component))
    for entry in step.log_evidence:
        target = _log_attribution(entry, pod, topology)
        if target:
            out.append(target)
    return _dedupe(out)


def _log_attribution(entry: LogEntry, step_pod: str, topology: Topology) -> tuple[str, str] | None:
    """Each log entry supports exactly one candidate: the step's own pod
    when it logged itself, otherwise the logging pod's service (sibling
    corroboration implicates the service, not the individual pod)."""
    level = topology.level_of(entry.component)
    if level == "pod":
        if entry.component == step_pod:
            return ("pod", entry.component)
        svc = topology.service_of(entry.component)
        return ("service", svc) if svc else None
    if level:
        return (level, entry.component)
    return None


def consolidate(
    steps: list[Step],
    topology: Topology,
    weights: ScoreWeights | None = None,
) -> RootCauseRanking:
    """Aggregate reasoning steps into a deterministic ranked candidate list.

    Every suspect or confirmed, non-stale, non-errored step proposes
    candidates at the pod, service and node levels (vertical expansion),
    plus whatever components its evidence names. Per step, a candidate
    collects a weighted score: the strongest matching metric deviation
    normalized by 2n, the matching relevant-log count normalized by 10,
    and an error-status flag for the step's own pod. Scores sum over
    supporting steps; ties break on earliest supporting evidence, then
    component id. An empty transcript yields an empty ranking.
    """
    weights = weights or ScoreWeights()
    acc: dict[tuple[str, str], dict] = {}

    ordered = sorted(steps, key=lambda s: s.index)
    for step in ordered:
        if step.verdict not in ("Suspect", "ConfirmedRootCause"):
            continue
        if step.stale or step.errored:
            continue
        for level, comp in _candidate_levels_for_step(step, topology):
            metric_norm = 0.0
            metric_time = None
            best_metric = None
            for anomaly in step.metric_evidence:
                if anomaly.component != comp:
                    continue
                norm = min(anomaly.max_deviation / (2 * weights.n_sigma), 1.0)
                if norm > metric_norm:
                    metric_norm = norm
                    best_metric = anomaly
                if metric_time is None or anomaly.first_exceed < metric_time:
                    metric_time = anomaly.first_exceed

            log_hits = [
                entry for entry in step.log_evidence
                if _log_attribution(entry, step.pod, topology) == (level, comp)
            ]
            log_norm = min(len(log_hits) / 10.0, 1.0)

            status_flag = 1.0 if (level == "pod" and comp == step.pod and step.span_status != 0) else 0.0

            score = (
                weights.w_metric * metric_norm
                + weights.w_log * log_norm
                + weights.w_status * status_flag
            )
            times = [t for t in (
                metric_time,
                min((e.timestamp for e in log_hits), default=None),
                step.span_start if status_flag else None,
            ) if t is not None]
            evidence_time = min(times) if times else step.span_start

            reasons = []
            if best_metric is not None:
                reasons.append(
                    f"metric {best_metric.metric} on {comp} deviated "
                    f"{best_metric.max_deviation:.2f} sigma"
                )
            if log_hits:
                reasons.append(f"{len(log_hits)} relevant log entries")
            if status_flag:
                reasons.append(f"error status {step.span_status} on {step.op}")

            slot = acc.setdefault((level, comp), {
                "score": 0.0, "evidence": [], "time": evidence_time, "reasons": [],
            })
            slot["score"] += score
            slot["evidence"].append(step.index)
            slot["time"] = min(slot["time"], evidence_time)
            for r in reasons:
                if r not in slot["reasons"]:
                    slot["reasons"].append(r)

    candidates = []
    for (level, comp), slot in acc.items():
        reason = "; ".join(slot["reasons"]) if slot["reasons"] else "on the anomalous request path"
        candidates.append(Candidate(
            level=level,
            root_cause=comp,
            reason=reason,
            evidence=sorted(set(slot["evidence"])),
            score=slot["score"],
            evidence_time=slot["time"],
        ))
    candidates.sort(key=lambda c: (-c.score, c.evidence_time, c.root_cause, c.level))
    return RootCauseRanking(candidates)
