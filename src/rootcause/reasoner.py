"""Recursive root-cause reasoning and window orchestration.

The controller walks an alert's span tree depth first. At each span it
asks a pluggable judgment policy whether the span looks suspicious given
its sibling call context; suspicious spans get cross-modal log and metric
evidence and, if that confirms, the walk returns the span as a root-cause
candidate without descending further. Otherwise the walk recurses into
whichever children the policy flags, backtracking until paths are
exhausted or budgets run out.

Premature termination is countered with three stages. Initial reasoning
runs the walk with log and metric agents withheld, so nothing can confirm
and the result is a coarse frontier of suspects. Critical reflection
re-enters the walk from seed spans with the full agent set, forcing deeper
inspection. Final review hands the whole transcript to the consolidator
and performs no policy or agent calls at all, which keeps late-visited
spans from dominating the ranking.

Every alert runs one pipeline; the memory decision picks only its base
transcript and its reflection seeds. Fresh: initial reasoning, seeded by
every suspect it leaves. Resume: the matched transcript remapped onto the
new graph, seeded by the spans of the divergent nodes. Reuse: the
remapped transcript with no seeds, so reflection is skipped.

Policies see only the evidence passed to them; that purity rule is what
makes a remote-model policy and the deterministic reference policy
interchangeable under test.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, fields

from .agents import (
    Candidate,
    ChildCall,
    MetricAnomaly,
    RootCauseRanking,
    ScoreWeights,
    Step,
    Transcript,
    TranscriptJson,
    consolidate,
    log_agent,
    metric_agent,
    trace_agent,
)
from .config import Config
from .errors import DataError
from .graph import extract
from .memory import Decision, Memory, MemoryEntry, Ranked, remap
from .records import parse_json, read_record
from .telemetry import Alert, AlertWindow, LogEntry, Span, TelemetryStore, Topology


# -- policies -------------------------------------------------------------------


class PolicyContract:
    """Judgment interface the reasoner delegates to.

    Implementations must be pure with respect to the evidence handed in:
    no reaching back into the telemetry store. ``suspect`` receives the
    call set in which the span appears next to its siblings (for an entry
    span, its own child calls); ``suspicious_children`` receives the
    span's own child calls and must return a subset of them.
    """

    def generate_instruction(self, span: Span, context: str) -> str:
        raise NotImplementedError

    def suspect(self, span: Span, trace_evidence: list[ChildCall]) -> bool:
        raise NotImplementedError

    def confirm(self, span: Span, log_evidence: list[LogEntry],
                metric_evidence: list[MetricAnomaly]) -> bool:
        raise NotImplementedError

    def suspicious_children(self, span: Span,
                            trace_evidence: list[ChildCall]) -> list[ChildCall]:
        raise NotImplementedError


class DeterministicPolicy(PolicyContract):
    """Reference policy with auditable threshold rules.

    A span is suspect when it carries a nonzero status or its duration
    exceeds ``timeout_factor`` times the median duration of its sibling
    calls. Confirmation requires cross-modal evidence: any metric anomaly,
    or an ERROR/FATAL log entry. Children are suspicious under the same
    status or duration test against the median of the other children,
    explored slowest first.
    """

    def __init__(self, timeout_factor: float = 3.0):
        if timeout_factor <= 0:
            raise DataError("timeout_factor must be > 0")
        self.timeout_factor = timeout_factor

    def generate_instruction(self, span: Span, context: str) -> str:
        return (
            f"Inspect {span.cmdb_id}/{span.operation} (span {span.span_id}): {context}. "
            f"Check child calls, then confirm with logs and metrics if suspicious."
        )

    def suspect(self, span: Span, trace_evidence: list[ChildCall]) -> bool:
        if span.status_code != 0:
            return True
        siblings = [c.d for c in trace_evidence if c.child_span != span.span_id]
        if not siblings:
            return False
        return span.duration > self.timeout_factor * statistics.median(siblings)

    def confirm(self, span: Span, log_evidence: list[LogEntry],
                metric_evidence: list[MetricAnomaly]) -> bool:
        if metric_evidence:
            return True
        return any(e.level in ("ERROR", "FATAL") for e in log_evidence)

    def suspicious_children(self, span: Span,
                            trace_evidence: list[ChildCall]) -> list[ChildCall]:
        flagged = []
        for c in trace_evidence:
            if c.sigma != 0:
                flagged.append(c)
                continue
            others = [o.d for o in trace_evidence if o.child_span != c.child_span]
            if others and c.d > self.timeout_factor * statistics.median(others):
                flagged.append(c)
        flagged.sort(key=lambda c: (-c.d, c.child_span))
        return flagged


class CountingPolicy(PolicyContract):
    """Delegating wrapper that counts every predicate invocation.

    A positive ``latency_ms`` sleeps that long before each call, which
    simulates a remote policy."""

    def __init__(self, inner: PolicyContract, latency_ms: float = 0.0):
        self.inner = inner
        self.latency_s = latency_ms / 1000.0
        self.calls = 0
        self.by_op: dict[str, int] = {}

    def _tick(self, op: str) -> None:
        self.calls += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        if self.latency_s > 0:
            time.sleep(self.latency_s)

    def generate_instruction(self, span, context):
        self._tick("generate_instruction")
        return self.inner.generate_instruction(span, context)

    def suspect(self, span, trace_evidence):
        self._tick("suspect")
        return self.inner.suspect(span, trace_evidence)

    def confirm(self, span, log_evidence, metric_evidence):
        self._tick("confirm")
        return self.inner.confirm(span, log_evidence, metric_evidence)

    def suspicious_children(self, span, trace_evidence):
        self._tick("suspicious_children")
        return self.inner.suspicious_children(span, trace_evidence)


def deterministic_policy(config: Config | None = None) -> DeterministicPolicy:
    cfg = config or Config()
    return DeterministicPolicy(timeout_factor=cfg.timeout_factor)


# -- runtime --------------------------------------------------------------------


@dataclass
class Budget:
    max_depth: int = 16
    max_steps: int = 512

    def __post_init__(self):
        if self.max_depth < 1 or self.max_steps < 1:
            raise DataError("budget limits must be >= 1")


class AgentRuntime:
    """Binds the agents to one alert's timestamp and counts their calls."""

    def __init__(
        self,
        store: TelemetryStore,
        topology: Topology,
        t0: int,
        config: Config,
    ):
        self.store = store
        self.topology = topology
        self.t0 = t0
        self.config = config
        self.delta = config.window_ms // 2
        self.calls = {"trace": 0, "log": 0, "metric": 0}
        self.diagnostics: list[dict] = []
        self._baseline_cache: dict = {}

    def trace(self, span_id: str) -> list[ChildCall]:
        self.calls["trace"] += 1
        return trace_agent(self.store, span_id)

    def logs(self, component: str) -> list[LogEntry]:
        self.calls["log"] += 1
        return log_agent(
            self.store, self.t0, self.delta, component,
            topology=self.topology, patterns=self.config.log_patterns,
        )

    def metrics(self, component: str) -> list[MetricAnomaly]:
        self.calls["metric"] += 1
        return metric_agent(
            self.store, self.topology, self.t0, self.delta, component,
            n=self.config.n_sigma,
            baseline_ms=int(self.config.baseline_minutes * 60_000),
            diagnostics=self.diagnostics,
            _baseline_cache=self._baseline_cache,
        )


@dataclass
class RunState:
    steps: list[Step] = field(default_factory=list)
    visited: set[str] = field(default_factory=set)
    truncated: bool = False
    next_index: int = 0
    cross_modal: bool = True  # whether suspects get log and metric evidence

    def allocate(self) -> int:
        i = self.next_index
        self.next_index += 1
        return i


# -- the recursion ----------------------------------------------------------------


def recursive_rcl(
    span: Span,
    policy: PolicyContract,
    runtime: AgentRuntime,
    budget: Budget,
    state: RunState | None = None,
    sibling_view: list[ChildCall] | None = None,
    stage: str = "Initial",
    context: str = "entry span of the alert trace",
    depth: int = 0,
) -> tuple[set[str], list[Step]]:
    """Depth-first walk per the recursion contract; returns the candidate
    span set (spans of its suspect or confirmed steps) and the appended steps.

    Exhausted budgets set ``state.truncated`` rather than raising; a failed
    agent call records an errored step and skips that subtree.
    """
    state = state if state is not None else RunState()
    first = len(state.steps)
    _visit(span, policy, runtime, budget, state, sibling_view, stage, context, depth)
    steps = state.steps[first:]
    return {s.span for s in steps if s.verdict in ("Suspect", "ConfirmedRootCause")}, steps


def _visit(
    span: Span,
    policy: PolicyContract,
    runtime: AgentRuntime,
    budget: Budget,
    state: RunState,
    sibling_view: list[ChildCall] | None,
    stage: str,
    context: str,
    depth: int,
) -> None:
    if span.span_id in state.visited:
        return
    if depth >= budget.max_depth or len(state.steps) >= budget.max_steps:
        state.truncated = True
        return
    state.visited.add(span.span_id)
    instruction = policy.generate_instruction(span, context)

    def record(verdict, calls=(), logs=(), metrics=(), errored=False):
        state.steps.append(Step(
            index=state.allocate(), stage=stage, node=f"{span.cmdb_id}|{span.operation}",
            span=span.span_id, pod=span.cmdb_id, op=span.operation,
            span_status=span.status_code, span_start=span.start_time,
            instruction=instruction, trace_evidence=tuple(calls),
            log_evidence=tuple(logs), metric_evidence=tuple(metrics),
            verdict=verdict, errored=errored,
        ))

    try:
        calls = runtime.trace(span.span_id)
    except Exception:  # noqa: BLE001 - agent failures must not kill analysis
        record("Cleared", errored=True)
        return

    view = sibling_view if sibling_view is not None else calls
    suspected = policy.suspect(span, view)

    logs: list[LogEntry] = []
    metrics: list[MetricAnomaly] = []
    confirmed = False
    errored = False
    if suspected:
        try:
            if state.cross_modal:
                logs = runtime.logs(span.cmdb_id)
                metrics = runtime.metrics(span.cmdb_id)
        except Exception:  # noqa: BLE001
            errored = True
        if not errored:
            confirmed = policy.confirm(span, logs, metrics)

    if errored:
        record("Cleared", calls, errored=True)
        return

    if confirmed:
        record("ConfirmedRootCause", calls, logs, metrics)
        return

    kids = policy.suspicious_children(span, calls)
    by_span = {c.child_span: c for c in calls}
    kids = [c for c in kids if c.child_span in by_span]  # enforce subset contract
    record("Suspect" if suspected else ("Expanded" if kids else "Cleared"), calls, logs, metrics)

    for call in kids:
        child = runtime.store.span(call.child_span)
        _visit(
            child, policy, runtime, budget, state,
            sibling_view=calls, stage=stage,
            context=f"suspicious child of {span.cmdb_id}/{span.operation}",
            depth=depth + 1,
        )


# -- initial reasoning and critical reflection ---------------------------------------


def initial_reasoning(
    entry: Span,
    policy: PolicyContract,
    runtime: AgentRuntime,
    budget: Budget,
    alert_id: str,
) -> Transcript:
    """Stage one: broad trace-only exploration. Metric and log agents are
    withheld, so the confirm predicate sees empty evidence and suspects
    accumulate into a frontier instead of terminating the walk."""
    state = RunState(cross_modal=False)
    recursive_rcl(entry, policy, runtime, budget, state, stage="Initial")
    return Transcript(alert_id, tuple(state.steps), ("initial",) if state.truncated else ())


def critical_reflection(
    gamma0: Transcript,
    policy: PolicyContract,
    runtime: AgentRuntime,
    budget: Budget,
    seed_spans: list[str] | None = None,
) -> Transcript:
    """Stage two: re-enter the walk from every still-suspect span (or the
    given seeds) with the full agent set. One shared visited set keeps
    overlapping re-entries from duplicating work."""
    if seed_spans is None:
        seed_spans = [s.span for s in gamma0.suspects]
    sibling_views: dict[str, list[ChildCall]] = {}
    for step in gamma0.steps:
        if step.stale:
            continue
        for call in step.trace_evidence:
            sibling_views[call.child_span] = list(step.trace_evidence)

    state = RunState(next_index=gamma0.steps[-1].index + 1 if gamma0.steps else 0)
    for span_id in seed_spans:
        if span_id in state.visited:
            continue
        if not runtime.store.has_span(span_id):
            continue
        span = runtime.store.span(span_id)
        view = sibling_views.get(span_id)
        if view is None and span.parent_span_id is not None:
            try:
                view = runtime.trace(span.parent_span_id)
            except Exception:  # noqa: BLE001
                view = None
        recursive_rcl(
            span, policy, runtime, budget, state, sibling_view=view,
            stage="Reflection", context="reflection over a still-suspect span",
        )
    return Transcript(gamma0.alert_id, tuple(state.steps),
                      ("reflection",) if state.truncated else ())


# -- per-alert orchestration -----------------------------------------------------------


@dataclass
class Counters:
    policy_calls: int = 0
    policy_by_op: dict = field(default_factory=dict)
    agent_calls: dict = field(default_factory=lambda: {"trace": 0, "log": 0, "metric": 0})

    @property
    def total_agent_calls(self) -> int:
        return sum(self.agent_calls.values())

    def as_dict(self) -> dict:
        return {
            "policy_calls": self.policy_calls,
            "policy_by_op": dict(sorted(self.policy_by_op.items())),
            "agent_calls": dict(self.agent_calls),
        }


@dataclass
class AlertAnalysis:
    alert_id: str
    ranking: RootCauseRanking
    transcript: Transcript
    decision: Decision
    entry: MemoryEntry
    counters: Counters
    wall_ms: float
    unsaved: bool = False

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {
            "alert_id": self.alert_id,
            "decision": {
                "kind": self.decision.kind,
                "similarity": round(self.decision.similarity, 9),
                "divergent_nodes": sorted(self.decision.divergent_nodes),
                "degraded": self.decision.degraded,
            },
            "counters": self.counters.as_dict(),
            "ranking": self.ranking.as_rows(),
            "unsaved": self.unsaved,
        }
        if include_timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


def _weights(config: Config) -> ScoreWeights:
    return ScoreWeights(
        w_metric=config.w_metric, w_log=config.w_log,
        w_status=config.w_status, n_sigma=config.n_sigma,
    )


def analyze_alert(
    alert: Alert,
    store: TelemetryStore,
    topology: Topology,
    mem: Memory | None,
    policy: PolicyContract,
    config: Config,
    timer=time.perf_counter,
) -> AlertAnalysis:
    """Analyze one alert on one pipeline for every memory decision.

    The decision picks only the base transcript and the reflection seeds.
    Fresh starts from initial reasoning and reflects over all of its
    suspects; Resume and Reuse start from the stored transcript remapped
    onto the new graph and reflect only from the spans of divergent nodes,
    of which Reuse has none, so it makes no policy call. The ranking
    consolidates the resulting transcript, unless a Reuse can keep the
    matched entry's stored ranking (``Decision.stored_ranking``). The
    transcript and its ranking are stored back under the keys ``decide``
    derived for the new graph. A memory write failure flags the result
    unsaved rather than discarding the computed ranking. ``mem=None``
    turns memory off: every alert starts fresh and nothing is stored.
    """
    t_begin = timer()
    g = extract(alert, store, topology, config.window_ms)
    counting = CountingPolicy(policy)
    runtime = AgentRuntime(store, topology, alert.timestamp, config)
    budget = Budget(max_depth=config.max_depth, max_steps=config.max_steps)

    if mem is not None:
        decision = mem.decide(g, config.tau_skip, config.tau_partial, config.delta)
    else:
        decision = Decision(kind="Fresh", matched=None, similarity=0.0)

    if decision.kind == "Fresh":
        entry_span = store.span(alert.entry_span_id)
        transcript = initial_reasoning(entry_span, counting, runtime, budget, alert.alert_id)
        seeds = None  # every suspect of the initial walk
    else:
        transcript = remap(decision.matched, g)
        seeds = sorted(
            {sid for nid in decision.divergent_nodes for sid in g.nodes[nid].span_ids},
            key=lambda sid: (store.span(sid).start_time, sid),
        )
    weights = _weights(config)
    ranking = None
    if seeds is None or seeds:
        reflection = critical_reflection(transcript, counting, runtime, budget, seeds)
        transcript = Transcript(alert.alert_id, transcript.steps + reflection.steps,
                                tuple(dict.fromkeys(transcript.truncated + reflection.truncated)))
    else:
        ranking = decision.stored_ranking(transcript, topology, weights)
    if ranking is None:
        ranking = consolidate(transcript.steps, topology, weights)

    entry = MemoryEntry(graph=g, meta=(alert.timestamp, alert.alert_id), transcript=transcript)
    unsaved = False
    if mem is not None:
        try:
            mem.store(entry, decision.query, Ranked(tuple(ranking), topology, weights))
        except Exception:  # noqa: BLE001 - the ranking is already computed
            unsaved = True

    counters = Counters(
        policy_calls=counting.calls,
        policy_by_op=dict(counting.by_op),
        agent_calls=dict(runtime.calls),
    )
    return AlertAnalysis(
        alert_id=alert.alert_id,
        ranking=ranking,
        transcript=transcript,
        decision=decision,
        entry=entry,
        counters=counters,
        wall_ms=(timer() - t_begin) * 1000.0,
        unsaved=unsaved,
    )


# -- window orchestration ----------------------------------------------------------


@dataclass
class WindowReport:
    window: tuple[int, int]
    analyses: list[AlertAnalysis]
    window_ranking: RootCauseRanking
    failures: list[dict]

    @property
    def decision_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for a in self.analyses:
            hist[a.decision.kind] = hist.get(a.decision.kind, 0) + 1
        return hist

    @property
    def total_policy_calls(self) -> int:
        return sum(a.counters.policy_calls for a in self.analyses)

    @property
    def total_wall_ms(self) -> float:
        return sum(a.wall_ms for a in self.analyses)

    @property
    def seconds_per_query(self) -> float:
        if not self.analyses:
            return 0.0
        return self.total_wall_ms / len(self.analyses) / 1000.0

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {
            "window": {"start": self.window[0], "end": self.window[1]},
            "alerts": [a.as_dict(include_timing) for a in self.analyses],
            "window_ranking": self.window_ranking.as_rows(),
            "decisions": self.decision_histogram,
            "total_policy_calls": self.total_policy_calls,
            "failures": list(self.failures),
        }
        if include_timing:
            out["seconds_per_query"] = round(self.seconds_per_query, 6)
        return out


def aggregate_rankings(rankings: list[RootCauseRanking]) -> RootCauseRanking:
    """Window-level merge: summed reciprocal rank per (level, component)."""
    acc: dict[tuple[str, str], dict] = {}
    for ranking in rankings:
        for pos, cand in enumerate(ranking, start=1):
            slot = acc.setdefault((cand.level, cand.root_cause), {
                "score": 0.0, "time": cand.evidence_time, "evidence": [], "reasons": [],
            })
            slot["score"] += 1.0 / pos
            slot["time"] = min(slot["time"], cand.evidence_time)
            slot["evidence"].extend(cand.evidence)
            if cand.reason not in slot["reasons"]:
                slot["reasons"].append(cand.reason)
    merged = [
        Candidate(
            level=level, root_cause=comp,
            reason=" | ".join(slot["reasons"][:3]),
            evidence=tuple(sorted(set(slot["evidence"]))),
            score=slot["score"],
            evidence_time=slot["time"],
        )
        for (level, comp), slot in acc.items()
    ]
    merged.sort(key=lambda c: (-c.score, c.evidence_time, c.root_cause, c.level))
    return RootCauseRanking(merged)


def analyze_window(
    window: AlertWindow,
    store: TelemetryStore,
    topology: Topology,
    mem: Memory | None,
    policy: PolicyContract,
    config: Config,
    timer=time.perf_counter,
) -> WindowReport:
    """Analyze a window's alerts in timestamp order, isolating failures.

    Sequential processing is deliberate: earlier alerts become reuse
    precedents for later ones. The aggregated ranking scores each
    (level, component) by its summed reciprocal rank across alerts.
    """
    analyses: list[AlertAnalysis] = []
    failures: list[dict] = []
    for alert in sorted(window.alerts, key=lambda a: (a.timestamp, a.alert_id)):
        try:
            analyses.append(analyze_alert(alert, store, topology, mem, policy, config, timer))
        except Exception as exc:  # noqa: BLE001 - per-alert isolation
            failures.append({"alert_id": alert.alert_id, "error": str(exc)})
    ranking = aggregate_rankings([a.ranking for a in analyses])
    return WindowReport(
        window=(window.start, window.end),
        analyses=analyses,
        window_ranking=ranking,
        failures=failures,
    )


# -- transcript export ----------------------------------------------------------------


def evidence_digest(step: dict) -> str:
    """The digest of a step's JSON form (``Step.as_dict``)."""
    payload = json.dumps(step, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _topology_snapshot(transcript: Transcript, topology: Topology) -> dict:
    """Pod mappings for every pod the transcript touches, so the document
    replays without the original topology file."""
    pods = {s.pod for s in transcript.steps}
    for s in transcript.steps:
        for entry in s.log_evidence:
            if topology.level_of(entry.component) == "pod":
                pods.add(entry.component)
        for anomaly in s.metric_evidence:
            if topology.level_of(anomaly.component) == "pod":
                pods.add(anomaly.component)
    known = sorted(p for p in pods if topology.service_of(p) is not None)
    return {
        "pod_to_service": {p: topology.pod_to_service[p] for p in known},
        "pod_to_node": {p: topology.pod_to_node[p] for p in known},
    }


def export_transcript(analysis: AlertAnalysis, topology: Topology) -> str:
    """Replayable transcript document: the transcript's ``as_dict`` with an
    evidence digest on each step, a topology snapshot, and the ranking the
    steps produced."""
    doc = analysis.transcript.as_dict()
    for d in doc["steps"]:
        d["evidence_digest"] = evidence_digest(d)
    doc["topology"] = _topology_snapshot(analysis.transcript, topology)
    doc["ranking"] = analysis.ranking.as_rows()
    return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class _RankingRow:  # one row of RootCauseRanking.as_rows
    rank: int
    level: str
    root_cause: str
    score: float
    reason: str
    evidence_steps: list[int]


@dataclass(frozen=True)
class _ExportedStep(Step):  # a step of an exported document: Step.as_dict and its digest
    evidence_digest: str = ""  # the default only orders the field; a record needs the key


@dataclass(frozen=True)
class _ExportedTranscript(TranscriptJson):  # what export_transcript writes
    steps: tuple[_ExportedStep, ...]
    topology: Topology
    ranking: list[_RankingRow]


def read_transcript(text: str) -> tuple[Transcript, Topology, list[dict]]:
    """The transcript, topology snapshot and ranking rows of an exported
    document; raises ``DataError`` for a malformed document, naming the JSON
    path of a mistyped value, or a step that does not match its evidence digest."""
    value = parse_json(text)
    doc = read_record(_ExportedTranscript, value)
    steps = []
    for step, d in zip(doc.steps, value["steps"]):  # each a JSON object, as read
        del d["evidence_digest"]
        if evidence_digest(d) != step.evidence_digest:
            raise DataError(f"step {step.index} does not match its evidence digest")
        steps.append(Step(**{f.name: getattr(step, f.name) for f in fields(Step)}))
    transcript = TranscriptJson(doc.alert_id, doc.stage_markers, tuple(steps)).transcript()
    return transcript, doc.topology, [vars(row) for row in doc.ranking]


def replay_transcript(transcript: Transcript, topology: Topology,
                      config: Config) -> RootCauseRanking:
    """Re-run final review over a transcript that ``read_transcript`` read;
    the result should equal the document's stored ranking rows."""
    return consolidate(transcript.steps, topology, _weights(config))


def render_transcript(transcript: Transcript, rows: list[dict]) -> str:
    """Human-readable rendering of an exported transcript document, as
    ``read_transcript`` read it."""
    lines = [f"alert {transcript.alert_id}"]
    for s in transcript.steps:
        flags = [name for name, on in (("stale", s.stale), ("errored", s.errored)) if on]
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(f"  [{s.index:>3}] {s.stage:<10} {s.pod}/{s.op} -> {s.verdict}{suffix}")
        lines.append(f"        {s.instruction}")
        if s.metric_evidence:
            worst = max(s.metric_evidence, key=lambda a: a.max_deviation)
            lines.append(
                f"        metrics: {len(s.metric_evidence)} anomalies, worst "
                f"{worst.metric}@{worst.component} at {worst.max_deviation:.2f} sigma"
            )
        if s.log_evidence:
            lines.append(f"        logs: {len(s.log_evidence)} relevant entries")
    lines.append("  ranking:")
    for row in rows:
        lines.append(
            f"    {row['rank']:>2}. {row['level']}:{row['root_cause']} "
            f"score={row['score']:.4f}"
        )
    return "\n".join(lines) + "\n"
