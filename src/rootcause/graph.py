"""Per-alert causal graphs: construction, hashing, embedding, comparison.

Each alert's anomalous request path becomes an attributed directed graph:
one node per distinct (pod, operation) on the trace, one edge per
parent-to-child call. Nodes carry windowed metric and log summaries; edges
carry call latency and status. Structure is canonicalized with
Weisfeiler-Lehman refinement so that isomorphic graphs hash identically,
and a deterministic WL-subtree feature embedding stands in for a learned
encoder: retrieval semantics are the same, but every vector is an exact
function of the graph, which keeps the whole engine testable offline.

Edge attributes are deliberately excluded from hashing and embedding;
latency is volatile and would defeat reuse of near-identical alerts. They
still ride along as reasoning evidence.

All functions here are pure with respect to immutable inputs and safe to
call concurrently.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, GraphConstructionError
from .telemetry import Alert, TelemetryStore, Topology

WL_ROUNDS = 3
EMBED_SEED = b"rootcause-wl-embed-v1"  # fixed feature-hashing key, documented
DEFAULT_DIM = 128
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class NodeAttributes:
    service_id: str
    pod_id: str
    op_name: str
    metric_summary: dict[str, tuple[float, float]]  # metric -> (mean, std)
    log_summary: dict[str, int]  # log kind -> count
    span_ids: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        """Node identity across graphs: (pod, operation)."""
        return (self.pod_id, self.op_name)

    @property
    def wl_label(self) -> str:
        """Structural label for hashing: service and operation only."""
        return f"{self.service_id}|{self.op_name}"


@dataclass(frozen=True)
class EdgeAttributes:
    call_latency: int
    status_code: int


@dataclass(frozen=True)
class CausalGraph:
    """An alert's graph; ``nodes`` and ``edges`` are read-only copies of the
    mappings it is made with, so a stored graph never changes under the
    keys derived from it."""

    alert_id: str
    window: tuple[int, int]
    nodes: Mapping[str, NodeAttributes] = field(default_factory=dict)
    edges: Mapping[tuple[str, str], EdgeAttributes] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        for (u, v) in self.edges:
            if u not in self.nodes or v not in self.nodes:
                raise DataError(f"edge ({u}, {v}) references a missing node")


@dataclass(frozen=True)
class Embedding:
    vector: np.ndarray

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vector))
        if not (norm == 0.0 or abs(norm - 1.0) <= 1e-9):  # refuses NaN and inf too
            raise DataError(f"embedding norm must be 0 or 1, got {norm}")


def node_id_for(pod_id: str, op_name: str) -> str:
    return f"{pod_id}|{op_name}"


# -- construction ------------------------------------------------------------


def extract(
    alert: Alert,
    store: TelemetryStore,
    topology: Topology | None = None,
    window_ms: int = 60_000,
) -> CausalGraph:
    """Build the causal graph of one alert's trace.

    One node per distinct (pod, operation) pair on the trace, attributed
    with metric mean/std and log-kind counts over the half-window around
    the alert timestamp; one edge per parent-to-child call carrying the
    child call's latency and status. Construction order is normalized so
    identical inputs serialize byte-identically. When two calls collapse
    onto the same edge the worse observation wins: maximum latency, first
    nonzero status.
    """
    topology = topology or store.topology
    spans = store.trace(alert.trace_id)  # NotFoundError for unknown traces
    half = window_ms // 2
    if half <= 0:
        raise DataError(f"extract half-window must be > 0, got {half}")
    window = (alert.timestamp - half, alert.timestamp + half)

    by_key: dict[str, list] = {}
    for s in sorted(spans, key=lambda s: (s.start_time, s.span_id)):
        by_key.setdefault(node_id_for(s.cmdb_id, s.operation), []).append(s)

    summaries: dict[str, tuple[dict, dict]] = {}  # nodes of one pod share them
    nodes: dict[str, NodeAttributes] = {}
    for nid in sorted(by_key):
        members = by_key[nid]
        pod = members[0].cmdb_id
        if pod not in summaries:
            summaries[pod] = _summaries(store, pod, *window)
        metric_summary, log_summary = summaries[pod]
        nodes[nid] = NodeAttributes(
            service_id=members[0].service,
            pod_id=pod,
            op_name=members[0].operation,
            metric_summary=metric_summary,
            log_summary=log_summary,
            span_ids=tuple(s.span_id for s in members),
        )

    edges: dict[tuple[str, str], EdgeAttributes] = {}
    for s in sorted(spans, key=lambda s: (s.start_time, s.span_id)):
        if s.parent_span_id is None:
            continue
        parent = store.span(s.parent_span_id)
        u = node_id_for(parent.cmdb_id, parent.operation)
        v = node_id_for(s.cmdb_id, s.operation)
        attrs = EdgeAttributes(call_latency=s.duration, status_code=s.status_code)
        prior = edges.get((u, v))
        if prior is not None:
            attrs = EdgeAttributes(
                call_latency=max(prior.call_latency, attrs.call_latency),
                status_code=prior.status_code if prior.status_code != 0 else attrs.status_code,
            )
        edges[(u, v)] = attrs

    _assert_acyclic(nodes, edges)
    return CausalGraph(
        alert_id=alert.alert_id,
        window=window,
        nodes=nodes,
        edges=dict(sorted(edges.items())),
    )


def _summaries(
    store: TelemetryStore, pod: str, t_lo: int, t_hi: int
) -> tuple[dict[str, tuple[float, float]], dict[str, int]]:
    """A pod's metric (mean, std) and log-kind counts within [t_lo, t_hi]."""
    metric_summary = {}
    for name in store.metrics_of(pod):
        _, values = store.metric_window(pod, name, t_lo, t_hi)
        if values:
            metric_summary[name] = mean_std(values)
    log_summary: dict[str, int] = {}
    for entry in store.logs_between(pod, t_lo, t_hi):
        log_summary[entry.kind] = log_summary.get(entry.kind, 0) + 1
    return metric_summary, dict(sorted(log_summary.items()))


def mean_std(vals: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation of a non-empty sample."""
    mu = sum(vals) / len(vals)
    return mu, math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals))


def _assert_acyclic(nodes: dict, edges: dict) -> None:
    out: dict[str, list[str]] = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for (u, v) in edges:
        out[u].append(v)
        indeg[v] += 1
    queue = sorted(n for n, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for v in out[n]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen != len(nodes):
        stuck = sorted(n for n, d in indeg.items() if d > 0)
        closing = next(((u, v) for (u, v) in sorted(edges) if u in stuck and v in stuck), None)
        raise GraphConstructionError(f"cycle detected, closing edge {closing}")


# -- Weisfeiler-Lehman labeling ----------------------------------------------


def _wl_label_rounds(g: CausalGraph) -> list[dict[str, str]]:
    """Label refinements for rounds 0..WL_ROUNDS over directed neighborhoods."""
    labels = {nid: g.nodes[nid].wl_label for nid in g.nodes}
    out_adj: dict[str, list[str]] = {nid: [] for nid in g.nodes}
    in_adj: dict[str, list[str]] = {nid: [] for nid in g.nodes}
    for (u, v) in g.edges:
        out_adj[u].append(v)
        in_adj[v].append(u)
    history = [dict(labels)]
    for _ in range(WL_ROUNDS):
        new_labels = {}
        for nid in g.nodes:
            outs = sorted(labels[v] for v in out_adj[nid])
            ins = sorted(labels[u] for u in in_adj[nid])
            raw = labels[nid] + "|out:" + ",".join(outs) + "|in:" + ",".join(ins)
            new_labels[nid] = hashlib.sha256(raw.encode()).hexdigest()
        labels = new_labels
        history.append(dict(labels))
    return history


def graph_key(g: CausalGraph, dim: int = DEFAULT_DIM) -> tuple[str, Embedding]:
    """Both keys of a graph from one WL refinement.

    The fingerprint is a canonical topology hash, 64 lowercase hex chars:
    an order-independent digest of the sorted multiset of final WL labels,
    so insertion order never matters. The embedding hashes the WL subtree
    features of every round into ``dim`` count buckets with a fixed key and
    L2-normalizes them. Counts never cancel, so a non-empty graph always
    has norm one and isomorphic graphs map to identical vectors; the empty
    graph maps to the zero vector. Both are exact functions of the graph, so a caller may
    compute them once and keep them.
    """
    if dim < 8:
        raise DataError(f"embedding dim must be >= 8, got {dim}")
    history = _wl_label_rounds(g)
    payload = f"wlfp.v1|rounds={WL_ROUNDS}|" + "\n".join(sorted(history[-1].values()))
    f = hashlib.sha256(payload.encode()).hexdigest()
    vec = np.zeros(dim, dtype=np.float64)
    for feature, count in _features(history).items():
        vec[feature_bucket(feature, dim)] += count
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec = vec / norm
    return f, Embedding(vector=vec)


def fingerprint(g: CausalGraph) -> str:
    """Canonical topology hash of ``g``; see ``graph_key``."""
    return graph_key(g)[0]


def embed(g: CausalGraph, dim: int = DEFAULT_DIM) -> Embedding:
    """Deterministic whole-graph embedding for nearest-neighbor retrieval;
    see ``graph_key``."""
    return graph_key(g, dim)[1]


def _features(history: list[dict[str, str]]) -> Counter:
    feats: Counter = Counter()
    for r, labels in enumerate(history):
        for label in labels.values():
            feats[f"r{r}:{label}"] += 1
    return feats


def feature_bucket(feature: str, dim: int) -> int:
    h = hashlib.blake2b(feature.encode(), key=EMBED_SEED, digest_size=8)
    return int.from_bytes(h.digest(), "big") % dim


# -- comparison ---------------------------------------------------------------


def node_dist(a: NodeAttributes, b: NodeAttributes, sigma_floor: float = SIGMA_FLOOR) -> float:
    """Normalized attribute deviation between two nodes of the same key.

    Metric term: mean over shared metrics of |mu_a - mu_b| over the pooled
    standard deviation, floored to keep constant series comparable. Log
    term: mean over the union of log kinds of |count_a - count_b| over the
    smaller count floored at one, so fresh bursts register strongly. Both
    terms are symmetric in their arguments.
    """
    shared = sorted(set(a.metric_summary) & set(b.metric_summary))
    metric_term = 0.0
    if shared:
        total = 0.0
        for m in shared:
            mu_a, sd_a = a.metric_summary[m]
            mu_b, sd_b = b.metric_summary[m]
            pooled = math.sqrt((sd_a ** 2 + sd_b ** 2) / 2.0)
            total += abs(mu_a - mu_b) / max(pooled, sigma_floor)
        metric_term = total / len(shared)

    kinds = sorted(set(a.log_summary) | set(b.log_summary))
    log_term = 0.0
    if kinds:
        total = 0.0
        for k in kinds:
            ca = a.log_summary.get(k, 0)
            cb = b.log_summary.get(k, 0)
            total += abs(ca - cb) / max(min(ca, cb), 1)
        log_term = total / len(kinds)

    return metric_term + log_term


def node_index(g: CausalGraph) -> dict[tuple[str, str], str]:
    """Node id by (pod, operation) identity key."""
    return {g.nodes[n].key: n for n in g.nodes}


def attribute_similarity(
    g_new: CausalGraph,
    g_old: CausalGraph,
    new_index: dict | None = None,
    old_index: dict | None = None,
) -> float:
    """Mean of exp(-node_dist) over matched node keys; unmatched keys in
    either graph contribute zero to the mean.

    ``new_index`` and ``old_index`` are the graphs' ``node_index`` maps,
    for callers that keep them; they are built here when absent.
    """
    new_index = node_index(g_new) if new_index is None else new_index
    old_index = node_index(g_old) if old_index is None else old_index
    matched = new_index.keys() & old_index.keys()
    universe = len(new_index) + len(old_index) - len(matched)
    if not universe:
        return 0.0
    total = 0.0
    for key in sorted(matched):
        total += math.exp(-node_dist(g_new.nodes[new_index[key]], g_old.nodes[old_index[key]]))
    return total / universe


def _unit(cos: float) -> float:
    """Embedding cosine mapped from [-1, 1] to [0, 1]."""
    return (cos + 1.0) / 2.0


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def similarity(
    g_new: CausalGraph,
    g_old: CausalGraph,
    alpha: float = 0.5,
    dim: int = DEFAULT_DIM,
) -> float:
    """Blend of structural and attribute agreement in [0, 1], symmetric,
    equal to 1 for identical non-empty graphs."""
    cos = cosine(embed(g_new, dim).vector, embed(g_old, dim).vector)
    return blend_similarity(alpha, cos, attribute_similarity(g_new, g_old))


def blend_similarity(alpha: float, cos: float, s_attr: float) -> float:
    """``similarity`` from an embedding cosine and an attribute similarity
    the caller already holds; bit-identical to recomputing both."""
    if not (0.0 <= alpha <= 1.0):
        raise DataError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * _unit(cos) + (1.0 - alpha) * s_attr


def divergence(
    g_new: CausalGraph, g_old: CausalGraph, delta: float, old_index: dict | None = None
) -> set[str]:
    """Nodes of g_new that moved past delta or have no counterpart in g_old.

    ``old_index`` is g_old's ``node_index``, built here when absent."""
    if delta <= 0:
        raise DataError(f"delta must be > 0, got {delta}")
    old_index = node_index(g_old) if old_index is None else old_index
    out = set()
    for nid in g_new.nodes:
        attrs = g_new.nodes[nid]
        counterpart = old_index.get(attrs.key)
        if counterpart is None:
            out.add(nid)
        elif node_dist(attrs, g_old.nodes[counterpart]) > delta:
            out.add(nid)
    return out


# -- serialization -------------------------------------------------------------


def to_text(g: CausalGraph) -> str:
    """Canonical text form: header, nodes sorted by identity key, edges
    sorted by (from, to). Floats use repr so round-trips are exact."""
    lines = [f"graph\t{g.alert_id}\t{g.window[0]}\t{g.window[1]}"]
    for nid in sorted(g.nodes):
        a = g.nodes[nid]
        metrics = ",".join(
            f"{name}:{mu!r}:{sd!r}" for name, (mu, sd) in sorted(a.metric_summary.items())
        )
        logs = ",".join(f"{k}:{c}" for k, c in sorted(a.log_summary.items()))
        spans = ",".join(a.span_ids)
        lines.append(
            f"node\t{a.pod_id}\t{a.op_name}\t{a.service_id}\t{metrics}\t{logs}\t{spans}"
        )
    for (u, v) in sorted(g.edges):
        e = g.edges[(u, v)]
        lines.append(f"edge\t{u}\t{v}\t{e.call_latency}\t{e.status_code}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CausalGraph:
    """The graph ``to_text`` wrote; raises ``DataError`` for any other text."""
    try:
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or not lines[0].startswith("graph\t"):
            raise DataError("graph text must begin with a graph header line")
        _, alert_id, w_lo, w_hi = lines[0].split("\t")
        nodes: dict[str, NodeAttributes] = {}
        edges: dict[tuple[str, str], EdgeAttributes] = {}
        for ln in lines[1:]:
            parts = ln.split("\t")
            if parts[0] == "node":
                _, pod, op, service, metrics_s, logs_s, spans_s = parts
                metric_summary = {}
                if metrics_s:
                    for item in metrics_s.split(","):
                        name, mu, sd = item.rsplit(":", 2)
                        metric_summary[name] = (float(mu), float(sd))
                log_summary = {}
                if logs_s:
                    for item in logs_s.split(","):
                        k, c = item.rsplit(":", 1)
                        log_summary[k] = int(c)
                nodes[node_id_for(pod, op)] = NodeAttributes(
                    service_id=service, pod_id=pod, op_name=op,
                    metric_summary=metric_summary, log_summary=log_summary,
                    span_ids=tuple(spans_s.split(",")) if spans_s else (),
                )
            elif parts[0] == "edge":
                _, u, v, latency, status = parts
                edges[(u, v)] = EdgeAttributes(int(latency), int(status))
            else:
                raise DataError(f"unrecognized graph line kind {parts[0]!r}")
        return CausalGraph(
            alert_id=alert_id, window=(int(w_lo), int(w_hi)), nodes=nodes, edges=edges
        )
    except ValueError as exc:  # a line of the wrong field count, or a bad number
        raise DataError(f"malformed graph text: {exc}") from None
