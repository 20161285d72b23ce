"""Graph-keyed reasoning memory.

Each analyzed alert leaves behind an entry: the causal graph, metadata,
and the full reasoning transcript. A new alert first runs nearest-neighbor
search over the stored embeddings, then exact similarity scoring on the
shortlist, and lands in one of three bands: reuse the stored transcript
outright, resume reasoning at the nodes that diverged, or start fresh.

The memory is the one place that derives a graph's keys. ``store`` keys
the entry's graph in one WL pass at the memory's dim and keeps its
fingerprint, its embedding as a row of an append-only matrix, and its
(pod, operation) node map; ``decide`` keys its query the same way, so a
decision embeds nothing else: the shortlist is one matrix-vector product,
and exact scoring reads the cached rows and node maps. Both keys are
fixed functions of the graph, so the cache cannot change a result.
``store`` refuses only an entry whose transcript names a node its graph
lacks.

A memory file has one reader, ``_read``, so ``Memory.load`` and ``verify``
(``rootcause memory verify``) refuse the same files: ``load`` raises the
first problem, ``verify`` lists them all, each naming ``path:line``. Keys
that arrive from outside the program are checked there and only there:
each record's stored fingerprint and embedding must equal the keys its
graph derives, under which the entry is then inserted.

Retrieval is an exact linear scan over the embedding matrix; at the entry
counts this engine sees (well under 1e4) an ANN index would be pure
overhead. ``Memory._nn_shortlist`` is the seam to replace if that ever
changes.

Concurrency: single writer, many readers. ``store`` and ``persist``
serialize through one lock and readers always see a complete entry,
never a partial one. ``persist`` replaces the file atomically, so a crash
mid-write leaves the previous file intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .agents import Transcript, TranscriptJson
from .errors import EngineError, MemoryIntegrityError, MemoryValidationError
from .graph import (
    CausalGraph,
    Embedding,
    Fingerprint,
    attribute_similarity,
    blend_similarity,
    cosine,
    divergence,
    from_text,
    graph_key,
    node_index,
    to_text,
)
from .records import parse_json, read_record

FORMAT_NAME = "rootcause-memory"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class MemoryEntry:
    graph: CausalGraph
    meta: tuple[int, str]  # (timestamp_ms, alert_id)
    transcript: Transcript

    @property
    def alert_id(self) -> str:
        return self.meta[1]

    @property
    def timestamp(self) -> int:
        return self.meta[0]


@dataclass
class Decision:
    kind: str  # "Reuse" | "Resume" | "Fresh"
    matched: MemoryEntry | None
    similarity: float
    divergent_nodes: set[str] = field(default_factory=set)
    degraded: bool = False  # Resume band collapsed to Reuse: no divergent nodes

    def __post_init__(self):
        if self.kind not in ("Reuse", "Resume", "Fresh"):
            raise MemoryValidationError(f"unknown decision kind {self.kind!r}")


class _Slot(NamedTuple):
    """A stored entry with the keys derived from its graph."""

    entry: MemoryEntry
    fingerprint: str  # digest of the graph's fingerprint
    row: int  # row of the entry's embedding in ``Memory._matrix``
    nodes: dict  # graph.node_index of the entry's graph


class Memory:
    """Store of analyzed alerts keyed by graph fingerprint."""

    def __init__(self, dim: int = 128, alpha: float = 0.5):
        if not isinstance(dim, int) or dim < 8:
            raise MemoryValidationError(f"memory dim must be an integer >= 8, got {dim!r}")
        if not (isinstance(alpha, (int, float)) and 0.0 <= alpha <= 1.0):
            raise MemoryValidationError(f"memory alpha must lie in [0, 1], got {alpha!r}")
        self.dim = dim
        self.alpha = alpha
        self._slots: dict[str, _Slot] = {}
        self._order: list[str] = []  # insertion order of fingerprints = matrix rows
        self._matrix = np.zeros((0, dim), dtype=np.float64)  # capacity >= len(_order)
        self._by_alert: dict[str, str] = {}
        self._lock = threading.Lock()
        self.replacements = 0

    def __len__(self) -> int:
        return len(self._slots)

    def entries(self) -> dict[str, MemoryEntry]:
        """Every stored entry by its fingerprint digest, in store order."""
        return {fp: self._slots[fp].entry for fp in self._order}

    def by_alert(self, alert_id: str) -> MemoryEntry | None:
        fp = self._by_alert.get(alert_id)
        return self._slots[fp].entry if fp else None

    def store(self, entry: MemoryEntry) -> None:
        """Insert or replace (latest wins on identical fingerprint) under the
        keys of one WL pass over the entry's graph at this memory's dim."""
        self._insert(entry, *graph_key(entry.graph, self.dim))

    def _insert(self, entry: MemoryEntry, f: Fingerprint, e: Embedding,
                problems: Sequence[str] = ()) -> None:
        """Insert ``entry`` under ``f`` and ``e``, its graph's keys at this
        memory's dim; raises ``MemoryValidationError`` listing ``problems``
        and every step that is not stale yet names a node absent from the
        graph (a stale step keeps the node ``remap`` could not rebind)."""
        problems = [*problems, *(
            f"transcript step {step.index} references node {step.node!r} "
            "absent from the stored graph"
            for step in entry.transcript.steps
            if not step.stale and step.node not in entry.graph.nodes)]
        if problems:
            raise MemoryValidationError("; ".join(problems))
        nodes = node_index(entry.graph)
        with self._lock:
            fp = f.digest
            old = self._slots.get(fp)
            if old is not None:
                self.replacements += 1
                self._by_alert.pop(old.entry.alert_id, None)
                row = old.row
            else:
                row = len(self._order)
                if row == len(self._matrix):
                    grown = np.zeros((max(2 * row, 16), self.dim), dtype=np.float64)
                    grown[:row] = self._matrix
                    self._matrix = grown
            # The row is written before the slot and the order entry that
            # make it visible, so a reader never scores a half-stored entry.
            self._matrix[row] = e.vector
            self._slots[fp] = _Slot(entry, fp, row, nodes)
            if old is None:
                self._order.append(fp)
            self._by_alert[entry.alert_id] = fp

    # -- retrieval ------------------------------------------------------

    def _nn_shortlist(self, query: np.ndarray, k_prime: int) -> list[_Slot]:
        """The k_prime entries of highest embedding cosine, ties broken by
        fingerprint: the first k_prime of all entries sorted by
        (-cosine, fingerprint)."""
        order = self._order
        n = len(order)
        if not n:
            return []
        neg = -(self._matrix[:n] @ query)  # embeddings are unit or zero norm
        if n > k_prime:
            # Every entry tied with the k_prime-th cosine stays a candidate,
            # so the fingerprint tie-break below sees all of them.
            cut = np.partition(neg, k_prime - 1)[k_prime - 1]
            candidates = np.flatnonzero(neg <= cut).tolist()
        else:
            candidates = range(n)
        ranked = sorted(candidates, key=lambda i: (neg[i], order[i]))[:k_prime]
        return [self._slots[order[i]] for i in ranked]

    def _scored(self, g_new: CausalGraph, k: int) -> list[tuple[_Slot, float]]:
        if k < 1:
            raise MemoryValidationError(f"retrieve k must be >= 1, got {k}")
        if not self._order:
            return []
        q = graph_key(g_new, self.dim)[1].vector
        q_nodes = node_index(g_new)
        k_prime = max(4 * k, 32)
        scored = []
        for slot in self._nn_shortlist(q, k_prime):
            # cosine() on the cached row, not the shortlist's dot product:
            # that skips the norm division and may differ in the last bit.
            s_attr = attribute_similarity(g_new, slot.entry.graph, q_nodes, slot.nodes)
            cos = cosine(q, self._matrix[slot.row])
            scored.append((slot, blend_similarity(self.alpha, cos, s_attr)))
        scored.sort(key=lambda pair: (-pair[1], pair[0].fingerprint))
        return scored[:k]

    def retrieve(self, g_new: CausalGraph, k: int) -> list[tuple[MemoryEntry, float]]:
        """Top-k stored entries by exact similarity.

        ``g_new`` is keyed once, at this memory's dim, unless the memory is
        empty. A cosine shortlist of size max(4k, 32) is scored exactly;
        whenever the store fits inside the shortlist this equals exhaustive
        search.
        """
        return [(slot.entry, score) for slot, score in self._scored(g_new, k)]

    def decide(
        self, g_new: CausalGraph, tau_skip: float, tau_partial: float, delta: float
    ) -> Decision:
        """Three-way reuse decision against the best stored match; keys
        ``g_new`` as ``retrieve`` does."""
        if not (0.0 <= tau_partial <= tau_skip <= 1.0):
            raise MemoryValidationError(
                f"need 0 <= tau_partial <= tau_skip <= 1, got {tau_partial}, {tau_skip}"
            )
        best = self._scored(g_new, 1)
        if not best:
            return Decision(kind="Fresh", matched=None, similarity=0.0)
        slot, score = best[0]
        entry = slot.entry
        if score >= tau_skip:
            return Decision(kind="Reuse", matched=entry, similarity=score)
        if score >= tau_partial:
            nodes = divergence(g_new, entry.graph, delta, slot.nodes)
            if not nodes:
                # In the resume band yet nothing diverges past delta:
                # degrade to reuse and record the degenerate case.
                return Decision(kind="Reuse", matched=entry, similarity=score, degraded=True)
            return Decision(kind="Resume", matched=entry, similarity=score, divergent_nodes=nodes)
        return Decision(kind="Fresh", matched=entry, similarity=score)

    # -- persistence ----------------------------------------------------

    def persist(self, path) -> None:
        """Write a manifest plus one checksummed record per entry."""
        with self._lock:
            lines = [_canonical_json({
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "dim": self.dim,
                "alpha": self.alpha,
                "entries": len(self._order),
            })]
            for fp in self._order:
                entry, _, row, _ = self._slots[fp]
                body = {
                    "fingerprint": fp,
                    "timestamp_ms": entry.timestamp,
                    "alert_id": entry.alert_id,
                    "embedding": [float(x) for x in self._matrix[row]],
                    "graph": to_text(entry.graph),
                    "transcript": entry.transcript.as_dict(),
                }
                body["checksum"] = _checksum(body)
                lines.append(_canonical_json(body))
        _write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Memory":
        """Read a persisted memory; raises its first problem, naming
        ``path:line``, as a ``MemoryIntegrityError``."""
        mem, problems = _read(path)
        if problems:
            raise MemoryIntegrityError(problems[0])
        return mem


def verify(path) -> list[str]:
    """Every problem that makes ``Memory.load`` refuse the file, in file
    order; empty when the file loads."""
    return _read(path)[1]


def remap(entry: MemoryEntry, g_new: CausalGraph) -> Transcript:
    """Re-bind a stored transcript onto a new alert's graph.

    Steps are matched through the (pod, operation) identity key; a step
    whose node has no counterpart in the new graph is marked stale and
    will be excluded from consolidation.
    """
    new_keys = {g_new.nodes[n].key: n for n in g_new.nodes}
    steps = []
    for step in entry.transcript.steps:
        old_attrs = entry.graph.nodes.get(step.node)
        key = old_attrs.key if old_attrs else None
        target = new_keys.get(key) if key else None
        if target is None:
            steps.append(replace(step, stale=True))
        else:
            span_ids = g_new.nodes[target].span_ids
            steps.append(replace(
                step,
                node=target,
                span=span_ids[0] if span_ids else step.span,
                stale=False,
            ))
    return Transcript(g_new.alert_id, steps, entry.transcript.truncated)


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    onto ``path``: readers see the old file or the new one, never a part."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(body: dict) -> str:
    return hashlib.sha256(_canonical_json(body).encode()).hexdigest()


@dataclass(frozen=True)
class _Manifest:  # line 1 of a memory file
    format: str
    version: int
    dim: int
    alpha: float
    entries: int


@dataclass(frozen=True)
class _Record:  # every later line of a memory file, less its checksum
    fingerprint: str
    timestamp_ms: int
    alert_id: str
    embedding: list[float]
    graph: str
    transcript: TranscriptJson


def _read(path) -> tuple[Memory | None, list[str]]:
    """The memory a file holds and every problem in it, each as
    ``path:line: message``, in file order. A bad manifest ends the read;
    every record is read, its stored keys checked against the keys its
    graph derives, and the entry inserted under those."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise MemoryIntegrityError(f"memory file not found: {path}")
    except UnicodeDecodeError as exc:
        raise MemoryIntegrityError(f"{path}: not a UTF-8 memory file: {exc}")
    try:
        mem, declared = _read_manifest(lines)
    except EngineError as exc:
        return None, [f"{path}:1: {exc}"]
    problems = []
    if len(lines) - 1 != declared:
        problems.append(
            f"{path}:1: truncated, manifest declares {declared} entries "
            f"but found {len(lines) - 1}"
        )
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            body = parse_json(raw)
            # A body that is no JSON object has no checksum; read_record refuses it.
            if isinstance(body, dict) and body.pop("checksum", None) != _checksum(body):
                problems.append(f"{path}:{lineno}: checksum mismatch in entry record")
                continue
            record = read_record(_Record, body)
            graph = from_text(record.graph)
            f, e = graph_key(graph, mem.dim)
            stored = np.asarray(record.embedding)
            mismatch = []
            if record.fingerprint != f.digest:
                mismatch.append(f"fingerprint {record.fingerprint[:12]} does not match "
                                f"its graph (expected {f.digest[:12]})")
            if stored.shape != (mem.dim,):
                mismatch.append(f"embedding has shape {stored.shape}, memory dim is {mem.dim}")
            elif not np.allclose(stored, e.vector, atol=1e-12):
                mismatch.append("embedding does not match its graph")
            entry = MemoryEntry(graph, (record.timestamp_ms, record.alert_id),
                                record.transcript.transcript())
            mem._insert(entry, f, e, mismatch)
        except EngineError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
    mem.replacements = 0
    return mem, problems


def _read_manifest(lines: list[str]) -> tuple[Memory, int]:
    """An empty memory of the manifest's dim and alpha, and the entry
    count it declares; raises an ``EngineError`` for a bad manifest."""
    if not lines:
        raise MemoryIntegrityError("empty memory file")
    manifest = parse_json(lines[0])
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise MemoryIntegrityError("not a memory file")
    manifest = read_record(_Manifest, manifest)
    if manifest.version != FORMAT_VERSION:
        raise MemoryIntegrityError(f"unsupported version {manifest.version}")
    return Memory(dim=manifest.dim, alpha=manifest.alpha), manifest.entries
