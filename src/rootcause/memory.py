"""Graph-keyed reasoning memory.

Each analyzed alert leaves behind an entry: the causal graph, its
canonical fingerprint, its retrieval embedding, metadata, and the full
reasoning transcript. A new alert first runs nearest-neighbor search over
the stored embeddings, then exact similarity scoring on the shortlist,
and lands in one of three bands: reuse the stored transcript outright,
resume reasoning at the nodes that diverged, or start fresh.

A valid entry has one definition, ``_check_entry``: one WL pass
re-derives the entry's keys from its graph, and ``store`` refuses an
entry that disagrees with them. ``store`` keeps the re-derived vector as
a row of an append-only embedding matrix, beside the graph's (pod,
operation) node map. A query brings its own embedding (``analyze_alert``
keys its graph once, at the memory's dim), so a decision embeds nothing:
the shortlist is one matrix-vector product, and exact scoring reads the
cached rows and node maps. Both keys are fixed functions of the graph, so
the cache cannot change a result.

A memory file has one reader, ``_read``, so ``Memory.load`` and ``verify``
(``rootcause memory verify``) refuse the same files: ``load`` raises the
first problem, ``verify`` lists them all, each naming ``path:line``.

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
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .agents import Transcript
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

FORMAT_NAME = "rootcause-memory"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class MemoryEntry:
    f: Fingerprint
    e: Embedding
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
    """A stored entry with the keys derived from its graph in ``store``."""

    entry: MemoryEntry
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

    def entries(self) -> list[MemoryEntry]:
        return [self._slots[fp].entry for fp in self._order]

    def by_alert(self, alert_id: str) -> MemoryEntry | None:
        fp = self._by_alert.get(alert_id)
        return self._slots[fp].entry if fp else None

    def store(self, entry: MemoryEntry) -> None:
        """Insert or replace (latest wins on identical fingerprint); raises
        ``MemoryValidationError`` listing every problem ``_check_entry`` finds."""
        expected_e, problems = _check_entry(entry, self.dim)
        if problems:
            raise MemoryValidationError("; ".join(problems))
        nodes = node_index(entry.graph)
        with self._lock:
            fp = entry.f.digest
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
            self._matrix[row] = expected_e.vector
            self._slots[fp] = _Slot(entry, row, nodes)
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

    def _scored(
        self, g_new: CausalGraph, k: int, query: Embedding | None
    ) -> list[tuple[_Slot, float]]:
        if k < 1:
            raise MemoryValidationError(f"retrieve k must be >= 1, got {k}")
        if not self._order:
            return []
        if query is None:
            query = graph_key(g_new, self.dim)[1]
        q = query.vector
        if q.shape != (self.dim,):
            raise MemoryValidationError(
                f"query embedding has shape {q.shape}, memory dim is {self.dim}"
            )
        q_nodes = node_index(g_new)
        k_prime = max(4 * k, 32)
        scored = []
        for slot in self._nn_shortlist(q, k_prime):
            # cosine() on the cached row, not the shortlist's dot product:
            # that skips the norm division and may differ in the last bit.
            s_attr = attribute_similarity(g_new, slot.entry.graph, q_nodes, slot.nodes)
            cos = cosine(q, self._matrix[slot.row])
            scored.append((slot, blend_similarity(self.alpha, cos, s_attr)))
        scored.sort(key=lambda pair: (-pair[1], pair[0].entry.f.digest))
        return scored[:k]

    def retrieve(
        self, g_new: CausalGraph, k: int, query: Embedding | None = None
    ) -> list[tuple[MemoryEntry, float]]:
        """Top-k stored entries by exact similarity.

        A cosine shortlist of size max(4k, 32) is scored exactly; whenever
        the store fits inside the shortlist this equals exhaustive search.
        ``query`` is ``g_new``'s embedding at this memory's dim, computed
        here when absent.
        """
        return [(slot.entry, score) for slot, score in self._scored(g_new, k, query)]

    def decide(
        self,
        g_new: CausalGraph,
        tau_skip: float,
        tau_partial: float,
        delta: float,
        query: Embedding | None = None,
    ) -> Decision:
        """Three-way reuse decision against the best stored match.

        ``query`` is ``g_new``'s embedding at this memory's dim, computed
        here when absent."""
        if not (0.0 <= tau_partial <= tau_skip <= 1.0):
            raise MemoryValidationError(
                f"need 0 <= tau_partial <= tau_skip <= 1, got {tau_partial}, {tau_skip}"
            )
        best = self._scored(g_new, 1, query)
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
                entry = self._slots[fp].entry
                body = {
                    "fingerprint": entry.f.digest,
                    "timestamp_ms": entry.timestamp,
                    "alert_id": entry.alert_id,
                    "embedding": [float(x) for x in entry.e.vector],
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


def _check_entry(entry: MemoryEntry, dim: int) -> tuple[Embedding, list[str]]:
    """Re-derive the entry's keys at ``dim`` in one WL pass; return the
    embedding and every way the entry disagrees with its graph. A stale
    step may name a node the graph lacks: ``remap`` keeps its old node."""
    f, e = graph_key(entry.graph, dim)
    problems = []
    if entry.f.digest != f.digest:
        problems.append(
            f"fingerprint {entry.f.digest[:12]} does not match its graph "
            f"(expected {f.digest[:12]})"
        )
    if entry.e.vector.shape != (dim,):
        problems.append(f"embedding has shape {entry.e.vector.shape}, memory dim is {dim}")
    elif not np.allclose(entry.e.vector, e.vector, atol=1e-12):
        problems.append("embedding does not match its graph")
    for step in entry.transcript.steps:
        if not step.stale and step.node not in entry.graph.nodes:
            problems.append(
                f"transcript step {step.index} references node {step.node!r} "
                "absent from the stored graph"
            )
    return e, problems


def _read(path) -> tuple[Memory | None, list[str]]:
    """The memory a file holds and every problem in it, each as
    ``path:line: message``, in file order. A bad manifest ends the read;
    every record is parsed, then ``store``d."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise MemoryIntegrityError(f"memory file not found: {path}")
    except UnicodeDecodeError as exc:
        raise MemoryIntegrityError(f"{path}: not a UTF-8 memory file: {exc}")
    try:
        mem, declared = _read_manifest(path, lines)
    except MemoryIntegrityError as exc:
        return None, [str(exc)]
    problems = []
    if len(lines) - 1 != declared:
        problems.append(
            f"{path}:1: truncated, manifest declares {declared} entries "
            f"but found {len(lines) - 1}"
        )
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            body = json.loads(raw)
            if body.pop("checksum", None) != _checksum(body):
                problems.append(f"{path}:{lineno}: checksum mismatch in entry record")
                continue
            mem.store(MemoryEntry(
                f=Fingerprint(body["fingerprint"]),
                e=Embedding(np.asarray(body["embedding"], dtype=np.float64)),
                graph=from_text(body["graph"]),
                meta=(body["timestamp_ms"], body["alert_id"]),
                transcript=Transcript.from_dict(body["transcript"]),
            ))
        except EngineError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
        except KeyError as exc:
            problems.append(f"{path}:{lineno}: record lacks key {exc}")
        except (AttributeError, TypeError, ValueError) as exc:
            problems.append(f"{path}:{lineno}: corrupt record: {exc}")
    mem.replacements = 0
    return mem, problems


def _read_manifest(path, lines: list[str]) -> tuple[Memory, object]:
    """An empty memory of the manifest's dim and alpha, and the entry
    count it declares; raises ``MemoryIntegrityError`` naming line 1."""
    if not lines:
        raise MemoryIntegrityError(f"{path}:1: empty memory file")
    try:
        manifest = json.loads(lines[0])
    except ValueError as exc:
        raise MemoryIntegrityError(f"{path}:1: corrupt manifest: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise MemoryIntegrityError(f"{path}:1: not a memory file")
    if manifest.get("version") != FORMAT_VERSION:
        raise MemoryIntegrityError(f"{path}:1: unsupported version {manifest.get('version')}")
    try:
        mem = Memory(dim=manifest.get("dim"), alpha=manifest.get("alpha"))
    except MemoryValidationError as exc:
        raise MemoryIntegrityError(f"{path}:1: {exc}") from None
    return mem, manifest.get("entries", 0)
