"""Graph-keyed reasoning memory.

Each analyzed alert leaves behind an entry: the causal graph, metadata,
and the full reasoning transcript. A new alert first runs nearest-neighbor
search over the stored embeddings, then exact similarity scoring on the
shortlist, and lands in one of three bands: reuse the stored transcript
outright, resume reasoning at the nodes that diverged, or start fresh.

The memory is the one place that derives a graph's keys, and it derives
them once per alert. ``decide`` keys its query in one WL pass at the
memory's dim, as a ``Keyed`` record of the graph, its fingerprint, its
embedding and its (pod, operation) node map, and hands that record back
on the ``Decision``; ``store`` inserts an entry under it when the record
keys the entry's very graph object, and keys the graph itself otherwise.
A stored entry keeps its fingerprint, its embedding as a row of an
append-only matrix, and its node map, so a decision embeds nothing else:
the shortlist is one matrix-vector product, and exact scoring reads the
cached rows and node maps. Both keys are fixed functions of the graph, so
neither cache can change a result. ``store`` refuses only an entry whose
transcript names a node its graph lacks.

Exact scoring is pruned by a bound: a candidate's similarity is at most
its blend with an attribute similarity of one, so a shortlisted entry
whose bound falls strictly below the k-th best exact score so far cannot
enter the top k and is not scored. The blend is monotone in the attribute
similarity under IEEE rounding, and an entry tied at the bound is still
scored, so the result and its fingerprint tie-break are exact.

An entry stored with its ranking keeps it, with the topology object and
the ``ScoreWeights`` it was consolidated under (``Ranked``). A Reuse whose
remap leaves every step's stale flag as stored ranks exactly as the
stored transcript, since ``consolidate`` reads no step's node or span;
``Decision.stored_ranking`` returns the kept ranking then, under the same
topology and weights, and ``None`` otherwise. A ranking is never written
to the memory file, so an entry read from one consolidates.

A memory file is a manifest line, then one sealed record line per entry:
the sha256 hex digest of the record's canonical JSON text, a space, and
that text, which holds the entry's timestamp, alert id, graph text and
transcript. No key arrives from outside: ``_read`` checks each line's
digest, parses its text once and inserts the entry under the keys one WL
pass derives from its graph. A version-1 file, which stored the keys, is
refused at line 1. ``Memory.load`` and ``verify`` (``rootcause memory
verify``) share that reader: ``load`` raises the first problem,
``verify`` lists them all, each naming ``path:line``. A slot keeps the
line it was read from or last written as, and ``store`` keeps none, so
``persist`` serialises only the entries stored since; an entry and its
``Transcript`` are frozen, so none changes under its line.

Retrieval is an exact linear scan over the embedding matrix; at the entry
counts this engine sees (well under 1e4) an ANN index would be pure
overhead. ``Memory._nn_shortlist`` is the seam to replace if that ever
changes.

Concurrency: single writer, many readers. ``store`` and ``persist``
serialize through one lock and readers always see a complete entry,
never a partial one. A query's keys travel on its ``Decision``, never on
the shared memory. ``persist`` replaces the file atomically and syncs
it, so a crash or power loss mid-write leaves the previous file intact.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import threading
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .agents import Candidate, RootCauseRanking, ScoreWeights, Transcript, TranscriptJson
from .errors import EngineError, MemoryIntegrityError, MemoryValidationError
from .graph import (
    CausalGraph,
    Embedding,
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
from .telemetry import Topology

FORMAT_NAME = "rootcause-memory"
FORMAT_VERSION = 2


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


class Keyed(NamedTuple):
    """A graph with the keys one WL pass derives from it at a memory's dim;
    built by ``Memory``, handed from ``decide`` to ``store`` on a
    ``Decision``."""

    graph: CausalGraph
    fingerprint: str  # digest of the graph's fingerprint
    embedding: Embedding
    nodes: dict  # graph.node_index of the graph


class Ranked(NamedTuple):
    """A stored transcript's ranking and what ``consolidate`` built it under
    besides the steps."""

    ranking: tuple[Candidate, ...]
    topology: Topology
    weights: ScoreWeights


@dataclass
class Decision:
    kind: str  # "Reuse" | "Resume" | "Fresh"
    matched: MemoryEntry | None
    similarity: float
    divergent_nodes: set[str] = field(default_factory=set)
    degraded: bool = False  # Resume band collapsed to Reuse: no divergent nodes
    query: Keyed | None = field(default=None, repr=False)  # None: decided unkeyed
    ranked: Ranked | None = field(default=None, repr=False)  # the matched entry's

    def __post_init__(self):
        if self.kind not in ("Reuse", "Resume", "Fresh"):
            raise MemoryValidationError(f"unknown decision kind {self.kind!r}")

    def stored_ranking(self, remapped: Transcript, topology: Topology,
                       weights: ScoreWeights) -> RootCauseRanking | None:
        """The matched entry's kept ranking if ``consolidate`` would rank
        ``remapped``, its transcript as ``remap`` bound it to the new graph,
        the same: the ranking was built under this topology object and equal
        weights, and every step keeps its stored stale flag. ``None``
        otherwise, and for an entry stored without a ranking."""
        ranked = self.ranked
        if ranked is None or ranked.topology is not topology or ranked.weights != weights:
            return None
        stored = self.matched.transcript.steps
        if any(new.stale != old.stale for new, old in zip(remapped.steps, stored)):
            return None
        return RootCauseRanking(ranked.ranking)


class _Slot(NamedTuple):
    """A stored entry with the keys derived from its graph."""

    entry: MemoryEntry
    fingerprint: str  # digest of the graph's fingerprint
    row: int  # row of the entry's embedding in ``Memory._matrix``
    nodes: dict  # graph.node_index of the entry's graph
    ranked: Ranked | None  # the entry's ranking, if stored with one
    line: str | None  # the record line read or last written; None: serialise


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

    def _key(self, g: CausalGraph) -> Keyed:
        """``g`` keyed in one WL pass at this memory's dim."""
        f, e = graph_key(g, self.dim)
        return Keyed(g, f.digest, e, node_index(g))

    def store(self, entry: MemoryEntry, keyed: Keyed | None = None,
              ranked: Ranked | None = None) -> None:
        """Insert or replace (latest wins on identical fingerprint).

        The entry goes in under ``keyed``, the query keys a ``decide`` of
        this memory put on its ``Decision``, when they key this very graph
        object; otherwise one WL pass keys the entry's graph at this
        memory's dim. ``ranked`` is the ranking consolidated from the
        entry's transcript, kept for ``Decision.stored_ranking``."""
        if keyed is None or keyed.graph is not entry.graph \
                or keyed.embedding.vector.shape != (self.dim,):
            keyed = self._key(entry.graph)
        self._insert(entry, keyed, ranked)

    def _insert(self, entry: MemoryEntry, keyed: Keyed, ranked: Ranked | None = None,
                line: str | None = None) -> None:
        """Insert ``entry`` under ``keyed``, its graph's keys at this
        memory's dim, with ``line``, the record line it was read from;
        raises ``MemoryValidationError`` listing every step that is not
        stale yet names a node absent from the graph (a stale step keeps
        the node ``remap`` could not rebind)."""
        problems = [
            f"transcript step {step.index} references node {step.node!r} "
            "absent from the stored graph"
            for step in entry.transcript.steps
            if not step.stale and step.node not in entry.graph.nodes]
        if problems:
            raise MemoryValidationError("; ".join(problems))
        with self._lock:
            fp = keyed.fingerprint
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
            self._matrix[row] = keyed.embedding.vector
            self._slots[fp] = _Slot(entry, fp, row, keyed.nodes, ranked, line)
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

    def _scored(self, query: Keyed, k: int) -> list[tuple[_Slot, float]]:
        """The top k of the cosine shortlist of size max(4k, 32) by exact
        similarity, ties broken by fingerprint. A shortlisted entry whose
        bound, its similarity at an attribute similarity of one, is strictly
        below the k-th best exact score so far is not scored: its score is
        at most that bound, so it cannot reach the top k."""
        q = query.embedding.vector
        top: list[float] = []  # min-heap of the k best exact scores so far
        scored = []
        for slot in self._nn_shortlist(q, max(4 * k, 32)):
            # cosine() on the cached row, not the shortlist's dot product:
            # that skips the norm division and may differ in the last bit.
            cos = cosine(q, self._matrix[slot.row])
            if len(top) == k and blend_similarity(self.alpha, cos, 1.0) < top[0]:
                continue
            s_attr = attribute_similarity(query.graph, slot.entry.graph, query.nodes, slot.nodes)
            score = blend_similarity(self.alpha, cos, s_attr)
            scored.append((slot, score))
            if len(top) < k:
                heapq.heappush(top, score)
            elif score > top[0]:
                heapq.heapreplace(top, score)
        scored.sort(key=lambda pair: (-pair[1], pair[0].fingerprint))
        return scored[:k]

    def retrieve(self, g_new: CausalGraph, k: int) -> list[tuple[MemoryEntry, float]]:
        """Top-k stored entries by exact similarity.

        ``g_new`` is keyed once, at this memory's dim, unless the memory is
        empty. A cosine shortlist of size max(4k, 32) is scored exactly,
        pruned by bound, which changes no result; whenever the store fits
        inside the shortlist this equals exhaustive search.
        """
        if k < 1:
            raise MemoryValidationError(f"retrieve k must be >= 1, got {k}")
        if not self._order:
            return []
        return [(slot.entry, score) for slot, score in self._scored(self._key(g_new), k)]

    def decide(
        self, g_new: CausalGraph, tau_skip: float, tau_partial: float, delta: float
    ) -> Decision:
        """Three-way reuse decision against the best stored match, scored as
        ``retrieve`` scores k = 1. Unless the memory is empty, ``g_new`` is
        keyed once and its keys ride on the decision as ``query``, for
        ``store`` to reuse; ``ranked`` is the matched entry's kept ranking."""
        if not (0.0 <= tau_partial <= tau_skip <= 1.0):
            raise MemoryValidationError(
                f"need 0 <= tau_partial <= tau_skip <= 1, got {tau_partial}, {tau_skip}"
            )
        if not self._order:
            return Decision(kind="Fresh", matched=None, similarity=0.0)
        query = self._key(g_new)
        slot, score = self._scored(query, 1)[0]
        entry = slot.entry
        found = dict(matched=entry, similarity=score, query=query, ranked=slot.ranked)
        if score >= tau_skip:
            return Decision(kind="Reuse", **found)
        if score >= tau_partial:
            nodes = divergence(g_new, entry.graph, delta, slot.nodes)
            if not nodes:
                # In the resume band yet nothing diverges past delta:
                # degrade to reuse and record the degenerate case.
                return Decision(kind="Reuse", degraded=True, **found)
            return Decision(kind="Resume", divergent_nodes=nodes, **found)
        return Decision(kind="Fresh", **found)

    # -- persistence ----------------------------------------------------

    def persist(self, path) -> None:
        """Write a manifest plus one sealed record per entry, serialising
        only the entries stored since they were last read or written."""
        with self._lock:
            lines = [_canonical_json(dict(
                format=FORMAT_NAME, version=FORMAT_VERSION, dim=self.dim,
                alpha=self.alpha, entries=len(self._order)))]
            for fp in self._order:
                slot = self._slots[fp]
                if slot.line is None:
                    entry = slot.entry
                    slot = self._slots[fp] = slot._replace(line=_seal(dict(
                        timestamp_ms=entry.timestamp, alert_id=entry.alert_id,
                        graph=to_text(entry.graph), transcript=entry.transcript.as_dict())))
                lines.append(slot.line)
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
    return Transcript(g_new.alert_id, tuple(steps), entry.transcript.truncated)


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, sync it, rename
    it onto ``path`` and sync the directory: readers, also after a crash or
    power loss, see the old file or the new one, never a part."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _seal(value) -> str:
    """A record line: the sha256 hex digest of ``value``'s canonical JSON
    text, one space, then that text; ``_read`` splits it."""
    text = _canonical_json(value)
    return f"{hashlib.sha256(text.encode()).hexdigest()} {text}"


@dataclass(frozen=True)
class _Manifest:  # line 1 of a memory file
    format: str
    version: int
    dim: int
    alpha: float
    entries: int


@dataclass(frozen=True)
class _Record:  # the sealed text of every later line of a memory file
    timestamp_ms: int
    alert_id: str
    graph: str
    transcript: TranscriptJson


def _read(path) -> tuple[Memory | None, list[str]]:
    """The memory a file holds and every problem in it, each as
    ``path:line: message``, in file order. A bad manifest ends the read;
    every record's text is checked against its digest, read, and inserted
    under the keys its graph derives, with its line for ``persist``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise MemoryIntegrityError(f"memory file not found: {path}")
    except UnicodeDecodeError as exc:
        raise MemoryIntegrityError(f"{path}: not a UTF-8 memory file: {exc}")
    except OSError as exc:
        raise MemoryIntegrityError(f"{path}: cannot read memory file: {exc.strerror}") from None
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
            digest, _, text = raw.partition(" ")
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                raise MemoryIntegrityError("checksum mismatch in entry record")
            record = read_record(_Record, parse_json(text))
            keyed = mem._key(from_text(record.graph))
            entry = MemoryEntry(keyed.graph, (record.timestamp_ms, record.alert_id),
                                record.transcript.transcript())
            mem._insert(entry, keyed, line=raw)
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
