import dataclasses
import json
import os
import random
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootcause import graph as graph_module
from rootcause import memory
from rootcause.agents import VERDICTS, ChildCall, MetricAnomaly
from rootcause.cli import main
from rootcause.errors import EngineError, MemoryIntegrityError, MemoryValidationError
from rootcause.graph import (
    CausalGraph,
    EdgeAttributes,
    NodeAttributes,
    divergence,
    node_id_for,
    similarity,
)
from rootcause.memory import Decision, Memory, MemoryEntry, _seal, remap, verify
from rootcause.reasoner import Step, Transcript
from rootcause.telemetry import LogEntry

from .conftest import T0

DIM = 64


def build_graph(labels, metrics=None, alert_id="g", edges="chain"):
    """Graph with one node per label; chain edges by default."""
    nodes = {}
    for lbl in labels:
        nid = node_id_for(lbl, f"{lbl}/op")
        nodes[nid] = NodeAttributes(
            service_id=lbl.split("-")[0],
            pod_id=lbl,
            op_name=f"{lbl}/op",
            metric_summary=(metrics or {}).get(lbl, {"m": (10.0, 2.0)}),
            log_summary={},
            span_ids=(f"sp-{lbl}",),
        )
    edge_map = {}
    ids = sorted(nodes)
    if edges == "chain":
        for a, b in zip(ids, ids[1:]):
            edge_map[(a, b)] = EdgeAttributes(1, 0)
    return CausalGraph(alert_id=alert_id, window=(0, 1), nodes=nodes, edges=edge_map)


def make_step(index, graph, node_id, verdict="Suspect", stage="Initial"):
    attrs = graph.nodes[node_id]
    return Step(
        index=index, stage=stage, node=node_id,
        span=attrs.span_ids[0] if attrs.span_ids else f"sp-{index}",
        pod=attrs.pod_id, op=attrs.op_name, span_status=0, span_start=T0,
        instruction="inspect", trace_evidence=(), log_evidence=(),
        metric_evidence=(), verdict=verdict,
    )


def make_entry(graph, alert_id=None, ts=T0, steps=None):
    aid = alert_id or graph.alert_id
    node_ids = sorted(graph.nodes)
    transcript = Transcript(
        alert_id=aid,
        steps=tuple(steps) if steps is not None else tuple(
            make_step(i, graph, nid) for i, nid in enumerate(node_ids)
        ),
    )
    return MemoryEntry(graph=graph, meta=(ts, aid), transcript=transcript)


# -- store ---------------------------------------------------------------------


def test_store_into_empty_memory():
    mem = Memory(dim=DIM)
    mem.store(make_entry(build_graph(["a-0", "b-0"])))
    assert len(mem) == 1


def test_identical_fingerprint_replaces_latest_wins():
    mem = Memory(dim=DIM)
    g = build_graph(["a-0", "b-0"])
    first = make_entry(g, alert_id="first")
    second = make_entry(g, alert_id="second", ts=T0 + 5)
    mem.store(first)
    mem.store(second)
    assert len(mem) == 1
    assert mem.replacements == 1
    assert [e.alert_id for e in mem.entries().values()] == ["second"]
    assert mem.by_alert("second") is not None
    assert mem.by_alert("first") is None


def test_store_100_distinct_all_retrievable_by_alert_id():
    mem = Memory(dim=DIM)
    for i in range(100):
        g = build_graph([f"p{i}-{j}" for j in range(1 + i % 4)], alert_id=f"a{i}")
        mem.store(make_entry(g))
    assert len(mem) == 100
    assert all(mem.by_alert(f"a{i}") is not None for i in range(100))


def test_by_alert_finds_an_alert_whose_first_entry_was_replaced():
    mem = Memory(dim=DIM)
    g1, g2 = build_graph(["a-0", "b-0"]), build_graph(["c-0", "d-0"])
    mem.store(make_entry(g1, alert_id="A"))
    mem.store(make_entry(g2, alert_id="A", ts=T0 + 1))
    mem.store(make_entry(g1, alert_id="B", ts=T0 + 2))  # replaces A's first entry
    assert [e.alert_id for e in mem.entries().values()] == ["B", "A"]
    assert mem.by_alert("A").graph is g2
    assert mem.by_alert("B").graph is g1
    assert mem.by_alert("C") is None


def test_store_rejects_dangling_transcript_node():
    mem = Memory(dim=DIM)
    g = build_graph(["a-0", "b-0"])
    other = build_graph(["z-9"])
    bad_steps = [make_step(0, other, sorted(other.nodes)[0])]
    entry = make_entry(g, steps=bad_steps)
    with pytest.raises(MemoryValidationError, match="absent"):
        mem.store(entry)


def test_store_accepts_remapped_stale_steps_and_the_file_verifies(tmp_path, capsys):
    old = build_graph(["a-0", "b-0", "c-0"], alert_id="old")
    new = build_graph(["a-0", "c-0"], alert_id="new")
    transcript = remap(make_entry(old), new)
    gone = node_id_for("b-0", "b-0/op")
    assert [s.node for s in transcript.steps if s.stale] == [gone]  # remap keeps the old id
    entry = make_entry(new, steps=transcript.steps)

    mem = Memory(dim=DIM)
    mem.store(entry)
    assert mem.by_alert("new") is entry
    assert mem.decide(new, 0.98, 0.8, 1.0).matched is entry

    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    assert Memory.load(path).by_alert("new").transcript.steps == transcript.steps
    assert main(["--memory", str(path), "memory", "verify"]) == 0
    assert "verified" in capsys.readouterr().out


# -- retrieval: decide's match ---------------------------------------------------


def test_retrieve_self_is_rank_one():
    mem = Memory(dim=DIM)
    graphs = [build_graph([f"p{i}-{j}" for j in range(1 + i % 4)], alert_id=f"a{i}")
              for i in range(40)]
    for g in graphs:
        mem.store(make_entry(g))
    for g in graphs:
        d = mem.decide(g, 0.98, 0.8, 1.0)
        assert d.kind == "Reuse" and d.matched.graph is g
        assert d.similarity == pytest.approx(1.0, abs=1e-9)


def test_retrieve_empty_memory(monkeypatch):
    passes = []
    real_rounds = graph_module._wl_label_rounds
    monkeypatch.setattr(graph_module, "_wl_label_rounds",
                        lambda g: passes.append(g) or real_rounds(g))
    d = Memory(dim=DIM).decide(build_graph(["a-0"]), 0.98, 0.8, 1.0)
    assert (d.kind, d.matched, d.similarity, d.query) == ("Fresh", None, 0.0, None)
    assert passes == []  # an empty memory keys no query


def test_retrieve_matches_exhaustive_oracle():
    # 50 entries, more than the shortlist: the oracle scores every one.
    rng = random.Random(17)
    mem = Memory(dim=DIM)
    for i in range(50):
        labels = [f"s{rng.randrange(8)}-{j}" for j in range(rng.randrange(1, 5))]
        metrics = {l: {"m": (rng.uniform(0, 40), rng.uniform(0.5, 4))} for l in labels}
        mem.store(make_entry(build_graph(sorted(set(labels)), metrics=metrics,
                                         alert_id=f"a{i}")))
    assert len(mem) > memory.SHORTLIST

    query = build_graph(["s1-0", "s2-1", "s3-2"], alert_id="query")
    got = mem.decide(query, 0.98, 0.8, 1.0)

    brute = [(fp, e, similarity(query, e.graph, mem.alpha, DIM))
             for fp, e in mem.entries().items()]
    _, want, score = min(brute, key=lambda row: (-row[2], row[0]))
    assert (got.matched, round(got.similarity, 12)) == (want, round(score, 12))
    band = "Reuse" if score >= 0.98 else "Fresh" if score < 0.8 else "Resume"
    assert got.kind == band or (band, got.kind, got.degraded) == ("Resume", "Reuse", True)


# -- decide ----------------------------------------------------------------------


def test_decide_reuse_on_identical():
    mem = Memory(dim=DIM)
    g = build_graph(["a-0", "b-0"])
    mem.store(make_entry(g))
    d = mem.decide(g, tau_skip=0.95, tau_partial=0.8, delta=1.0)
    assert d.kind == "Reuse"
    assert d.similarity == pytest.approx(1.0, abs=1e-9)
    assert not d.degraded


def test_decide_empty_memory_is_fresh():
    mem = Memory(dim=DIM)
    d = mem.decide(build_graph(["a-0"]), 0.98, 0.8, 1.0)
    assert d.kind == "Fresh" and d.matched is None


def test_decide_resume_flags_exactly_the_perturbed_node():
    mem = Memory(dim=DIM, alpha=0.5)
    labels = ["a-0", "b-0", "c-0", "d-0"]
    sigma = 2.0
    base_metrics = {l: {"m": (10.0, sigma)} for l in labels}
    g_old = build_graph(labels, metrics=base_metrics, alert_id="old")
    mem.store(make_entry(g_old))

    # shift one node's mean by 2 pooled sigma: dist 2 > delta, and
    # S = 0.5 + 0.5 * ((N-1) + e^-2)/N lands inside [0.8, 0.98)
    perturbed = dict(base_metrics)
    perturbed["b-0"] = {"m": (10.0 + 2 * sigma, sigma)}
    g_new = build_graph(labels, metrics=perturbed, alert_id="new")

    d = mem.decide(g_new, tau_skip=0.98, tau_partial=0.80, delta=1.0)
    assert d.kind == "Resume"
    assert d.divergent_nodes == {node_id_for("b-0", "b-0/op")}
    assert 0.80 <= d.similarity < 0.98


def test_decide_degrades_to_reuse_when_band_has_no_divergence():
    # Many small shifts can pull S below tau_skip while no single node
    # crosses delta; that degenerate resume collapses to reuse.
    mem = Memory(dim=DIM, alpha=0.0)  # attribute-only similarity for control
    labels = [f"x{i}-0" for i in range(4)]
    sigma = 1.0
    g_old = build_graph(labels, metrics={l: {"m": (5.0, sigma)} for l in labels})
    mem.store(make_entry(g_old))
    g_new = build_graph(
        labels, metrics={l: {"m": (5.0 + 0.4 * sigma, sigma)} for l in labels},
        alert_id="new",
    )
    d = mem.decide(g_new, tau_skip=0.98, tau_partial=0.30, delta=1.0)
    assert d.kind == "Reuse" and d.degraded
    assert d.similarity < 0.98


def test_decide_bands_cover_and_exclude():
    mem = Memory(dim=DIM)
    g_old = build_graph(["a-0", "b-0"])
    mem.store(make_entry(g_old))
    g_far = build_graph(["z-1", "w-2", "q-3"], alert_id="far")
    d = mem.decide(g_far, 0.98, 0.8, 1.0)
    assert d.kind == "Fresh" and d.similarity < 0.8


def test_raising_tau_skip_never_turns_fresh_into_reuse():
    mem = Memory(dim=DIM)
    g_old = build_graph(["a-0", "b-0", "c-0"])
    mem.store(make_entry(g_old))
    g_new = build_graph(["a-0", "b-0", "x-9"], alert_id="new")
    kinds = []
    for tau_skip in (0.5, 0.7, 0.9, 0.98, 1.0):
        tau_partial = min(0.4, tau_skip)
        kinds.append(mem.decide(g_new, tau_skip, tau_partial, 1.0).kind)
    # once the decision leaves Reuse while tau_skip rises it never returns
    seen_non_reuse = False
    for kind in kinds:
        if kind != "Reuse":
            seen_non_reuse = True
        else:
            assert not seen_non_reuse


# -- remap -----------------------------------------------------------------------


def test_remap_identical_graph_zero_stale():
    g = build_graph(["a-0", "b-0", "c-0"])
    entry = make_entry(g)
    out = remap(entry, g)
    assert all(not s.stale for s in out.steps)


def test_remap_missing_node_marks_its_steps_stale():
    g = build_graph(["a-0", "b-0", "c-0"])
    target = node_id_for("b-0", "b-0/op")
    steps = [
        make_step(0, g, target),
        make_step(1, g, target),
        make_step(2, g, node_id_for("a-0", "a-0/op")),
    ]
    entry = make_entry(g, steps=steps)
    g_small = build_graph(["a-0", "c-0"], alert_id="new")
    out = remap(entry, g_small)
    assert [s.stale for s in out.steps] == [True, True, False]


def test_remap_stale_count_matches_set_difference_oracle():
    rng = random.Random(29)
    labels = [f"n{i}-0" for i in range(8)]
    g = build_graph(labels)
    node_ids = sorted(g.nodes)
    steps = [make_step(i, g, rng.choice(node_ids)) for i in range(20)]
    entry = make_entry(g, steps=steps)

    kept = [l for l in labels if rng.random() < 0.6]
    g_sub = build_graph(kept or labels[:1], alert_id="sub")
    out = remap(entry, g_sub)

    removed_nodes = set(node_ids) - set(g_sub.nodes)
    expected_stale = sum(1 for s in steps if s.node in removed_nodes)
    assert sum(1 for s in out.steps if s.stale) == expected_stale


# -- node and edge order ----------------------------------------------------------

POD_POOL = [f"s{i}-{j}" for i in range(4) for j in range(2)]


@st.composite
def tree_graphs(draw, alert_id):
    """A tree over 1-6 pods of ``POD_POOL``, each pod's metric mean drawn
    from a few values so that matches land in every band."""
    pods = draw(st.lists(st.sampled_from(POD_POOL), min_size=1, max_size=6, unique=True))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, len(pods))]
    means = {p: {"m": (draw(st.sampled_from([10.0, 10.5, 14.0])), 2.0)} for p in pods}
    graph = build_graph(pods, metrics=means, alert_id=alert_id, edges="none")
    ids = [node_id_for(p, f"{p}/op") for p in pods]
    edges = {(ids[parent], ids[i]): EdgeAttributes(1, 0) for i, parent in enumerate(parents, 1)}
    return CausalGraph(alert_id, graph.window, graph.nodes, edges)


def _permuted(g, rng):
    """``g`` with its nodes and edges inserted in a shuffled order."""
    nodes, edges = list(g.nodes.items()), list(g.edges.items())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return CausalGraph(g.alert_id, g.window, dict(nodes), dict(edges))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.integers(1, 8).flatmap(
           lambda n: st.tuples(*(tree_graphs(f"a{i}") for i in range(n)))),
       tree_graphs("query"), st.randoms(use_true_random=False))
def test_decide_divergence_and_remap_ignore_node_and_edge_order(stored, query, rng):
    permuted = [_permuted(g, rng) for g in stored]
    memories = []
    for graphs in (stored, permuted):
        mem = Memory(dim=DIM)
        for g in graphs:
            mem.store(make_entry(g))
        memories.append(mem)
    query_p = _permuted(query, rng)
    a = memories[0].decide(query, 0.98, 0.5, 1.0)
    b = memories[1].decide(query_p, 0.98, 0.5, 1.0)
    assert (b.kind, b.matched.alert_id, b.similarity, b.divergent_nodes, b.degraded) == \
        (a.kind, a.matched.alert_id, a.similarity, a.divergent_nodes, a.degraded)
    assert b.query.fingerprint == a.query.fingerprint
    assert remap(b.matched, query_p) == remap(a.matched, query)
    for g, g_p in zip(stored, permuted):
        assert divergence(query_p, g_p, 1.0) == divergence(query, g, 1.0)


# -- persistence ------------------------------------------------------------------


def evidenced_step(index, graph, node_id, rng):
    """A step holding every kind of evidence, with a random verdict and flags."""
    pod = graph.nodes[node_id].pod_id
    return dataclasses.replace(
        make_step(index, graph, node_id, verdict=rng.choice(VERDICTS)),
        trace_evidence=(ChildCall(T0 + index, f"c{index}", "svc", "svc/op", 12, 13),),
        log_evidence=(LogEntry(T0 + 5, pod, "ERROR", "app", f"timeout {index}"),),
        metric_evidence=(MetricAnomaly(
            pod, "cpu", ((T0, 1.5), (T0 + 1, 9.25)), (1.0, 0.5), 16.5, T0 + 1,
        ),),
        errored=rng.random() < 0.3,
        stale=rng.random() < 0.3,
    )


def test_persist_load_round_trip_byte_identical(tmp_path):
    mem = Memory(dim=DIM)
    rng = random.Random(31)
    for i in range(20):
        labels = sorted({f"s{rng.randrange(9)}-{j}" for j in range(rng.randrange(1, 4))})
        g = build_graph(labels, alert_id=f"a{i}")
        steps = [evidenced_step(j, g, nid, rng) for j, nid in enumerate(sorted(g.nodes))]
        mem.store(make_entry(g, steps=steps if i % 2 else None))
    stored = [e.transcript for e in mem.entries().values()]
    assert any(s.stale for t in stored for s in t.steps)
    assert any(s.errored for t in stored for s in t.steps)
    p1 = tmp_path / "mem1.jsonl"
    p2 = tmp_path / "mem2.jsonl"
    mem.persist(p1)
    loaded = Memory.load(p1)
    # A loaded entry keeps its line, so re-persisting ``loaded`` proves
    # little: store each loaded entry into a fresh memory, which serialises
    # it, and compare those bytes.
    again = Memory(dim=DIM)
    for entry in loaded.entries().values():
        again.store(entry)
    again.persist(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded.persist(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(loaded) == len(mem)
    assert [e.transcript for e in loaded.entries().values()] == stored


def _count_serialised(monkeypatch):
    """The ``to_text`` calls ``persist`` makes, one per record it serialises."""
    calls = []
    real = memory.to_text

    def counted(g):
        calls.append(g.alert_id)
        return real(g)

    monkeypatch.setattr(memory, "to_text", counted)
    return calls


def test_persist_serialises_only_the_entries_stored_since_load(tmp_path, monkeypatch):
    mem = Memory(dim=DIM)
    for i in range(20):
        mem.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    loaded = Memory.load(path)
    for i in range(20, 23):
        loaded.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))
    calls = _count_serialised(monkeypatch)
    loaded.persist(path)
    assert calls == ["a20", "a21", "a22"]
    loaded.persist(path)
    assert calls == ["a20", "a21", "a22"]  # every line is kept once written
    assert [e.alert_id for e in Memory.load(path).entries().values()] == \
        [f"a{i}" for i in range(23)]


def test_a_loaded_entry_replaced_by_store_is_serialised_again(tmp_path, monkeypatch):
    mem = Memory(dim=DIM)
    for i in range(3):
        mem.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    loaded = Memory.load(path)
    g = loaded.by_alert("a1").graph
    loaded.store(make_entry(g, alert_id="replaced", ts=T0 + 9))
    calls = _count_serialised(monkeypatch)
    loaded.persist(path)
    assert len(calls) == 1
    again = Memory.load(path)
    assert [e.alert_id for e in again.entries().values()] == ["a0", "replaced", "a2"]
    assert again.by_alert("replaced").timestamp == T0 + 9


def test_persist_syncs_the_new_file_before_it_replaces_the_old(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    mem = Memory(dim=DIM)
    mem.store(make_entry(build_graph(["a-0", "b-0"])))
    mem.persist(tmp_path / "mem.jsonl")
    assert events == ["fsync file", "replace", "fsync dir"]
    assert len(Memory.load(tmp_path / "mem.jsonl")) == 1


def test_persist_load_retrieve_parity(tmp_path):
    mem = Memory(dim=DIM)
    rng = random.Random(37)
    for i in range(25):
        labels = sorted({f"s{rng.randrange(7)}-{j}" for j in range(rng.randrange(1, 4))})
        mem.store(make_entry(build_graph(labels, alert_id=f"a{i}")))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    loaded = Memory.load(path)
    queries = [build_graph(["s1-0", "s2-1"], alert_id="q")] + [
        build_graph(sorted({f"s{rng.randrange(7)}-{j}" for j in range(rng.randrange(1, 4))}),
                    alert_id=f"q{i}") for i in range(8)]
    kinds = set()
    for query in queries:
        before, after = (m.decide(query, 0.98, 0.8, 1.0) for m in (mem, loaded))
        assert (after.kind, after.matched.alert_id, after.similarity,
                after.divergent_nodes, after.query.fingerprint) == \
            (before.kind, before.matched.alert_id, before.similarity,
             before.divergent_nodes, before.query.fingerprint)
        kinds.add(before.kind)
    assert len(kinds) > 1


def test_persist_failing_mid_write_keeps_the_old_file(tmp_path, monkeypatch):
    import builtins

    from rootcause import memory as memory_module

    mem = Memory(dim=DIM)
    for i in range(3):
        mem.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    before = path.read_bytes()
    for i in range(3, 6):
        mem.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))

    class HalfWriter:
        """File wrapper whose write stores half the text, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode or "x" in mode else fh

    monkeypatch.setattr(memory_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        mem.persist(path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert len(Memory.load(path)) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["mem.jsonl"]  # no stray temp file


def test_load_truncated_file_is_integrity_error(tmp_path):
    mem = Memory(dim=DIM)
    for i in range(3):
        mem.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(MemoryIntegrityError, match="truncated"):
        Memory.load(path)


def test_load_corrupted_record_names_line(tmp_path):
    mem = Memory(dim=DIM)
    mem.store(make_entry(build_graph(["a-0", "b-0"])))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"alert_id":"g"', '"alert_id":"tampered"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MemoryIntegrityError, match=":2"):
        Memory.load(path)


@pytest.mark.parametrize("dim, alpha", [(4, 0.5), (64, 7.0), (64, -0.1), (64, float("nan"))])
def test_memory_refuses_a_bad_dim_or_alpha(dim, alpha):
    with pytest.raises(MemoryValidationError, match="dim" if dim < 8 else "alpha"):
        Memory(dim=dim, alpha=alpha)


def test_decision_kind_validated():
    with pytest.raises(MemoryValidationError):
        Decision(kind="Maybe", matched=None, similarity=0.5)


# -- one definition: a corrupt file fails load and verify at the same line -------------


def _reseal(edit):
    """Edit line 3's record and seal it again, so only the edit is wrong."""
    def corrupt(lines):
        body = json.loads(lines[2].partition(" ")[2])
        edit(body)
        lines[2] = _seal(body)
    return corrupt


def _respace(lines):
    digest, _, text = lines[2].partition(" ")
    lines[2] = f"{digest} {json.dumps(json.loads(text))}"


def _unsealed(lines):
    lines[2] = lines[2].partition(" ")[2]


def _ghost_node(body):
    body["transcript"]["steps"][0]["node"] = "ghost-0|ghost-0/op"


def _tamper(lines):
    lines[2] = lines[2].replace('"alert_id":"a1"', '"alert_id":"forged"')


def _version_99(lines):
    manifest = json.loads(lines[0])
    manifest["version"] = 99
    lines[0] = json.dumps(manifest)


def _truncate(lines):
    del lines[-1]


def _alpha_3(lines):
    manifest = json.loads(lines[0])
    manifest["alpha"] = 3.0
    lines[0] = json.dumps(manifest)


def _unknown_verdict(body):
    body["transcript"]["steps"][0]["verdict"] = "Maybe"


def _unknown_log_level(body):
    body["transcript"]["steps"][0]["log_evidence"].append(
        {"timestamp": 5, "component": "p0-0", "level": "SHOUT", "kind": "k", "message": "m"}
    )


CORRUPTIONS = {  # name -> (edit of the file's lines, line the problem is on)
    "checksum mismatch": (_tamper, 3),
    "version 99": (_version_99, 1),
    "alpha out of range": (_alpha_3, 1),
    "stage markers disagree with the steps": (_reseal(
        lambda body: body["transcript"]["stage_markers"].update(reflection=1)), 3),
    "truncated": (_truncate, 1),
    "missing key": (_reseal(lambda body: body.pop("timestamp_ms")), 3),
    "unknown verdict": (_reseal(_unknown_verdict), 3),
    "unknown log level": (_reseal(_unknown_log_level), 3),
    "text re-spaced under its seal": (_respace, 3),
    "no digest prefix": (_unsealed, 3),
    "step names a node the graph lacks": (_reseal(_ghost_node), 3),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_file_fails_load_and_verify_at_its_line(tmp_path, capsys, name):
    corrupt, line = CORRUPTIONS[name]
    mem = Memory(dim=DIM)
    for i in range(3):
        mem.store(make_entry(build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")

    where = f"{path}:{line}:"
    with pytest.raises(EngineError, match=re.escape(where)):
        Memory.load(path)
    assert main(["--memory", str(path), "memory", "verify"]) == 1
    assert f"VIOLATION {where}" in capsys.readouterr().out


def _manifest_edit(**changes):
    def corrupt(lines):
        manifest = json.loads(lines[0])
        manifest.update(changes)
        lines[0] = json.dumps(manifest)
    return corrupt


def _step_edit(edit):
    return _reseal(lambda body: edit(body["transcript"]["steps"][0]))


# A file as version 1 wrote it: each record stored its keys and a checksum field.
VERSION_1_FILE = [
    '{"alpha":0.5,"dim":64,"entries":1,"format":"rootcause-memory","version":1}',
    '{"alert_id":"a0","checksum":"' + "0" * 64 + '","embedding":[1.0],'
    '"fingerprint":"' + "f" * 64 + '","graph":"graph\\ta0","timestamp_ms":0,'
    '"transcript":{"alert_id":"a0","stage_markers":{"initial":0,"reflection":0},"steps":[]}}',
]

MISTYPED = {  # name -> (edit of the file's lines, line, JSON path the refusal names)
    "timestamp as text": (_reseal(lambda body: body.update(timestamp_ms="yesterday")),
                          3, "'timestamp_ms' must be an integer"),
    "alert id as a number": (_reseal(lambda body: body.update(alert_id=7)),
                             3, "'alert_id' must be a string"),
    "graph as a number": (_reseal(lambda body: body.update(graph=7)),
                          3, "'graph' must be a string"),
    "errored as a number": (_step_edit(lambda step: step.update(errored=0)),
                            3, "'transcript.steps[0].errored' must be true or false"),
    "index as text": (_step_edit(lambda step: step.update(index="0")),
                      3, "'transcript.steps[0].index' must be an integer"),
    "child call duration as text": (
        _step_edit(lambda step: step["trace_evidence"][0].update(d="slow")),
        3, "'transcript.steps[0].trace_evidence[0].d' must be an integer"),
    "max_deviation as text": (
        _step_edit(lambda step: step["metric_evidence"][0].update(max_deviation="big")),
        3, "'transcript.steps[0].metric_evidence[0].max_deviation' must be a number"),
    "series point of three": (
        _step_edit(lambda step: step["metric_evidence"][0]["series"][0].append(1)),
        3, "'transcript.steps[0].metric_evidence[0].series[0]' must be a list of 2 items"),
    "unknown step key": (_step_edit(lambda step: step.update(note="x")),
                         3, "'transcript.steps[0].note' is an unknown key"),
    "step lacks stale": (_step_edit(lambda step: step.pop("stale")),
                         3, "'transcript.steps[0].stale' is missing"),
    "record a list": (lambda lines: lines.__setitem__(2, _seal([1])),
                      3, "top level must be a JSON object, got [1]"),
    "unknown record key": (_reseal(lambda body: body.update(note="x")),
                           3, "'note' is an unknown key"),
    "graph text cut short": (_reseal(lambda body: body.update(graph="graph\tg")),
                             3, "malformed graph text: not enough values to unpack"),
    "manifest of another format": (lambda lines: lines.__setitem__(0, '{"entries": 3}'),
                                   1, "not a memory file"),
    "entries as a bool": (_manifest_edit(entries=True), 1, "'entries' must be an integer"),
    "version as a float": (_manifest_edit(version=1.0), 1, "'version' must be an integer"),
    "a version-1 file": (lambda lines: lines.__setitem__(slice(None), VERSION_1_FILE),
                         1, "unsupported version 1"),
}


@pytest.mark.parametrize("name", sorted(MISTYPED))
def test_mistyped_field_fails_load_and_verify_at_its_json_path(tmp_path, capsys, name):
    corrupt, line, message = MISTYPED[name]
    mem = Memory(dim=DIM)
    rng = random.Random(43)
    for i in range(3):
        g = build_graph([f"p{i}-0", f"q{i}-0"], alert_id=f"a{i}")
        mem.store(make_entry(g, steps=[
            evidenced_step(j, g, nid, rng) for j, nid in enumerate(sorted(g.nodes))]))
    path = tmp_path / "mem.jsonl"
    mem.persist(path)
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")

    where = f"{path}:{line}: {message}"
    with pytest.raises(MemoryIntegrityError) as err:
        Memory.load(path)
    assert str(err.value).startswith(where)
    assert main(["--memory", str(path), "memory", "verify"]) == 1
    assert f"VIOLATION {where}" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["a directory", "unreadable"])
def test_unreadable_memory_path_is_an_integrity_error_naming_it(
        tmp_path, capsys, monkeypatch, case):
    path = tmp_path / "memory.jsonl"
    if case == "a directory":
        path.mkdir()
    else:
        Memory(dim=DIM).persist(path)

        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(memory, "open", refuse, raising=False)
    for read in (Memory.load, verify):
        with pytest.raises(MemoryIntegrityError, match=re.escape(f"{path}: cannot read memory file")):
            read(path)
    assert main(["--memory", str(path), "memory", "verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
