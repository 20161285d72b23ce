"""Graph keys are computed once per graph, and caching them changes nothing.

The work counts pin how many WL refinements an analyzed alert costs and
which shortlisted entries a Reuse scores exactly; the exactness tests pin
that scoring from cached keys, pruned by bound, is bit-identical to
recomputing every key and scoring every shortlisted entry, and that the
argpartition shortlist equals the full sort it replaced, ties included.
"""

import random

import numpy as np
import pytest

from rootcause import graph, memory, reasoner
from rootcause.config import Config
from rootcause.graph import (
    CausalGraph,
    EdgeAttributes,
    NodeAttributes,
    cosine,
    embed,
    fingerprint,
    node_id_for,
    similarity,
)
from rootcause.memory import Memory
from rootcause.reasoner import analyze_window, deterministic_policy
from rootcause.scenario import ScenarioSpec, duplicate_alerts, generate
from rootcause.telemetry import windows_from_alerts

from .test_memory import DIM, build_graph, make_entry


def _wl_passes_per_alert(monkeypatch, memory_on):
    """(entries before the alert, WL passes it cost) for each alert of the
    acceptance-08 storm under the zero-latency deterministic policy."""
    cfg = Config(baseline_minutes=5.0)
    scenario = generate(ScenarioSpec(
        services=8, depth=4, fault_kind="MetricSpike", seed=55, traces=6, victims=5,
    ))
    dup = duplicate_alerts(scenario, copies=9)
    store = dup.to_store()
    windows = windows_from_alerts(store.alerts, cfg.window_ms)
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha) if memory_on else None

    passes = [0]
    real_rounds = graph._wl_label_rounds

    def counting_rounds(*args, **kwargs):
        passes[0] += 1
        return real_rounds(*args, **kwargs)

    per_alert = []  # (entries before the alert, WL passes it cost)
    real_analyze = reasoner.analyze_alert

    def counting_analyze(*args, **kwargs):
        entries, before = len(mem or ()), passes[0]
        out = real_analyze(*args, **kwargs)
        per_alert.append((entries, passes[0] - before))
        return out

    monkeypatch.setattr(graph, "_wl_label_rounds", counting_rounds)
    monkeypatch.setattr(reasoner, "analyze_alert", counting_analyze)
    report = analyze_window(windows[0], store, dup.topology, mem,
                            deterministic_policy(cfg), cfg)

    assert not report.failures and len(per_alert) == 50
    if memory_on:
        assert {a.decision.kind for a in report.analyses} >= {"Fresh", "Reuse"}
        assert len(mem) >= 3
    return per_alert


def test_wl_passes_per_alert_do_not_grow_with_the_memory(monkeypatch):
    per_alert = _wl_passes_per_alert(monkeypatch, memory_on=True)
    # decide keys the query unless the memory is empty, and store reuses
    # those keys; into an empty memory, store keys the entry itself.
    assert [cost for _, cost in per_alert] == [1] * 50, per_alert
    assert [entries for entries, _ in per_alert][:2] == [0, 1]


def test_memory_off_computes_no_graph_key(monkeypatch):
    per_alert = _wl_passes_per_alert(monkeypatch, memory_on=False)
    assert all(cost == 0 for _, cost in per_alert), per_alert


def _random_memory(n, seed):
    rng = random.Random(seed)
    mem = Memory(dim=DIM)
    for i in range(n):
        labels = [f"s{rng.randrange(8)}-{j}" for j in range(rng.randrange(1, 5))]
        metrics = {l: {"m": (rng.uniform(0, 40), rng.uniform(0.5, 4))} for l in labels}
        mem.store(make_entry(build_graph(sorted(set(labels)), metrics=metrics,
                                         alert_id=f"a{i}")))
    return mem


def _brute_force(mem, query, k):
    scored = [(fp, similarity(query, e.graph, mem.alpha, DIM))
              for fp, e in mem.entries().items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@pytest.mark.parametrize("k", [1, 5, 50])
def test_keyed_retrieve_equals_recomputed_similarity_bit_for_bit(k):
    mem = _random_memory(50, seed=17)
    query = build_graph(["s1-0", "s2-1", "s3-2"], alert_id="query")
    got = [(fingerprint(e.graph).digest, s) for e, s in mem.retrieve(query, k)]
    assert got == _brute_force(mem, query, k)  # exact floats, no rounding


def test_keyed_decide_similarity_equals_recomputed_bit_for_bit():
    mem = _random_memory(40, seed=23)
    for i, labels in enumerate([["s1-0", "s2-1"], ["s0-0", "s4-1", "s5-2"], ["s7-0"]]):
        query = build_graph(labels, alert_id=f"q{i}")
        decision = mem.decide(query, 0.98, 0.8, 1.0)
        digest, score = _brute_force(mem, query, 1)[0]
        assert decision.matched is mem.entries()[digest]
        assert decision.similarity == score


def test_shortlist_ties_at_the_cut_match_the_full_sort():
    # Two-node graphs {q, x_i} without edges share the query's node, so
    # every x_i whose features hash to fresh buckets ties on cosine.
    mem = Memory(dim=DIM)
    for i in range(120):
        mem.store(make_entry(build_graph(["q-0", f"x{i}-0"], edges="none",
                                         alert_id=f"a{i}")))
    query = embed(build_graph(["q-0"], alert_id="query"), DIM).vector
    k_prime = 32

    digests = list(mem.entries())
    cosines = np.stack([embed(e.graph, DIM).vector for e in mem.entries().values()]) @ query
    full = sorted(range(len(digests)), key=lambda i: (-cosines[i], digests[i]))
    want = [digests[i] for i in full[:k_prime]]

    cut = cosines[full[k_prime - 1]]
    tied = int(np.sum(cosines == cut))
    inside = sum(1 for i in full[:k_prime] if cosines[i] == cut)
    assert tied > inside >= 1  # the tie group straddles the cut

    got = [slot.fingerprint for slot in mem._nn_shortlist(query, k_prime)]
    assert got == want


def _graph(pods, edges=(), metrics=None, service="q", alert_id="g"):
    """One node per pod, all of one service and operation; ``edges`` are
    (i, j) pairs of indexes into ``pods``."""
    ids = [node_id_for(p, f"{service}/op") for p in pods]
    nodes = {nid: NodeAttributes(service, p, f"{service}/op",
                                 (metrics or {}).get(p, {"m": (10.0, 2.0)}), {}, (f"sp-{p}",))
             for nid, p in zip(ids, pods)}
    return CausalGraph(alert_id, (0, 1), nodes,
                       {(ids[i], ids[j]): EdgeAttributes(1, 0) for i, j in edges})


def _diverse_memory(n, seed):
    """``n`` stored graphs drawn from 90 pods of 30 services, 1-6 nodes in a
    chain each, so most draws are distinct and cosines spread."""
    rng = random.Random(seed)
    mem = Memory(dim=DIM)
    for i in range(n):
        labels = sorted({f"s{rng.randrange(30)}-{rng.randrange(3)}"
                         for _ in range(rng.randrange(1, 7))})
        metrics = {l: {"m": (rng.uniform(0, 40), rng.uniform(0.5, 4))} for l in labels}
        mem.store(make_entry(build_graph(labels, metrics=metrics, alert_id=f"a{i}")))
    return mem


def _oracle(mem, query, k):
    """Top k of the cosine shortlist of size max(4k, 32) by ``similarity``,
    which re-derives both graphs' keys, scoring every shortlisted entry:
    (fingerprint, score) pairs sorted by (-score, fingerprint)."""
    digests = list(mem.entries())
    graphs = [e.graph for e in mem.entries().values()]
    q = embed(query, DIM).vector
    cosines = np.stack([embed(g, DIM).vector for g in graphs]) @ q  # as the shortlist
    short = sorted(range(len(digests)), key=lambda i: (-cosines[i], digests[i]))
    scored = [(digests[i], similarity(query, graphs[i], mem.alpha, DIM))
              for i in short[:max(4 * k, 32)]]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _assert_scores_match_oracle(mem, queries, k):
    for query in queries:
        want = _oracle(mem, query, k)
        got = [(fingerprint(e.graph).digest, s) for e, s in mem.retrieve(query, k)]
        assert got == want  # exact floats, no rounding
        (digest, score), = _oracle(mem, query, 1)
        decision = mem.decide(query, 0.98, 0.8, 1.0)
        assert decision.matched is mem.entries()[digest]
        assert decision.similarity == score


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("k", [1, 5, 50])
def test_bounded_scoring_equals_the_oracle_on_random_memories(n, k):
    mem = _diverse_memory(n, seed=n + k)
    assert len(mem) > 0.8 * n
    rng = random.Random(k)
    stored = list(mem.entries().values())
    queries = [build_graph(sorted({f"s{rng.randrange(30)}-{rng.randrange(3)}"
                                   for _ in range(rng.randrange(1, 7))}), alert_id="q")
               for _ in range(4)]
    queries += [rng.choice(stored).graph for _ in range(2)]  # exact hits
    _assert_scores_match_oracle(mem, queries, k)


def _shared_embedding_memory(alpha):
    """Graphs of 1-40 isolated ``q`` nodes share one embedding (their WL
    counts are proportional) under distinct fingerprints; their pods'
    metrics agree with the query's or sit far off. Graphs of ``r`` nodes on
    pods p0-p3 with distinct edge sets have distinct embeddings and an
    attribute similarity of one to a query on the same nodes, so with alpha
    0 they tie at the bound."""
    mem = Memory(dim=DIM, alpha=alpha)
    rng = random.Random(5)
    for m in range(1, 41):
        pods = [f"p{i}" for i in range(m)]
        metrics = {p: {"m": rng.choice([(10.0, 2.0), (1e6, 2.0)])} for p in pods}
        mem.store(make_entry(_graph(pods, metrics=metrics, alert_id=f"m{m}")))
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(1, 1 << len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        mem.store(make_entry(_graph(["p0", "p1", "p2", "p3"], edges, service="r",
                                    alert_id=f"e{mask}")))
    return mem


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 5, 50])
def test_bounded_scoring_keeps_ties_at_the_bound_and_the_fingerprint_order(alpha, k):
    mem = _shared_embedding_memory(alpha)
    pods = ["p0", "p1", "p2", "p3"]
    queries = [_graph(pods), _graph(pods[:2]), _graph(pods[:1]),
               _graph(pods, [(0, 1)], service="r")]
    vectors = {tuple(embed(e.graph, DIM).vector) for e in mem.entries().values()}
    assert len(mem) > len(vectors) + 30  # many entries share one embedding
    _assert_scores_match_oracle(mem, queries, k)
    # The best exact score is tied across fingerprints for some query.
    assert any(a[1] == b[1] for a, b in (_oracle(mem, q, 2) for q in queries))


def test_a_reuse_scores_only_entries_whose_cosine_ties_the_best(monkeypatch):
    cfg = Config(baseline_minutes=5.0)
    scenario = generate(ScenarioSpec(
        services=8, depth=4, fault_kind="MetricSpike", seed=55, traces=6, victims=5,
    ))
    dup = duplicate_alerts(scenario, copies=9)
    store = dup.to_store()
    windows = windows_from_alerts(store.alerts, cfg.window_ms)
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)

    scored = []  # graphs attribute_similarity compared the query with
    real_attr = memory.attribute_similarity

    def counting_attr(g_new, g_old, *args):
        scored.append(g_old)
        return real_attr(g_new, g_old, *args)

    checked = []
    real_decide = Memory.decide

    def checking_decide(self, *args):
        del scored[:]
        decision = real_decide(self, *args)
        if decision.kind == "Reuse":
            q = decision.query.embedding.vector
            slots = self._slots.values()
            cosines = {id(s.entry.graph): cosine(q, self._matrix[s.row]) for s in slots}
            best = max(cosines.values())
            assert sorted(map(id, scored)) == sorted(g for g, c in cosines.items() if c == best)
            checked.append(len(scored))
        return decision

    monkeypatch.setattr(memory, "attribute_similarity", counting_attr)
    monkeypatch.setattr(Memory, "decide", checking_decide)
    report = analyze_window(windows[0], store, dup.topology, mem, deterministic_policy(cfg), cfg)
    assert not report.failures and len(mem) >= 3
    assert len(checked) == report.decision_histogram["Reuse"] >= 40
    assert set(checked) == {1}
