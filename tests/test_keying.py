"""Graph keys are computed once per graph, and caching them changes nothing.

The work count pins how many WL refinements an analyzed alert costs; the
exactness tests pin that scoring from cached keys is bit-identical to
recomputing every key, and that the argpartition shortlist equals the full
sort it replaced, ties included.
"""

import random

import numpy as np
import pytest

from rootcause import graph, reasoner
from rootcause.config import Config
from rootcause.graph import embed, fingerprint, similarity
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
    # decide keys the query unless the memory is empty; store keys the entry.
    assert [cost for _, cost in per_alert] == [1] + [2] * 49, per_alert
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
