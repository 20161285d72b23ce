"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its headline numbers after its
assertions hold, including the measured runtime against the criterion's
budget. Everything runs offline with the deterministic policy.
"""

import math
import random
import time

import numpy as np
import pytest

from rootcause import graph, reasoner
from rootcause.agents import consolidate, metric_agent
from rootcause.config import Config
from rootcause.evaluation import mrr, recall_at_k, run_benchmark
from rootcause.graph import (
    divergence,
    embed,
    extract,
    fingerprint,
    node_id_for,
    similarity,
)
from rootcause.memory import Memory
from rootcause.reasoner import (
    Budget,
    CountingPolicy,
    analyze_alert,
    analyze_window,
    deterministic_policy,
    recursive_rcl,
    AgentRuntime,
    _weights,
)
from rootcause.scenario import (
    FAULT_KINDS,
    JitterSpec,
    ScenarioSpec,
    duplicate_alerts,
    generate,
)
from rootcause.telemetry import MetricSample, TelemetryStore, Topology, windows_from_alerts

from .conftest import make_span, walkthrough_store
from .evaluation_oracle import recount_recall, recount_mrr
from .reference_walk import reference_visited


def report(number, name, elapsed, budget_s, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS in {elapsed:.1f}s "
          f"(budget {budget_s:.0f}s){suffix}")


def test_acceptance_01_algorithm_fidelity():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)
    policy = deterministic_policy(cfg)
    checked = 0
    for i in range(100):
        kind = FAULT_KINDS[i % len(FAULT_KINDS)]
        scenario = generate(ScenarioSpec(
            fault_kind=kind, seed=1000 + i, traces=4, victims=1,
        ))
        store = scenario.to_store()
        for alert in store.alerts:
            runtime = AgentRuntime(store, scenario.topology, alert.timestamp, cfg)
            candidates, steps = recursive_rcl(
                store.span(alert.entry_span_id), policy, runtime, Budget(),
            )
            visited = {s.span for s in steps}
            ref_visited, ref_confirmed = reference_visited(
                store, scenario.topology, policy, alert.entry_span_id,
                alert.timestamp, cfg,
            )
            assert visited == set(ref_visited), f"scenario seed {1000 + i}"
            confirmed = {s.span for s in steps if s.verdict == "ConfirmedRootCause"}
            assert confirmed == ref_confirmed
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    report(1, "algorithm fidelity", elapsed, 30, f"{checked} walks, exact set equality")


def test_acceptance_02_n_sigma_oracle():
    started = time.perf_counter()
    rng = random.Random(271828)
    t0 = 1_000_000_000_000
    delta = 30_000
    baseline_ms = 5 * 60_000
    n = 3.0
    floor = 1e-6

    samples = []
    series_meta = []
    for i in range(1000):
        comp = f"c{i:04d}"
        mu = rng.uniform(-100, 100)
        sd = rng.uniform(0.0, 8.0)  # includes near-constant series
        step = 10_000
        values = []
        for t in range(t0 - baseline_ms, t0 + delta + 1, step):
            v = mu if sd == 0 else rng.gauss(mu, sd)
            if rng.random() < 0.02:
                v += rng.choice([-1, 1]) * rng.uniform(3, 12) * max(sd, 0.5)
            samples.append(MetricSample(t, comp, "m", v))
            values.append((t, v))
        series_meta.append((comp, values))
    spans = [make_span(span_id="s0", cmdb="c0000", start=t0)]
    store = TelemetryStore(spans, [], samples, [], Topology({"c0000": "svc"}, {"c0000": "n"}))

    agree = 0
    for comp, values in series_meta:
        got = metric_agent(store, store.topology, t0, delta, comp, n=n,
                           baseline_ms=baseline_ms, sigma_floor=floor)
        hist = [v for (t, v) in values if t0 - baseline_ms <= t < t0 - delta]
        window = [(t, v) for (t, v) in values if t0 - delta <= t <= t0 + delta]
        mu_hat = sum(hist) / len(hist)
        sd_hat = max(math.sqrt(sum((v - mu_hat) ** 2 for v in hist) / len(hist)), floor)
        brute_hits = [(t, v) for (t, v) in window if abs(v - mu_hat) > n * sd_hat]
        assert bool(got) == bool(brute_hits), comp
        if got:
            brute_max = max(abs(v - mu_hat) / sd_hat for (_, v) in window)
            assert got[0].max_deviation == pytest.approx(brute_max, rel=1e-12)
            assert got[0].first_exceed == brute_hits[0][0]
        agree += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    report(2, "n-sigma oracle", elapsed, 10, f"{agree}/1000 series agree exactly")


def test_acceptance_03_fingerprint_similarity_properties():
    started = time.perf_counter()
    rng = random.Random(31415)

    def random_tree(tag):
        from rootcause.graph import CausalGraph, EdgeAttributes, NodeAttributes

        n = rng.randrange(2, 12)
        nodes = {}
        order = []
        for i in range(n):
            label = f"s{rng.randrange(5)}"
            pod = f"{label}-{i}"
            nid = node_id_for(pod, f"{label}/op")
            nodes[nid] = NodeAttributes(
                service_id=label, pod_id=pod, op_name=f"{label}/op",
                metric_summary={"m": (rng.uniform(0, 50), rng.uniform(0.5, 3))},
                log_summary={"k": rng.randrange(4)},
            )
            order.append(nid)
        edges = {}
        for i in range(1, n):
            u = order[rng.randrange(i)]
            edges[(u, order[i])] = EdgeAttributes(rng.randrange(1, 500), 0)
        return CausalGraph(alert_id=tag, window=(0, 1), nodes=nodes, edges=edges)

    from rootcause.graph import CausalGraph

    for i in range(1000):
        g = random_tree(f"t{i}")
        items_n = list(g.nodes.items())
        items_e = list(g.edges.items())
        rng.shuffle(items_n)
        rng.shuffle(items_e)
        g_perm = CausalGraph("perm", (7, 8), dict(items_n), dict(items_e))
        assert fingerprint(g).digest == fingerprint(g_perm).digest
        assert np.array_equal(embed(g).vector, embed(g_perm).vector)

    for i in range(100):
        g1, g2 = random_tree("a"), random_tree("b")
        alpha = rng.random()
        s12, s21 = similarity(g1, g2, alpha), similarity(g2, g1, alpha)
        assert 0.0 <= s12 <= 1.0
        assert s12 == pytest.approx(s21, abs=1e-12)

    for i in range(50):
        g = random_tree("self")
        assert similarity(g, g, rng.random()) == pytest.approx(1.0, abs=1e-9)
        for delta in (0.01, 1.0, 100.0):
            assert divergence(g, g, delta) == set()

    elapsed = time.perf_counter() - started
    assert elapsed < 30
    report(3, "fingerprint and similarity properties", elapsed, 30,
           "1000 trees permutation-exact; bounds, symmetry, self=1")


def test_acceptance_04_memory_reuse_contract():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=8.0)
    store = walkthrough_store()
    alert = store.alerts[0]
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    policy = deterministic_policy(cfg)
    first = analyze_alert(alert, store, store.topology, mem, policy, cfg)
    second = analyze_alert(alert, store, store.topology, mem, policy, cfg)
    assert second.decision.kind == "Reuse"
    assert second.counters.policy_calls == 0
    assert second.ranking.as_rows() == first.ranking.as_rows()
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    report(4, "memory reuse contract", elapsed, 5,
           "repeat analysis: Reuse, 0 policy calls, identical ranking")


def test_acceptance_05_resume_precision():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)
    scenario = generate(ScenarioSpec(fault_kind="MetricSpike", seed=77, victims=1))
    dup = duplicate_alerts(scenario, copies=1, jitter=JitterSpec())
    store = dup.to_store()
    policy = deterministic_policy(cfg)

    base_alert = scenario.alerts[0]
    jittered_alert = next(a for a in store.alerts if a.timestamp != base_alert.timestamp)

    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    analyze_alert(base_alert, store, dup.topology, mem, policy, cfg)
    resumed = analyze_alert(jittered_alert, store, dup.topology, mem, policy, cfg)
    assert resumed.decision.kind == "Resume"

    g_new = resumed.entry.graph
    expected_nodes = {
        nid for nid in g_new.nodes if g_new.nodes[nid].pod_id == scenario.truth_pod
    }
    assert resumed.decision.divergent_nodes == expected_nodes

    fresh = analyze_alert(jittered_alert, store, dup.topology, None, policy, cfg)
    assert resumed.counters.policy_calls < fresh.counters.policy_calls
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    report(5, "resume precision", elapsed, 10,
           f"divergent set exact; {resumed.counters.policy_calls} < "
           f"{fresh.counters.policy_calls} policy calls")


def test_acceptance_06_depth_assurance():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)
    policy = deterministic_policy(cfg)
    confirmed_by_initial = 0
    in_top5 = 0
    total = 50
    for i in range(total):
        kind = "MetricSpike" if i % 2 == 0 else "LatencyInflation"
        scenario = generate(ScenarioSpec(
            services=6, depth=4, fault_layer=3, fault_kind=kind,
            seed=2000 + i, traces=4, victims=1,
        ))
        store = scenario.to_store()
        alert = store.alerts[0]
        analysis = analyze_alert(
            alert, store, scenario.topology,
            Memory(dim=cfg.embedding_dim, alpha=cfg.alpha), policy, cfg,
        )
        # the fault sits three calls below the entry span
        truth_steps = [s for s in analysis.transcript.steps
                       if s.pod == scenario.truth[1]]
        assert truth_steps, "walk must reach the deep fault"

        initial_steps = [s for s in analysis.transcript.steps if s.stage == "Initial"]
        if any(s.verdict == "ConfirmedRootCause" for s in initial_steps):
            confirmed_by_initial += 1
        gamma0_only = consolidate(initial_steps, scenario.topology, _weights(cfg))
        truth_rank_initial = gamma0_only.rank_of(*scenario.truth)
        if truth_rank_initial is not None:
            assert gamma0_only[truth_rank_initial - 1].score == 0.0

        rank = analysis.ranking.rank_of(*scenario.truth)
        if rank is not None and rank <= 5:
            in_top5 += 1
    assert confirmed_by_initial == 0
    assert in_top5 >= 0.9 * total
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(6, "depth assurance", elapsed, 60,
           f"initial confirms 0/{total}; full pipeline top-5 {in_top5}/{total}")


def test_acceptance_07_localization_corpus():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)
    corpus = [
        generate(ScenarioSpec(fault_kind=kind, seed=seed, traces=6, victims=2))
        for kind in FAULT_KINDS for seed in range(20)
    ]
    result = run_benchmark(corpus, cfg, deterministic_policy(cfg))
    assert not result.failures
    assert result.recall[1] >= 0.90
    assert result.recall[5] == 1.0
    assert result.mrr >= 0.93
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(7, "localization on synthetic corpora", elapsed, 300,
           f"recall@1 {result.recall[1]:.3f}, recall@5 {result.recall[5]:.3f}, "
           f"mrr {result.mrr:.3f} over {len(result.records)} alerts")


def test_acceptance_08_efficiency_from_reuse():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)
    scenario = generate(ScenarioSpec(
        services=8, depth=4, fault_kind="MetricSpike", seed=55,
        traces=6, victims=5,
    ))
    dup = duplicate_alerts(scenario, copies=9)
    store = dup.to_store()
    windows = windows_from_alerts(store.alerts, cfg.window_ms)
    assert len(windows) == 1 and len(windows[0].alerts) == 50
    distinct_prints = {
        fingerprint(extract(a, store, dup.topology, cfg.window_ms)).digest
        for a in scenario.alerts
    }
    assert len(distinct_prints) >= 3  # the five seeds are not one shape

    policy = CountingPolicy(deterministic_policy(cfg), latency_ms=50.0)

    t_on = time.perf_counter()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    report_on = analyze_window(windows[0], store, dup.topology, mem, policy, cfg)
    wall_on = time.perf_counter() - t_on

    t_off = time.perf_counter()
    report_off = analyze_window(windows[0], store, dup.topology, None, policy, cfg)
    wall_off = time.perf_counter() - t_off

    assert not report_on.failures and not report_off.failures
    ratio = report_on.total_policy_calls / report_off.total_policy_calls
    speedup = wall_off / wall_on
    assert ratio <= 0.25
    assert speedup >= 3.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    report(8, "efficiency from reuse", elapsed, 120,
           f"policy-call ratio {ratio:.3f} <= 0.25, speedup {speedup:.1f}x >= 3x")


def test_acceptance_09_metric_arithmetic():
    started = time.perf_counter()
    from .test_evaluation import record

    assert mrr([record(1), record(2), record(None)]) == pytest.approx(0.5)
    assert recall_at_k([record(1), record(3), record(7)], 5) == pytest.approx(2 / 3)

    rng = random.Random(99)
    records = [record(rng.choice([1, 2, 3, 4, 8, None])) for _ in range(100)]
    for k in (1, 3, 5, 10):
        assert recall_at_k(records, k) == pytest.approx(recount_recall(records, k))
    assert mrr(records) == pytest.approx(recount_mrr(records))
    elapsed = time.perf_counter() - started
    assert elapsed < 1
    report(9, "metric arithmetic", elapsed, 1,
           "mrr {1,2,miss}=0.5; recall@5 {1,3,7}=2/3; oracle recount agrees")


def test_acceptance_10_walkthrough_fixture():
    started = time.perf_counter()
    cfg = Config(baseline_minutes=8.0)
    store = walkthrough_store()
    analysis = analyze_alert(
        store.alerts[0], store, store.topology,
        Memory(dim=cfg.embedding_dim, alpha=cfg.alpha),
        deterministic_policy(cfg), cfg,
    )
    top = analysis.ranking[0]
    assert (top.level, top.root_cause) == ("service", "recommendationservice")
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    report(10, "incident walkthrough fixture", elapsed, 5,
           "recommendationservice at rank 1")


def test_acceptance_11_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)

    def one_run(out_dir):
        corpus = [
            generate(ScenarioSpec(fault_kind=kind, seed=10 + i, traces=4, victims=2))
            for i, kind in enumerate(FAULT_KINDS)
        ]
        ticker = {"t": 0.0}

        def fake_timer():
            ticker["t"] += 0.0005
            return ticker["t"]

        result = run_benchmark(
            corpus, cfg, deterministic_policy(cfg),
            timer=fake_timer, keep_transcripts=True,
        )
        result.write(out_dir)
        mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
        store = corpus[0].to_store()
        for window in windows_from_alerts(store.alerts, cfg.window_ms):
            analyze_window(window, store, corpus[0].topology, mem,
                           deterministic_policy(cfg), cfg, timer=fake_timer)
        mem.persist(out_dir / "memory.jsonl")

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    one_run(run_a)
    one_run(run_b)

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    differing = [
        str(rel) for rel in files_a
        if (run_a / rel).read_bytes() != (run_b / rel).read_bytes()
    ]
    assert differing == []
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(11, "end-to-end determinism", elapsed, 300,
           f"{len(files_a)} artifacts byte-identical across runs")


def test_acceptance_12_memory_does_less_work_in_process(monkeypatch):
    started = time.perf_counter()
    cfg = Config(baseline_minutes=5.0)
    scenario = generate(ScenarioSpec(
        services=8, depth=4, fault_kind="MetricSpike", seed=55,
        traces=6, victims=5,
    ))
    dup = duplicate_alerts(scenario, copies=9)
    store = dup.to_store()
    windows = windows_from_alerts(store.alerts, cfg.window_ms)
    assert len(windows) == 1 and len(windows[0].alerts) == 50

    work = {"walk_steps": 0, "consolidate": 0, "wl_passes": 0}

    def counted(fn, kind):
        def wrapper(*args, **kwargs):
            work[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    per_alert_wl = []
    real_analyze = reasoner.analyze_alert

    def analyze(*args, **kwargs):
        before = work["wl_passes"]
        out = real_analyze(*args, **kwargs)
        per_alert_wl.append(work["wl_passes"] - before)
        return out

    monkeypatch.setattr(reasoner, "_visit", counted(reasoner._visit, "walk_steps"))
    monkeypatch.setattr(reasoner, "consolidate", counted(reasoner.consolidate, "consolidate"))
    monkeypatch.setattr(graph, "_wl_label_rounds", counted(graph._wl_label_rounds, "wl_passes"))
    monkeypatch.setattr(reasoner, "analyze_alert", analyze)

    def arm(mem):
        for kind in work:
            work[kind] = 0
        del per_alert_wl[:]
        policy = CountingPolicy(deterministic_policy(cfg))  # zero latency
        t0 = time.perf_counter()
        report = analyze_window(windows[0], store, dup.topology, mem, policy, cfg)
        wall = time.perf_counter() - t0
        assert not report.failures and len(report.analyses) == 50
        counts = dict(work, policy_calls=policy.calls,
                      agent_calls=sum(a.counters.total_agent_calls for a in report.analyses))
        return counts, list(per_alert_wl), wall

    on, wl_on, wall_on = arm(Memory(dim=cfg.embedding_dim, alpha=cfg.alpha))
    off, wl_off, wall_off = arm(None)

    for kind in ("policy_calls", "agent_calls", "walk_steps", "consolidate"):
        assert on[kind] < off[kind], (kind, on, off)
    assert wl_on == [1] * 50
    assert wl_off == [0] * 50
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    report(12, "memory does less work in process", elapsed, 120,
           f"policy calls {on['policy_calls']} vs {off['policy_calls']}, "
           f"walk steps {on['walk_steps']} vs {off['walk_steps']}, "
           f"consolidate {on['consolidate']} vs {off['consolidate']}, "
           f"1 WL pass per alert; wall on/off {wall_on / wall_off:.2f} (not gated)")
