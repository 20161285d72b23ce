import dataclasses
import hashlib
import json

import pytest

from rootcause import reasoner
from rootcause.agents import ChildCall, MetricAnomaly, consolidate
from rootcause.config import Config
from rootcause.memory import Memory
from rootcause.reasoner import (
    AgentRuntime,
    Budget,
    CountingPolicy,
    DeterministicPolicy,
    RunState,
    Step,
    Transcript,
    aggregate_rankings,
    analyze_alert,
    analyze_window,
    critical_reflection,
    deterministic_policy,
    export_transcript,
    initial_reasoning,
    recursive_rcl,
    read_transcript,
    render_transcript,
    replay_transcript,
)
from rootcause.scenario import JitterSpec, ScenarioSpec, duplicate_alerts, generate
from rootcause.telemetry import (
    Alert,
    AlertWindow,
    LogEntry,
    MetricSample,
    TelemetryStore,
    Topology,
)

from .conftest import T0, cycle_series, make_span, make_topology
from .reference_walk import reference_visited


def fast_config(**overrides):
    cfg = Config(baseline_minutes=8.0, **overrides)
    cfg.validate()
    return cfg


def call(span_id, d=10, sigma=0, t=T0, svc="svc", op="op"):
    return ChildCall(t=t, child_span=span_id, svc=svc, op=op, d=d, sigma=sigma)


# -- deterministic policy rules ----------------------------------------------------


def test_policy_flags_error_status_child_first():
    policy = DeterministicPolicy(timeout_factor=3.0)
    span = make_span(span_id="p", duration=100)
    calls = [call("c1", d=10), call("c2", d=12, sigma=13), call("c3", d=11)]
    flagged = policy.suspicious_children(span, calls)
    assert flagged and flagged[0].child_span == "c2"


def test_policy_equal_durations_no_suspects():
    policy = DeterministicPolicy(timeout_factor=3.0)
    span = make_span(span_id="p")
    calls = [call(f"c{i}", d=10) for i in range(4)]
    assert policy.suspicious_children(span, calls) == []


def test_policy_duration_rule_exact_example():
    policy = DeterministicPolicy(timeout_factor=3.0)
    span = make_span(span_id="p")
    calls = [call("c1", d=10), call("c2", d=10), call("c3", d=100)]
    flagged = policy.suspicious_children(span, calls)
    assert [c.child_span for c in flagged] == ["c3"]  # 100 > 3 * median(10, 10)


def test_policy_suspect_uses_sibling_median():
    policy = DeterministicPolicy(timeout_factor=3.0)
    slow = make_span(span_id="me", duration=100)
    siblings = [call("me", d=100), call("s1", d=10), call("s2", d=12)]
    assert policy.suspect(slow, siblings)
    quiet = make_span(span_id="me", duration=12)
    assert not policy.suspect(quiet, siblings)
    errored = make_span(span_id="me", duration=1, status=13)
    assert policy.suspect(errored, [])


def test_policy_confirm_needs_cross_modal_evidence():
    policy = DeterministicPolicy()
    span = make_span(span_id="s")
    assert not policy.confirm(span, [], [])
    assert policy.confirm(span, [LogEntry(T0, "p", "ERROR", "k", "m")], [])
    assert not policy.confirm(span, [LogEntry(T0, "p", "INFO", "k", "m")], [])
    anomaly = MetricAnomaly("p", "m", ((T0, 1.0),), (0.0, 1.0), 5.0, T0)
    assert policy.confirm(span, [], [anomaly])


# -- recursion ----------------------------------------------------------------------


def runtime_for(store, cfg=None, t0=T0):
    cfg = cfg or fast_config()
    return AgentRuntime(store, store.topology, t0, cfg)


def test_recursive_rcl_walkthrough_candidates(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    policy = deterministic_policy(cfg)
    runtime = runtime_for(store, cfg)
    candidates, steps = recursive_rcl(
        store.span(alert.entry_span_id), policy, runtime, Budget(),
    )
    pods = {store.span(sid).cmdb_id for sid in candidates}
    assert {"frontend2-0", "recommendationservice2-0"} <= pods


def test_recursive_rcl_single_quiet_span():
    store = TelemetryStore(
        [make_span(span_id="solo")], [], [], [],
        make_topology({"pod-a": ("svc-a", "n1")}),
    )
    runtime = runtime_for(store)
    candidates, steps = recursive_rcl(
        store.span("solo"), DeterministicPolicy(), runtime, Budget(),
    )
    assert candidates == set()
    assert len(steps) == 1 and steps[0].verdict == "Cleared"


def chain_store(depth=3, fault_kind="metric", fanout_decoys=True):
    """Entry -> mid... -> fault pod chain with quiet decoy siblings."""
    topo = {f"pod-{i}": (f"svc-{i}", f"node-{i % 2}") for i in range(depth + 1)}
    topo["decoy"] = ("svc-decoy", "node-1")
    spans = []
    own = [30] * depth + [300]  # the deep pod is slow
    durations = []
    total = 0
    for i in reversed(range(depth + 1)):
        total += own[i]
        durations.append(total)
    durations.reverse()
    for i in range(depth + 1):
        spans.append(make_span(
            trace_id="tr-c", span_id=f"s{i}", parent=None if i == 0 else f"s{i-1}",
            cmdb=f"pod-{i}", service=f"svc-{i}", operation=f"svc-{i}/op",
            start=T0 + i, duration=durations[i], status=0,
        ))
        if fanout_decoys and i > 0:
            spans.append(make_span(
                trace_id="tr-c", span_id=f"d{i}", parent=f"s{i-1}", cmdb="decoy",
                service="svc-decoy", operation="svc-decoy/op", start=T0 + i,
                duration=5, status=0,
            ))
    lo = T0 - 9 * 60_000
    metrics = cycle_series(f"pod-{depth}", "cpu_pct", 50.0, 1.0, lo, T0 + 40_000,
                           shift=6.0, shift_lo=T0 - 30_000, shift_hi=T0 + 30_000)
    for i in range(depth):
        metrics += cycle_series(f"pod-{i}", "cpu_pct", 50.0, 1.0, lo, T0 + 40_000)
    metrics += cycle_series("decoy", "cpu_pct", 50.0, 1.0, lo, T0 + 40_000)
    alert = Alert("al-c", T0, "tr-c", "s0", "slow root")
    return TelemetryStore(spans, [], metrics, [alert], make_topology(topo))


def test_recursive_rcl_matches_reference_walk_on_chain():
    store = chain_store(depth=3)
    cfg = fast_config()
    policy = deterministic_policy(cfg)
    runtime = runtime_for(store, cfg)
    candidates, steps = recursive_rcl(store.span("s0"), policy, runtime, Budget())
    visited = [s.span for s in steps]
    ref_visited, ref_candidates = reference_visited(
        store, store.topology, deterministic_policy(cfg), "s0", T0, cfg,
    )
    assert set(visited) == set(ref_visited)
    confirmed = {s.span for s in steps if s.verdict == "ConfirmedRootCause"}
    assert confirmed == ref_candidates
    assert "s3" in confirmed  # the deep slow pod confirms via its metric spike


def test_recursive_rcl_budget_truncates():
    store = chain_store(depth=3)
    cfg = fast_config()
    runtime = runtime_for(store, cfg)
    state = RunState()
    recursive_rcl(
        store.span("s0"), deterministic_policy(cfg), runtime,
        Budget(max_depth=2, max_steps=512), state,
    )
    assert state.truncated
    assert all(s.span != "s3" for s in state.steps)


def test_recursive_rcl_agent_failure_isolates_subtree():
    store = chain_store(depth=2)
    cfg = fast_config()

    class FlakyRuntime(AgentRuntime):
        def metrics(self, component):
            raise RuntimeError("metric backend down")

    runtime = FlakyRuntime(store, store.topology, T0, cfg)
    candidates, steps = recursive_rcl(
        store.span("s0"), deterministic_policy(cfg), runtime, Budget(),
    )
    assert any(s.errored for s in steps)
    # analysis continued: the walk recorded steps beyond the first failure
    assert len(steps) >= 1


# -- stages -------------------------------------------------------------------------


def test_initial_reasoning_withholds_cross_modal_evidence(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    runtime = runtime_for(store, cfg)
    gamma0 = initial_reasoning(
        store.span(alert.entry_span_id), deterministic_policy(cfg), runtime,
        Budget(), alert.alert_id,
    )
    assert gamma0.steps, "walkthrough produces a non-empty frontier"
    for step in gamma0.steps:
        assert step.metric_evidence == ()
        assert step.log_evidence == ()
        assert step.verdict != "ConfirmedRootCause"
    assert runtime.calls["log"] == 0 and runtime.calls["metric"] == 0
    suspects = {s.pod for s in gamma0.suspects}
    assert "recommendationservice2-0" in suspects  # the timeout path


def test_initial_reasoning_healthy_trace_root_only():
    spans = [make_span(span_id="root", cmdb="pod-a", duration=30)]
    for i in range(3):
        spans.append(make_span(
            span_id=f"c{i}", parent="root", cmdb="pod-b", service="svc-b",
            operation=f"svc-b/op{i}", start=T0 + i, duration=9 + i,
        ))
    topo = make_topology({"pod-a": ("svc-a", "n1"), "pod-b": ("svc-b", "n1")})
    store = TelemetryStore(spans, [], [], [], topo)
    cfg = fast_config()
    runtime = runtime_for(store, cfg)
    gamma0 = initial_reasoning(
        store.span("root"), deterministic_policy(cfg), runtime, Budget(), "al",
    )
    assert len(gamma0.steps) == 1
    assert gamma0.suspects == []


def test_initial_step_count_never_exceeds_full_walk(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    runtime = runtime_for(store, cfg)
    gamma0 = initial_reasoning(
        store.span(alert.entry_span_id), deterministic_policy(cfg), runtime,
        Budget(), alert.alert_id,
    )
    full_runtime = runtime_for(store, cfg)
    _, full_steps = recursive_rcl(
        store.span(alert.entry_span_id), deterministic_policy(cfg), full_runtime, Budget(),
    )
    assert len(gamma0.steps) >= len(full_steps)  # confirmation prunes the full walk
    # and a healthy subset relation on visited spans holds the other way
    assert {s.span for s in full_steps} <= {s.span for s in gamma0.steps}


def test_critical_reflection_empty_without_suspects():
    gamma0 = Transcript(alert_id="al", steps=())
    store = chain_store(depth=2)
    cfg = fast_config()
    runtime = runtime_for(store, cfg)
    gamma1 = critical_reflection(gamma0, deterministic_policy(cfg), runtime, Budget())
    assert gamma1.steps == ()


def test_critical_reflection_confirms_deep_fault_and_marks_stage():
    store = chain_store(depth=3)
    cfg = fast_config()
    policy = CountingPolicy(deterministic_policy(cfg))
    runtime = runtime_for(store, cfg)
    gamma0 = initial_reasoning(store.span("s0"), policy, runtime, Budget(), "al-c")
    assert all(s.verdict != "ConfirmedRootCause" for s in gamma0.steps)
    gamma1 = critical_reflection(gamma0, policy, runtime, Budget())
    assert all(s.stage == "Reflection" for s in gamma1.steps)
    confirmed = {s.span for s in gamma1.steps if s.verdict == "ConfirmedRootCause"}
    assert "s3" in confirmed


def test_final_review_makes_no_calls(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    policy = CountingPolicy(deterministic_policy(cfg))
    runtime = runtime_for(store, cfg)
    gamma0 = initial_reasoning(
        store.span(alert.entry_span_id), policy, runtime, Budget(), alert.alert_id,
    )
    gamma1 = critical_reflection(gamma0, policy, runtime, Budget())
    before = (policy.calls, dict(runtime.calls))
    ranking = consolidate(gamma0.steps + gamma1.steps, store.topology, _weights(cfg))
    after = (policy.calls, dict(runtime.calls))
    assert before == after
    assert ranking


def _weights(cfg):
    from rootcause.reasoner import _weights as w
    return w(cfg)


def test_final_review_unions_both_stages():
    topo = make_topology({"pod-a": ("svc-a", "n1"), "pod-b": ("svc-b", "n1")})

    def confirmed_step(index, pod, stage):
        return Step(
            index=index, stage=stage, node=f"{pod}|op", span=f"sp{index}", pod=pod,
            op="op", span_status=13, span_start=T0 + index, instruction="i",
            trace_evidence=(), log_evidence=(), metric_evidence=(),
            verdict="ConfirmedRootCause",
        )

    gamma0 = Transcript("al", [confirmed_step(0, "pod-a", "Initial")])
    gamma1 = Transcript("al", [confirmed_step(1, "pod-b", "Reflection")])
    ranking = consolidate(gamma0.steps + gamma1.steps, topo, _weights(fast_config()))
    got = {(c.level, c.root_cause) for c in ranking}
    assert ("pod", "pod-a") in got and ("pod", "pod-b") in got


def test_final_review_empty_transcripts():
    topo = make_topology({"pod-a": ("svc-a", "n1")})
    gamma0 = Transcript("al", [])
    gamma1 = Transcript("al", [])
    assert consolidate(gamma0.steps + gamma1.steps, topo, _weights(fast_config())) == []


def test_walkthrough_pipeline_ranks_the_service_first(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    analysis = analyze_alert(
        alert, store, store.topology, Memory(dim=cfg.embedding_dim),
        deterministic_policy(cfg), cfg,
    )
    top = analysis.ranking[0]
    assert (top.level, top.root_cause) == ("service", "recommendationservice")


# -- analyze_alert memory paths -------------------------------------------------------


def test_repeat_alert_reuses_with_zero_policy_calls(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    policy = deterministic_policy(cfg)
    first = analyze_alert(alert, store, store.topology, mem, policy, cfg)
    second = analyze_alert(alert, store, store.topology, mem, policy, cfg)
    assert first.decision.kind == "Fresh"
    assert second.decision.kind == "Reuse"
    assert second.counters.policy_calls == 0
    assert second.counters.total_agent_calls == 0
    assert second.ranking.as_rows() == first.ranking.as_rows()


def test_disjoint_alert_is_fresh(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    policy = deterministic_policy(cfg)
    analyze_alert(alert, store, store.topology, mem, policy, cfg)

    other = chain_store(depth=2)
    d = analyze_alert(
        other.alerts[0], other, other.topology, mem, policy, cfg,
    )
    assert d.decision.kind == "Fresh"


def test_memory_disabled_forces_fresh(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    policy = deterministic_policy(cfg)
    a1 = analyze_alert(alert, store, store.topology, None, policy, cfg)
    a2 = analyze_alert(alert, store, store.topology, None, policy, cfg)
    assert a1.decision.kind == a2.decision.kind == "Fresh"
    assert a2.counters.policy_calls == a1.counters.policy_calls > 0


def test_memory_of_another_dim_stores_and_reuses(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    mem = Memory(dim=64, alpha=cfg.alpha)
    assert mem.dim != cfg.embedding_dim
    policy = deterministic_policy(cfg)
    runs = [analyze_alert(alert, store, store.topology, mem, policy, cfg) for _ in range(3)]
    assert [a.decision.kind for a in runs] == ["Fresh", "Reuse", "Reuse"]
    assert not any(a.unsaved for a in runs)
    assert len(mem) == 1 and mem.replacements == 2
    assert runs[-1].counters.policy_calls == 0


# -- windows ---------------------------------------------------------------------------


def test_window_single_alert_equals_alert_ranking(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    window = AlertWindow(alert.timestamp, alert.timestamp + cfg.window_ms, (alert,))
    report = analyze_window(
        window, store, store.topology, Memory(dim=cfg.embedding_dim),
        deterministic_policy(cfg), cfg,
    )
    per_alert = report.analyses[0].ranking
    assert [(c.level, c.root_cause) for c in report.window_ranking] == \
        [(c.level, c.root_cause) for c in per_alert]


def test_window_isolates_per_alert_failures(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    ghost = Alert("ghost", alert.timestamp + 1, "tr-nope", "s0", "no such trace")
    window = AlertWindow(alert.timestamp, alert.timestamp + cfg.window_ms,
                         (alert, ghost))
    report = analyze_window(window, store, store.topology,
                            Memory(dim=cfg.embedding_dim),
                            deterministic_policy(cfg), cfg)
    assert [a.alert_id for a in report.analyses] == [alert.alert_id]
    assert [f["alert_id"] for f in report.failures] == ["ghost"]
    assert report.window_ranking  # the healthy alert still produced a ranking


def test_window_reciprocal_rank_sum():
    from rootcause.agents import Candidate, RootCauseRanking

    def ranking(first, second):
        return RootCauseRanking([
            Candidate("pod", first, "r", [0], 2.0, T0),
            Candidate("pod", second, "r", [1], 1.0, T0 + 1),
        ])

    merged = aggregate_rankings([
        ranking("X", "Y"), ranking("X", "Z"), ranking("X", "Y"),
    ])
    assert merged[0].root_cause == "X"
    assert merged[0].score == pytest.approx(3.0)


def test_window_convergence_on_shared_service():
    # three alerts implicate one service through different pods; a fourth
    # errors on an unrelated component; the converged service wins the window
    topo = make_topology({
        "checkout-0": ("checkout", "n1"), "checkout-1": ("checkout", "n1"),
        "checkout-2": ("checkout", "n2"), "cart-0": ("cart", "n2"),
        "email-0": ("emailservice", "n3"), "email-1": ("emailservice", "n3"),
        "email-2": ("emailservice", "n4"), "currency-1": ("currencyservice", "n4"),
    })
    spans, metrics, logs, alerts = [], [], [], []
    from rootcause.telemetry import Alert

    lo = T0 - 9 * 60_000
    for k in range(3):
        t = T0 + k * 1_000
        spans.append(make_span(
            trace_id=f"tr{k}", span_id=f"r{k}", cmdb=f"checkout-{k}",
            service="checkout", operation="Checkout/Place", start=t, duration=5_000,
        ))
        spans.append(make_span(
            trace_id=f"tr{k}", span_id=f"e{k}", parent=f"r{k}", cmdb=f"email-{k}",
            service="emailservice", operation="EmailService/Send", start=t + 2,
            duration=4_900, status=13,
        ))
        spans.append(make_span(
            trace_id=f"tr{k}", span_id=f"d{k}", parent=f"r{k}", cmdb="cart-0",
            service="cart", operation="Cart/Get", start=t + 3, duration=10,
        ))
        metrics += cycle_series(f"email-{k}", "rt_ms", 100.0, 2.0, lo, T0 + 40_000,
                                shift=2.95, shift_lo=T0 - 30_000, shift_hi=T0 + 40_000)
        alerts.append(Alert(f"al-{k}", t, f"tr{k}", f"r{k}", "slow checkout"))
    metrics += cycle_series("emailservice", "err_rate", 2.0, 0.5, lo, T0 + 40_000,
                            shift=2.68, shift_lo=T0 - 30_000, shift_hi=T0 + 40_000)
    metrics += cycle_series("cart-0", "rt_ms", 100.0, 2.0, lo, T0 + 40_000)

    spans.append(make_span(
        trace_id="tr9", span_id="r9", cmdb="currency-1", service="currencyservice",
        operation="Currency/Recv", start=T0 + 5_000, duration=20, status=13,
    ))
    logs += [
        LogEntry(T0 + 5_000 + i, "currency-1", "ERROR", "conv_err", "bad rate")
        for i in range(3)
    ]
    alerts.append(Alert("al-9", T0 + 5_000, "tr9", "r9", "currency errors"))

    store = TelemetryStore(spans, logs, metrics, alerts, topo)
    cfg = fast_config()
    window = AlertWindow(T0, T0 + cfg.window_ms, tuple(store.alerts))
    report = analyze_window(window, store, topo, Memory(dim=cfg.embedding_dim),
                            deterministic_policy(cfg), cfg)
    assert not report.failures
    ranking = report.window_ranking
    assert (ranking[0].level, ranking[0].root_cause) == ("service", "emailservice")
    isolated = ranking.rank_of("pod", "currency-1")
    assert isolated is not None and isolated > 1


def test_memory_store_failure_flags_unsaved(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()

    class BrokenMemory(Memory):
        def store(self, entry):
            raise OSError("disk full")

    analysis = analyze_alert(alert, store, store.topology,
                             BrokenMemory(dim=cfg.embedding_dim),
                             deterministic_policy(cfg), cfg)
    assert analysis.unsaved
    assert analysis.ranking  # the ranking survived the write failure


def test_window_scoring_permutation_invariant():
    # with memory disabled the aggregate is a pure fold over per-alert
    # rankings, so alert order cannot change window-level scores
    cfg = fast_config()
    from rootcause.scenario import ScenarioSpec, generate

    sc = generate(ScenarioSpec(fault_kind="ErrorStatus", seed=12, victims=2))
    store = sc.to_store()
    from rootcause.telemetry import windows_from_alerts

    window = windows_from_alerts(store.alerts, cfg.window_ms)[0]
    report = analyze_window(window, store, sc.topology, None,
                            deterministic_policy(cfg), cfg)
    rankings = [a.ranking for a in report.analyses]
    forward = aggregate_rankings(rankings).as_rows()
    backward = aggregate_rankings(list(reversed(rankings))).as_rows()
    assert forward == backward


def test_transcript_export_replay_round_trip(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    analysis = analyze_alert(
        alert, store, store.topology, Memory(dim=cfg.embedding_dim),
        deterministic_policy(cfg), cfg,
    )
    text = export_transcript(analysis, store.topology)
    transcript, topology, stored_rows = read_transcript(text)
    recomputed = replay_transcript(transcript, topology, cfg)
    assert recomputed.as_rows() == stored_rows
    assert json.loads(text)["alert_id"] == alert.alert_id


def test_budget_truncation_is_reported_exported_stored_and_reused(walkthrough, tmp_path):
    store, alert = walkthrough
    cfg = fast_config(max_steps=2)
    mem = Memory(dim=cfg.embedding_dim)
    fresh = analyze_alert(alert, store, store.topology, mem, deterministic_policy(cfg), cfg)
    assert fresh.decision.kind == "Fresh"
    markers = fresh.transcript.stage_markers
    assert markers["truncated_initial"] == 1
    text = export_transcript(fresh, store.topology)
    assert json.loads(text)["stage_markers"] == markers
    transcript, topology, stored_rows = read_transcript(text)
    recomputed = replay_transcript(transcript, topology, cfg)
    assert recomputed.as_rows() == stored_rows

    mem.persist(tmp_path / "memory.jsonl")
    loaded = Memory.load(tmp_path / "memory.jsonl")
    assert loaded.by_alert(alert.alert_id).transcript.stage_markers == markers
    reuse = analyze_alert(alert, store, store.topology, loaded, deterministic_policy(cfg), cfg)
    assert reuse.decision.kind == "Reuse"
    assert reuse.transcript.stage_markers == markers


def test_render_transcript_separates_flags_with_comma_space(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    analysis = analyze_alert(
        alert, store, store.topology, Memory(dim=cfg.embedding_dim),
        deterministic_policy(cfg), cfg,
    )
    steps = tuple(dataclasses.replace(s, stale=i == 0, errored=i == 0)
                  for i, s in enumerate(analysis.transcript.steps))
    analysis = dataclasses.replace(
        analysis, transcript=dataclasses.replace(analysis.transcript, steps=steps))
    transcript, _, rows = read_transcript(export_transcript(analysis, store.topology))
    lines = render_transcript(transcript, rows).splitlines()
    flagged = [ln for ln in lines if "[stale" in ln]
    assert len(flagged) == 1
    assert flagged[0].endswith(" [stale, errored]")


def test_an_analysis_cannot_edit_the_transcript_its_memory_stored(walkthrough):
    store, alert = walkthrough
    cfg = fast_config()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    first = analyze_alert(alert, store, store.topology, mem, deterministic_policy(cfg), cfg)
    steps = first.transcript.steps
    assert steps and mem.by_alert(alert.alert_id).transcript is first.transcript
    with pytest.raises(AttributeError):
        first.transcript.steps.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.transcript.steps = ()
    again = analyze_alert(alert, store, store.topology, mem, deterministic_policy(cfg), cfg)
    assert again.decision.kind == "Reuse"
    assert again.transcript.steps == steps


# Output digests of the three bands on acceptance 05's scenario: any change
# to a ranking, counter, transcript or stored byte of a band shows here.
BAND_DIGESTS = {
    "Fresh": ("ba64ff0471a2f497ba8570bc5089f3310b235c83949e1420350db4e8000d9209",
              "1da59cf00437fea9905b3b69bfd119acdb46c6c8bb10197b7ebed6f91a7acf02"),
    "Resume": ("7939a2d11df06794131987f62beb3f22610ba51b4c2615b4806c6b82e0259e74",
               "b573136851673e65c8fed2529b46d927160c51a872f2f78b73a4515b5fda5396"),
    "Reuse": ("2ebcf47168358eb146a5cbe9ecc163a078b114ef4481b35384a5805900835141",
              "b573136851673e65c8fed2529b46d927160c51a872f2f78b73a4515b5fda5396"),
}
PERSISTED_DIGEST = "75d4d439f53579f97228d205f528bbff6dd854d0146c0a7be671a681d4c74319"


def test_three_bands_keep_their_output_bytes_and_work(tmp_path, monkeypatch):
    calls = {"reflection": 0, "ranking": 0}

    def counted(fn, kind):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reasoner, "critical_reflection",
                        counted(reasoner.critical_reflection, "reflection"))
    monkeypatch.setattr(reasoner, "consolidate", counted(reasoner.consolidate, "ranking"))

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    cfg = Config(baseline_minutes=5.0)
    scenario = generate(ScenarioSpec(fault_kind="MetricSpike", seed=77, victims=1))
    dup = duplicate_alerts(scenario, copies=1, jitter=JitterSpec())
    store = dup.to_store()
    base_alert = scenario.alerts[0]
    jittered_alert = next(a for a in store.alerts if a.timestamp != base_alert.timestamp)
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    got, work = {}, {}
    # The jittered graph shares the base graph's fingerprint, so storing it
    # replaces the base entry: the jittered alert, seen again, is the Reuse.
    for alert in (base_alert, jittered_alert, jittered_alert):
        before = dict(calls)
        a = analyze_alert(alert, store, dup.topology, mem, deterministic_policy(cfg), cfg)
        work[a.decision.kind] = {k: calls[k] - before[k] for k in calls}
        got[a.decision.kind] = (
            sha(json.dumps(a.as_dict(include_timing=False), sort_keys=True)),
            sha(export_transcript(a, dup.topology)),
        )
    mem.persist(tmp_path / "memory.jsonl")
    assert list(got) == ["Fresh", "Resume", "Reuse"]
    assert got == BAND_DIGESTS
    # A Reuse costs a remap only: reflection runs only with seeds, and the
    # remap marks no step stale, so the stored ranking stands.
    assert work == {
        "Fresh": {"reflection": 1, "ranking": 1},
        "Resume": {"reflection": 1, "ranking": 1},
        "Reuse": {"reflection": 0, "ranking": 0},
    }
    assert sha((tmp_path / "memory.jsonl").read_text(encoding="utf-8")) == PERSISTED_DIGEST


# -- a Reuse keeps the stored ranking only when consolidate would rebuild it ----


def _counted_consolidate(monkeypatch):
    calls = []
    real = reasoner.consolidate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reasoner, "consolidate", counted)
    return calls


def _analyze(alert, store, topology, mem, cfg, calls):
    """One analysis, the consolidate calls it made, and its ranking rows
    against those ``consolidate`` gives its transcript."""
    before = len(calls)
    a = analyze_alert(alert, store, topology, mem, deterministic_policy(cfg), cfg)
    want = consolidate(a.transcript.steps, topology, reasoner._weights(cfg)).as_rows()
    assert a.ranking.as_rows() == want
    return a, len(calls) - before


def test_a_reuse_keeps_the_stored_ranking_unless_remap_marks_a_step_stale(monkeypatch):
    calls = _counted_consolidate(monkeypatch)
    store = generate(ScenarioSpec(fault_kind="MetricSpike", seed=1, victims=3)).to_store()
    cfg = fast_config(tau_skip=0.0, tau_partial=0.0)  # every match is a Reuse
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    runs = [_analyze(alert, store, store.topology, mem, cfg, calls) for alert in store.alerts]
    kinds = [a.decision.kind for a, _ in runs]
    stale = [sum(s.stale for s in a.transcript.steps) for a, _ in runs]
    assert kinds == ["Fresh", "Reuse", "Reuse"] and stale == [0, 2, 2]
    # The second remap marks steps stale, so it consolidates; the third keeps
    # every stored stale flag, so the stored ranking stands.
    assert [n for _, n in runs] == [1, 1, 0]
    runs[2][0].ranking.clear()  # an analysis's ranking is its own list
    again, n = _analyze(store.alerts[2], store, store.topology, mem, cfg, calls)
    assert n == 0 and again.ranking.as_rows() == runs[1][0].ranking.as_rows() != []


def test_a_reuse_of_a_loaded_entry_consolidates(walkthrough, tmp_path, monkeypatch):
    store, alert = walkthrough
    calls = _counted_consolidate(monkeypatch)
    cfg = fast_config()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    _analyze(alert, store, store.topology, mem, cfg, calls)
    mem.persist(tmp_path / "memory.jsonl")
    loaded = Memory.load(tmp_path / "memory.jsonl")
    reuse, n = _analyze(alert, store, store.topology, loaded, cfg, calls)
    assert reuse.decision.kind == "Reuse" and n == 1
    reuse, n = _analyze(alert, store, store.topology, loaded, cfg, calls)
    assert reuse.decision.kind == "Reuse" and n == 0  # stored with its ranking now


def test_a_reuse_under_another_topology_object_consolidates(walkthrough, monkeypatch):
    store, alert = walkthrough
    calls = _counted_consolidate(monkeypatch)
    cfg = fast_config()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    _analyze(alert, store, store.topology, mem, cfg, calls)
    equal = Topology(dict(store.topology.pod_to_service), dict(store.topology.pod_to_node))
    assert equal == store.topology and equal is not store.topology
    reuse, n = _analyze(alert, store, equal, mem, cfg, calls)
    assert reuse.decision.kind == "Reuse" and n == 1


def test_a_reuse_under_other_score_weights_consolidates(walkthrough, monkeypatch):
    store, alert = walkthrough
    calls = _counted_consolidate(monkeypatch)
    cfg = fast_config()
    mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
    fresh, _ = _analyze(alert, store, store.topology, mem, cfg, calls)
    reuse, n = _analyze(alert, store, store.topology, mem, fast_config(w_metric=2.0), calls)
    assert reuse.decision.kind == "Reuse" and n == 1
    assert reuse.ranking.as_rows() != fresh.ranking.as_rows()
