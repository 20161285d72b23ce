from pathlib import Path

import pytest

from rootcause.agents import log_agent, metric_agent
from rootcause.config import Config
from rootcause.errors import ConfigError
from rootcause.graph import divergence, extract, fingerprint, similarity
from rootcause.scenario import (
    FAULT_KINDS,
    JitterSpec,
    Scenario,
    ScenarioSpec,
    duplicate_alerts,
    generate,
    load_truth,
)


def spec_for(kind, seed=0, **overrides):
    return ScenarioSpec(fault_kind=kind, seed=seed, **overrides)


def dir_snapshot(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_generation_is_byte_deterministic(tmp_path, kind):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate(spec_for(kind, seed=7)).write(a_dir)
    generate(spec_for(kind, seed=7)).write(b_dir)
    assert dir_snapshot(a_dir) == dir_snapshot(b_dir)


def test_truth_file_round_trip(tmp_path):
    sc = generate(spec_for("LatencyInflation", seed=3))
    sc.write(tmp_path)
    level, component, kind, seed = load_truth(tmp_path)
    assert (level, component) == sc.truth
    assert kind == "LatencyInflation" and seed == 3


def test_alerts_fire_only_for_victim_traces():
    sc = generate(spec_for("MetricSpike", seed=1))
    assert sc.alerts, "fault must raise at least one alert"
    for a in sc.alerts:
        assert a.trace_id.startswith("vt")
    # and every victim trace alerted
    victim_traces = {s.trace_id for s in sc.spans if s.trace_id.startswith("vt")}
    assert {a.trace_id for a in sc.alerts} == victim_traces


def test_metric_spike_hits_truth_and_only_truth():
    sc = generate(spec_for("MetricSpike", seed=2))
    store = sc.to_store()
    t0 = sc.alerts[0].timestamp
    truth_pod = sc.truth[1]
    hits = metric_agent(store, sc.topology, t0, 30_000, truth_pod, n=3.0,
                        baseline_ms=6 * 60_000)
    assert any(a.component == truth_pod and a.metric == "cpu_pct" for a in hits)
    for pod in sorted(sc.topology.pod_to_service):
        if pod == truth_pod:
            continue
        assert metric_agent(store, sc.topology, t0, 30_000, pod, n=3.0,
                            baseline_ms=6 * 60_000) == []


def test_error_status_on_path_to_truth():
    sc = generate(spec_for("ErrorStatus", seed=4))
    store = sc.to_store()
    truth_pod = sc.truth[1]
    for alert in sc.alerts:
        trace = store.trace(alert.trace_id)
        errored = [s for s in trace if s.status_code == 13]
        assert errored, "alerted trace must carry the injected status"
        # the error chain reaches the truth pod
        assert any(s.cmdb_id == truth_pod for s in errored)
        # and the chain is connected up to the root
        by_id = {s.span_id: s for s in trace}
        for s in errored:
            if s.parent_span_id is not None:
                assert by_id[s.parent_span_id].status_code == 13


def test_log_burst_injects_at_least_twenty_errors():
    sc = generate(spec_for("LogBurst", seed=5))
    store = sc.to_store()
    truth_pod = sc.truth[1]
    t0 = sc.alerts[0].timestamp
    got = log_agent(store, t0, 30_000, truth_pod, topology=sc.topology)
    own_errors = [e for e in got if e.component == truth_pod and e.level == "ERROR"]
    assert len(own_errors) >= 20


def test_node_degradation_surfaces_node_metric_via_pod_scope():
    sc = generate(spec_for("NodeDegradation", seed=6))
    assert sc.truth[0] == "node"
    store = sc.to_store()
    node = sc.truth[1]
    pods = sc.topology.pods_on_node(node)
    assert len(pods) >= 2
    t0 = sc.alerts[0].timestamp
    victim_pod = next(
        s.cmdb_id for s in store.trace(sc.alerts[0].trace_id) if s.cmdb_id in pods
    )
    hits = metric_agent(store, sc.topology, t0, 30_000, victim_pod, n=3.0,
                        baseline_ms=6 * 60_000)
    assert any(a.component == node for a in hits)


def test_background_components_quiet_at_three_sigma():
    sc = generate(spec_for("LatencyInflation", seed=8))
    store = sc.to_store()
    t0 = sc.alerts[0].timestamp
    shifted = {sc.truth[1]}
    for comp in sorted(sc.topology.services | sc.topology.nodes):
        hits = metric_agent(store, sc.topology, t0, 30_000, comp, n=3.0,
                            baseline_ms=6 * 60_000)
        assert all(a.component in shifted for a in hits), comp


def test_unsatisfiable_spec_rejected():
    with pytest.raises(ConfigError):
        generate(ScenarioSpec(services=1))
    with pytest.raises(ConfigError):
        generate(ScenarioSpec(fault_kind="Gremlins"))
    with pytest.raises(ConfigError):
        # depth larger than there are services to fill layers
        generate(ScenarioSpec(services=2, depth=4, fault_layer=3))


# -- duplicate_alerts -----------------------------------------------------------------


def test_zero_jitter_clones_share_fingerprint():
    sc = generate(spec_for("MetricSpike", seed=9, victims=1))
    dup = duplicate_alerts(sc, copies=10)
    assert len(dup.alerts) == len(sc.alerts) * 11
    store = dup.to_store()
    base_alert = sc.alerts[0]
    fam = [a for a in dup.alerts if a.alert_id.startswith(base_alert.alert_id)]
    prints = {fingerprint(extract(a, store, dup.topology)) for a in fam}
    assert len(prints) == 1
    g0 = extract(base_alert, store, dup.topology)
    for a in fam[1:]:
        g = extract(a, store, dup.topology)
        assert similarity(g, g0, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_single_copy_keeps_original_plus_one_clone():
    sc = generate(spec_for("LogBurst", seed=10, victims=1))
    dup = duplicate_alerts(sc, copies=1)
    assert len(dup.alerts) == 2 * len(sc.alerts)
    assert {a.alert_id for a in sc.alerts} <= {a.alert_id for a in dup.alerts}


def test_jittered_clone_lands_in_resume_band():
    cfg = Config()
    sc = generate(spec_for("MetricSpike", seed=11, victims=1))
    dup = duplicate_alerts(sc, copies=10, jitter=JitterSpec(shift_sigma=12.0))
    store = dup.to_store()
    base = sc.alerts[0]
    g0 = extract(base, store, dup.topology, cfg.window_ms)

    fam = sorted(
        (a for a in dup.alerts if a.alert_id.startswith(base.alert_id + "~")),
        key=lambda a: a.alert_id,
    )
    jittered = [a for a in fam if a.timestamp != base.timestamp]
    assert len(jittered) == 1
    plain = [a for a in fam if a.timestamp == base.timestamp]
    assert len(plain) == 9

    for a in plain:
        g = extract(a, store, dup.topology, cfg.window_ms)
        assert similarity(g, g0, cfg.alpha) >= cfg.tau_skip

    g_j = extract(jittered[0], store, dup.topology, cfg.window_ms)
    s = similarity(g_j, g0, cfg.alpha)
    assert cfg.tau_partial <= s < cfg.tau_skip
    moved = divergence(g_j, g0, cfg.delta)
    truth_nodes = {nid for nid in g_j.nodes if g_j.nodes[nid].pod_id == sc.truth_pod}
    assert moved == truth_nodes
