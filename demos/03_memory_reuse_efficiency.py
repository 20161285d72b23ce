#!/usr/bin/env python3
"""Measure what the reasoning memory saves on a homogeneous alert storm.

Fifty alerts, forty-five of them near-duplicates of five distinct ones.
With memory on, only the representatives get a full analysis; the rest
reuse or resume stored transcripts. The policy is wrapped in a latency
shim so every judgment call costs 50 ms, mimicking a remote model.

    python demos/03_memory_reuse_efficiency.py
"""

import time

from rootcause import Config, windows_from_alerts
from rootcause.memory import Memory
from rootcause.reasoner import CountingPolicy, analyze_window, deterministic_policy
from rootcause.scenario import ScenarioSpec, duplicate_alerts, generate

cfg = Config(baseline_minutes=5.0)
scenario = generate(ScenarioSpec(
    services=8, depth=4, fault_kind="MetricSpike", seed=55, traces=6, victims=5,
))
dup = duplicate_alerts(scenario, copies=9)
store = dup.to_store()
window = windows_from_alerts(store.alerts, cfg.window_ms)[0]
print(f"window holds {len(window.alerts)} alerts "
      f"({len(scenario.alerts)} distinct, rest near-duplicates)")

policy = CountingPolicy(deterministic_policy(cfg), latency_ms=50.0)

print("\n=== memory ON ===")
t0 = time.perf_counter()
mem = Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
on = analyze_window(window, store, dup.topology, mem, policy, cfg)
wall_on = time.perf_counter() - t0
print(f"decisions: {on.decision_histogram}")
print(f"policy calls: {on.total_policy_calls}, wall: {wall_on:.1f}s")

print("\n=== memory OFF ===")
t0 = time.perf_counter()
off = analyze_window(window, store, dup.topology, None, policy, cfg)
wall_off = time.perf_counter() - t0
print(f"decisions: {off.decision_histogram}")
print(f"policy calls: {off.total_policy_calls}, wall: {wall_off:.1f}s")

print(f"\npolicy-call ratio: {on.total_policy_calls / off.total_policy_calls:.3f}")
print(f"speedup: {wall_off / wall_on:.1f}x")
top_on, top_off = on.window_ranking[0], off.window_ranking[0]
print(f"same top candidate either way: "
      f"{(top_on.level, top_on.root_cause) == (top_off.level, top_off.root_cause)} "
      f"({top_on.level}:{top_on.root_cause}; truth {scenario.truth[0]}:{scenario.truth[1]})")
