#!/usr/bin/env python3
"""Show the graph machinery that keys the reasoning memory.

Each alert becomes an attributed causal graph; topology hashes to a
canonical fingerprint, a deterministic feature embedding supports
nearest-neighbor retrieval, and the similarity score blends structure
with node-attribute agreement. Divergence picks out exactly the nodes
whose telemetry moved.

    python demos/02_graph_keys_and_similarity.py
"""

from rootcause import Config
from rootcause.graph import (
    divergence,
    embed,
    extract,
    fingerprint,
    similarity,
    to_text,
)
from rootcause.scenario import JitterSpec, ScenarioSpec, duplicate_alerts, generate

cfg = Config()
scenario = generate(ScenarioSpec(fault_kind="MetricSpike", seed=3, victims=1))
dup = duplicate_alerts(scenario, copies=2, jitter=JitterSpec())
store = dup.to_store()

base = scenario.alerts[0]
g0 = extract(base, store, dup.topology, cfg.window_ms)

print("=== canonical graph text (alert", base.alert_id, ") ===")
print(to_text(g0))

print("fingerprint:", fingerprint(g0))
vec = embed(g0, cfg.embedding_dim).vector
print(f"embedding: dim={len(vec)}, norm={float((vec ** 2).sum()) ** 0.5:.6f}, "
      f"{int((vec != 0).sum())} active buckets")

clones = [a for a in dup.alerts if a.alert_id != base.alert_id]
for alert in clones:
    g = extract(alert, store, dup.topology, cfg.window_ms)
    s = similarity(g, g0, cfg.alpha)
    same_fp = fingerprint(g) == fingerprint(g0)
    moved = divergence(g, g0, cfg.delta)
    band = ("reuse" if s >= cfg.tau_skip else
            "resume" if s >= cfg.tau_partial else "fresh")
    print(f"\n{alert.alert_id}: same fingerprint={same_fp}, "
          f"similarity={s:.4f} -> {band} band")
    if moved:
        print("  divergent nodes:", sorted(moved))
        print(f"  (the injected fault sits at {scenario.truth[0]}:{scenario.truth[1]})")
