"""The four benchmark workloads: their inputs, their passes and their checks.

A workload's inputs are telemetry CSV directories plus, for
``warm-memory``, a persisted memory file. ``prepare`` writes them (in a
child process, so input generation never counts toward the measuring
process's peak memory) and returns a manifest. One *pass* replays the
whole workload: set-up (ingest, plus ``Memory.load`` where the workload
starts from a persisted memory), every alert window through
``reasoner.analyze_window`` with one memory per window, and
``Memory.persist`` where the workload persists. A run repeats passes.

Why these workloads (see README.md for the numbers):

- ``storm``: ROADMAP's larger scenario, 20 distinct alerts each cloned 9
  times. Graph keying, ``decide``, ``remap`` and ``consolidate`` do the
  work; the memory stays near 20 entries and the walk runs 20 times.
- ``fresh``: distinct alerts over all five fault kinds. Extraction, the
  walk, the agents and consolidation do the work; memory almost never
  matches. A keying or memory optimisation should leave it unchanged.
- ``warm-memory``: the CLI's persistent ``--memory`` rerun. Hundreds of
  stored graphs make ``decide``, ``load`` and ``persist`` dominate.
- ``remote``: the acceptance-08 storm behind a 50 ms-per-call policy, so
  waiting on the policy dominates and pure-compute changes barely move it.

``storm``, ``remote`` and the stored part of ``warm-memory`` are pinned
scenarios: between scenario seeds the cost of one storm alert differs by
up to 1.7x and the policy calls per remote alert by 3x, which would make
the run-to-run spread the scenario's rather than the code's. The run seed
draws the ``warm-memory`` stream and the whole ``fresh`` corpus, from one of
``REFERENCE_SEEDS`` input seeds (the run seed modulo that count), so that
every run has a recorded reference outcome to be checked against.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from rootcause import reasoner
from rootcause.config import Config
from rootcause.memory import Memory
from rootcause.reasoner import PolicyContract
from rootcause.scenario import FAULT_KINDS, ScenarioSpec, duplicate_alerts, generate

WORKLOADS = ("storm", "fresh", "warm-memory", "remote")
REFERENCE_SEEDS = 32  # input seeds with a reference outcome in expected.json


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``tiny`` is the smoke-test scale."""

    storm: ScenarioSpec
    storm_copies: int
    fresh_seeds_per_kind: int
    fresh: ScenarioSpec
    warm: ScenarioSpec
    warm_stored: int  # alerts analysed into the persisted memory
    warm_stream: tuple[int, int]  # (stored hits, new graphs) per pass
    remote: ScenarioSpec
    remote_copies: int
    remote_latency_ms: float
    min_alerts: int


FULL = Sizes(
    storm=ScenarioSpec(services=30, pods_per_service=4, depth=5, fault_kind="LogBurst",
                       seed=3, traces=400, victims=20, baseline_minutes=15),
    storm_copies=9,
    fresh_seeds_per_kind=7,
    fresh=ScenarioSpec(services=12, depth=5, victims=6, baseline_minutes=3),
    warm=ScenarioSpec(services=30, pods_per_service=4, depth=5, fault_kind="LogBurst",
                      seed=11, traces=40, victims=800),
    warm_stored=600,
    warm_stream=(140, 60),
    remote=ScenarioSpec(services=8, depth=4, fault_kind="MetricSpike", seed=55,
                        traces=6, victims=5),
    remote_copies=39,
    remote_latency_ms=50.0,
    min_alerts=200,
)

TINY = Sizes(
    storm=ScenarioSpec(services=6, depth=3, fault_kind="LogBurst", seed=3, traces=6, victims=2),
    storm_copies=2,
    fresh_seeds_per_kind=1,
    fresh=ScenarioSpec(services=6, depth=3, victims=2),
    warm=ScenarioSpec(services=8, depth=3, fault_kind="LogBurst", seed=11, traces=6, victims=12),
    warm_stored=8,
    warm_stream=(3, 3),
    remote=ScenarioSpec(services=8, depth=4, fault_kind="MetricSpike", seed=55,
                        traces=6, victims=5),
    remote_copies=2,
    remote_latency_ms=1.0,
    min_alerts=1,
)


def sizes(tiny: bool) -> Sizes:
    return TINY if tiny else FULL


def input_seed(workload: str, seed: int) -> int | None:
    """The seed the workload's inputs are drawn from; None where the inputs
    are pinned and do not depend on the run seed."""
    return seed % REFERENCE_SEEDS if workload in ("fresh", "warm-memory") else None


class SleepPolicy(PolicyContract):
    """Simulated remote policy: sleeps a fixed time, then delegates."""

    def __init__(self, inner: PolicyContract, latency_ms: float):
        self.inner = inner
        self.latency_s = latency_ms / 1000.0

    def wait(self) -> None:
        time.sleep(self.latency_s)

    def generate_instruction(self, span, context):
        self.wait()
        return self.inner.generate_instruction(span, context)

    def suspect(self, span, trace_evidence):
        self.wait()
        return self.inner.suspect(span, trace_evidence)

    def confirm(self, span, log_evidence, metric_evidence):
        self.wait()
        return self.inner.confirm(span, log_evidence, metric_evidence)

    def suspicious_children(self, span, trace_evidence):
        self.wait()
        return self.inner.suspicious_children(span, trace_evidence)


def make_policy(manifest: dict, config: Config) -> PolicyContract:
    policy = reasoner.deterministic_policy(config)
    if manifest["latency_ms"] > 0:
        policy = SleepPolicy(policy, manifest["latency_ms"])
    return policy


# -- inputs -------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of the engine sources and this file; keys the input cache."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "rootcause").rglob("*.py")) + [Path(__file__)]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare(workload: str, seed: int, tiny: bool, root: Path, work: Path) -> dict:
    """Write (or reuse) the workload's inputs and return their manifest.

    The seed-independent inputs of storm, remote and warm-memory are built
    by the first run of that workload in a checkout and cached under
    ``work/cache`` by source digest. ``fresh`` inputs are kept for the most
    recent seed only.
    """
    scale = "tiny" if tiny else "full"
    digest = source_digest(root)[:16]
    seed = input_seed(workload, seed)
    if workload == "fresh":
        out = _build(workload, seed, tiny, root, work / "inputs",
                     f"{workload}-{scale}-{seed}-{digest}")
    else:
        out = _build(workload, 0, tiny, root, work / "cache", f"{workload}-{scale}-{digest}")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for group in manifest["groups"]:
        group["dir"] = str(out / group["dir"])
    if manifest.get("memory_file"):
        manifest["memory_file"] = str(out / manifest["memory_file"])
    if workload == "warm-memory":
        size = sizes(tiny)
        rng = random.Random(seed)
        stored, new = manifest["stored_alerts"], manifest["new_alerts"]
        hits, fresh = size.warm_stream
        manifest["groups"][0]["alerts"] = sorted(rng.sample(stored, hits) + rng.sample(new, fresh))
        manifest["hit_alerts"] = sorted(set(manifest["groups"][0]["alerts"]) & set(stored))
    return manifest


def _build(workload: str, seed: int, tiny: bool, root: Path, parent: Path, name: str) -> Path:
    """Generate inputs into ``parent/name`` in a child process unless they
    exist; drops the workload's inputs for other seeds or sources."""
    out = parent / name
    scale = "tiny" if tiny else "full"
    if parent.is_dir():
        for old in parent.glob(f"{workload}-{scale}-*"):
            if old != out:
                shutil.rmtree(old)
    if (out / "manifest.json").exists():
        return out
    if out.exists():
        shutil.rmtree(out)
    tmp = out.with_name(out.name + ".tmp")
    cmd = [sys.executable, str(Path(__file__).with_name("inputs.py")),
           workload, str(seed), str(tmp), str(root / "src")]
    if tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, check=True, timeout=840)
    tmp.rename(out)
    return out


def write_inputs(workload: str, seed: int, out: Path, tiny: bool) -> None:
    """Generate the workload's scenarios as CSV directories plus manifest."""
    size = sizes(tiny)
    out.mkdir(parents=True)
    groups: list[dict] = []
    manifest = {"workload": workload, "seed": seed, "groups": groups,
                "memory_file": None, "latency_ms": 0.0}

    def add(scenario, name: str) -> None:
        scenario.write(out / name)
        groups.append({"dir": name, "truth": list(scenario.truth), "alerts": None})

    if workload == "storm":
        add(duplicate_alerts(generate(size.storm), copies=size.storm_copies), "storm")
    elif workload == "remote":
        add(duplicate_alerts(generate(size.remote), copies=size.remote_copies), "remote")
        manifest["latency_ms"] = size.remote_latency_ms
    elif workload == "fresh":
        for kind in FAULT_KINDS:
            for k in range(size.fresh_seeds_per_kind):
                scenario_seed = seed * size.fresh_seeds_per_kind + k
                spec = ScenarioSpec(**{**size.fresh.__dict__, "fault_kind": kind,
                                       "seed": scenario_seed})
                add(generate(spec), f"{kind}-{scenario_seed}")
    elif workload == "warm-memory":
        scenario = generate(size.warm)
        add(scenario, "warm")
        ordered = sorted(scenario.alerts, key=lambda a: (a.timestamp, a.alert_id))
        stored = ordered[:size.warm_stored]
        manifest["new_alerts"] = [a.alert_id for a in ordered[size.warm_stored:]]
        config = Config()
        store = scenario.to_store()
        mem = Memory(dim=config.embedding_dim, alpha=config.alpha)
        policy = reasoner.deterministic_policy(config)
        for alert in stored:
            reasoner.analyze_alert(alert, store, store.topology, mem, policy, config)
        # An entry replaced by a later alert of the same fingerprint may sit
        # on other pods, so only alerts whose own entry survived are hits.
        manifest["stored_alerts"] = [a.alert_id for a in stored if mem.by_alert(a.alert_id)]
        mem.persist(out / "memory.jsonl")
        manifest["memory_file"] = "memory.jsonl"
        manifest["stored_entries"] = len(mem)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
