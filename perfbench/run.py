"""rootcause benchmark: one workload per run, metrics on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload storm --seed 1 --seconds 25 --trace 0

Workloads: storm, fresh, warm-memory, remote (see workloads.py). The run
repeats whole passes over the workload until ``--seconds`` have elapsed,
checks every pass's outputs, and prints a human-readable report followed
by one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. ``--record`` runs one pass and stores its
decision counts, recall and output digest in expected.json as the
reference later runs of the same seed must match. ``--tiny`` shrinks
every workload for the smoke test. Inputs, spans and result files go to
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
BANDS = ("Fresh", "Reuse", "Resume")
SETUP_MIN_S = 0.5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--record", action="store_true",
                   help="run one pass and store its reference outcome in expected.json")
    return p.parse_args(argv)


def main(argv=None, root: Path | None = None, work: Path | None = None) -> int:
    args = parse_args(argv)
    root = (root or Path.cwd()).resolve()
    src = root / "src"
    if not (src / "rootcause" / "__init__.py").is_file():
        print(f"error: no engine sources at {src / 'rootcause'}; run from the repository root",
              file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = (work or root / ".bench_build" / "perfbench").resolve()
    manifest = workloads.prepare(args.workload, args.seed, args.tiny, root, work)
    bench = Bench(args, manifest, work)
    if args.record:
        return bench.record()
    result = bench.run()
    bench.report(result, root)
    return 0 if result["correct"] else 1


class Bench:
    def __init__(self, args, manifest: dict, work: Path):
        import tracing
        import workloads
        from rootcause.config import Config

        self.args = args
        self.manifest = manifest
        self.work = work
        self.config = Config()
        self.policy = workloads.make_policy(manifest, self.config)
        self.tracer = tracing.Tracer()
        self.size = workloads.sizes(args.tiny)

    # -- one pass ----------------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        """Replay the whole workload once through ``reasoner.analyze_window``.

        Set-up is timed here; each alert is timed by ``analyze_alert`` with
        the clock passed to ``analyze_window`` (its ``wall_ms``)."""
        from rootcause import memory, reasoner, telemetry

        cfg = self.config
        groups = self.manifest["groups"]
        gc.collect()
        if traced:
            self.tracer.install()
        try:
            # A set-up shorter than SETUP_MIN_S is repeated until the pass has
            # spent that long on it, so setup_s is a median of several samples.
            setup_samples: list[float] = []
            while sum(setup_samples) < SETUP_MIN_S:
                stores = loaded = None
                t0 = time.perf_counter()
                stores = [telemetry.ingest(g["dir"], window_ms=cfg.window_ms) for g in groups]
                if self.manifest["memory_file"]:
                    loaded = memory.Memory.load(self.manifest["memory_file"])
                setup_samples.append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            latencies: list[float] = []
            analyses: list[tuple[int, object]] = []
            failures: list[dict] = []
            for gi, (group, store) in enumerate(zip(groups, stores)):
                wanted = set(group["alerts"]) if group["alerts"] is not None else None
                alerts = [a for a in store.alerts if wanted is None or a.alert_id in wanted]
                for window in telemetry.windows_from_alerts(alerts, cfg.window_ms):
                    mem = loaded if loaded is not None else \
                        memory.Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
                    report = reasoner.analyze_window(
                        window, store, store.topology, mem, self.policy, cfg, time.perf_counter)
                    latencies.extend(a.wall_ms / 1000.0 for a in report.analyses)
                    analyses.extend((gi, a) for a in report.analyses)
                    failures.extend(dict(f, group=gi) for f in report.failures)
            if loaded is not None:
                loaded.persist(self.work / "memory-out.jsonl")
            t2 = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        return {
            "setup_samples": setup_samples,
            "run_s": t2 - t1,
            "latencies": latencies,
            "failures": failures,
            "traced": traced,
            **self.outcome(analyses, stores, len(latencies) + len(failures)),
        }

    def outcome(self, analyses, stores, attempted: int) -> dict:
        """What the pass computed: decisions, recall, calls, output digest
        and the workload's structural checks. Not timed."""
        from rootcause.evaluation import rank_of_truth
        from rootcause.reasoner import export_transcript

        groups = self.manifest["groups"]
        digest = hashlib.sha256()
        decisions: Counter = Counter()
        kinds: list[str] = []
        hits = 0
        policy_calls = 0
        must_reuse = set(self.manifest.get("hit_alerts", []))
        violations = []
        for gi, a in analyses:
            doc = a.as_dict(include_timing=False)
            digest.update(json.dumps([gi, doc], sort_keys=True).encode())
            digest.update(export_transcript(a, stores[gi].topology).encode())
            decisions[a.decision.kind] += 1
            kinds.append(a.decision.kind)
            policy_calls += a.counters.policy_calls
            if rank_of_truth(a.ranking, tuple(groups[gi]["truth"])) == 1:
                hits += 1
            # A clone of an alert (its id carries "~") has the identical
            # graph of an alert analysed just before it; a stored hit has
            # its identical graph in the loaded memory. Both must Reuse.
            if ("~" in a.alert_id or a.alert_id in must_reuse) and a.decision.kind != "Reuse":
                violations.append(f"{a.alert_id} decided {a.decision.kind}, expected Reuse")
        if attempted < self.size.min_alerts:
            violations.append(f"{attempted} alerts attempted, need {self.size.min_alerts}")
        return {
            "attempted": attempted,
            "decisions": dict(sorted(decisions.items())),
            "kinds": kinds,
            "recall_at_1": hits / len(analyses) if analyses else 0.0,
            "policy_calls": policy_calls,
            "digest": digest.hexdigest(),
            "violations": violations,
        }

    # -- a run -------------------------------------------------------------------

    def run(self) -> dict:
        from tracing import median, percentile

        passes = []
        started = time.perf_counter()
        tracing = bool(self.args.trace)
        while True:
            traced = tracing and len(passes) % 2 == 1
            passes.append(self.run_pass(traced))
            elapsed = time.perf_counter() - started
            both = not tracing or len(passes) >= 2
            if elapsed >= self.args.seconds and both:
                break
        checks = self.check(passes)
        result = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "passes": len(passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(len(p["failures"]) for p in passes),
            "decisions": passes[0]["decisions"],
            "recall_at_1": passes[0]["recall_at_1"],
            "digest": passes[0]["digest"],
            "checks": checks,
            "correct": all(c["ok"] for c in checks),
            "per_pass": [{"traced": p["traced"], "setup_s": p["setup_samples"], "run_s": p["run_s"],
                          "alert_ms.p50": median(p["latencies"]) * 1000.0,
                          "alert_ms.p95": percentile(p["latencies"], 95) * 1000.0}
                         for p in passes],
        }
        if tracing:
            result["metrics"] = self.layer_metrics(passes)
            self.tracer.write(self.work / "spans" /
                              f"{self.args.workload}-seed{self.args.seed}.csv")
        else:
            result["metrics"] = self.end_to_end(passes)
        result["extra"] = self.extra(passes)
        return result

    def check(self, passes) -> list[dict]:
        first = passes[0]
        checks = [
            {"name": "no failed alerts", "ok": not any(p["failures"] for p in passes),
             "detail": [f for p in passes for f in p["failures"]][:5]},
            {"name": "every pass computes identical outputs",
             "ok": all(p["digest"] == first["digest"] and p["kinds"] == first["kinds"]
                       for p in passes), "detail": ""},
            {"name": "workload invariants", "ok": not first["violations"],
             "detail": first["violations"][:5]},
        ]
        ref = self.reference()
        if ref is None:
            # Only the smoke test's tiny sizes run without a reference.
            checks.append({"name": "matches recorded reference", "ok": bool(self.args.tiny),
                           "detail": "no reference recorded for this seed; not compared"})
            return checks
        checks.append({"name": "decision counts equal the recorded ones",
                       "ok": first["decisions"] == ref["decisions"]
                       and first["attempted"] == ref["alerts"],
                       "detail": f"recorded {ref['decisions']} over {ref['alerts']} alerts"})
        checks.append({"name": "recall_at_1 not below the recorded value",
                       "ok": first["recall_at_1"] >= ref["recall_at_1"] - 1e-12,
                       "detail": f"recorded {ref['recall_at_1']:.6f}"})
        checks.append({"name": "output digest equals the recorded one (informational)",
                       "ok": True, "detail": "equal" if first["digest"] == ref["digest"]
                       else f"differs from recorded {ref['digest'][:16]}"})
        return checks

    def reference_key(self) -> str | None:
        import workloads

        if self.args.tiny:
            return None
        seed = workloads.input_seed(self.args.workload, self.args.seed)
        return "any" if seed is None else str(seed)

    def reference(self) -> dict | None:
        key = self.reference_key()
        if key is None or not EXPECTED.exists():
            return None
        table = json.loads(EXPECTED.read_text(encoding="utf-8"))
        return table.get(self.args.workload, {}).get(key)

    def record(self) -> int:
        p = self.run_pass(traced=False)
        key = self.reference_key()
        if p["failures"] or p["violations"] or key is None:
            print(f"refusing to record: {p['failures'][:3]} {p['violations'][:3]}",
                  file=sys.stderr)
            return 1
        table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        table.setdefault(self.args.workload, {})[key] = {
            "alerts": p["attempted"], "decisions": p["decisions"],
            "recall_at_1": p["recall_at_1"], "policy_calls": p["policy_calls"],
            "digest": p["digest"],
        }
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {self.args.workload} seed {key}: {p['decisions']} "
              f"recall@1 {p['recall_at_1']:.4f}")
        return 0

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, passes) -> dict:
        from tracing import median, percentile

        lat_ms = [x * 1000.0 for p in passes for x in p["latencies"]]
        alerts = sum(len(p["latencies"]) for p in passes)
        first = passes[0]
        return {
            "setup_s": (median([x for p in passes for x in p["setup_samples"]]), "s"),
            "alert_ms.p50": (percentile(lat_ms, 50), "ms"),
            "alert_ms.p95": (percentile(lat_ms, 95), "ms"),
            "alerts_per_s": (alerts / sum(p["run_s"] for p in passes), "1/s"),
            "policy_calls_per_alert": (first["policy_calls"] / max(len(first["latencies"]), 1),
                                       "count"),
            "recall_at_1": (first["recall_at_1"], "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def layer_metrics(self, passes) -> dict:
        from tracing import median, percentile

        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        n = max(sum(len(p["latencies"]) for p in traced), 1)
        summary = self.tracer.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "tags": []}

        def s(name):
            return summary.get(name, empty)

        def calls(name):
            return (s(name)["calls"] / n, "calls/alert")

        def self_ms(name):
            return (s(name)["self_s"] * 1000.0 / n, "ms/alert")

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        ingest, decide = s("telemetry.ingest"), s("memory.decide")
        m = {
            "telemetry.ingest.s": (ingest["total_s"] / sum(len(p["setup_samples"])
                                                            for p in traced), "s"),
            "telemetry.ingest.rows_per_s": (sum(ingest["tags"]) / ingest["total_s"], "rows/s"),
            "telemetry.slice_window.calls": calls("telemetry.slice_window"),
            "telemetry.slice_window.self_ms": self_ms("telemetry.slice_window"),
            "graph.extract.self_ms": self_ms("graph.extract"),
            "graph.fingerprint.calls": calls("graph.fingerprint"),
            "graph.fingerprint.self_ms": self_ms("graph.fingerprint"),
            "graph.embed.calls": calls("graph.embed"),
            "graph.embed.self_ms": self_ms("graph.embed"),
            "graph.keys_per_alert": ((s("graph.fingerprint")["calls"]
                                      + s("graph.embed")["calls"]) / n, "calls/alert"),
            "graph.similarity.calls": calls("graph.similarity"),
            "graph.similarity.self_ms": self_ms("graph.similarity"),
            "graph.divergence.calls": calls("graph.divergence"),
            "memory.decide.calls": calls("memory.decide"),
            "memory.decide.ms.p50": (percentile(decide["durations"], 50) * 1000.0, "ms"),
            "memory.decide.ms.p95": (percentile(decide["durations"], 95) * 1000.0, "ms"),
            "memory.entries.mean": (mean(decide["tags"]), "count"),
            "memory.store.self_ms": self_ms("memory.store"),
            "memory.remap.self_ms": self_ms("memory.remap"),
            "memory.load.s": (mean(s("memory.load")["durations"]), "s"),
            "memory.persist.s": (mean(s("memory.persist")["durations"]), "s"),
        }
        kinds = s("reasoner.analyze_alert")["tags"]
        reused = sum(1 for k in kinds if k in ("Reuse", "Resume"))
        m["memory.reuse_ratio"] = (reused / decide["calls"] if decide["calls"] else 0.0, "ratio")
        # Decision bands are timed from outside on the untraced passes.
        band_ms = {b: [] for b in BANDS}
        for p in plain:
            for kind, x in zip(p["kinds"], p["latencies"]):
                band_ms[kind].append(x * 1000.0)
        for band in BANDS:
            key = band.lower()
            m[f"reasoner.analyze_alert.ms.{key}.p50"] = (median(band_ms[band]), "ms")
            m[f"reasoner.analyze_alert.n.{key}"] = (len(band_ms[band]) / len(plain), "count")
        fresh_p50 = m["reasoner.analyze_alert.ms.fresh.p50"][0]
        m["reasoner.reuse_to_fresh"] = (
            m["reasoner.analyze_alert.ms.reuse.p50"][0] / fresh_p50 if fresh_p50 else 0.0, "ratio")
        for name in ("reasoner.initial_reasoning", "reasoner.critical_reflection",
                     "reasoner.aggregate_rankings"):
            m[f"{name}.self_ms"] = self_ms(name)
        for agent in ("trace_agent", "log_agent", "metric_agent"):
            m[f"agents.{agent}.calls"] = calls(f"agents.{agent}")
            m[f"agents.{agent}.self_ms"] = self_ms(f"agents.{agent}")
        m["agents.consolidate.self_ms"] = self_ms("agents.consolidate")
        for op in ("generate_instruction", "suspect", "confirm", "suspicious_children"):
            m[f"policy.{op}.calls"] = calls(f"policy.{op}")
        wait_s = s("policy.wait")["total_s"]
        m["policy.wait_ms"] = (wait_s * 1000.0 / n, "ms/alert")
        m["policy.wait_share"] = (wait_s / (s("reasoner.analyze_alert")["total_s"] or 1.0),
                                  "ratio")
        off = sum(len(p["latencies"]) for p in plain) / sum(p["run_s"] for p in plain)
        on = n / sum(p["run_s"] for p in traced)
        m["trace.alerts_per_s.off"] = (off, "1/s")
        m["trace.alerts_per_s.on"] = (on, "1/s")
        m["trace.overhead"] = (off / on - 1.0, "ratio")
        return m

    def extra(self, passes) -> dict:
        """Figures printed and saved but not on the result line."""
        plain = [p for p in passes if not p["traced"]]
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(len(p["failures"]) for p in passes)
        return {
            "failed_alert_ratio": (failed / attempted if attempted else 0.0, "ratio"),
            "alert_ms.samples": (sum(len(p["latencies"]) for p in plain), "count"),
            "setup_s.samples": (sum(len(p["setup_samples"]) for p in plain), "count"),
        }

    # -- output ------------------------------------------------------------------

    def report(self, result: dict, root: Path) -> None:
        env = environment(root, self.args)
        print(f"rootcause benchmark: workload {result['workload']}, seed {result['seed']}, "
              f"trace {result['trace']}, {result['passes']} passes, "
              f"{result['attempted']} alerts attempted, {result['failed']} failed")
        print("env " + json.dumps(env, sort_keys=True))
        print(f"decisions per pass {result['decisions']}; output sha256 {result['digest']}")
        for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
            print(f"  {name:<40} {value:>14.6f} {unit}")
        for c in result["checks"]:
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"  check: {'ok  ' if c['ok'] else 'FAIL'} {c['name']}{detail}")
        out = self.work / "results"
        out.mkdir(parents=True, exist_ok=True)
        saved = dict(result, env=env,
                     metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
                     extra={k: {"value": v, "unit": u} for k, (v, u) in result["extra"].items()})
        scale = "-tiny" if self.args.tiny else ""
        (out / f"{result['workload']}{scale}-seed{result['seed']}-trace{result['trace']}.json"
         ).write_text(json.dumps(saved, indent=1, sort_keys=True), encoding="utf-8")
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }))


def environment(root: Path, args) -> dict:
    import numpy
    import workloads

    return {
        "git_sha": git_sha(root),
        "source_sha256": workloads.source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
