"""Localization metrics and the benchmark harness.

Recall@k and MRR follow the usual conventions: a record scores by the
rank of its ground-truth component in the emitted ranking, misses count
as zero reciprocal rank. Truth matching is exact-level by default; the
relaxed mode additionally credits a pod-level truth when the ranking
names the pod's service at an equal or better rank.

``run_benchmark`` evaluates scenario corpora end to end with per-scenario
isolated memories, so scenarios may be processed in any order or in
parallel without cross-talk. The timer is injectable: benchmarks that
must be byte-reproducible pass a deterministic counter instead of the
wall clock.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

from .agents import RootCauseRanking
from .config import Config
from .errors import ConfigError
from .memory import Memory
from .reasoner import PolicyContract, analyze_window, export_transcript
from .telemetry import Topology, windows_from_alerts

RECALL_KS = (1, 3, 5, 10)


@dataclass
class EvalRecord:
    alert_id: str
    truth: tuple[str, str]
    ranking: RootCauseRanking
    rank_of_truth: int | None
    policy_calls: int
    agent_calls: int
    wall_ms: float
    decision: str = "Fresh"
    scenario: str = ""


def rank_of_truth(
    ranking: RootCauseRanking,
    truth: tuple[str, str],
    topology: Topology | None = None,
    level_relaxed: bool = False,
) -> int | None:
    """Rank of the ground truth, exact level unless relaxed matching is on."""
    level, component = truth
    exact = ranking.rank_of(level, component)
    if not level_relaxed or level != "pod" or topology is None:
        return exact
    service = topology.service_of(component)
    relaxed = ranking.rank_of("service", service) if service else None
    candidates = [r for r in (exact, relaxed) if r is not None]
    return min(candidates) if candidates else None


def recall_at_k(records: list[EvalRecord], k: int) -> float:
    if k < 1:
        raise ConfigError(f"recall k must be >= 1, got {k}")
    if not records:
        raise ConfigError("recall needs at least one record")
    hits = sum(1 for r in records if r.rank_of_truth is not None and r.rank_of_truth <= k)
    return hits / len(records)


def mrr(records: list[EvalRecord]) -> float:
    if not records:
        raise ConfigError("mrr needs at least one record")
    total = sum(1.0 / r.rank_of_truth for r in records if r.rank_of_truth is not None)
    return total / len(records)


@dataclass
class Report:
    records: list[EvalRecord]
    recall: dict[int, float]
    mrr: float
    mean_seconds_per_query: float
    total_policy_calls: int
    decision_histogram: dict[str, int]
    failures: list[dict] = field(default_factory=list)
    transcripts: dict[str, str] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = ["benchmark report", "----------------"]
        lines.append(f"records            {len(self.records)}")
        for k in sorted(self.recall):
            lines.append(f"recall@{k:<2}          {self.recall[k]:.4f}")
        lines.append(f"mrr                {self.mrr:.4f}")
        lines.append(f"seconds/query      {self.mean_seconds_per_query:.4f}")
        lines.append(f"policy calls       {self.total_policy_calls}")
        decisions = ", ".join(
            f"{k}={v}" for k, v in sorted(self.decision_histogram.items())
        ) or "none"
        lines.append(f"decisions          {decisions}")
        lines.append(f"failed scenarios   {len(self.failures)}")
        return "\n".join(lines) + "\n"

    def metric_rows(self) -> list[tuple[str, str]]:
        rows = [("records", str(len(self.records)))]
        rows += [(f"recall_at_{k}", f"{self.recall[k]:.6f}") for k in sorted(self.recall)]
        rows += [
            ("mrr", f"{self.mrr:.6f}"),
            ("mean_seconds_per_query", f"{self.mean_seconds_per_query:.6f}"),
            ("total_policy_calls", str(self.total_policy_calls)),
            ("failed_scenarios", str(len(self.failures))),
        ]
        for kind in sorted(self.decision_histogram):
            rows.append((f"decisions_{kind.lower()}", str(self.decision_histogram[kind])))
        return rows

    def to_metrics_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "value"])
        writer.writerows(self.metric_rows())
        return buf.getvalue()

    def to_records_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([
            "scenario", "alert_id", "truth_level", "truth_component",
            "rank_of_truth", "decision", "policy_calls", "agent_calls", "top1",
        ])
        for r in self.records:
            top1 = f"{r.ranking[0].level}:{r.ranking[0].root_cause}" if r.ranking else ""
            writer.writerow([
                r.scenario, r.alert_id, r.truth[0], r.truth[1],
                r.rank_of_truth if r.rank_of_truth is not None else "miss",
                r.decision, r.policy_calls, r.agent_calls, top1,
            ])
        return buf.getvalue()

    def to_latency_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["scenario", "alert_id", "wall_ms"])
        for r in self.records:
            writer.writerow([r.scenario, r.alert_id, f"{r.wall_ms:.3f}"])
        return buf.getvalue()

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(self.to_text(), encoding="utf-8")
        (out / "report.csv").write_text(self.to_metrics_csv(), encoding="utf-8")
        (out / "records.csv").write_text(self.to_records_csv(), encoding="utf-8")
        (out / "latency.csv").write_text(self.to_latency_csv(), encoding="utf-8")
        tdir = out / "transcripts"
        tdir.mkdir(exist_ok=True)
        for alert_id, text in sorted(self.transcripts.items()):
            (tdir / f"{alert_id}.json").write_text(text, encoding="utf-8")


def run_benchmark(
    corpus,
    config: Config,
    policy: PolicyContract,
    memory_mode: str = "on",
    timer=time.perf_counter,
    keep_transcripts: bool = False,
) -> Report:
    """Analyze every scenario's alert windows and aggregate the metrics.

    ``memory_mode="off"`` disables the reuse machinery entirely, forcing a
    fresh analysis per alert; this is the ablation arm for efficiency
    comparisons. Scenario failures are recorded and excluded from the
    aggregates rather than aborting the run.
    """
    if memory_mode not in ("on", "off"):
        raise ConfigError(f"memory_mode must be 'on' or 'off', got {memory_mode!r}")
    if not corpus:
        raise ConfigError("benchmark corpus is empty")
    records: list[EvalRecord] = []
    failures: list[dict] = []
    histogram: dict[str, int] = {}
    transcripts: dict[str, str] = {}
    for idx, scenario in enumerate(corpus):
        name = f"scenario{idx:03d}-{scenario.fault_kind}-{scenario.seed}"
        try:
            store = scenario.to_store()
            mem = Memory(dim=config.embedding_dim, alpha=config.alpha) \
                if memory_mode == "on" else None
            for window in windows_from_alerts(store.alerts, config.window_ms):
                report = analyze_window(
                    window, store, scenario.topology, mem, policy, config, timer,
                )
                for failure in report.failures:
                    failures.append(dict(failure, scenario=name))
                for analysis in report.analyses:
                    histogram[analysis.decision.kind] = \
                        histogram.get(analysis.decision.kind, 0) + 1
                    records.append(EvalRecord(
                        alert_id=analysis.alert_id,
                        truth=scenario.truth,
                        ranking=analysis.ranking,
                        rank_of_truth=rank_of_truth(
                            analysis.ranking, scenario.truth,
                            scenario.topology, config.level_relaxed,
                        ),
                        policy_calls=analysis.counters.policy_calls,
                        agent_calls=analysis.counters.total_agent_calls,
                        wall_ms=analysis.wall_ms,
                        decision=analysis.decision.kind,
                        scenario=name,
                    ))
                    if keep_transcripts:
                        transcripts[f"{name}-{analysis.alert_id}"] = export_transcript(
                            analysis, scenario.topology,
                        )
        except Exception as exc:  # noqa: BLE001 - per-scenario isolation
            failures.append({"scenario": name, "error": str(exc)})
    if not records:
        raise ConfigError("benchmark produced no records; every scenario failed")
    return Report(
        records=records,
        recall={k: recall_at_k(records, k) for k in RECALL_KS},
        mrr=mrr(records),
        mean_seconds_per_query=sum(r.wall_ms for r in records) / len(records) / 1000.0,
        total_policy_calls=sum(r.policy_calls for r in records),
        decision_histogram=histogram,
        failures=failures,
        transcripts=transcripts,
    )
