"""Command-line entry point.

Subcommands: analyze a telemetry directory, generate synthetic scenarios,
evaluate a scenario corpus, inspect or verify a persisted memory, and
replay an exported transcript. Exit codes: 0 success, 1 data or analysis
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import Config
from .errors import ConfigError, DataError, EngineError
from .evaluation import run_benchmark
from .memory import Memory, verify
from .reasoner import (
    analyze_window,
    deterministic_policy,
    export_transcript,
    read_transcript,
    render_transcript,
    replay_transcript,
)
from .scenario import FAULT_KINDS, ScenarioSpec, generate, load_scenario
from .telemetry import ingest, windows_from_alerts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootcause",
        description="Root cause localization over microservice alert windows.",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
    parser.add_argument("--window-ms", type=int, dest="window_ms")
    parser.add_argument("--n-sigma", type=float, dest="n_sigma")
    parser.add_argument("--alpha", type=float, dest="alpha")
    parser.add_argument("--tau-skip", type=float, dest="tau_skip")
    parser.add_argument("--tau-partial", type=float, dest="tau_partial")
    parser.add_argument("--delta", type=float, dest="delta")
    parser.add_argument("--policy", choices=["deterministic", "llm"], dest="policy")
    parser.add_argument("--memory", dest="memory_path",
                        help="memory file persisted across windows and runs")
    parser.add_argument("--parallel", type=int, dest="parallel")
    parser.add_argument("--seed", type=int, dest="seed")

    sub = parser.add_subparsers(dest="command")

    p_analyze = sub.add_parser("analyze", help="analyze a telemetry directory")
    p_analyze.add_argument("--data", required=True, help="telemetry CSV directory")
    p_analyze.add_argument("--out", required=True, help="output directory for reports")
    p_analyze.add_argument("--window-start", type=int, dest="window_start",
                           help="explicit window bound, ms; overrides auto-detection")
    p_analyze.add_argument("--window-end", type=int, dest="window_end",
                           help="explicit window bound, ms; overrides auto-detection")

    p_gen = sub.add_parser("generate", help="generate a synthetic scenario")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--fault", choices=list(FAULT_KINDS), default="MetricSpike")
    p_gen.add_argument("--services", type=int, default=5)
    p_gen.add_argument("--pods", type=int, default=2)
    p_gen.add_argument("--traces", type=int, default=8)
    p_gen.add_argument("--victims", type=int, default=2)
    p_gen.add_argument("--depth", type=int, default=3)

    p_eval = sub.add_parser("eval", help="evaluate a corpus of scenario directories")
    p_eval.add_argument("--data", required=True, help="directory of scenario subdirectories")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--memory-mode", choices=["on", "off"], default="on")

    p_mem = sub.add_parser("memory", help="inspect or verify a persisted memory")
    p_mem.add_argument("action", choices=["list", "show", "verify"])
    p_mem.add_argument("--fingerprint", help="entry fingerprint prefix for 'show'")

    p_replay = sub.add_parser("replay", help="re-render and re-check a transcript")
    p_replay.add_argument("transcript", help="exported transcript JSON file")

    return parser


def effective_config(args) -> Config:
    cfg = Config.load(args.config) if args.config else Config()
    for name in ("window_ms", "n_sigma", "alpha", "tau_skip", "tau_partial",
                 "delta", "policy", "memory_path", "parallel", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def make_policy(cfg: Config):
    if cfg.policy == "deterministic":
        return deterministic_policy(cfg)
    from .llm import llm_policy

    return llm_policy(cfg.llm, fallback=deterministic_policy(cfg))


def cmd_analyze(args, cfg: Config) -> int:
    data = Path(args.data)
    if not data.is_dir():
        raise ConfigError(f"data directory not found: {data}")
    if (data / "traces.csv").exists() and not (data / "topology.csv").exists():
        raise ConfigError(f"missing required file: {data / 'topology.csv'}")
    store = ingest(args.data, window_ms=cfg.window_ms)
    print(f"ingested: {json.dumps(store.report.as_dict())}")
    if args.window_start is not None or args.window_end is not None:
        if args.window_start is None or args.window_end is None:
            raise ConfigError("--window-start and --window-end must be given together")
        from .telemetry import AlertWindow

        chosen = tuple(
            a for a in store.alerts
            if args.window_start <= a.timestamp <= args.window_end
        )
        windows = [AlertWindow(args.window_start, args.window_end, chosen)] if chosen else []
    else:
        windows = windows_from_alerts(store.alerts, cfg.window_ms)
    if not windows:
        print("no alerts found; nothing to analyze")
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "transcripts").mkdir(exist_ok=True)

    policy = make_policy(cfg)
    shared_memory = None
    if cfg.memory_path:
        path = Path(cfg.memory_path)
        shared_memory = Memory.load(path) if path.exists() else \
            Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)

    def run_window(window):
        # memory is scoped per window unless a persistent path is given
        mem = shared_memory if shared_memory is not None else \
            Memory(dim=cfg.embedding_dim, alpha=cfg.alpha)
        return analyze_window(window, store, store.topology, mem, policy, cfg)

    if cfg.parallel > 1 and shared_memory is None:
        # windows are independent with per-window memories; a shared
        # persistent memory forces sequential processing to maximize reuse
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.parallel) as pool:
            reports = list(pool.map(run_window, windows))
    else:
        reports = [run_window(w) for w in windows]

    any_failure = False
    for i, (window, report) in enumerate(zip(windows, reports)):
        any_failure = any_failure or bool(report.failures)
        doc = report.as_dict()
        (out / f"window_{i:03d}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8"
        )
        for analysis in report.analyses:
            text = export_transcript(analysis, store.topology)
            (out / "transcripts" / f"{analysis.alert_id}.json").write_text(
                text, encoding="utf-8"
            )
        decisions = ", ".join(f"{k}={v}" for k, v in sorted(report.decision_histogram.items()))
        print(
            f"window {i}: {len(window.alerts)} alerts, decisions [{decisions}], "
            f"policy calls {report.total_policy_calls}, "
            f"{report.seconds_per_query:.3f} s/query"
        )
        if report.window_ranking:
            top = report.window_ranking[0]
            print(f"  top candidate: {top.level}:{top.root_cause} (score {top.score:.3f})")
    if shared_memory is not None:
        shared_memory.persist(cfg.memory_path)
        print(f"memory persisted: {len(shared_memory)} entries -> {cfg.memory_path}")
    return 1 if any_failure else 0


def cmd_generate(args, cfg: Config) -> int:
    spec = ScenarioSpec(
        services=args.services, pods_per_service=args.pods, traces=args.traces,
        victims=args.victims, depth=args.depth, fault_kind=args.fault,
        seed=cfg.seed, window_ms=cfg.window_ms,
    )
    scenario = generate(spec)
    scenario.write(args.out)
    print(
        f"scenario written to {args.out}: fault {scenario.fault_kind} at "
        f"{scenario.truth[0]}:{scenario.truth[1]}, {len(scenario.alerts)} alerts"
    )
    return 0


def cmd_eval(args, cfg: Config) -> int:
    root = Path(args.data)
    dirs = sorted(p for p in root.iterdir() if (p / "truth.csv").exists()) \
        if root.is_dir() else []
    if not dirs:
        raise ConfigError(f"no scenario directories with truth.csv under {root}")
    corpus = [load_scenario(p) for p in dirs]
    policy = make_policy(cfg)
    report = run_benchmark(corpus, cfg, policy, memory_mode=args.memory_mode,
                           keep_transcripts=True)
    report.write(args.out)
    print(report.to_text())
    print(f"report written to {args.out}")
    return 1 if report.failures else 0


def cmd_memory(args, cfg: Config) -> int:
    if not cfg.memory_path:
        raise ConfigError("memory command needs --memory <path>")
    if args.action == "list":
        mem = Memory.load(cfg.memory_path)
        print(f"{len(mem)} entries in {cfg.memory_path}")
        for fp, e in mem.entries().items():
            steps = len(e.transcript.steps)
            print(f"  {fp[:16]}  alert={e.alert_id}  ts={e.timestamp}  steps={steps}")
        return 0
    if args.action == "show":
        if not args.fingerprint:
            raise ConfigError("memory show needs --fingerprint <prefix>")
        mem = Memory.load(cfg.memory_path)
        for fp, e in mem.entries().items():
            if fp.startswith(args.fingerprint):
                print(f"fingerprint {fp}")
                print(f"alert {e.alert_id} at {e.timestamp}")
                print(f"graph nodes {len(e.graph.nodes)}, edges {len(e.graph.edges)}")
                for s in e.transcript.steps:
                    print(f"  [{s.index}] {s.stage} {s.pod}/{s.op} -> {s.verdict}")
                return 0
        raise ConfigError(f"no entry matches fingerprint prefix {args.fingerprint}")
    problems = verify(cfg.memory_path)
    for problem in problems:
        print(f"VIOLATION {problem}")
    if problems:
        return 1
    print("memory verified: all entries consistent")
    return 0


def cmd_replay(args, cfg: Config) -> int:
    path = Path(args.transcript)
    if not path.exists():
        raise ConfigError(f"transcript not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: malformed transcript: {exc}") from None
    try:
        transcript, topology, stored = read_transcript(text)
        rendered = render_transcript(transcript, stored)
        recomputed = replay_transcript(transcript, topology, cfg)
    except EngineError as exc:
        raise DataError(f"{path}: {exc}") from None
    print(rendered, end="")
    if recomputed.as_rows() != stored:
        print("MISMATCH: re-consolidated ranking differs from the stored ranking")
        return 1
    print("replay ok: consolidation reproduces the stored ranking")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "memory": cmd_memory,
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.print_config:
        print(cfg.to_json())
        return 0
    if not args.command:
        parser.print_help()
        return 2
    try:
        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
