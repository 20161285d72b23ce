"""Root cause localization for microservice alert windows.

The engine turns each alert into an attributed causal graph of its request
path, reuses prior reasoning through a graph-keyed memory, runs a
depth-assured recursive analysis over trace, log and metric evidence, and
emits a ranked list of candidate root causes.

Typical entry points:

- :func:`rootcause.ingest` parses a telemetry CSV directory.
- :func:`rootcause.reasoner.analyze_window` analyzes one alert window.
- :func:`rootcause.evaluation.run_benchmark` scores scenario corpora.
- :mod:`rootcause.cli` wires everything behind the ``rootcause`` command.
"""

from .config import Config, LlmConfig
from .telemetry import (
    Alert,
    AlertWindow,
    LogEntry,
    MetricSample,
    Span,
    TelemetryStore,
    Topology,
    children_of,
    export,
    ingest,
    slice_window,
    windows_from_alerts,
)
from .graph import (
    CausalGraph,
    Embedding,
    divergence,
    embed,
    extract,
    fingerprint,
    graph_key,
    similarity,
)
from .agents import (
    Candidate,
    ChildCall,
    MetricAnomaly,
    RootCauseRanking,
    consolidate,
    log_agent,
    metric_agent,
    trace_agent,
)
from .memory import Decision, Memory, MemoryEntry, remap
from .reasoner import (
    DeterministicPolicy,
    PolicyContract,
    Step,
    Transcript,
    analyze_alert,
    analyze_window,
    deterministic_policy,
)

__all__ = [
    "Alert",
    "AlertWindow",
    "Candidate",
    "CausalGraph",
    "ChildCall",
    "Config",
    "Decision",
    "DeterministicPolicy",
    "Embedding",
    "LlmConfig",
    "LogEntry",
    "Memory",
    "MemoryEntry",
    "MetricAnomaly",
    "MetricSample",
    "PolicyContract",
    "RootCauseRanking",
    "Span",
    "Step",
    "TelemetryStore",
    "Topology",
    "Transcript",
    "analyze_alert",
    "analyze_window",
    "children_of",
    "consolidate",
    "deterministic_policy",
    "divergence",
    "embed",
    "export",
    "extract",
    "fingerprint",
    "graph_key",
    "ingest",
    "log_agent",
    "metric_agent",
    "remap",
    "similarity",
    "slice_window",
    "trace_agent",
    "windows_from_alerts",
]

__version__ = "0.1.0"
