"""Span tracing of the engine's layers, installed from outside the package.

The tracer wraps public functions of ``rootcause.telemetry``, ``graph``,
``memory``, ``reasoner`` and ``agents``, the judgment-policy methods, and
the benchmark's own remote-policy wait.
A function imported by name into another module (``reasoner.extract``,
``memory.embed``, ``graph.slice_window`` ...) is a separate binding, so
every ``rootcause`` module that binds the original object is patched, and
``uninstall`` restores each binding. Nothing inside ``src/rootcause``
changes.

Spans (name, start, end, parent span, alert index) are kept in memory and
written out when the run ends. An ``analyze_alert`` span takes the next
alert index and its descendants inherit it; other spans carry -1. Self
time is a span's duration minus the durations of its direct children: the
run is single-threaded, so children nest inside their parent and never
overlap each other. ``summary`` leaves out the descendants of set-up
spans (``ingest``, ``Memory.load``), so per-alert figures count only the
work done after set-up.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from pathlib import Path

# (span name, home module, attribute path). The home binding identifies the
# function object; every rootcause module binding that object is patched.
TARGETS = (
    ("telemetry.ingest", "rootcause.telemetry", "ingest"),
    ("telemetry.slice_window", "rootcause.telemetry", "slice_window"),
    ("graph.extract", "rootcause.graph", "extract"),
    ("graph.fingerprint", "rootcause.graph", "fingerprint"),
    ("graph.embed", "rootcause.graph", "embed"),
    ("graph.similarity", "rootcause.graph", "similarity"),
    ("graph.divergence", "rootcause.graph", "divergence"),
    ("memory.decide", "rootcause.memory", "Memory.decide"),
    ("memory.store", "rootcause.memory", "Memory.store"),
    ("memory.load", "rootcause.memory", "Memory.load"),
    ("memory.persist", "rootcause.memory", "Memory.persist"),
    ("memory.remap", "rootcause.memory", "remap"),
    ("reasoner.analyze_alert", "rootcause.reasoner", "analyze_alert"),
    ("reasoner.initial_reasoning", "rootcause.reasoner", "initial_reasoning"),
    ("reasoner.critical_reflection", "rootcause.reasoner", "critical_reflection"),
    ("reasoner.aggregate_rankings", "rootcause.reasoner", "aggregate_rankings"),
    ("agents.trace_agent", "rootcause.agents", "trace_agent"),
    ("agents.log_agent", "rootcause.agents", "log_agent"),
    ("agents.metric_agent", "rootcause.agents", "metric_agent"),
    ("agents.consolidate", "rootcause.agents", "consolidate"),
    ("policy.generate_instruction", "rootcause.reasoner", "DeterministicPolicy.generate_instruction"),
    ("policy.suspect", "rootcause.reasoner", "DeterministicPolicy.suspect"),
    ("policy.confirm", "rootcause.reasoner", "DeterministicPolicy.confirm"),
    ("policy.suspicious_children", "rootcause.reasoner", "DeterministicPolicy.suspicious_children"),
    ("policy.wait", "workloads", "SleepPolicy.wait"),  # the benchmark's remote-policy shim
)

# Span record slots.
NAME, START, END, PARENT, ALERT, TAG = range(6)

# Spans whose descendants are set-up work, not per-alert work.
SETUP_SPANS = frozenset({"telemetry.ingest", "memory.load"})


class Tracer:
    """Collects spans for one run; ``install`` and ``uninstall`` bracket
    the traced passes so untraced passes run the original functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.alerts = 0  # analyze_alert spans recorded so far
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._patch(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "rootcause" or module is None:
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == "reasoner.analyze_alert":
                alert = tracer.alerts
                tracer.alerts += 1
            else:
                alert = spans[parent][ALERT] if parent >= 0 else -1
            rec = [name, 0.0, 0.0, parent, alert, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if name == "memory.decide":
                rec[TAG] = len(args[0])  # store size seen by this decide
            elif name == "reasoner.analyze_alert":
                rec[TAG] = result.decision.kind
            elif name == "telemetry.ingest":
                report = result.report
                rec[TAG] = report.spans + report.logs + report.metrics + report.alerts
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "alert", "tag"])
            for i, rec in enumerate(self.spans):
                writer.writerow([
                    i, rec[NAME], f"{rec[START]:.9f}", f"{rec[END]:.9f}",
                    rec[PARENT], rec[ALERT], "" if rec[TAG] is None else rec[TAG],
                ])

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, durations.

        Spans below a set-up span are left out: ``Memory.load`` re-derives
        each stored entry's keys through ``store``, and those calls are not
        work done for any alert."""
        child_time = [0.0] * len(self.spans)
        in_setup = [False] * len(self.spans)
        for i, rec in enumerate(self.spans):
            parent = rec[PARENT]
            if parent >= 0:
                child_time[parent] += rec[END] - rec[START]
                # A parent is recorded before its children.
                in_setup[i] = in_setup[parent] or self.spans[parent][NAME] in SETUP_SPANS
        out: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            if in_setup[i]:
                continue
            dur = rec[END] - rec[START]
            slot = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "durations": [], "tags": []})
            slot["calls"] += 1
            slot["total_s"] += dur
            slot["self_s"] += dur - child_time[i]
            slot["durations"].append(dur)
            slot["tags"].append(rec[TAG])
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
