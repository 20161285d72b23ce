"""Chat-completion backed judgment policy with record/replay transports.

Each policy predicate renders one prompt from exactly the evidence it was
handed, sends one chat request, and parses a structured verdict object
``{"decision": ..., "rationale": ...}``. A malformed response gets one
repair attempt; after that the deterministic reference policy answers
that single call and the event is counted, so a flaky backend degrades
the analysis instead of killing it. Authentication failures are
configuration problems and raise immediately.

Every exchange is appended to a session log. The replay transport answers
from such a log keyed by request digest, which lets the full test suite
and benchmark run offline and byte-reproducibly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable

from .config import LlmConfig
from .errors import ConfigError, DataError, ReplayMissError
from .reasoner import DeterministicPolicy, PolicyContract
from .records import parse_json

PROMPT_VERSION = "v2"

SYSTEM_PROMPT = (
    "You are a site reliability analyst localizing the root cause of a "
    "microservice incident. Answer with a single JSON object and nothing else."
)

TEMPLATES = {
    "generate_instruction": (
        "Task: write a one-sentence investigation instruction for the span below.\n"
        "{evidence}\n"
        'Output schema: {{"decision": "<instruction text>", "rationale": "<why>"}}'
    ),
    "suspect": (
        "Task: given this span and the sibling calls observed around it, decide "
        "whether the span itself looks anomalous (errors or outlier latency).\n"
        "{evidence}\n"
        'Output schema: {{"decision": true|false, "rationale": "<why>"}}'
    ),
    "confirm": (
        "Task: given the log entries and metric anomalies gathered for this span, "
        "decide whether it is confirmed as a root cause.\n"
        "{evidence}\n"
        'Output schema: {{"decision": true|false, "rationale": "<why>"}}'
    ),
    "suspicious_children": (
        "Task: from the child calls listed, pick the ones worth deeper "
        "investigation, most suspicious first.\n"
        "{evidence}\n"
        'Output schema: {{"decision": ["<child_span_id>", ...], "rationale": "<why>"}}'
    ),
}

# The JSON type of each operation's schema decision.
DECISION_TYPES = {"generate_instruction": str, "suspect": bool, "confirm": bool,
                  "suspicious_children": list}

REPAIR_PROMPT = (
    "Your previous reply was not a valid JSON object of the required schema. "
    "Reply again with only the JSON object."
)


def request_digest(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


BACKOFF_S = 0.5  # the pause before the first retry; it doubles per retry
BACKOFF_MAX_S = 8.0


class HttpTransport:
    """Plain chat-completions client over urllib; no streaming. Retries
    only connection errors, timeouts and HTTP 408, 429 and 5xx.

    Before a retry it waits the server's ``Retry-After`` seconds, else an
    exponential backoff from ``BACKOFF_S`` up to ``BACKOFF_MAX_S``; never
    longer than ``llm.timeout``. ``sleep`` does the waiting."""

    def __init__(self, config: LlmConfig, sleep: Callable[[float], None] = time.sleep):
        config.validate()
        if not config.endpoint:
            raise ConfigError("llm.endpoint is not configured")
        self.config = config
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ConfigError(
                f"environment variable {config.api_key_env} is empty; "
                "the policy backend needs an API key"
            )
        self._key = key
        self._sleep = sleep

    def send(self, body: dict) -> dict:
        data = json.dumps(body).encode()
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if last_error is not None:
                self._sleep(self._pause(attempt, last_error))
            req = urllib.request.Request(
                self.config.endpoint,
                data=data,
                headers={
                    "Content-Type": "application/json",
                    "Authorization": f"Bearer {self._key}",
                },
                method="POST",
            )
            try:
                with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                    return json.loads(resp.read().decode())
            except urllib.error.HTTPError as exc:
                exc.close()  # frees its connection; the code and headers stay readable
                if exc.code in (401, 403):
                    raise ConfigError(
                        f"policy backend rejected credentials (HTTP {exc.code})"
                    )
                if exc.code < 500 and exc.code not in (408, 429):
                    raise  # the same request would be refused again
                last_error = exc
            except (urllib.error.URLError, TimeoutError) as exc:
                last_error = exc
        raise last_error if last_error else ConfigError("transport failed without error")

    def _pause(self, attempt: int, error: Exception) -> float:
        """Seconds to wait before attempt number ``attempt`` (1 is the first retry)."""
        pause = min(BACKOFF_S * 2 ** (attempt - 1), BACKOFF_MAX_S)
        headers = getattr(error, "headers", None)
        if headers:
            try:
                retry_after = float(headers.get("Retry-After", ""))
            except ValueError:  # absent, or an HTTP date
                retry_after = math.nan
            if retry_after >= 0:  # False for NaN
                pause = retry_after
        return min(pause, self.config.timeout)


class RecordingTransport:
    """Wraps a transport, appending every exchange to a JSONL session log."""

    def __init__(self, inner, log_path):
        self.inner = inner
        self.log_path = log_path
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        digest = request_digest(body)
        started = time.perf_counter()
        response = self.inner.send(body)
        latency_ms = (time.perf_counter() - started) * 1000.0
        record = {
            "ts": time.time(),
            "digest": digest,
            "request": body,
            "response": response,
            "latency_ms": round(latency_ms, 3),
        }
        with self._lock:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return response


class ReplayTransport:
    """Answers from a recorded session log; zero network."""

    def __init__(self, log_path):
        self.responses: dict[str, dict] = {}
        try:
            with open(log_path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = parse_json(line)
                    except DataError as exc:
                        raise ConfigError(f"{log_path}:{lineno}: {exc}") from None
                    if not (isinstance(record, dict) and isinstance(record.get("digest"), str)
                            and "response" in record):
                        raise ConfigError(f"{log_path}:{lineno}: a session log record "
                                          "needs a string digest and a response")
                    self.responses[record["digest"]] = record["response"]
        except FileNotFoundError:
            raise ConfigError(f"replay session log not found: {log_path}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{log_path}: not UTF-8: {exc.reason}") from None

    def send(self, body: dict) -> dict:
        digest = request_digest(body)
        if digest not in self.responses:
            raise ReplayMissError(
                f"no recorded response for request digest {digest}"
            )
        return self.responses[digest]


def _q(value: str) -> str:
    """A string field of a prompt row as a JSON string: quoted, with its
    newlines and other control characters escaped, so that no telemetry
    value can start a row of its own."""
    return json.dumps(value)


def _span_block(span) -> str:
    return (
        f"span: id={_q(span.span_id)} pod={_q(span.cmdb_id)} service={_q(span.service)} "
        f"op={_q(span.operation)} duration_ms={span.duration} status={span.status_code}"
    )


def _calls_block(calls) -> str:
    if not calls:
        return "child calls: none"
    lines = ["child calls:"]
    lines += [
        f"- id={_q(c.child_span)} service={_q(c.svc)} op={_q(c.op)} "
        f"duration_ms={c.d} status={c.sigma}"
        for c in calls
    ]
    return "\n".join(lines)


def _logs_block(entries) -> str:
    if not entries:
        return "log entries: none"
    lines = ["log entries:"]
    lines += [
        f"- t={e.timestamp} component={_q(e.component)} level={_q(e.level)} "
        f"kind={_q(e.kind)} message={_q(e.message)}"
        for e in entries
    ]
    return "\n".join(lines)


def _metrics_block(anomalies) -> str:
    if not anomalies:
        return "metric anomalies: none"
    lines = ["metric anomalies:"]
    lines += [
        f"- component={_q(a.component)} metric={_q(a.metric)} "
        f"max_deviation={a.max_deviation:.3f} baseline_mean={a.baseline[0]:.3f} "
        f"first_exceed={a.first_exceed}"
        for a in anomalies
    ]
    return "\n".join(lines)


@dataclass
class LlmEvents:
    """Counts of a policy's requests, repair rounds and fallbacks; ``count``
    is safe to call from the ``--parallel`` threads."""

    requests: int = 0
    fallbacks: int = 0
    repairs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def count(self, event: str) -> None:
        with self._lock:
            setattr(self, event, getattr(self, event) + 1)


class LlmPolicy(PolicyContract):
    """PolicyContract backed by a chat-completion service.

    Prompts contain only data passed through the contract parameters. One
    predicate means one request (plus at most one repair round-trip), so
    call counters stay meaningful across policies.
    """

    def __init__(self, config: LlmConfig, transport=None, max_inflight: int = 4,
                 fallback: PolicyContract | None = None):
        self.config = config
        self.transport = transport if transport is not None else HttpTransport(config)
        self.fallback = fallback if fallback is not None else DeterministicPolicy()
        self.events = LlmEvents()
        self._gate = threading.Semaphore(max_inflight)

    # -- plumbing -----------------------------------------------------

    def _body(self, user_text: str) -> dict:
        return {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": SYSTEM_PROMPT},
                {"role": "user", "content": user_text},
            ],
        }

    def render_prompt(self, op: str, evidence: str) -> str:
        return f"[{PROMPT_VERSION}] " + TEMPLATES[op].format(evidence=evidence)

    def _round_trip(self, body: dict, op: str) -> dict | None:
        with self._gate:
            self.events.count("requests")
            response = self.transport.send(body)
        try:
            content = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            return None
        text = content.strip()
        if text.startswith("```"):
            text = text.strip("`")
            if text.startswith("json"):
                text = text[4:]
        try:
            verdict = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(verdict, dict) or "decision" not in verdict:
            return None
        if not isinstance(verdict["decision"], DECISION_TYPES[op]):
            return None  # "false" for a bool, or 1 for a list, violates the schema
        return verdict

    def _ask(self, op: str, evidence: str) -> dict | None:
        """One request, one repair attempt, then None to signal fallback."""
        prompt = self.render_prompt(op, evidence)
        try:
            verdict = self._round_trip(self._body(prompt), op)
            if verdict is not None:
                return verdict
            self.events.count("repairs")
            verdict = self._round_trip(self._body(prompt + "\n\n" + REPAIR_PROMPT), op)
            if verdict is not None:
                return verdict
        except (ConfigError, ReplayMissError):
            raise
        except Exception:  # noqa: BLE001 - transport trouble degrades, never kills
            pass
        self.events.count("fallbacks")
        return None

    # -- contract -----------------------------------------------------

    def generate_instruction(self, span, context):
        evidence = f"{_span_block(span)}\ncontext: {_q(context)}"
        verdict = self._ask("generate_instruction", evidence)
        if verdict is None:
            return self.fallback.generate_instruction(span, context)
        return verdict["decision"]

    def suspect(self, span, trace_evidence):
        evidence = f"{_span_block(span)}\n{_calls_block(trace_evidence)}"
        verdict = self._ask("suspect", evidence)
        if verdict is None:
            return self.fallback.suspect(span, trace_evidence)
        return verdict["decision"]

    def confirm(self, span, log_evidence, metric_evidence):
        evidence = "\n".join([
            _span_block(span), _logs_block(log_evidence), _metrics_block(metric_evidence),
        ])
        verdict = self._ask("confirm", evidence)
        if verdict is None:
            return self.fallback.confirm(span, log_evidence, metric_evidence)
        return verdict["decision"]

    def suspicious_children(self, span, trace_evidence):
        evidence = f"{_span_block(span)}\n{_calls_block(trace_evidence)}"
        verdict = self._ask("suspicious_children", evidence)
        if verdict is None:
            return self.fallback.suspicious_children(span, trace_evidence)
        by_id = {c.child_span: c for c in trace_evidence}
        picked = []
        for child_id in verdict["decision"]:
            call = by_id.get(str(child_id))
            if call is not None and call not in picked:
                picked.append(call)
        return picked


def llm_policy(
    config: LlmConfig,
    transport=None,
    record_path=None,
    replay_path=None,
    max_inflight: int = 4,
    fallback: PolicyContract | None = None,
) -> LlmPolicy:
    """Build the policy with an optional record or replay transport and the
    policy that answers a call the backend fails."""
    if replay_path is not None:
        transport = ReplayTransport(replay_path)
    elif transport is None:
        transport = HttpTransport(config)
    if record_path is not None:
        transport = RecordingTransport(transport, record_path)
    return LlmPolicy(config, transport=transport, max_inflight=max_inflight, fallback=fallback)
