"""Engine configuration: one dataclass, one set of defaults.

Every knob the CLI exposes lives here so that ``--print-config`` and the
engine itself cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError, DataError
from .records import parse_json, read_record

DEFAULT_LOG_PATTERNS = ("timeout", "exception", "refused", "5xx")


@dataclass
class LlmConfig:
    """Connection settings for a chat-completion policy backend."""

    endpoint: str = ""
    model: str = ""
    api_key_env: str = "ROOTCAUSE_API_KEY"
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.0

    def validate(self) -> None:
        if self.timeout <= 0:
            raise ConfigError("llm.timeout must be > 0")
        if self.max_retries < 0:
            raise ConfigError("llm.max_retries must be >= 0")
        if self.temperature < 0:
            raise ConfigError("llm.temperature must be >= 0")


@dataclass
class Config:
    """All engine parameters with their defaults.

    Thresholds follow the engine-wide conventions: similarity bands
    ``tau_partial <= tau_skip``, anomaly threshold ``n_sigma``, attribute
    divergence threshold ``delta`` in distance units.
    """

    window_ms: int = 60_000
    n_sigma: float = 3.0
    alpha: float = 0.5
    tau_skip: float = 0.98
    tau_partial: float = 0.80
    delta: float = 1.0
    embedding_dim: int = 128
    max_depth: int = 16
    max_steps: int = 512
    policy: str = "deterministic"
    llm: LlmConfig = field(default_factory=LlmConfig)
    memory_path: str | None = None
    baseline_minutes: float = 15.0
    timeout_factor: float = 3.0
    log_patterns: tuple[str, ...] = DEFAULT_LOG_PATTERNS
    w_metric: float = 1.0
    w_log: float = 0.5
    w_status: float = 0.5
    parallel: int = 1
    level_relaxed: bool = False
    seed: int = 0

    def validate(self) -> None:
        if not (0.0 <= self.tau_partial <= self.tau_skip <= 1.0):
            raise ConfigError(
                "thresholds must satisfy 0 <= tau_partial <= tau_skip <= 1, "
                f"got tau_partial={self.tau_partial} tau_skip={self.tau_skip}"
            )
        if self.n_sigma <= 0:
            raise ConfigError("n_sigma must be > 0")
        if self.window_ms < 2:
            raise ConfigError("window_ms must be >= 2, so its half-window is > 0")
        if int(self.baseline_minutes * 60_000) <= self.window_ms // 2:
            # The metric baseline [t0 - baseline, t0 - window/2) would be empty.
            raise ConfigError("baseline_minutes must reach back past half of window_ms")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must lie in [0, 1]")
        if self.delta <= 0:
            raise ConfigError("delta must be > 0")
        if self.timeout_factor <= 0:
            raise ConfigError("timeout_factor must be > 0")
        if self.embedding_dim < 8:
            raise ConfigError("embedding_dim must be >= 8")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.policy not in ("deterministic", "llm"):
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.parallel < 1:
            raise ConfigError("parallel must be >= 1")
        self.llm.validate()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """A config file's object; a key it leaves out keeps its default."""
        try:
            cfg = read_record(cls, data, partial=True)
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str) -> "Config":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = parse_json(fh.read())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except DataError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        return cls.from_dict(data)

