"""Exception hierarchy shared across the engine.

The CLI maps these onto exit codes: configuration problems exit 2,
data or analysis problems exit 1.
"""


class EngineError(Exception):
    """Base class for all engine-raised errors."""


class ConfigError(EngineError):
    """Bad configuration or usage: missing files, invalid thresholds, bad keys."""


class DataError(EngineError):
    """Malformed or inconsistent input data."""


class NotFoundError(EngineError):
    """A referenced identifier does not resolve."""


class GraphConstructionError(EngineError):
    """Causal graph construction failed, e.g. a cycle was detected."""


class MemoryValidationError(EngineError):
    """A memory entry violates its invariants: a transcript step names a node
    its graph lacks, or a file stores keys its graph does not derive."""


class MemoryIntegrityError(EngineError):
    """A persisted memory file is corrupt or truncated."""


class ReplayMissError(EngineError):
    """Replay transport saw a request digest absent from the session log."""
