"""Shared exception types."""


class ConfigError(Exception):
    """Invalid configuration value (bad workload/noise parameters, epsilon out of
    range, unknown policy name, and so on)."""


class TraceParseError(Exception):
    """Malformed trace file. Carries the 1-based line number of the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NondeterministicPolicyError(Exception):
    """A policy declared deterministic ended a trace apart online and in a batch run."""
