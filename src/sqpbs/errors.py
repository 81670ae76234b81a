"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SqpbsError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SqpbsError, ValueError):
    """A run configuration is malformed or inconsistent.

    Also a ``ValueError``, so library callers can catch bad arguments
    the usual way; the CLI maps it to exit code 4.
    """


class KeyEstablishmentError(SqpbsError):
    """Key agreement aborted: observed error rate above threshold."""

    def __init__(self, kind: str, error_rate: float, threshold: float):
        self.kind = kind
        self.error_rate = error_rate
        self.threshold = threshold
        super().__init__(
            f"{kind} key establishment aborted: error rate {error_rate:.4f} "
            f"exceeds threshold {threshold:.4f}"
        )


class EavesdroppingDetected(SqpbsError):
    """A decoy or return check failed; the protocol run must abort."""

    def __init__(self, channel: str, check: str, error_rate: float, threshold: float):
        self.channel = channel
        self.check = check
        self.error_rate = error_rate
        self.threshold = threshold
        super().__init__(
            f"eavesdropping detected on channel {channel!r} ({check}): "
            f"error rate {error_rate:.4f} > threshold {threshold:.4f}"
        )


class SemiquantumCapabilityError(SqpbsError):
    """A semiquantum party attempted an operation outside its capability set."""


class ProtocolError(SqpbsError):
    """The protocol cannot proceed (missing record, malformed message, ...)."""
