"""Exception taxonomy shared across the package.

Everything user-facing derives from FactforgeError so the CLI can map
domain failures to a single exit code. A subclass exists only where some
caller tells it apart: a retry, a tally or a transport outcome.
"""

from __future__ import annotations


class FactforgeError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedRecord(FactforgeError):
    """An artifact file (JSONL rows or index bytes) does not fit its format."""


class OutputParseError(FactforgeError):
    """Model output could not be turned into structured step outputs."""


class UnparseableVerdict(FactforgeError):
    """Model output contains neither verdict token."""


class BackendError(FactforgeError):
    """Base class for transport and endpoint failures; carries the request fingerprint."""

    def __init__(self, message: str, fingerprint: str = ""):
        super().__init__(message)
        self.fingerprint = fingerprint


class BackendTimeout(BackendError):
    """The endpoint did not answer in time (or was unreachable) after retries."""


class AuthFailure(BackendError):
    """The endpoint refused the credentials: an HTTP 401 or 403 reply."""


class RateLimited(BackendError):
    """Rate limit persisted through the retry budget."""


class MalformedResponse(BackendError):
    """Endpoint answered, but not in the expected shape."""
