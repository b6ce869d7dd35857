"""Exception taxonomy shared across the package.

Everything user-facing derives from FactforgeError so the CLI can map
domain failures to a single exit code.
"""

from __future__ import annotations


class FactforgeError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(FactforgeError):
    """Vector dimensionality disagrees with what the index or batch expects."""


class MalformedRecord(FactforgeError):
    """A row of an artifact file does not fit its record type or schema."""


# --- corpus ---------------------------------------------------------------

class EmptyPageError(FactforgeError):
    """Page has no sentences, so no passage can be sampled from it."""


class DuplicatePageId(FactforgeError):
    """Two pages in one corpus share an id."""


# --- generation output parsing ---------------------------------------------

class OutputParseError(FactforgeError):
    """Model output could not be turned into structured step outputs."""


class MalformedOutput(OutputParseError):
    """No well-formed object could be extracted from the raw output."""


class MissingKey(OutputParseError):
    """The extracted object lacks one of the required step keys."""


class TypeMismatch(OutputParseError):
    """A step key is present but its value has the wrong shape."""


class ExhaustedRetries(FactforgeError):
    """Generation kept failing parse or hard validation until the retry budget ran out."""


# --- dataset ---------------------------------------------------------------

class InvalidRecord(FactforgeError):
    """A record with hard validation failures was given where a valid one is needed."""


class NotEnoughRecords(FactforgeError):
    """A split needs at least two records to be meaningful."""


class NoCandidatePassages(FactforgeError):
    """Neutral mining was asked to choose from an empty candidate pool."""


# --- retrieval ---------------------------------------------------------------

class DuplicatePassageId(FactforgeError):
    """Two index entries share a passage id."""


class EmptyIndex(FactforgeError):
    """An index cannot be built from zero passages."""


class CorruptIndexFile(FactforgeError):
    """The persisted index file does not match the expected binary layout."""


# --- backends ----------------------------------------------------------------

class BackendError(FactforgeError):
    """Base class for transport and endpoint failures; carries the request fingerprint."""

    def __init__(self, message: str, fingerprint: str = ""):
        super().__init__(message)
        self.fingerprint = fingerprint


class BackendTimeout(BackendError):
    """The endpoint did not answer in time (or was unreachable) after retries."""


class AuthFailure(BackendError):
    """Credentials missing or rejected."""


class RateLimited(BackendError):
    """Rate limit persisted through the retry budget."""


class MalformedResponse(BackendError):
    """Endpoint answered, but not in the expected shape."""


class InvalidDistribution(BackendError):
    """An NLI response is not a probability distribution over the three labels."""


class ScriptExhausted(BackendError):
    """A scripted mock has no response left for the given request fingerprint."""


# --- verification --------------------------------------------------------------

class UnverifiableText(FactforgeError):
    """Claim extraction produced zero claims, so no verdict can be formed."""


# --- eval harness ----------------------------------------------------------------

class UnparseableVerdict(FactforgeError):
    """Model output contains neither verdict token."""


class MetricUndefined(FactforgeError):
    """A metric's preconditions do not hold (e.g. single-class gold labels)."""
