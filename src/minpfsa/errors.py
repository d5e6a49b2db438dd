"""Exception types raised across the package."""


class MinpfsaError(Exception):
    """Base class for all package errors."""


class EmptySequenceError(MinpfsaError):
    """The input sequence contains no symbols."""


class SequenceTooShortError(MinpfsaError):
    """The sequence is shorter than the window length it must support."""


class UnobservedHistoryError(MinpfsaError):
    """A conditional distribution was requested for a history that never
    occurs with a continuation."""


class EmptyStateError(MinpfsaError):
    """A pooled distribution was requested for an empty set of histories."""


class DegenerateSampleError(MinpfsaError):
    """A statistical test received a sample with zero total count."""


class DeadEndError(MinpfsaError):
    """A sampling walk reached a state with no outgoing transitions."""


class TooLargeForOracleError(MinpfsaError):
    """A brute-force oracle was asked to enumerate beyond its size limit."""


class CoverOverflowError(MinpfsaError):
    """Exact-cover enumeration exceeded the configured cap."""


class FormatError(MinpfsaError):
    """A file being read does not match the expected format."""
