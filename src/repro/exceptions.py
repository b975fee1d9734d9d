"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array had a shape incompatible with the requested operation."""


class ConfigurationError(ReproError, ValueError):
    """A component was configured with invalid or contradictory options."""


class CompressionError(ReproError):
    """A codec failed to compress or decompress a payload."""


class IntegrityError(CompressionError):
    """Stored or decoded data failed an integrity check.

    Raised when a blob's checksum does not match its contents, when a
    serialized blob is truncated or structurally inconsistent, or when a
    decompressed array contains non-finite values.  Subclasses
    :class:`CompressionError` so existing corruption handlers keep
    working.
    """


class ProtocolError(ReproError):
    """A distributed-execution peer violated the wire protocol.

    Raised on malformed frames, unexpected message types, oversized
    payloads and connections that close mid-frame.  Handshake-level
    *identity* failures (plan fingerprint or weights mismatch) raise
    :class:`IntegrityError` instead: they mean the bytes were fine but
    the computation would not have been the same one.
    """


class ContractViolation(ReproError):
    """An achieved error escaped its negotiated tolerance.

    Carries a structured diagnostic so callers can report *where* the
    error contract broke, not just that it did.

    Attributes
    ----------
    codec:
        Name of the codec whose output violated the contract (if known).
    stage:
        Pipeline stage at which the violation was detected
        (e.g. ``"decompress"``, ``"qoi"``).
    norm:
        Norm the contract is expressed in (``"linf"`` or ``"l2"``).
    expected:
        The negotiated error bound.
    achieved:
        The measured error that exceeded it.
    """

    def __init__(
        self,
        message: str,
        *,
        codec: str | None = None,
        stage: str | None = None,
        norm: str | None = None,
        expected: float | None = None,
        achieved: float | None = None,
    ) -> None:
        super().__init__(message)
        self.codec = codec
        self.stage = stage
        self.norm = norm
        self.expected = expected
        self.achieved = achieved


class ToleranceError(ReproError, ValueError):
    """A requested error tolerance is invalid or cannot be satisfied."""


class QuantizationError(ReproError):
    """Weight or activation quantization failed."""


class TrainingError(ReproError):
    """Model training diverged or was misconfigured."""


class PlanningError(ReproError, ValueError):
    """The tolerance planner could not produce a feasible configuration."""
