"""Exception types shared across the package."""


class PirError(Exception):
    """Base class for all protocol-level errors."""


class ParameterError(PirError, ValueError):
    """A parameter set violates its validity constraints."""


class FieldTooSmallError(PirError):
    """The requested field cannot host the code lengths the scheme needs.

    Carries the minimal adequate width so callers can retry.
    """

    def __init__(self, message: str, min_width: int | None = None):
        super().__init__(message)
        self.min_width = min_width


class SingularMatrixError(PirError):
    """A matrix expected to be invertible is singular."""


class CorruptionError(PirError):
    """Over-determined code coordinates disagree with the decoded codeword."""


class InvalidSideInformationError(PirError):
    """The cached-message set is inconsistent with the requested retrieval."""


class ZeroCapacityError(PirError):
    """No positive-rate scheme exists for the requested parameters."""


class ProtocolError(PirError):
    """A wire-level exchange violated the framed protocol."""


class OverflowLimitError(PirError):
    """Parameters exceed the supported exact-arithmetic range."""


class AuditInvariantError(PirError):
    """A runtime invariant of the auditor was violated (e.g. rate above capacity)."""
