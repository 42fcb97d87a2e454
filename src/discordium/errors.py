"""Exception types shared across the package."""


class DiscordiumError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DiscordiumError):
    """A matrix or config value is structurally unusable (non-square, NaN, ...)."""


class NotHermitian(DiscordiumError):
    """Operator deviates from its conjugate transpose beyond tolerance."""


class NotPositive(DiscordiumError):
    """A candidate state or nominally positive semidefinite operator has an
    eigenvalue below the allowed tolerance."""


NegativeEigenvalue = NotPositive


class TraceNotOne(DiscordiumError):
    """Candidate state trace deviates from 1 beyond tolerance."""


class DimensionMismatch(DiscordiumError):
    """Operands have incompatible dimensions."""


class IndexOutOfRange(DiscordiumError):
    """Block or entry index outside the valid range."""


class BadRank(DiscordiumError):
    """Requested rank outside 1..dim."""


class NotUnitary(DiscordiumError):
    """Matrix is not unitary within tolerance."""


class NotIsometry(DiscordiumError):
    """Matrix columns are not orthonormal within tolerance."""


class InvalidPovm(DiscordiumError):
    """Effects are not a valid POVM (positivity or completeness violated).

    Kraus completeness sum_i K_i† K_i = I is the same invariant.
    """


NotPovm = InvalidPovm


class NotRankOne(DiscordiumError):
    """POVM effect has rank larger than one."""


class BadConfig(DiscordiumError):
    """Optimizer configuration value out of range."""


class WrongDimension(DiscordiumError):
    """Operation requires a specific subsystem dimension."""


class DiagonalForbidden(DiscordiumError):
    """Conjugate-pair zeroing must not touch the diagonal."""


class NotAtEquality(DiscordiumError):
    """Convex-combination identity fails: the basis does not achieve the
    mutual-information equality this step presupposes."""


class CertificateInconsistent(DiscordiumError):
    """Classicality-certificate extraction failed a consistency check at a
    basis that was reported as discord-zero."""


class ParseError(DiscordiumError):
    """Input file could not be parsed into the expected schema."""
