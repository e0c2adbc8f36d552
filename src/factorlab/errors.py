"""Exception types shared across the package."""


class FactorLabError(Exception):
    """Base class for all package errors."""


class NonFiniteError(FactorLabError):
    """Input contains NaN or Inf."""


class NotHermitianError(FactorLabError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(FactorLabError):
    """Matrix is not positive semi-definite within tolerance."""


class SingularError(FactorLabError):
    """Matrix inversion failed or is numerically singular."""


class PreconditionViolatedError(FactorLabError):
    """An operation's mathematical precondition does not hold."""


class DimMismatchError(FactorLabError):
    """Operands have incompatible dimensions or fields."""


class IllConditionedError(FactorLabError):
    """Condition number exceeds the guard threshold."""


class NotUnitaryError(FactorLabError):
    """Matrix is not unitary/orthogonal within tolerance."""


class NotReducedError(FactorLabError):
    """Target matrix has not been reduced to non-negative diagonal form."""


class MalformedCSVError(FactorLabError):
    """Trajectory CSV is missing metadata, header, or rows."""


class ConfigError(FactorLabError):
    """Run configuration is invalid."""
