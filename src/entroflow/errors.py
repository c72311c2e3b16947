"""Exception hierarchy shared across the package."""


class EntroflowError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EntroflowError):
    """Bad run configuration (CLI or config file)."""


class DegenerateDomain(EntroflowError):
    """Domain or resolution too small to build a usable grid."""


class NonFiniteWeight(EntroflowError):
    """exp(-F) overflowed, underflowed to zero, or is NaN on the grid."""


class TailMassTooLarge(EntroflowError):
    """The bound on the weight beyond a radial grid exceeds the tail tolerance."""


class DomainError(EntroflowError):
    """Potential evaluated outside its domain (e.g. x = 0 for singular families)."""


class ParameterError(EntroflowError):
    """Scalar parameter outside the admissible range."""


class NegativeDensity(EntroflowError):
    """Density field with negative entries passed to a functional."""


class FloorViolation(EntroflowError):
    """Field dips below the positivity floor required by a division."""


class MassNotNormalized(EntroflowError):
    """Field mass differs from 1 where unit mass is required."""


class SolverDiverged(EntroflowError):
    """An iterative solver gave up.  The eigensolver: its tridiagonal matrix
    has non-finite entries, LAPACK dpttrf returned info < 0 (an illegal
    argument), dpttrf refused a shift at the certified lower bound of the
    spectrum, no shift factored within the factorization cap, or inverse
    iteration did not reach the residual tolerance within its solve cap.
    The linear flow: the Krylov expansion of a one-row window did not meet
    its tolerances within the solve cap."""


class NewtonDiverged(EntroflowError):
    """The porous-media flow's step controller rejected too many steps in a
    row (Newton stalls or error estimates above tolerance)."""


class LinearSolveFailure(EntroflowError):
    """LAPACK dpttrf cannot factor the linear flow's shifted tridiagonal
    matrix W + gamma S, which is then not positive definite."""


class OutsideEllipse(EntroflowError):
    """(m, p) pair outside the admissible ellipse for the given theta."""


class QOutOfRange(EntroflowError):
    """Interpolation exponent q outside (1, 4/3), i.e. m outside (1, p+1)."""


class NonpositiveLambda(EntroflowError):
    """Constant chain requires a positive eigenvalue."""


class WindowTooShort(EntroflowError):
    """Not enough snapshots inside the fit window."""


class NonPositiveData(EntroflowError):
    """Log-linear fit requested on data that is not strictly positive."""
