"""Exception and warning types shared across the package."""


class BogoflowError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(BogoflowError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class SingularMetric(BogoflowError):
    """Spatial metric is not invertible / positive definite at a sampled point."""


class QuadratureFailure(BogoflowError):
    """Quadrature did not converge within its node budget."""


class NegativeEigenvalue(BogoflowError):
    """Instantaneous operator has an eigenvalue below -tol (unrecoverable)."""


class ZeroMode(BogoflowError):
    """Instantaneous operator has an eigenvalue within tol of zero.

    Callers may retry after a small mass shift, see
    :func:`bogoflow.spectral.regularize_zero_mode`.
    """


class DegeneracyMismatch(BogoflowError):
    """Degenerate eigenspace dimensions changed between two time slices."""


class SymmetryViolation(BogoflowError):
    """Coupling matrices violate their anti-Hermitian/symmetric structure."""


class StepFailure(BogoflowError):
    """Adaptive step size underflowed during ODE integration."""


class IdentityDrift(BogoflowError):
    """Bogoliubov identity residual exceeded its monitoring cap mid-run."""


class DimensionMismatch(BogoflowError, ValueError):
    """Block matrices with incompatible mode counts were combined."""


class MissingPerturbedModes(BogoflowError):
    """First-order input is absent: frequency drifts for the mode form, or
    ``delta_operator`` for the operator form."""


class NonDecayingProfile(BogoflowError):
    """Asymptotic Fourier coefficients requested for a non-decaying profile."""


class WindowViolation(UserWarning):
    """Integration window lies outside the first-order validity range."""


class AsymptoteNotReached(UserWarning):
    """A scenario curve has not plateaued at the end of the integration range."""


class UnresolvedSlice(UserWarning):
    """A slice's Galerkin modes do not chop on the largest basis size."""
