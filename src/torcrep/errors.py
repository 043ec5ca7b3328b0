"""Exception hierarchy shared across the package."""


class TorcrepError(Exception):
    """Base class for every package-specific error."""


class InputError(TorcrepError):
    """Malformed or inconsistent user-supplied data (CLI exit code 2)."""


class GroupSyntaxError(InputError):
    """Group grammar violation; the message leads with the line and column when known."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class NotInSL(InputError):
    """Generator coordinates do not sum to 0 mod r (determinant != 1)."""


class InvalidGenerator(InputError):
    """Generator violates the lattice construction preconditions."""


class DimensionMismatch(InputError):
    """Generators of different ambient dimensions were mixed."""


class DimensionUnsupported(InputError):
    """Operation only implemented for a specific ambient dimension."""


class InvalidFan(InputError):
    """Imported fan data fails structural validation."""


class ExplosionGuard(TorcrepError):
    """Group order exceeds the configured element bound of the closure."""


class InvariantError(TorcrepError):
    """An exact invariant that the mathematics guarantees did not hold."""


class DenomMismatch(TorcrepError):
    """Lattice point denominator differs from the ambient lattice's."""


class NotInLattice(TorcrepError):
    """Point is not an element of the lattice."""


class NotPrimitive(TorcrepError):
    """Point is a proper integer multiple of a lattice point."""


class NotInSupport(TorcrepError):
    """Point lies outside the support of the fan."""


class RayAbsent(TorcrepError):
    """The requested ray is not a ray of the fan."""


class LiftAmbiguous(TorcrepError):
    """Two distinct fan rays project onto the same star-fan ray."""


class ResolutionNotFound(TorcrepError):
    """The search found no smooth fan (CLI exit code 3).

    ``exhausted`` is True when every star-subdivision sequence over the
    targets failed (other fans are not covered), False at the budget.
    """

    def __init__(self, message, exhausted: bool):
        super().__init__(message)
        self.exhausted = exhausted


class CertificateFailure(TorcrepError):
    """A normal-embedding certificate check failed; the message names what broke."""


class NotComplete(TorcrepError):
    """Fan is not complete."""


class NotSmooth(TorcrepError):
    """Fan or cone is not smooth."""


class NotSurface(TorcrepError):
    """Fan is not two-dimensional."""
