"""The package's errors: one class per way a command ends."""


class TorcrepError(Exception):
    """Base class for every package-specific error (CLI exit code 2, ``error:``)."""


class InputError(TorcrepError):
    """Malformed or inconsistent user-supplied data (CLI exit code 2, ``input error:``)."""


class InvariantError(TorcrepError):
    """An exact invariant that the mathematics guarantees did not hold."""


class ResolutionNotFound(TorcrepError):
    """The search found no smooth fan (CLI exit code 3).

    ``exhausted`` is True when every star-subdivision sequence over the
    targets failed (other fans are not covered), False at the budget.
    """

    def __init__(self, message, exhausted: bool):
        super().__init__(message)
        self.exhausted = exhausted


class CertificateFailure(TorcrepError):
    """A certificate check of ``verify`` failed (CLI exit code 1).

    The message names what broke; ``verify`` adds the junior it was checking.
    """
