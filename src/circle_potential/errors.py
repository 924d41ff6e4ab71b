"""Exception hierarchy shared by all modules.

The command line front end maps these onto exit codes: precondition
failures (bad inputs, unresolved grids, degenerate data) exit with 2,
solver non-convergence exits with 3.
"""


class CirclePotentialError(Exception):
    """Base class for all library errors."""


class PreconditionError(CirclePotentialError):
    """An operation was called on inputs outside its contract."""


class ResolutionError(PreconditionError):
    """The grid is too coarse to resolve a requested arc (under RESOLUTION_CELLS cells)."""


class SetupError(PreconditionError):
    """Invalid geometric configuration (for example theta >= gamma*pi/2)."""


class DegenerateInputError(PreconditionError):
    """Input is degenerate for the requested quantity (zero seminorm, zero mean)."""


class SingularityError(PreconditionError):
    """Kernel evaluated at chord distance zero."""


class ConstructionError(PreconditionError):
    """A Cantor-type construction rule is inadmissible at some stage."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class ConvergenceError(CirclePotentialError):
    """A solver could not certify its result: a solve failed, gave a
    nonpositive entry, or the certificate missed the tolerance.

    ``best_estimate`` is the best uncertified estimate found, for callers
    to inspect, or None when the solver produced none.
    """

    def __init__(self, message: str, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
