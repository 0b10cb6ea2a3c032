"""Exception types shared across the package."""


class SccoptError(Exception):
    """Base class for all package errors."""


class ParseError(SccoptError):
    """Raised on malformed or unsupported network input files."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonConvergence(SccoptError):
    """Newton iteration failed to reach residual tolerances."""


class SingularSystem(SccoptError):
    """The reduced hydraulic system could not be factorized or gave a non-finite step."""


class InconsistentBounds(SccoptError):
    """A variable lower bound exceeds its upper bound."""


class ZeroSupport(SccoptError):
    """Fewer candidate locations with positive weight than valves to place."""


class AllStartsInfeasible(SccoptError):
    """No feasible control: every start is infeasible at some timestep, no
    sampled placement admits one, or the relaxation was not solved to
    optimality."""
