"""Exception hierarchy shared by all modules."""


class CalabiflowError(Exception):
    """Base class for all package errors."""


class DegenerateInputError(CalabiflowError):
    """Input geometry or discretization parameters admit no valid object."""


class DomainError(CalabiflowError):
    """A point lies outside the domain required by the operation."""


class CurvatureUndefinedError(CalabiflowError):
    """The Hessian is not positive definite where curvature was requested."""


class StiffnessError(CalabiflowError):
    """Time stepper rejected too many step-size reductions in a row.

    Carries the last state that passed the acceptance checks.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class RegimeError(CalabiflowError):
    """A certification chain was invoked outside its hypotheses.

    The message names the failed hypothesis.
    """


class ConfigError(CalabiflowError):
    """Run configuration is malformed or inconsistent."""
