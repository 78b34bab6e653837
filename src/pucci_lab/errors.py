"""Exception types shared across the laboratory."""


class PucciLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(PucciLabError):
    """A symmetric-matrix argument has non-finite entries or a bad shape."""


class DegenerateGradient(PucciLabError):
    """A gradient magnitude of zero where the operator weight is singular."""


class OutOfDomain(PucciLabError):
    """An evaluation point lies outside the admissible region."""


class InvalidNeumannData(PucciLabError):
    """A normal-derivative datum with the wrong sign or magnitude."""


class SignBranchFailure(PucciLabError):
    """No self-consistent coefficient branch exists at an ODE step.

    Carries the step state so the failure can be reported usefully.
    """

    def __init__(self, message, r=None, u=None, du=None):
        super().__init__(message)
        self.r = r
        self.u = u
        self.du = du


class IntegrationFailure(PucciLabError):
    """An adaptive ODE integration stopped before the end of its span."""


class NoZeroCrossing(PucciLabError):
    """A radial profile never crosses zero on the integrated range."""


class BracketFailure(PucciLabError):
    """A bisection could not bracket its target."""


class InvalidShape(PucciLabError):
    """A domain description is degenerate or under-resolved."""


class IterationLimit(PucciLabError):
    """An iterative solver hit its cap before meeting tolerance.

    ``history`` holds the residual (or eigenvalue) trace for diagnosis.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class PositivityLoss(PucciLabError):
    """An eigenfield developed interior values below the sign tolerance."""


class ReflectionOutOfDomain(PucciLabError):
    """A reflected cap leaves the domain: the plane moved past critical."""
