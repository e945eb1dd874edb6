"""Exception types shared across the package."""


class LevyUpError(Exception):
    """Base class for all errors raised by this package."""


class QuadratureFailure(LevyUpError):
    """A fixed-panel quadrature found its integrand unresolved."""


class DegenerateSymbol(LevyUpError):
    """The symbol vanishes identically on the evaluation grid."""


class EvaluationFailure(LevyUpError):
    """An integrand could not be evaluated on interior points."""


class ZeroTail(LevyUpError):
    """The jump-tail function vanishes on part of the requested grid."""


class InverseFailure(LevyUpError):
    """A generalized inverse collapsed to zero at the working resolution."""


class RateOverflow(LevyUpError):
    """Compound-Poisson jump rate times step size exceeds the safety cap."""


class BracketIndeterminate(LevyUpError):
    """Index bisection could not classify convergence at a bracket point."""


class ParseError(LevyUpError):
    """Config text could not be parsed; carries line/key information."""


class ValidationError(LevyUpError):
    """A parsed config value violates its documented range."""
