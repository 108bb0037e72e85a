"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """A problem definition or an input file violates a structural invariant.

    ``violations`` holds the individual findings when more than one check
    failed.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else [message]


class NullEventError(RuntimeError):
    """Conditioning on an event of probability zero.

    Raised when the surviving mass vanishes, e.g. when every state charged
    by a law is killed at the next phase.  It signals a modelling mistake
    rather than a numerical failure.
    """


class Hypothesis1Error(RuntimeError):
    """The dominant-class selection is ambiguous.

    Raised when two or more communicating classes reachable from the
    initial law tie for the maximal decay rate and the analysis cannot
    combine them; the spectral limit theorems then do not apply and no
    class is picked silently.
    """

    def __init__(self, message: str, tied_classes: tuple[int, ...] = ()):
        super().__init__(message)
        self.tied_classes = tuple(tied_classes)


class ConvergenceError(RuntimeError):
    """A numerical result could not be brought to, or certified at, its tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NoSurvivorsError(RuntimeError):
    """A Monte Carlo run produced no surviving trajectory.

    Estimates conditioned on survival are undefined; increase the
    trajectory budget or lower the horizon.
    """
