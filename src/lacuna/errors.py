"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
CLI exit codes and tests can discriminate without string matching.
"""

from __future__ import annotations


class LacunaError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LacunaError):
    """Malformed polynomial text. Carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotDivisible(LacunaError):
    """Polynomial division left a nonzero remainder."""


class QuadratureBudgetExceeded(LacunaError):
    """Adaptive quadrature hit its panel budget before reaching the tolerance."""


class IllConditionedZeros(LacunaError):
    """The zero analysis could not certify locations/multiplicities, or no
    exact (Gaussian-rational) factor carries the zeros it found."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NotHermitianSymmetric(LacunaError):
    """Coefficients are not conjugate-symmetric about the given half degree."""


class SolverStalled(LacunaError):
    """The cone certificate could not be completed: a face that may vanish at
    an irrational circle point, no certified vector within the halvings, or
    a slice search that found no new cut point or ran out of cutting rounds."""


class WitnessValidationFailed(LacunaError):
    """No candidate vector passed the exact witness validation; internal bug."""


class SpectrumViolation(LacunaError):
    """Input polynomial has energy on a forbidden frequency."""
