"""Exception types shared across the package."""


class QladderError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(QladderError):
    """A series or iteration failed to converge within its budget."""


class Unsupported(QladderError):
    """The requested quantity exists but is outside the implemented range."""


class StripError(QladderError):
    """Argument lies outside the analyticity strip of a characteristic function."""


class Singular(QladderError):
    """A matrix that must be invertible is (numerically) singular."""


class ConstraintViolated(QladderError):
    """A linear constraint on the mode-combination matrix fails.

    Carries the offending row index as ``.row``.
    """

    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"constraint violated in row {row}")


class NoPseudoVacuum(QladderError):
    """The lowering walk cannot terminate (no annihilated state exists)."""


class CutoffOverflow(QladderError):
    """An operator application left the truncated occupation basis."""
