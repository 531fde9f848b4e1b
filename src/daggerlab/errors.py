"""Exception types shared across the package."""


class DaggerLabError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(DaggerLabError):
    """Operands live over different scalar fields."""


class ShapeMismatchError(DaggerLabError):
    """Morphism domains/codomains do not line up."""


class NonInvertibleError(DaggerLabError):
    """Attempted to invert a (numerically) zero scalar."""


class DomainError(DaggerLabError):
    """Input outside the mathematical domain of the operation."""


class NoMorphismError(DaggerLabError):
    """No morphism with the requested property exists (e.g. from the
    unit object into the zero object)."""


class UnsupportedFieldError(DaggerLabError):
    """The operation is only defined over a different scalar field."""


class ResidualError(DaggerLabError):
    """A reconstruction left a residual above tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual
