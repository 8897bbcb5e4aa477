"""Exception types shared across the algebra and transform modules."""


class ConformalDomainError(ValueError):
    """Input lies on (or too near) a cone where the map is undefined."""


class LightConeError(ConformalDomainError):
    """Event with |x^2| below the cone guard; inversion undefined there."""


class SctConeError(ConformalDomainError):
    """Event where the special-conformal scale factor vanishes."""


class GradeLeakageError(ArithmeticError):
    """A sandwich that must close on a single grade left residue above tolerance."""


class ImaginaryResidueError(ArithmeticError):
    """A result that must be real (or scalar-free) carried residue above tolerance."""


class NonBivectorError(ValueError):
    """Operand required to be a pure bivector has other grades."""


class NonRealEventError(ValueError):
    """Paravector expected to encode a real event has imaginary parts."""


class NonPositiveScaleError(ValueError):
    """Dilation factor must be strictly positive."""


class OriginSingularityError(ValueError):
    """Field evaluated at its singular point."""


class DegenerateTimeDerivativeError(ValueError):
    """Jacobian [0,0] entry is zero; time orientation undefined."""
