"""Conformal transformations of electromagnetic quantities, three ways.

The same dilations, translations, Lorentz maps, inversions, and special
conformal transformations are implemented in the sixteen-component spacetime
algebra, in the complex paravector algebra, and as plain tensor arithmetic.
The three routes are kept independent so each can check the others.
"""

from types import ModuleType as _ModuleType

from .cl13 import (
    BLADE_NAMES,
    DIM,
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    geometric_product,
    grade_project,
    vector_sandwich,
)
from .cl3 import (
    Faraday3,
    Paravector3,
    cl3_product,
    exp_complex_vector,
    minkowski_square,
)
from .maps import (
    ConformalParams,
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)
from .conformal13 import induced_matrix, sct_factor, transform
from .conformal3 import (
    Refusal,
    induced_matrix3,
    sct_factor3,
    transform3,
)
from .bridge import (
    even_to_cl3,
    product_correspondence_check,
    sandwich_correspondence_check,
)
from .errors import (
    ConformalDomainError,
    DegenerateTimeDerivativeError,
    GradeLeakageError,
    ImaginaryResidueError,
    LightConeError,
    NonBivectorError,
    NonPositiveScaleError,
    NonRealEventError,
    OriginSingularityError,
    SctConeError,
)
from .fields import (
    Coulomb,
    FieldSpec,
    InvariantScalingReport,
    PlaneWave,
    UniformField,
    invariant_scaling_report,
    invariants,
    predicted_invariant_factors,
    sweep,
)

__version__ = "0.1.0"

# The import block above is the public surface; the submodules bound as
# package attributes by those imports are not part of it.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
