"""Dictionary between Cl(1,3) and the paravector algebra Cl(3).

The even subalgebra of Cl(1,3) is carried onto Cl(3) blade by blade:
timelike bivectors e_0 e_i map to -x_i (the physical blades e_i e_0 map to
+x_i), spatial bivectors map to the imaginary units, the scalar stays put and
the four-blade supplies the imaginary scalar.  Odd elements ride along after
right multiplication by e_0, which is why a four-vector x lands on the real
paravector t + r, Paravector3.from_event(x), and e_0 x on its conjugate.
"""

from __future__ import annotations

import numpy as np

from .cl13 import _PSEUDOSCALAR, GRADE_OF, Faraday13, FourVector, Multivector13, geometric_product
from .cl3 import Faraday3, Paravector3, cl3_product
from .errors import GradeLeakageError
from .maps import GRADE_TOL

_ODD = GRADE_OF % 2 == 1


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def even_to_cl3(m: Multivector13) -> Paravector3:
    """Map even multivectors, row by row, into Cl(3), the bivectors read as
    a field's E and B; rejects odd-grade residue above GRADE_TOL in any row."""
    c = m.c
    odd = np.abs(c[..., _ODD]).max(axis=-1)
    if not (odd <= GRADE_TOL * np.fmax(1.0, m.max_abs())).all():
        raise GradeLeakageError(
            f"odd-grade residue {np.max(odd):.3e} in even-subalgebra map"
        )
    F = Faraday13._from_blades(c)
    return Paravector3._wrap(_complex(m.scalar_part(), c[..., _PSEUDOSCALAR]), _complex(F.E, F.B))


def product_correspondence_check(x: FourVector, y: FourVector):
    """Max-abs deviation between the images of x y and the product x bar(y),
    per row."""
    lhs = even_to_cl3(geometric_product(x.to_mv(), y.to_mv()))
    rhs = cl3_product(Paravector3.from_event(x), Paravector3.from_event(y).bar())
    return (lhs - rhs).max_abs()


def sandwich_correspondence_check(x: FourVector, F: Faraday13, y: FourVector):
    """Max-abs deviation between the images of x F y and -x F* bar(y), per
    row."""
    raw = geometric_product(
        geometric_product(x.to_mv(), F.to_mv()), y.to_mv()
    )
    lhs = even_to_cl3(raw)
    fstar = Faraday3(F.E, F.B).to_paravector().star()
    rhs = -cl3_product(
        cl3_product(Paravector3.from_event(x), fstar), Paravector3.from_event(y).bar()
    )
    return (lhs - rhs).max_abs()
