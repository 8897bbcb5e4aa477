"""One field, one event, three independent computations of its inversion.

The Cl(1,3) sandwich, the Cl(3) paravector formula, and the plain-array
tensor law share no multiplication machinery, so their agreement to near
machine precision is a real check, not an echo.
"""

import numpy as np

from emconf import (
    CoordinateFrame,
    Faraday13,
    Faraday3,
    Inversion,
    Paravector3,
    QuantityKind,
    oracle,
    transform,
    transform3,
)
from emconf.cl13 import FourVector

rng = np.random.default_rng(2024)
t, rx, ry, rz = 1.4, 0.3, -0.6, 0.2
E = rng.uniform(-1, 1, 3)
B = rng.uniform(-1, 1, 3)
eps = 1
inversion = Inversion(eps)
FARADAY, ORIGINAL = QuantityKind.FARADAY, CoordinateFrame.ORIGINAL

# route 1: Cl(1,3) multivector sandwich
x13 = FourVector(t, rx, ry, rz)
r1 = transform(inversion, FARADAY, Faraday13(E, B), x13, ORIGINAL)

# route 2: Cl(3) complex-vector formula
x3 = Paravector3.from_event((t, rx, ry, rz))
r2 = transform3(inversion, FARADAY, Faraday3(E, B), x3, ORIGINAL)

# route 3: tensor law through the Jacobian, plain arrays only
x = np.array([t, rx, ry, rz])
M = oracle.jacobian_inversion(x, eps)
out = oracle.transform_faraday(M, oracle.pack_faraday(E, B),
                               lam=abs(oracle.msq(x)), theta=-eps)
E3, B3 = oracle.unpack_faraday(np.asarray(out, dtype=np.float64))

print("event x =", x, " interval x^2 =", oracle.msq(x))
print()
print("route            E'                                   B'")
print("Cl(1,3)  ", r1.E, r1.B)
print("Cl(3)    ", r2.E, r2.B)
print("tensor   ", E3, B3)
print()
print("max |Cl13 - Cl3|:   ", max(np.max(np.abs(r1.E - r2.E)), np.max(np.abs(r1.B - r2.B))))
print("max |Cl13 - tensor|:", max(np.max(np.abs(r1.E - E3)), np.max(np.abs(r1.B - B3))))
