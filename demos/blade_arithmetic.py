"""A tour of the Cl(1,3) blade arithmetic underneath everything else."""

import math

import numpy as np

from emconf import (
    BLADE_NAMES,
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    vector_sandwich,
)

# 1) Basis products are integer-exact.  e0 squares to +1, the spatial
#    generators square to -1, and mixed products land on single blades.
e0 = Multivector13.blade(1 << 0)
e1 = Multivector13.blade(1 << 1)
print("e0 e0 =", (e0 * e0).scalar_part())
print("e1 e1 =", (e1 * e1).scalar_part())
e01 = e0 * e1
print("e0 e1 lands on", BLADE_NAMES[3], "with coefficient", e01.c[3])

# 2) A boost is the exponential of a timelike bivector.  The sandwich
#    doubles the rapidity, so exp(0.5 e1 e0) moves e0 by rapidity 1.
gen = Multivector13.blade(3, -0.5)  # e1 e0 stored against ascending e0 e1
L = exp_bivector(gen)
boosted = vector_sandwich(L, e0, L.reverse())
print("\nboosted e0:", FourVector.from_mv(boosted).as_array())
print("expected:  ", [math.cosh(1.0), math.sinh(1.0), 0.0, 0.0])

# 3) The Faraday bivector squares to the two Lorentz invariants.
E = np.array([0.8, -0.3, 0.1])
B = np.array([0.2, 0.5, -0.9])
F = Faraday13(E, B).to_mv()
sq = F * F
print("\nF^2 scalar part:      ", sq.c[0])
print("E^2 - B^2:            ", np.dot(E, E) - np.dot(B, B))
print("F^2 pseudoscalar part:", sq.c[15])
print("2 E.B:                ", 2 * np.dot(E, B))
