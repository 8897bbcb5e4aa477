"""A plane wave stays null through the special conformal transformation."""

import numpy as np

from emconf import (
    PlaneWave,
    Paravector3,
    QuantityKind,
    Sct,
    invariants,
    sct_factor3,
    transform3,
)

wave = PlaneWave(E0=(1.0, 0.0, 0.0), khat=(0.0, 0.0, 1.0))
sct = Sct((0.2, 0.0, 0.1, -0.05))
a = Paravector3.from_event(sct.a)

rng = np.random.default_rng(7)
print(f"{'sigma':>8} {'|I1| before':>12} {'|I1| after':>12} {'|I2| after':>12}")
shown = 0
while shown < 8:
    t, rx, ry, rz = rng.uniform(-2, 2, 4)
    event = (t, rx, ry, rz)
    x = Paravector3.from_event(event)
    sigma = sct_factor3(x, a)
    if abs(sigma) < 0.1 or abs(t * t - rx * rx - ry * ry - rz * rz) < 0.1:
        continue
    F = wave.faraday(event)
    i1, i2 = invariants(F)
    Fp = transform3(sct, QuantityKind.FARADAY, F, x)
    j1, j2 = invariants(Fp)
    print(f"{sigma:8.3f} {abs(i1):12.2e} {abs(j1):12.2e} {abs(j2):12.2e}")
    shown += 1

print()
print("Both invariants scale by sigma^4, and sigma^4 times zero is zero:")
print("null electromagnetic fields are conformally null in every frame.")
