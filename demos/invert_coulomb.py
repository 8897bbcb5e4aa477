"""Conformal inversion of a Coulomb field along a radial line.

Walks a few radii, inverts the field at each event, and prints both frame
presentations side by side: the formula written at the source point and the
formula written at the image point give the same physics.
"""

import numpy as np

from emconf import (
    Coulomb,
    CoordinateFrame,
    Inversion,
    Paravector3,
    QuantityKind,
    transform3,
)

spec = Coulomb(q=1.0)
inversion = Inversion(eps=1)

print(f"{'r':>5} {'E_x':>10} {'E_x inverted':>14} {'image frame':>14} {'omega':>8}")
for r in (0.5, 1.0, 2.0, 4.0):
    x = (0.0, r, 0.0, 0.0)
    F = spec.faraday(x)
    ev = Paravector3.from_event(x)
    omega = -r * r  # squared interval of a purely spatial event

    # original frame: source event carries the formula
    Fp = transform3(inversion, QuantityKind.FARADAY, F, ev, CoordinateFrame.ORIGINAL)

    # transformed frame: the image event does, with compensating powers
    image = transform3(inversion, QuantityKind.POSITION, ev)
    Fp_image = transform3(
        inversion, QuantityKind.FARADAY, F, image, CoordinateFrame.TRANSFORMED
    )

    print(
        f"{r:5.2f} {F.E[0]:10.4f} {Fp.E[0]:14.6f} "
        f"{Fp_image.E[0]:14.6f} {omega:8.3f}"
    )

print()
print("Relative to the source field the inverted one grows like the fourth")
print("power of the interval: each doubling of r multiplies E'/E by 16.")
