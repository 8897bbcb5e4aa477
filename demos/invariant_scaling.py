"""How the two Lorentz invariants scale under each transformation family.

I1 = E^2 - B^2 and I2 = 2 E.B both pick up the fourth power of the conformal
scale.  The pseudoscalar invariant I2 additionally flips sign whenever the
map reverses orientation: the inversion and the improper Lorentz classes.
"""

from emconf import (
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    Sct,
    Translation,
    UniformField,
    invariant_scaling_report,
)

field = UniformField(E0=(0.9, -0.2, 0.4), B0=(0.1, 0.6, -0.3))
x = (1.3, 0.4, -0.2, 0.5)

cases = [
    ("dilation x2", Dilation(2.0)),
    ("translation", Translation((1.0, -0.5, 0.0, 2.0))),
    ("boost", Lorentz(boost=(0.3, 0.0, 0.0))),
    ("improper rotation", Lorentz(rotation=(0.0, 0.4, 0.0),
                                  lorentz_class=LorentzClass.IMPROPER_ORTHOCHRONOUS)),
    ("inversion", Inversion(eps=1)),
    ("special conformal", Sct((0.2, 0.1, 0.0, -0.1))),
]

print(f"{'family':>18} {'scale':>8} {'I1 factor':>10} {'I2 factor':>10} {'max rel dev':>12}")
for name, params in cases:
    r = invariant_scaling_report(field, params, x)
    dev = max(r.rel_dev_i1, r.rel_dev_i2)
    print(f"{name:>18} {r.scale:8.3f} {r.factor_i1:10.4f} {r.factor_i2:10.4f} {dev:12.2e}")
