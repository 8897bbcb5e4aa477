"""Tests for the analytic field specifications and invariant reports."""

import dataclasses

import numpy as np
import pytest

from emconf import conformal3
from emconf.cl13 import FourVector
from emconf.errors import LightConeError, OriginSingularityError
from emconf.fields import (
    Coulomb,
    PlaneWave,
    UniformField,
    invariant_scaling_report,
    invariants,
    predicted_invariant_factors,
    sweep,
)
from emconf.maps import (
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    Sct,
    Translation,
)


def test_uniform_field_is_constant():
    spec = UniformField(E0=(1.0, 2.0, 3.0), B0=(0.0, -1.0, 0.5))
    for point in [(0, 0, 0, 0), (5, -2, 1, 7)]:
        F = spec.faraday(FourVector(*point))
        assert np.array_equal(F.E, [1.0, 2.0, 3.0])
        assert np.array_equal(F.B, [0.0, -1.0, 0.5])


def test_plane_wave_values_and_nullity():
    spec = PlaneWave(E0=(1.0, 0.0, 0.0), khat=(0.0, 0.0, 1.0))
    # at the origin the phase is zero: E = E0, B = khat x E0
    F = spec.faraday(FourVector(0.0, 0.0, 0.0, 0.0))
    assert np.allclose(F.E, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(F.B, [0.0, 1.0, 0.0], atol=1e-15)
    rng = np.random.default_rng(71)
    for _ in range(25):
        F = spec.faraday(FourVector(*rng.uniform(-5, 5, 4)))
        i1, i2 = invariants(F)
        assert abs(i1) < 1e-14 and abs(i2) < 1e-14


def test_plane_wave_phase_offset():
    spec = PlaneWave(E0=(0.0, 2.0, 0.0), khat=(1.0, 0.0, 0.0), phase=np.pi / 2)
    F = spec.faraday(FourVector(0.0, 0.0, 0.0, 0.0))
    assert np.allclose(F.E, 0.0, atol=1e-15)


def test_plane_wave_validation():
    with pytest.raises(ValueError):
        PlaneWave(E0=(1.0, 0.0, 0.0), khat=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        PlaneWave(E0=(0.0, 0.0, 1.0), khat=(0.0, 0.0, 1.0))


def _waves(n: int, seed: int):
    """n unit directions, amplitudes orthogonal to them, and phases."""
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(n, 3))
    k /= np.sqrt((k * k).sum(axis=1))[:, None]
    e = np.cross(k, rng.normal(size=(n, 3)))
    return e, k, rng.uniform(0, 2 * np.pi, n)


def test_plane_wave_rows_are_their_own_waves():
    """Row i of a wave per row, at event i, is wave i's own field there."""
    e, k, phase = _waves(9, 72)
    X = np.random.default_rng(73).uniform(-5, 5, (9, 4))
    F, charge = PlaneWave(E0=e, khat=k, phase=phase).faraday_rows(X)
    assert F.F.shape == (9, 3) and not charge.any()
    for i in range(9):
        one = PlaneWave(E0=tuple(e[i]), khat=tuple(k[i]), phase=float(phase[i]))
        assert F.F[i].tobytes() == one.faraday(FourVector.from_array(X[i])).F.tobytes()


@pytest.mark.parametrize("bad", ["khat", "E0"])
def test_plane_wave_validation_sees_every_row(bad):
    """One non-unit direction, or one amplitude off orthogonal, among valid
    rows is refused."""
    e, k, phase = _waves(5, 74)
    if bad == "khat":
        k[3] *= 1.001
    else:
        e[3] += 1e-3 * k[3]
    with pytest.raises(ValueError):
        PlaneWave(E0=e, khat=k, phase=phase)


def test_plane_wave_orthogonality_is_relative_to_the_amplitude():
    """khat = (2, 3, 6) / 7 and E0 = (3, -6, 2) 1e6 / 7 are orthogonal, but
    their rounded dot product is far above 1e-12; it is measured against
    max(1, |E0|), row by row, so 2,000 random orthogonal pairs at |E0| =
    1e6 all pass, and a unit amplitude 1e-9 off orthogonal beside such a
    row is still refused."""
    khat = np.array([2.0, 3.0, 6.0]) / 7
    E0 = np.array([3.0, -6.0, 2.0]) * 1e6 / 7
    assert abs(khat @ E0) > 1e-12
    PlaneWave(E0=E0, khat=khat)
    e, k, _ = _waves(2000, 75)
    PlaneWave(E0=1e6 * e / np.sqrt((e * e).sum(axis=1))[:, None], khat=k)
    with pytest.raises(ValueError, match="orthogonal"):
        PlaneWave(E0=[E0, (1.0, 0.0, 1e-9)], khat=[khat, (0.0, 0.0, 1.0)])


def test_coulomb_field():
    spec = Coulomb(q=1.0)
    F = spec.faraday(FourVector(0.0, 2.0, 0.0, 0.0))
    assert np.allclose(F.E, [0.25, 0.0, 0.0], atol=1e-15)
    assert np.allclose(F.B, 0.0)
    with pytest.raises(OriginSingularityError):
        spec.faraday(FourVector(1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("spec", [
    UniformField(E0=(1.0, 2.0, 3.0), B0=(0.0, -1.0, 0.5)),
    PlaneWave(E0=(0.8, 0.5, -0.6), khat=(0.6, 0.0, 0.8), phase=0.3),
    Coulomb(q=-1.5),
], ids=["uniform", "planewave", "coulomb"])
def test_faraday_rows_are_the_single_events(spec):
    """A batch of events gives each event's field; only Coulomb has a charge."""
    events = np.array([[0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.5, -1.0, 0.25, 2.0]])
    F, charge = spec.faraday_rows(events)
    assert F.F.shape == (3, 3)
    assert charge.tolist() == [False, isinstance(spec, Coulomb), False]
    for i, x in enumerate(events):
        if not charge[i]:
            assert F.F[i].tobytes() == spec.faraday(FourVector(*x)).F.tobytes()


@pytest.mark.parametrize("spec", [
    UniformField(E0=(1.0, 2.0, 3.0), B0=(0.0, -1.0, 0.5)),
    PlaneWave(E0=(0.8, 0.5, -0.6), khat=(0.6, 0.0, 0.8), phase=0.3),
    Coulomb(q=-1.5),
], ids=["uniform", "planewave", "coulomb"])
def test_faraday_takes_a_batch_of_events(spec):
    """Coulomb.faraday once raised numpy's ambiguous-truth ValueError on a
    batch, with no row at the charge; a batch with one there is refused."""
    events = np.array([[0.0, 2.0, 0.0, 0.0], [0.5, -1.0, 0.25, 2.0]])
    assert spec.faraday(events).F.tobytes() == spec.faraday_rows(events)[0].F.tobytes()
    if isinstance(spec, Coulomb):
        with pytest.raises(OriginSingularityError):
            spec.faraday(np.vstack([events, [1.0, 0.0, 0.0, 0.0]]))


def test_invariants_frozen():
    assert invariants(UniformField(E0=(1, 0, 0)).faraday(FourVector(0, 0, 0, 0))) == (
        pytest.approx(1.0),
        pytest.approx(0.0),
    )
    F = UniformField(E0=(1, 0, 0), B0=(1, 0, 0)).faraday(FourVector(0, 0, 0, 0))
    i1, i2 = invariants(F)
    assert i1 == pytest.approx(0.0, abs=1e-15)
    assert i2 == pytest.approx(2.0, abs=1e-15)


def test_predicted_invariant_factors():
    assert predicted_invariant_factors(Dilation(2.0), 2.0) == (16.0, 16.0)
    assert predicted_invariant_factors(Translation(FourVector(1, 0, 0, 0)), 1.0) == (
        1.0,
        1.0,
    )
    # the pseudoscalar invariant flips for the inversion and for improper rotations
    assert predicted_invariant_factors(Inversion(1), 3.0) == (81.0, -81.0)
    assert predicted_invariant_factors(Sct(FourVector(0.1, 0, 0, 0)), 2.0) == (
        16.0,
        16.0,
    )
    proper = Lorentz()
    improper = Lorentz(lorentz_class=LorentzClass.IMPROPER_ORTHOCHRONOUS)
    assert predicted_invariant_factors(proper, 1.0) == (1.0, 1.0)
    assert predicted_invariant_factors(improper, 1.0) == (1.0, -1.0)
    assert type(predicted_invariant_factors(improper, 1.0)[1]) is float


def test_predicted_invariant_factors_per_row_class():
    classes = np.array(list(LorentzClass), dtype=object)
    f1, f2 = predicted_invariant_factors(Lorentz(np.zeros((4, 3)), np.zeros((4, 3)), classes), 1.0)
    assert f1 == 1.0
    assert f2.tolist() == [
        predicted_invariant_factors(Lorentz(lorentz_class=c), 1.0)[1] for c in LorentzClass
    ]
    f1, f2 = predicted_invariant_factors(Dilation(np.array([1.5, 2.0])), None)
    assert f1.tolist() == f2.tolist() == [1.5**4, 2.0**4]


def test_invariant_scaling_report():
    spec = UniformField(E0=(1.0, 0.3, -0.2), B0=(0.4, -1.0, 0.6))
    x = FourVector(1.2, 0.4, -0.3, 0.2)
    for params in [
        Inversion(eps=1),
        Sct(a=FourVector(0.3, -0.1, 0.2, 0.0)),
        Dilation(1.7),
    ]:
        report = invariant_scaling_report(spec, params, x)
        assert report.rel_dev_i1 < 1e-11
        assert report.rel_dev_i2 < 1e-11
        assert report.i1_transformed == pytest.approx(
            report.factor_i1 * report.i1, rel=1e-9
        )


# The report's numbers that a batch of maps gives to the bit; the others
# come from the fourth power of the scale, which numpy rounds for an array
# and for one numpy scalar by different code, so they may differ in the last
# bit: relative to the number for the factors and the condition number, and
# relative to the floor that divides them for the deviations.
_BATCH_EXACT = ("i1", "i2", "i1_transformed", "i2_transformed", "scale")
_BATCH_DEVIATIONS = ("rel_dev_i1", "rel_dev_i2")


@pytest.mark.parametrize("batch, singles", [
    (Inversion(np.array([1, -1])), [Inversion(1), Inversion(-1)]),
    (Dilation(np.array([1.7, 0.6])), [Dilation(1.7), Dilation(0.6)]),
])
def test_invariant_scaling_report_of_a_batch_of_maps(batch, singles):
    """A batch of maps at one event gives one report row per map, that map's
    own report, where Python max and abs once raised numpy's ambiguous-truth
    ValueError."""
    spec = UniformField(E0=(1.0, 0.3, -0.2), B0=(0.4, -1.0, 0.6))
    x = FourVector(1.2, 0.4, -0.3, 0.2)
    report = invariant_scaling_report(spec, batch, x)
    eps = np.finfo(np.float64).eps
    for i, params in enumerate(singles):
        one = invariant_scaling_report(spec, params, x)
        for name in (f.name for f in dataclasses.fields(one)):
            got = np.broadcast_to(getattr(report, name), (len(singles),))[i]
            want = np.float64(getattr(one, name))
            if name in _BATCH_EXACT:
                assert got.tobytes() == want.tobytes(), name
            elif name in _BATCH_DEVIATIONS:
                assert abs(got - want) <= 4 * eps, name
            else:
                assert abs(got - want) <= 4 * eps * abs(want), name


def test_invariant_scaling_report_guards():
    spec = UniformField(E0=(1.0, 0.0, 0.0))
    with pytest.raises(LightConeError):
        invariant_scaling_report(spec, Inversion(1), FourVector(1.0, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("params", [Sct(FourVector(0.1, 0.0, 0.2, 0.0)), Inversion(1)])
def test_conformal_scale_is_evaluated_once_per_call(monkeypatch, params):
    """sigma or x^2 is evaluated once per sweep in the ORIGINAL frame, once
    more for the preimages in the TRANSFORMED frame, and once per invariants
    report."""
    calls = []

    def counted(inner):
        def call(*args):
            calls.append(inner)
            return inner(*args)

        return call

    for name in ("sct_factor3", "minkowski_square"):
        monkeypatch.setattr(conformal3, name, counted(getattr(conformal3, name)))
    events = np.array([[0.5, 0.1, -0.2, 0.3], [1.0, 0.3, 0.2, -0.4]])
    counts = []
    for frame in CoordinateFrame:
        sweep(Coulomb(), params, events, frame)
        counts.append(len(calls))
        calls.clear()
    invariant_scaling_report(Coulomb(), params, FourVector(*events[0]))
    assert counts + [len(calls)] == [1, 2, 1]


@pytest.mark.parametrize("params, codes", [
    (Translation((0.5, 0.0, 0.0, 0.0)), [5, 0, 0]),
    (Dilation(2.0), [5, 5, 0]),
    (Lorentz((0.3, 0.0, 0.0), (0.0, 0.0, 0.0)), [5, 0, 0]),
])
def test_transformed_sweep_refuses_non_finite_preimages(params, codes):
    """A NaN or overflowing preimage is refused as NON_FINITE even where the
    field ignores the event: a translation's and a dilation's once stayed OK.
    The dilation's preimage of the second event, 2e308, overflows."""
    events = np.array([[np.nan, 0.0, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        *_, reason = sweep(
            UniformField((1.0, 0.0, 0.0), (0.0, 0.5, 0.0)), params, events,
            CoordinateFrame.TRANSFORMED,
        )
    assert reason.tolist() == codes
