"""Seeded self-verification suite cross-checking every transformation route.

Each check draws from its own child of one seed sequence, so enabling or
reordering other checks never shifts its sample stream and the whole report
is reproducible byte for byte.  A check's samples are the ones a loop drawing
one trial at a time, redrawing each head its judge refuses, would draw, but
they come from blocks of uniforms with every block's heads judged at once
(see _walk).  Every judge tests a head by the oracle's x^2 and sigma, never
through a Clifford route.  Only the heads the loop can start at are judged:
offsets that are multiples of gcd(head width, row width).  The first block
is the least the loop consumes, and a later one is sized from the acceptance
seen so far; the uniforms a block drew past the last one read are given back
by rewinding the generator to its state from before that block and advancing
it by the doubles read, so the generator must support bit_generator.advance,
as the PCG64 generators of run_suite do.  The plane-wave draws, whose normal
draws vary in length, are made one trial at a time, with the cone guards of
up to 32 trials judged in one call (see _null_field_rows).  Each route then
runs once on all the trials: inversion trials as one batch with the sign
eps = +1 on even trials and -1 on odd ones, special conformal trials as one
batch with each trial's vector a on the batch axis, Lorentz maps and plane
waves with one class or wave per row, so row i of every batch is trial i.
Checks that compare routes reach the two algebras through _cl13 and _cl3,
which map several (kind, array) pairs of one map at one batch of events in
one call and return arrays: a four-vector as (..., 4), a field as E then B,
(..., 6); image events come from _image13.
Deviations between routes are measured relative to max(1, reference
magnitude): transformed quantities reach 1e5 and beyond on valid sample
points, where an absolute comparison would only measure float64
granularity, not correctness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .bridge import product_correspondence_check, sandwich_correspondence_check
from .cl13 import GRADE_OF, Faraday13, FourVector, Multivector13, vector_sandwich
from .cl3 import Faraday3, Paravector3, cross3
from .conformal13 import induced_matrix, transform, transform_kinds
from .conformal3 import induced_matrix3, raise_refusal, transform3, transform_kinds_rows
from .fields import PlaneWave, invariants
from .maps import (
    CoordinateFrame,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)

BASE_TOL = 1e-10
GUARD = 0.01
# Central differences with the standard step rule carry truncation error of
# order h^2 times the map's third derivative, which grows as the inverse
# fourth power of the guarded denominators.  Three denominators matter: x^2,
# the rescaling factor, and their ratio (the squared interval of the image
# point).  Guarding all three at 1.0 with unit-range transformation vectors
# keeps the truncation an order of magnitude under the 1e-6 bound.
FD_GUARD = 1.0
REFERENCE_TRIALS = 500
DEFAULT_SEED = 42

ORIG = CoordinateFrame.ORIGINAL
TRANS = CoordinateFrame.TRANSFORMED
POSITION = QuantityKind.POSITION
POTENTIAL = QuantityKind.POTENTIAL
CURRENT = QuantityKind.CURRENT
FARADAY = QuantityKind.FARADAY


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  error names the exception of a check that
    crashed; seconds is its wall time, which reports never compare."""

    check_id: str
    trials: int
    max_dev: float
    tolerance: float
    passed: bool
    error: str | None = None
    seconds: float = field(default=0.0, compare=False, repr=False)


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    trials: int
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# -- samplers -------------------------------------------------------------------


def _walk(rng, trials: int, half: np.ndarray, k: int, accept) -> np.ndarray:
    """The rows that the loop

        while fewer than trials rows are kept:
            draw a head, the first k columns;
            if accept holds for it: draw the other columns and keep the row

    keeps, column j uniform in [-half[j], half[j]], with the generator left
    in the state that loop leaves it in.  accept maps heads of shape (n, k)
    to booleans of shape (n,).  low + (high - low) u is what
    Generator.uniform computes from each double u.

    The rows come from blocks of rng.random, with every head of a block
    judged in one call.  The first block is the least the loop consumes,
    the rows wanted times the row width.  A later block tops the unread
    buffer up to at least the rows left times the row width, and to about
    twice what they cost at the rate seen so far, at most four times what
    was read so far.  A head starts where the one before it started plus k
    or plus the row width, so only offsets that are multiples of
    gcd(k, width) are judged (the windows of k there, gathered by fancy
    indexing).  Uniforms a block drew past the last one read are given
    back: the generator is set to its state from before that block and
    advanced by the doubles read from it, each double of Generator.random
    being one 64-bit output.  So rng must support bit_generator.advance, as
    PCG64, the generator of default_rng, does.
    """
    width = half.size
    low, span = -half, 2.0 * half
    step = math.gcd(k, width)
    window = np.arange(k)
    rows = []
    buf = np.empty(0)
    pos = read = 0
    saved = None
    while len(rows) < trials:
        left = trials - len(rows)
        need = left * width - (buf.size - pos)
        read += pos
        size = max(need, min(4 * read, 2 * read * left // (len(rows) + 1)))
        saved = rng.bit_generator.state if size > need else None
        fresh = rng.random(size)
        buf = np.concatenate([buf[pos:], fresh]) if pos < buf.size else fresh
        pos = 0
        starts = np.arange(0, buf.size - k + 1, step)
        accepted = accept(low[:k] + span[:k] * buf[starts[:, None] + window]).tolist()
        while len(rows) < trials and pos + k <= buf.size:
            if not accepted[pos // step]:
                pos += k
            elif pos + width <= buf.size:
                rows.append(buf[pos:pos + width])
                pos += width
            else:
                break
    if saved is not None and pos < buf.size:
        _rewind(rng.bit_generator, saved, size - (buf.size - pos))
    return low + span * np.array(rows).reshape(-1, width)


def _rewind(bit_generator, saved: dict, read: int) -> None:
    """Set bit_generator to the state saved, advanced by read 64-bit
    outputs.  advance empties the buffer of a half-used 32-bit output,
    which the doubles never touch, so the buffer is put back."""
    bit_generator.state = saved
    bit_generator.advance(read)
    if saved["has_uint32"]:
        state = bit_generator.state
        state.update(has_uint32=1, uinteger=saved["uinteger"])
        bit_generator.state = state


def _sample(rng, trials: int, accept, head, tail: int = 0) -> np.ndarray:
    """trials rows, each a head with the half-widths head, drawn again until
    accept(heads) holds for it, then tail more components in [-2, 2]."""
    return _walk(rng, trials, np.array(tuple(head) + (2.0,) * tail), len(head), accept)


def _split(rows: np.ndarray, *sizes: int) -> tuple[np.ndarray, ...]:
    """The columns of rows in consecutive parts of the given sizes, each a
    contiguous copy."""
    edges = np.cumsum(sizes)
    return tuple(rows[..., e - n:e].copy() for n, e in zip(sizes, edges))


# Head half-widths: an event in [-2, 2], or an event and a transformation
# vector, in [-2, 2] or in [-1, 1] for difference quotients.
_EVENT = (2.0,) * 4
_PAIR = (2.0,) * 8
_FD_PAIR = (2.0,) * 4 + (1.0,) * 4


def _off_cone(h):
    """|x^2| clears the guard, for the event x in the first four columns."""
    return np.abs(oracle.msq(h[:, :4])) > GUARD


def _off_cones(h):
    """|x^2| and |sigma(x, a)| clear the guard, for the event x and the
    vector a in the first eight columns."""
    x, a = h[:, :4], h[:, 4:8]
    return (np.abs(oracle.msq(x)) > GUARD) & (np.abs(oracle.sct_scale(x, a)) > GUARD)


def _far_from_cones(h, guard=FD_GUARD):
    """|x^2|, |sigma(x, a)| and |sigma / x^2| clear guard, for the event x and
    the vector a in the first eight columns.  The ratio is y^2 for the image
    y = eps (x / x^2 + a) of x inverted by eps and translated by eps a, for
    either sign: y^2 = 1 / x^2 + 2 a.x / x^2 + a^2 = sigma / x^2.  At FD_GUARD
    it keeps the three cones of the difference-quotient checks distant; at
    GUARD it is the rule of the inversion-translation-inversion chain."""
    x, a = h[:, :4], h[:, 4:8]
    x2, s = oracle.msq(x), oracle.sct_scale(x, a)
    far = np.abs(x2) > guard
    ratio = np.divide(s, x2, out=np.zeros_like(s), where=far)
    return far & (np.abs(s) > guard) & (np.abs(ratio) > guard)


def _interval_sign(sign: int):
    """sign x^2 clears the guard."""
    return lambda h: sign * oracle.msq(h[:, :4]) > GUARD


def _signs(trials: int) -> np.ndarray:
    """The inversion sign of each trial: +1 on even trials, -1 on odd ones."""
    return np.where(np.arange(trials) % 2 == 0, 1, -1)


def _fv(v) -> FourVector:
    return FourVector.from_array(v)


def _eb(E, B) -> np.ndarray:
    """A field as one array, E then B on the last axis: shape (..., 6)."""
    return np.concatenate([E, B], axis=-1)


def _cl13(params, values, x=None, frame=ORIG) -> list[np.ndarray]:
    """transform_kinds on arrays: values (kind, array) pairs, a four-vector
    (..., 4) or a field E then B (..., 6), at the events x (..., 4) of
    frame; the images in the same layout, in the order of values.  A
    refused row raises, as transform does."""
    x = None if x is None else _fv(x)
    values = [
        (kind, (Faraday13 if kind is FARADAY else FourVector).from_array(v)) for kind, v in values
    ]
    return [out.as_array() for out in transform_kinds(params, values, x, frame)]


def _cl3(params, values, x, frame=ORIG) -> list[np.ndarray]:
    """_cl13 by the paravector route, transform_kinds_rows, raising the
    error of the first refused row of the first kind with one, as
    transform3 on each kind in turn does."""
    values = [
        (kind, Faraday3(v[..., :3], v[..., 3:]) if kind is FARADAY else Paravector3.from_event(v))
        for kind, v in values
    ]
    outs = []
    for (kind, _), (out, _, reason) in zip(
        values, transform_kinds_rows(params, values, Paravector3.from_event(x), frame)
    ):
        raise_refusal(reason)
        outs.append(_eb(out.E, out.B) if kind is FARADAY else out.event())
    return outs


def _image13(params, X) -> np.ndarray:
    """The image events of the events X (..., 4) by transform."""
    return transform(params, POSITION, _fv(X)).as_array()


def _worst(*devs) -> float:
    """The largest deviation over every row of every argument, or NaN if
    any is NaN; the built-in max drops a NaN that is not its first
    argument, so a route returning NaN would pass its check."""
    return float(np.max(np.concatenate([np.ravel(d) for d in devs])))


def _scaled(dev, ref):
    return dev / np.fmax(1.0, ref)


def _vec_dev(got: np.ndarray, want: np.ndarray):
    """Per row: max |got - want| relative to max(1, max |want|)."""
    return _scaled(np.abs(got - want).max(axis=-1), np.abs(want).max(axis=-1))


def _result(check_id: str, trials: int, devs, tol: float) -> CheckResult:
    dev = _worst(*devs)
    return CheckResult(check_id, trials, dev, tol, dev <= tol)


# -- checks ---------------------------------------------------------------------

_METRIC = np.diag(oracle.ETA)
# The generators e_0..e_3 as one batch.
_GENERATORS = FourVector.from_array(np.eye(4)).to_mv()


def check_blade_products(rng, trials: int, tol: float) -> CheckResult:
    """Every blade pair lands on one blade with an integer sign; vectors
    anticommute onto the metric."""
    blades = np.eye(16)
    i, j = np.divmod(np.arange(256), 16)
    # Each grade's blades, as one narrow left factor, times all 16 blades:
    # five products of at most 6 terms per blade, each into its blades' rows.
    p = np.empty((16, 16, 16))
    for g in range(5):
        left = Multivector13(blades[GRADE_OF == g, None]).grade(g)
        p[GRADE_OF == g] = (left * Multivector13(blades)).c
    p = p.reshape(256, 16)
    on = p[np.arange(256), i ^ j]
    off = p.copy()
    off[np.arange(256), i ^ j] = 0.0
    devs = [np.abs(np.abs(on) - 1.0), np.abs(off)]
    a, b = np.divmod(np.arange(16), 4)
    ea, eb = _fv(np.eye(4)[a]).to_mv(), _fv(np.eye(4)[b]).to_mv()
    expected = np.zeros((16, 16))
    expected[:, 0] = np.where(a == b, 2.0 * _METRIC[a], 0.0)
    devs.append(np.abs((ea * eb + eb * ea).c - expected))
    x = _sample(rng, 1, _off_cone, _EVENT)[0]
    xm = _fv(x).to_mv()
    expected = np.zeros((4, 16))
    expected[:, 0] = 2.0 * _METRIC * x
    devs.append(np.abs((_GENERATORS * xm + xm * _GENERATORS).c - expected))
    return _result("blade_products", 256, devs, tol * 0.0)


def check_jacobian_sandwich_identity(rng, trials: int, tol: float) -> CheckResult:
    """x^4 times an inversion Jacobian column equals the basis-vector sandwich."""
    X = _sample(rng, trials, _off_cone, _EVENT)
    eps = _signs(trials)
    M = np.asarray(oracle.jacobian_inversion(X, eps), dtype=np.float64)
    x2 = oracle.msq(X)
    # Rows (trial, alpha): the sandwich of e_alpha by the trial's event.
    xm = _fv(X[:, None, :]).to_mv()
    sandwich = vector_sandwich(xm, _GENERATORS, xm)
    rhs = -eps[:, None, None] * FourVector.from_mv(sandwich).as_array()
    lhs = (x2**2)[:, None, None] * np.swapaxes(M, -1, -2)
    return _result("jacobian_sandwich_identity", trials, [_vec_dev(lhs, rhs)], tol)


def check_conformality(rng, trials: int, tol: float) -> CheckResult:
    """Lambda^2 M^T eta M reproduces the metric for both conformal maps."""
    X, A = _split(_sample(rng, trials, _off_cones, _PAIR), 4, 4)
    devs = [
        oracle.conformality_residual(oracle.jacobian_inversion(X, _signs(trials))),
        oracle.conformality_residual(oracle.jacobian_sct(X, A)),
    ]
    return _result("conformality", trials, devs, tol)


def check_conformal_factor_match(rng, trials: int, tol: float) -> CheckResult:
    """Determinant-based scale factor equals |x^2| and |Sigma|."""
    X, A = _split(_sample(rng, trials, _off_cones, _PAIR), 4, 4)
    lam_inv = oracle.conformal_factor(oracle.jacobian_inversion(X, _signs(trials)))
    x2 = np.abs(oracle.msq(X))
    devs = [_scaled(np.abs(lam_inv - x2), x2)]
    lam_sct = oracle.conformal_factor(oracle.jacobian_sct(X, A))
    sig = np.abs(oracle.sct_scale(X, A))
    devs.append(_scaled(np.abs(lam_sct - sig), sig))
    return _result("conformal_factor_match", trials, devs, tol)


def check_fd_jacobians(rng, trials: int, tol: float) -> CheckResult:
    """Analytic Jacobians against central differences, away from the cones."""
    X, A = _split(_sample(rng, trials, _far_from_cones, _FD_PAIR), 4, 4)
    eps = _signs(trials)
    M = np.asarray(oracle.jacobian_inversion(X, eps), dtype=np.float64)
    fd = oracle.fd_jacobian(lambda p: oracle.invert_event(p, eps), X)
    devs = [np.abs(M - fd)]
    Ms = np.asarray(oracle.jacobian_sct(X, A), dtype=np.float64)
    fds = oracle.fd_jacobian(lambda p: oracle.sct_event(p, A), X)
    devs.append(np.abs(Ms - fds))
    return _result("fd_jacobians", trials, devs, tol)


def check_theta_signs(rng, trials: int, tol: float) -> CheckResult:
    """Time-orientation signs: -eps for inversion everywhere, +1 for the SCT."""
    half = max(1, trials // 2)
    X = np.concatenate([_sample(rng, half, _interval_sign(sign), _EVENT) for sign in (1, -1)])
    # Every event under both signs, as one batch.
    eps = np.repeat([1, -1], len(X))
    theta = oracle.time_orientation(oracle.jacobian_inversion(np.concatenate([X, X]), eps))
    bad = int(np.count_nonzero(theta != -eps))
    X, A = _split(_sample(rng, trials, _off_cones, _PAIR), 4, 4)
    bad += int(np.count_nonzero(oracle.time_orientation(oracle.jacobian_sct(X, A)) != 1))
    return CheckResult("theta_signs", trials, float(bad), tol * 0.0, bad == 0)


def check_three_way_agreement(rng, trials: int, tol: float) -> CheckResult:
    """Spacetime algebra, paravector algebra, and tensor law must coincide
    for every quantity, both conformal maps, and both coordinate frames."""
    X, A, EB, A4 = _split(_sample(rng, trials, _off_cones, _PAIR, 10), 4, 4, 6, 4)
    F = oracle.pack_faraday(*_split(EB, 3, 3))
    # Each map with its Jacobian, scale and time orientation.
    eps = _signs(trials)
    maps = [
        (Inversion(eps), oracle.jacobian_inversion(X, eps), np.abs(oracle.msq(X)), -eps),
        (Sct(A), oracle.jacobian_sct(X, A), np.abs(oracle.sct_scale(X, A)), 1),
    ]
    devs = []
    for params, M, lam, theta in maps:
        # Each kind's value and its tensor law, computed at the source events.
        laws = (
            (FARADAY, EB, _eb(*oracle.unpack_faraday(oracle.transform_faraday(M, F, lam, theta)))),
            (POTENTIAL, A4, oracle.transform_potential(M, A4, lam, theta)),
            (CURRENT, A4, oracle.transform_current(M, A4, lam, theta)),
        )
        values = [(kind, v) for kind, v, _ in laws]
        for frame, x in ((ORIG, X), (TRANS, _image13(params, X))):
            for route in (_cl13, _cl3):
                outs = route(params, values, x, frame)
                devs += [_vec_dev(out, want) for out, (_, _, want) in zip(outs, laws)]
    return _result("three_way_agreement", trials, devs, tol)


def _chain_image(X, A, eps) -> FourVector:
    """The image of each event X under inversion by eps, then translation by
    eps A, one sign per row."""
    x1 = transform(Inversion(eps), POSITION, _fv(X))
    return transform(Translation(eps[:, None] * A), POSITION, x1)


def check_sct_chain_composition(rng, trials: int, tol: float) -> CheckResult:
    """Invert, translate by eps*a, invert again: equals the direct map.  Each
    pair is drawn with its image y after the first two steps clear of the
    cone, |y^2| = |sigma / x^2| > GUARD (see _far_from_cones)."""
    rows = _sample(rng, trials, lambda h: _far_from_cones(h, GUARD), _PAIR, 10)
    X, A, EB, A4 = _split(rows, 4, 4, 6, 4)
    eps = _signs(trials)
    y = _chain_image(X, A, eps).as_array()
    inv, sct = Inversion(eps), Sct(A)
    devs = [_vec_dev(_image13(inv, y), _image13(sct, X))]
    values = ((POTENTIAL, A4), (FARADAY, EB))
    kinds = [kind for kind, _ in values]
    chained = _cl13(inv, zip(kinds, _cl13(inv, values, X)), y)
    devs += [_vec_dev(c, d) for c, d in zip(chained, _cl13(sct, values, X))]
    return _result("sct_chain_composition", trials, devs, tol)


def check_field_expansions(rng, trials: int, tol: float) -> CheckResult:
    """Closed-form component expansions against tensor and paravector routes."""
    X, A, EB, A4 = _split(_sample(rng, trials, _off_cones, _PAIR, 10), 4, 4, 6, 4)
    E, B = _split(EB, 3, 3)
    F = oracle.pack_faraday(E, B)
    eps = _signs(trials)
    direct, closed = (_eb(*f) for f in oracle.inversion_field_forms(E, B, X, eps))
    sct = _eb(*oracle.sct_field_components(E, B, X, A))
    newcoords = _eb(*oracle.sct_field_components_newcoords(E, B, oracle.sct_event(X, A), A))
    Ap = oracle.inversion_potential_components(A4, X)
    devs = [
        _vec_dev(direct, _eb(*oracle.unpack_faraday(oracle.inversion_faraday_tensor(F, X, eps)))),
        _vec_dev(sct, _eb(*oracle.unpack_faraday(oracle.sct_faraday_tensor(F, X, A)))),
        _vec_dev(newcoords, sct),
        _vec_dev(*_cl13(Inversion(1), [(POTENTIAL, A4)], X), Ap),
        _vec_dev(*_cl13(Sct(A), [(POTENTIAL, A4)], X), oracle.sct_potential_components(A4, X, A)),
    ]
    for params, want in ((Inversion(eps), direct), (Sct(A), sct)):
        devs.append(_vec_dev(*_cl3(params, [(FARADAY, EB)], X), want))

    dev, mutual_dev = _worst(*devs), _worst(_vec_dev(closed, direct))
    mutual_tol = tol * 1e-2 if tol > 0.0 else 0.0
    passed = dev <= tol and mutual_dev <= mutual_tol
    return CheckResult(
        "field_expansions", trials, _worst(dev, mutual_dev), tol, passed
    )


def check_invariant_scaling(rng, trials: int, tol: float) -> CheckResult:
    """I1, I2 pick up the fourth power of the scale, with the inversion
    flipping the pseudoscalar sign."""
    X, A, E, B = _split(_sample(rng, trials, _off_cones, _PAIR, 6), 4, 4, 3, 3)
    F3, x3 = Faraday3(E, B), Paravector3.from_event(X)
    i1, i2 = invariants(F3)
    devs = []
    # Each map with the fourth power of its scale and its pseudoscalar sign.
    for params, s4, sign in (
        (Inversion(_signs(trials)), oracle.msq(X) ** 4, -1),
        (Sct(A), oracle.sct_scale(X, A) ** 4, 1),
    ):
        j1, j2 = invariants(transform3(params, FARADAY, F3, x3))
        w1, w2 = s4 * i1, sign * s4 * i2
        ref = np.maximum(np.abs(w1), np.abs(w2))
        devs += [_scaled(np.abs(j1 - w1), ref), _scaled(np.abs(j2 - w2), ref)]
    return _result("invariant_scaling", trials, devs, tol)


def check_invariants_levi_civita(rng, trials: int, tol: float) -> CheckResult:
    """Full tensorial invariant path with the transformed permutation symbol.

    Runs on the inversion, whose negative Jacobian determinant is what makes
    the pseudoscalar invariant flip sign; a wrong orientation convention
    anywhere in the chain shows up here immediately.
    """
    X, E, B = _split(_sample(rng, trials, _off_cone, _EVENT, 6), 4, 3, 3)
    F = oracle.pack_faraday(E, B)
    i1, i2 = oracle.invariants_from_tensor(F)
    om = oracle.msq(X)
    eps = _signs(trials)
    M = oracle.jacobian_inversion(X, eps)
    i1p, i2p = oracle.invariants_transformed(F, M, np.abs(om), -eps)
    om4 = om**4
    ref = np.maximum(np.abs(om4 * i1), np.abs(om4 * i2))
    devs = [_scaled(np.abs(i1p - om4 * i1), ref), _scaled(np.abs(i2p + om4 * i2), ref)]
    return _result("invariants_levi_civita", trials, devs, tol)


def check_inversion_jacobian_determinant(rng, trials: int, tol: float) -> CheckResult:
    """det[d(original)/d(image)] equals minus the fourth power of x^2."""
    X = _sample(rng, trials, _off_cone, _EVENT)
    om4 = oracle.msq(X) ** 4
    d = oracle.inversion_inverse_jacobian_det(X, _signs(trials))
    devs = [_scaled(np.abs(d - (-om4)), np.abs(om4))]
    return _result("inversion_jacobian_determinant", trials, devs, tol)


_CLASS_SIGNS = {
    LorentzClass.PROPER_ORTHOCHRONOUS: (1.0, 1),
    LorentzClass.IMPROPER_ORTHOCHRONOUS: (-1.0, 1),
    LorentzClass.IMPROPER_ANTICHRONOUS: (-1.0, -1),
    LorentzClass.PROPER_ANTICHRONOUS: (1.0, -1),
}


def _lorentz_params(rng, per_class: int) -> Lorentz:
    """One batch of per_class maps of each class in turn, one class per row:
    boost and rotation pairs, each pair drawn boost first."""
    pairs = rng.uniform(-1.0, 1.0, (4 * per_class, 2, 3))
    classes = np.repeat(np.array(list(_CLASS_SIGNS), dtype=object), per_class)
    return Lorentz(boost=pairs[:, 0], rotation=pairs[:, 1], lorentz_class=classes)


def check_lorentz_classes(rng, trials: int, tol: float) -> CheckResult:
    """Induced matrices are eta-orthogonal with the class's determinant and
    time-orientation signs."""
    per_class = max(1, trials // 4)
    L = induced_matrix(_lorentz_params(rng, per_class))
    det_sign, t_sign = np.repeat(np.array(list(_CLASS_SIGNS.values())), per_class, axis=0).T
    devs = [
        np.abs(np.swapaxes(L, -1, -2) @ oracle.ETA @ L - oracle.ETA),
        np.abs(np.linalg.det(L) - det_sign),
        np.where(oracle.time_orientation(L) != t_sign, 1.0, 0.0),
    ]
    return _result("lorentz_classes", per_class * 4, devs, tol)


def check_lorentz_route_agreement(rng, trials: int, tol: float) -> CheckResult:
    """Both algebras induce the same Lorentz matrix for every class."""
    per_class = max(1, trials // 4)
    p = _lorentz_params(rng, per_class)
    devs = [np.abs(induced_matrix(p) - induced_matrix3(p))]
    return _result("lorentz_route_agreement", per_class * 4, devs, tol)


# Half-widths of the event and the vector of a plane-wave trial, and the
# most trials drawn ahead of their cone guards.
_NULL_PAIR = _EVENT + (0.5,) * 4
_DRAFT_AHEAD = 32


def _null_field_rows(rng, trials: int) -> tuple[np.ndarray, ...]:
    """Events x, vectors a and waves (E0, khat, phase), one row per trial:
    x and a clear of both cones, khat a normalised normal draw, E0 khat x (a
    normal draw), drawn again while shorter than 1e-6, scaled to a uniform
    length in [0.5, 1.5], and a uniform phase.  The normal draws vary in
    length, so the draws and the redraw test (np.linalg.norm's
    sqrt(x.dot(x))) run one trial at a time, the scaling once.

    Up to _DRAFT_AHEAD trials at a time are drafted as if their x and a
    cleared the cones, and those heads are judged in one call.  At the first
    head that does not clear them (about 0.6% do), the generator is set back
    to its state before that draft and the head's 8 uniforms are drawn and
    dropped, the loop's own redraw; drafting goes on from there.  Drafting so
    few ahead bounds what a failed head throws away."""
    half = np.array(_NULL_PAIR)
    low, span = -half, 2.0 * half
    rows = []
    while len(rows) < trials:
        states, drafts = [], []
        for _ in range(min(trials - len(rows), _DRAFT_AHEAD)):
            states.append(rng.bit_generator.state)
            drafts.append(_wave_row(rng, low + span * rng.random(half.size)))
        clear = _off_cones(np.array([row[0] for row in drafts]))
        kept = len(drafts) if clear.all() else int(clear.argmin())
        rows += drafts[:kept]
        if kept < len(drafts):
            rng.bit_generator.state = states[kept]
            rng.random(half.size)
    head, khat, e, norm, length, phase = (np.array(part) for part in zip(*rows))
    X, A = _split(head, 4, 4)
    return X, A, e * (length / norm)[:, None], khat, phase


def _wave_row(rng, head: np.ndarray) -> tuple:
    """One trial of _null_field_rows after its x and a: khat, E0 before its
    scaling and the length of that E0, the length it is scaled to, the
    phase."""
    k = rng.normal(size=3)
    k /= np.sqrt(k.dot(k))
    e = cross3(k, rng.normal(size=3))
    while (norm := np.sqrt(e.dot(e))) < 1e-6:
        e = cross3(k, rng.normal(size=3))
    return head, k, e, norm, rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi)


def check_null_field_preservation(rng, trials: int, tol: float) -> CheckResult:
    """Plane-wave samples keep both invariants at zero through either map.

    The transformation vector stays in [-0.5, 0.5] so the exact zero is
    compared against a quantity of order one.  Trial i's wave is row i of
    one PlaneWave, evaluated at trial i's event.
    """
    X, A, E0, khat, phase = _null_field_rows(rng, trials)
    F, _ = PlaneWave(E0=E0, khat=khat, phase=phase).faraday_rows(X)
    x3, devs = Paravector3.from_event(X), []
    for params in (Inversion(1), Sct(A)):
        i1, i2 = invariants(transform3(params, FARADAY, F, x3))
        devs += [np.abs(i1), np.abs(i2)]
    return _result("null_field_preservation", trials, devs, tol)


def check_bridge_correspondence(rng, trials: int, tol: float) -> CheckResult:
    """Even products and Faraday sandwiches map onto the paravector algebra."""
    X, Y, E, B = _split(rng.uniform(-2.0, 2.0, (trials, 14)), 4, 4, 3, 3)
    x, y = _fv(X), _fv(Y)
    devs = [
        product_correspondence_check(x, y),
        sandwich_correspondence_check(x, Faraday13(E, B), y),
    ]
    return _result("bridge_correspondence", trials, devs, tol)


# Registry rows: check id, callable, nominal trials at the reference budget,
# nominal tolerance at the reference 1e-10 setting.
REGISTRY = (
    ("blade_products", check_blade_products, 256, 0.0),
    ("jacobian_sandwich_identity", check_jacobian_sandwich_identity, 100, BASE_TOL),
    ("conformality", check_conformality, 200, 1e-8),
    ("conformal_factor_match", check_conformal_factor_match, 200, 1e-8),
    ("fd_jacobians", check_fd_jacobians, 100, 1e-6),
    ("theta_signs", check_theta_signs, 100, 0.0),
    ("three_way_agreement", check_three_way_agreement, 500, BASE_TOL),
    ("sct_chain_composition", check_sct_chain_composition, 300, BASE_TOL),
    ("field_expansions", check_field_expansions, 500, BASE_TOL),
    ("invariant_scaling", check_invariant_scaling, 500, BASE_TOL),
    ("invariants_levi_civita", check_invariants_levi_civita, 100, 1e-8),
    ("inversion_jacobian_determinant", check_inversion_jacobian_determinant, 100, 1e-8),
    ("lorentz_classes", check_lorentz_classes, 400, BASE_TOL),
    ("lorentz_route_agreement", check_lorentz_route_agreement, 100, BASE_TOL),
    ("null_field_preservation", check_null_field_preservation, 200, BASE_TOL),
    ("bridge_correspondence", check_bridge_correspondence, 200, 1e-12),
)


def run_suite(
    trials: int = REFERENCE_TRIALS,
    seed: int = DEFAULT_SEED,
    tol: float = BASE_TOL,
    checks: tuple[str, ...] | None = None,
) -> VerifyReport:
    """Run the property suite.

    trials rescales every check's sample count proportionally; tol rescales
    every tolerance by tol / 1e-10, so a zero tolerance reports raw
    deviations as failures instead of hiding them.  checks, if given, names
    the checks to run by their ids.  Raises ValueError for a negative seed,
    fewer than one trial, a tol that is negative or not finite, or checks
    that is a string, is empty or names an id not in REGISTRY.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite nonnegative number")
    if checks is not None:
        if isinstance(checks, str):
            raise ValueError(f"checks must be a collection of check ids, not the string {checks!r}")
        checks = tuple(checks)
        if not checks:
            raise ValueError("checks must name at least one check")
        known = {entry[0] for entry in REGISTRY}
        unknown = [c for c in checks if c not in known]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(map(repr, unknown))}")
    children = np.random.SeedSequence(seed).spawn(len(REGISTRY))
    scale = tol / BASE_TOL
    results = []
    for (check_id, fn, nominal, nominal_tol), child in zip(REGISTRY, children):
        if checks is not None and check_id not in checks:
            continue
        n = max(1, round(nominal * trials / REFERENCE_TRIALS))
        rng = np.random.default_rng(child)
        start = time.perf_counter()
        try:
            result = fn(rng, n, nominal_tol * scale)
        except Exception as exc:
            result = CheckResult(
                check_id, n, float("inf"), nominal_tol * scale, False,
                error=f"{type(exc).__name__}: {exc}",
            )
        results.append(replace(result, seconds=time.perf_counter() - start))
    return VerifyReport(seed, trials, tol, tuple(results))
