"""Tests for the plain-array tensor reference implementation.

The reference must stand on its own, so these tests pin its values with hand
arithmetic and finite differences, never with the Clifford modules it exists
to check.
"""

import numpy as np
import pytest

from emconf import oracle
from emconf.errors import DegenerateTimeDerivativeError, LightConeError, SctConeError

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def sample_off_cone(rng, guard=0.5):
    while True:
        x = rng.uniform(-2, 2, 4)
        if abs(oracle.msq(x)) > guard:
            return x


def test_metric_helpers():
    x = np.array([2.0, 1.0, -1.0, 0.5])
    assert oracle.msq(x) == pytest.approx(4 - 1 - 1 - 0.25, abs=1e-15)
    assert oracle.mdot(x, np.array([1.0, 0, 0, 0])) == pytest.approx(2.0, abs=1e-15)
    assert np.array_equal(oracle.lower(x), [2.0, -1.0, 1.0, -0.5])


def test_levi_civita_normalization():
    assert oracle.LEVI_CIVITA[0, 1, 2, 3] == 1
    assert oracle.LEVI_CIVITA[1, 0, 2, 3] == -1
    assert oracle.LEVI_CIVITA[0, 0, 2, 3] == 0
    assert int(np.sum(np.abs(oracle.LEVI_CIVITA))) == 24


def test_faraday_packing():
    E = np.array([1.0, 2.0, 3.0])
    B = np.array([4.0, 5.0, 6.0])
    F = oracle.pack_faraday(E, B)
    assert np.allclose(F, -F.T)
    E2, B2 = oracle.unpack_faraday(F)
    assert np.array_equal(E2, E) and np.array_equal(B2, B)


def test_invert_event():
    x = np.array([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(oracle.invert_event(x, 1), [0.5, 0, 0, 0])
    assert np.allclose(oracle.invert_event(x, -1), [-0.5, 0, 0, 0])
    # the map with the same sign undoes itself
    rng = np.random.default_rng(31)
    for _ in range(20):
        y = sample_off_cone(rng)
        assert np.allclose(oracle.invert_event(oracle.invert_event(y, -1), -1), y)
    with pytest.raises(LightConeError):
        oracle.invert_event(np.array([1.0, 1.0, 0.0, 0.0]), 1)


def test_sct_event():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    a = np.array([1.0, 0.0, 0.0, 0.0])
    assert oracle.sct_scale(x, a) == pytest.approx(4.0, abs=1e-15)
    assert np.allclose(oracle.sct_event(x, a), [0.5, 0, 0, 0])
    with pytest.raises(SctConeError):
        oracle.sct_event(np.array([-1.0, 0.0, 0.0, 0.0]), a)


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(32)
    for i in range(25):
        x = sample_off_cone(rng, guard=1.0)
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.sct_scale(x, a)) < 1.0:
            continue
        eps = 1 if i % 2 == 0 else -1
        M = np.asarray(oracle.jacobian_inversion(x, eps), dtype=np.float64)
        fd = oracle.fd_jacobian(lambda p: oracle.invert_event(p, eps), x)
        assert np.max(np.abs(M - fd)) < 1e-6
        Ms = np.asarray(oracle.jacobian_sct(x, a), dtype=np.float64)
        fds = oracle.fd_jacobian(lambda p: oracle.sct_event(p, a), x)
        assert np.max(np.abs(Ms - fds)) < 1e-6


def test_fd_jacobian_exact_on_linear_map():
    A = np.arange(16.0).reshape(4, 4)
    fd = oracle.fd_jacobian(lambda p: p @ A.T, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.max(np.abs(fd - A)) < 1e-9


def ref_fd_jacobian(point_map, x):
    """Central differences one direction at a time, each a call of point_map
    on events of the shape of x."""
    step = 1e-5 * (1.0 + np.abs(x).max(axis=-1))
    two_h = np.asarray(2.0 * step)[..., None]
    out = np.zeros(x.shape + (4,))
    for alpha in range(4):
        dx = np.zeros(x.shape)
        dx[..., alpha] = step
        out[..., :, alpha] = (point_map(x + dx) - point_map(x - dx)) / two_h
    return out


@pytest.mark.parametrize("rows", [(), (30,)])
def test_fd_jacobian_is_the_per_direction_loop_in_one_call(rows):
    rng = np.random.default_rng(34)
    x, a = rng.uniform(-2, 2, rows + (4,)), rng.uniform(-1, 1, rows + (4,))
    eps = np.where(rng.uniform(size=rows) < 0.5, 1, -1)
    for point_map in (lambda p: oracle.invert_event(p, eps), lambda p: oracle.sct_event(p, a)):
        calls = []

        def counted(p, point_map=point_map):
            calls.append(p.shape)
            return point_map(p)

        got = oracle.fd_jacobian(counted, x)
        assert calls == [(8,) + x.shape]
        assert got.tobytes() == ref_fd_jacobian(point_map, x).tobytes()


def test_conformal_factor_and_conformality():
    rng = np.random.default_rng(33)
    for _ in range(25):
        x = sample_off_cone(rng)
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.sct_scale(x, a)) < 0.05:
            continue
        Mi = oracle.jacobian_inversion(x, 1)
        assert oracle.conformal_factor(Mi) == pytest.approx(
            abs(oracle.msq(x)), rel=1e-9
        )
        assert oracle.conformality_residual(Mi) < 1e-9
        Ms = oracle.jacobian_sct(x, a)
        assert oracle.conformal_factor(Ms) == pytest.approx(
            abs(oracle.sct_scale(x, a)), rel=1e-9
        )
        assert oracle.conformality_residual(Ms) < 1e-9


def test_conformal_inverse():
    x = np.array([1.3, 0.2, -0.4, 0.9])
    M = np.asarray(oracle.jacobian_inversion(x, 1), dtype=np.float64)
    Mi = np.asarray(oracle.conformal_inverse(M), dtype=np.float64)
    assert np.max(np.abs(Mi @ M - np.eye(4))) < 1e-10


def test_time_orientation():
    rng = np.random.default_rng(34)
    for i in range(30):
        x = sample_off_cone(rng)
        eps = 1 if i % 2 == 0 else -1
        # inversion flips the time direction exactly when eps = +1
        assert oracle.time_orientation(oracle.jacobian_inversion(x, eps)) == -eps
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.sct_scale(x, a)) > 0.05:
            assert oracle.time_orientation(oracle.jacobian_sct(x, a)) == 1
    with pytest.raises(DegenerateTimeDerivativeError):
        oracle.time_orientation(np.diag([0.0, 1.0, 1.0, 1.0]))


def test_inversion_current_frozen_value():
    """x = (2,0,0,0), J = (1,0,0,0): the transformed current is (64,0,0,0)."""
    x = np.array([2.0, 0.0, 0.0, 0.0])
    J = np.array([1.0, 0.0, 0.0, 0.0])
    M = oracle.jacobian_inversion(x, 1)
    out = oracle.transform_current(M, J, lam=abs(oracle.msq(x)), theta=-1)
    assert np.allclose(out, [64.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_inversion_faraday_frozen_value():
    # same event, pure E field: E' = 16 E with no magnetic admixture
    x = np.array([2.0, 0.0, 0.0, 0.0])
    F = oracle.pack_faraday(np.array([1.0, 0, 0]), np.zeros(3))
    out = oracle.transform_faraday(
        oracle.jacobian_inversion(x, 1), F, lam=abs(oracle.msq(x)), theta=-1
    )
    E, B = oracle.unpack_faraday(np.asarray(out, dtype=np.float64))
    assert np.allclose(E, [16.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(B, 0.0, atol=1e-12)


def test_covariant_transforms_are_consistent():
    """Lowering commutes with transforming when the inverse carries the law."""
    rng = np.random.default_rng(35)
    for _ in range(10):
        x = sample_off_cone(rng)
        A = rng.uniform(-2, 2, 4)
        M = oracle.jacobian_inversion(x, 1)
        lam = abs(oracle.msq(x))
        up = oracle.transform_potential(M, A, lam=lam, theta=-1)
        down = oracle.transform_potential_covariant(M, oracle.lower(A), lam=lam, theta=-1)
        assert np.allclose(oracle.lower(np.asarray(up, dtype=np.float64)),
                           np.asarray(down, dtype=np.float64), atol=1e-9)


def test_dedicated_faraday_forms_match_generic_law():
    rng = np.random.default_rng(36)
    for _ in range(15):
        x = sample_off_cone(rng)
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.sct_scale(x, a)) < 0.05:
            continue
        E = rng.uniform(-2, 2, 3)
        B = rng.uniform(-2, 2, 3)
        F = oracle.pack_faraday(E, B)
        gen = oracle.transform_faraday(
            oracle.jacobian_inversion(x, 1), F, lam=abs(oracle.msq(x)), theta=-1
        )
        ded = oracle.inversion_faraday_tensor(F, x, 1)
        assert np.max(np.abs(np.asarray(gen - ded, dtype=np.float64))) < 1e-10
        gen = oracle.transform_faraday(
            oracle.jacobian_sct(x, a), F, lam=abs(oracle.sct_scale(x, a)), theta=1
        )
        ded = oracle.sct_faraday_tensor(F, x, a)
        scale = max(1.0, float(np.max(np.abs(np.asarray(ded, dtype=np.float64)))))
        assert np.max(np.abs(np.asarray(gen - ded, dtype=np.float64))) < 1e-10 * scale


def test_component_expansions_match_tensor_forms():
    rng = np.random.default_rng(37)
    for i in range(15):
        x = sample_off_cone(rng)
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.sct_scale(x, a)) < 0.05:
            continue
        E = rng.uniform(-2, 2, 3)
        B = rng.uniform(-2, 2, 3)
        eps = 1 if i % 2 == 0 else -1
        (Ep, Bp), (Ec, Bc) = oracle.inversion_field_forms(E, B, x, eps)
        forms_dev = max(np.max(np.abs(Ep - Ec)), np.max(np.abs(Bp - Bc)))
        assert forms_dev <= 1e-12 * max(1.0, np.max(np.abs(Ep)), np.max(np.abs(Bp)))
        Et, Bt = oracle.unpack_faraday(
            np.asarray(
                oracle.inversion_faraday_tensor(oracle.pack_faraday(E, B), x, eps),
                dtype=np.float64,
            )
        )
        scale = max(1.0, np.max(np.abs(Et)), np.max(np.abs(Bt)))
        assert np.max(np.abs(Ep - Et)) < 1e-11 * scale
        assert np.max(np.abs(Bp - Bt)) < 1e-11 * scale
        Es, Bs = oracle.sct_field_components(E, B, x, a)
        Et, Bt = oracle.unpack_faraday(
            np.asarray(
                oracle.sct_faraday_tensor(oracle.pack_faraday(E, B), x, a),
                dtype=np.float64,
            )
        )
        scale = max(1.0, np.max(np.abs(Et)), np.max(np.abs(Bt)))
        assert np.max(np.abs(Es - Et)) < 1e-11 * scale
        assert np.max(np.abs(Bs - Bt)) < 1e-11 * scale


def test_newcoord_expansion_matches_composition():
    """Substituting the image point reproduces the old-coordinate field."""
    rng = np.random.default_rng(38)
    done = 0
    while done < 10:
        x = sample_off_cone(rng)
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.sct_scale(x, a)) < 0.5:
            continue
        E = rng.uniform(-2, 2, 3)
        B = rng.uniform(-2, 2, 3)
        old = oracle.sct_field_components(E, B, x, a)
        x_new = oracle.sct_event(x, a)
        new = oracle.sct_field_components_newcoords(E, B, x_new, a)
        scale = max(1.0, np.max(np.abs(old[0])), np.max(np.abs(old[1])))
        assert np.max(np.abs(old[0] - new[0])) < 1e-10 * scale
        assert np.max(np.abs(old[1] - new[1])) < 1e-10 * scale
        done += 1


def test_potential_expansions():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    A = np.array([0.0, 1.0, 0.0, 0.0])
    # x A x for a purely spatial A at a purely temporal x flips the sign
    assert np.allclose(oracle.inversion_potential_components(A, x), [0, -1, 0, 0])
    a = np.array([0.5, 0.0, 0.0, 0.0])
    out = oracle.sct_potential_components(A, x, a)
    M = oracle.jacobian_sct(x, a)
    ref = oracle.transform_potential(M, A, lam=abs(oracle.sct_scale(x, a)), theta=1)
    assert np.allclose(out, np.asarray(ref, dtype=np.float64), atol=1e-12)


def test_invariants_from_tensor():
    E = np.array([1.0, 0.0, 0.0])
    B = np.array([1.0, 0.0, 0.0])
    i1, i2 = oracle.invariants_from_tensor(oracle.pack_faraday(E, B))
    assert i1 == pytest.approx(0.0, abs=1e-15)
    assert i2 == pytest.approx(2.0, abs=1e-15)


def test_invariants_transformed_inversion_flips_pseudoscalar():
    rng = np.random.default_rng(39)
    for _ in range(10):
        x = sample_off_cone(rng)
        E = rng.uniform(-2, 2, 3)
        B = rng.uniform(-2, 2, 3)
        F = oracle.pack_faraday(E, B)
        i1, i2 = oracle.invariants_from_tensor(F)
        M = oracle.jacobian_inversion(x, 1)
        om = oracle.msq(x)
        det = oracle.inversion_inverse_jacobian_det(x, 1)
        j1, j2 = oracle.invariants_transformed(F, M, lam=abs(om), theta=-1, det=1.0 / det)
        ref = max(1.0, om**4 * max(abs(i1), abs(i2)))
        assert abs(j1 - om**4 * i1) < 1e-10 * ref
        assert abs(j2 - (-(om**4)) * i2) < 1e-10 * ref


def invariants_transformed_by_sign_multiplies(F, M, lam, theta):
    """invariants_transformed with each permutation term multiplied by its
    sign, +1.0 or -1.0, before it is summed."""
    Fp = oracle._ld(oracle.transform_faraday(M, F, lam, theta))
    Fp_cov = oracle._lower_both(Fp)
    i1p = -0.5 * oracle._f64(oracle._quadratic(Fp, Fp_cov))
    det = np.linalg.det(np.asarray(M, dtype=np.float64))
    M = oracle._ld(M)
    eps_p = 0.0
    for (a, b, g, d), sign in zip(oracle._PERMS, oracle._PERM_SIGNS):
        eps_p = eps_p + sign * (
            M[..., :, a, None, None, None]
            * M[..., None, :, b, None, None]
            * M[..., None, None, :, g, None]
            * M[..., None, None, None, :, d]
        )
    eps_p = np.asarray(1.0 / oracle._ld(det))[..., None, None, None, None] * eps_p
    return i1p, -0.25 * oracle._f64(oracle._pseudoscalar(eps_p, Fp_cov))


@pytest.mark.parametrize("rows", [(100,), ()])
def test_invariants_transformed_sums_its_terms_as_the_sign_multiplies_did(rows):
    """Adding or subtracting each term is exact, as multiplying it by +-1.0
    was: the same bytes, for the inversion (det < 0) and the SCT (det > 0)."""
    rng = np.random.default_rng(71)
    n = int(np.prod(rows))
    x = np.array([sample_off_cone(rng) for _ in range(n)]).reshape(rows + (4,))
    a = rng.uniform(-0.5, 0.5, rows + (4,))
    F = oracle.pack_faraday(rng.uniform(-2, 2, rows + (3,)), rng.uniform(-2, 2, rows + (3,)))
    maps = [
        (oracle.jacobian_inversion(x, 1), np.abs(oracle.msq(x)), -1),
        (oracle.jacobian_sct(x, a), np.abs(oracle.sct_scale(x, a)), 1),
    ]
    for (M, lam, theta), det_sign in zip(maps, (-1.0, 1.0)):
        assert np.all(np.sign(np.linalg.det(np.asarray(M, dtype=np.float64))) == det_sign)
        got = oracle.invariants_transformed(F, M, lam, theta)
        want = invariants_transformed_by_sign_multiplies(F, M, lam, theta)
        for g, w in zip(got, want):
            assert np.shape(g) == rows and np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_inversion_inverse_jacobian_det():
    x = np.array([1.5, 0.3, -0.2, 0.7])
    om = oracle.msq(x)
    # the inverse map's determinant is -omega^4 with omega the squared interval
    assert oracle.inversion_inverse_jacobian_det(x, 1) == pytest.approx(
        -(om**4), rel=1e-10
    )
