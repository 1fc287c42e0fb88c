import numpy as np
import pytest

from facelat.errors import BadAngle, EigenFailure
from facelat.statespace import (HALF_APERTURE_DEG, cone_experiment,
                                maximal_projection, support_projection,
                                verify_cone_frame, verify_sharp_properties)

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S3 = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_support_projection():
    assert np.allclose(support_projection(np.diag([1.0, 0.0]).astype(complex)),
                       np.diag([1, 0]))
    assert np.allclose(support_projection(I2 / 2), I2)
    assert np.allclose(support_projection(np.diag([0.75, 0.25]).astype(complex)), I2)


def test_maximal_projection():
    assert np.allclose(maximal_projection(S3), np.diag([1, 0]))
    assert np.allclose(maximal_projection(I2), I2)
    p = maximal_projection(S1)
    assert np.isclose(np.trace(p).real, 1.0)
    assert np.allclose(p @ p, p)
    v = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(p, np.outer(v, v))


def test_non_hermitian_rejected():
    with pytest.raises(EigenFailure):
        maximal_projection(np.array([[0, 1], [0, 0]], dtype=complex))


def test_exposed_face_and_normal_cone_predicates():
    """Direction u exposes the face {rho : supp(rho) <= p} of p, its maximal
    projection; u is normal at rho when supp(rho) <= p, and lies in the
    relative interior of the normal cone when the two are equal."""
    assert np.allclose(maximal_projection(S3), np.diag([1, 0]))
    assert np.allclose(maximal_projection(I2), I2)
    # on the classical 2-simplex a two-level direction exposes an edge
    u = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert np.allclose(maximal_projection(u), np.diag([1, 1, 0]))
    pure = support_projection(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(maximal_projection(S3) @ pure, pure)
    assert np.allclose(maximal_projection(S3), pure)
    mixed = support_projection(I2 / 2)
    assert not np.allclose(maximal_projection(S3) @ mixed, mixed)
    assert np.allclose(maximal_projection(I2), mixed)


def test_sharp_properties_qubit():
    rep = verify_sharp_properties((2,), samples=500, tol=1e-9, seed=11)
    assert rep.passed and rep.max_violation < 1e-9


def test_sharp_properties_direct_sum():
    rep = verify_sharp_properties((2, 1), samples=500, tol=1e-9, seed=12)
    assert rep.passed


def test_sharp_properties_trivial_algebra():
    assert verify_sharp_properties((1,), samples=5).passed


def test_maximal_projection_shift_invariance():
    # adding multiples of the identity or positive scaling never moves the
    # top eigenspace, so the exposed face it describes is unchanged
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = 0.5 * (g + g.conj().T)
        p = maximal_projection(u)
        assert np.allclose(maximal_projection(2.5 * u + 1.75 * np.eye(3)), p)
        assert np.allclose(maximal_projection(0.3 * u - 2.0 * np.eye(3)), p)


def test_half_aperture_is_thirty_degrees():
    assert abs(HALF_APERTURE_DEG - 30.0) < 1e-9


def test_frame_matches_state_space_support():
    assert verify_cone_frame() < 1e-9


def test_cone_experiment_angles():
    r = cone_experiment(12.0)
    assert r.conic_type == "hyperbolic"
    assert r.projection_flat_spots == 2
    assert r.projection_nonexposed_points == 2
    assert r.projection_sharp_violations == 0
    assert r.intersection_all_exposed
    r = cone_experiment(39.0)
    assert r.conic_type == "elliptic"
    assert r.projection_nonexposed_points == 2
    assert r.intersection_all_exposed
    r = cone_experiment(89.0)
    assert r.conic_type == "elliptic"
    assert r.projection_flat_spots == 0
    assert r.intersection_flat_spots == 0


def test_bad_angles():
    for phi in (0.0, -3.0, 90.0, 120.0):
        with pytest.raises(BadAngle):
            cone_experiment(phi)


def test_report_dict_is_labelled_numeric():
    d = cone_experiment(39.0).as_dict()
    assert d["mode"] == "numeric"
    assert d["conic_type"] == "elliptic"
