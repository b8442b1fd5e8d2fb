import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pennyflip as pf
from pennyflip import rotations
from helpers import overlap, random_density, random_rotation

ATOL = pf.EXACT_TOL


def test_mat_mul_pauli_product():
    np.testing.assert_allclose(
        rotations.PAULI_X @ rotations.PAULI_Y, 1j * np.asarray(rotations.PAULI_Z), atol=ATOL
    )


def test_eigen_pauli_x():
    w, v = pf.eigen_hermitian(rotations.PAULI_X)
    np.testing.assert_allclose(w, [1.0, -1.0], atol=ATOL)
    assert overlap(v[:, 0], np.array([1.0, 1.0]) / math.sqrt(2)) == pytest.approx(1.0, abs=ATOL)
    assert overlap(v[:, 1], np.array([1.0, -1.0]) / math.sqrt(2)) == pytest.approx(1.0, abs=ATOL)


def test_eigen_diagonal_returns_basis_vectors():
    w, v = pf.eigen_hermitian(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(w, [1.0, 0.0], atol=ATOL)
    np.testing.assert_allclose(v, np.eye(2), atol=ATOL)
    # reversed order still reports descending eigenvalues
    w, v = pf.eigen_hermitian(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(w, [0.75, 0.25], atol=ATOL)
    assert overlap(v[:, 0], np.array([0.0, 1.0])) == pytest.approx(1.0, abs=ATOL)


def test_eigen_degenerate_defaults_to_computational_basis():
    w, v = pf.eigen_hermitian(pf.MAXIMALLY_MIXED)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=ATOL)
    np.testing.assert_allclose(v, np.eye(2), atol=0)


def test_eigen_matches_numpy_on_random_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = g + g.conj().T
        w, v = pf.eigen_hermitian(h)
        w_np = np.linalg.eigvalsh(h)[::-1]
        np.testing.assert_allclose(w, w_np, atol=1e-10)
        for i in range(2):
            np.testing.assert_allclose(h @ v[:, i], w[i] * v[:, i], atol=1e-10)
        assert abs(np.vdot(v[:, 0], v[:, 1])) < ATOL


def test_eigen_rejects_non_hermitian():
    with pytest.raises(pf.NotHermitianError):
        pf.eigen_hermitian(np.array([[1.0, 1.0j], [1.0j, 0.0]]))


def test_validate_density_accepts_valid_states():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho = random_density(rng)
        out = pf.validate_density(rho)
        np.testing.assert_allclose(out, rho, atol=0)


def test_validate_density_rejections():
    with pytest.raises(pf.NotHermitianError):
        pf.validate_density(np.array([[1.0, 1.0j], [1.0j, 0.0]]))
    with pytest.raises(pf.TraceNotOneError):
        pf.validate_density(np.diag([0.6, 0.6]))
    with pytest.raises(pf.NotPositiveError):
        pf.validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(pf.NotHermitianError):
        pf.validate_density(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(pf.DensityMatrixError):
        pf.validate_density(np.eye(3))


def test_purity_landmarks():
    assert pf.purity(pf.SPIN_UP) == pytest.approx(1.0, abs=ATOL)
    assert pf.purity(pf.MAXIMALLY_MIXED) == pytest.approx(0.5, abs=ATOL)
    assert pf.purity(np.diag([2 / 3, 1 / 3])) == pytest.approx(5 / 9, abs=ATOL)


def test_purity_from_bloch_norm():
    # purity = (1 + |r|^2) / 2
    rng = np.random.default_rng(17)
    for _ in range(200):
        rho = random_density(rng)
        r = pf.to_bloch(rho)
        assert pf.purity(rho) == pytest.approx(0.5 * (1.0 + r @ r), abs=1e-10)


def test_entropy_landmarks():
    assert pf.entropy(pf.SPIN_UP) == pytest.approx(0.0, abs=ATOL)
    assert pf.entropy(pf.MAXIMALLY_MIXED) == pytest.approx(math.log(2), abs=ATOL)
    expected = math.log(3) - (2 / 3) * math.log(2)
    assert pf.entropy(np.diag([2 / 3, 1 / 3])) == pytest.approx(expected, abs=ATOL)


def test_entropy_range_and_rotation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(200):
        rho = random_density(rng)
        s = pf.entropy(rho)
        assert -ATOL <= s <= math.log(2) + ATOL
        u = random_rotation(rng)
        assert pf.entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=ATOL)


def test_bloch_landmarks():
    np.testing.assert_allclose(pf.to_bloch(pf.SPIN_UP), [0.0, 0.0, 1.0], atol=ATOL)
    np.testing.assert_allclose(
        pf.from_bloch([1.0, 0.0, 0.0]), np.full((2, 2), 0.5), atol=ATOL
    )
    np.testing.assert_allclose(
        pf.from_bloch([0.0, 1.0, 0.0]),
        0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]]),
        atol=ATOL,
    )


def test_from_bloch_rejects_outside_ball():
    with pytest.raises(pf.BlochOutOfBallError):
        pf.from_bloch([0.0, 0.0, 1.0 + 1e-6])


@settings(deadline=None, max_examples=200)
@given(
    st.tuples(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    ).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)
)
def test_bloch_round_trip(vec):
    rho = pf.from_bloch(vec)
    pf.validate_density(rho)
    np.testing.assert_allclose(pf.to_bloch(rho), vec, atol=ATOL)


def test_trace_distance_landmarks():
    assert pf.trace_distance(pf.SPIN_UP, pf.MAXIMALLY_MIXED) == pytest.approx(0.5, abs=ATOL)
    assert pf.trace_distance(pf.SPIN_UP, pf.SPIN_UP) == pytest.approx(0.0, abs=ATOL)
    # orthogonal pure states sit at distance 1
    assert pf.trace_distance(pf.SPIN_UP, np.diag([0.0, 1.0])) == pytest.approx(1.0, abs=ATOL)


def test_trace_distance_is_half_bloch_separation():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b = random_density(rng), random_density(rng)
        d = pf.trace_distance(a, b)
        assert d == pytest.approx(pf.trace_distance(b, a), abs=ATOL)
        sep = np.linalg.norm(pf.to_bloch(a) - pf.to_bloch(b))
        assert d == pytest.approx(0.5 * sep, abs=1e-10)


def test_decompose_polarized_landmarks():
    w_p, w_u, rho_p = pf.decompose_polarized(np.diag([2 / 3, 1 / 3]))
    assert w_p == pytest.approx(1 / 3, abs=ATOL)
    assert w_u == pytest.approx(2 / 3, abs=ATOL)
    np.testing.assert_allclose(rho_p, pf.SPIN_UP, atol=ATOL)
    # fully mixed: no polarized part, projector defaults to +z
    w_p, w_u, rho_p = pf.decompose_polarized(pf.MAXIMALLY_MIXED)
    assert w_p == pytest.approx(0.0, abs=ATOL)
    np.testing.assert_allclose(rho_p, pf.SPIN_UP, atol=0)


def test_decompose_polarized_reconstructs():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rho = random_density(rng)
        w_p, w_u, rho_p = pf.decompose_polarized(rho)
        assert w_p >= -ATOL
        assert w_p + w_u == pytest.approx(1.0, abs=ATOL)
        rebuilt = w_p * rho_p + w_u * np.asarray(pf.MAXIMALLY_MIXED)
        np.testing.assert_allclose(rebuilt, rho, atol=1e-10)
