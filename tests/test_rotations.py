import math

import numpy as np
import pytest

import pennyflip as pf
from pennyflip import rotations
from helpers import overlap, random_axis

ATOL = pf.EXACT_TOL


def test_pauli_algebra():
    for sigma in (rotations.PAULI_X, rotations.PAULI_Y, rotations.PAULI_Z):
        np.testing.assert_allclose(sigma @ sigma, rotations.IDENTITY, atol=0)
    np.testing.assert_allclose(rotations.PAULI_Y @ rotations.PAULI_Z, 1j * np.asarray(rotations.PAULI_X), atol=0)
    np.testing.assert_allclose(rotations.PAULI_Z @ rotations.PAULI_X, 1j * np.asarray(rotations.PAULI_Y), atol=0)


def test_constants_are_write_protected():
    with pytest.raises(ValueError):
        rotations.PAULI_X[0, 0] = 5.0


def test_unit_axis():
    np.testing.assert_allclose(pf.unit_axis([0.0, 0.0, 2.0]), [0.0, 0.0, 1.0], atol=0)
    np.testing.assert_allclose(
        pf.unit_axis([3.0, 4.0, 0.0]), [0.6, 0.8, 0.0], atol=ATOL
    )
    with pytest.raises(ValueError):
        pf.unit_axis([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        pf.unit_axis([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        pf.unit_axis([1.0, 2.0])


@pytest.mark.parametrize(
    "v, direction",
    [
        ([1e200, 1e200, 0.0], [1.0, 1.0, 0.0]),
        ([1e-200, -1e-200, 0.0], [1.0, -1.0, 0.0]),
        ([1e308, -1e308, 1e308], [1.0, -1.0, 1.0]),
        ([-1e-308, 0.0, 1e-308], [-1.0, 0.0, 1.0]),
        ([5e-324, 5e-324, 5e-324], [1.0, 1.0, 1.0]),
        ([0.0, -5e-324, 0.0], [0.0, -1.0, 0.0]),
        ([1e300, 1e-300, 0.0], [1.0, 0.0, 0.0]),
    ],
)
def test_unit_axis_scales_huge_and_tiny_components(v, direction):
    n = pf.unit_axis(v)
    assert abs(float(np.linalg.norm(n)) - 1.0) <= ATOL
    np.testing.assert_allclose(n, np.asarray(direction) / np.linalg.norm(direction), atol=ATOL)


def test_pauli_dot_axes():
    np.testing.assert_allclose(pf.pauli_dot(np.array([0.0, 0.0, 1.0])), rotations.PAULI_Z, atol=0)
    np.testing.assert_allclose(pf.pauli_dot(np.array([1.0, 0.0, 0.0])), rotations.PAULI_X, atol=0)
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    stacked = pf.pauli_dot(axes)
    assert stacked.shape == (2, 2, 2)
    np.testing.assert_allclose(stacked[1], rotations.PAULI_Y, atol=0)


def test_rotation_about_z_is_diagonal_phase():
    theta = 0.7
    u = pf.rotation_unitary(np.array([0.0, 0.0, 1.0]), theta)
    expected = np.diag([np.exp(0.5j * theta), np.exp(-0.5j * theta)])
    np.testing.assert_allclose(u, expected, atol=ATOL)


def test_rotation_x_pi_is_i_sigma_x():
    u = pf.rotation_unitary(np.array([1.0, 0.0, 0.0]), math.pi)
    np.testing.assert_allclose(u, 1j * np.asarray(rotations.PAULI_X), atol=ATOL)


def test_full_turn_keeps_global_phase():
    # 2*pi rotation is -I for spin-1/2; the sign must not be normalized away
    u = pf.rotation_unitary(np.array([0.0, 0.0, 1.0]), 2 * math.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=ATOL)
    assert not np.allclose(u, np.eye(2), atol=0.5)


def test_rotation_is_special_unitary():
    rng = np.random.default_rng(3)
    for _ in range(200):
        axis = random_axis(rng)
        theta = rng.uniform(-4 * math.pi, 4 * math.pi)
        u = pf.rotation_unitary(axis, theta)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_rotation_composition_adds_angles():
    rng = np.random.default_rng(13)
    for _ in range(50):
        axis = random_axis(rng)
        a, b = rng.uniform(0, math.pi, size=2)
        np.testing.assert_allclose(
            pf.rotation_unitary(axis, a) @ pf.rotation_unitary(axis, b),
            pf.rotation_unitary(axis, a + b),
            atol=1e-12,
        )


def test_rotation_unitaries_match_scalar_bitwise():
    rng = np.random.default_rng(29)
    axes = np.array([random_axis(rng) for _ in range(50)])
    theta = 1.234
    stacked = pf.rotation_unitaries(axes, theta)
    assert stacked.shape == (50, 2, 2)
    for i in range(50):
        assert np.array_equal(stacked[i], pf.rotation_unitary(axes[i], theta))


def test_spin_eigenstates_z_axis():
    plus, minus = pf.spin_eigenstates(np.array([0.0, 0.0, 1.0]))
    assert overlap(plus, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=ATOL)
    assert overlap(minus, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=ATOL)
    plus, minus = pf.spin_eigenstates(np.array([0.0, 0.0, -1.0]))
    assert overlap(plus, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=ATOL)
    assert overlap(minus, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=ATOL)


def test_spin_eigenstates_x_axis():
    plus, minus = pf.spin_eigenstates(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(plus, np.array([1.0, 1.0]) / math.sqrt(2), atol=ATOL)
    np.testing.assert_allclose(minus, np.array([1.0, -1.0]) / math.sqrt(2), atol=ATOL)


def test_spin_eigenstates_properties():
    rng = np.random.default_rng(7)
    for _ in range(300):
        axis = random_axis(rng)
        plus, minus = pf.spin_eigenstates(axis)
        s = pf.pauli_dot(axis)
        np.testing.assert_allclose(s @ plus, plus, atol=1e-10)
        np.testing.assert_allclose(s @ minus, -minus, atol=1e-10)
        assert np.vdot(plus, plus) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(minus, minus) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(plus, minus)) < 1e-10
        # spin-up weights follow the polar angle
        assert abs(plus[0]) ** 2 == pytest.approx((1 + axis[2]) / 2, abs=1e-10)
        assert abs(minus[0]) ** 2 == pytest.approx((1 - axis[2]) / 2, abs=1e-10)
        # completeness
        comp = np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
        np.testing.assert_allclose(comp, np.eye(2), atol=1e-10)


def test_spin_eigenstates_near_poles_stay_orthonormal():
    for nz in (1.0 - 1e-12, -1.0 + 1e-12, 1.0 - 1e-7, -1.0 + 1e-7):
        r = math.sqrt(max(0.0, 1.0 - nz * nz))
        axis = pf.unit_axis([r * 0.6, r * 0.8, nz])
        plus, minus = pf.spin_eigenstates(axis)
        assert np.vdot(plus, plus) == pytest.approx(1.0, abs=1e-9)
        assert np.vdot(minus, minus) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(plus, minus)) < 1e-9
        s = pf.pauli_dot(axis)
        np.testing.assert_allclose(s @ plus, plus, atol=1e-6)
        np.testing.assert_allclose(s @ minus, -minus, atol=1e-6)


def test_rng_stream_identity_and_substreams():
    a = pf.RngStream(7)
    b = pf.RngStream(7)
    assert a.generator is a.generator
    assert np.array_equal(a.generator.random(5), b.generator.random(5))
    # clone restarts the stream from scratch
    fresh = a.clone().generator.random(5)
    assert np.array_equal(fresh, pf.RngStream(7).generator.random(5))
    sub = a.substream(3)
    assert sub.seed == 7 and sub.stream_index == 3
    assert np.array_equal(sub.generator.random(5), pf.RngStream(7, 3).generator.random(5))
    assert not np.array_equal(
        pf.RngStream(7, 0).generator.random(5), pf.RngStream(7, 1).generator.random(5)
    )
    assert not np.array_equal(
        pf.RngStream(7).generator.random(5), pf.RngStream(8).generator.random(5)
    )


def test_sample_axes_shapes_and_norms():
    axes = pf.sample_axes(pf.RngStream(0), 1000)
    assert axes.shape == (1000, 3)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)
    single = pf.sample_axes(pf.RngStream(0), 1)[0]
    assert single.shape == (3,)
    assert np.array_equal(single, axes[0])


def test_sample_axes_batch_matches_scalar_bitwise():
    batch = pf.sample_axes(pf.RngStream(9), 8)
    seq = pf.RngStream(9)
    rows = np.array([pf.sample_axes(seq, 1)[0] for _ in range(8)])
    assert np.array_equal(batch, rows)


def test_sample_axes_replay_and_divergence():
    a = pf.sample_axes(pf.RngStream(4), 64)
    b = pf.sample_axes(pf.RngStream(4), 64)
    assert np.array_equal(a, b)
    c = pf.sample_axes(pf.RngStream(5), 64)
    assert not np.array_equal(a, c)


def test_sample_axes_moments():
    axes = pf.sample_axes(pf.RngStream(0), 100_000)
    z = axes[:, 2]
    zz = z * z
    se = zz.std(ddof=1) / math.sqrt(zz.size)
    assert abs(zz.mean() - 1 / 3) < 4 * se
    for k in range(3):
        comp = axes[:, k]
        se_c = comp.std(ddof=1) / math.sqrt(comp.size)
        assert abs(comp.mean()) < 4 * se_c


def test_sample_axes_accepts_raw_generator():
    gen = pf.RngStream(2).clone().generator
    axes = pf.sample_axes(gen, 5)
    assert np.array_equal(axes, pf.sample_axes(pf.RngStream(2), 5))
