import math

import numpy as np
import pytest

import pennyflip as pf
from helpers import random_axis, random_density, random_rotation

ATOL = pf.EXACT_TOL
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
FLIP_X = pf.rotation_unitary(X, math.pi)


def test_spec_validation():
    with pytest.raises(ValueError):
        pf.FixedRotation(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        pf.MeyerMixture(-0.1, FLIP_X)
    with pytest.raises(ValueError):
        pf.MeyerMixture(1.1, FLIP_X)
    with pytest.raises(pf.NotUnitaryError):
        pf.MeyerMixture(0.5, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(pf.InvalidAxesError):
        pf.TwoAxisFlip(X, pf.unit_axis([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        pf.Iterated(pf.RandomBasisMeasurement(), 0)
    with pytest.raises(pf.NotUnitaryError):
        pf.require_unitary(np.array([[2.0, 0.0], [0.0, 0.5]]))


def test_spec_axes_are_normalized():
    spec = pf.FixedRotation([0.0, 0.0, 5.0], 1.0)
    np.testing.assert_allclose(spec.axis, Z, atol=0)
    flip = pf.TwoAxisFlip([2.0, 0.0, 0.0], [0.0, 3.0, 0.0])
    np.testing.assert_allclose(flip.axis_a, X, atol=0)
    np.testing.assert_allclose(flip.axis_b, Y, atol=0)


def test_fixed_axis_measurement_along_a_huge_axis():
    out = pf.apply_channel(pf.FixedAxisMeasurement([1e200, 0.0, 1e200]), pf.SPIN_UP)
    np.testing.assert_allclose(pf.to_bloch(out), [0.5, 0.0, 0.5], atol=ATOL)


def test_fixed_rotation_flips_polarization():
    out = pf.apply_channel(pf.FixedRotation(X, math.pi), pf.SPIN_UP)
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=ATOL)


def test_fixed_rotation_matches_direct_conjugation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = random_density(rng)
        axis = random_axis(rng)
        theta = rng.uniform(0, 2 * math.pi)
        u = pf.rotation_unitary(axis, theta)
        np.testing.assert_allclose(
            pf.apply_channel(pf.FixedRotation(axis, theta), rho),
            u @ rho @ u.conj().T,
            atol=1e-14,
        )


def test_meyer_mixture_analytic():
    out = pf.apply_channel(pf.MeyerMixture(0.5, FLIP_X), pf.SPIN_UP)
    np.testing.assert_allclose(out, pf.MAXIMALLY_MIXED, atol=ATOL)
    # p is the leave-alone weight
    np.testing.assert_allclose(
        pf.apply_channel(pf.MeyerMixture(1.0, FLIP_X), pf.SPIN_UP), pf.SPIN_UP, atol=0
    )
    np.testing.assert_allclose(
        pf.apply_channel(pf.MeyerMixture(0.0, FLIP_X), pf.SPIN_UP),
        np.diag([0.0, 1.0]),
        atol=ATOL,
    )
    # commuting flip leaves the state alone
    uz = pf.rotation_unitary(Z, 1.3)
    np.testing.assert_allclose(
        pf.apply_channel(pf.MeyerMixture(0.5, uz), pf.SPIN_UP), pf.SPIN_UP, atol=ATOL
    )


def test_bloch_contraction_landmarks():
    assert pf.bloch_contraction(0.0) == pytest.approx(1.0, abs=ATOL)
    assert pf.bloch_contraction(math.pi / 2) == pytest.approx(1 / 3, abs=ATOL)
    assert pf.bloch_contraction(2 * math.pi / 3) == pytest.approx(0.0, abs=ATOL)
    assert pf.bloch_contraction(math.pi) == pytest.approx(-1 / 3, abs=ATOL)


def test_twirl_analytic_landmarks():
    np.testing.assert_allclose(pf.twirl_analytic(0.0), pf.SPIN_UP, atol=ATOL)
    np.testing.assert_allclose(
        pf.twirl_analytic(math.pi / 2), np.diag([2 / 3, 1 / 3]), atol=ATOL
    )
    np.testing.assert_allclose(
        pf.twirl_analytic(2 * math.pi / 3), pf.MAXIMALLY_MIXED, atol=ATOL
    )
    np.testing.assert_allclose(pf.twirl_analytic(math.pi), np.diag([1 / 3, 2 / 3]), atol=ATOL)


def test_twirl_analytic_rejects_other_inputs():
    pf.twirl_analytic(1.0, rho=pf.SPIN_UP)
    with pytest.raises(ValueError):
        pf.twirl_analytic(1.0, rho=pf.MAXIMALLY_MIXED)


def test_twirl_general_scales_bloch_vector():
    rng = np.random.default_rng(19)
    for _ in range(100):
        rho = random_density(rng)
        theta = rng.uniform(0, 2 * math.pi)
        out = pf.apply_channel(pf.RandomAxisRotation(theta), rho)
        np.testing.assert_allclose(
            pf.to_bloch(out), pf.bloch_contraction(theta) * pf.to_bloch(rho), atol=1e-12
        )
    thetas = np.linspace(0.0, math.pi, 25)
    for theta in thetas:
        np.testing.assert_allclose(
            pf.apply_channel(pf.RandomAxisRotation(theta), pf.SPIN_UP),
            pf.twirl_analytic(theta),
            atol=ATOL,
        )


def test_twirl_general_is_rotation_covariant():
    rng = np.random.default_rng(37)
    for _ in range(100):
        rho = random_density(rng)
        theta = rng.uniform(0, 2 * math.pi)
        u = random_rotation(rng)
        twirl = pf.RandomAxisRotation(theta)
        left = pf.apply_channel(twirl, u @ rho @ u.conj().T)
        right = u @ pf.apply_channel(twirl, rho) @ u.conj().T
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_twirl_mc_single_sample_matches_fixed_rotation_bitwise():
    theta = 1.9
    rho = pf.from_bloch([0.1, -0.2, 0.6])
    twirl = pf.RandomAxisRotation(theta)
    est = pf.apply_channel(twirl, rho, mode="mc", samples=1, rng=pf.RngStream(123))
    axis = pf.sample_axis(pf.RngStream(123))
    expected = pf.apply_channel(pf.FixedRotation(axis, theta), rho)
    assert np.array_equal(est.mean, expected)
    assert est.std_error == 0.0
    assert est.samples == 1


def test_twirl_mc_zero_angle_is_exact():
    twirl = pf.RandomAxisRotation(0.0)
    est = pf.apply_channel(twirl, pf.SPIN_UP, mode="mc", samples=200, rng=pf.RngStream(1))
    assert np.array_equal(est.mean, np.asarray(pf.SPIN_UP))
    assert est.std_error == 0.0


def test_twirl_mc_deterministic_replay():
    twirl = pf.RandomAxisRotation(1.0)
    kwargs = dict(samples=2000, rng=pf.RngStream(5), shards=4)
    a = pf.apply_channel(twirl, pf.SPIN_UP, mode="mc", **kwargs)
    b = pf.apply_channel(
        twirl, pf.SPIN_UP, mode="mc", samples=2000, rng=pf.RngStream(5), shards=4
    )
    assert np.array_equal(a.mean, b.mean)
    assert a.std_error == b.std_error
    c = pf.apply_channel(
        twirl, pf.SPIN_UP, mode="mc", samples=2000, rng=pf.RngStream(6), shards=4
    )
    assert not np.array_equal(a.mean, c.mean)
    d = pf.apply_channel(
        twirl, pf.SPIN_UP, mode="mc", samples=2000, rng=pf.RngStream(5), shards=2
    )
    assert not np.array_equal(a.mean, d.mean)


def test_twirl_mc_agrees_with_analytic():
    theta = math.pi / 2
    twirl = pf.RandomAxisRotation(theta)
    est = pf.apply_channel(twirl, pf.SPIN_UP, mode="mc", samples=20_000, rng=pf.RngStream(0))
    dev = np.max(np.abs(est.mean - pf.twirl_analytic(theta)))
    assert dev < 4 * est.std_error


def test_measure_fixed_axis_landmarks():
    np.testing.assert_allclose(
        pf.apply_channel(pf.FixedAxisMeasurement(Z), pf.SPIN_UP), pf.SPIN_UP, atol=ATOL
    )
    np.testing.assert_allclose(
        pf.apply_channel(pf.FixedAxisMeasurement(X), pf.SPIN_UP), pf.MAXIMALLY_MIXED, atol=ATOL
    )
    axis = pf.unit_axis([math.sqrt(3) / 2, 0.0, 0.5])
    out = pf.apply_channel(pf.FixedAxisMeasurement(axis), pf.SPIN_UP)
    np.testing.assert_allclose(out, pf.from_bloch(0.5 * axis), atol=ATOL)
    plus, minus = pf.spin_eigenstates(axis)
    assert np.vdot(plus, out @ plus).real == pytest.approx(3 / 4, abs=ATOL)
    assert np.vdot(minus, out @ minus).real == pytest.approx(1 / 4, abs=ATOL)


def test_measure_fixed_axis_matches_projector_form():
    rng = np.random.default_rng(43)
    for _ in range(100):
        rho = random_density(rng)
        axis = random_axis(rng)
        p_plus = 0.5 * (np.eye(2) + pf.pauli_dot(axis))
        p_minus = 0.5 * (np.eye(2) - pf.pauli_dot(axis))
        expected = p_plus @ rho @ p_plus + p_minus @ rho @ p_minus
        out = pf.apply_channel(pf.FixedAxisMeasurement(axis), rho)
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_measure_fixed_axis_is_idempotent():
    rng = np.random.default_rng(47)
    for _ in range(50):
        rho = random_density(rng)
        axis = random_axis(rng)
        measure = pf.FixedAxisMeasurement(axis)
        once = pf.apply_channel(measure, rho)
        np.testing.assert_allclose(pf.apply_channel(measure, once), once, atol=1e-12)


def test_random_measurement_analytic():
    measure = pf.RandomBasisMeasurement()
    np.testing.assert_allclose(
        pf.apply_channel(measure, pf.SPIN_UP), np.diag([2 / 3, 1 / 3]), atol=ATOL
    )
    np.testing.assert_allclose(
        pf.apply_channel(measure, pf.MAXIMALLY_MIXED), pf.MAXIMALLY_MIXED, atol=0
    )
    rng = np.random.default_rng(53)
    for _ in range(50):
        rho = random_density(rng)
        out = pf.apply_channel(measure, rho)
        np.testing.assert_allclose(pf.to_bloch(out), pf.to_bloch(rho) / 3, atol=1e-12)


def test_random_measurement_mc_agrees_with_analytic():
    measure = pf.RandomBasisMeasurement()
    est = pf.apply_channel(measure, pf.SPIN_UP, mode="mc", samples=20_000, rng=pf.RngStream(0))
    dev = np.max(np.abs(est.mean - pf.apply_channel(measure, pf.SPIN_UP)))
    assert dev < 4 * est.std_error


def test_random_measurement_mc_fixed_point_has_no_spread():
    est = pf.apply_channel(
        pf.RandomBasisMeasurement(), pf.MAXIMALLY_MIXED, mode="mc", samples=500, rng=pf.RngStream(2)
    )
    np.testing.assert_allclose(est.mean, pf.MAXIMALLY_MIXED, atol=ATOL)
    assert est.std_error < 1e-12


def test_apply_channel_two_axis_flip():
    spec = pf.TwoAxisFlip(X, Y)
    np.testing.assert_allclose(
        pf.apply_channel(spec, pf.SPIN_UP), np.diag([0.0, 1.0]), atol=ATOL
    )
    # x-polarized input: one flip preserves it, the other negates it
    rho_x = pf.from_bloch([1.0, 0.0, 0.0])
    np.testing.assert_allclose(pf.apply_channel(spec, rho_x), pf.MAXIMALLY_MIXED, atol=ATOL)


def test_apply_channel_iterated_measurement():
    spec = pf.Iterated(pf.RandomBasisMeasurement(), 2)
    np.testing.assert_allclose(
        pf.apply_channel(spec, pf.SPIN_UP), np.diag([5 / 9, 4 / 9]), atol=ATOL
    )
    for n in range(1, 7):
        out = pf.apply_channel(pf.Iterated(pf.RandomBasisMeasurement(), n), pf.SPIN_UP)
        w_p, _, _ = pf.decompose_polarized(out)
        assert w_p == pytest.approx(3.0 ** (-n), abs=ATOL)


def test_apply_channel_rejects_unknown_mode():
    with pytest.raises(pf.UnsupportedModeError):
        pf.apply_channel(pf.RandomBasisMeasurement(), pf.SPIN_UP, mode="exact")


def test_apply_channel_mc_returns_estimate():
    est = pf.apply_channel(
        pf.RandomAxisRotation(1.0),
        pf.SPIN_UP,
        mode="mc",
        samples=100,
        rng=pf.RngStream(0),
    )
    assert isinstance(est, pf.McEstimate)
    assert est.samples == 100
    twirled = pf.apply_channel(
        pf.RandomAxisRotation(1.0), pf.SPIN_UP, mode="mc", samples=100, rng=pf.RngStream(0)
    )
    assert np.array_equal(est.mean, twirled.mean)
    assert est.std_error == twirled.std_error


def test_apply_channel_mc_deterministic_specs_have_no_spread():
    rho = pf.from_bloch([0.1, 0.2, -0.3])
    for spec in (
        pf.FixedRotation(X, 0.7),
        pf.FixedAxisMeasurement(pf.unit_axis([1.0, 1.0, 1.0])),
    ):
        est = pf.apply_channel(spec, rho, mode="mc", samples=64, rng=pf.RngStream(0))
        exact = pf.apply_channel(spec, rho)
        np.testing.assert_allclose(est.mean, exact, atol=1e-15)
        # sum-of-squares accumulation leaves ~sqrt(eps) residue on constant data
        assert est.std_error < 1e-7


def test_apply_channel_mc_meyer_edge_probabilities():
    rho = pf.from_bloch([0.0, 0.5, 0.5])
    for p, expected_u in ((1.0, np.eye(2)), (0.0, FLIP_X)):
        est = pf.apply_channel(
            pf.MeyerMixture(p, FLIP_X), rho, mode="mc", samples=64, rng=pf.RngStream(1)
        )
        expected = expected_u @ rho @ expected_u.conj().T
        np.testing.assert_allclose(est.mean, expected, atol=1e-15)
        assert est.std_error < 1e-7


def test_apply_channel_mc_agrees_for_mixtures():
    rho = pf.from_bloch([0.3, 0.1, 0.8])
    for spec in (
        pf.MeyerMixture(0.5, FLIP_X),
        pf.TwoAxisFlip(X, Y),
        pf.RandomBasisMeasurement(),
    ):
        est = pf.apply_channel(spec, rho, mode="mc", samples=20_000, rng=pf.RngStream(0))
        exact = pf.apply_channel(spec, rho)
        dev = np.max(np.abs(est.mean - exact))
        assert dev < 4 * max(est.std_error, 1e-15)


def test_iterated_mc_curve_matches_iterated_channel_bitwise():
    inner = pf.RandomBasisMeasurement()
    curve = pf.iterated_mc_curve(
        inner, pf.SPIN_UP, 3, samples=500, rng=pf.RngStream(3), shards=2
    )
    assert len(curve) == 3
    for k in (1, 2, 3):
        est = pf.apply_channel(
            pf.Iterated(inner, k),
            pf.SPIN_UP,
            mode="mc",
            samples=500,
            rng=pf.RngStream(3),
            shards=2,
        )
        assert np.array_equal(curve[k - 1].mean, est.mean)
        assert curve[k - 1].std_error == est.std_error


def test_channels_are_unital():
    axis = pf.unit_axis([1.0, -1.0, 0.5])
    specs = [
        pf.FixedRotation(axis, 0.8),
        pf.MeyerMixture(0.3, pf.rotation_unitary(Y, 1.1)),
        pf.RandomAxisRotation(2.0),
        pf.FixedAxisMeasurement(axis),
        pf.RandomBasisMeasurement(),
        pf.TwoAxisFlip(X, Y),
        pf.Iterated(pf.RandomBasisMeasurement(), 3),
    ]
    for spec in specs:
        out = pf.apply_channel(spec, pf.MAXIMALLY_MIXED)
        np.testing.assert_allclose(out, pf.MAXIMALLY_MIXED, atol=ATOL)


def test_disruption_never_reduces_entropy():
    rng = np.random.default_rng(59)
    for _ in range(100):
        rho = random_density(rng)
        before = pf.entropy(rho)
        for spec in (
            pf.RandomAxisRotation(rng.uniform(0, math.pi)),
            pf.FixedAxisMeasurement(random_axis(rng)),
            pf.RandomBasisMeasurement(),
        ):
            assert pf.entropy(pf.apply_channel(spec, rho)) >= before - ATOL


def test_mc_outputs_are_valid_states():
    rng_pick = np.random.default_rng(61)
    for spec in (
        pf.RandomAxisRotation(0.9),
        pf.RandomBasisMeasurement(),
        pf.MeyerMixture(0.4, FLIP_X),
    ):
        rho = random_density(rng_pick)
        est = pf.apply_channel(spec, rho, mode="mc", samples=512, rng=pf.RngStream(8))
        pf.validate_density(est.mean)
        assert est.std_error >= 0.0
