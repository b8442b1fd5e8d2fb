import math

import numpy as np
import pytest

import pennyflip as pf
from helpers import random_unitary

ATOL = pf.EXACT_TOL
THIRD_TURN = 2.0 * math.pi / 3.0
X = np.array([1.0, 0.0, 0.0])


def test_outcome_from_state_landmarks():
    out = pf.outcome_from_state(pf.SPIN_UP)
    assert out.q_win_probability == pytest.approx(1.0, abs=ATOL)
    assert (out.odds_q, out.odds_p) == (1.0, 0.0)
    assert out.odds_string == "1:0"

    out = pf.outcome_from_state(pf.MAXIMALLY_MIXED)
    assert out.q_win_probability == pytest.approx(0.5, abs=ATOL)
    assert out.odds_q == pytest.approx(1.0, abs=ATOL)
    assert out.odds_string == "1:1"

    out = pf.outcome_from_state(np.diag([2 / 3, 1 / 3]))
    assert out.q_win_probability == pytest.approx(2 / 3, abs=ATOL)
    assert out.odds_q == pytest.approx(2.0, abs=ATOL)
    assert out.odds_string == "2:1"

    out = pf.outcome_from_state(np.diag([0.75, 0.25]))
    assert out.odds_string == "3:1"


def test_outcome_keeps_post_state():
    rho = pf.from_bloch([0.3, 0.0, 0.4])
    out = pf.outcome_from_state(rho)
    np.testing.assert_allclose(out.post_channel_state, rho, atol=0)
    # q_win reads the dominant eigenvalue
    r = math.hypot(0.3, 0.4)
    assert out.q_win_probability == pytest.approx(0.5 * (1 + r), abs=ATOL)


def test_initial_state_against_known_rotation():
    f = pf.rotation_unitary(np.array([0.0, 1.0, 0.0]), 1.2)
    rho = pf.initial_state_for(pf.MeyerMixture(0.4, f))
    pf.validate_density(rho)
    assert pf.purity(rho) == pytest.approx(1.0, abs=ATOL)
    np.testing.assert_allclose(f @ rho @ f.conj().T, rho, atol=1e-12)
    # other strategies get the polarized basis state
    np.testing.assert_allclose(
        pf.initial_state_for(pf.RandomBasisMeasurement()), pf.SPIN_UP, atol=0
    )
    np.testing.assert_allclose(
        pf.initial_state_for(pf.RandomAxisRotation(1.0)), pf.SPIN_UP, atol=0
    )


def _case1(p, f):
    """The paper's case 1: P rotates by F with probability 1 - p, else leaves the state."""
    return pf.PStrategy("rotate or leave as is", pf.MeyerMixture(p, f))


def test_play_case1_default_is_certain_win():
    out = pf.play_game(_case1(0.5, pf.rotation_unitary(X, math.pi)))
    assert out.q_win_probability == pytest.approx(1.0, abs=ATOL)
    assert out.odds_string == "1:0"


def test_play_case1_wins_for_any_rotation_and_weight():
    rng = np.random.default_rng(71)
    for _ in range(50):
        f = random_unitary(rng)
        out = pf.play_game(_case1(float(rng.random()), f))
        assert out.q_win_probability == pytest.approx(1.0, abs=ATOL)
        assert out.odds_string == "1:0"


def test_play_case1_identity_like_rotations():
    for f in (np.eye(2), np.exp(0.37j) * np.eye(2), -np.eye(2)):
        out = pf.play_game(_case1(0.5, np.asarray(f, dtype=complex)))
        assert out.q_win_probability == pytest.approx(1.0, abs=ATOL)


def test_play_case1_rejects_non_unitary():
    with pytest.raises(pf.NotUnitaryError):
        pf.MeyerMixture(0.5, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_default_strategy_odds():
    strategies = pf.default_strategies()
    assert [s.label for s in strategies] == [
        "rotate or leave as is",
        "rotate 120 degrees about a random axis",
        "measure along a random axis",
    ]
    outs = [pf.play_game(s) for s in strategies]
    assert outs[0].q_win_probability == pytest.approx(1.0, abs=ATOL)
    assert outs[1].q_win_probability == pytest.approx(0.5, abs=ATOL)
    assert outs[2].q_win_probability == pytest.approx(2 / 3, abs=ATOL)
    assert [o.odds_string for o in outs] == ["1:0", "1:1", "2:1"]


def test_play_game_mc_tracks_analytic():
    strategy = pf.default_strategies()[2]
    out = pf.play_game(strategy, mode="mc", samples=20_000, rng=pf.RngStream(0))
    assert out.q_win_probability == pytest.approx(2 / 3, abs=0.01)


def test_two_axis_flip_round():
    flip = pf.TwoAxisFlip(X, [0.0, 1.0, 0.0])
    out = pf.outcome_from_state(pf.apply_channel(flip, pf.SPIN_UP))
    assert out.q_win_probability == pytest.approx(1.0, abs=ATOL)
    assert out.odds_string == "1:0"
    np.testing.assert_allclose(out.post_channel_state, np.diag([0.0, 1.0]), atol=ATOL)
    # polarization along one flip axis drops the round to a coin toss
    out = pf.outcome_from_state(pf.apply_channel(flip, pf.from_bloch(X)))
    assert out.q_win_probability == pytest.approx(0.5, abs=ATOL)
    assert out.odds_string == "1:1"
    with pytest.raises(pf.InvalidAxesError):
        pf.TwoAxisFlip(X, [1.0, 1.0, 0.0])


def _measured(n):
    spec = pf.Iterated(pf.RandomBasisMeasurement(), n)
    return pf.PStrategy(f"measure in a random basis {n} times", spec)


def test_iterated_measurement_odds_decay():
    for n in range(1, 7):
        out = pf.play_game(_measured(n))
        expected = 0.5 + 0.5 * 3.0 ** (-n)
        assert out.q_win_probability == pytest.approx(expected, abs=ATOL)
    assert pf.play_game(_measured(1)).odds_string == "2:1"
    with pytest.raises(ValueError):
        _measured(0)


def test_iterated_measurement_odds_mc():
    out = pf.play_game(_measured(2), mode="mc", samples=20_000, rng=pf.RngStream(0))
    assert out.q_win_probability == pytest.approx(0.5 + 0.5 / 9.0, abs=0.01)


def test_angle_scan_finds_erasing_angle():
    scan = pf.angle_scan(0.0, math.pi, 181)
    assert scan.thetas.shape == (181,)
    assert np.all(np.diff(scan.thetas) > 0)
    assert scan.refined_root is not None
    assert abs(scan.refined_root - THIRD_TURN) < 1e-8
    idx = int(np.argmin(scan.trace_distances))
    assert scan.trace_distances[idx] < 1e-12
    assert scan.argmin_theta == scan.thetas[idx]
    assert abs(scan.argmin_theta - THIRD_TURN) < 0.5 * math.pi / 180 + ATOL
    # the 120-degree grid point is the exact fixed point of the scan
    assert scan.trace_distances[120] < 1e-12
    assert scan.purities[0] == pytest.approx(1.0, abs=ATOL)
    assert scan.purities[-1] == pytest.approx(5 / 9, abs=ATOL)
    assert scan.trace_distances[0] == pytest.approx(0.5, abs=ATOL)


def test_angle_scan_takes_the_first_zero_of_a_coarse_step():
    # one step over more than a turn holds three zeros: -120, 120 and 240
    # degrees; the scan reports the first of them
    scan = pf.angle_scan(-2.1, 6.3, 2)
    assert scan.refined_root == -THIRD_TURN
    # where the contraction starts negative, its first zero is a rising one
    assert pf.angle_scan(2.5, 6.0, 3).refined_root == 2.0 * THIRD_TURN


def test_angle_scan_without_sign_change():
    scan = pf.angle_scan(0.0, 0.1, 5)
    assert scan.refined_root is None
    # contraction shrinks with angle here, so the argmin sits at the far end
    assert scan.argmin_theta == pytest.approx(0.1, abs=ATOL)


def test_angle_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        pf.angle_scan(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        pf.angle_scan(0.0, 1.0, 1)
