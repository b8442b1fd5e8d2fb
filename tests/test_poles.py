"""Axes within 1e-4 to 1e-12 of the z poles must stay exact to EXACT_TOL.

Near a pole the naive spinor column (1 + nz, nx + i ny) / sqrt(2 (1 + nz))
divides by a vanishing norm when nz -> -1; every construction here must
avoid that cliff.
"""

import math

import numpy as np
import pytest

import pennyflip as pf

ATOL = pf.EXACT_TOL
GAPS = tuple(10.0 ** -e for e in range(4, 13))


def near_pole(sign: float, gap: float) -> np.ndarray:
    """Unit axis with 1 - |nz| = gap on the sign side, off the xz and yz planes."""
    nz = sign * (1.0 - gap)
    rho_xy = math.sqrt(gap * (2.0 - gap))
    return pf.unit_axis([0.6 * rho_xy, 0.8 * rho_xy, nz])


POLE_AXES = [
    pytest.param(near_pole(sign, gap), id=f"{'+' if sign > 0 else '-'}z-{gap:.0e}")
    for sign in (1.0, -1.0)
    for gap in GAPS
]


@pytest.mark.parametrize("axis", POLE_AXES)
def test_meyer_mixture_round_is_a_certain_win(axis):
    f = np.exp(0.7j) * pf.rotation_unitary(axis, 1.3)
    outcome = pf.play_game(pf.PStrategy("rotate or leave", pf.MeyerMixture(0.3, f)))
    assert abs(outcome.q_win_probability - 1.0) <= ATOL
    assert outcome.odds_string == "1:0"


@pytest.mark.parametrize("axis", POLE_AXES)
def test_measurement_keeps_the_component_along_the_axis(axis):
    r = np.array([0.6, 0.0, 0.8])
    out = pf.apply_channel(pf.FixedAxisMeasurement(axis), pf.from_bloch(r))
    expected = float(axis @ r) * axis
    assert np.abs(pf.to_bloch(out) - expected).max() <= ATOL
    assert np.abs(out - pf.from_bloch(expected)).max() <= ATOL
    assert abs(np.trace(out) - 1.0) <= ATOL


@pytest.mark.parametrize("axis", POLE_AXES)
def test_spin_eigenstates_residuals(axis):
    plus, minus = pf.spin_eigenstates(axis)
    s = pf.pauli_dot(axis)
    assert np.abs(s @ plus - plus).max() <= ATOL
    assert np.abs(s @ minus + minus).max() <= ATOL
    assert abs(np.vdot(plus, plus) - 1.0) <= ATOL
    assert abs(np.vdot(minus, minus) - 1.0) <= ATOL
    assert abs(np.vdot(plus, minus)) <= ATOL
