"""pennyflip against the independent Bloch-map oracle in ``oracle.py``.

Analytic channels must match the oracle to EXACT_TOL on random spec trees
(all seven kinds, Iterated nested up to two deep, axes biased toward the z
poles); Monte Carlo estimates must lie within 4 standard errors of it on
seeds fixed below; and the reported standard error must match the actual
spread of the mean across independent streams.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pennyflip as pf
from oracle import Channel, state, su2, unit

ATOL = pf.EXACT_TOL
U = 2.0 ** -53
PLAIN_KINDS = (
    "FixedRotation",
    "MeyerMixture",
    "RandomAxisRotation",
    "FixedAxisMeasurement",
    "RandomBasisMeasurement",
    "TwoAxisFlip",
)
# 1 - |nz| of the near-pole axes: the pole tests' grid.
POLE_GAPS = tuple(10.0 ** -e for e in range(4, 13))

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
)

angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def axes(draw):
    """A unit axis: uniform on the sphere, or within 1e-4..1e-12 of a z pole."""
    if draw(st.booleans()):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        if float(v @ v) < 1e-6:
            v = np.array([0.0, 0.0, 1.0])
        return unit(v)
    gap = draw(st.sampled_from(POLE_GAPS))
    nz = draw(st.sampled_from((1.0, -1.0))) * (1.0 - gap)
    phi = draw(angles)
    rho_xy = math.sqrt(gap * (2.0 - gap))
    return unit([rho_xy * math.cos(phi), rho_xy * math.sin(phi), nz])


@st.composite
def blochs(draw):
    """A Bloch vector: pure (length 1) or mixed (length in [0, 1))."""
    length = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_max=True)))
    return length * draw(axes())


@st.composite
def plain_channels(draw):
    kind = draw(st.sampled_from(PLAIN_KINDS))
    if kind == "FixedRotation":
        return Channel(kind, {"axis": draw(axes()), "theta": draw(angles)})
    if kind == "MeyerMixture":
        return Channel(kind, {
            "p": draw(st.floats(0.0, 1.0)),
            "rot_axis": draw(axes()),
            "theta": draw(angles),
            "phase": draw(angles),
        })
    if kind == "RandomAxisRotation":
        return Channel(kind, {"theta": draw(angles)})
    if kind == "FixedAxisMeasurement":
        return Channel(kind, {"axis": draw(axes())})
    if kind == "TwoAxisFlip":
        a = draw(axes())
        # b: a's component removed from a second axis, kept well away from a
        v = draw(axes())
        w = v - float(a @ v) * a
        if float(w @ w) < 1e-2:
            w = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.5 else [0.0, 1.0, 0.0])
        return Channel(kind, {"axis": a, "axis_b": unit(w)})
    return Channel(kind)


def iterated(inner):
    return st.builds(lambda ch, n: Channel("Iterated", {"inner": ch, "n": n}), inner, st.integers(1, 4))


# Iterated nests at most two deep.
channels = st.one_of(plain_channels(), iterated(plain_channels()), iterated(iterated(plain_channels())))


@SETTINGS
@given(channels, blochs())
def test_analytic_matches_oracle(channel, r):
    out = pf.apply_channel(channel.spec(pf), state(r))
    expected = state(channel.bloch() @ r)
    assert np.abs(out - expected).max() <= ATOL


@SETTINGS
@given(channels)
def test_game_q_win_matches_oracle(channel):
    outcome = pf.play_game(pf.PStrategy(channel.kind, channel.spec(pf)))
    m = float(np.linalg.norm(channel.bloch() @ channel.opening_bloch()))
    assert abs(outcome.q_win_probability - 0.5 * (1.0 + m)) <= ATOL


# ---------------------------------------------------------------------------
# Monte Carlo against the oracle, on seeds fixed here once

MC_SEEDS = (101, 202, 303)
MC_SAMPLES = 20_000


def _fixed_channels():
    rng = np.random.default_rng(17)
    a = unit(rng.normal(size=3))
    b = unit(np.cross(a, rng.normal(size=3)))
    plain = [
        Channel("FixedRotation", {"axis": unit(rng.normal(size=3)), "theta": 2.2}),
        Channel("MeyerMixture", {"p": 0.35, "rot_axis": unit(rng.normal(size=3)), "theta": 1.7, "phase": 0.4}),
        Channel("RandomAxisRotation", {"theta": 1.1}),
        Channel("FixedAxisMeasurement", {"axis": unit(rng.normal(size=3))}),
        Channel("RandomBasisMeasurement"),
        Channel("TwoAxisFlip", {"axis": a, "axis_b": b}),
    ]
    return plain + [Channel("Iterated", {"inner": plain[2], "n": 3})]


@pytest.mark.parametrize("seed", MC_SEEDS)
@pytest.mark.parametrize("channel", _fixed_channels(), ids=lambda ch: ch.kind)
def test_mc_within_four_se_of_oracle(channel, seed):
    r = np.array([0.3, -0.5, 0.6])
    est = pf.apply_channel(
        channel.spec(pf), state(r), mode="mc", samples=MC_SAMPLES, rng=pf.RngStream(seed), shards=2
    )
    expected = state(channel.bloch() @ r)
    # deterministic channels have no spread: they must match to EXACT_TOL
    tol = ATOL + MC_SAMPLES * U if channel.deterministic else 4.0 * est.std_error
    err = np.abs(est.mean - expected)
    assert max(err.real.max(), err.imag.max()) <= tol


# ---------------------------------------------------------------------------
# calibration of std_error, on stream indices fixed here once

CALIBRATION_SEED = 2718
CALIBRATION_STREAMS = range(200)
CALIBRATION_SAMPLES = 1000
SE_RATIO_BOUNDS = (0.8, 1.25)


def _random_specs():
    return [
        pf.RandomAxisRotation(1.0),
        pf.RandomBasisMeasurement(),
        pf.MeyerMixture(0.4, su2([1.0, 2.0, 2.0], 2.0, 0.3)),
        pf.TwoAxisFlip([1.0, 0.0, 0.0], [0.0, 0.6, 0.8]),
    ]


@pytest.mark.parametrize("spec", _random_specs(), ids=lambda s: type(s).__name__)
def test_std_error_matches_spread_across_streams(spec):
    """The worst component's spread of the mean over 200 independent streams
    equals the mean reported std_error to within sampling noise (about 5%
    for 200 streams)."""
    rho = state([0.3, -0.5, 0.6])
    means, ses = [], []
    for index in CALIBRATION_STREAMS:
        est = pf.apply_channel(
            spec, rho, mode="mc", samples=CALIBRATION_SAMPLES, rng=pf.RngStream(CALIBRATION_SEED, index)
        )
        means.append(np.concatenate([est.mean.real.ravel(), est.mean.imag.ravel()]))
        ses.append(est.std_error)
    spread = np.std(np.array(means), axis=0, ddof=1)
    ratio = float(spread.max()) / float(np.mean(ses))
    lo, hi = SE_RATIO_BOUNDS
    assert lo <= ratio <= hi, ratio
