"""End-to-end acceptance checks.

Each test pins the advertised numerical contract of one user-facing
capability: exact analytic values to 1e-12, Monte Carlo agreement within four
standard errors at the default sample count, bulk statistical invariants over
1000-trial sweeps, and bit-level determinism under fixed seeds and shard
counts.  Wall-clock budgets are asserted where a capability advertises one.
"""

import math
import time

import numpy as np
import pytest

import pennyflip as pf
from pennyflip import cli
from helpers import random_axis, random_density, random_unitary, twirled_spin_up

EXACT = 1e-12
SAMPLES = 100_000
THIRD_TURN = 2.0 * math.pi / 3.0


def _elapsed(t0):
    return time.perf_counter() - t0


def test_acceptance_1_odds_table():
    t0 = time.perf_counter()
    report = cli.cmd_odds_table(cli.RunConfig(command="odds-table"))
    rows = report.results["rows"]
    expected = [(1.0, "1:0"), (0.5, "1:1"), (2 / 3, "2:1")]
    for row, (q, odds) in zip(rows, expected):
        assert abs(row["q_win"] - q) <= EXACT
        assert row["odds"] == odds
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 1 PASS: odds table q_win exact to 1e-12 with reduced odds")


def test_acceptance_2_angle_scan():
    t0 = time.perf_counter()
    report = cli.cmd_angle_scan(
        cli.RunConfig(command="angle-scan"), theta_min_deg=0.0, theta_max_deg=180.0, steps=181
    )
    results = report.results
    assert results["refined_root_degrees"] is not None
    assert abs(results["refined_root_degrees"] - 120.0) < 1e-6
    row120 = results["rows"][120]
    assert row120["theta_degrees"] == 120.0
    assert row120["trace_distance_to_mixed"] < EXACT
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 2 PASS: scan refines the erasing angle to 120 degrees")


def test_acceptance_3_random_measurement():
    t0 = time.perf_counter()
    exact = pf.apply_channel(pf.RandomBasisMeasurement(), pf.SPIN_UP)
    assert np.max(np.abs(exact - np.diag([2 / 3, 1 / 3]))) <= EXACT
    est = pf.apply_channel(
        pf.RandomBasisMeasurement(), pf.SPIN_UP, mode="mc", samples=SAMPLES, rng=pf.RngStream(0)
    )
    dev = np.max(np.abs(est.mean - exact))
    assert dev <= 4 * est.std_error
    assert _elapsed(t0) < 5.0
    print(
        "ACCEPTANCE 3 PASS: random measurement exact diag(2/3, 1/3); "
        f"MC off by {dev:.2e} <= 4 x {est.std_error:.2e}"
    )


def test_acceptance_4_iterated_decay():
    t0 = time.perf_counter()
    state = np.array(pf.SPIN_UP)
    exact_states = []
    for n in range(1, 7):
        state = pf.apply_channel(pf.RandomBasisMeasurement(), state)
        exact_states.append(state)
        w_p, _, _ = pf.decompose_polarized(state)
        assert abs(w_p - 3.0 ** (-n)) <= EXACT
    curve = pf.iterated_mc_curve(
        pf.RandomBasisMeasurement(), pf.SPIN_UP, 3, samples=SAMPLES, rng=pf.RngStream(0)
    )
    for n, est in enumerate(curve, start=1):
        dev = np.max(np.abs(est.mean - exact_states[n - 1]))
        assert dev <= 4 * est.std_error
    assert _elapsed(t0) < 10.0
    print("ACCEPTANCE 4 PASS: polarized weight decays as 3**-n, MC within 4 SE")


def test_acceptance_5_twirl_mc():
    t0 = time.perf_counter()
    for deg in (30.0, 90.0, 120.0, 150.0):
        theta = math.radians(deg)
        spec = pf.RandomAxisRotation(theta)
        est = pf.apply_channel(spec, pf.SPIN_UP, mode="mc", samples=SAMPLES, rng=pf.RngStream(0))
        dev = np.max(np.abs(est.mean - twirled_spin_up(theta)))
        assert dev <= 4 * est.std_error, f"{deg} deg off by {dev}"
    theta = math.radians(90.0)
    spec = pf.RandomAxisRotation(theta)
    se_small = pf.apply_channel(
        spec, pf.SPIN_UP, mode="mc", samples=10_000, rng=pf.RngStream(0)
    ).std_error
    se_large = pf.apply_channel(
        spec, pf.SPIN_UP, mode="mc", samples=1_000_000, rng=pf.RngStream(0)
    ).std_error
    ratio = se_small / se_large
    # 100x the samples should shrink the error by about 10x
    assert 10.0 / 1.5 <= ratio <= 10.0 * 1.5
    assert _elapsed(t0) < 30.0
    print(f"ACCEPTANCE 5 PASS: twirl MC within 4 SE; error ratio {ratio:.3f} ~ 10")


def _random_spec(rng):
    kind = rng.integers(0, 7)
    if kind == 0:
        return pf.FixedRotation(random_axis(rng), rng.uniform(0, 2 * math.pi))
    if kind == 1:
        return pf.MeyerMixture(float(rng.random()), random_unitary(rng))
    if kind == 2:
        return pf.RandomAxisRotation(rng.uniform(0, 2 * math.pi))
    if kind == 3:
        return pf.FixedAxisMeasurement(random_axis(rng))
    if kind == 4:
        return pf.RandomBasisMeasurement()
    if kind == 5:
        a = random_axis(rng)
        helper = random_axis(rng)
        while abs(helper @ a) > 0.9:
            helper = random_axis(rng)
        b = pf.unit_axis(np.cross(a, helper))
        return pf.TwoAxisFlip(a, b)
    return pf.Iterated(pf.RandomBasisMeasurement(), int(rng.integers(1, 4)))


def test_acceptance_6_property_sweeps():
    trials = 1000

    rng = np.random.default_rng(100)
    for _ in range(trials):
        out = pf.apply_channel(_random_spec(rng), random_density(rng))
        pf.validate_density(out)

    rng = np.random.default_rng(101)
    for _ in range(trials):
        out = pf.apply_channel(_random_spec(rng), pf.MAXIMALLY_MIXED)
        assert np.max(np.abs(out - pf.MAXIMALLY_MIXED)) <= EXACT

    rng = np.random.default_rng(102)
    for _ in range(trials):
        rho = random_density(rng)
        out = pf.apply_channel(_random_spec(rng), rho)
        assert pf.entropy(out) >= pf.entropy(rho) - EXACT

    rng = np.random.default_rng(103)
    for _ in range(trials):
        rho = random_density(rng)
        spec = pf.FixedRotation(random_axis(rng), rng.uniform(0, 2 * math.pi))
        assert abs(pf.entropy(pf.apply_channel(spec, rho)) - pf.entropy(rho)) <= EXACT

    rng = np.random.default_rng(104)
    for _ in range(trials):
        rho = random_density(rng)
        theta = rng.uniform(0, 2 * math.pi)
        u = random_unitary(rng)
        spec = pf.RandomAxisRotation(theta)
        left = pf.apply_channel(spec, u @ rho @ u.conj().T)
        right = u @ pf.apply_channel(spec, rho) @ u.conj().T
        assert np.max(np.abs(left - right)) <= 1e-10

    axes = pf.sample_axes(pf.RngStream(0), SAMPLES)
    zz = axes[:, 2] ** 2
    se = zz.std(ddof=1) / math.sqrt(zz.size)
    assert abs(zz.mean() - 1 / 3) <= 4 * se
    print("ACCEPTANCE 6 PASS: 1000-trial sweeps hold every channel invariant")


def test_acceptance_7_determinism():
    config = cli.RunConfig(command="iterate", seed=9, samples=20_000, mode="mc", shards=3)
    first = cli.cmd_iterate(config, 3)
    second = cli.cmd_iterate(config, 3)
    assert first.to_csv() == second.to_csv()
    assert first.results == second.results
    assert first.config == second.config

    reseeded = cli.cmd_iterate(
        cli.RunConfig(command="iterate", seed=10, samples=20_000, mode="mc", shards=3), 3
    )
    assert reseeded.to_csv() != first.to_csv()

    analytic_a = cli.cmd_iterate(cli.RunConfig(command="iterate", seed=9), 3)
    analytic_b = cli.cmd_iterate(cli.RunConfig(command="iterate", seed=10), 3)
    assert analytic_a.to_csv() == analytic_b.to_csv()
    assert analytic_a.results == analytic_b.results

    spec = pf.RandomAxisRotation(1.0)
    est_a = pf.apply_channel(
        spec, pf.SPIN_UP, mode="mc", samples=5000, rng=pf.RngStream(5), shards=4
    )
    est_b = pf.apply_channel(
        spec, pf.SPIN_UP, mode="mc", samples=5000, rng=pf.RngStream(5), shards=4
    )
    assert np.array_equal(est_a.mean, est_b.mean)
    assert est_a.std_error == est_b.std_error
    print("ACCEPTANCE 7 PASS: fixed seeds replay bit-identically; new seeds move MC only")
