"""Finite-input rejection and size caps, and guards on how the analytic layer
and the CLI are put together: no analytic path calls the eigensolver, the CLI
builds its argument parser once, one CLI call leaves no state for the next,
and no argv makes the CLI print a traceback or a report that is not strict."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pennyflip as pf
from pennyflip import channels, cli, density, game

Z = np.array([0.0, 0.0, 1.0])
NON_FINITE = (math.nan, math.inf, -math.inf)


def run(argv):
    """cli.main(argv): (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# finite input


@pytest.mark.parametrize("bad", NON_FINITE)
def test_from_bloch_rejects_non_finite(bad):
    for vec in ([bad, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, bad]):
        with pytest.raises(pf.BlochOutOfBallError):
            pf.from_bloch(vec)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_rotation_specs_and_twirl_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match="theta must be finite"):
        pf.FixedRotation(Z, bad)
    with pytest.raises(ValueError, match="theta must be finite"):
        pf.RandomAxisRotation(bad)
    with pytest.raises(ValueError, match="theta must be finite"):
        pf.twirl_analytic(bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_angle_scan_rejects_non_finite_bounds(bad):
    with pytest.raises(ValueError):
        pf.angle_scan(bad, 1.0, 10)
    with pytest.raises(ValueError):
        pf.angle_scan(0.0, bad, 10)
    with pytest.raises(ValueError, match="must be finite"):
        pf.angle_scan(-1.7e308, 1.7e308, 10)


@pytest.fixture
def no_grid(monkeypatch):
    """Make building any grid fail, so a cap is seen to act before it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", refuse)


def test_angle_scan_caps_steps_before_allocating(no_grid):
    cap = game.MAX_SCAN_STEPS
    for steps in (cap + 1, 10**11, 10**30):
        with pytest.raises(ValueError, match=f"steps must be <= {cap}"):
            pf.angle_scan(0.0, 1.0, steps)


def test_cli_caps_steps_before_allocating(no_grid):
    for steps in (game.MAX_SCAN_STEPS + 1, 10**11):
        code, out, err = run(["angle-scan", "--steps", str(steps)])
        assert code == 2
        assert f"--steps must be <= {game.MAX_SCAN_STEPS}" in err
        assert out == ""


@pytest.fixture
def no_channel(monkeypatch):
    """Make every channel application fail, so a cap is seen to act before it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a channel was applied")

    monkeypatch.setattr(cli, "apply_channel", refuse)
    monkeypatch.setattr(cli, "iterated_mc_curve", refuse)


MC = ["--mode", "mc"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["odds-table", "--samples", str(cli.MAX_SAMPLES + 1)], "--samples must be <= "),
        (["twirl", "--theta", "9", "--samples", str(10**12)] + MC, "--samples must be <= "),
        (["odds-table", "--samples", "100", "--shards", "101"] + MC, "--shards must be <= 100,"),
        (["iterate", "--shards", str(10**10)] + MC, f"--shards must be <= {pf.DEFAULT_SAMPLES},"),
        (["measure", "--samples", "8", "--shards", "9"], "--shards must be <= 8,"),
        (["iterate", "--n-max", str(cli.MAX_ITERATIONS + 1)], "--n-max must be <= "),
        (["iterate", "--n-max", str(10**9)] + MC, "--n-max must be <= "),
        (["measure", "--repeat", str(cli.MAX_ITERATIONS + 1)], "--repeat must be <= "),
        (["measure", "--repeat", str(10**9), "--axis", "x"] + MC, "--repeat must be <= "),
    ],
)
def test_cli_caps_act_before_any_channel(no_channel, argv, message):
    code, out, err = run(argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


class Reached(Exception):
    pass


def test_caps_admit_their_own_value(monkeypatch):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "apply_channel", reached)
    monkeypatch.setattr(cli, "iterated_mc_curve", reached)
    cap = cli.MAX_SAMPLES
    config = cli.RunConfig(command="measure", samples=cap, shards=cap, mode="mc")
    with pytest.raises(Reached):
        cli.cmd_measure(config, "x", cli.MAX_ITERATIONS)
    with pytest.raises(Reached):
        cli.cmd_iterate(config, cli.MAX_ITERATIONS)


@pytest.mark.parametrize(
    "argv",
    [
        ["twirl", "--theta", "inf"],
        ["twirl", "--theta", "nan", "--axis", "z"],
        ["twirl", "--theta", "-inf", "--axis", "x"],
        ["angle-scan", "--theta-min", "nan"],
        ["angle-scan", "--theta-max", "inf"],
        ["angle-scan", "--theta-min", "-inf"],
        ["angle-scan", "--theta-min", "-1e308", "--theta-max", "1e308"],
        ["twirl", "--theta", "ten"],
    ],
)
def test_cli_non_finite_angles_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert "Traceback" not in err
    assert out == ""


# ---------------------------------------------------------------------------
# no analytic path runs the eigensolver


@pytest.fixture
def no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigen_hermitian was called")

    for module in (pf, density, game, channels, cli):
        monkeypatch.setattr(module, "eigen_hermitian", refuse, raising=False)


def _strategies():
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    flip = pf.rotation_unitary(pf.unit_axis([1.0, 2.0, 3.0]), 2.0)
    specs = [
        pf.FixedRotation(x, 1.0),
        pf.MeyerMixture(0.3, flip),
        pf.RandomAxisRotation(2.0),
        pf.FixedAxisMeasurement(pf.unit_axis([1.0, 1.0, 1.0])),
        pf.RandomBasisMeasurement(),
        pf.TwoAxisFlip(x, y),
        pf.Iterated(pf.RandomBasisMeasurement(), 3),
    ]
    return [pf.PStrategy(type(spec).__name__, spec) for spec in specs]


def test_game_and_diagnostics_run_without_the_eigensolver(no_eigensolver):
    for strategy in _strategies():
        outcome = pf.play_game(strategy)
        assert 0.5 - pf.EXACT_TOL <= outcome.q_win_probability <= 1.0
        w_p, w_u, proj = pf.decompose_polarized(outcome.post_channel_state)
        assert abs(w_p + w_u - 1.0) <= pf.EXACT_TOL
        pf.entropy(outcome.post_channel_state)
        pf.trace_distance(outcome.post_channel_state, pf.MAXIMALLY_MIXED)
    scan = pf.angle_scan(0.0, math.pi, 181)
    assert abs(scan.refined_root - 2.0 * math.pi / 3.0) < 1e-8


ANALYTIC_COMMANDS = [
    ["odds-table"],
    ["angle-scan", "--steps", "37"],
    ["iterate", "--n-max", "5"],
    ["twirl", "--theta", "75"],
    ["twirl", "--theta", "75", "--axis", "1,2,2"],
    ["measure"],
    ["measure", "--axis", "y", "--repeat", "2"],
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", ANALYTIC_COMMANDS, ids=lambda a: " ".join(a))
def test_analytic_subcommands_run_without_the_eigensolver(no_eigensolver, argv, fmt):
    code, out, err = run(argv + ["--format", fmt])
    assert code == 0, err
    if fmt == "json":
        assert json.loads(out)["results"]
    else:
        assert len(list(csv.reader(io.StringIO(out)))) >= 2


# ---------------------------------------------------------------------------
# the CLI's parser


def test_main_builds_the_parser_at_most_once(monkeypatch):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    for i in range(20):
        assert run(ANALYTIC_COMMANDS[i % len(ANALYTIC_COMMANDS)])[0] == 0
    assert len(builds) == 1
    # build_parser itself stays public and builds a fresh parser each call
    assert cli.build_parser() is not cli.build_parser()


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import pennyflip.cli as cli\n"
        "assert cli._PARSER is None and not built, built\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_no_state_leaks_between_calls():
    def report(argv):
        code, out, err = run(argv)
        assert code == 0, err
        return json.loads(out)

    assert report(["twirl", "--theta", "30", "--axis", "x"])["config"]["axis"] == [1.0, 0.0, 0.0]
    assert report(["twirl", "--theta", "30"])["config"]["axis"] is None
    assert report(["twirl", "--theta", "30"])["results"]["axis"] is None
    assert report(["odds-table", "--seed", "5"])["config"]["seed"] == 5
    assert report(["odds-table"])["config"]["seed"] == 0
    code, out, _ = run(["odds-table", "--format", "csv"])
    assert code == 0 and out.startswith("case,")
    assert report(["odds-table"])["config"]["format"] == "json"
    # a rejected call leaves the next one untouched
    assert run(["iterate", "--n-max", "0"])[0] == 2
    assert run(["angle-scan", "--theta-min", "nan"])[0] == 2
    doc = report(["iterate"])
    assert doc["config"]["n_max"] == 6
    assert report(["angle-scan"])["config"]["theta_min_degrees"] == 0.0


# ---------------------------------------------------------------------------
# argv fuzz


class TooLarge(Exception):
    """A legal run bigger than the fuzz lets itself compute."""


def _limited(real, limit: int, cap: int):
    """real(config, ..., n) unless limit < n <= cap, where n is its last argument."""

    def call(*args):
        if limit < int(args[-1]) <= cap:
            raise TooLarge
        return real(*args)

    return call


REAL_MC = channels._mc_estimates


def _few_samples(spec, rho, samples, *args):
    if int(samples) > 64:
        raise TooLarge
    return REAL_MC(spec, rho, samples, *args)


CAPS = (cli.MAX_SAMPLES, cli.MAX_ITERATIONS, game.MAX_SCAN_STEPS)
EDGE_COUNTS = ["0", "-1", "2.5", "1e308", "nan", "inf", "ten", ""]
EDGE_COUNTS += [str(cap + d) for cap in CAPS for d in (-1, 1)]
EDGE_ANGLES = ["1e308", "-1e308", "1e-308", "nan", "inf", "-inf", "x", ""]
EDGE_AXES = ["0,0,0", "1,2", "a,b,c", "nan,0,1", "inf,0,0", "1e309,0,0", ""]
AXES = ["x", "z", "1,2,3", "1e200,1e200,0", "-1e-200,1e-200,0", "1e308,-1e308,1e308"]
AXES += ["5e-324,0,0", "1e300,1e-300,0"]
# flag -> (values a run may accept, values at or past an edge)
SHARED = {
    "--seed": (["0", "7", "123"], ["-1", str(2**64), "1.5", "x"]),
    "--samples": (["1", "2", "16", "64"], EDGE_COUNTS),
    "--shards": (["1", "2", "3"], EDGE_COUNTS),
    "--mode": (["analytic", "mc"], ["exact", ""]),
    "--format": (["json", "csv"], ["xml", ""]),
}
OWN = {
    "odds-table": {},
    "angle-scan": {
        "--theta-min": (["0", "-30", "10"], EDGE_ANGLES),
        "--theta-max": (["90", "180", "400"], EDGE_ANGLES),
        "--steps": (["2", "7", "50"], EDGE_COUNTS),
    },
    "iterate": {"--n-max": (["1", "3", "8"], EDGE_COUNTS)},
    "twirl": {
        "--theta": (["0", "37.5", "120", "-200", "1e308"], EDGE_ANGLES),
        "--axis": (AXES, ["random"] + EDGE_AXES),
    },
    "measure": {
        "--axis": (AXES + ["random"], EDGE_AXES),
        "--repeat": (["1", "2", "8"], EDGE_COUNTS),
    },
}


@st.composite
def argvs(draw):
    """A subcommand and up to five of its flags (twirl always has --theta),
    each value at an edge one time in four."""
    command = draw(st.sampled_from(sorted(OWN)))
    flags = {**SHARED, **OWN[command]}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True))
    if command == "twirl" and "--theta" not in chosen:
        chosen.append("--theta")
    argv = [command]
    for flag in chosen:
        accepted, edge = flags[flag]
        pool = edge if draw(st.integers(0, 3)) == 0 else accepted
        argv.append(f"{flag}={draw(st.sampled_from(pool))}")
    return argv


def _strict(constant):
    raise ValueError(f"non-finite number {constant} in a JSON report")


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(argvs())
def test_any_argv_exits_cleanly_with_a_strict_report(argv):
    with (
        mock.patch.object(channels, "_mc_estimates", _few_samples),
        mock.patch.object(cli, "cmd_iterate", _limited(cli.cmd_iterate, 8, cli.MAX_ITERATIONS)),
        mock.patch.object(cli, "cmd_measure", _limited(cli.cmd_measure, 8, cli.MAX_ITERATIONS)),
        mock.patch.object(
            cli, "cmd_angle_scan", _limited(cli.cmd_angle_scan, 50, game.MAX_SCAN_STEPS)
        ),
    ):
        try:
            code, out, err = run(argv)
        except TooLarge:
            return
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
    elif "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2
        assert all(len(row) == len(rows[0]) for row in rows)
    else:
        json.loads(out, parse_constant=_strict)
