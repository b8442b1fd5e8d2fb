"""Finite-input rejection, and guards on how the analytic layer and the CLI
are put together: no analytic path calls the eigensolver, the CLI builds
its argument parser once, and one CLI call leaves no state for the next."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
