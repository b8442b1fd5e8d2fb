"""The benchmark's three workloads, each a repeating cycle of checked operations.

``cycle(workload, pf, rng, index, tiny)`` returns the operations of one cycle.
Every input comes from ``rng`` (seeded from the benchmark's ``--seed``); the
cycle's shape (which operation classes, how many, at which sizes) is fixed,
so runs with different seeds do the same mix of work on different inputs.
``tiny`` shrinks the Monte Carlo sample counts of ``mc_bulk`` for warm-up and
the smoke test.

An operation is one closed-loop call into pennyflip's public API.  Its check
compares the output with the closed forms in ``closed_forms`` (never with
pennyflip's own analytic path) and raises ``CheckFailed`` on a mismatch.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from closed_forms import (
    EXACT_TOL,
    KINDS,
    U,
    bloch_of,
    random_bloch,
    random_channel,
    random_unit,
    rodrigues,
    state,
)

Z = np.array([0.0, 0.0, 1.0])
FAIR_ANGLE = 2.0 * math.pi / 3.0
# Distance from 120 degrees allowed for a bisected angle-scan root.
ROOT_TOL = 1e-6


class CheckFailed(AssertionError):
    """An operation's output disagrees with its closed form."""


@dataclass
class Op:
    """One call into pennyflip, with its output check and replay digest.

    ``realizations`` counts channel realizations: Monte Carlo samples times
    inner applications, or one per analytic application (Iterated n counts n).
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    realizations: int
    digest: Callable[[Any], bytes]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _component_error(mean, expected) -> float:
    d = np.asarray(mean, dtype=complex) - np.asarray(expected, dtype=complex)
    return float(max(np.abs(d.real).max(), np.abs(d.imag).max()))


def check_estimate(mean, std_error, expected, samples: int, deterministic: bool) -> None:
    """The README's Monte Carlo contract: every real component of the mean
    within 4 standard errors of the closed form.  Deterministic channels must
    match to EXACT_TOL.  Both allow the rounding of a length-n mean,
    (n - 1) * U, which the seed's plain summation reaches at 2**20 samples."""
    tol = (EXACT_TOL if deterministic else 4.0 * float(std_error)) + (samples - 1) * U
    err = _component_error(mean, expected)
    _require(err <= tol, f"MC mean off by {err:.3g} > {tol:.3g} (se {std_error:.3g})")


def check_density(rho, samples: int) -> None:
    """Hermitian, unit trace and positive semidefinite within EXACT_TOL."""
    rho = np.asarray(rho, dtype=complex)
    _require(rho.shape == (2, 2) and bool(np.all(np.isfinite(rho))), "not a finite 2x2 matrix")
    _require(float(np.abs(rho - rho.conj().T).max()) <= EXACT_TOL, "not Hermitian")
    tr = rho[0, 0].real + rho[1, 1].real
    _require(abs(tr - 1.0) <= EXACT_TOL + samples * U, f"trace {tr!r}")
    _require(float(np.linalg.norm(bloch_of(rho))) <= 1.0 + EXACT_TOL, "negative eigenvalue")


def _estimate_digest(est) -> bytes:
    return np.asarray(est.mean).tobytes() + float(est.std_error).hex().encode()


def _text_digest(result) -> bytes:
    """cli.main's exit code and report; JSON loses duration_ms, which varies."""
    code, text, fmt = result
    if fmt == "json":
        doc = json.loads(text)
        doc.pop("duration_ms", None)
        text = json.dumps(doc, sort_keys=True)
    return f"{code}\n{text}".encode()


# ---------------------------------------------------------------------------
# Monte Carlo operations


def mc_op(pf, channel, r, samples: int, shards: int, seed: int, stream: int, bulk: bool) -> Op:
    """apply_channel(mode="mc") on the state with Bloch vector r.

    bulk checks the mean against the closed form within 4 standard errors;
    otherwise only that the estimate is a valid state (thousands of small
    estimates at 4 SE would fail by chance)."""
    rho = state(r)
    expected = state(channel.bloch() @ r)

    def call():
        spec = channel.spec(pf)
        rng = pf.RngStream(seed, stream)
        return pf.apply_channel(spec, rho, mode="mc", samples=samples, rng=rng, shards=shards)

    def check(est):
        _require(est.samples == samples, f"samples {est.samples} != {samples}")
        if bulk:
            check_estimate(est.mean, est.std_error, expected, samples, channel.deterministic)
        else:
            check_density(est.mean, samples)

    return Op(f"mc:{channel.kind}", call, check, samples * channel.depth, _estimate_digest)


def curve_op(pf, channel, r, n_steps: int, samples: int, shards: int, seed: int) -> Op:
    """iterated_mc_curve: step k must match the closed form M^k r."""
    rho = state(r)
    m = channel.bloch()
    expected = [state(np.linalg.matrix_power(m, k) @ r) for k in range(1, n_steps + 1)]

    def call():
        spec = channel.spec(pf)
        return pf.iterated_mc_curve(spec, rho, n_steps, samples=samples, rng=pf.RngStream(seed), shards=shards)

    def check(curve):
        _require(len(curve) == n_steps, f"{len(curve)} steps != {n_steps}")
        for est, exp in zip(curve, expected):
            check_estimate(est.mean, est.std_error, exp, samples, channel.deterministic)

    def digest(curve):
        return b"".join(_estimate_digest(est) for est in curve)

    return Op(f"curve:{channel.kind}", call, check, samples * n_steps * channel.depth, digest)


# ---------------------------------------------------------------------------
# in-process command line


def cli_op(pf_cli, name: str, argv: list, fmt: str, check_doc: Callable, realizations: int) -> Op:
    """cli.main(argv) with stdout captured; check_doc receives the parsed
    report: a dict for JSON, a list of CSV rows (header first) for CSV."""
    argv = list(argv) + ["--format", fmt]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pf_cli.main(argv)
        return code, out.getvalue(), fmt

    def check(result):
        code, text, _ = result
        _require(code == 0, f"cli {argv} exited {code}")
        doc = json.loads(text) if fmt == "json" else list(csv.reader(io.StringIO(text)))
        check_doc(doc)

    return Op(f"cli:{name}:{fmt}", call, check, realizations, _text_digest)


def _pairs(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _cells(row) -> np.ndarray:
    """m00_re, m00_im, ..., m11_im CSV cells back to a 2x2 matrix."""
    v = [float(c) for c in row]
    return np.array([[complex(v[0], v[1]), complex(v[2], v[3])], [complex(v[4], v[5]), complex(v[6], v[7])]])


def _rows(doc, fmt: str, n: int):
    rows = doc["results"]["rows"] if fmt == "json" else doc[1:]
    _require(len(rows) == n, f"{len(rows)} report rows != {n}")
    return rows


def _contraction(theta):
    """Bloch contraction (1 + 2 cos theta) / 3 of the random-axis rotation."""
    return (1.0 + 2.0 * np.cos(theta)) / 3.0


def _mc_flags(samples: int, shards: int, seed: int) -> list:
    return ["--mode", "mc", "--samples", str(samples), "--seed", str(seed), "--shards", str(shards)]


def cli_state_mc(pf_cli, name: str, argv: list, r, samples: int, realizations: int) -> Op:
    """A Monte Carlo subcommand (twirl, measure) from +z whose reported state
    must be (I + r . sigma) / 2 within 4 standard errors."""
    expected = state(r)

    def check_doc(doc):
        res = doc["results"]
        check_estimate(_pairs(res["state"]), res["std_error"], expected, samples, False)

    return cli_op(pf_cli, name, argv, "json", check_doc, realizations)


def cli_odds_mc(pf_cli, samples: int, shards: int, seed: int) -> Op:
    """odds-table --mode mc: the mixture row keeps Q's x-axis eigenstate (either
    sign), the 120-degree twirl erases it, the random measurement leaves 1/3."""
    expected = [
        [state([1.0, 0.0, 0.0]), state([-1.0, 0.0, 0.0])],
        [state([0.0, 0.0, 0.0])],
        [state(Z / 3.0)],
    ]
    argv = ["odds-table"] + _mc_flags(samples, shards, seed)

    def check_doc(doc):
        rows = _rows(doc, "json", 3)
        for row, options in zip(rows, expected):
            mean = _pairs(row["post_state"])
            best = min(options, key=lambda e: _component_error(mean, e))
            check_estimate(mean, row["std_error"], best, samples, False)

    return cli_op(pf_cli, "odds-table-mc", argv, "json", check_doc, 3 * samples)


def cli_iterate_mc(pf_cli, n_max: int, samples: int, shards: int, seed: int) -> Op:
    """iterate --mode mc: q_win after n measurements is (1 + 3**-n) / 2.

    q_win is (1 + |r|) / 2 of the mean state, so 4 SE per component bounds
    its error by 4 sqrt(3) SE."""
    argv = ["iterate", "--n-max", str(n_max)] + _mc_flags(samples, shards, seed)

    def check_doc(doc):
        for n, row in enumerate(_rows(doc, "json", n_max), start=1):
            w = 3.0 ** -n
            _require(abs(row["polarized_weight"] - w) <= EXACT_TOL, f"weight at n={n}")
            tol = 4.0 * math.sqrt(3.0) * row["mc_std_error"] + samples * U
            _require(abs(row["mc_q_win"] - 0.5 * (1.0 + w)) <= tol, f"mc q_win at n={n}")

    return cli_op(pf_cli, "iterate-mc", argv, "json", check_doc, samples * n_max)


# ---------------------------------------------------------------------------
# analytic operations


def game_round_op(pf, channels) -> Op:
    """play_game against one opponent of each kind, then decompose_polarized.

    Q's win probability is (1 + |M r0|) / 2 for the opening Bloch vector r0,
    and the polarized weight is |M r0|."""
    expected = [float(np.linalg.norm(ch.bloch() @ ch.opening_bloch())) for ch in channels]

    def call():
        out = []
        for ch in channels:
            outcome = pf.play_game(pf.PStrategy(ch.kind, ch.spec(pf)))
            out.append((outcome, pf.decompose_polarized(outcome.post_channel_state)))
        return out

    def check(out):
        for ch, m, (outcome, (w_p, w_u, _)) in zip(channels, expected, out):
            q = outcome.q_win_probability
            _require(abs(q - 0.5 * (1.0 + m)) <= EXACT_TOL, f"{ch.kind}: q_win {q!r} != {0.5 * (1 + m)!r}")
            _require(abs(w_p - m) <= EXACT_TOL and abs(w_p + w_u - 1.0) <= EXACT_TOL, f"{ch.kind}: weights")
            if 1.0 - q <= EXACT_TOL:
                _require((outcome.odds_q, outcome.odds_p) == (1.0, 0.0), f"{ch.kind}: odds {outcome.odds_string}")
            else:
                _require(outcome.odds_p == 1.0 and abs(outcome.odds_q * (1.0 - q) - q) <= EXACT_TOL,
                         f"{ch.kind}: odds {outcome.odds_string}")

    def digest(out):
        parts = []
        for outcome, (w_p, w_u, proj) in out:
            parts.append(np.array([outcome.q_win_probability, outcome.odds_q, outcome.odds_p, w_p, w_u]).tobytes())
            parts.append(np.asarray(outcome.post_channel_state).tobytes() + np.asarray(proj).tobytes())
        return b"".join(parts)

    return Op("game:round", call, check, sum(ch.depth for ch in channels), digest)


def angle_scan_op(pf, lo: float, hi: float, steps: int) -> Op:
    """angle_scan over a range holding 120 degrees: purity (1 + c^2) / 2,
    distance to I/2 of |c| / 2, and the root bisected to 120 degrees."""
    thetas = np.linspace(lo, hi, steps)
    c = _contraction(thetas)

    def check(res):
        _require(len(res.thetas) == steps and float(np.abs(res.thetas - thetas).max()) <= EXACT_TOL, "grid")
        _require(float(np.abs(res.purities - 0.5 * (1.0 + c * c)).max()) <= EXACT_TOL, "purities")
        _require(float(np.abs(res.trace_distances - 0.5 * np.abs(c)).max()) <= EXACT_TOL, "distances")
        _require(res.refined_root is not None and abs(res.refined_root - FAIR_ANGLE) <= ROOT_TOL,
                 f"root {res.refined_root!r}")

    def digest(res):
        arrays = (res.thetas, res.purities, res.trace_distances)
        return b"".join(np.asarray(a).tobytes() for a in arrays) + repr((res.argmin_theta, res.refined_root)).encode()

    return Op("game:angle_scan", lambda: pf.angle_scan(lo, hi, steps), check, steps, digest)


def cli_odds_analytic(pf_cli, fmt: str) -> Op:
    """The odds-table landmarks: 1:0, 1:1 and 2:1 at q_win 1, 1/2 and 2/3."""
    odds = ["1:0", "1:1", "2:1"]
    q_win = [1.0, 0.5, 2.0 / 3.0]

    def check_doc(doc):
        rows = _rows(doc, fmt, 3)
        got_odds = [r["odds"] if fmt == "json" else r[3] for r in rows]
        got_q = [float(r["q_win"] if fmt == "json" else r[2]) for r in rows]
        _require(got_odds == odds, f"odds {got_odds}")
        _require(max(abs(a - b) for a, b in zip(got_q, q_win)) <= EXACT_TOL, f"q_win {got_q}")

    return cli_op(pf_cli, "odds-table", ["odds-table"], fmt, check_doc, 3)


def cli_angle_scan(pf_cli, fmt: str, lo_deg: float, hi_deg: float, steps: int) -> Op:
    argv = ["angle-scan", "--theta-min", repr(lo_deg), "--theta-max", repr(hi_deg), "--steps", str(steps)]

    def check_doc(doc):
        rows = _rows(doc, fmt, steps)
        if fmt == "json":
            root = doc["results"]["refined_root_degrees"]
            cols = [(r["theta_degrees"], r["purity"], r["trace_distance_to_mixed"]) for r in rows]
        else:
            root = float(rows[0][3])
            cols = [tuple(float(x) for x in r[:3]) for r in rows]
        _require(abs(root - 120.0) <= ROOT_TOL, f"root {root!r} degrees")
        deg, pur, dist = (np.array(col) for col in zip(*cols))
        c = _contraction(np.radians(deg))
        _require(float(np.abs(pur - 0.5 * (1.0 + c * c)).max()) <= EXACT_TOL, "purity column")
        _require(float(np.abs(dist - 0.5 * np.abs(c)).max()) <= EXACT_TOL, "distance column")

    return cli_op(pf_cli, "angle-scan", argv, fmt, check_doc, steps)


def cli_iterate_analytic(pf_cli, fmt: str, n_max: int) -> Op:
    """Polarized weight 3**-n and q_win (1 + 3**-n) / 2 after n measurements."""

    def check_doc(doc):
        for n, row in enumerate(_rows(doc, fmt, n_max), start=1):
            w_p, q = (row["polarized_weight"], row["q_win"]) if fmt == "json" else (float(row[1]), float(row[2]))
            _require(abs(w_p - 3.0 ** -n) <= EXACT_TOL, f"weight {w_p!r} at n={n}")
            _require(abs(q - 0.5 * (1.0 + 3.0 ** -n)) <= EXACT_TOL, f"q_win {q!r} at n={n}")

    return cli_op(pf_cli, "iterate", ["iterate", "--n-max", str(n_max)], fmt, check_doc, n_max)


def _state_from_report(doc, fmt: str) -> np.ndarray:
    if fmt == "json":
        return _pairs(doc["results"]["state"])
    _require(len(doc) == 2, f"{len(doc) - 1} CSV rows != 1")
    return _cells(doc[1][-8:])


def cli_twirl_analytic(pf_cli, fmt: str, theta_deg: float, axis) -> Op:
    """twirl about a random axis (axis None) or a fixed one, from +z."""
    theta = math.radians(theta_deg)
    argv = ["twirl", "--theta", repr(theta_deg)]
    if axis is None:
        r = _contraction(theta) * Z
    else:
        argv.append("--axis=" + ",".join(repr(float(a)) for a in axis))
        r = rodrigues(axis, -theta) @ Z
    expected = state(r)

    def check_doc(doc):
        err = _component_error(_state_from_report(doc, fmt), expected)
        _require(err <= EXACT_TOL, f"twirl state off by {err:.3g}")

    return cli_op(pf_cli, "twirl", argv, fmt, check_doc, 1)


def cli_measure_analytic(pf_cli, fmt: str, axis, repeat: int) -> Op:
    """measure from +z: a random axis scales the Bloch vector by 3**-repeat; a
    fixed unit axis n projects it to (n . z) n however often it repeats."""
    if isinstance(axis, str) and axis == "random":
        arg, r = axis, 3.0 ** -repeat * Z
    else:
        if isinstance(axis, str):
            arg, n = axis, np.eye(3)["xyz".index(axis)]
        else:
            arg, n = ",".join(repr(float(a)) for a in axis), np.asarray(axis)
        r = n[2] * n
    expected = state(r)
    w = float(np.linalg.norm(r))

    def check_doc(doc):
        err = _component_error(_state_from_report(doc, fmt), expected)
        _require(err <= EXACT_TOL, f"measure state off by {err:.3g}")
        w_p = doc["results"]["polarized_weight"] if fmt == "json" else float(doc[1][1])
        _require(abs(w_p - w) <= EXACT_TOL, f"polarized weight {w_p!r} != {w!r}")

    argv = ["measure", "--axis=" + arg, "--repeat", str(repeat)]
    return cli_op(pf_cli, "measure", argv, fmt, check_doc, repeat)


# ---------------------------------------------------------------------------
# the cycles


def _seed(rng) -> int:
    return int(rng.integers(2**63))


def mc_bulk_cycle(pf, pf_cli, rng, index: int, tiny: bool) -> list:
    """Thirteen large estimates over every spec kind, an iterated_mc_curve and
    the four Monte Carlo subcommands, at 2**17 to 2**20 samples; each takes
    0.2 to 1.3 s on the seed code.  The inner kinds of the two iterated
    operations follow the cycle index, not the seed, so that every seed runs
    the same mix of costs.  Shards alternate 1, 2 by cycle."""
    n17 = 2**17 >> (8 if tiny else 0)
    shards = 1 + index % 2

    def mc(kind, samples, **kw):
        ch = random_channel(kind, rng, **kw)
        return mc_op(pf, ch, random_bloch(rng), samples, shards, _seed(rng), int(rng.integers(1024)), True)

    plain = KINDS[:-1]
    inner = random_channel(plain[(index + 3) % len(plain)], rng)
    theta_deg = 360.0 * rng.random()
    twirl = ["twirl", "--theta", repr(theta_deg)] + _mc_flags(2 * n17, shards, _seed(rng))
    measure = ["measure", "--axis", "random"] + _mc_flags(n17, shards, _seed(rng))
    return [
        mc("FixedAxisMeasurement", n17),
        mc("RandomBasisMeasurement", n17),
        cli_state_mc(pf_cli, "measure-mc", measure, Z / 3.0, n17, n17),
        mc("FixedRotation", 2 * n17),
        mc("RandomAxisRotation", 2 * n17),
        mc("MeyerMixture", n17),
        mc("TwoAxisFlip", 4 * n17),
        cli_state_mc(pf_cli, "twirl-mc", twirl, _contraction(math.radians(theta_deg)) * Z, 2 * n17, 2 * n17),
        mc("TwoAxisFlip", 8 * n17),
        mc("Iterated", n17, n=3, inner_kind=plain[index % len(plain)]),
        curve_op(pf, inner, random_bloch(rng), 3, n17, shards, _seed(rng)),
        cli_odds_mc(pf_cli, n17, shards, _seed(rng)),
        cli_iterate_mc(pf_cli, 3, n17, shards, _seed(rng)),
    ]


# Per spec kind and cycle: ten estimates at 16 samples, two at 256, two at
# 4096.  The median latency then falls among the 16-sample calls and the
# 99th percentile among the 4096-sample ones.
SMALL_SIZES = (16,) * 10 + (256,) * 2 + (4096,) * 2


def mc_small_cycle(pf, pf_cli, rng, index: int, tiny: bool) -> list:
    """98 small estimates, each on a fresh (seed, stream_index)."""
    ops = []
    for kind in KINDS:
        for i, samples in enumerate(SMALL_SIZES):
            ch = random_channel(kind, rng, n=2)
            ops.append(mc_op(pf, ch, random_bloch(rng), samples, 1 + i % 2, _seed(rng), int(rng.integers(2**20)), False))
    return ops


MEASURE_AXES = ("random", "x", "y", "z", None)


def analytic_game_cycle(pf, pf_cli, rng, index: int, tiny: bool) -> list:
    """Ten game rounds, two angle scans and the five analytic subcommands,
    reported as JSON on even cycles and CSV on odd ones.  Each operation
    takes 1 to 6 ms on the seed code; the game rounds, 10 of 17, hold the
    median latency and the command-line reports the 99th percentile."""
    fmt = "json" if index % 2 == 0 else "csv"
    ops = []
    for _ in range(10):
        chans = [random_channel(kind, rng, n=int(rng.integers(2, 5))) for kind in KINDS]
        ops.append(game_round_op(pf, chans))
    for _ in range(2):
        lo, hi = math.radians(110.0 * rng.random()), math.radians(130.0 + 50.0 * rng.random())
        ops.append(angle_scan_op(pf, lo, hi, int(rng.integers(25, 41))))
    ops.append(cli_odds_analytic(pf_cli, fmt))
    ops.append(cli_angle_scan(pf_cli, fmt, 110.0 * rng.random(), 130.0 + 50.0 * rng.random(), int(rng.integers(25, 41))))
    ops.append(cli_iterate_analytic(pf_cli, fmt, int(rng.integers(3, 9))))
    axis = None if index % 4 < 2 else random_unit(rng)
    ops.append(cli_twirl_analytic(pf_cli, fmt, 360.0 * rng.random(), axis))
    m_axis = MEASURE_AXES[(index // 2) % len(MEASURE_AXES)]
    ops.append(cli_measure_analytic(pf_cli, fmt, random_unit(rng) if m_axis is None else m_axis, int(rng.integers(1, 5))))
    return ops


CYCLES = {
    "mc_bulk": mc_bulk_cycle,
    "mc_small": mc_small_cycle,
    "analytic_game": analytic_game_cycle,
}


def cycle(workload: str, pf, pf_cli, rng, index: int, tiny: bool = False) -> list:
    return CYCLES[workload](pf, pf_cli, rng, index, tiny)
