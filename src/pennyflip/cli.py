"""Command line: odds-table, angle-scan, iterate, twirl, and measure.

Angles cross this boundary in degrees; the library works in radians.  Reports
serialize as JSON ({config, results, duration_ms}) or CSV (header row, comma
separator, '.' decimal).  Complex matrices render as [[re, im], ...] pairs
per row-major entry.  Identical configurations (including seed and shards)
reproduce identical numbers; only duration_ms varies between runs.

Exit codes: 0 success, 2 argument error, 3 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_SAMPLES,
    FixedAxisMeasurement,
    FixedRotation,
    Iterated,
    RandomBasisMeasurement,
    apply_channel,
    iterated_mc_curve,
    twirl_analytic,
    twirl_mc,
)
from .density import (
    SPIN_UP,
    DensityMatrixError,
    decompose_polarized,
    entropy,
    purity,
)
from .game import MAX_SCAN_STEPS
from .game import angle_scan, default_strategies, initial_state_for, outcome_from_state, play_game
from .rotations import RngStream, unit_axis

DEFAULT_SEED = 0


class BadRangeError(ValueError):
    pass


class BadAxisError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters for every subcommand."""

    command: str
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    mode: str = "analytic"
    output_format: str = "json"
    output_path: str | None = None
    shards: int = 1


@dataclass(frozen=True)
class Report:
    """One run's config echo, results, and wall time, in both formats."""

    config: dict
    results: dict
    duration_ms: float
    csv_header: list = field(default_factory=list)
    csv_rows: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "results": self.results,
            "duration_ms": self.duration_ms,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.csv_header)
        for row in self.csv_rows:
            writer.writerow("" if cell is None else cell for cell in row)
        return out.getvalue()

    def rendered(self) -> str:
        if self.config.get("format") == "csv":
            return self.to_csv()
        return self.to_json()


def matrix_to_pairs(m) -> list:
    """Row-major [[re, im], ...] nesting for a 2x2 complex matrix."""
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def pairs_to_matrix(pairs) -> np.ndarray:
    """Inverse of matrix_to_pairs."""
    return np.array([[complex(e[0], e[1]) for e in row] for row in pairs], dtype=complex)


def parse_axis(text: str):
    """x | y | z | random | 'nx,ny,nz' -> unit vector or the string 'random'.

    Numeric axes are renormalized; the zero vector is rejected.
    """
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    t = text.strip().lower()
    if t == "random":
        return "random"
    if t in named:
        return np.array(named[t])
    parts = t.split(",")
    if len(parts) != 3:
        raise BadAxisError(f"axis must be x, y, z, random, or nx,ny,nz (got {text!r})")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise BadAxisError(f"axis components must be numbers (got {text!r})") from exc
    try:
        return unit_axis(v)
    except ValueError as exc:
        raise BadAxisError(str(exc)) from exc


def _config_dict(config: RunConfig, **extras) -> dict:
    doc = {
        "command": config.command,
        "seed": int(config.seed),
        "samples": int(config.samples),
        "mode": config.mode,
        "shards": int(config.shards),
        "format": config.output_format,
        "output": config.output_path,
    }
    doc.update(extras)
    return doc


def _flat_matrix_cells(m) -> list[float]:
    return [part for row in matrix_to_pairs(m) for pair in row for part in pair]


_MATRIX_HEADER = [
    "m00_re", "m00_im", "m01_re", "m01_im",
    "m10_re", "m10_im", "m11_re", "m11_im",
]


def _mc_stream(config: RunConfig, stream_index: int = 0) -> dict:
    """Sample count, shards and stream (seed, stream_index) of an estimate."""
    rng = RngStream(config.seed, stream_index)
    return {"samples": config.samples, "rng": rng, "shards": config.shards}


def _from_spin_up(config: RunConfig, spec) -> tuple[np.ndarray, float | None]:
    """spec applied to the +z basis state: the exact state and None, or in mc
    mode the estimate's mean and std_error."""
    if config.mode != "mc":
        return apply_channel(spec, SPIN_UP), None
    est = apply_channel(spec, SPIN_UP, mode="mc", **_mc_stream(config))
    return est.mean, float(est.std_error)


def cmd_odds_table(config: RunConfig) -> Report:
    """Score the three disruption strategies and report q_win and odds."""
    t0 = time.perf_counter()
    rows = []
    csv_rows = []
    mc = config.mode == "mc"
    for index, strategy in enumerate(default_strategies()):
        case = index + 1
        if mc:
            # Each row owns the stream-index block [index*shards, ...).
            stream = _mc_stream(config, index * config.shards)
            est = apply_channel(strategy.spec, initial_state_for(strategy.spec), mode="mc", **stream)
            outcome = outcome_from_state(est.mean)
            extra = {"std_error": float(est.std_error)}
        else:
            outcome = play_game(strategy)
            extra = {}
        row = {
            "case": case,
            "strategy": strategy.label,
            "q_win": float(outcome.q_win_probability),
            "odds": outcome.odds_string,
            "odds_q": float(outcome.odds_q),
            "odds_p": float(outcome.odds_p),
            "post_state": matrix_to_pairs(outcome.post_channel_state),
        }
        row.update(extra)
        rows.append(row)
        csv_row = [case, strategy.label, float(outcome.q_win_probability), outcome.odds_string]
        if mc:
            csv_row.append(float(est.std_error))
        csv_rows.append(csv_row)
    duration = (time.perf_counter() - t0) * 1000.0
    header = ["case", "strategy", "q_win", "odds"] + (["std_error"] if mc else [])
    return Report(_config_dict(config), {"rows": rows}, duration, header, csv_rows)


def cmd_angle_scan(
    config: RunConfig, theta_min_deg: float, theta_max_deg: float, steps: int
) -> Report:
    """Tabulate the random-axis rotation over a degree range and refine the
    angle where it erases the polarization."""
    if theta_min_deg >= theta_max_deg:
        raise BadRangeError("--theta-min must be strictly less than --theta-max")
    if int(steps) < 2:
        raise BadRangeError(f"--steps must be >= 2, got {steps}")
    if int(steps) > MAX_SCAN_STEPS:
        raise BadRangeError(f"--steps must be <= {MAX_SCAN_STEPS}, got {steps}")
    if not math.isfinite(theta_max_deg - theta_min_deg):
        raise BadRangeError("--theta-max - --theta-min must be finite")
    t0 = time.perf_counter()
    scan = angle_scan(math.radians(theta_min_deg), math.radians(theta_max_deg), int(steps))
    deg_grid = np.linspace(float(theta_min_deg), float(theta_max_deg), int(steps))
    refined_deg = None if scan.refined_root is None else math.degrees(scan.refined_root)
    argmin_deg = float(deg_grid[int(np.argmin(scan.trace_distances))])
    rows = [
        {
            "theta_degrees": float(deg),
            "purity": float(p),
            "trace_distance_to_mixed": float(d),
        }
        for deg, p, d in zip(deg_grid, scan.purities, scan.trace_distances)
    ]
    results = {
        "rows": rows,
        "argmin_theta_degrees": argmin_deg,
        "refined_root_degrees": refined_deg,
    }
    duration = (time.perf_counter() - t0) * 1000.0
    header = ["theta_degrees", "purity", "trace_distance_to_mixed", "refined_root_degrees"]
    csv_rows = [
        [row["theta_degrees"], row["purity"], row["trace_distance_to_mixed"], refined_deg]
        for row in rows
    ]
    extras = {
        "theta_min_degrees": float(theta_min_deg),
        "theta_max_degrees": float(theta_max_deg),
        "steps": int(steps),
    }
    return Report(_config_dict(config, **extras), results, duration, header, csv_rows)


def cmd_iterate(config: RunConfig, n_max: int) -> Report:
    """Report the polarized weight and win odds after 1..n_max random-basis
    measurements."""
    n_max = int(n_max)
    if n_max < 1:
        raise BadRangeError(f"--n-max must be >= 1, got {n_max}")
    t0 = time.perf_counter()
    mc = config.mode == "mc"
    curve = None
    if mc:
        curve = iterated_mc_curve(RandomBasisMeasurement(), SPIN_UP, n_max, **_mc_stream(config))
    rows = []
    csv_rows = []
    state = np.array(SPIN_UP)
    for n in range(1, n_max + 1):
        state = apply_channel(RandomBasisMeasurement(), state)
        w_p, _, _ = decompose_polarized(state)
        outcome = outcome_from_state(state)
        row = {
            "n": n,
            "polarized_weight": float(w_p),
            "q_win": float(outcome.q_win_probability),
        }
        csv_row = [n, float(w_p), float(outcome.q_win_probability)]
        if mc:
            est = curve[n - 1]
            mc_w_p, _, _ = decompose_polarized(est.mean)
            mc_outcome = outcome_from_state(est.mean)
            mc_cells = [float(mc_w_p), float(mc_outcome.q_win_probability), float(est.std_error)]
            row.update(zip(("mc_polarized_weight", "mc_q_win", "mc_std_error"), mc_cells))
            csv_row.extend(mc_cells)
        rows.append(row)
        csv_rows.append(csv_row)
    duration = (time.perf_counter() - t0) * 1000.0
    header = ["n", "polarized_weight", "q_win"]
    if mc:
        header += ["mc_polarized_weight", "mc_q_win", "mc_std_error"]
    return Report(
        _config_dict(config, n_max=n_max), {"rows": rows}, duration, header, csv_rows
    )


def cmd_twirl(config: RunConfig, theta_deg: float, axis=None) -> Report:
    """Rotate the polarized basis state: fixed axis if given, else averaged
    over random axes."""
    theta = math.radians(float(theta_deg))
    t0 = time.perf_counter()
    if axis is None:
        axis_doc = None
        if config.mode == "mc":
            est = twirl_mc(SPIN_UP, theta, **_mc_stream(config))
            state, std_error = est.mean, float(est.std_error)
        else:
            state, std_error = twirl_analytic(theta), None
    else:
        axis_vec = parse_axis(axis) if isinstance(axis, str) else unit_axis(axis)
        if isinstance(axis_vec, str):
            raise BadAxisError("twirl takes a fixed axis or none; 'random' is the default")
        axis_doc = [float(c) for c in axis_vec]
        state, std_error = _from_spin_up(config, FixedRotation(axis_vec, theta))
    results = {
        "theta_degrees": float(theta_deg),
        "axis": axis_doc,
        "state": matrix_to_pairs(state),
        "purity": float(purity(state)),
        "entropy": float(entropy(state)),
    }
    if std_error is not None:
        results["std_error"] = std_error
    duration = (time.perf_counter() - t0) * 1000.0
    header = ["theta_degrees", "purity", "entropy"] + _MATRIX_HEADER
    csv_row = [results["theta_degrees"], results["purity"], results["entropy"]]
    csv_row += _flat_matrix_cells(state)
    if std_error is not None:
        header = header + ["std_error"]
        csv_row = csv_row + [std_error]
    extras = {"theta_degrees": float(theta_deg), "axis": axis_doc}
    return Report(_config_dict(config, **extras), results, duration, header, [csv_row])


def cmd_measure(config: RunConfig, axis="random", repeat: int = 1) -> Report:
    """Measure the polarized basis state along a fixed or random axis,
    optionally repeated."""
    repeat = int(repeat)
    if repeat < 1:
        raise BadRangeError(f"--repeat must be >= 1, got {repeat}")
    axis_vec = parse_axis(axis) if isinstance(axis, str) else unit_axis(axis)
    t0 = time.perf_counter()
    if isinstance(axis_vec, str):
        inner = RandomBasisMeasurement()
        axis_doc = "random"
    else:
        inner = FixedAxisMeasurement(axis_vec)
        axis_doc = [float(c) for c in axis_vec]
    state, std_error = _from_spin_up(config, inner if repeat == 1 else Iterated(inner, repeat))
    w_p, w_u, _ = decompose_polarized(state)
    results = {
        "axis": axis_doc,
        "repeat": repeat,
        "state": matrix_to_pairs(state),
        "polarized_weight": float(w_p),
        "unpolarized_weight": float(w_u),
    }
    if std_error is not None:
        results["std_error"] = std_error
    duration = (time.perf_counter() - t0) * 1000.0
    header = ["repeat", "polarized_weight", "unpolarized_weight"] + _MATRIX_HEADER
    csv_row = [repeat, float(w_p), float(w_u)] + _flat_matrix_cells(state)
    if std_error is not None:
        header = header + ["std_error"]
        csv_row = csv_row + [std_error]
    extras = {"axis": axis_doc, "repeat": repeat}
    return Report(_config_dict(config, **extras), results, duration, header, [csv_row])


def _checked(convert, noun: str, ok, rule: str):
    """argparse type: convert the text, then reject a value that fails ok."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return parse


_uint64 = _checked(
    int, "an integer", lambda v: 0 <= v < 2**64, "seed must fit in an unsigned 64-bit integer"
)
_positive_int = _checked(int, "an integer", lambda v: v >= 1, "value must be >= 1")
_finite_float = _checked(float, "a number", math.isfinite, "value must be finite")


def _add_shared(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_uint64, default=DEFAULT_SEED, help="RNG seed (default 0)")
    sp.add_argument(
        "--samples",
        type=_positive_int,
        default=DEFAULT_SAMPLES,
        help=f"Monte Carlo sample count (default {DEFAULT_SAMPLES})",
    )
    sp.add_argument(
        "--mode", choices=("analytic", "mc"), default="analytic", help="evaluation path"
    )
    sp.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="substreams the samples are split across (default 1)",
    )
    sp.add_argument(
        "--format",
        dest="output_format",
        choices=("json", "csv"),
        default="json",
        help="report format (default json)",
    )
    sp.add_argument(
        "--output", dest="output_path", default=None, help="write the report here instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pennyflip",
        description="Quantum penny-flip disruption strategies on a single qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("odds-table", help="score the three disruption strategies")
    _add_shared(sp)

    sp = sub.add_parser("angle-scan", help="scan the random-axis rotation angle")
    _add_shared(sp)
    sp.add_argument("--theta-min", type=_finite_float, default=0.0, help="start angle in degrees")
    sp.add_argument("--theta-max", type=_finite_float, default=180.0, help="end angle in degrees")
    sp.add_argument("--steps", type=int, default=181, help="grid size (default 181)")

    sp = sub.add_parser("iterate", help="repeat random-basis measurements")
    _add_shared(sp)
    sp.add_argument("--n-max", type=int, default=6, help="largest iteration count (default 6)")

    sp = sub.add_parser("twirl", help="rotate the polarized state")
    _add_shared(sp)
    sp.add_argument("--theta", type=_finite_float, required=True, help="rotation angle in degrees")
    sp.add_argument("--axis", default=None, help="fixed axis x|y|z|nx,ny,nz (default: random)")

    sp = sub.add_parser("measure", help="measure the polarized state")
    _add_shared(sp)
    sp.add_argument(
        "--axis", default="random", help="axis x|y|z|random|nx,ny,nz (default random)"
    )
    sp.add_argument("--repeat", type=int, default=1, help="measurement rounds (default 1)")

    return parser


def _dispatch(config: RunConfig, args: argparse.Namespace) -> Report:
    if config.command == "odds-table":
        return cmd_odds_table(config)
    if config.command == "angle-scan":
        return cmd_angle_scan(config, args.theta_min, args.theta_max, args.steps)
    if config.command == "iterate":
        return cmd_iterate(config, args.n_max)
    if config.command == "twirl":
        return cmd_twirl(config, args.theta, args.axis)
    if config.command == "measure":
        return cmd_measure(config, args.axis, args.repeat)
    raise ValueError(f"unknown command {config.command!r}")


# The parser main reuses, built on the first call rather than at import.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    config = RunConfig(
        command=args.command,
        seed=args.seed,
        samples=args.samples,
        mode=args.mode,
        output_format=args.output_format,
        output_path=args.output_path,
        shards=args.shards,
    )
    try:
        report = _dispatch(config, args)
    except (BadRangeError, BadAxisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DensityMatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    text = report.rendered()
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
