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
from dataclasses import dataclass, fields

import numpy as np

from .channels import (
    DEFAULT_SAMPLES,
    FixedAxisMeasurement,
    FixedRotation,
    Iterated,
    RandomAxisRotation,
    RandomBasisMeasurement,
    apply_channel,
    iterated_mc_curve,
    twirl_analytic,
)
from .density import (
    SPIN_UP,
    decompose_polarized,
    entropy,
    purity,
)
from .game import MAX_SCAN_STEPS
from .game import angle_scan, default_strategies, initial_state_for, outcome_from_state
from .rotations import RngStream, unit_axis

DEFAULT_SEED = 0
# Largest --n-max and --repeat: past n ~ 680, 3**-n underflows to 0.
MAX_ITERATIONS = 1000
# Largest --samples: about 0.3 GB of Monte Carlo working set.
MAX_SAMPLES = 2**22


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

    def __post_init__(self):
        # checked before any estimate allocates its samples or shard list
        _bounded("--samples", self.samples, 1, MAX_SAMPLES)
        _bounded("--shards", self.shards, 1, self.samples)


_MATRIX_HEADER = [f"m{ij}_{part}" for ij in ("00", "01", "10", "11") for part in ("re", "im")]


@dataclass(frozen=True)
class Report:
    """One run's config echo, results, and wall time, in both formats.

    The CSV is a projection of results: one line per entry of
    results["rows"], or one for results itself when it has no rows, holding
    the csv_header columns.  A column a row lacks is read from results, and
    a "state" column spans the eight m00_re ... m11_im cells.
    """

    config: dict
    results: dict
    duration_ms: float
    csv_header: list

    def to_json(self) -> str:
        doc = {"config": self.config, "results": self.results, "duration_ms": self.duration_ms}
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            cell for name in self.csv_header
            for cell in (_MATRIX_HEADER if name == "state" else [name])
        )
        for row in self.results.get("rows", [self.results]):
            cells = []
            for name in self.csv_header:
                value = row[name] if name in row else self.results[name]
                if name == "state":
                    cells += [part for pairs in value for pair in pairs for part in pair]
                else:
                    cells.append(value)
            writer.writerow(cells)
        return out.getvalue()


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
    t = text.strip().lower()
    if t == "random":
        return "random"
    if t in ("x", "y", "z"):
        return np.eye(3)["xyz".index(t)]
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


def _bounded(flag: str, value, lo: int, hi: int) -> int:
    """int(value), or a BadRangeError naming flag unless lo <= value <= hi."""
    value = int(value)
    if value < lo:
        raise BadRangeError(f"{flag} must be >= {lo}, got {value}")
    if value > hi:
        raise BadRangeError(f"{flag} must be <= {hi}, got {value}")
    return value


def _report(config: RunConfig, t0: float, results: dict, csv_header: list, **params) -> Report:
    """Report of a run started at perf_counter() t0: the results, the config
    echoed with the subcommand's own params, and the wall time since t0.
    The CSV gains a std_error column when the results or their rows carry one."""
    if "std_error" in results.get("rows", [results])[0]:
        csv_header = csv_header + ["std_error"]
    echo = {
        "command": config.command,
        "seed": int(config.seed),
        "samples": int(config.samples),
        "mode": config.mode,
        "shards": int(config.shards),
        "format": config.output_format,
        "output": config.output_path,
        **params,
    }
    return Report(echo, results, (time.perf_counter() - t0) * 1000.0, csv_header)


def _apply(config: RunConfig, spec, start=SPIN_UP, stream_index: int = 0):
    """spec applied to start: the exact state and no report fields, or in mc
    mode the mean under stream (seed, stream_index) and its std_error field."""
    if config.mode != "mc":
        return apply_channel(spec, start), {}
    rng = RngStream(config.seed, stream_index)
    est = apply_channel(
        spec, start, mode="mc", samples=config.samples, rng=rng, shards=config.shards
    )
    return est.mean, {"std_error": float(est.std_error)}


def cmd_odds_table(config: RunConfig) -> Report:
    """Score the three disruption strategies and report q_win and odds."""
    t0 = time.perf_counter()
    rows = []
    for index, strategy in enumerate(default_strategies()):
        # Each row owns the stream-index block [index*shards, ...).
        start = initial_state_for(strategy.spec)
        state, mc_fields = _apply(config, strategy.spec, start, index * config.shards)
        outcome = outcome_from_state(state)
        rows.append({
            "case": index + 1,
            "strategy": strategy.label,
            "q_win": float(outcome.q_win_probability),
            "odds": outcome.odds_string,
            "odds_q": float(outcome.odds_q),
            "odds_p": float(outcome.odds_p),
            "post_state": matrix_to_pairs(outcome.post_channel_state),
            **mc_fields,
        })
    return _report(config, t0, {"rows": rows}, ["case", "strategy", "q_win", "odds"])


def cmd_angle_scan(
    config: RunConfig, theta_min_deg: float, theta_max_deg: float, steps: int
) -> Report:
    """Tabulate the random-axis rotation over a degree range and refine the
    angle where it erases the polarization."""
    if theta_min_deg >= theta_max_deg:
        raise BadRangeError("--theta-min must be strictly less than --theta-max")
    steps = _bounded("--steps", steps, 2, MAX_SCAN_STEPS)
    if not math.isfinite(theta_max_deg - theta_min_deg):
        raise BadRangeError("--theta-max - --theta-min must be finite")
    t0 = time.perf_counter()
    scan = angle_scan(math.radians(theta_min_deg), math.radians(theta_max_deg), steps)
    deg_grid = np.linspace(float(theta_min_deg), float(theta_max_deg), steps)
    columns = ("theta_degrees", "purity", "trace_distance_to_mixed")
    grid = zip(deg_grid, scan.purities, scan.trace_distances)
    rows = [dict(zip(columns, map(float, cells))) for cells in grid]
    results = {
        "rows": rows,
        "argmin_theta_degrees": float(deg_grid[int(np.argmin(scan.trace_distances))]),
        "refined_root_degrees": (
            None if scan.refined_root is None else math.degrees(scan.refined_root)
        ),
    }
    return _report(
        config,
        t0,
        results,
        [*columns, "refined_root_degrees"],
        theta_min_degrees=float(theta_min_deg),
        theta_max_degrees=float(theta_max_deg),
        steps=steps,
    )


def cmd_iterate(config: RunConfig, n_max: int) -> Report:
    """Report the polarized weight and win odds after 1..n_max random-basis
    measurements."""
    n_max = _bounded("--n-max", n_max, 1, MAX_ITERATIONS)
    t0 = time.perf_counter()
    mc = config.mode == "mc"
    if mc:
        curve = iterated_mc_curve(
            RandomBasisMeasurement(), SPIN_UP, n_max,
            samples=config.samples, rng=RngStream(config.seed), shards=config.shards,
        )
    rows = []
    state = np.array(SPIN_UP)
    for n in range(1, n_max + 1):
        state = apply_channel(RandomBasisMeasurement(), state)
        w_p, _, _ = decompose_polarized(state)
        row = {
            "n": n,
            "polarized_weight": float(w_p),
            "q_win": float(outcome_from_state(state).q_win_probability),
        }
        if mc:
            est = curve[n - 1]
            mc_w_p, _, _ = decompose_polarized(est.mean)
            row["mc_polarized_weight"] = float(mc_w_p)
            row["mc_q_win"] = float(outcome_from_state(est.mean).q_win_probability)
            row["mc_std_error"] = float(est.std_error)
        rows.append(row)
    # every row holds exactly the CSV columns
    return _report(config, t0, {"rows": rows}, list(rows[0]), n_max=n_max)


def cmd_twirl(config: RunConfig, theta_deg: float, axis=None) -> Report:
    """Rotate the polarized basis state: fixed axis if given, else averaged
    over random axes."""
    theta = math.radians(float(theta_deg))
    t0 = time.perf_counter()
    axis_doc = None
    if axis is not None:
        axis_vec = parse_axis(axis) if isinstance(axis, str) else unit_axis(axis)
        if isinstance(axis_vec, str):
            raise BadAxisError("twirl takes a fixed axis or none; 'random' is the default")
        axis_doc = [float(c) for c in axis_vec]
        state, mc_fields = _apply(config, FixedRotation(axis_vec, theta))
    elif config.mode == "mc":
        state, mc_fields = _apply(config, RandomAxisRotation(theta))
    else:
        state, mc_fields = twirl_analytic(theta), {}  # the closed form's own bits
    results = {
        "theta_degrees": float(theta_deg),
        "axis": axis_doc,
        "state": matrix_to_pairs(state),
        "purity": float(purity(state)),
        "entropy": float(entropy(state)),
        **mc_fields,
    }
    header = ["theta_degrees", "purity", "entropy", "state"]
    return _report(config, t0, results, header, theta_degrees=float(theta_deg), axis=axis_doc)


def cmd_measure(config: RunConfig, axis="random", repeat: int = 1) -> Report:
    """Measure the polarized basis state along a fixed or random axis,
    optionally repeated."""
    repeat = _bounded("--repeat", repeat, 1, MAX_ITERATIONS)
    axis_vec = parse_axis(axis) if isinstance(axis, str) else unit_axis(axis)
    t0 = time.perf_counter()
    if isinstance(axis_vec, str):
        inner = RandomBasisMeasurement()
        axis_doc = "random"
    else:
        inner = FixedAxisMeasurement(axis_vec)
        axis_doc = [float(c) for c in axis_vec]
    state, mc_fields = _apply(config, inner if repeat == 1 else Iterated(inner, repeat))
    w_p, w_u, _ = decompose_polarized(state)
    results = {
        "axis": axis_doc,
        "repeat": repeat,
        "state": matrix_to_pairs(state),
        "polarized_weight": float(w_p),
        "unpolarized_weight": float(w_u),
        **mc_fields,
    }
    header = ["repeat", "polarized_weight", "unpolarized_weight", "state"]
    return _report(config, t0, results, header, axis=axis_doc, repeat=repeat)


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


def _shared_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser."""
    sp = argparse.ArgumentParser(add_help=False)
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
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pennyflip",
        description="Quantum penny-flip disruption strategies on a single qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_shared_flags()]

    sp = sub.add_parser("odds-table", parents=shared, help="score the three disruption strategies")
    sp.set_defaults(run=lambda config, args: cmd_odds_table(config))

    sp = sub.add_parser("angle-scan", parents=shared, help="scan the random-axis rotation angle")
    sp.add_argument("--theta-min", type=_finite_float, default=0.0, help="start angle in degrees")
    sp.add_argument("--theta-max", type=_finite_float, default=180.0, help="end angle in degrees")
    sp.add_argument("--steps", type=int, default=181, help="grid size (default 181)")
    sp.set_defaults(
        run=lambda config, args: cmd_angle_scan(config, args.theta_min, args.theta_max, args.steps)
    )

    sp = sub.add_parser("iterate", parents=shared, help="repeat random-basis measurements")
    sp.add_argument("--n-max", type=int, default=6, help="largest iteration count (default 6)")
    sp.set_defaults(run=lambda config, args: cmd_iterate(config, args.n_max))

    sp = sub.add_parser("twirl", parents=shared, help="rotate the polarized state")
    sp.add_argument("--theta", type=_finite_float, required=True, help="rotation angle in degrees")
    sp.add_argument("--axis", default=None, help="fixed axis x|y|z|nx,ny,nz (default: random)")
    sp.set_defaults(run=lambda config, args: cmd_twirl(config, args.theta, args.axis))

    sp = sub.add_parser("measure", parents=shared, help="measure the polarized state")
    sp.add_argument(
        "--axis", default="random", help="axis x|y|z|random|nx,ny,nz (default random)"
    )
    sp.add_argument("--repeat", type=int, default=1, help="measurement rounds (default 1)")
    sp.set_defaults(run=lambda config, args: cmd_measure(config, args.axis, args.repeat))

    return parser


# The parser main reuses, built on the first call rather than at import.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        report = args.run(config, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (BadRangeError, BadAxisError)) else 3
    text = report.to_csv() if config.output_format == "csv" else report.to_json()
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
