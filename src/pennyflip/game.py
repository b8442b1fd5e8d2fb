"""Penny-flip game engine: win odds per disruption strategy and fairness
angle scans.

Q prepares a polarized qubit, P applies a disruption channel without looking,
and Q's best final move is to predict the channel output's dominant
eigenvector; Q's win probability is therefore the largest eigenvalue mid + rad
of the post-channel state, read off its entries.  A round is one
``play_game`` call on any channel spec, an ``Iterated`` one included.  Q opens
in the +z basis state, except against the rotate-or-leave mixture, where Q
opens in an eigenstate of the rotation.  The angle scan is closed form in the
Bloch contraction c = (1 + 2 cos theta) / 3: purity (1 + c^2) / 2, distance
|c| / 2 to the fully mixed state, and the zeros of c where cos theta = -1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    DEFAULT_SAMPLES,
    ChannelSpec,
    McEstimate,
    MeyerMixture,
    RandomAxisRotation,
    RandomBasisMeasurement,
    apply_channel,
)
from .density import EXACT_TOL, SPIN_UP, _entries, _mid_rad, from_bloch
from .rotations import RngStream, rotation_unitary

# Largest angle_scan grid: 8 MB per column, a report of ~100 MB via the CLI.
MAX_SCAN_STEPS = 1_000_000


@dataclass(frozen=True)
class PStrategy:
    """A labeled disruption channel played by P."""

    label: str
    spec: ChannelSpec


@dataclass(frozen=True)
class GameOutcome:
    """Win probability and reduced odds for Q, plus the disputed state."""

    q_win_probability: float
    odds_q: float
    odds_p: float
    post_channel_state: np.ndarray

    @property
    def odds_string(self) -> str:
        return f"{self.odds_q:g}:{self.odds_p:g}"


@dataclass(frozen=True)
class AngleScanResult:
    """Per-angle diagnostics of the random-axis rotation, plus the refined
    angle (if any) where the Bloch contraction crosses zero."""

    thetas: np.ndarray
    purities: np.ndarray
    trace_distances: np.ndarray
    argmin_theta: float
    refined_root: float | None


def outcome_from_state(rho: np.ndarray) -> GameOutcome:
    """Read Q's win probability and reduced odds off one post-channel state.

    Odds are q_win : (1 - q_win) scaled so the right side is 1, except a
    certain win (within EXACT_TOL) reads 1:0.
    """
    mid, rad = _mid_rad(*_entries(rho)[1:])
    q = min(max(mid + rad, 0.0), 1.0)
    state = np.asarray(rho, dtype=complex)
    if 1.0 - q <= EXACT_TOL:
        return GameOutcome(q, 1.0, 0.0, state)
    return GameOutcome(q, q / (1.0 - q), 1.0, state)


def _eigenstate_projector(f: np.ndarray) -> np.ndarray:
    # Rotation axis of a unitary, read off the traceless anti-Hermitian part
    # (m - m+) / 2i of its special-unitary representative m: x + i y is its
    # (1, 0) entry and z its (0, 0) entry.  Anything proportional to the
    # identity fixes every state, so the +z projector serves.
    (a, b), (c, d) = f.tolist()
    s = cmath.sqrt(a * d - b * c)
    a, b, c = a / s, b / s, c / s
    x, y, z = 0.5 * (c.imag + b.imag), 0.5 * (b.real - c.real), a.imag
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < EXACT_TOL:
        return np.array(SPIN_UP)
    # (I + sigma.n) / 2 projects on the +1 eigenvector of sigma.n
    return from_bloch((x / norm, y / norm, z / norm))


def initial_state_for(spec: ChannelSpec) -> np.ndarray:
    """Q's optimal opening state against a known strategy.

    Against the rotate-or-leave mixture Q pre-aligns to an eigenstate of the
    rotation, which the whole mixture then fixes.  Every other listed
    strategy is rotation covariant or carries its own frame, so the +z basis
    state is optimal without loss of generality.
    """
    if isinstance(spec, MeyerMixture):
        return _eigenstate_projector(spec.f)
    return np.array(SPIN_UP)


def play_game(
    strategy: PStrategy,
    mode: str = "analytic",
    samples: int = DEFAULT_SAMPLES,
    rng: RngStream | None = None,
    shards: int = 1,
) -> GameOutcome:
    """One round: Q opens optimally, P applies the channel, Q predicts the
    dominant eigenvector of the result."""
    start = initial_state_for(strategy.spec)
    result = apply_channel(
        strategy.spec, start, mode=mode, samples=samples, rng=rng, shards=shards
    )
    post = result.mean if isinstance(result, McEstimate) else result
    return outcome_from_state(post)


def default_strategies() -> list[PStrategy]:
    """The three disruption strategies scored by the odds table."""
    flip = rotation_unitary(np.array([1.0, 0.0, 0.0]), math.pi)
    return [
        PStrategy("rotate or leave as is", MeyerMixture(0.5, flip)),
        PStrategy(
            "rotate 120 degrees about a random axis",
            RandomAxisRotation(2.0 * math.pi / 3.0),
        ),
        PStrategy("measure along a random axis", RandomBasisMeasurement()),
    ]


def angle_scan(theta_min: float, theta_max: float, steps: int) -> AngleScanResult:
    """Scan the random-axis rotation angle over [theta_min, theta_max] radians.

    Reports purity and trace distance to the fully mixed state at each grid
    angle, the distance argmin (ties break toward the smaller angle), and
    refined_root, where the Bloch contraction first vanishes: a grid angle
    where it is exactly 0.0, or else the closed-form zero (2 pi/3 or
    4 pi/3 + 2 pi k) that first follows the left end of the first grid step
    over which it changes sign; None when it does neither.  A range that is
    not finite, or a grid over MAX_SCAN_STEPS, is rejected up front.
    """
    theta_min = float(theta_min)
    theta_max = float(theta_max)
    steps = int(steps)
    if not math.isfinite(theta_max - theta_min):
        raise ValueError("theta_max - theta_min must be finite")
    if not theta_min < theta_max:
        raise ValueError("theta_min must be strictly less than theta_max")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if steps > MAX_SCAN_STEPS:
        raise ValueError(f"steps must be <= {MAX_SCAN_STEPS}, got {steps}")
    thetas = np.linspace(theta_min, theta_max, steps)
    # bloch_contraction on the grid: the twirled +z state is (I + c Z) / 2
    c = (1.0 + 2.0 * np.cos(thetas)) / 3.0
    purities = 0.5 * (1.0 + c * c)
    dists = 0.5 * np.abs(c)
    argmin_theta = float(thetas[int(np.argmin(dists))])
    # the first grid point that is a root or opens a sign change
    hits = np.flatnonzero((c[:-1] == 0.0) | (c[:-1] * c[1:] < 0.0))
    refined = None
    if hits.size:
        i = int(hits[0])
        lo, hi = float(thetas[i]), float(thetas[i + 1])
        if c[i] == 0.0:
            refined = lo
        else:
            # Modulo whole turns, c > 0 on (-1/3, 1/3) of a turn, where it
            # falls to its zero at 1/3, and c < 0 on (1/3, 2/3), where it
            # rises to its zero at 2/3.  The sign at lo thus names the first
            # zero after lo, m thirds of a turn, with a sixth of a turn to
            # spare in the rounding; the rounded zero is kept in the bracket.
            turns = lo / (2.0 * math.pi)
            m = 3 * round(turns) + 1 if c[i] > 0.0 else 3 * round(turns - 0.5) + 2
            refined = min(max(m * (2.0 * math.pi / 3.0), lo), hi)
    elif c[-1] == 0.0:
        refined = float(thetas[-1])
    return AngleScanResult(thetas, purities, dists, argmin_theta, refined)
