"""Penny-flip game engine: win odds per disruption strategy, iterated play,
and fairness angle scans.

Q prepares a polarized qubit, P applies a disruption channel without looking,
and Q's best final move is to predict the channel output's dominant
eigenvector; Q's win probability is therefore the largest eigenvalue mid + rad
of the post-channel state, read off its entries.  Starting from the +z basis
state loses no generality: the random-axis channels are rotation covariant,
and the strategies that do depend on Q's frame take the frame as an argument.
The angle scan is closed form in the Bloch contraction c: purity (1 + c^2) / 2
and distance |c| / 2 to the fully mixed state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    DEFAULT_SAMPLES,
    ChannelSpec,
    Iterated,
    McEstimate,
    MeyerMixture,
    RandomAxisRotation,
    RandomBasisMeasurement,
    TwoAxisFlip,
    apply_channel,
    bloch_contraction,
)
from .density import EXACT_TOL, SPIN_UP, _entries, _mid_rad, from_bloch
from .rotations import RngStream, rotation_unitary, unit_axis

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
    # of its special-unitary representative.  Anything proportional to the
    # identity fixes every state, so the +z projector serves.
    det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
    m = f / cmath.sqrt(det)
    k = (m - m.conj().T) / 2j
    vec = np.array([k[1, 0].real, k[1, 0].imag, k[0, 0].real])
    s = float(np.linalg.norm(vec))
    if s < EXACT_TOL:
        return np.array(SPIN_UP)
    # (I + sigma.n) / 2 projects on the +1 eigenvector of sigma.n
    return from_bloch(vec / s)


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


def play_case1(f: np.ndarray | None = None, p: float = 0.5) -> GameOutcome:
    """Round against rotate-or-leave-as-is when Q knows the rotation F.

    Q opens in an F eigenstate, so the mixture leaves the state untouched and
    Q wins with certainty for every p and every unitary F (identity
    included).  Defaults to a fair coin over a 180-degree x rotation.
    """
    if f is None:
        f = rotation_unitary(np.array([1.0, 0.0, 0.0]), math.pi)
    return play_game(PStrategy("rotate or leave as is", MeyerMixture(p, f)))


def play_two_axis_flip(
    axes=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    polarization=(0.0, 0.0, 1.0),
) -> GameOutcome:
    """Round against a fair 180-degree flip about one of two orthogonal axes.

    With both axes orthogonal to Q's polarization the two flips send the
    state to the same antipode, P's move is deterministic, and Q still wins
    with certainty.  Other polarizations genuinely disrupt; aligned with one
    flip axis the round drops to a coin toss.
    """
    spec = TwoAxisFlip(np.asarray(axes[0], dtype=float), np.asarray(axes[1], dtype=float))
    start = from_bloch(unit_axis(polarization))
    return outcome_from_state(apply_channel(spec, start))


def iterated_measurement_odds(
    n: int,
    mode: str = "analytic",
    samples: int = DEFAULT_SAMPLES,
    rng: RngStream | None = None,
    shards: int = 1,
) -> GameOutcome:
    """Odds after n successive random-basis measurements of the polarized state.

    The polarized weight decays by exactly 1/3 per round, so analytically
    q_win = 1/2 + 3**-n / 2.
    """
    if int(n) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = Iterated(RandomBasisMeasurement(), int(n))
    result = apply_channel(spec, SPIN_UP, mode=mode, samples=samples, rng=rng, shards=shards)
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


def _bisect(fn, lo: float, hi: float, tol: float = 1e-9) -> float:
    f_lo = fn(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def angle_scan(theta_min: float, theta_max: float, steps: int) -> AngleScanResult:
    """Scan the random-axis rotation angle over [theta_min, theta_max] radians.

    Reports purity and trace distance to the fully mixed state at each grid
    angle, the distance argmin (ties break toward the smaller angle), and a
    root of the Bloch contraction bisected to 1e-9 rad when the contraction
    changes sign inside the range; refined_root is None otherwise.  A range
    that is not finite, or a grid over MAX_SCAN_STEPS, is rejected up front.
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
        if c[i] == 0.0:
            refined = float(thetas[i])
        else:
            refined = _bisect(bloch_contraction, float(thetas[i]), float(thetas[i + 1]))
    elif c[-1] == 0.0:
        refined = float(thetas[-1])
    return AngleScanResult(thetas, purities, dists, argmin_theta, refined)
