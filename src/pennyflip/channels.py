"""Disruption channels on a single qubit, with analytic and Monte Carlo paths.

Channel specs are small frozen dataclasses and ``apply_channel`` dispatches on
spec and mode.  Analytic mode returns the exact output state.  Monte Carlo
mode draws one realization of the channel's *own* randomness per sample (axis
choices and mixture coins; measurements always apply the full projective
mixture, outcomes are never sampled) and returns an ``McEstimate``.

Every channel here is unital, so it acts on the Bloch vector r of
rho = (I + r . sigma) / 2 alone.  Monte Carlo samples are therefore rows of a
(k, 3) float64 array of Bloch vectors.  A realization rotates each row
(Rodrigues: U = exp(+i theta sigma.n / 2) turns r by -theta about n, and a
180-degree flip sends r to 2 (n . r) n - r), projects it to (n . r) n, or,
on a mixture coin hit, applies F's 3x3 Bloch matrix.  Density matrices
appear only at the edges: the input state's Bloch vector on entry, the mean's
2x2 matrix on exit.  The analytic rotations and projections share the same
two helpers.  std_error is the largest entry-wise standard error over the 8
real components of the mean matrix, which is max(se_x, se_y, se_z) / 2 over
the Bloch components.

Draw costs per sample: RandomAxisRotation and RandomBasisMeasurement consume
2 uniforms (an axis), MeyerMixture and TwoAxisFlip consume 1 (a coin),
FixedRotation and FixedAxisMeasurement consume none, and Iterated multiplies
its inner cost by n.

Sharding: an estimate under stream (seed, stream_index) with ``shards`` > 1
splits the samples across substreams (seed, stream_index + i), accumulated in
shard order.  The result therefore depends only on (seed, stream_index,
samples, shards), never on prior consumption of the caller's stream, and
shards may be evaluated anywhere without changing the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import (
    EXACT_TOL,
    SPIN_UP,
    _bloch_state,
    to_bloch,
    validate_density,
)
from .rotations import _PAULI_STACK, RngStream, sample_axes, unit_axis

DEFAULT_SAMPLES = 100_000


class NotUnitaryError(ValueError):
    pass


class InvalidAxesError(ValueError):
    pass


class UnsupportedModeError(ValueError):
    pass


def require_unitary(f) -> np.ndarray:
    """Return f as a complex array, raising NotUnitaryError unless f f+ = I."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (2, 2):
        raise NotUnitaryError(f"expected a (2, 2) matrix, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise NotUnitaryError("matrix has non-finite entries")
    if np.abs(f @ f.conj().T - np.eye(2)).max() > EXACT_TOL:
        raise NotUnitaryError("matrix is not unitary within EXACT_TOL")
    return f


def _require_finite_angle(theta) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


@dataclass(frozen=True)
class FixedRotation:
    """Rotate by theta about one fixed axis."""

    axis: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_axis(self.axis))
        _require_finite_angle(self.theta)


@dataclass(frozen=True)
class MeyerMixture:
    """Leave the state alone with probability p, else conjugate by F."""

    p: float
    f: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        object.__setattr__(self, "f", require_unitary(self.f))

    @cached_property
    def _bloch_f(self) -> np.ndarray:
        # R_F[i, j] = 1/2 Re tr(sigma_i F sigma_j F+): column j is the Bloch
        # vector of F sigma_j F+, read off its (0, 1) and (0, 0) entries.
        images = self.f @ _PAULI_STACK @ self.f.conj().T
        return np.stack([images[:, 0, 1].real, -images[:, 0, 1].imag, images[:, 0, 0].real])


@dataclass(frozen=True)
class RandomAxisRotation:
    """Rotate by theta about an axis drawn uniformly on the sphere."""

    theta: float

    def __post_init__(self):
        _require_finite_angle(self.theta)


@dataclass(frozen=True)
class FixedAxisMeasurement:
    """Projective measurement along one fixed axis, kept as the full mixture."""

    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_axis(self.axis))


@dataclass(frozen=True)
class RandomBasisMeasurement:
    """Projective measurement along an axis drawn uniformly on the sphere."""


@dataclass(frozen=True)
class TwoAxisFlip:
    """Rotate 180 degrees about one of two orthogonal axes, chosen fairly."""

    axis_a: np.ndarray
    axis_b: np.ndarray

    def __post_init__(self):
        a = unit_axis(self.axis_a)
        b = unit_axis(self.axis_b)
        if abs(float(a @ b)) > EXACT_TOL:
            raise InvalidAxesError("flip axes must be mutually orthogonal")
        object.__setattr__(self, "axis_a", a)
        object.__setattr__(self, "axis_b", b)


@dataclass(frozen=True)
class Iterated:
    """Apply an inner channel n times in sequence."""

    inner: "ChannelSpec"
    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


ChannelSpec = (
    FixedRotation
    | MeyerMixture
    | RandomAxisRotation
    | FixedAxisMeasurement
    | RandomBasisMeasurement
    | TwoAxisFlip
    | Iterated
)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean state with its worst-entry standard error."""

    mean: np.ndarray
    std_error: float
    samples: int


def _rotate(r: np.ndarray, n: np.ndarray, theta: float) -> np.ndarray:
    """Bloch action of exp(+i theta (sigma . n) / 2): r turned by -theta about n.

    r is (..., 3) and n broadcasts against it: one axis or one per row."""
    c = math.cos(theta)
    s = math.sin(theta)
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    d = (1.0 - c) * (nx * rx + ny * ry + nz * rz)
    return np.stack([
        c * rx - s * (ny * rz - nz * ry) + d * nx,
        c * ry - s * (nz * rx - nx * rz) + d * ny,
        c * rz - s * (nx * ry - ny * rx) + d * nz,
    ], axis=-1)


def _project(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(n . r) n: the Bloch action of the projective measurement along n."""
    d = n[..., 0] * r[..., 0] + n[..., 1] * r[..., 1] + n[..., 2] * r[..., 2]
    return d[..., None] * n


# ---------------------------------------------------------------------------
# analytic paths


def bloch_contraction(theta: float) -> float:
    """Bloch-vector scale factor of the random-axis rotation: (1 + 2 cos theta) / 3."""
    return (1.0 + 2.0 * math.cos(theta)) / 3.0


def twirl_analytic(theta: float, rho: np.ndarray | None = None) -> np.ndarray:
    """Closed-form random-axis rotation of the polarized basis state:

        diag(cos^2(theta/2) + sin^2(theta/2)/3,  (2/3) sin^2(theta/2))

    Only the +z basis state has this diagonal form; pass anything else and a
    ValueError points you at apply_channel(RandomAxisRotation(theta), rho).
    A non-finite theta is a ValueError too.
    """
    _require_finite_angle(theta)
    if rho is not None:
        rho = validate_density(rho)
        if np.abs(rho - SPIN_UP).max() > EXACT_TOL:
            raise ValueError(
                "twirl_analytic is the closed form for the +z basis state; "
                "use apply_channel(RandomAxisRotation(theta), rho) for arbitrary states"
            )
    c2 = math.cos(0.5 * theta) ** 2
    s2 = math.sin(0.5 * theta) ** 2
    return np.array(
        [[c2 + s2 / 3.0, 0.0], [0.0, 2.0 * s2 / 3.0]], dtype=complex
    )


def _analytic(spec: ChannelSpec, rho: np.ndarray) -> np.ndarray:
    if isinstance(spec, MeyerMixture):
        return spec.p * rho + (1.0 - spec.p) * (spec.f @ rho @ spec.f.conj().T)
    if isinstance(spec, Iterated):
        out = rho
        for _ in range(spec.n):
            out = _analytic(spec.inner, out)
        return out
    r = to_bloch(rho)
    if isinstance(spec, FixedRotation):
        return _bloch_state(_rotate(r, spec.axis, spec.theta))
    if isinstance(spec, RandomAxisRotation):
        return _bloch_state(bloch_contraction(spec.theta) * r)
    if isinstance(spec, FixedAxisMeasurement):
        return _bloch_state(_project(r, spec.axis))
    if isinstance(spec, RandomBasisMeasurement):
        return _bloch_state(r / 3.0)
    if isinstance(spec, TwoAxisFlip):
        return _bloch_state(_project(r, spec.axis_a) + _project(r, spec.axis_b) - r)
    raise TypeError(f"unknown channel spec: {spec!r}")


# ---------------------------------------------------------------------------
# Monte Carlo paths


def _realize(spec: ChannelSpec, r: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One random realization of the channel applied to each Bloch row of r."""
    k = r.shape[0]
    if isinstance(spec, FixedRotation):
        return _rotate(r, spec.axis, spec.theta)
    if isinstance(spec, MeyerMixture):
        hit = gen.random(k) >= spec.p  # coin: u >= p applies F
        out = np.array(r)
        np.copyto(out, out @ spec._bloch_f.T, where=hit[:, None])
        return out
    if isinstance(spec, RandomAxisRotation):
        return _rotate(r, sample_axes(gen, k), spec.theta)
    if isinstance(spec, FixedAxisMeasurement):
        return _project(r, spec.axis)
    if isinstance(spec, RandomBasisMeasurement):
        return _project(r, sample_axes(gen, k))
    if isinstance(spec, TwoAxisFlip):
        pick_b = (gen.random(k) >= 0.5).astype(np.intp)  # coin: u < 1/2 picks axis_a
        axes = np.stack((spec.axis_a, spec.axis_b)).take(pick_b, axis=0)
        return 2.0 * _project(r, axes) - r
    if isinstance(spec, Iterated):
        for _ in range(spec.n):
            r = _realize(spec.inner, r, gen)
        return r
    raise TypeError(f"unknown channel spec: {spec!r}")


def _shard_counts(samples: int, shards: int) -> list[int]:
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _estimate(total: np.ndarray, total_sq: np.ndarray, samples: int) -> McEstimate:
    if samples > 1:
        var = (total_sq - total * total / samples) / (samples - 1)
        # each matrix entry carries half a Bloch component
        se = 0.5 * math.sqrt(max(float(var.max()), 0.0) / samples)
    else:
        se = 0.0  # a single draw carries no spread estimate
    return McEstimate(mean=_bloch_state(total / samples), std_error=se, samples=samples)


def _mc_estimates(spec, rho, samples, rng, shards, n_steps: int = 1) -> list[McEstimate]:
    """Estimates after each of 1..n_steps successive realizations of spec."""
    samples = int(samples)
    shards = int(shards)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if rng is None:
        rng = RngStream(0)
    r0 = to_bloch(rho)
    total = np.zeros((n_steps, 3))
    total_sq = np.zeros((n_steps, 3))
    for i, count in enumerate(_shard_counts(samples, shards)):
        if count == 0:
            continue
        gen = rng.substream(i).generator
        r = np.broadcast_to(r0, (count, 3))
        for step in range(n_steps):
            r = _realize(spec, r, gen)
            # one pairwise sum per component over a contiguous row: faster
            # and more accurate than reducing the (k, 3) array along axis 0
            cols = np.ascontiguousarray(r.T)
            total[step] += cols.sum(axis=1)
            total_sq[step] += np.square(cols).sum(axis=1)
    return [_estimate(t, t_sq, samples) for t, t_sq in zip(total, total_sq)]


def apply_channel(
    spec: ChannelSpec,
    rho: np.ndarray,
    mode: str = "analytic",
    samples: int = DEFAULT_SAMPLES,
    rng: RngStream | None = None,
    shards: int = 1,
):
    """Apply a channel spec: the exact state (analytic) or an McEstimate (mc)."""
    rho = validate_density(rho)
    if mode == "analytic":
        return _analytic(spec, rho)
    if mode == "mc":
        return _mc_estimates(spec, rho, samples, rng, shards)[0]
    raise UnsupportedModeError(f"mode must be 'analytic' or 'mc', got {mode!r}")


def iterated_mc_curve(
    inner: ChannelSpec,
    rho: np.ndarray,
    n_steps: int,
    samples: int = DEFAULT_SAMPLES,
    rng: RngStream | None = None,
    shards: int = 1,
) -> list[McEstimate]:
    """McEstimates after each of 1..n_steps iterated applications of inner.

    One trajectory keeps its own state across iterations and redraws the
    inner channel's randomness each round.  Draws are iteration-major within
    each shard, so the step-k snapshot is bit-identical to running
    apply_channel(Iterated(inner, k), ...) on the same (seed, stream_index,
    samples, shards).
    """
    rho = validate_density(rho)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return _mc_estimates(inner, rho, samples, rng, shards, n_steps)
