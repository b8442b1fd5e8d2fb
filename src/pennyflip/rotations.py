"""Axis-angle spin rotations, spin-1/2 eigenbases, and seeded sphere sampling.

Angles are radians everywhere in the library.  A rotation by theta about the
unit axis n is

    U(n, theta) = exp(+i theta (sigma . n) / 2)
                = cos(theta/2) I + i sin(theta/2) (sigma . n)

(note the plus sign in the exponent).  Global phases are physical bookkeeping
here and are never normalized away; tests that care only about rays compare
up to phase explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import _frozen

IDENTITY = _frozen([[1.0, 0.0], [0.0, 1.0]])
PAULI_X = _frozen([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = _frozen([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = _frozen([[1.0, 0.0], [0.0, -1.0]])

_PAULI_STACK = _frozen(np.stack([PAULI_X, PAULI_Y, PAULI_Z]))


def unit_axis(v) -> np.ndarray:
    """Normalize to a unit 3-vector; rejects zero and non-finite input."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    parts = v.tolist()
    if not all(map(math.isfinite, parts)):
        raise ValueError("axis has non-finite entries")
    scale = max(map(abs, parts))
    if scale == 0.0:
        raise ValueError("axis must be non-zero")
    if not 1e-150 <= scale <= 1e150:
        v = v / scale  # else the squares inside the norm overflow or underflow
    return v / float(np.linalg.norm(v))


def pauli_dot(axis) -> np.ndarray:
    """sigma . n for one axis (3,) or a stack of axes (..., 3)."""
    axis = np.asarray(axis, dtype=float)
    return np.einsum("...k,kij->...ij", axis, _PAULI_STACK)


def rotation_unitaries(axes, theta: float) -> np.ndarray:
    """Rotation matrices for axes shaped (..., 3) and a single angle.

        [[ c + i nz s,   (ny + i nx) s ],
         [ (-ny + i nx) s,   c - i nz s ]]    c = cos(theta/2), s = sin(theta/2)
    """
    axes = np.asarray(axes, dtype=float)
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    nx, ny, nz = axes[..., 0], axes[..., 1], axes[..., 2]
    u = np.empty(axes.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c + 1j * (nz * s)
    u[..., 0, 1] = ny * s + 1j * (nx * s)
    u[..., 1, 0] = -(ny * s) + 1j * (nx * s)
    u[..., 1, 1] = c - 1j * (nz * s)
    return u


def rotation_unitary(axis, theta: float) -> np.ndarray:
    """2x2 rotation exp(+i theta (sigma . n) / 2) for one unit axis."""
    return rotation_unitaries(np.asarray(axis, dtype=float)[None, :], theta)[0]


def spin_eigenstates(axis) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair (beta_plus, beta_minus) with (sigma.n) beta = +/- beta.

    Each eigenvector is built from whichever of its two column forms divides
    by the larger of 1 + nz and 1 - nz (never less than 1), so both stay
    exact to rounding at and near the z poles:

        beta_plus  = (1 + nz, nx + i ny) / sqrt(2 (1 + nz))       nz >= 0
                   = (nx - i ny, 1 - nz) / sqrt(2 (1 - nz))       nz < 0
        beta_minus = (1 - nz, -(nx + i ny)) / sqrt(2 (1 - nz))    nz <= 0
                   = (-(nx - i ny), 1 + nz) / sqrt(2 (1 + nz))    nz > 0

    The two forms of one eigenvector differ by a global phase only.
    """
    nx, ny, nz = (float(c) for c in axis)
    xy = complex(nx, ny)
    if nz >= 0.0:
        beta_plus = np.array([1.0 + nz, xy]) / math.sqrt(2.0 * (1.0 + nz))
    else:
        beta_plus = np.array([xy.conjugate(), 1.0 - nz]) / math.sqrt(2.0 * (1.0 - nz))
    if nz <= 0.0:
        beta_minus = np.array([1.0 - nz, -xy]) / math.sqrt(2.0 * (1.0 - nz))
    else:
        beta_minus = np.array([-xy.conjugate(), 1.0 + nz]) / math.sqrt(2.0 * (1.0 + nz))
    return beta_plus, beta_minus


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_index).

    Recreating a stream with the same key replays the identical draw
    sequence; distinct keys give statistically independent streams.  The
    sampling helpers document how many uniform draws they consume, so callers
    can reason about stream positions.
    """

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
            self._gen = np.random.Generator(np.random.PCG64(key))
        return self._gen

    def clone(self) -> "RngStream":
        """Fresh stream rewound to the start of the same (seed, stream_index)."""
        return RngStream(self.seed, self.stream_index)

    def substream(self, index: int) -> "RngStream":
        """Independent stream keyed (seed, stream_index + index)."""
        return RngStream(self.seed, self.stream_index + int(index))


def sample_axes(rng, n: int) -> np.ndarray:
    """n axes uniform under the area measure; 2 uniform draws per axis.

    Per axis the draws are z uniform on [-1, 1] then azimuth uniform on
    [0, 2 pi), in that order.  Accepts an RngStream or a numpy Generator.
    """
    gen = rng.generator if isinstance(rng, RngStream) else rng
    u = gen.random((int(n), 2))
    z = 2.0 * u[:, 0] - 1.0
    phi = (2.0 * math.pi) * u[:, 1]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sample_axis(rng) -> np.ndarray:
    """One uniform unit axis; advances the stream by 2 draws."""
    return sample_axes(rng, 1)[0]
