"""2x2 density-matrix primitives: validation, spectra, scalar diagnostics.

A state is a (2, 2) complex numpy array.  ``validate_density`` is the gate
that enforces the density-matrix invariants (Hermitian, unit trace, positive
semidefinite) within EXACT_TOL; everything downstream assumes validated
input.  Entropy is reported in nats.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance for "exact" comparisons throughout the package.
EXACT_TOL = 1e-12


class DensityMatrixError(ValueError):
    """A matrix failed one of the density-matrix invariants."""


class NotHermitianError(DensityMatrixError):
    pass


class TraceNotOneError(DensityMatrixError):
    pass


class NotPositiveError(DensityMatrixError):
    pass


class BlochOutOfBallError(DensityMatrixError):
    pass


def _frozen(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    m.setflags(write=False)
    return m


# Pure state polarized along +z, and the state with no polarization at all.
SPIN_UP = _frozen([[1.0, 0.0], [0.0, 0.0]])
MAXIMALLY_MIXED = _frozen([[0.5, 0.0], [0.0, 0.5]])


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two 2x2 complex matrices."""
    return np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def eigen_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem of a 2x2 Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w[0] >= w[1]`` and orthonormal
    eigenvectors in the *columns* of ``v``.  Within EXACT_TOL of degeneracy
    the computational basis is returned, so repeated runs are bit-stable.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise NotHermitianError(f"expected a (2, 2) matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotHermitianError("matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > EXACT_TOL:
        raise NotHermitianError("matrix is not Hermitian within EXACT_TOL")
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), abs(b))
    w = np.array([mid + rad, mid - rad])
    if 2.0 * rad < EXACT_TOL:
        return w, np.eye(2, dtype=complex)
    # Two algebraic candidates for the top eigenvector; one can vanish when
    # the matrix is (near) diagonal, so keep the larger.
    v0 = np.array([b, w[0] - a])
    alt = np.array([w[0] - d, np.conj(b)])
    if np.vdot(alt, alt).real > np.vdot(v0, v0).real:
        v0 = alt
    v0 = v0 / math.sqrt(np.vdot(v0, v0).real)
    v1 = np.array([-np.conj(v0[1]), np.conj(v0[0])])
    return w, np.stack([v0, v1], axis=1)


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants and return the state as an array.

    Raises NotHermitianError / TraceNotOneError / NotPositiveError naming the
    first violated invariant.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DensityMatrixError(f"expected a (2, 2) matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotHermitianError("matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > EXACT_TOL:
        raise NotHermitianError("matrix is not Hermitian within EXACT_TOL")
    if abs(np.trace(m) - 1.0) > EXACT_TOL:
        raise TraceNotOneError(f"trace is {np.trace(m)}, expected 1")
    w, _ = eigen_hermitian(m)
    if w[1] < -EXACT_TOL:
        raise NotPositiveError(f"negative eigenvalue {w[1]}")
    return m


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); 1 for pure states, 1/2 for the fully mixed state."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in nats, with 0 log 0 = 0.

    Eigenvalues are clipped into [0, 1] so rounding noise at the spectrum
    edges cannot produce NaNs or negative entropy.
    """
    w, _ = eigen_hermitian(rho)
    s = 0.0
    for lam in np.clip(w, 0.0, 1.0):
        if lam > 0.0:
            s -= lam * math.log(lam)
    return s


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a state: rho = (I + x X + y Y + z Z) / 2."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([
        2.0 * rho[0, 1].real,
        -2.0 * rho[0, 1].imag,
        (rho[0, 0] - rho[1, 1]).real,
    ])


def from_bloch(v) -> np.ndarray:
    """State for a Bloch vector; the norm may not exceed 1 + EXACT_TOL."""
    x, y, z = (float(c) for c in v)
    if math.sqrt(x * x + y * y + z * z) > 1.0 + EXACT_TOL:
        raise BlochOutOfBallError(f"Bloch vector ({x}, {y}, {z}) lies outside the unit ball")
    return _bloch_state((x, y, z))


def _bloch_state(v) -> np.ndarray:
    """(I + x X + y Y + z Z) / 2 with no check of the norm, for results such
    as a mean of Monte Carlo realizations that may sit a rounding error
    outside the ball."""
    x, y, z = (float(c) for c in v)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of |eigenvalues| of (a - b)."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    w, _ = eigen_hermitian(diff)
    return 0.5 * (abs(float(w[0])) + abs(float(w[1])))


def decompose_polarized(rho: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Split rho = w_p * rho_p + w_u * (I/2), rho_p the top eigenprojector.

    w_p = lambda_max - lambda_min is the polarized weight.  For the fully
    mixed state the split degenerates and rho_p defaults to the +z projector.
    """
    w, v = eigen_hermitian(rho)
    w_p = float(w[0] - w[1])
    v0 = v[:, 0]
    return w_p, 1.0 - w_p, np.outer(v0, v0.conj())
