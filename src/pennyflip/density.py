"""2x2 density-matrix primitives: validation, spectra, scalar diagnostics.

A state is a (2, 2) complex numpy array.  ``validate_density`` is the gate
that enforces the density-matrix invariants (Hermitian, unit trace, positive
semidefinite) within EXACT_TOL; everything downstream assumes validated
input.  Entropy is reported in nats.
"""

from __future__ import annotations

import cmath
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


def _modulus(z: complex) -> float:
    """abs(z), inf where finite parts overflow.  abs is libm's hypot, as in
    numpy's scalar modulus; math.hypot differs in about 1 case in 200."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _entries(m, shape_error=NotHermitianError):
    """m as a (2, 2) complex array and its entries a, b, d as Python complex
    numbers, after the shape, finiteness and Hermiticity checks (|m - m+| is
    twice the imaginary part on the diagonal, |b - conj(c)| off it)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise shape_error(f"expected a (2, 2) matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
        raise NotHermitianError("matrix has non-finite entries")
    if max(2.0 * abs(a.imag), 2.0 * abs(d.imag), _modulus(b - c.conjugate())) > EXACT_TOL:
        raise NotHermitianError("matrix is not Hermitian within EXACT_TOL")
    return m, a, b, d


def _mid_rad(a: complex, b: complex, d: complex) -> tuple[float, float]:
    """(mid, rad): the Hermitian [[a, b], [b*, d]] has eigenvalues mid +/- rad."""
    return 0.5 * (a.real + d.real), math.hypot(0.5 * (a.real - d.real), _modulus(b))


def eigen_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem of a 2x2 Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w[0] >= w[1]`` and orthonormal
    eigenvectors in the *columns* of ``v``.  Within EXACT_TOL of degeneracy
    the computational basis is returned, so repeated runs are bit-stable.
    """
    _, a, b, d = _entries(m)
    mid, rad = _mid_rad(a, b, d)
    a, d = a.real, d.real
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
    m, a, b, d = _entries(m, DensityMatrixError)
    trace = a + d
    if _modulus(trace - 1.0) > EXACT_TOL:
        raise TraceNotOneError(f"trace is {trace}, expected 1")
    mid, rad = _mid_rad(a, b, d)
    if mid - rad < -EXACT_TOL:
        raise NotPositiveError(f"negative eigenvalue {mid - rad}")
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
    mid, rad = _mid_rad(*_entries(rho)[1:])
    s = 0.0
    for lam in (mid + rad, mid - rad):
        lam = min(max(lam, 0.0), 1.0)
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
    """State for a finite Bloch vector whose norm is at most 1 + EXACT_TOL."""
    x, y, z = (float(c) for c in v)
    if not math.sqrt(x * x + y * y + z * z) <= 1.0 + EXACT_TOL:
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
    mid, rad = _mid_rad(*_entries(diff)[1:])
    return 0.5 * (abs(mid + rad) + abs(mid - rad))


def decompose_polarized(rho: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Split rho = w_p * rho_p + w_u * (I/2), rho_p the top eigenprojector.

    w_p = lambda_max - lambda_min is the polarized weight.  For the fully
    mixed state the split degenerates and rho_p defaults to the +z projector.
    """
    _, a, b, d = _entries(rho)
    mid, rad = _mid_rad(a, b, d)
    w_p = (mid + rad) - (mid - rad)
    if 2.0 * rad < EXACT_TOL:
        return w_p, 1.0 - w_p, np.array(SPIN_UP)
    # (rho - lambda_min I) / w_p written as (I + (rho - mid I) / rad) / 2,
    # which avoids the cancellation in rho - lambda_min I at a narrow gap.
    z = 0.5 * (a.real - d.real) / rad
    b = b / rad
    return w_p, 1.0 - w_p, 0.5 * np.array([[1.0 + z, b], [b.conjugate(), 1.0 - z]])
