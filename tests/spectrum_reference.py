"""Eigensolver-based reference for the closed-form spectrum in pennyflip.

These are the eigen-based forms of validate_density, outcome_from_state,
decompose_polarized, entropy, trace_distance and angle_scan that the library
used before it read the spectrum as mid +/- rad.  They carry their own copy
of the 2x2 eigensolver and check entries with whole-array numpy operations,
so they share no code path with the library beyond its exception classes.
"""

import math

import numpy as np

import pennyflip as pf

EXACT_TOL = 1e-12
MAXIMALLY_MIXED = np.diag([0.5, 0.5]).astype(complex)


def eigen_hermitian(m):
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise pf.NotHermitianError(f"expected a (2, 2) matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise pf.NotHermitianError("matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > EXACT_TOL:
        raise pf.NotHermitianError("matrix is not Hermitian within EXACT_TOL")
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), abs(b))
    w = np.array([mid + rad, mid - rad])
    if 2.0 * rad < EXACT_TOL:
        return w, np.eye(2, dtype=complex)
    v0 = np.array([b, w[0] - a])
    alt = np.array([w[0] - d, np.conj(b)])
    if np.vdot(alt, alt).real > np.vdot(v0, v0).real:
        v0 = alt
    v0 = v0 / math.sqrt(np.vdot(v0, v0).real)
    v1 = np.array([-np.conj(v0[1]), np.conj(v0[0])])
    return w, np.stack([v0, v1], axis=1)


def validate_density(m):
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise pf.DensityMatrixError(f"expected a (2, 2) matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise pf.NotHermitianError("matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > EXACT_TOL:
        raise pf.NotHermitianError("matrix is not Hermitian within EXACT_TOL")
    if abs(np.trace(m) - 1.0) > EXACT_TOL:
        raise pf.TraceNotOneError(f"trace is {np.trace(m)}, expected 1")
    w, _ = eigen_hermitian(m)
    if w[1] < -EXACT_TOL:
        raise pf.NotPositiveError(f"negative eigenvalue {w[1]}")
    return m


def q_win(rho) -> float:
    """outcome_from_state's win probability."""
    w, _ = eigen_hermitian(rho)
    return min(max(float(w[0]), 0.0), 1.0)


def entropy(rho) -> float:
    w, _ = eigen_hermitian(rho)
    s = 0.0
    for lam in np.clip(w, 0.0, 1.0):
        if lam > 0.0:
            s -= lam * math.log(lam)
    return float(s)


def trace_distance(a, b) -> float:
    w, _ = eigen_hermitian(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return 0.5 * (abs(float(w[0])) + abs(float(w[1])))


def decompose_polarized(rho):
    w, v = eigen_hermitian(rho)
    w_p = float(w[0] - w[1])
    v0 = v[:, 0]
    return w_p, 1.0 - w_p, np.outer(v0, v0.conj())


def _twirl(theta):
    c2 = math.cos(0.5 * theta) ** 2
    s2 = math.sin(0.5 * theta) ** 2
    return np.array([[c2 + s2 / 3.0, 0.0], [0.0, 2.0 * s2 / 3.0]], dtype=complex)


def _contraction(theta):
    return (1.0 + 2.0 * math.cos(theta)) / 3.0


def _bisect(fn, lo, hi, tol=1e-9):
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


def angle_scan(theta_min, theta_max, steps):
    """(thetas, purities, distances, argmin_theta, refined_root, bracket), one
    eigensolve per grid angle.  refined_root is bisected to 1e-9 inside the
    first grid step over which the contraction changes sign, and bracket is
    that step's (lo, hi); bracket is None when no step is bisected."""
    thetas = np.linspace(float(theta_min), float(theta_max), int(steps))
    states = [_twirl(t) for t in thetas]
    purities = np.array([float(np.trace(s @ s).real) for s in states])
    dists = np.array([trace_distance(s, MAXIMALLY_MIXED) for s in states])
    argmin_theta = float(thetas[int(np.argmin(dists))])
    contraction = np.array([_contraction(t) for t in thetas])
    refined = bracket = None
    for i in range(len(thetas) - 1):
        if contraction[i] == 0.0:
            refined = float(thetas[i])
            break
        if contraction[i] * contraction[i + 1] < 0.0:
            bracket = float(thetas[i]), float(thetas[i + 1])
            refined = _bisect(_contraction, *bracket)
            break
    else:
        if contraction[-1] == 0.0:
            refined = float(thetas[-1])
    return thetas, purities, dists, argmin_theta, refined, bracket
