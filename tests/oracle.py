"""Closed-form Bloch maps of the seven channel kinds, written from the physics.

An independent reference for the tests: the maps below never call
pennyflip, which only ``Channel.spec`` touches, to build the matching spec.
Every channel pennyflip models is unital on one qubit, so it sends the Bloch
vector r of rho = (I + r . sigma) / 2 to M r for a real 3x3 M; for a random
channel M is the average over its realizations.

- rotation exp(+i theta (sigma . n) / 2): the right-handed rotation of R^3 by
  -theta about n (Rodrigues);
- rotate-or-leave mixture: p I + (1 - p) R_F with
  R_F[i, j] = 1/2 Re tr(sigma_i F sigma_j F^dagger);
- rotation by theta about a uniformly random axis: the sphere average of
  R(n, -theta), cos(theta) I + (1 - cos(theta)) <n n^T>, with <n n^T> = I / 3
  and the odd sin(theta) term averaging out;
- measurement along n: n n^T (the component along n survives);
- measurement along a uniformly random axis: <n n^T> = I / 3;
- fair 180-degree flip about a or b: (R(a, pi) + R(b, pi)) / 2;
- n-fold iteration: M^n.

``Channel(kind, params)`` describes one channel; ``spec(pf)`` builds the
matching pennyflip spec and ``bloch()`` returns M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
Z = np.array([0.0, 0.0, 1.0])


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(v @ v))


def rodrigues(axis, phi: float) -> np.ndarray:
    """Right-handed rotation of R^3 by phi about an axis."""
    n = unit(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return math.cos(phi) * np.eye(3) + math.sin(phi) * k + (1.0 - math.cos(phi)) * np.outer(n, n)


def su2(axis, theta: float, phase: float = 0.0) -> np.ndarray:
    """e^{i phase} exp(+i theta (sigma . n) / 2), built from its power series
    closed form cos(theta/2) I + i sin(theta/2) (sigma . n)."""
    s = np.einsum("k,kij->ij", unit(axis), PAULI)
    u = math.cos(0.5 * theta) * np.eye(2) + 1j * math.sin(0.5 * theta) * s
    return complex(math.cos(phase), math.sin(phase)) * u


def unitary_bloch(f) -> np.ndarray:
    """R_F[i, j] = 1/2 Re tr(sigma_i F sigma_j F^dagger)."""
    f = np.asarray(f, dtype=complex)
    return 0.5 * np.einsum("iab,bc,jcd,da->ij", PAULI, f, PAULI, f.conj().T).real


def state(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2."""
    return 0.5 * (np.eye(2) + np.einsum("k,kij->ij", np.asarray(r, dtype=float), PAULI))


@dataclass(frozen=True)
class Channel:
    kind: str
    params: dict = field(default_factory=dict)

    def spec(self, pf):
        p = self.params
        if self.kind == "FixedRotation":
            return pf.FixedRotation(p["axis"], p["theta"])
        if self.kind == "MeyerMixture":
            return pf.MeyerMixture(p["p"], su2(p["rot_axis"], p["theta"], p["phase"]))
        if self.kind == "RandomAxisRotation":
            return pf.RandomAxisRotation(p["theta"])
        if self.kind == "FixedAxisMeasurement":
            return pf.FixedAxisMeasurement(p["axis"])
        if self.kind == "RandomBasisMeasurement":
            return pf.RandomBasisMeasurement()
        if self.kind == "TwoAxisFlip":
            return pf.TwoAxisFlip(p["axis"], p["axis_b"])
        if self.kind == "Iterated":
            return pf.Iterated(p["inner"].spec(pf), p["n"])
        raise ValueError(f"unknown channel kind {self.kind!r}")

    def bloch(self) -> np.ndarray:
        p = self.params
        if self.kind == "FixedRotation":
            return rodrigues(p["axis"], -p["theta"])
        if self.kind == "MeyerMixture":
            f = su2(p["rot_axis"], p["theta"], p["phase"])
            return p["p"] * np.eye(3) + (1.0 - p["p"]) * unitary_bloch(f)
        if self.kind == "RandomAxisRotation":
            c = math.cos(p["theta"])
            return c * np.eye(3) + (1.0 - c) * np.eye(3) / 3.0
        if self.kind == "FixedAxisMeasurement":
            n = unit(p["axis"])
            return np.outer(n, n)
        if self.kind == "RandomBasisMeasurement":
            return np.eye(3) / 3.0
        if self.kind == "TwoAxisFlip":
            return 0.5 * (rodrigues(p["axis"], math.pi) + rodrigues(p["axis_b"], math.pi))
        if self.kind == "Iterated":
            return np.linalg.matrix_power(p["inner"].bloch(), p["n"])
        raise ValueError(f"unknown channel kind {self.kind!r}")

    @property
    def deterministic(self) -> bool:
        """True when every realization is the same map, so MC has no spread."""
        if self.kind == "Iterated":
            return self.params["inner"].deterministic
        return self.kind in ("FixedRotation", "FixedAxisMeasurement")

    def opening_bloch(self) -> np.ndarray:
        """Q's optimal opening against this channel: an eigenstate of F's
        rotation for the rotate-or-leave mixture (either sign), else +z."""
        if self.kind == "MeyerMixture":
            return unit(self.params["rot_axis"])
        return Z
