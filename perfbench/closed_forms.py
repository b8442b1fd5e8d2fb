"""Closed-form Bloch maps of pennyflip's seven channel kinds.

Written from the physics, independently of pennyflip, so that the benchmark
can check pennyflip's outputs against something pennyflip did not compute.
Every channel pennyflip models is unital on one qubit: it sends the Bloch
vector r of rho = (I + r . sigma) / 2 to M r for a 3x3 real M (for the random
channels, M is the average over realizations).

A channel is described by ``Channel(kind, params)``; ``spec(pf)`` builds the
matching pennyflip spec and ``bloch()`` returns M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The README's absolute tolerance for exact comparisons (pennyflip.EXACT_TOL).
EXACT_TOL = 1e-12
# Unit roundoff of float64: a mean of n equal terms may be off by (n - 1) * U.
U = 2.0 ** -53

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)

KINDS = (
    "FixedRotation",
    "MeyerMixture",
    "RandomAxisRotation",
    "FixedAxisMeasurement",
    "RandomBasisMeasurement",
    "TwoAxisFlip",
    "Iterated",
)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(v @ v))


def rodrigues(axis, phi: float) -> np.ndarray:
    """Right-handed rotation of R^3 by phi about a unit axis."""
    n = unit(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return math.cos(phi) * np.eye(3) + math.sin(phi) * k + (1.0 - math.cos(phi)) * np.outer(n, n)


def su2(axis, theta: float, phase: float = 0.0) -> np.ndarray:
    """e^{i phase} exp(+i theta (sigma . n) / 2); its Bloch action is rodrigues(n, -theta)."""
    s = np.einsum("k,kij->ij", unit(axis), PAULI)
    u = math.cos(0.5 * theta) * np.eye(2) + 1j * math.sin(0.5 * theta) * s
    return complex(math.cos(phase), math.sin(phase)) * u


def unitary_bloch(f: np.ndarray) -> np.ndarray:
    """R_F[i, j] = 1/2 Re tr(sigma_i F sigma_j F^dagger)."""
    return 0.5 * np.einsum("iab,bc,jcd,da->ij", PAULI, f, PAULI, f.conj().T).real


def state(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2."""
    return 0.5 * (np.eye(2) + np.einsum("k,kij->ij", np.asarray(r, dtype=float), PAULI))


def bloch_of(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def random_unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        if float(v @ v) > 1e-6:
            return unit(v)


def random_bloch(rng) -> np.ndarray:
    """A Bloch vector of uniform direction and uniform length in [0, 1)."""
    return rng.random() * random_unit(rng)


@dataclass(frozen=True)
class Channel:
    kind: str
    params: dict = field(default_factory=dict)

    def spec(self, pf):
        p = self.params
        if self.kind == "FixedRotation":
            return pf.FixedRotation(p["axis"], p["theta"])
        if self.kind == "MeyerMixture":
            return pf.MeyerMixture(p["p"], p["f"])
        if self.kind == "RandomAxisRotation":
            return pf.RandomAxisRotation(p["theta"])
        if self.kind == "FixedAxisMeasurement":
            return pf.FixedAxisMeasurement(p["axis"])
        if self.kind == "RandomBasisMeasurement":
            return pf.RandomBasisMeasurement()
        if self.kind == "TwoAxisFlip":
            return pf.TwoAxisFlip(p["axis"], p["axis_b"])
        return pf.Iterated(p["inner"].spec(pf), p["n"])

    def bloch(self) -> np.ndarray:
        p = self.params
        if self.kind == "FixedRotation":
            return rodrigues(p["axis"], -p["theta"])
        if self.kind == "MeyerMixture":
            return p["p"] * np.eye(3) + (1.0 - p["p"]) * unitary_bloch(p["f"])
        if self.kind == "RandomAxisRotation":
            return (1.0 + 2.0 * math.cos(p["theta"])) / 3.0 * np.eye(3)
        if self.kind == "FixedAxisMeasurement":
            n = unit(p["axis"])
            return np.outer(n, n)
        if self.kind == "RandomBasisMeasurement":
            return np.eye(3) / 3.0
        if self.kind == "TwoAxisFlip":
            return 0.5 * (rodrigues(p["axis"], math.pi) + rodrigues(p["axis_b"], math.pi))
        return np.linalg.matrix_power(p["inner"].bloch(), p["n"])

    @property
    def deterministic(self) -> bool:
        """True when every realization is the same map, so MC has no spread."""
        if self.kind == "Iterated":
            return self.params["inner"].deterministic
        return self.kind in ("FixedRotation", "FixedAxisMeasurement")

    @property
    def depth(self) -> int:
        """Channel applications per sample: Iterated n counts n."""
        if self.kind == "Iterated":
            return self.params["n"] * self.params["inner"].depth
        return 1

    def opening_bloch(self) -> np.ndarray:
        """Bloch vector of Q's optimal opening state against this channel: the
        rotation axis of F for the rotate-or-leave mixture, else +z."""
        if self.kind == "MeyerMixture":
            return unit(self.params["rot_axis"])
        return np.array([0.0, 0.0, 1.0])


def random_channel(kind: str, rng, n: int = 2, inner_kind: str | None = None) -> Channel:
    """A channel of the given kind with random parameters drawn from rng.

    Iterated wraps inner_kind (drawn from the six plain kinds when None) n
    times.  MeyerMixture keeps p in [1/4, 3/4] so that the cost of one
    realization, which grows with the share of flipped samples, varies little.
    """
    if kind == "FixedRotation":
        return Channel(kind, {"axis": random_unit(rng), "theta": 2.0 * math.pi * rng.random()})
    if kind == "MeyerMixture":
        axis = random_unit(rng)
        theta = math.pi * (0.1 + 0.9 * rng.random())
        f = su2(axis, theta, 2.0 * math.pi * rng.random())
        return Channel(kind, {"p": 0.25 + 0.5 * rng.random(), "f": f, "rot_axis": axis})
    if kind == "RandomAxisRotation":
        return Channel(kind, {"theta": 2.0 * math.pi * rng.random()})
    if kind == "FixedAxisMeasurement":
        return Channel(kind, {"axis": random_unit(rng)})
    if kind == "RandomBasisMeasurement":
        return Channel(kind)
    if kind == "TwoAxisFlip":
        a = random_unit(rng)
        b = unit(np.cross(a, random_unit(rng)))
        return Channel(kind, {"axis": a, "axis_b": b})
    if kind == "Iterated":
        if inner_kind is None:
            inner_kind = KINDS[int(rng.integers(len(KINDS) - 1))]
        return Channel(kind, {"inner": random_channel(inner_kind, rng), "n": int(n)})
    raise ValueError(f"unknown channel kind {kind!r}")
