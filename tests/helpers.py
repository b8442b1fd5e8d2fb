"""Shared constructors for randomized tests, which all take a seeded numpy
Generator, and closed forms the tests compare the library against."""

import math

import numpy as np

import pennyflip as pf


def random_axis(rng: np.random.Generator) -> np.ndarray:
    return pf.unit_axis(rng.normal(size=3))


def random_density(rng: np.random.Generator) -> np.ndarray:
    # Uniform direction, radius biased toward the shell; covers pure-ish and
    # mixed states without ever leaving the ball.
    return pf.from_bloch(random_axis(rng) * rng.random() ** (1.0 / 3.0))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return pf.rotation_unitary(random_axis(rng), rng.uniform(0.0, 2.0 * np.pi))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    # Rotation times a random global phase: a generic 2x2 unitary.
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * random_rotation(rng)


def overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>| for unit spinors; 1 iff the two lie on the same ray."""
    return abs(np.vdot(u, v))


def twirled_spin_up(theta: float) -> np.ndarray:
    """The +z state rotated by theta about a uniformly random axis, written
    independently of the library's Bloch contraction:
    diag(cos^2(theta/2) + sin^2(theta/2)/3, (2/3) sin^2(theta/2))."""
    c2 = math.cos(0.5 * theta) ** 2
    s2 = math.sin(0.5 * theta) ** 2
    return np.diag([c2 + s2 / 3.0, 2.0 * s2 / 3.0]).astype(complex)
