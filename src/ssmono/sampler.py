"""Seedable Haar-random states and trace-distance-bounded perturbations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

_U64 = 2 ** 64


@dataclass(frozen=True)
class RngSeed:
    """Key of a counter-based random stream; equal keys replay equal sequences."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


def derive(rng: RngSeed, offset: int) -> RngSeed:
    """Sibling stream at a fixed offset; used for scan chunks and continuation stages."""
    return RngSeed(rng.seed, (rng.stream_id + offset) % _U64)


def generator(rng: RngSeed) -> np.random.Generator:
    # Philox is counter-based, so distinct keys give independent streams by construction
    key = np.array([rng.seed, rng.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_random_state(n_qubits: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: normalized vector of iid complex Gaussians."""
    if not 1 <= n_qubits <= linalg.MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {linalg.MAX_QUBITS}], got {n_qubits}")
    dim = 2 ** n_qubits
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return z / np.linalg.norm(z)


def unit_noise(gen: np.random.Generator, m: int, dim: int = 16) -> np.ndarray:
    """m Haar-random unit vectors of length dim, shape (m, dim).

    Row r takes dim real normals and then dim imaginary ones, so a block of m
    rows consumes the stream exactly like m one-row draws in sequence.
    """
    g = gen.standard_normal((m, 2, dim))
    z = g[:, 0] + 1j * g[:, 1]
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def displace(seed_state: np.ndarray, delta: float, z: np.ndarray) -> np.ndarray:
    """normalize(seed + delta*z) along the last axis; z holds unit vectors."""
    candidate = seed_state + delta * z
    return candidate / np.linalg.norm(candidate, axis=-1, keepdims=True)


def perturb_within(seed_state: np.ndarray, delta: float, gen: np.random.Generator) -> np.ndarray:
    """Isotropic random state within trace distance delta of seed_state.

    candidate = normalize(seed + delta*g) with g a Haar-random unit vector. The
    resulting distance is delta*sqrt(1-|<s|g>|^2)/||seed + delta*g||, which never
    exceeds delta, so no resampling is needed. Full-radius moves keep the walk
    exploring aggressively at every delta level; without them the minimizer
    strands on narrow valley floors well above the attainable minimum.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    return displace(seed_state, delta, unit_noise(gen, 1, seed_state.shape[0]))[0]
