"""Dense linear algebra for few-qubit pure states and density matrices.

Convention: qubit 0 is the most significant bit of the computational-basis
index, so |q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + ... + q_{n-1}*2^0.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# eigenvalues in [-EIG_CLAMP, 0) are roundoff and get clamped; below is corruption
EIG_CLAMP = 1e-8

MAX_QUBITS = 8


def n_qubits_of(amplitudes) -> int:
    dim = np.shape(amplitudes)[-1]
    n = int(dim).bit_length() - 1
    if n < 1 or dim != 2 ** n:
        raise ValueError(f"amplitude vector length {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    return n


def as_state(amplitudes) -> np.ndarray:
    """Validate a pure state: complex vector of length 2^n with unit norm."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n_qubits_of(psi)
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN and infinite amplitudes
        raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    return psi


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a density matrix, real and sorted descending.

    Values in [-1e-8, 0) are clamped to 0; anything more negative means the
    matrix is not positive semidefinite and raises ValueError.
    """
    rho = _square_hermitian(m)
    w = np.linalg.eigvalsh(rho)
    if w[0] < -EIG_CLAMP:
        raise ValueError(f"eigenvalue {w[0]} below -{EIG_CLAMP}: matrix is not PSD")
    return np.maximum(w, 0.0)[::-1]


def _square_hermitian(m) -> np.ndarray:
    rho = np.asarray(m, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be a square 2-D array")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL}")
    return rho


def as_density_matrix(entries) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within 1e-8, unit trace."""
    rho = _square_hermitian(entries)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    hermitian_eigenvalues(rho)  # PSD check
    return rho


def _validated_mask(keep: Iterable[int], n: int) -> tuple[int, ...]:
    mask = tuple(int(q) for q in keep)
    if not mask:
        raise ValueError("subsystem mask must not be empty")
    if any(q < 0 or q >= n for q in mask):
        raise ValueError(f"qubit index out of range for {n} qubits: {mask}")
    if any(a >= b for a, b in zip(mask, mask[1:])):
        raise ValueError(f"subsystem mask must be strictly increasing: {mask}")
    return mask


def partial_trace(state, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the kept qubits, remaining qubits traced out.

    Accepts a pure state (1-D) or a density matrix (2-D).
    """
    arr = np.asarray(state)
    if arr.ndim == 1:
        psi = as_state(arr)
        n = n_qubits_of(psi)
        mask = _validated_mask(keep, n)
        traced = tuple(q for q in range(n) if q not in mask)
        block = psi.reshape((2,) * n).transpose(mask + traced).reshape(2 ** len(mask), -1)
        return block @ block.conj().T
    rho = as_density_matrix(arr)
    n = n_qubits_of(rho)
    mask = _validated_mask(keep, n)
    traced = tuple(q for q in range(n) if q not in mask)
    k = len(mask)
    t = rho.reshape((2,) * (2 * n))
    perm = mask + traced + tuple(n + q for q in mask) + tuple(n + q for q in traced)
    t = t.transpose(perm).reshape(2 ** k, 2 ** (n - k), 2 ** k, 2 ** (n - k))
    return np.einsum("a b c b -> a c", t)


def trace_power(m, alpha: float) -> float:
    """Tr rho^alpha over the clamped eigenvalues, for alpha >= 1."""
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    w = hermitian_eigenvalues(m)
    return float(np.sum(w ** alpha))


def pure_trace_distance(a, b) -> float:
    """sqrt(1 - |<a|b>|^2), the trace distance between two pure states."""
    pa, pb = as_state(a), as_state(b)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape} vs {pb.shape}")
    overlap = abs(np.vdot(pa, pb)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def apply_local_unitary(state, qubit: int, u) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit of a pure state."""
    psi = as_state(state)
    n = n_qubits_of(psi)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2) or np.max(np.abs(mat @ mat.conj().T - np.eye(2))) > 1e-10:
        raise ValueError("u must be a 2x2 unitary within 1e-10")
    t = psi.reshape((2,) * n)
    out = np.tensordot(mat, t, axes=([1], [qubit]))
    return np.moveaxis(out, 0, qubit).reshape(-1)
