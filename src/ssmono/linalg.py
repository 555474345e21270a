"""Dense linear algebra for few-qubit pure states and density matrices.

Convention: qubit 0 is the most significant bit of the computational-basis
index, so |q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + ... + q_{n-1}*2^0.
"""
from __future__ import annotations

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


def as_state(amplitudes, n_qubits: int | None = None) -> np.ndarray:
    """Validate a pure state: complex vector of length 2^n with unit norm, and
    n = n_qubits when that is given."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = n_qubits_of(psi)
    if n_qubits is not None and n != n_qubits:
        raise ValueError(f"need a {n_qubits}-qubit state, got {n} qubits")
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN and infinite amplitudes
        raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    return psi


def density_eigh(rho) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a density matrix: eigenvalues ascending, eigenvectors as columns.

    The one check of a density matrix: square, finite, Hermitian within
    HERMITICITY_TOL, unit trace within TRACE_TOL and no eigenvalue below
    -EIG_CLAMP. Eigenvalues in [-EIG_CLAMP, 0) are roundoff and come back as 0.
    """
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("density matrix must be a square 2-D array")
    if not np.all(np.isfinite(m)):  # a NaN would pass every comparison below
        raise ValueError("density matrix entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL}")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    w, v = np.linalg.eigh(m)
    if w[0] < -EIG_CLAMP:
        raise ValueError(f"eigenvalue {w[0]} below -{EIG_CLAMP}: matrix is not PSD")
    return np.maximum(w, 0.0), v
