"""Shared state constructors for the test suite.

Qubit 0 is the most significant bit of the basis index throughout.
"""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from ssmono import _kernels, linalg, measures

SRC = Path(_kernels.__file__).parent
# the attribute that gives _svd4.c's fma() routines an FMA build beside the plain one
FMA_CLONES = '__attribute__((target_clones("fma", "default")))'

SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y

# The alpha = 2 optimum up to local unitaries: a real state fixed by the pair
# swap P (a1 <-> a2 with b1 <-> b2) and the side swap S (a <-> b), so E(a1b1)
# = E(a2b2). Its a1b1 and a2b2 spin-flip blocks tau have rank 2 and two
# equal columns; the Jacobi sweeps used to rotate a near-null column down to
# a subnormal |g|^2, whose square root has lost the precision that keeps the
# phase unit-modulus, and scored ss = -0.02351 against the true -0.01977.
OPTIMUM_SYMMETRIC = np.array([
    -0.2111167265974103, 0.09042036820115495, 0.09042036820115491, -0.04530863020174932,
    0.09042036820115495, 0.33015298135325155, -0.045308631528827796, -0.1808038156725565,
    0.09042036820115486, -0.04530863152882782, 0.33015298135325155, -0.18080381567255643,
    -0.045308630201749404, -0.18080381567255643, -0.18080381567255643, -0.7521654116248717,
], dtype=complex)


def bell_pair() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def bell_product() -> np.ndarray:
    """Bell pairs on qubits (0, 2) and (1, 3).

    Amplitude 1/2 wherever q0 = q2 and q1 = q3, i.e. indices 0, 5, 10, 15.
    """
    psi = np.zeros(16, dtype=complex)
    psi[[0, 5, 10, 15]] = 0.5
    return psi


def ghz_state(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = np.sqrt(0.5)
    return psi


def w_state(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    for k in range(n):
        psi[1 << k] = 1.0
    return psi / np.sqrt(n)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    z = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return z / np.linalg.norm(z)


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pure_trace_distance(a, b) -> float:
    """sqrt(1 - |<a|b>|^2), the trace distance between two pure states."""
    pa, pb = linalg.as_state(a), linalg.as_state(b)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape} vs {pb.shape}")
    overlap = abs(np.vdot(pa, pb)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def reduced_density(psi, keep) -> np.ndarray:
    """The density matrix of a pure state on the qubits keep, in that order, the others traced out."""
    n, keep = linalg.n_qubits_of(psi), tuple(keep)
    traced = tuple(q for q in range(n) if q not in keep)
    block = linalg.as_state(psi).reshape((2,) * n).transpose(keep + traced).reshape(2 ** len(keep), -1)
    return block @ block.conj().T


def density_pair_term(psi, i: int, j: int, alpha) -> float:
    """The (i, j) pair term of a pure state through its density matrix and the
    package's mixed-state measures, with eigh's floor of about 1e-8: the
    reference the amplitude kernels are checked against."""
    return measures.renyi_from_concurrence(measures.concurrence(reduced_density(psi, sorted((i, j)))), alpha)


def split_terms(states, layout, alpha, k: int = 4):
    """The bipartite term (m,) and the first k pair terms (m, k) of `_kernels.terms_table`'s rows."""
    table = _kernels.terms_table(states, layout, alpha, k)
    return table[:, 0], table[:, 1 : 1 + k]


def apply_local_unitary(state, qubit: int, u) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit of a pure state."""
    psi = linalg.as_state(state)
    n = linalg.n_qubits_of(psi)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2) or np.max(np.abs(mat @ mat.conj().T - np.eye(2))) > 1e-10:
        raise ValueError("u must be a 2x2 unitary within 1e-10")
    t = psi.reshape((2,) * n)
    out = np.tensordot(mat, t, axes=([1], [qubit]))
    return np.moveaxis(out, 0, qubit).reshape(-1)


def relabeled(psi: np.ndarray, layout) -> np.ndarray:
    """The 4-qubit psi with qubit k moved to qubit layout[k], so that its
    residuals at layout are those of psi at the canonical layout."""
    return np.ascontiguousarray(psi.reshape(2, 2, 2, 2).transpose(np.argsort(layout)).reshape(16))


def load_kernels_copy(directory: Path, edit=lambda source: source):
    """Import a copy of _kernels (and its C source, passed through edit) from
    `directory`, so its build cache is directory/__pycache__ and not the package's."""
    shutil.copy(SRC / "_kernels.py", directory / "_kernels.py")
    (directory / "_svd4.c").write_text(edit((SRC / "_svd4.c").read_text()))
    spec = importlib.util.spec_from_file_location("kernels_copy", directory / "_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def plain_kernels(tmp_path_factory):
    """A copy of _kernels built without FMA_CLONES, so that the routines that
    call fma() call libm's; compiled once per session."""
    return load_kernels_copy(tmp_path_factory.mktemp("plain"), lambda source: source.replace(FMA_CLONES, ""))
