"""Entanglement measures and inequality residuals for few-qubit pure states.

All logarithms are base 2; every entanglement value is in bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, linalg

# residuals below this are genuine violations rather than roundoff
VIOLATION_THRESHOLD = -1e-7
# rows per kernel call in residual_reports: its working memory is about 3 KB a row
REPORT_CHUNK = 64


def normalize_alpha(alpha) -> float:
    """Validate alpha >= 1; values within 1e-9 of 1 snap to exactly 1 (EoF branch)."""
    a = float(alpha)
    if not np.isfinite(a) or a < 1.0 - _kernels.ALPHA_ONE_TOL:
        raise ValueError(f"alpha must be a real number >= 1, got {alpha}")
    return 1.0 if _kernels.is_alpha_one(a) else a


@dataclass(frozen=True)
class PairingLayout:
    """Assignment of the four qubits to the roles a1, a2, b1, b2."""

    a1: int = 0
    a2: int = 1
    b1: int = 2
    b2: int = 3

    def __post_init__(self):
        roles = (self.a1, self.a2, self.b1, self.b2)
        if len(set(roles)) != 4 or any(not 0 <= int(q) < 4 for q in roles):
            raise ValueError(f"layout must name four distinct qubits in [0, 4): {roles}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.b1, self.b2)


CANONICAL_LAYOUT = PairingLayout(0, 1, 2, 3)


@dataclass(frozen=True)
class ResidualReport:
    """Both residuals plus every constituent term for one state and one alpha."""

    alpha: float
    e_bipartite: float
    e_a1b1: float
    e_a2b2: float
    e_a1b2: float
    e_a2b1: float
    ss_residual: float
    monogamy_residual: float


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with li the descending square roots of the
    eigenvalues of rho @ rho~, rho~ the spin-flipped complex conjugate. The li
    are evaluated as singular values of W^T S W for a decomposition
    rho = W W^dagger, which gives the same values without the sqrt noise floor
    of the non-Hermitian eigenproblem (zero modes would otherwise surface at
    the 1e-8 scale and corrupt the subtraction).
    """
    m = linalg.as_density_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 density matrix, got shape {m.shape}")
    w, v = np.linalg.eigh(m)
    lam = _kernels.spin_flip_lambdas(v * np.sqrt(np.maximum(w, 0.0)))
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def renyi_entropy(rho, alpha) -> float:
    """Renyi alpha-entropy in bits; alpha = 1 is the von Neumann branch."""
    a = normalize_alpha(alpha)
    w = linalg.hermitian_eigenvalues(rho)
    return float(_kernels.entropy_from_eigs_raw(w, a))


def renyi_from_concurrence(c, alpha) -> float:
    """The two-qubit measure as a function of concurrence.

    Renyi entropy of the pair (x, 1-x) with x = (1 + sqrt(1 - c^2))/2; the
    alpha = 1 branch is the binary entropy (EoF).
    """
    a = normalize_alpha(alpha)
    cf = float(c)
    if cf < -1e-12 or cf > 1.0 + 1e-12:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    return float(_kernels.renyi_from_c_raw(min(1.0, max(0.0, cf)), a))


def pair_entanglement(psi, i: int, j: int, alpha) -> float:
    """Measure of the (i, j) two-qubit reduction of a pure state, in bits."""
    a = normalize_alpha(alpha)
    state = linalg.as_state(psi)
    n = linalg.n_qubits_of(state)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"need two distinct qubit indices in [0, {n}), got ({i}, {j})")
    rho = linalg.partial_trace(state, tuple(sorted((i, j))))
    return renyi_from_concurrence(concurrence(rho), a)


def bipartite_pure_entanglement(psi, partition_a, alpha) -> float:
    """Renyi entropy of the reduction onto partition_a (pure-state convex roof)."""
    a = normalize_alpha(alpha)
    state = linalg.as_state(psi)
    n = linalg.n_qubits_of(state)
    mask = tuple(partition_a)
    if len(mask) >= n:
        raise ValueError("partition_a must be a proper subset of the qubits")
    return renyi_entropy(linalg.partial_trace(state, mask), a)


def residual_report(psi, layout: PairingLayout = CANONICAL_LAYOUT, alpha=2.0) -> ResidualReport:
    """Evaluate every term of the SS and second-order-monogamy inequalities;
    a negative ss_residual or monogamy_residual certifies a violation."""
    a = normalize_alpha(alpha)
    state = linalg.as_state(psi)
    if linalg.n_qubits_of(state) != 4:
        raise ValueError("residuals are defined for 4-qubit states")
    return residual_reports(state[None], layout, a)[0]


def residual_reports(states: np.ndarray, layout: PairingLayout, alpha: float) -> list:
    """One ResidualReport per row of (m, 16) normalized amplitudes.

    The batched form of residual_report: row r gives the same bits as a
    residual_report of states[r]. alpha must already be normalized.
    """
    reports = []
    for lo in range(0, states.shape[0], REPORT_CHUNK):
        eb, pair = _kernels.batched_terms(states[lo : lo + REPORT_CHUNK], layout.as_tuple(), alpha)
        ss = eb - pair[:, 0] - pair[:, 1]
        mono = ss - pair[:, 2] - pair[:, 3]
        rows = np.column_stack([eb, pair, ss, mono]).tolist()
        reports += [ResidualReport(alpha, *row) for row in rows]
    return reports


def ckw_r2_residual(psi, focus: int = 0) -> float:
    """R2 monogamy residual of one qubit against the rest.

    Bipartite side: -log2((2 - C^2)/2) with C^2 = 2(1 - Tr rho_focus^2); pair
    side: the same curve on each pairwise concurrence. Expected >= 0 for all
    pure states.
    """
    state = linalg.as_state(psi)
    n = linalg.n_qubits_of(state)
    if n < 3:
        raise ValueError(f"need at least 3 qubits, got {n}")
    if not 0 <= focus < n:
        raise ValueError(f"focus qubit {focus} out of range for {n} qubits")
    return float(_kernels.batched_ckw_r2(state.reshape(1, -1), n, focus)[0])


def sum_inequality_residual(c_squared) -> float:
    """Residual of -log2((2 - sum v)/2) >= -sum log2((2 - v)/2) over v = C_i^2.

    Takes the vector of squared concurrences; admissible when every entry is
    in [0, 1] and the sum is at most 1. Expected >= 0. A batch of one through
    sum_inequality_residuals.
    """
    return float(sum_inequality_residuals(np.asarray(c_squared, dtype=float).reshape(1, -1))[0])


def sum_inequality_residuals(c_squared) -> np.ndarray:
    """sum_inequality_residual of each row of a (samples, length) array.

    Rows of different lengths are padded with zeros: a zero entry adds
    log2(1) = 0 to the pair side and 0 to the sum, so it leaves the row's
    residual unchanged.
    """
    v = np.asarray(c_squared, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("need at least one squared concurrence per row")
    if not np.all((v >= -1e-12) & (v <= 1.0 + 1e-12)):  # NaN fails both comparisons
        raise ValueError("every squared concurrence must lie in [0, 1]")
    v = np.clip(v, 0.0, 1.0)
    total = np.sum(v, axis=1)
    if np.any(total > 1.0 + 1e-9):
        raise ValueError(f"sum of squared concurrences must be <= 1, got {total.max()}")
    return -np.log2(1.0 - 0.5 * np.minimum(total, 1.0)) + np.sum(np.log2(1.0 - 0.5 * v), axis=1)
