"""Entanglement measures and inequality residuals for few-qubit pure states.

All logarithms are base 2; every entanglement value is in bits.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, linalg

# residuals below this are genuine violations rather than roundoff
VIOLATION_THRESHOLD = -1e-7
# columns of residual_table that hold the two residuals
SS, MONO = 5, 6


@dataclass(frozen=True)
class PairingLayout:
    """Assignment of the four qubits to the roles a1, a2, b1, b2."""

    a1: int = 0
    a2: int = 1
    b1: int = 2
    b2: int = 3

    def __post_init__(self):
        _kernels.checked_layout(self.as_tuple())

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.b1, self.b2)


CANONICAL_LAYOUT = PairingLayout(0, 1, 2, 3)


class ResidualReport(NamedTuple):
    """Both residuals plus every constituent term for one state and one alpha.
    A named tuple, not a dataclass: the region walk builds one per visited
    state, and a tuple takes a third of the time to build."""

    alpha: float
    e_bipartite: float
    e_a1b1: float
    e_a2b2: float
    e_a1b2: float
    e_a2b1: float
    ss_residual: float
    monogamy_residual: float


# a ResidualReport of a row of its 8 numbers, built without its Python __new__
_report = functools.partial(tuple.__new__, ResidualReport)


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with li the descending square roots of the
    eigenvalues of rho @ rho~, rho~ the spin-flipped complex conjugate. The li
    are evaluated as singular values of W^T S W for a decomposition
    rho = W W^dagger, which avoids the non-Hermitian eigenproblem. W comes
    from eigh(rho): on a rank-deficient rho the roundoff of the zero
    eigenvalues enters W at sqrt(eps), so C carries a floor of about 1e-8
    (measured on locally rotated W states). The pipeline takes a pure state's
    amplitude block as W instead (_kernels.terms_table), which has no floor.
    """
    w, v = linalg.density_eigh(rho)
    if v.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 density matrix, got shape {v.shape}")
    lam = _kernels.spin_flip_lambdas(v * np.sqrt(w))
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def renyi_entropy(rho, alpha) -> float:
    """Renyi alpha-entropy in bits of a density matrix; alpha = 1 is von Neumann."""
    return float(_kernels.renyi_entropies(linalg.density_eigh(rho)[0][::-1], alpha))


def renyi_from_concurrence(c, alpha) -> float:
    """The two-qubit measure as a function of concurrence.

    Renyi entropy of the pair (x, 1-x) with x = (1 + sqrt(1 - c^2))/2; the
    alpha = 1 branch is the binary entropy (EoF).
    """
    # _real gives NaN for a non-number or a bool, and NaN fails the range test
    if not -1e-12 <= (cf := _kernels._real(c)) <= 1.0 + 1e-12:
        raise ValueError(f"concurrence must be a real number in [0, 1], got {c!r}")
    return float(_kernels.renyi_from_c(min(1.0, max(0.0, cf)), alpha))


def residual_report(psi, layout: PairingLayout = CANONICAL_LAYOUT, alpha=2.0) -> ResidualReport:
    """Evaluate every term of the SS and second-order-monogamy inequalities;
    a negative ss_residual or monogamy_residual certifies a violation."""
    a = _kernels.normalize_alpha(alpha)
    state = linalg.as_state(psi, 4)
    return _report((a, *residual_table(state[None], layout, a)[0].tolist()))


def residual_reports(alpha: float, table: np.ndarray) -> list:
    """A ResidualReport at alpha, a float from normalize_alpha, for each row
    of a residual_table (m, 7): one (m, 8) block with alpha in column 0, made
    into reports with no Python call per row."""
    rows = np.empty((table.shape[0], 8))
    rows[:, 0] = alpha
    rows[:, 1:] = table
    return list(map(_report, rows.tolist()))


def residual_table(states: np.ndarray, layout: PairingLayout, alpha) -> np.ndarray:
    """ResidualReport's fields after alpha, (m, 7), for each row of complex128
    (m, 16) normalized amplitudes, from one `_kernels.terms_table` call: row r
    has the bits of a residual_report of states[r] whatever the batch."""
    return _kernels.terms_table(states, layout.as_tuple(), alpha)


def sum_inequality_residuals(c_squared) -> np.ndarray:
    """Residual of -log2((2 - sum v)/2) >= -sum log2((2 - v)/2) for each row v
    of a (samples, length) array of squared concurrences C_i^2.

    A row is admissible when every entry is in [0, 1] and the sum is at most
    1, and its residual is then expected >= 0. Rows of different lengths are
    padded with zeros: a zero entry adds log2(1) = 0 to the pair side and 0
    to the sum, so it leaves the row's residual unchanged.
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
