"""Numeric kernels shared by the public measures, the search loop, and the scanner.

Everything here operates on raw, already-validated amplitude arrays. Every
residual term goes through one batched kernel, `batched_terms`, whose rows do
not depend on the batch size, so the objective value driving an acceptance is
bit-identical to the value stored in the trace and to a later batch-of-one
`residual_report`.
"""
from __future__ import annotations

import functools

import numpy as np

LN2 = float(np.log(2.0))
ALPHA_ONE_TOL = 1e-9
# det(rho^G) at or above this proves a two-qubit pair PPT, so separable (batched_ckw_r2)
SEPARABLE_DET = 1e-12

# flat index into a 4x4 rho of each entry of its partial transpose on the
# second qubit: rho^G[(a, b), (a', b')] = rho[(a, b'), (a', b)]
_PT = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
# Laplace expansion along rows (0, 1): column pair (i, j), its complement (k, l), sign
_LAPLACE = ((0, 1, 2, 3, 1.0), (0, 2, 1, 3, -1.0), (0, 3, 1, 2, 1.0),
            (1, 2, 0, 3, 1.0), (1, 3, 0, 2, -1.0), (2, 3, 0, 1, 1.0))
# (8, 6) gather: the two products of each top minor, then of its bottom complement
_PT_MINORS = np.array(
    [[_PT[0, i], _PT[1, j], _PT[0, j], _PT[1, i], _PT[2, k], _PT[3, l], _PT[2, l], _PT[3, k]]
     for i, j, k, l, _ in _LAPLACE]
).T
_PT_SIGNS = np.array([sign for *_, sign in _LAPLACE])

# sigma_y (x) sigma_y written out: antidiagonal (-1, 1, 1, -1)
SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def is_alpha_one(alpha: float) -> bool:
    return abs(alpha - 1.0) < ALPHA_ONE_TOL


def renyi_from_c_raw(c, alpha: float):
    """Measure value for concurrence c: Renyi entropy of (x, 1-x), x=(1+sqrt(1-c^2))/2.

    Vectorized over c. Assumes alpha >= 1 and c already clipped to [0, 1].
    """
    c = np.asarray(c, dtype=float)
    if alpha == 2.0:
        return -np.log2(1.0 - 0.5 * c * c) + 0.0  # x^2 + (1-x)^2 = 1 - c^2/2
    u = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    y = c * c / (2.0 * (1.0 + u))  # (1 - u)/2 without cancellation for small c
    x = 1.0 - y
    if is_alpha_one(alpha):
        with np.errstate(divide="ignore", invalid="ignore"):
            hy = np.where(y > 0.0, y * np.log2(y), 0.0)
        return -(x * np.log2(x)) - hy + 0.0
    # x^a + y^a - 1 via expm1 stays accurate as alpha -> 1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = x * np.expm1((alpha - 1.0) * np.log(x))
        s = s + np.where(y > 0.0, y * np.expm1((alpha - 1.0) * np.log(y)), 0.0)
    return np.log1p(s) / ((1.0 - alpha) * LN2) + 0.0


def entropy_from_eigs_raw(w, alpha: float):
    """Renyi entropy in bits from eigenvalue rows (vectorized, assumes w >= 0)."""
    w = np.asarray(w, dtype=float)
    if is_alpha_one(alpha):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > 0.0, w * np.log2(w), 0.0)
        return -np.sum(terms, axis=-1) + 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.expm1((alpha - 1.0) * np.log(w)), 0.0)
    return np.log1p(np.sum(terms, axis=-1)) / ((1.0 - alpha) * LN2) + 0.0


def _pair_perm(i: int, j: int) -> tuple[int, ...]:
    rest = [q for q in range(4) if q not in (i, j)]
    return (i, j, rest[0], rest[1])


@functools.lru_cache(maxsize=128)
def _block_index(perms: tuple) -> np.ndarray:
    """Flat gather index: row p of the result reads the 4x4 block of
    amplitudes with qubits perms[p][:2] as the row index."""
    flat = np.arange(16).reshape(2, 2, 2, 2)
    index = np.stack([flat.transpose(perm).reshape(16) for perm in perms])
    index.flags.writeable = False  # shared by every caller through the cache
    return index


def spin_flip_lambdas(block: np.ndarray) -> np.ndarray:
    """Wootters lambdas of rho = B B^dagger, descending.

    They are the singular values of B^T S B (S the spin flip), which equal the
    square roots of the eigenvalues of rho rho~ on the nonzero part.
    """
    tau = block.T @ (SPIN_FLIP @ block)
    return np.linalg.svd(tau, compute_uv=False)


def _bipartite(states: np.ndarray, layout, alpha: float) -> np.ndarray:
    """Renyi entropy of the (a1, a2) reduction for each row of (m, 16) amplitudes."""
    blocks = states[:, _block_index((tuple(layout),))[0]].reshape(-1, 4, 4)
    rho = np.matmul(blocks, blocks.conj().transpose(0, 2, 1))
    if alpha == 2.0:
        return -np.log2(np.sum(np.abs(rho) ** 2, axis=(1, 2)))
    return entropy_from_eigs_raw(np.maximum(np.linalg.eigvalsh(rho), 0.0), alpha)


def _pair_terms(states: np.ndarray, pairs, alpha: float) -> np.ndarray:
    """(m, k) entanglement of the k two-qubit reductions `pairs` of each row.

    All m*k pair blocks go through one matmul and one 4x4 SVD call.
    """
    index = _block_index(tuple(_pair_perm(i, j) for i, j in pairs))
    blocks = states[:, index].reshape(-1, 4, 4)
    tau = np.matmul(blocks.transpose(0, 2, 1), np.matmul(SPIN_FLIP, blocks))
    lam = np.linalg.svd(tau, compute_uv=False)  # descending per row
    c = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return renyi_from_c_raw(np.minimum(c, 1.0), alpha).reshape(-1, len(pairs))


def batched_terms(states: np.ndarray, layout, alpha: float, k: int = 4):
    """Bipartite term (m,) and the first k pair terms (m, k) of each row of
    (m, 16) normalized amplitudes; the pairs are (a1b1, a2b2, a1b2, a2b1).

    Every step loops per matrix or per element, so row r depends only on
    states[r], never on m or k; the tests check this bit for bit.
    """
    a1, a2, b1, b2 = layout
    pairs = ((a1, b1), (a2, b2), (a1, b2), (a2, b1))[:k]
    return _bipartite(states, layout, alpha), _pair_terms(states, pairs, alpha)


def batched_ss(states: np.ndarray, layout, alpha: float) -> np.ndarray:
    """ss residual for each row of (m, 16) normalized amplitudes."""
    e_bip, pair = batched_terms(states, layout, alpha, 2)
    return e_bip - pair[:, 0] - pair[:, 1]


# Batch-of-one views over the kernels above. The package itself no longer
# calls them; they stay because the benchmark's span tracer
# (perfbench/run.py, make_tracer) wraps these names.

def pair_block(amps: np.ndarray, i: int, j: int) -> np.ndarray:
    return amps[_block_index((_pair_perm(i, j),))[0]].reshape(4, 4)


def pair_term(amps: np.ndarray, i: int, j: int, alpha: float) -> float:
    return float(_pair_terms(amps[None], ((i, j),), alpha)[0, 0])


def bipartite_term(amps: np.ndarray, a1: int, a2: int, b1: int, b2: int, alpha: float) -> float:
    return float(_bipartite(amps[None], (a1, a2, b1, b2), alpha)[0])


def ss_value(amps: np.ndarray, layout, alpha: float) -> float:
    return float(batched_ss(amps[None], layout, alpha)[0])


def renyi_from_c_scalar(c: float, alpha: float) -> float:
    return float(renyi_from_c_raw(c, alpha))


def _partial_transpose_det(rho: np.ndarray) -> np.ndarray:
    """det(rho^G) of each (m, 4, 4) Hermitian matrix, rho^G its partial
    transpose on the second qubit, by Laplace expansion in the 2x2 minors of
    rows (0, 1) and (2, 3). One gather and a few elementwise products cost
    about a third of np.linalg.det at scan chunk sizes."""
    e = rho.reshape(-1, 16)[:, _PT_MINORS]
    terms = (e[:, 0] * e[:, 1] - e[:, 2] * e[:, 3]) * (e[:, 4] * e[:, 5] - e[:, 6] * e[:, 7])
    return np.sum(terms.real * _PT_SIGNS, axis=1)


def _concurrences(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each (m, 4, 4) two-qubit density matrix, PPT
    rows screened out as batched_ckw_r2 describes."""
    m = rho.shape[0]
    rows = np.flatnonzero(_partial_transpose_det(rho) < SEPARABLE_DET)
    c = np.zeros(m)
    if rows.size:
        sel = slice(None) if rows.size == m else rows  # no gather when every row is entangled
        w, v = np.linalg.eigh(rho[sel])
        wfac = v * np.sqrt(np.maximum(w, 0.0))[:, None, :]
        tau = np.matmul(wfac.transpose(0, 2, 1), np.matmul(SPIN_FLIP, wfac))
        lam = np.linalg.svd(tau, compute_uv=False)
        c[sel] = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return c


def batched_ckw_r2(states: np.ndarray, n_qubits: int, focus: int = 0) -> np.ndarray:
    """CKW-style R2 monogamy residual per row of (m, 2^n) amplitudes.

    Bipartite side uses C^2(focus|rest) = 2(1 - Tr rho_focus^2); the pair side
    uses the spin-flip lambdas of each two-qubit reduction, computed as
    singular values of W^T S W from an eigendecomposition factor W so the
    zero modes stay at machine scale instead of sqrt(eps).

    Separable pairs skip the eigendecomposition and the SVD. A two-qubit rho
    is entangled iff its partial transpose rho^G has a negative eigenvalue
    (Peres-Horodecki criterion; Horodecki, Horodecki & Horodecki, PLA 223, 1
    (1996)). At most one eigenvalue of rho^G can be negative, so rho is
    entangled iff det(rho^G) < 0 (Augusiak, Demianowicz & Horodecki, PRA 77,
    030301 (2008)). No entry or eigenvalue of rho^G exceeds 1 in modulus, so
    the determinant's roundoff stays near 1e-15, and a computed det at or
    above SEPARABLE_DET proves det(rho^G) > 0: with at most one negative
    eigenvalue possible, all four are positive, the pair is separable and its
    concurrence is exactly 0. Every other row, det(rho^G) = 0 boundary states
    included, takes the SVD, which stays the only source of a nonzero
    concurrence. Every step works row by row, so row r still depends only on
    states[r].
    """
    m = states.shape[0]
    others = [q for q in range(n_qubits) if q != focus]
    t = states.reshape((m,) + (2,) * n_qubits)
    a = t.transpose((0, focus + 1) + tuple(q + 1 for q in others)).reshape(m, 2, -1)
    rho0 = np.matmul(a, a.conj().transpose(0, 2, 1))
    purity = np.sum(np.abs(rho0) ** 2, axis=(1, 2))
    c2_total = np.maximum(0.0, 2.0 * (1.0 - purity))
    residual = -np.log2(1.0 - 0.5 * c2_total)
    for i in others:
        rest = [q for q in range(n_qubits) if q not in (focus, i)]
        perm = (0, focus + 1, i + 1) + tuple(q + 1 for q in rest)
        k = t.transpose(perm).reshape(m, 4, -1)
        c = _concurrences(np.matmul(k, k.conj().transpose(0, 2, 1)))
        residual = residual + np.log2(1.0 - 0.5 * c * c)
    return residual
