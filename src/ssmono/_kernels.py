"""Numeric kernels shared by the public measures, the search loop, and the scanner.

Everything here operates on raw, already-validated amplitude arrays. Every
residual term goes through one batched kernel, `batched_terms`, whose rows do
not depend on the batch size, so the objective value driving an acceptance is
bit-identical to the value stored in the trace and to a later batch-of-one
`residual_report`. Every singular value, and with it every Wootters lambda
and every bipartite spectrum at alpha != 2, comes from one compiled 4x4
kernel, sv4 in `_svd4.c`, built on first import: through `singular_values4`,
and inside the same library's ckw_r2, which computes `batched_ckw_r2` row by row.
"""
from __future__ import annotations

import ctypes
import functools
import os
import shlex
import subprocess
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

LN2 = float(np.log(2.0))
ALPHA_ONE_TOL = 1e-9
# det(rho^G) at or above this proves a two-qubit pair PPT, so separable (batched_ckw_r2)
SEPARABLE_DET = 1e-12
# qubit counts batched_ckw_r2 takes: _svd4.c's ckw_r2 holds each pair matrix
# in fixed buffers of 2^(8-2) columns; linalg.MAX_QUBITS is the same 8
_CKW_QUBITS = range(3, 9)

# plain -O2: no -march or -ffast-math, and no multiply-adds fused by the
# compiler, so every build computes the same bits (the source's explicit fma()
# calls are correctly rounded on every machine)
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler() -> list:
    """The C compiler Python was built with, as an argument list."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _load_svd4() -> ctypes.CDLL:
    """Compile _svd4.c with the C compiler Python was built with, once per source
    and flags, into __pycache__ under a name keyed by their hash, and load it.

    The library is written under a temporary name and renamed into place, so
    a process importing concurrently never loads a partial file.
    """
    source = Path(__file__).with_name("_svd4.c")
    compiler = _compiler()
    # CRC-32, not hashlib: importing hashlib maps OpenSSL, 3.5 MiB of RSS
    key = zlib.crc32(source.read_bytes() + " ".join(compiler + list(_CFLAGS)).encode())
    cache = Path(__file__).with_name("__pycache__")
    target = cache / f"_svd4-{key:08x}{sysconfig.get_config_var('EXT_SUFFIX') or '.so'}"
    if not target.exists():
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix="_svd4-", suffix=".tmp")
        os.close(fd)
        command = compiler + list(_CFLAGS) + ["-o", tmp, str(source), "-lm"]
        try:
            try:
                built = subprocess.run(command, capture_output=True, text=True)
            except OSError as exc:
                raise ImportError(f"ssmono needs a C compiler: {shlex.join(command)} failed: {exc}") from exc
            if built.returncode != 0:
                raise ImportError(
                    f"ssmono needs a C compiler: {shlex.join(command)} exited {built.returncode}:\n"
                    f"{built.stderr.strip()}"
                )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(target))
    lib.svd4.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t)
    lib.svd4.restype = None
    lib.ckw_r2.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.ckw_r2.restype = None
    return lib


_SVD4 = _load_svd4()


def singular_values4(a: np.ndarray) -> np.ndarray:
    """Descending singular values (..., 4) of each matrix of a complex128
    (..., 4, 4) array, by one-sided Jacobi one matrix at a time (_svd4.c)."""
    if not isinstance(a, np.ndarray) or a.dtype != np.complex128 or a.ndim < 2 or a.shape[-2:] != (4, 4):
        raise ValueError(
            f"need a complex128 array of 4x4 matrices, got {getattr(a, 'dtype', type(a).__name__)} "
            f"{getattr(a, 'shape', '')}"
        )
    a = np.ascontiguousarray(a)
    out = np.empty(a.shape[:-1])
    _SVD4.svd4(a.ctypes.data, out.ctypes.data, a.size // 16)
    return out


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


def spin_flip_lambdas(blocks: np.ndarray) -> np.ndarray:
    """Wootters lambdas of rho = B B^dagger for each (..., 4, 4) factor B, descending.

    They are the singular values of tau = B^T S B (S the spin flip), which
    equal the square roots of the eigenvalues of rho rho~ on the nonzero part.
    With r_i the rows of B, tau = D + D^T for D = r_1 (x) r_2 - r_0 (x) r_3:
    elementwise outer products, a third of the cost of two stacked matmuls.
    """
    r = [blocks[..., i, :] for i in range(4)]
    d = r[1][..., :, None] * r[2][..., None, :] - r[0][..., :, None] * r[3][..., None, :]
    return singular_values4(d + np.swapaxes(d, -1, -2))


def _bipartite(states: np.ndarray, layout, alpha: float) -> np.ndarray:
    """Renyi entropy of the (a1, a2) reduction for each row of (m, 16) amplitudes.

    rho = B B^dagger for the 4x4 amplitude block B, so its spectrum is sv(B)^2.
    """
    blocks = states[:, _block_index((tuple(layout),))[0]].reshape(-1, 4, 4)
    if alpha == 2.0:
        rho = np.matmul(blocks, blocks.conj().transpose(0, 2, 1))
        return -np.log2(np.sum(np.abs(rho) ** 2, axis=(1, 2)))
    return entropy_from_eigs_raw(singular_values4(blocks) ** 2, alpha)


def _pair_terms(states: np.ndarray, pairs, alpha: float) -> np.ndarray:
    """(m, k) entanglement of the k two-qubit reductions `pairs` of each row.

    All m*k pair blocks go through one spin_flip_lambdas call.
    """
    index = _block_index(tuple(_pair_perm(i, j) for i, j in pairs))
    lam = spin_flip_lambdas(states[:, index].reshape(-1, 4, 4))
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


@functools.lru_cache(maxsize=64)
def _pair_index(n_qubits: int, focus: int) -> np.ndarray:
    """(n-1, 4, 2^(n-2)) flat amplitude index: entry p is the pair matrix of
    (focus, p-th other qubit), its row the two qubits' bits, for _svd4.c's ckw_r2."""
    flat = np.arange(2**n_qubits).reshape((2,) * n_qubits)
    others = [q for q in range(n_qubits) if q != focus]
    index = np.stack([
        flat.transpose([focus, i] + [q for q in others if q != i]).reshape(4, -1) for i in others
    ]).astype(np.intp)
    index.flags.writeable = False  # shared by every caller through the cache
    return index


def _ckw_r2(states: np.ndarray, n_qubits: int, focus: int, separable_det: float):
    """batched_ckw_r2 with its PPT screen at `separable_det`: the (m,) residuals
    and each pair's Wootters lambdas (m, n-1, 4), zeros where the screen skipped
    the pair."""
    if not (isinstance(n_qubits, (int, np.integer)) and n_qubits in _CKW_QUBITS):
        raise ValueError(f"n_qubits must be an integer in 3..{_CKW_QUBITS[-1]}, got {n_qubits!r}")
    if not (isinstance(focus, (int, np.integer)) and 0 <= focus < n_qubits):
        raise ValueError(f"focus qubit {focus!r} out of range for {n_qubits} qubits")
    if not (isinstance(states, np.ndarray) and states.dtype == np.complex128 and states.ndim == 2
            and states.shape[1] == 2**n_qubits):
        raise ValueError(
            f"need a complex128 (m, {2**n_qubits}) array, got "
            f"{getattr(states, 'dtype', type(states).__name__)} {getattr(states, 'shape', '')}"
        )
    states = np.ascontiguousarray(states)
    index = _pair_index(int(n_qubits), int(focus))
    out = np.empty(states.shape[0])
    lambdas = np.empty((states.shape[0], n_qubits - 1, 4))
    _SVD4.ckw_r2(
        states.ctypes.data, index.ctypes.data, states.shape[0], int(n_qubits), float(separable_det),
        out.ctypes.data, lambdas.ctypes.data,
    )
    return out, lambdas


def batched_ckw_r2(states: np.ndarray, n_qubits: int, focus: int = 0) -> np.ndarray:
    """CKW-style R2 monogamy residual per row of complex128 (m, 2^n) amplitudes,
    n in _CKW_QUBITS, computed row by row by _svd4.c's ckw_r2.

    Bipartite side uses C^2(focus|rest) = 2(1 - Tr rho_focus^2); the pair side
    uses the spin-flip lambdas of each two-qubit reduction rho, computed as
    singular values of B^T S B from a 4x4 factor rho = B B^dagger, so the zero
    modes stay at machine scale instead of sqrt(eps): the pair's own 4 x 2^(n-2)
    amplitude matrix k, zero-padded, for n <= 4, and beyond that R^dagger from
    a Householder QR k^dagger = QR, which is backward stable.

    Separable pairs skip the factor and the singular values. A two-qubit rho
    is entangled iff its partial transpose rho^G has a negative eigenvalue
    (Peres-Horodecki criterion; Horodecki, Horodecki & Horodecki, PLA 223, 1
    (1996)). At most one eigenvalue of rho^G can be negative, so rho is
    entangled iff det(rho^G) < 0 (Augusiak, Demianowicz & Horodecki, PRA 77,
    030301 (2008)). No entry or eigenvalue of rho^G exceeds 1 in modulus, so
    the determinant's roundoff stays near 1e-15, and a computed det at or
    above SEPARABLE_DET proves det(rho^G) > 0: with at most one negative
    eigenvalue possible, all four are positive, the pair is separable and its
    concurrence is exactly 0. Every other row, det(rho^G) = 0 boundary states
    included, takes the lambdas, which stay the only source of a nonzero
    concurrence. Row r depends only on states[r].
    """
    return _ckw_r2(states, n_qubits, focus, SEPARABLE_DET)[0]
