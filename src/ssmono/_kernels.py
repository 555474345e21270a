"""Numeric kernels shared by the public measures, the search loop, and the scanner.

Every number here comes from one compiled library, `_svd4.c`, built on first
import and called through ctypes wrappers that refuse bad input before a
pointer reaches C. Every 4x4 singular value, the Wootters lambdas included,
comes from one routine, sv4w, which runs eight matrices in lockstep; a
matrix's bits never depend on the other seven, so no result depends on the
batch. There is one path for each quantity:

- `terms_table`: the bipartite term and the pair terms of each 4-qubit row,
  then the ss and mono residuals they complete (terms in _svd4.c). Row r
  depends only on states[r], so the objective value driving an acceptance is
  bit-identical to the value stored in the trace and to a later batch-of-one
  `residual_report`, and `fingerprint_terms` gives the archive fingerprint
  from the same kernel and amplitude blocks;
- `batched_ckw_r2`: the CKW-R2 residual of 3..8-qubit rows (ckw_r2);
- the scans' cut, in `terms_table` at k = 2 and in `batched_ckw_r2`: a
  lower bound on a row's residual from the rho of its blocks alone (the cut
  and c_bound in _svd4.c), which a row returns in place of its value when
  the bound shows that it cannot change a `search.haar_minimum` chunk's result;
- `singular_values4`, `spin_flip_lambdas`, `renyi_from_c` and
  `renyi_entropies`: the same library's 4x4 singular values (sv4w), Wootters
  lambdas (spin_flip4) and Renyi maps, which the two kernels above use inside
  C and `measures.concurrence`, `renyi_entropy` and `renyi_from_concurrence`,
  the measures of a mixed rho, call from Python;
- `displace`: normalize(start + delta z[r]) for each row of z (displace):
  the proposals of the descent and `sampler.perturb_within`, with the bits of
  the numpy expression it replaced;
- `unit_rows`: the random unit rows of the noise and of the scans, a block
  of normals made complex and normalized (unit_rows), read in place through
  a row stride in either of two layouts: `sampler.unit_noise`'s (m, 2, dim)
  block for the noise rows z, and the (2, m, dim) block of a
  `search.haar_minimum` chunk, the real parts and then the imaginary parts,
  with its first two axes swapped for the Haar states; with the bits of the
  numpy expression it replaced;
- `walk`: the region walk's chain of those steps, each from the one before,
  scored as it is built (walk), until the first row outside the region: the
  chain's bits are those of one-row `displace` calls, and its table is the
  rows of `terms_table`.
"""
from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
import shlex
import subprocess
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

ALPHA_ONE_TOL = 1e-9
# det(rho^G) at or above this proves a two-qubit pair PPT, so separable
# (batched_ckw_r2, and terms_table's pairs after a1b1 and a2b2)
SEPARABLE_DET = 1e-12
# terms_table's pairs in its order: each name and its two roles in the layout (a1, a2, b1, b2)
TERM_PAIRS = (("a1b1", (0, 2)), ("a2b2", (1, 3)), ("a1b2", (0, 3)),
              ("a2b1", (1, 2)), ("a1a2", (0, 1)), ("b1b2", (2, 3)))
# dtypes, not types, so that == converts nothing
_COMPLEX128, _FLOAT64 = np.dtype(np.complex128), np.dtype(np.float64)
# qubit counts batched_ckw_r2 takes: _svd4.c's ckw_r2 holds each pair matrix
# in fixed buffers of 2^(8-2) columns; linalg.MAX_QUBITS is the same 8
_CKW_QUBITS = range(3, 9)

# plain -O2: no -march or -ffast-math, and no multiply-adds fused by the
# compiler, so every build computes the same bits (the source's explicit fma()
# calls are correctly rounded on every machine, and run as FMA instructions
# where the processor has them: FMA_CLONES in _svd4.c); -fno-math-errno only
# drops the errno check after each sqrt, which IEEE rounds correctly either way
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


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
    for name in ("svd4", "lambdas"):
        getattr(lib, name).argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t)
    lib.renyi_of_c.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double)
    lib.renyi_of_spectra.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_double,
    )
    lib.terms.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.ckw_r2.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.displace.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p,
    )
    lib.walk.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.unit_rows.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p,
    )
    lib.walk.restype = ctypes.c_ssize_t
    for name in ("svd4", "lambdas", "renyi_of_c", "renyi_of_spectra", "terms", "ckw_r2", "displace", "unit_rows"):
        getattr(lib, name).restype = None
    return lib


_SVD4 = _load_svd4()


def _checked_complex(a, lead: int, tail: tuple, what: str) -> np.ndarray:
    """The package's one check of an array handed to C: a as C-contiguous
    complex128 with a.shape[lead:] == tail and at least lead dimensions (lead
    < 0: any number), or ValueError naming what was expected, what.format(*tail)."""
    if not (isinstance(a, np.ndarray) and a.dtype == _COMPLEX128 and a.shape[lead:] == tail and a.ndim >= lead):
        got = f"{getattr(a, 'dtype', type(a).__name__)} {getattr(a, 'shape', '')}"
        raise ValueError(f"need a complex128 {what.format(*tail)}, got {got}")
    return np.ascontiguousarray(a)


def _cut_address(cut):
    """The address of a cut for _svd4.c (None: no cut, NULL): a writable
    float64 array [least, threshold], whose least the kernel lowers to each
    value it scores; or ValueError."""
    if cut is None:
        return None
    if not (isinstance(cut, np.ndarray) and cut.dtype == _FLOAT64 and cut.shape == (2,)
            and cut.flags.c_contiguous and cut.flags.writeable):
        raise ValueError(f"cut must be a writable float64 array [least, threshold], got {cut!r}")
    return cut.ctypes.data


def singular_values4(a: np.ndarray) -> np.ndarray:
    """Descending singular values (..., 4) of each matrix of a complex128
    (..., 4, 4) array, by one-sided Jacobi on eight matrices in lockstep
    (sv4w in _svd4.c); each matrix's values are those it gets on its own."""
    a = _checked_complex(a, -2, (4, 4), "array of 4x4 matrices")
    out = np.empty(a.shape[:-1])
    _SVD4.svd4(a.ctypes.data, out.ctypes.data, a.size // 16)
    return out


def _real(value) -> float:
    """value as a float if it is a real number other than a bool, else NaN,
    which every range check below refuses; an integer beyond float range is inf."""
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def normalize_alpha(alpha) -> float:
    """The package's one check of the Renyi order: a real number, not a string
    or a bool, finite and >= 1 - ALPHA_ONE_TOL; returned as a float, snapped to
    exactly 1 (the von Neumann branch) within ALPHA_ONE_TOL."""
    if 1.0 - ALPHA_ONE_TOL <= (a := _real(alpha)) < math.inf:  # False for NaN too
        return 1.0 if a - 1.0 < ALPHA_ONE_TOL else a
    raise ValueError(f"alpha must be a real number >= 1, got {alpha!r}")


def checked_delta(value, what: str = "delta") -> float:
    """The package's one check of a step length: a real number, not a string
    or a bool, finite and > 0; returned as a float, or ValueError."""
    if 0.0 < (d := _real(value)) < math.inf:  # False for NaN too
        return d
    raise ValueError(f"{what} must be finite and positive, got {value!r}")


def checked_index(value, what: str) -> int:
    """value as an int: an integer type other than bool, or ValueError."""
    if type(value) not in (bool, np.bool_) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def checked_layout(layout) -> tuple:
    """The package's one check of a pairing layout (a1, a2, b1, b2): a
    permutation of 0..3 whose roles are integers, returned as a tuple of
    ints, or ValueError."""
    why = ""
    try:
        roles = tuple(checked_index(q, "a layout role") for q in layout)
    except (TypeError, ValueError) as exc:
        roles, why = (), f": {exc}"
    if sorted(roles) != [0, 1, 2, 3]:
        raise ValueError(f"layout must be a permutation of 0..3, got {layout!r}{why}")
    return roles


def _reals(x, what: str) -> np.ndarray:
    """x as a C-contiguous float64 array; strings, complex numbers and objects are refused."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got {x.dtype}")
    return np.asarray(x, dtype=float, order="C")


def renyi_from_c(c, alpha) -> np.ndarray:
    """The two-qubit measure of each concurrence c in [0, 1] (not checked):
    the Renyi entropy in bits of (x, 1 - x), x = (1 + sqrt(1 - c^2))/2."""
    c = _reals(c, "concurrences")
    alpha = normalize_alpha(alpha)
    out = np.empty(c.shape)
    _SVD4.renyi_of_c(c.ctypes.data, out.ctypes.data, c.size, alpha)
    return out


def renyi_entropies(w, alpha) -> np.ndarray:
    """Renyi entropy in bits of each row of eigenvalues (..., n); entries
    <= 0 add nothing."""
    w = _reals(w, "eigenvalues")
    if w.ndim == 0:
        raise ValueError("need eigenvalue rows, got a scalar")
    alpha = normalize_alpha(alpha)
    out = np.empty(w.shape[:-1])
    _SVD4.renyi_of_spectra(w.ctypes.data, out.ctypes.data, out.size, w.shape[-1], alpha)
    return out


def _pair_perm(i: int, j: int) -> tuple[int, ...]:
    rest = [q for q in range(4) if q not in (i, j)]
    return (i, j, rest[0], rest[1])


def _block_index(perms: tuple) -> np.ndarray:
    """Flat gather index (len(perms), 16): row p reads the 4x4 block of
    amplitudes with qubits perms[p][:2] as the row index."""
    flat = np.arange(16, dtype=np.intp).reshape(2, 2, 2, 2)
    return np.stack([flat.transpose(perm).reshape(16) for perm in perms])


@functools.lru_cache(maxsize=128)
def _terms_index(layout: tuple, k: int) -> tuple:
    """The blocks _svd4.c's terms reads, (1 + k, 16): the (a1 a2 | b1 b2) cut,
    then the first k of TERM_PAIRS; and its address, which stays valid while
    the cache holds the array."""
    pairs = tuple(_pair_perm(layout[i], layout[j]) for _, (i, j) in TERM_PAIRS[:k])
    index = _block_index((layout,) + pairs)
    index.flags.writeable = False  # shared by every caller through the cache
    return index, index.ctypes.data


def spin_flip_lambdas(blocks: np.ndarray) -> np.ndarray:
    """Wootters lambdas (..., 4) of rho = B B^dagger for each complex128
    (..., 4, 4) factor B, descending: the singular values of tau = B^T S B
    (S the spin flip), the square roots of the eigenvalues of rho rho~ on its
    nonzero part, from _svd4.c's spin_flip4."""
    blocks = _checked_complex(blocks, -2, (4, 4), "array of 4x4 matrices")
    out = np.empty(blocks.shape[:-1])
    _SVD4.lambdas(blocks.ctypes.data, out.ctypes.data, blocks.size // 16)
    return out


def terms_table(states: np.ndarray, layout, alpha: float, k: int = 4, separable_det: float = SEPARABLE_DET,
                cut=None):
    """Each row of complex128 (m, 16) normalized amplitudes as a row of
    _svd4.c's terms: the bipartite term, the first k pair terms, then ss when
    k >= 2 and mono when k >= 4, so that at k = 4 it is a residual_table row.
    The pairs are TERM_PAIRS of the layout (a1, a2, b1, b2), a permutation
    of 0..3: the residuals' four, then the two only the fingerprint stores.
    Row r depends only on states[r], never on m, k or the strides; the tests
    check this bit for bit.

    The pairs after a1b1 and a2b2 take batched_ckw_r2's PPT screen: one with
    det(rho^G) >= separable_det (+inf screens none) is separable, its term is
    that of c = 0, and it skips the spin-flip singular values. Near a
    violation this is the common case: the paper's violating states have
    symmetries that make E(a1b2) = E(a2b1) = 0, so the SS and monogamy
    residuals agree there. The screened terms are the unscreened ones bit for
    bit; the tests check this on Haar, walk and boundary states.

    At k = 2 a cut, a writable float64 array [least, threshold], lets a row
    whose lower bound on ss exceeds max(least, threshold) skip its spin-flip
    singular values: its row holds the bound's terms and the bound, less a
    margin for rounding (the cut in _svd4.c). Every other row is scored as
    without the cut, bit for bit, and least is lowered to its ss. So the count
    below threshold, the least ss and its first row of a run of calls sharing
    one cut are those of scoring every row. Above alpha = 2 there is no bound,
    and every row is scored.
    """
    states = _checked_complex(states, 1, (16,), "(m, {}) array")
    roles = checked_layout(layout)
    if not 1 <= (k := checked_index(k, "k")) <= 6:
        raise ValueError(f"k must be an integer in 1..6, got {k!r}")
    alpha = normalize_alpha(alpha)
    if cut is not None and k != 2:
        raise ValueError(f"a cut needs k = 2, got k = {k}")
    _, index = _terms_index(roles, k)
    out = np.empty((states.shape[0], 1 + k + (k >= 2) + (k >= 4)))  # one buffer: an address costs about 2 us
    _SVD4.terms(
        states.ctypes.data, index, states.shape[0], k, alpha, float(separable_det), _cut_address(cut), out.ctypes.data,
    )
    return out


def fingerprint_terms(states: np.ndarray, layout, alpha: float) -> tuple:
    """The six pair terms (m, 6) of terms_table, and the descending spectra
    (m, 3, 4) of the a1a2, a1b1 and a2b2 reductions: the squared singular
    values of the first three blocks terms_table reads."""
    pairs = terms_table(states, layout, alpha, 6)[:, 1:7]  # checks every argument
    index, _ = _terms_index(tuple(map(operator.index, layout)), 6)
    return pairs, singular_values4(states[:, index[:3]].reshape(-1, 3, 4, 4)) ** 2


def displace(start: np.ndarray, delta: float, z: np.ndarray) -> np.ndarray:
    """normalize(start + delta * z[r]) for each row of the complex128 (m, dim)
    array z, dim the length of the complex128 vector start; delta is a finite
    positive real.

    _svd4.c's displace takes numpy's operations in numpy's order, so a row has
    the bits of `c = start + delta * z[r]; c / np.linalg.norm(c, axis=-1,
    keepdims=True)`, whatever m; the tests keep that expression as the oracle.
    """
    delta = checked_delta(delta)
    start = _checked_complex(start, 1, (), "start vector")
    z = _checked_complex(z, 1, start.shape, "(m, {}) array")
    out = np.empty_like(z)
    _SVD4.displace(start.ctypes.data, z.ctypes.data, z.shape[0], z.shape[1], delta, out.ctypes.data)
    return out


def unit_rows(g: np.ndarray) -> np.ndarray:
    """The complex128 (m, dim) unit rows of a float64 (m, 2, dim) block of
    normals: row r is g[r, 0] + 1j * g[r, 1], normalized.

    g is read in place when each of its rows is contiguous, as in
    sampler.unit_noise's block and in a scan chunk's (2, m, dim) block, or a
    row range of it, with its first two axes swapped; it is copied first
    otherwise. _svd4.c's unit_rows takes numpy's operations in numpy's order,
    so a row has the bits of `z = g[:, 0] + 1j * g[:, 1]; z /
    np.linalg.norm(z, axis=-1, keepdims=True)` where numpy fuses its complex
    products, as on FMA hardware; the tests keep that expression as the oracle.
    """
    if not (isinstance(g, np.ndarray) and g.dtype == _FLOAT64 and g.ndim == 3 and g.shape[1] == 2):
        raise ValueError(f"need a float64 (m, 2, dim) array, got {getattr(g, 'dtype', type(g).__name__)} "
                         f"{getattr(g, 'shape', '')}")
    if not (g.flags.aligned and g.strides[2] == g.itemsize):
        g = np.ascontiguousarray(g)
    out = np.empty((g.shape[0], g.shape[2]), dtype=_COMPLEX128)
    _SVD4.unit_rows(g.ctypes.data, g.ctypes.data + g.strides[1], g.strides[0] // g.itemsize, g.shape[0], g.shape[2],
                    out.ctypes.data)
    return out


def walk(start: np.ndarray, delta: float, z: np.ndarray, layout, alpha: float, threshold: float):
    """The region walk's next run of visits from the complex128 4-qubit state
    start along the complex128 (m, 16) steps z: row r of the chain is where
    r + 1 accepted steps lead, normalize(base + delta * z[r]) with base start,
    then the row before, with the bits of a one-row `displace` from that base.
    Each row is scored by `terms_table` at k = 4, as `measures.residual_table`
    scores it (the bipartite term, the four pair terms, ss, mono), and the
    walk stops at the first row whose ss is not below threshold; a NaN is not
    below.

    Returns (kept, chain, table): kept is that row's index, or m if every row
    stays below, and chain (n, 16) and table (n, 7) hold the rows up to and
    including it, n = min(kept + 1, m). _svd4.c's walk builds and scores
    eight rows at a time, so rows past the stop are not computed.
    """
    delta = checked_delta(delta)
    start = _checked_complex(start, 0, (16,), "start vector of length {}")
    z = _checked_complex(z, 1, (16,), "(m, {}) array")
    _, index = _terms_index(checked_layout(layout), 4)
    alpha = normalize_alpha(alpha)
    if math.isnan(bound := _real(threshold)):
        raise ValueError(f"threshold must be a real number, got {threshold!r}")
    chain, table = np.empty_like(z), np.empty((z.shape[0], 7))
    kept = _SVD4.walk(
        start.ctypes.data, z.ctypes.data, z.shape[0], delta, index, alpha, SEPARABLE_DET, bound,
        chain.ctypes.data, table.ctypes.data,
    )
    n = min(kept + 1, z.shape[0])
    return kept, chain[:n], table[:n]


def batched_ss(states: np.ndarray, layout, alpha: float, cut=None) -> np.ndarray:
    """ss residual for each row of (m, 16) normalized amplitudes, from the two
    pair terms it needs; a row that a cut skips holds its lower bound
    (terms_table)."""
    return terms_table(states, layout, alpha, 2, cut=cut)[:, 3]


# Batch-of-one views over the kernels above. The package itself no longer
# calls them; they stay because the benchmark's span tracer
# (perfbench/run.py, make_tracer) wraps these names.

def pair_block(amps: np.ndarray, i: int, j: int) -> np.ndarray:
    return amps[_block_index((_pair_perm(i, j),))[0]].reshape(4, 4)


def pair_term(amps: np.ndarray, i: int, j: int, alpha: float) -> float:
    a2, b2 = (q for q in range(4) if q not in (i, j))
    return float(terms_table(amps[None], (i, a2, j, b2), alpha, 1)[0, 1])


def bipartite_term(amps: np.ndarray, a1: int, a2: int, b1: int, b2: int, alpha: float) -> float:
    return float(terms_table(amps[None], (a1, a2, b1, b2), alpha, 1)[0, 0])


def ss_value(amps: np.ndarray, layout, alpha: float) -> float:
    return float(batched_ss(amps[None], layout, alpha)[0])


def renyi_from_c_scalar(c: float, alpha: float) -> float:
    return float(renyi_from_c(c, alpha))


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


def _ckw_r2(states: np.ndarray, n_qubits: int, focus: int, separable_det: float, cut=None):
    """batched_ckw_r2 with its PPT screen at `separable_det`: the (m,) residuals
    and each pair's Wootters lambdas (m, n-1, 4), zeros where the screen or the
    cut skipped the pair."""
    if (n_qubits := checked_index(n_qubits, "n_qubits")) not in _CKW_QUBITS:
        raise ValueError(f"n_qubits must be an integer in 3..{_CKW_QUBITS[-1]}, got {n_qubits!r}")
    if not 0 <= (focus := checked_index(focus, "focus qubit")) < n_qubits:
        raise ValueError(f"focus qubit {focus!r} out of range for {n_qubits} qubits")
    states = _checked_complex(states, 1, (2**n_qubits,), "(m, {}) array")
    index = _pair_index(n_qubits, focus)
    out = np.empty(states.shape[0])
    lambdas = np.empty((states.shape[0], n_qubits - 1, 4))
    _SVD4.ckw_r2(
        states.ctypes.data, index.ctypes.data, states.shape[0], n_qubits, float(separable_det), _cut_address(cut),
        out.ctypes.data, lambdas.ctypes.data,
    )
    return out, lambdas


def batched_ckw_r2(states: np.ndarray, n_qubits: int, focus: int = 0, cut=None) -> np.ndarray:
    """CKW-style R2 monogamy residual per row of complex128 (m, 2^n) amplitudes,
    n in _CKW_QUBITS, computed by _svd4.c's ckw_r2 two rows at a time in
    lockstep, each row with the bits it gets on its own.

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

    A cut works as in terms_table: a row whose lower bound exceeds
    max(least, threshold) skips its QR and singular values and holds the
    bound; every other row keeps its bits and lowers least. A row with a NaN
    or an infinite amplitude scores NaN, as in terms_table, and no cut skips it.
    """
    return _ckw_r2(states, n_qubits, focus, SEPARABLE_DET, cut)[0]
