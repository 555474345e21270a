"""40-digit reference for the residual terms, independent of numpy and LAPACK.

The Wootters lambdas of a pair come from `mp.svd_c` of tau = B^T S B and the
bipartite spectrum from `mp.eighe` of rho = B B^dagger, both at mp.dps = 40,
so their own error (about 1e-38) is far below the 1e-13 to 1e-14 bounds the
tests set for the double-precision kernels. Amplitudes are any sequence of
numbers `complex()` accepts; qubit 0 is the most significant bit.
"""
from mpmath import mp

DPS = 40
# sigma_y (x) sigma_y: antidiagonal (-1, 1, 1, -1)
_SPIN_FLIP = [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]


def _block(amps, rows, cols):
    """4x4 matrix of amplitudes with qubits `rows` as row index, `cols` as column index."""
    def index(r, c):
        bits = {rows[0]: r >> 1, rows[1]: r & 1, cols[0]: c >> 1, cols[1]: c & 1}
        return sum(bits[q] << (3 - q) for q in range(4))

    return mp.matrix([[mp.mpc(complex(amps[index(r, c)])) for c in range(4)] for r in range(4)])


def spin_flip_lambdas(block):
    """Descending Wootters lambdas of rho = B B^dagger for a 4x4 factor B."""
    with mp.workdps(DPS):
        b = block if isinstance(block, mp.matrix) else mp.matrix(
            [[mp.mpc(complex(x)) for x in row] for row in block]
        )
        tau = b.T * mp.matrix(_SPIN_FLIP) * b
        return sorted(mp.svd_c(tau, compute_uv=False), reverse=True)


def concurrence(lam):
    return max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


def renyi_from_c(c, alpha):
    """Renyi entropy in bits of (x, 1 - x), x = (1 + sqrt(1 - c^2))/2."""
    with mp.workdps(DPS):
        x = (1 + mp.sqrt(max(mp.mpf(0), 1 - c * c))) / 2
        return entropy([x, 1 - x], alpha)


def entropy(w, alpha):
    """Renyi entropy in bits of the probabilities w; alpha = 1 is von Neumann."""
    with mp.workdps(DPS):
        w = [max(mp.mpf(0), mp.re(x)) for x in w]
        if alpha == 1:
            return -sum(x * mp.log(x, 2) for x in w if x > 0)
        a = mp.mpf(alpha)
        return mp.log(sum(x**a for x in w if x > 0), 2) / (1 - a)


def bipartite_spectrum(amps, layout):
    """Eigenvalues of the (a1, a2) reduction of a 4-qubit state."""
    a1, a2, b1, b2 = layout
    with mp.workdps(DPS):
        b = _block(amps, (a1, a2), (b1, b2))
        return list(mp.eighe(b * b.H, eigvals_only=True))


def pair_lambdas(amps, i, j):
    """Wootters lambdas of the (i, j) reduction of a 4-qubit state."""
    rest = [q for q in range(4) if q not in (i, j)]
    with mp.workdps(DPS):
        return spin_flip_lambdas(_block(amps, (i, j), rest))


def terms(amps, layout, alphas):
    """{alpha: (bipartite term, [pair terms a1b1, a2b2, a1b2, a2b1, a1a2,
    b1b2])}, the order of terms_table with k = 6; the spectra are computed
    once for every alpha.

    Every term is that of the normalized state, as the kernels assume: a
    float state's norm misses 1 by about 1e-16, which the Renyi entropy
    divides by 1 - alpha (1e-13 at alpha = 1.002). So the spectrum is scaled
    to sum to 1, and each concurrence, which is linear in rho, is divided by
    the same norm^2, the unscaled spectrum's sum."""
    a1, a2, b1, b2 = layout
    spectrum = bipartite_spectrum(amps, layout)
    pairs = ((a1, b1), (a2, b2), (a1, b2), (a2, b1), (a1, a2), (b1, b2))
    with mp.workdps(DPS):
        norm2 = mp.fsum(spectrum)
        spectrum = [x / norm2 for x in spectrum]
        c = [concurrence(pair_lambdas(amps, i, j)) / norm2 for i, j in pairs]
    return {alpha: (entropy(spectrum, alpha), [renyi_from_c(x, alpha) for x in c]) for alpha in alphas}
