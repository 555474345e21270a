"""Reference evaluator for the SS and two-pair monogamy residuals.

It shares no code with ssmono and takes a different numeric route:

- reduced density matrices come from an einsum over the state tensor;
- the concurrence follows Wootters' original recipe: square roots of the
  eigenvalues of rho @ rho~, with rho~ = (Y x Y) rho* (Y x Y), from a general
  (non-Hermitian) eigensolver;
- Renyi entropies come from eigvalsh of the reduction;
- the two-qubit measure is the closed form in c: the Renyi entropy of
  (x, 1 - x) with x = (1 + sqrt(1 - c^2)) / 2.

The square root in Wootters' recipe turns eigenvalue roundoff of order eps into
lambda noise of order sqrt(eps) ~ 1.5e-8 on every zero mode. Three zero modes
enter c, and the measure's slope in c is at most 3 (alpha = 2, c = 1), so a pair
term can be off by about 1.4e-7 and the monogamy residual (four pair terms) by
about 5.4e-7. TOLERANCE covers that with a little room; it is an absolute
tolerance on residuals and terms in bits.

Qubit 0 is the most significant bit of the basis index.
"""
from __future__ import annotations

import string

import numpy as np

TOLERANCE = 1e-6

_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_Y, _Y)
_LETTERS = string.ascii_letters


def reduced_density(psi, keep) -> np.ndarray:
    """Density matrix of the qubits in `keep` (in that order), the rest traced out."""
    amps = np.asarray(psi, dtype=complex).reshape(-1)
    n = amps.size.bit_length() - 1
    tensor = amps.reshape((2,) * n)
    ket = list(_LETTERS[:n])
    bra = list(ket)
    for q in keep:
        bra[q] = _LETTERS[n + q]
    out = "".join(ket[q] for q in keep) + "".join(bra[q] for q in keep)
    rho = np.einsum(f"{''.join(ket)},{''.join(bra)}->{out}", tensor, tensor.conj())
    dim = 2 ** len(keep)
    return rho.reshape(dim, dim)


def concurrence(rho) -> float:
    """Wootters concurrence: max(0, l1 - l2 - l3 - l4), li = sqrt(eig(rho rho~)) descending."""
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _YY @ rho.conj() @ _YY
    mu = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _renyi_of_probabilities(p, alpha: float) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    if alpha == 1.0:
        return float(-np.sum(p * np.log2(p)))
    return float(np.log2(np.sum(p ** alpha)) / (1.0 - alpha))


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi alpha-entropy in bits from the eigenvalues of rho; alpha = 1 is von Neumann."""
    w = np.clip(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)), 0.0, None)
    return _renyi_of_probabilities(w, alpha)


def pair_measure(c: float, alpha: float) -> float:
    """Two-qubit measure as a closed form in the concurrence c."""
    x = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c)))
    return _renyi_of_probabilities([x, 1.0 - x], alpha)


def pair_entanglement(psi, i: int, j: int, alpha: float) -> float:
    return pair_measure(concurrence(reduced_density(psi, (i, j))), alpha)


def residuals(psi, layout=(0, 1, 2, 3), alpha: float = 2.0) -> dict:
    """Every term of the SS and two-pair monogamy inequalities for a 4-qubit state."""
    a1, a2, b1, b2 = layout
    terms = {
        "e_bipartite": renyi_entropy(reduced_density(psi, (a1, a2)), alpha),
        "e_a1b1": pair_entanglement(psi, a1, b1, alpha),
        "e_a2b2": pair_entanglement(psi, a2, b2, alpha),
        "e_a1b2": pair_entanglement(psi, a1, b2, alpha),
        "e_a2b1": pair_entanglement(psi, a2, b1, alpha),
    }
    ss = terms["e_bipartite"] - terms["e_a1b1"] - terms["e_a2b2"]
    terms["ss_residual"] = ss
    terms["monogamy_residual"] = ss - terms["e_a1b2"] - terms["e_a2b1"]
    return terms
