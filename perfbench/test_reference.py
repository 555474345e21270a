"""The reference evaluator against closed forms.

Run with: python3 -m pytest perfbench/test_reference.py
"""
import math

import numpy as np
import pytest

import reference

# pure-state pair reductions have zero modes, so lambdas carry sqrt(eps) noise
PURE_TOL = 1e-7
# Werner states are full rank below p = 1: no zero modes, no sqrt noise floor
MIXED_TOL = 1e-12
ALPHAS = (1.0, 1.002, 1.2, 1.5, 2.0, 3.0)


def basis(n, *indices):
    psi = np.zeros(2 ** n, dtype=complex)
    psi[list(indices)] = 1.0
    return psi / np.linalg.norm(psi)


def bell_product():
    """Bell pairs on qubits (0, 2) and (1, 3)."""
    return basis(4, 0, 5, 10, 15)


def ghz(n):
    return basis(n, 0, 2 ** n - 1)


def w_state(n):
    return basis(n, *(1 << k for k in range(n)))


def binary_renyi(x, alpha):
    if alpha == 1.0:
        return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
    return math.log2(x ** alpha + (1 - x) ** alpha) / (1 - alpha)


def test_reduced_density_keeps_qubit_order():
    psi = basis(2, 1)  # |0>_0 |1>_1
    assert np.allclose(reference.reduced_density(psi, (1,)), [[0, 0], [0, 1]])
    assert np.allclose(reference.reduced_density(psi, (0,)), [[1, 0], [0, 0]])
    rho = reference.reduced_density(basis(3, 0b011), (2, 0))  # q2 = 1, q0 = 0
    assert rho[0b10, 0b10] == pytest.approx(1.0)
    assert np.trace(rho).real == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pair_measure_limits_and_alpha_two_form(alpha):
    assert reference.pair_measure(0.0, alpha) == 0.0
    assert reference.pair_measure(1.0, alpha) == pytest.approx(1.0, abs=1e-13)
    for c in (0.1, 0.5, 0.9):
        x = 0.5 * (1 + math.sqrt(1 - c * c))
        assert reference.pair_measure(c, alpha) == pytest.approx(binary_renyi(x, alpha), abs=1e-13)
    if alpha == 2.0:
        for c in (0.1, 0.5, 0.9):
            assert reference.pair_measure(c, 2.0) == pytest.approx(-math.log2(1 - c * c / 2), abs=1e-13)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bell_product(alpha):
    r = reference.residuals(bell_product(), (0, 1, 2, 3), alpha)
    assert r["e_bipartite"] == pytest.approx(2.0, abs=1e-12)
    assert r["e_a1b1"] == pytest.approx(1.0, abs=PURE_TOL)
    assert r["e_a2b2"] == pytest.approx(1.0, abs=PURE_TOL)
    assert r["e_a1b2"] == pytest.approx(0.0, abs=PURE_TOL)
    assert r["e_a2b1"] == pytest.approx(0.0, abs=PURE_TOL)
    assert r["ss_residual"] == pytest.approx(0.0, abs=2 * PURE_TOL)
    assert r["monogamy_residual"] == pytest.approx(0.0, abs=4 * PURE_TOL)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ghz(alpha):
    psi = ghz(4)
    assert reference.concurrence(reference.reduced_density(psi, (0, 1))) == pytest.approx(0.0, abs=PURE_TOL)
    assert reference.renyi_entropy(reference.reduced_density(psi, (0,)), alpha) == pytest.approx(1.0, abs=1e-12)
    r = reference.residuals(psi, (0, 1, 2, 3), alpha)
    assert r["e_bipartite"] == pytest.approx(1.0, abs=1e-12)
    assert r["ss_residual"] == pytest.approx(1.0, abs=2 * PURE_TOL)
    assert r["monogamy_residual"] == pytest.approx(1.0, abs=4 * PURE_TOL)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_w_state_pair_concurrence_is_two_over_n(n):
    psi = w_state(n)
    for i, j in ((0, 1), (0, n - 1), (n - 2, n - 1)):
        c = reference.concurrence(reference.reduced_density(psi, (i, j)))
        assert c == pytest.approx(2.0 / n, abs=PURE_TOL)
    one = reference.reduced_density(psi, (0,))
    assert np.allclose(np.sort(np.linalg.eigvalsh(one)), [1.0 / n, 1.0 - 1.0 / n])


@pytest.mark.parametrize("alpha", ALPHAS)
def test_w4_residuals(alpha):
    e_pair = binary_renyi(0.5 * (1 + math.sqrt(1 - 0.25)), alpha)
    r = reference.residuals(w_state(4), (0, 1, 2, 3), alpha)
    assert r["e_bipartite"] == pytest.approx(1.0, abs=1e-12)  # spectrum (1/2, 1/2, 0, 0)
    assert r["ss_residual"] == pytest.approx(1.0 - 2 * e_pair, abs=2 * PURE_TOL)
    assert r["monogamy_residual"] == pytest.approx(1.0 - 4 * e_pair, abs=4 * PURE_TOL)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_product_states_have_no_entanglement(alpha):
    rng = np.random.default_rng(11)
    qubits = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    psi = qubits[0]
    for q in qubits[1:]:
        psi = np.kron(psi, q)
    psi /= np.linalg.norm(psi)
    r = reference.residuals(psi, (0, 2, 1, 3), alpha)
    for name, value in r.items():
        assert value == pytest.approx(0.0, abs=4 * PURE_TOL), name


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
def test_werner_concurrence(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    tol = PURE_TOL if p == 1.0 else MIXED_TOL
    assert reference.concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=tol)


def test_tolerance_covers_the_sqrt_noise_floor():
    # worst case of the module docstring: three zero modes, slope 3, four pair terms
    floor = math.sqrt(np.finfo(float).eps)
    assert 4 * 3 * 3 * floor < reference.TOLERANCE
