"""Validation, reduction, and metric primitives."""

import numpy as np
import pytest

from conftest import (
    apply_local_unitary,
    bell_pair,
    pure_trace_distance,
    random_density,
    random_state,
    reduced_density,
)

from ssmono import linalg


def test_n_qubits_of_accepts_powers_of_two():
    assert linalg.n_qubits_of(np.zeros(2)) == 1
    assert linalg.n_qubits_of(np.zeros(16)) == 4
    assert linalg.n_qubits_of(np.zeros(256)) == 8


@pytest.mark.parametrize("length", [1, 3, 6, 12, 17, 512])
def test_n_qubits_of_rejects_other_lengths(length):
    with pytest.raises(ValueError):
        linalg.n_qubits_of(np.zeros(length))


def test_as_state_accepts_sequences():
    psi = linalg.as_state([1.0, 0.0, 0.0, 0.0])
    assert psi.dtype == complex
    assert psi.shape == (4,)


def test_as_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        linalg.as_state([1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_as_state_rejects_non_finite_amplitudes(bad):
    # a NaN norm compares false against the tolerance; it must still fail here
    # and not later inside the batched SVD
    with pytest.raises(ValueError, match="norm"):
        linalg.as_state([bad, 0.0, 0.0, 0.0])


def test_as_state_norm_tolerance_boundary():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0 + 5e-13
    linalg.as_state(psi)
    psi[0] = 1.0 + 5e-12
    with pytest.raises(ValueError):
        linalg.as_state(psi)


def test_as_state_rejects_matrices():
    with pytest.raises(ValueError):
        linalg.as_state(np.eye(2, dtype=complex))


# as_density_matrix's checks, now made by density_eigh
def test_as_density_matrix_validates():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 4, 4)
    w, v = linalg.density_eigh(rho)
    assert np.allclose((v * w) @ v.conj().T, rho)
    with pytest.raises(ValueError):
        linalg.density_eigh(rho * 1.01)  # trace off
    bad = rho.copy()
    bad[0, 1] += 1e-8  # breaks hermiticity
    with pytest.raises(ValueError):
        linalg.density_eigh(bad)
    for bad in (np.nan, np.inf):  # a NaN compares false against every tolerance
        m = np.eye(4) / 4
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            linalg.density_eigh(m)


def test_density_eigh_ascending_and_clamped():
    rng = np.random.default_rng(11)
    # rank deficient on purpose: eigh noise dips slightly negative
    rho = random_density(rng, 8, 3)
    w, _ = linalg.density_eigh(rho)
    assert np.all(np.diff(w) >= 0)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# hermitian_eigenvalues's refusal, now made by density_eigh
def test_hermitian_eigenvalues_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.density_eigh(np.diag([1.5, -0.5]))


# the tests' pure-state partial trace (conftest.reduced_density), the density
# route the amplitude kernels are checked against

def test_partial_trace_bell_gives_maximally_mixed():
    rho = reduced_density(bell_pair(), (0,))
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state_factorizes():
    rng = np.random.default_rng(21)
    a, b = random_state(rng, 1), random_state(rng, 2)
    psi = np.kron(a, b)
    np.testing.assert_allclose(reduced_density(psi, (1, 2)), np.outer(b, b.conj()), atol=1e-14)
    np.testing.assert_allclose(reduced_density(psi, (0,)), np.outer(a, a.conj()), atol=1e-14)


def test_partial_trace_pure_and_mixed_routes_agree():
    # the same reduction traced out of the projector |psi><psi|
    rng = np.random.default_rng(22)
    psi = random_state(rng, 4)
    projector = np.outer(psi, psi.conj()).reshape((2,) * 8)
    for keep in [(0,), (2,), (0, 1), (1, 3), (0, 2, 3)]:
        traced = [q for q in range(4) if q not in keep]
        axes = list(keep) + traced + [4 + q for q in keep] + [4 + q for q in traced]
        t = projector.transpose(axes).reshape(2 ** len(keep), 2 ** len(traced), 2 ** len(keep), -1)
        np.testing.assert_allclose(reduced_density(psi, keep), np.einsum("abcb->ac", t), atol=1e-13)


def test_partial_trace_output_is_a_density_matrix():
    rng = np.random.default_rng(23)
    psi = random_state(rng, 3)
    rho = reduced_density(psi, (0, 2))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_partial_trace_complements_share_spectrum():
    # Schmidt decomposition: both sides of a pure-state cut have equal spectra
    rng = np.random.default_rng(24)
    psi = random_state(rng, 4)
    wa, _ = linalg.density_eigh(reduced_density(psi, (0, 1)))
    wb, _ = linalg.density_eigh(reduced_density(psi, (2, 3)))
    np.testing.assert_allclose(wa, wb, atol=1e-12)


def test_partial_trace_keep_all_returns_projector():
    psi = bell_pair()
    np.testing.assert_allclose(reduced_density(psi, (0, 1)), np.outer(psi, psi.conj()), atol=1e-15)


def test_pure_trace_distance_extremes():
    e0 = np.array([1, 0, 0, 0], dtype=complex)
    e1 = np.array([0, 1, 0, 0], dtype=complex)
    assert pure_trace_distance(e0, e0) == 0.0
    assert pure_trace_distance(e0, e1) == 1.0
    # global phase does not move the state
    assert pure_trace_distance(e0, np.exp(0.7j) * e0) < 1e-12


def test_pure_trace_distance_matches_density_matrix_trace_norm():
    # independent route: half the trace norm of the projector difference
    rng = np.random.default_rng(33)
    a, b = random_state(rng, 2), random_state(rng, 2)
    diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
    expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert pure_trace_distance(a, b) == pytest.approx(expected, abs=1e-12)
    assert pure_trace_distance(a, b) == pure_trace_distance(b, a)


def test_apply_local_unitary_on_basis_state():
    # X on qubit 0 of |00> flips the most significant bit
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(apply_local_unitary(psi, 0, x), [0, 0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(apply_local_unitary(psi, 1, x), [0, 1, 0, 0], atol=1e-15)


def test_apply_local_unitary_preserves_norm_and_inverts():
    rng = np.random.default_rng(34)
    psi = random_state(rng, 3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    out = apply_local_unitary(psi, 1, q)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(apply_local_unitary(out, 1, q.conj().T), psi, atol=1e-12)


def test_apply_local_unitary_leaves_other_reductions_alone():
    rng = np.random.default_rng(35)
    psi = random_state(rng, 3)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = apply_local_unitary(psi, 0, h)
    np.testing.assert_allclose(
        reduced_density(out, (1, 2)), reduced_density(psi, (1, 2)), atol=1e-12
    )


def test_apply_local_unitary_rejects_bad_input():
    psi = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        apply_local_unitary(psi, 0, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        apply_local_unitary(psi, 5, np.eye(2))
