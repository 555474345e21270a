"""Validation, reduction, and metric primitives."""

import numpy as np
import pytest

from conftest import bell_pair, random_density, random_state

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


def test_as_density_matrix_validates():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 4, 4)
    out = linalg.as_density_matrix(rho)
    assert np.allclose(out, rho)
    with pytest.raises(ValueError):
        linalg.as_density_matrix(rho * 1.01)  # trace off
    bad = rho.copy()
    bad[0, 1] += 1e-8  # breaks hermiticity
    with pytest.raises(ValueError):
        linalg.as_density_matrix(bad)
    with pytest.raises(ValueError):
        linalg.as_density_matrix(np.diag([1.5, -0.5]))  # indefinite


def test_hermitian_eigenvalues_descending_and_clamped():
    rng = np.random.default_rng(11)
    # rank deficient on purpose: eigvalsh noise dips slightly negative
    rho = random_density(rng, 8, 3)
    w = linalg.hermitian_eigenvalues(rho)
    assert np.all(np.diff(w) <= 0)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eigenvalues_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.diag([1.5, -0.5]))


def test_partial_trace_bell_gives_maximally_mixed():
    rho = linalg.partial_trace(bell_pair(), (0,))
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state_factorizes():
    rng = np.random.default_rng(21)
    a, b = random_state(rng, 1), random_state(rng, 2)
    psi = np.kron(a, b)
    np.testing.assert_allclose(
        linalg.partial_trace(psi, (1, 2)), np.outer(b, b.conj()), atol=1e-14
    )
    np.testing.assert_allclose(
        linalg.partial_trace(psi, (0,)), np.outer(a, a.conj()), atol=1e-14
    )


def test_partial_trace_pure_and_mixed_routes_agree():
    rng = np.random.default_rng(22)
    psi = random_state(rng, 4)
    rho = np.outer(psi, psi.conj())
    for keep in [(0,), (2,), (0, 1), (1, 3), (0, 2, 3)]:
        via_state = linalg.partial_trace(psi, keep)
        via_matrix = linalg.partial_trace(rho, keep)
        np.testing.assert_allclose(via_state, via_matrix, atol=1e-13)


def test_partial_trace_output_is_a_density_matrix():
    rng = np.random.default_rng(23)
    psi = random_state(rng, 3)
    rho = linalg.partial_trace(psi, (0, 2))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_partial_trace_complements_share_spectrum():
    # Schmidt decomposition: both sides of a pure-state cut have equal spectra
    rng = np.random.default_rng(24)
    psi = random_state(rng, 4)
    wa = linalg.hermitian_eigenvalues(linalg.partial_trace(psi, (0, 1)))
    wb = linalg.hermitian_eigenvalues(linalg.partial_trace(psi, (2, 3)))
    np.testing.assert_allclose(wa, wb, atol=1e-12)


def test_partial_trace_keep_all_returns_projector():
    psi = bell_pair()
    np.testing.assert_allclose(
        linalg.partial_trace(psi, (0, 1)), np.outer(psi, psi.conj()), atol=1e-15
    )


@pytest.mark.parametrize("keep", [(), (0, 0), (1, 0), (0, 5)])
def test_partial_trace_mask_validation(keep):
    with pytest.raises(ValueError):
        linalg.partial_trace(bell_pair(), keep)


def test_trace_power_matches_eigenvalue_sum():
    rng = np.random.default_rng(31)
    rho = random_density(rng, 4, 4)
    w = np.linalg.eigvalsh(rho)
    for alpha in (1.0, 1.7, 2.0, 3.0):
        assert linalg.trace_power(rho, alpha) == pytest.approx(
            np.sum(w**alpha), abs=1e-12
        )


def test_trace_power_diagonal_closed_form():
    rho = np.diag([0.66, 0.14, 0.14, 0.06])
    expected = 0.66**2 + 0.14**2 + 0.14**2 + 0.06**2
    assert linalg.trace_power(rho, 2.0) == pytest.approx(expected, abs=1e-15)


def test_pure_trace_distance_extremes():
    e0 = np.array([1, 0, 0, 0], dtype=complex)
    e1 = np.array([0, 1, 0, 0], dtype=complex)
    assert linalg.pure_trace_distance(e0, e0) == 0.0
    assert linalg.pure_trace_distance(e0, e1) == 1.0
    # global phase does not move the state
    assert linalg.pure_trace_distance(e0, np.exp(0.7j) * e0) < 1e-12


def test_pure_trace_distance_matches_density_matrix_trace_norm():
    # independent route: half the trace norm of the projector difference
    rng = np.random.default_rng(33)
    a, b = random_state(rng, 2), random_state(rng, 2)
    diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
    expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert linalg.pure_trace_distance(a, b) == pytest.approx(expected, abs=1e-12)
    assert linalg.pure_trace_distance(a, b) == linalg.pure_trace_distance(b, a)


def test_apply_local_unitary_on_basis_state():
    # X on qubit 0 of |00> flips the most significant bit
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    psi = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(linalg.apply_local_unitary(psi, 0, x), [0, 0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(linalg.apply_local_unitary(psi, 1, x), [0, 1, 0, 0], atol=1e-15)


def test_apply_local_unitary_preserves_norm_and_inverts():
    rng = np.random.default_rng(34)
    psi = random_state(rng, 3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    out = linalg.apply_local_unitary(psi, 1, q)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(linalg.apply_local_unitary(out, 1, q.conj().T), psi, atol=1e-12)


def test_apply_local_unitary_leaves_other_reductions_alone():
    rng = np.random.default_rng(35)
    psi = random_state(rng, 3)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = linalg.apply_local_unitary(psi, 0, h)
    np.testing.assert_allclose(
        linalg.partial_trace(out, (1, 2)), linalg.partial_trace(psi, (1, 2)), atol=1e-12
    )


def test_apply_local_unitary_rejects_bad_input():
    psi = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        linalg.apply_local_unitary(psi, 0, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        linalg.apply_local_unitary(psi, 5, np.eye(2))
