"""Oracle and property tests for the entanglement measures and residuals."""

import math

import numpy as np
import pytest

from conftest import (
    apply_local_unitary,
    bell_pair,
    bell_product,
    ghz_state,
    random_density,
    random_state,
    w_state,
)

from ssmono import _kernels, linalg, measures

SPIN_FLIP = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def test_violation_threshold_value():
    assert measures.VIOLATION_THRESHOLD == -1e-7


def test_normalize_alpha_snap_and_validation():
    assert measures.normalize_alpha(1.0 + 5e-10) == 1.0
    assert measures.normalize_alpha(2) == 2.0
    for bad in (0.99, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            measures.normalize_alpha(bad)


def test_pairing_layout_validation():
    assert measures.CANONICAL_LAYOUT.as_tuple() == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        measures.PairingLayout(0, 1, 2, 2)
    with pytest.raises(ValueError):
        measures.PairingLayout(0, 1, 2, 4)


def test_concurrence_pure_state_oracle():
    # C = 2|ad - bc| for amplitudes (a, b, c, d)
    rng = np.random.default_rng(101)
    for _ in range(500):
        psi = random_state(rng, 2)
        rho = np.outer(psi, psi.conj())
        a, b, c, d = psi
        assert measures.concurrence(rho) == pytest.approx(2 * abs(a * d - b * c), abs=1e-12)


def test_concurrence_bell_and_product():
    bell = bell_pair()
    assert measures.concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0, abs=1e-12)
    e00 = np.zeros((4, 4), dtype=complex)
    e00[0, 0] = 1.0
    assert measures.concurrence(e00) == 0.0


def test_concurrence_werner_closed_form():
    bell = bell_pair()
    proj = np.outer(bell, bell.conj())
    for p in np.linspace(0.0, 1.0, 21):
        rho = p * proj + (1 - p) * np.eye(4) / 4
        assert measures.concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_concurrence_matches_spin_flip_eigenvalue_route():
    # same lambdas through the non-Hermitian eigenproblem of rho @ rho_tilde;
    # that route carries sqrt(eps) noise near degenerate zeros, hence the loose bound
    rng = np.random.default_rng(102)
    for _ in range(50):
        rho = random_density(rng, 4, 4)
        tilde = SPIN_FLIP @ rho.conj() @ SPIN_FLIP
        ev = np.linalg.eigvals(rho @ tilde)
        lam = np.sort(np.sqrt(np.maximum(ev.real, 0.0)))[::-1]
        expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert measures.concurrence(rho) == pytest.approx(expected, abs=1e-7)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(103)
    psi = random_state(rng, 2)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    rotated = apply_local_unitary(psi, 0, q)
    c0 = measures.concurrence(np.outer(psi, psi.conj()))
    c1 = measures.concurrence(np.outer(rotated, rotated.conj()))
    assert c1 == pytest.approx(c0, abs=1e-12)


def test_concurrence_rejects_wrong_size():
    with pytest.raises(ValueError):
        measures.concurrence(np.eye(8) / 8)


def test_renyi_entropy_known_spectra():
    pure = np.diag([1.0, 0.0, 0.0, 0.0])
    mixed = np.eye(4) / 4
    for alpha in (1.0, 1.5, 2.0, 3.0):
        assert measures.renyi_entropy(pure, alpha) == pytest.approx(0.0, abs=1e-12)
        assert measures.renyi_entropy(mixed, alpha) == pytest.approx(2.0, abs=1e-12)


def test_renyi_entropy_alpha_one_is_von_neumann():
    rng = np.random.default_rng(111)
    rho = random_density(rng, 4, 4)
    w = np.linalg.eigvalsh(rho)
    expected = -sum(x * math.log2(x) for x in w if x > 0)
    assert measures.renyi_entropy(rho, 1.0) == pytest.approx(expected, abs=1e-10)
    # alpha within 1e-9 of 1 lands on the same branch
    assert measures.renyi_entropy(rho, 1.0 + 5e-10) == measures.renyi_entropy(rho, 1.0)


def test_renyi_entropy_alpha_two_is_log_purity():
    rng = np.random.default_rng(112)
    rho = random_density(rng, 8, 5)
    expected = -math.log2(np.trace(rho @ rho).real)
    assert measures.renyi_entropy(rho, 2.0) == pytest.approx(expected, abs=1e-12)


def test_renyi_entropy_nonincreasing_in_alpha():
    rng = np.random.default_rng(113)
    rho = random_density(rng, 4, 3)
    values = [measures.renyi_entropy(rho, a) for a in (1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0)]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def test_renyi_entropy_reference_spectrum():
    rho = np.diag([0.66, 0.14, 0.14, 0.06])
    expected = -math.log2(0.66**2 + 0.14**2 + 0.14**2 + 0.06**2)
    assert measures.renyi_entropy(rho, 2.0) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(1.0637, abs=5e-4)


def test_renyi_entropy_alpha_validation():
    with pytest.raises(ValueError):
        measures.renyi_entropy(np.eye(2) / 2, 0.5)


def test_renyi_from_concurrence_extremes():
    for alpha in (1.0, 1.5, 2.0, 3.0):
        assert measures.renyi_from_concurrence(0.0, alpha) == 0.0
        assert measures.renyi_from_concurrence(1.0, alpha) == pytest.approx(1.0, abs=1e-12)


def test_renyi_from_concurrence_alpha_two_closed_form():
    for c in np.linspace(0.0, 1.0, 101):
        expected = -math.log2(1.0 - 0.5 * c * c)
        assert measures.renyi_from_concurrence(c, 2.0) == pytest.approx(expected, abs=1e-14)


def test_renyi_from_concurrence_alpha_one_binary_entropy():
    for c in (0.1, 0.5, 0.9, 0.99):
        x = (1 + math.sqrt(1 - c * c)) / 2
        expected = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert measures.renyi_from_concurrence(c, 1.0) == pytest.approx(expected, abs=1e-13)


def test_renyi_from_concurrence_matches_spectrum_entropy():
    # independent route: the qubit spectrum (x, 1-x) through the generic entropy
    rng = np.random.default_rng(121)
    for c in rng.uniform(0.05, 0.999, size=20):
        x = (1 + math.sqrt(1 - c * c)) / 2
        rho = np.diag([x, 1 - x])
        for alpha in (1.0, 1.3, 2.0, 2.7):
            assert measures.renyi_from_concurrence(c, alpha) == pytest.approx(
                measures.renyi_entropy(rho, alpha), abs=1e-11
            )


def test_renyi_from_concurrence_near_one_alpha_stays_accurate():
    # the alpha -> 1 limit is approached smoothly, no cancellation blowup
    for c in (0.3, 0.9):
        near = measures.renyi_from_concurrence(c, 1.0 + 1e-6)
        at_one = measures.renyi_from_concurrence(c, 1.0)
        assert abs(near - at_one) < 1e-5


def test_renyi_from_concurrence_validation():
    with pytest.raises(ValueError):
        measures.renyi_from_concurrence(-0.01, 2.0)
    with pytest.raises(ValueError):
        measures.renyi_from_concurrence(1.01, 2.0)
    # roundoff-scale excursions are clipped, not rejected
    assert measures.renyi_from_concurrence(1.0 + 5e-13, 2.0) == pytest.approx(1.0, abs=1e-11)


def test_pair_entanglement_of_bell_product():
    psi = bell_product()
    assert measures.pair_entanglement(psi, 0, 2, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert measures.pair_entanglement(psi, 1, 3, 2.0) == pytest.approx(1.0, abs=1e-12)
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert measures.pair_entanglement(psi, i, j, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_pair_entanglement_w_state_oracle():
    # any two-qubit reduction of a 4-qubit W state has concurrence 2/n = 1/2
    w4 = w_state(4)
    expected = measures.renyi_from_concurrence(0.5, 2.0)
    for i, j in ((0, 1), (1, 3), (2, 3)):
        assert measures.pair_entanglement(w4, i, j, 2.0) == pytest.approx(expected, abs=1e-12)


def test_pair_entanglement_ghz_pairs_vanish():
    for alpha in (1.0, 2.0, 3.0):
        assert measures.pair_entanglement(ghz_state(4), 0, 3, alpha) == 0.0


def test_pair_entanglement_validation():
    psi = bell_product()
    with pytest.raises(ValueError):
        measures.pair_entanglement(psi, 2, 2, 2.0)
    with pytest.raises(ValueError):
        measures.pair_entanglement(psi, 0, 4, 2.0)


def test_bipartite_entanglement_known_cuts():
    assert measures.bipartite_pure_entanglement(bell_pair(), (0,), 2.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert measures.bipartite_pure_entanglement(bell_product(), (0, 1), 2.0) == pytest.approx(
        2.0, abs=1e-12
    )
    for alpha in (1.0, 1.5, 3.0):
        assert measures.bipartite_pure_entanglement(ghz_state(4), (0, 1), alpha) == pytest.approx(
            1.0, abs=1e-12
        )


def test_bipartite_entanglement_rejects_trivial_cuts():
    with pytest.raises(ValueError):
        measures.bipartite_pure_entanglement(bell_pair(), (0, 1), 2.0)
    with pytest.raises(ValueError):
        measures.bipartite_pure_entanglement(bell_pair(), (), 2.0)


def test_residual_report_bell_product_terms():
    report = measures.residual_report(bell_product(), alpha=2.0)
    assert report.alpha == 2.0
    assert report.e_bipartite == pytest.approx(2.0, abs=1e-12)
    assert report.e_a1b1 == pytest.approx(1.0, abs=1e-12)
    assert report.e_a2b2 == pytest.approx(1.0, abs=1e-12)
    assert report.e_a1b2 == 0.0
    assert report.e_a2b1 == 0.0
    assert report.ss_residual == pytest.approx(0.0, abs=1e-12)
    assert report.monogamy_residual == pytest.approx(0.0, abs=1e-12)


def test_residual_report_ghz_all_alphas():
    for alpha in (1.0, 1.5, 2.0, 3.0):
        report = measures.residual_report(ghz_state(4), alpha=alpha)
        assert report.ss_residual == pytest.approx(1.0, abs=1e-12)
        assert report.monogamy_residual == pytest.approx(1.0, abs=1e-12)


def test_residual_report_field_identities_are_exact():
    rng = np.random.default_rng(131)
    psi = random_state(rng, 4)
    r = measures.residual_report(psi, alpha=1.7)
    assert r.ss_residual == r.e_bipartite - r.e_a1b1 - r.e_a2b2
    assert r.monogamy_residual == r.ss_residual - r.e_a1b2 - r.e_a2b1


def test_residual_report_terms_match_public_measures():
    # second route: partial_trace plus concurrence, away from the batched kernels
    rng = np.random.default_rng(132)
    psi = random_state(rng, 4)
    for alpha in (1.0, 2.0):
        r = measures.residual_report(psi, alpha=alpha)
        assert r.e_bipartite == pytest.approx(
            measures.bipartite_pure_entanglement(psi, (0, 1), alpha), abs=1e-11
        )
        assert r.e_a1b1 == pytest.approx(measures.pair_entanglement(psi, 0, 2, alpha), abs=1e-11)
        assert r.e_a2b2 == pytest.approx(measures.pair_entanglement(psi, 1, 3, alpha), abs=1e-11)
        assert r.e_a1b2 == pytest.approx(measures.pair_entanglement(psi, 0, 3, alpha), abs=1e-11)
        assert r.e_a2b1 == pytest.approx(measures.pair_entanglement(psi, 1, 2, alpha), abs=1e-11)


def test_residual_report_respects_layout():
    # swapping the b roles exchanges matched and crossed pairs
    psi = bell_product()
    swapped = measures.PairingLayout(0, 1, 3, 2)
    r = measures.residual_report(psi, swapped, 2.0)
    assert r.e_a1b1 == 0.0
    assert r.e_a1b2 == pytest.approx(1.0, abs=1e-12)
    assert r.e_a2b1 == pytest.approx(1.0, abs=1e-12)
    assert r.ss_residual == pytest.approx(2.0, abs=1e-12)
    assert r.monogamy_residual == pytest.approx(0.0, abs=1e-12)


def test_residual_report_needs_four_qubits():
    with pytest.raises(ValueError):
        measures.residual_report(bell_pair())


def test_residual_report_defaults_give_the_full_report():
    psi = bell_product()
    report = measures.residual_report(psi)
    assert isinstance(report, measures.ResidualReport)
    assert report == measures.residual_report(psi, measures.CANONICAL_LAYOUT, 2.0)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_batched_rows_do_not_depend_on_batch_size(alpha):
    # the descent scores blocks of candidates and the trace stores their
    # values, so row r of any batch must carry the bits of a batch of one
    rng = np.random.default_rng(134)
    states = np.stack([random_state(rng, 4) for _ in range(70)])
    layout = measures.PairingLayout(0, 2, 1, 3)
    batch = measures.residual_reports(states, layout, alpha)
    ss = _kernels.batched_ss(states, layout.as_tuple(), alpha)
    for m in (1, 2, 7, 64):
        for r, report in enumerate(measures.residual_reports(states[5 : 5 + m], layout, alpha)):
            assert report == batch[5 + r]
    for r in (0, 1, 33, 69):
        single = measures.residual_report(states[r], layout, alpha)
        assert single == batch[r]
        assert ss[r] == single.ss_residual


def test_ckw_r2_residual_w3_oracle():
    # |W_3>: one-vs-rest C^2 = 8/9, pair concurrences 2/3 each, so the
    # residual is -log2(5/9) + 2*log2(7/9) = log2(49/45)
    expected = math.log2(49.0 / 45.0)
    assert measures.ckw_r2_residual(w_state(3)) == pytest.approx(expected, abs=1e-13)


def test_ckw_r2_residual_ghz_is_one_bit():
    for n in (3, 4, 5):
        assert measures.ckw_r2_residual(ghz_state(n)) == pytest.approx(1.0, abs=1e-12)


def test_ckw_r2_residual_product_state_is_zero():
    rng = np.random.default_rng(141)
    full = np.kron(
        np.kron(random_state(rng, 1), random_state(rng, 1)), random_state(rng, 1)
    )
    assert measures.ckw_r2_residual(full) == pytest.approx(0.0, abs=1e-12)


def test_ckw_r2_residual_nonnegative_on_random_states():
    rng = np.random.default_rng(142)
    for n in (3, 4, 5, 6):
        for _ in range(100):
            assert measures.ckw_r2_residual(random_state(rng, n)) >= -1e-9


def test_ckw_r2_focus_choices_agree_for_symmetric_states():
    w4 = w_state(4)
    values = [measures.ckw_r2_residual(w4, focus=f) for f in range(4)]
    assert max(values) - min(values) < 1e-12


def test_ckw_r2_residual_validation():
    with pytest.raises(ValueError):
        measures.ckw_r2_residual(bell_pair())  # needs >= 3 qubits
    with pytest.raises(ValueError):
        measures.ckw_r2_residual(w_state(3), focus=3)


def _unscreened_ckw_r2(states, n_qubits, focus):
    """batched_ckw_r2 without the PPT screen: every pair takes eigh, W and the SVD."""
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
        rho = np.matmul(k, k.conj().transpose(0, 2, 1))
        w, v = np.linalg.eigh(rho)
        wfac = v * np.sqrt(np.maximum(w, 0.0))[:, None, :]
        tau = np.matmul(wfac.transpose(0, 2, 1), np.matmul(_kernels.SPIN_FLIP, wfac))
        lam = np.linalg.svd(tau, compute_uv=False)
        c = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
        residual = residual + np.log2(1.0 - 0.5 * c * c)
    return residual


def _haar_chunk(seed, rows, n_qubits):
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((rows, 2**n_qubits)) + 1j * gen.standard_normal((rows, 2**n_qubits))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _npt_pairs(states, n_qubits, focus):
    """Pairs (focus, i) over all rows whose partial transpose has a negative eigenvalue."""
    count = 0
    for i in range(n_qubits):
        if i != focus:
            for psi in states:
                rho = linalg.partial_trace(psi, tuple(sorted((focus, i))))
                rho_g = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
                count += int(np.linalg.eigvalsh(rho_g)[0] < 0.0)
    return count


def _werner_purification(p):
    """Four qubits whose (0, 1) reduction is p |psi-><psi-| + (1 - p) I/4."""
    s = np.sqrt(0.5)
    bell = [np.array(v, dtype=complex) for v in ([0, s, -s, 0], [0, s, s, 0], [s, 0, 0, s], [s, 0, 0, -s])]
    weights = [(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3
    return sum(np.sqrt(wk) * np.kron(vk, np.eye(4)[k]) for k, (wk, vk) in enumerate(zip(weights, bell)))


def _svd_rows(monkeypatch):
    """Record the number of matrices each np.linalg.svd call receives."""
    seen, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(a.shape[0] if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def _screened_svd_rows(states, n, monkeypatch):
    """Check batched_ckw_r2 against the unscreened reference bit for bit at
    every focus; return the number of pairs that reached the SVD per focus."""
    counts = []
    for focus in range(n):
        reference = _unscreened_ckw_r2(states, n, focus)
        seen = _svd_rows(monkeypatch)
        screened = _kernels.batched_ckw_r2(states, n, focus)
        monkeypatch.undo()
        assert screened.view(np.int64).tolist() == reference.view(np.int64).tolist(), (n, focus)
        counts.append(sum(seen))
    return counts


def test_partial_transpose_det_matches_lapack():
    rng = np.random.default_rng(172)
    g = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
    h = g + g.conj().transpose(0, 2, 1)
    h_g = h.reshape(200, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(200, 4, 4)
    expected = np.linalg.det(h_g).real
    assert np.max(np.abs(_kernels._partial_transpose_det(h) - expected) / np.abs(expected)) < 1e-12


def test_ppt_screen_matches_unscreened_reference_on_haar_chunks(monkeypatch):
    for n in range(3, 9):
        states = _haar_chunk(170 + n, 160 >> max(0, n - 5), n)
        # the SVD sees exactly the entangled (NPT) pairs; every PPT pair skips it
        expected = [_npt_pairs(states, n, focus) for focus in range(n)]
        assert _screened_svd_rows(states, n, monkeypatch) == expected, n


def test_ppt_screen_matches_unscreened_reference_on_boundary_states(monkeypatch):
    rng = np.random.default_rng(171)
    for n in range(3, 9):
        # GHZ pairs are separable with det(rho^G) = 0 exactly, so they take the SVD
        assert _screened_svd_rows(ghz_state(n)[None], n, monkeypatch) == [n - 1] * n
        product = random_state(rng, 1)
        for _ in range(n - 1):
            product = np.kron(product, random_state(rng, 1))
        # every W pair is entangled; product pairs are rank one, so det(rho^G) = 0 too
        assert _screened_svd_rows(np.stack([w_state(n), product]), n, monkeypatch) == [2 * n - 2] * n
    for p in (1.0 / 3.0 - 1e-9, 1.0 / 3.0, 1.0 / 3.0 + 1e-9, 0.5, 1.0):
        psi = _werner_purification(p)
        _screened_svd_rows(psi[None], 4, monkeypatch)
        c = _kernels._concurrences(linalg.partial_trace(psi, (0, 1))[None])[0]
        assert c == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12), p


def test_ckw_r2_rows_do_not_depend_on_the_batch(monkeypatch):
    for n, rows in ((4, 48), (5, 24)):
        states = _haar_chunk(180 + n, rows, n)
        for focus in range(n):
            seen = _svd_rows(monkeypatch)
            batch = _kernels.batched_ckw_r2(states, n, focus)
            monkeypatch.undo()
            assert 0 < sum(seen) < rows * (n - 1)  # the chunk mixes separable and entangled pairs
            for r in range(rows):
                assert batch[r] == measures.ckw_r2_residual(states[r], focus), (n, focus, r)


def test_sum_inequality_residual_two_halves_oracle():
    # v = (1/2, 1/2): -log2(1/2) + 2*log2(3/4) = 2*log2(3) - 3
    expected = 2 * math.log2(3.0) - 3.0
    assert measures.sum_inequality_residual([0.5, 0.5]) == pytest.approx(expected, abs=1e-14)


def test_sum_inequality_residual_single_entry_is_zero():
    for v in (0.0, 0.3, 1.0):
        assert measures.sum_inequality_residual([v]) == pytest.approx(0.0, abs=1e-14)


def test_sum_inequality_residual_nonnegative_property():
    rng = np.random.default_rng(151)
    padded = np.zeros((500, 7))
    singles = []
    for row in padded:
        k = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, size=k)
        row[:k] = raw * (rng.uniform() / max(1.0, raw.sum()))
        singles.append(measures.sum_inequality_residual(row[:k]))
        assert singles[-1] >= -1e-12
    # zero padding leaves every row's residual unchanged, bit for bit
    assert measures.sum_inequality_residuals(padded).tolist() == singles


def test_sum_inequality_residual_validation():
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([-0.1])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([1.2])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([0.2, float("nan")])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([0.7, 0.7])  # sum above 1
    with pytest.raises(ValueError):
        measures.sum_inequality_residuals(np.zeros(3))  # needs (samples, length)
    with pytest.raises(ValueError):
        measures.sum_inequality_residuals([[0.2, 0.1], [0.7, 0.7]])
