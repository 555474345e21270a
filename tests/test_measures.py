"""Oracle and property tests for the entanglement measures and residuals."""

import math

import numpy as np
import pytest

from conftest import bell_pair, bell_product, ghz_state, random_density, random_state, w_state

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
    rotated = linalg.apply_local_unitary(psi, 0, q)
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


def test_sum_inequality_residual_two_halves_oracle():
    # v = (1/2, 1/2): -log2(1/2) + 2*log2(3/4) = 2*log2(3) - 3
    expected = 2 * math.log2(3.0) - 3.0
    assert measures.sum_inequality_residual([0.5, 0.5]) == pytest.approx(expected, abs=1e-14)


def test_sum_inequality_residual_single_entry_is_zero():
    for v in (0.0, 0.3, 1.0):
        assert measures.sum_inequality_residual([v]) == pytest.approx(0.0, abs=1e-14)


def test_sum_inequality_residual_nonnegative_property():
    rng = np.random.default_rng(151)
    for _ in range(500):
        k = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, size=k)
        v = raw * (rng.uniform() / max(1.0, raw.sum()))
        assert measures.sum_inequality_residual(v) >= -1e-12


def test_sum_inequality_residual_validation():
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([-0.1])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([1.2])
    with pytest.raises(ValueError):
        measures.sum_inequality_residual([0.7, 0.7])  # sum above 1
