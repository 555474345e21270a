"""Oracle and property tests for the entanglement measures and residuals."""

import math

import numpy as np
import pytest

from conftest import (
    apply_local_unitary,
    bell_pair,
    bell_product,
    density_pair_term,
    ghz_state,
    random_density,
    random_state,
    reduced_density,
    split_terms,
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
    assert not hasattr(measures, "normalize_alpha")  # one definition of the domain
    for near_one in (1.0 + 5e-10, 1.0 - 5e-10, np.float32(1.0), 1):
        assert _kernels.normalize_alpha(near_one) == 1.0
        assert type(_kernels.normalize_alpha(near_one)) is float
    assert _kernels.normalize_alpha(2) == 2.0
    assert _kernels.normalize_alpha(np.int64(3)) == 3.0
    assert _kernels.normalize_alpha(1.5) == 1.5
    for bad in (0.99, 1.0 - 2e-9, 0.0, -1.0, float("nan"), float("inf"), "2", "2.0", True, np.True_,
                None, 2j, [2.0], np.array([2.0]), 10**400):
        with pytest.raises(ValueError, match="^alpha must be a real number"):
            _kernels.normalize_alpha(bad)
    # the kernels take the same domain: a value just below 1 snaps there too
    assert _kernels.renyi_from_c(0.5, 1.0 - 5e-10) == _kernels.renyi_from_c(0.5, 1.0)


def test_pairing_layout_validation():
    assert measures.CANONICAL_LAYOUT.as_tuple() == (0, 1, 2, 3)
    assert measures.PairingLayout(np.int64(3), 2, 1, 0).as_tuple() == (3, 2, 1, 0)
    for bad in ((0, 1, 2, 2), (0, 1, 2, 4), (0, 1.5, 2, 3), (0, 1.0, 2, 3), ("0", 1, 2, 3),
                (0, True, 2, 3), (0, np.True_, 2, 3), (None, 1, 2, 3)):
        with pytest.raises(ValueError, match="layout"):
            measures.PairingLayout(*bad)


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
    # a NaN entry passed the Hermiticity and trace checks, and gave C = 0 and
    # a Renyi entropy of 0.678
    m = np.eye(4) / 4
    m[0, 0] = np.nan
    # renyi_entropy skipped the trace check: 0.415 bits for trace 0.5, -1.585
    # and inf for trace 2
    non_hermitian = np.eye(4) / 4
    non_hermitian[0, 1] = 0.1
    bad = [
        (m, "finite"),
        (np.diag([0.5, 0.0, 0.0, 0.0]), "trace"),
        (np.diag([2.0, 0.0, 0.0, 0.0]), "trace"),
        (np.eye(4) / 2, "trace"),
        (non_hermitian, "Hermitian"),
        (np.diag([1.5, -0.5, 0.0, 0.0]), "PSD"),
    ]
    for measure in (measures.concurrence, lambda rho: measures.renyi_entropy(rho, 2.0)):
        for rho, reason in bad:
            with pytest.raises(ValueError, match=reason):
                measure(rho)


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
    # NaN used to give 0.0 and "0.5" a number
    for bad in (float("nan"), "0.5", True, None, [0.5]):
        with pytest.raises(ValueError, match="concurrence must be a real number"):
            measures.renyi_from_concurrence(bad, 2.0)
    assert measures.renyi_from_concurrence(np.float64(0.5), 2.0) == measures.renyi_from_concurrence(0.5, 2.0)
    # roundoff-scale excursions are clipped, not rejected
    assert measures.renyi_from_concurrence(1.0 + 5e-13, 2.0) == pytest.approx(1.0, abs=1e-11)


def test_pair_entanglement_of_bell_product():
    psi = bell_product()
    assert density_pair_term(psi, 0, 2, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert density_pair_term(psi, 1, 3, 2.0) == pytest.approx(1.0, abs=1e-12)
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert density_pair_term(psi, i, j, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_pair_entanglement_w_state_oracle():
    # any two-qubit reduction of a 4-qubit W state has concurrence 2/n = 1/2
    w4 = w_state(4)
    expected = measures.renyi_from_concurrence(0.5, 2.0)
    for i, j in ((0, 1), (1, 3), (2, 3)):
        assert density_pair_term(w4, i, j, 2.0) == pytest.approx(expected, abs=1e-12)


def test_pair_entanglement_ghz_pairs_vanish():
    for alpha in (1.0, 2.0, 3.0):
        assert density_pair_term(ghz_state(4), 0, 3, alpha) == 0.0


def test_bipartite_entanglement_known_cuts():
    assert measures.renyi_entropy(reduced_density(bell_pair(), (0,)), 2.0) == pytest.approx(1.0, abs=1e-12)
    assert measures.renyi_entropy(reduced_density(bell_product(), (0, 1)), 2.0) == pytest.approx(2.0, abs=1e-12)
    for alpha in (1.0, 1.5, 3.0):
        assert measures.renyi_entropy(reduced_density(ghz_state(4), (0, 1)), alpha) == pytest.approx(1.0, abs=1e-12)


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
    # second route: the reduced density matrix and the mixed-state measures,
    # away from the amplitude kernels
    rng = np.random.default_rng(132)
    psi = random_state(rng, 4)
    for alpha in (1.0, 2.0):
        r = measures.residual_report(psi, alpha=alpha)
        assert r.e_bipartite == pytest.approx(measures.renyi_entropy(reduced_density(psi, (0, 1)), alpha), abs=1e-11)
        assert r.e_a1b1 == pytest.approx(density_pair_term(psi, 0, 2, alpha), abs=1e-11)
        assert r.e_a2b2 == pytest.approx(density_pair_term(psi, 1, 3, alpha), abs=1e-11)
        assert r.e_a1b2 == pytest.approx(density_pair_term(psi, 0, 3, alpha), abs=1e-11)
        assert r.e_a2b1 == pytest.approx(density_pair_term(psi, 1, 2, alpha), abs=1e-11)


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


@pytest.mark.parametrize("alpha", [1.0, 1.02, 1.5, 2.0])
def test_batched_rows_do_not_depend_on_batch_size(alpha):
    # the descent scores blocks of candidates and the trace stores their
    # values, so row r of any batch must carry the bits of a batch of one
    rng = np.random.default_rng(134)
    states = np.stack([random_state(rng, 4) for _ in range(70)])
    layout = measures.PairingLayout(0, 2, 1, 3)
    batch = measures.residual_table(states, layout, alpha)
    ss = _kernels.batched_ss(states, layout.as_tuple(), alpha)
    for m in (1, 2, 7, 64):
        assert measures.residual_table(states[5 : 5 + m], layout, alpha).tobytes() == batch[5 : 5 + m].tobytes()
    for r in (0, 1, 33, 69):
        single = measures.residual_report(states[r], layout, alpha)
        assert single == measures.ResidualReport(alpha, *batch[r].tolist())
        assert ss[r] == single.ss_residual
    # nor on k, the pair terms asked for, nor on the strides of the batch
    e_bip, pair = split_terms(states, layout.as_tuple(), alpha, 6)
    for k in (1, 2, 3, 4, 5):
        e_k, pair_k = split_terms(states, layout.as_tuple(), alpha, k)
        assert e_k.tolist() == e_bip.tolist() and pair_k.tolist() == pair[:, :k].tolist()
    wide = np.zeros((70, 3, 16), dtype=complex)
    wide[:, 1] = states
    for strided in (wide[:, 1], np.repeat(states, 2, axis=0)[::2], np.asfortranarray(states)):
        e_s, pair_s = split_terms(strided, layout.as_tuple(), alpha, 6)
        assert e_s.tolist() == e_bip.tolist() and pair_s.tolist() == pair.tolist()
    # the residuals the table appends are numpy's differences of its terms, at every k
    ss = e_bip - pair[:, 0] - pair[:, 1]
    for k, columns in ((2, [ss]), (3, [ss]), (4, [ss, ss - pair[:, 2] - pair[:, 3]]), (6, [ss, ss - pair[:, 2] - pair[:, 3]])):
        want = np.column_stack([e_bip, pair[:, :k], *columns])
        assert _kernels.terms_table(states, layout.as_tuple(), alpha, k).tobytes() == want.tobytes(), k


def _ckw_r2_of(psi, focus=0) -> float:
    """The residual of one state, a batch of one of batched_ckw_r2."""
    return float(_kernels.batched_ckw_r2(psi[None], linalg.n_qubits_of(psi), focus)[0])


def test_ckw_r2_residual_w3_oracle():
    # |W_3>: one-vs-rest C^2 = 8/9, pair concurrences 2/3 each, so the
    # residual is -log2(5/9) + 2*log2(7/9) = log2(49/45)
    expected = math.log2(49.0 / 45.0)
    assert _ckw_r2_of(w_state(3)) == pytest.approx(expected, abs=1e-13)


def test_ckw_r2_residual_ghz_is_one_bit():
    for n in (3, 4, 5):
        assert _ckw_r2_of(ghz_state(n)) == pytest.approx(1.0, abs=1e-12)


def test_ckw_r2_residual_product_state_is_zero():
    rng = np.random.default_rng(141)
    full = np.kron(
        np.kron(random_state(rng, 1), random_state(rng, 1)), random_state(rng, 1)
    )
    assert _ckw_r2_of(full) == pytest.approx(0.0, abs=1e-12)


def test_ckw_r2_residual_nonnegative_on_random_states():
    rng = np.random.default_rng(142)
    for n in (3, 4, 5, 6):
        for _ in range(100):
            assert _ckw_r2_of(random_state(rng, n)) >= -1e-9


def test_ckw_r2_focus_choices_agree_for_symmetric_states():
    w4 = w_state(4)
    values = [_ckw_r2_of(w4, focus=f) for f in range(4)]
    assert max(values) - min(values) < 1e-12


def test_ckw_r2_residual_validation():
    with pytest.raises(ValueError):
        _kernels.batched_ckw_r2(bell_pair()[None], 2)  # needs >= 3 qubits
    with pytest.raises(ValueError):
        _kernels.batched_ckw_r2(w_state(3)[None], 3, focus=3)


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
                rho = reduced_density(psi, sorted((focus, i)))
                rho_g = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
                count += int(np.linalg.eigvalsh(rho_g)[0] < 0.0)
    return count


def _werner_purification(p):
    """Four qubits whose (0, 1) reduction is p |psi-><psi-| + (1 - p) I/4."""
    s = np.sqrt(0.5)
    bell = [np.array(v, dtype=complex) for v in ([0, s, -s, 0], [0, s, s, 0], [s, 0, 0, s], [s, 0, 0, -s])]
    weights = [(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3
    return sum(np.sqrt(wk) * np.kron(vk, np.eye(4)[k]) for k, (wk, vk) in enumerate(zip(weights, bell)))


def _screened_lambdas(states, n):
    """Check batched_ckw_r2 against an unscreened run of the same kernel
    (threshold +inf) bit for bit at every focus; return each focus's pair lambdas."""
    lambdas = []
    for focus in range(n):
        reference, _ = _kernels._ckw_r2(states, n, focus, np.inf)
        screened, lam = _kernels._ckw_r2(states, n, focus, _kernels.SEPARABLE_DET)
        assert screened.view(np.int64).tolist() == reference.view(np.int64).tolist(), (n, focus)
        assert screened.view(np.int64).tolist() == _kernels.batched_ckw_r2(states, n, focus).view(np.int64).tolist()
        lambdas.append(lam)
    return lambdas


def _unscreened_pairs(lam):
    return int(np.count_nonzero(lam.any(axis=-1)))


def test_ppt_screen_matches_unscreened_reference_on_haar_chunks():
    for n in range(3, 9):
        states = _haar_chunk(170 + n, 160 >> max(0, n - 5), n)
        # exactly the entangled (NPT) pairs take the lambdas; every PPT pair skips them
        expected = [_npt_pairs(states, n, focus) for focus in range(n)]
        assert [_unscreened_pairs(lam) for lam in _screened_lambdas(states, n)] == expected, n


def test_ppt_screen_matches_unscreened_reference_on_boundary_states():
    rng = np.random.default_rng(171)
    for n in range(3, 9):
        # GHZ pairs are separable with det(rho^G) = 0 exactly, so they take the
        # lambdas; every W pair is entangled
        assert [_unscreened_pairs(lam) for lam in _screened_lambdas(ghz_state(n)[None], n)] == [n - 1] * n
        assert [_unscreened_pairs(lam) for lam in _screened_lambdas(w_state(n)[None], n)] == [n - 1] * n
        product = random_state(rng, 1)
        for _ in range(n - 1):
            product = np.kron(product, random_state(rng, 1))
        # product pairs are rank one, so det(rho^G) = 0 too
        _screened_lambdas(product[None], n)
    for p in (1.0 / 3.0 - 1e-9, 1.0 / 3.0, 1.0 / 3.0 + 1e-9, 0.5, 1.0):
        lam = _screened_lambdas(_werner_purification(p)[None], 4)[0][0, 0]  # pair (0, 1)
        c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert c == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12), p


def test_kernel_lambdas_equal_spin_flip_lambdas_bit_for_bit():
    # the pair matrix is the kernel's factor for n = 3 (zero-padded) and n = 4;
    # both entries run the same spin_flip4, so this checks ckw_r2's gather
    for n in (3, 4):
        states = _haar_chunk(175 + n, 300, n)
        t = states.reshape((-1,) + (2,) * n)
        for focus in range(n):
            _, lam = _kernels._ckw_r2(states, n, focus, np.inf)
            others = [q for q in range(n) if q != focus]
            for p, i in enumerate(others):
                perm = [0, focus + 1, i + 1] + [q + 1 for q in others if q != i]
                k = np.zeros((states.shape[0], 4, 4), dtype=complex)
                k[:, :, : 2 ** (n - 2)] = t.transpose(perm).reshape(-1, 4, 2 ** (n - 2))
                assert lam[:, p].tolist() == _kernels.spin_flip_lambdas(k).tolist(), (n, focus, i)


def test_ckw_r2_rows_do_not_depend_on_the_batch():
    for n, rows in ((4, 48), (5, 24)):
        states = _haar_chunk(180 + n, rows, n)
        for focus in range(n):
            batch, lam = _kernels._ckw_r2(states, n, focus, _kernels.SEPARABLE_DET)
            assert 0 < _unscreened_pairs(lam) < rows * (n - 1)  # the chunk mixes separable and entangled pairs
            for r in range(rows):
                assert batch[r] == _kernels.batched_ckw_r2(states[r : r + 1], n, focus)[0], (n, focus, r)
            strided = _kernels.batched_ckw_r2(np.stack([states, states], axis=1)[:, 0], n, focus)
            assert strided.tolist() == batch.tolist()


def _haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_ckw_r2_of_locally_rotated_w_states_is_exact():
    # the pair concurrences of W_n are 2/n, so the residual is
    # -log2(1 - 2(n-1)/n^2) + (n-1) log2(1 - 2/n^2); local unitaries keep it
    rng = np.random.default_rng(177)
    for n in range(3, 9):
        t = np.tile(w_state(n), (200, 1)).reshape((200,) + (2,) * n)
        for q in range(n):  # a Haar unitary on every qubit of every row
            u = np.array([_haar_unitary(rng) for _ in range(200)])
            t = np.moveaxis(np.einsum("rab,rb...->ra...", u, np.moveaxis(t, q + 1, 1)), 1, q + 1)
        states = np.ascontiguousarray(t.reshape(200, -1))
        exact = -math.log2(1.0 - 2.0 * (n - 1) / n**2) + (n - 1) * math.log2(1.0 - 2.0 / n**2)
        for focus in (0, n - 1):
            assert np.max(np.abs(_kernels.batched_ckw_r2(states, n, focus) - exact)) < 1e-13, (n, focus)


def test_batched_ckw_r2_refuses_bad_input_before_the_kernel_runs(monkeypatch):
    class Refuse:
        def ckw_r2(self, *args):
            raise AssertionError("the C kernel was called")

    monkeypatch.setattr(_kernels, "_SVD4", Refuse())
    good = np.zeros((2, 8), dtype=complex)
    for states, n, focus in (
        (good.real, 3, 0), (good.astype(np.complex64), 3, 0), (good[0], 3, 0), (good.tolist(), 3, 0),
        (good, 4, 0), (np.zeros((2, 4), dtype=complex), 2, 0), (np.zeros((2, 512), dtype=complex), 9, 0),
        (good, 3.0, 0), (good, 3, 3), (good, 3, -1), (good, 3, None), (good, 3, True), (good, np.True_, 0),
        (np.zeros((2, 4), dtype=complex), True, 0),
    ):
        with pytest.raises(ValueError):
            _kernels.batched_ckw_r2(states, n, focus)
    with pytest.raises(AssertionError):
        _kernels.batched_ckw_r2(good, 3, 0)
    with pytest.raises(AssertionError):  # numpy integers pass
        _kernels.batched_ckw_r2(good, np.int64(3), np.int64(1))


def test_sum_inequality_residual_two_halves_oracle():
    # v = (1/2, 1/2): -log2(1/2) + 2*log2(3/4) = 2*log2(3) - 3
    expected = 2 * math.log2(3.0) - 3.0
    assert measures.sum_inequality_residuals([[0.5, 0.5]])[0] == pytest.approx(expected, abs=1e-14)


def test_sum_inequality_residual_single_entry_is_zero():
    for v in (0.0, 0.3, 1.0):
        assert measures.sum_inequality_residuals([[v]])[0] == pytest.approx(0.0, abs=1e-14)


def test_sum_inequality_residual_nonnegative_property():
    rng = np.random.default_rng(151)
    padded = np.zeros((500, 7))
    singles = []
    for row in padded:
        k = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, size=k)
        row[:k] = raw * (rng.uniform() / max(1.0, raw.sum()))
        singles.append(measures.sum_inequality_residuals(row[None, :k])[0])
        assert singles[-1] >= -1e-12
    # zero padding leaves every row's residual unchanged, bit for bit
    assert measures.sum_inequality_residuals(padded).tolist() == singles


def test_sum_inequality_residual_validation():
    for bad in ([[]], [[-0.1]], [[1.2]], [[0.2, float("nan")]], [[0.7, 0.7]]):  # the last sums above 1
        with pytest.raises(ValueError):
            measures.sum_inequality_residuals(bad)
    with pytest.raises(ValueError):
        measures.sum_inequality_residuals(np.zeros(3))  # needs (samples, length)
    with pytest.raises(ValueError):
        measures.sum_inequality_residuals([[0.2, 0.1], [0.7, 0.7]])
