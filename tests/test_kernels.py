"""The compiled kernels of _svd4.c: edge cases, input checks, the 40-digit
oracle in oracle.py, LAPACK as a reference, the build cache and a
warning-free C source."""

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import oracle
from conftest import (
    OPTIMUM_SYMMETRIC, SPIN_FLIP, bell_product, ghz_state, random_state, relabeled, split_terms, w_state,
)

from ssmono import _kernels, measures, sampler, search

SRC = Path(_kernels.__file__).parent


def _haar_blocks(seed, count):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 16)) + 1j * rng.standard_normal((count, 16))
    return (z / np.linalg.norm(z, axis=1, keepdims=True)).reshape(count, 4, 4)


def test_singular_values_of_degenerate_matrices():
    rng = np.random.default_rng(201)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    unitary = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    zero_columns = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    zero_columns[:, [1, 3]] = 0.0
    cases = {
        "zero": np.zeros((4, 4), dtype=complex),
        "rank one": np.outer(u, v.conj()),
        "zero columns": zero_columns,
        "equal": 2.0 * unitary,
        "repeated diagonal": np.diag([3.0, 1j, -3.0, 1.0]).astype(complex),
    }
    for name, a in cases.items():
        got = _kernels.singular_values4(a)
        expected = np.linalg.svd(a, compute_uv=False)
        assert np.all(np.diff(got) <= 0.0), name
        assert np.max(np.abs(got - expected)) <= 4 * np.finfo(float).eps * max(1.0, expected[0]), name
    assert _kernels.singular_values4(cases["zero"]).tolist() == [0.0] * 4
    assert _kernels.singular_values4(cases["repeated diagonal"]).tolist() == [3.0, 3.0, 1.0, 1.0]
    # the rank-2 spin-flip products of three-qubit pairs, which drove a norm
    # update negative in an earlier kernel
    k = _haar_blocks(202, 2000)
    k[:, :, 2:] = 0.0
    lam = _kernels.spin_flip_lambdas(k)
    assert np.all(np.isfinite(lam))
    tau = np.matmul(k.transpose(0, 2, 1), np.matmul(SPIN_FLIP, k))
    assert np.max(np.abs(lam - np.linalg.svd(tau, compute_uv=False))) < 1e-13


def test_nan_entry_returns_nan():
    a = _haar_blocks(203, 3)
    a[1, 2, 1] = np.nan
    got = _kernels.singular_values4(a)
    assert np.isnan(got[1]).any()
    assert np.all(np.isfinite(got[[0, 2]]))
    assert got[[0, 2]].tolist() == _kernels.singular_values4(a[[0, 2]]).tolist()


def test_bad_input_is_refused_before_the_kernel_runs(monkeypatch):
    class Refuse:
        def svd4(self, *args):
            raise AssertionError("the C kernel was called")

    monkeypatch.setattr(_kernels, "_SVD4", Refuse())
    good = np.zeros((2, 4, 4), dtype=complex)
    for bad in (good.real, good.astype(np.complex64), good[:, :3], good[:, :, :3],
                np.zeros(16, dtype=complex), good.tolist()):
        with pytest.raises(ValueError, match="4x4"):
            _kernels.singular_values4(bad)
    with pytest.raises(AssertionError):
        _kernels.singular_values4(good)


def test_rows_do_not_depend_on_the_batch_or_its_layout():
    a = _haar_blocks(204, 64)
    batch = _kernels.singular_values4(a)
    strided = _kernels.singular_values4(np.stack([a, a], axis=1)[:, 0])
    assert strided.tolist() == batch.tolist()
    for r in (0, 17, 63):
        assert _kernels.singular_values4(a[r]).tolist() == batch[r].tolist()


def test_lambdas_match_lapack_on_haar_blocks():
    blocks = _haar_blocks(205, 10_000)
    tau = np.matmul(blocks.transpose(0, 2, 1), np.matmul(SPIN_FLIP, blocks))
    assert np.max(np.abs(_kernels.spin_flip_lambdas(blocks) - np.linalg.svd(tau, compute_uv=False))) < 1e-13
    rho = np.matmul(blocks, blocks.conj().transpose(0, 2, 1))
    spectrum = _kernels.singular_values4(blocks) ** 2
    assert np.max(np.abs(spectrum[:, ::-1] - np.linalg.eigvalsh(rho))) < 1e-13


def _oracle_states():
    rng = np.random.default_rng(206)
    product = random_state(rng, 2)
    product = np.kron(product, random_state(rng, 2))
    states = [ghz_state(4), w_state(4), bell_product(), product]
    states += [random_state(rng, 4) for _ in range(12)]
    return np.stack(states)


def test_lambdas_match_the_oracle():
    for psi in _oracle_states():
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            rest = [q for q in range(4) if q not in (i, j)]
            block = psi.reshape(2, 2, 2, 2).transpose(i, j, *rest).reshape(4, 4)
            expected = oracle.pair_lambdas(psi, i, j)
            lam = _kernels.spin_flip_lambdas(block)
            assert np.max(np.abs(lam - [float(x) for x in expected])) < 1e-14, (i, j)
            c = measures.concurrence(block @ block.conj().T)
            assert abs(c - float(oracle.concurrence(expected))) < 1e-14, (i, j)


@pytest.fixture(scope="module")
def seed0_optimum():
    record = search.minimize_residual(search.SearchConfig(alpha=2.0, rng=sampler.RngSeed(0)))
    return record.final_state


def test_batched_terms_match_the_oracle(seed0_optimum):
    states = np.vstack([_oracle_states(), seed0_optimum[None]])
    layout = (0, 1, 2, 3)
    alphas = (2.0, 1.5, 1.02, 1.0)
    expected = [oracle.terms(psi, layout, alphas) for psi in states]
    for alpha in alphas:
        e_bip, pair = split_terms(states, layout, alpha, 6)
        for r, psi in enumerate(states):
            want_bip, want_pair = expected[r][alpha]
            assert abs(e_bip[r] - float(want_bip)) < 1e-13, (alpha, r)
            assert np.max(np.abs(pair[r] - [float(x) for x in want_pair])) < 1e-13, (alpha, r)


def test_batched_terms_refuse_bad_input_before_the_kernel_runs(monkeypatch):
    class Refuse:
        def __getattr__(self, name):
            raise AssertionError(f"the C kernel {name} was called")

    monkeypatch.setattr(_kernels, "_SVD4", Refuse())
    good, layout = np.zeros((3, 16), dtype=complex), (0, 1, 2, 3)
    for bad in (good.real, good.astype(np.complex64), good[:, :15], good.reshape(3, 4, 4), good[0], good.tolist()):
        with pytest.raises(ValueError, match=r"complex128 \(m, 16\)"):
            _kernels.terms_table(bad, layout, 2.0)
    for bad in ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4), (0, 1, 2, 3, 4), (-1, 1, 2, 3), (0.0, 1, 2, 3), "0123", None,
                (0, True, 2, 3), (np.False_, 1, 2, 3)):
        with pytest.raises(ValueError, match="layout"):
            _kernels.terms_table(good, bad, 2.0)
    for bad in (0, 7, 2.0, None, True, np.True_):
        with pytest.raises(ValueError, match="k must"):
            _kernels.terms_table(good, layout, 2.0, bad)
    for bad in (0.5, 1.0 - 1e-6, np.nan, np.inf, -np.inf, "2", None, 2j):
        with pytest.raises(ValueError, match="alpha"):
            _kernels.terms_table(good, layout, bad)
        with pytest.raises(ValueError, match="alpha"):
            _kernels.renyi_from_c(0.5, bad)
        with pytest.raises(ValueError, match="alpha"):
            _kernels.renyi_entropies([0.5, 0.5], bad)
    for bad in (["0.5"], [0.5 + 0j], None):
        with pytest.raises(ValueError, match="real numbers"):
            _kernels.renyi_from_c(bad, 2.0)
    with pytest.raises(ValueError, match="rows"):
        _kernels.renyi_entropies(0.5, 2.0)
    with pytest.raises(ValueError, match="4x4"):
        _kernels.spin_flip_lambdas(np.zeros((4, 4)))
    with pytest.raises(AssertionError):
        _kernels.terms_table(good, layout, 2.0)
    with pytest.raises(AssertionError):  # numpy integers pass
        _kernels.terms_table(good, tuple(np.arange(4)), 2.0, np.int64(2))


def _oracle_entropy(w, alpha):
    """The oracle's entropy of w, its negative entries dropped and the rest
    scaled to sum to 1 exactly: the kernel sums w (w^(alpha-1) - 1), which
    assumes that sum, and near alpha = 1 a float spectrum's own deficit (about
    1e-17) divided by alpha - 1 would dominate a direct comparison."""
    with mp.workdps(oracle.DPS):
        p = [max(mp.mpf(0), mp.mpf(v)) for v in w]
        total = mp.fsum(p)
        return float(oracle.entropy([v / total for v in p], alpha))


def test_renyi_maps_match_the_oracle():
    # the concurrence map and the spectrum entropy that every term ends in,
    # down to c = 1e-8, where y = (1 - sqrt(1 - c^2))/2 is 2.5e-17
    spectra = ([0.4, 0.3, 0.2, 0.1], [0.7, 0.3, 0.0, -1e-17], [1.0, 0.0, 0.0, 0.0], [0.125] * 8)
    for alpha in (1, 1 + 1e-6, 1.02, 1.5, 2, 3):
        for c in (0.0, 1e-8, 1e-4, 0.5, 1.0):
            want = float(oracle.renyi_from_c(mp.mpf(c), alpha))
            assert abs(_kernels.renyi_from_c(c, alpha) - want) < 1e-14, (alpha, c)
            assert abs(measures.renyi_from_concurrence(c, alpha) - want) < 1e-14, (alpha, c)
            y = c * c / (2 * (1 + np.sqrt(1 - c * c)))
            assert abs(_kernels.renyi_entropies([1 - y, y], alpha) - want) < 1e-14, (alpha, c)
        for w in spectra:
            assert abs(_kernels.renyi_entropies(w, alpha) - _oracle_entropy(w, alpha)) < 1e-14, (alpha, w)
        rows = _kernels.renyi_entropies(np.array(spectra[:3]), alpha)
        assert rows.tolist() == [float(_kernels.renyi_entropies(w, alpha)) for w in spectra[:3]]


def _local_unitaries(rng, count):
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    return np.linalg.qr(z)[0]


def test_pair_terms_of_maximally_entangled_pairs_stay_at_one_bit():
    # Bell pairs on (0, 2) and (1, 3) under local unitaries: roundoff puts
    # l0 - l1 - l2 - l3 above 1 for about a fifth of them, and the kernel clips it
    rng = np.random.default_rng(211)
    states = np.empty((200, 16), dtype=complex)
    for r in range(200):
        t = bell_product().reshape(2, 2, 2, 2)
        for q, u in enumerate(_local_unitaries(rng, 4)):
            t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
        states[r] = t.reshape(16)
    blocks = states.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    lam = _kernels.spin_flip_lambdas(blocks)
    assert np.any(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3] > 1.0)
    _, pair = split_terms(states, (0, 1, 2, 3), 2.0, 2)
    assert pair.max() == 1.0
    assert np.all(np.abs(pair - 1.0) < 1e-14)


def test_a_nan_row_gives_nan_terms_and_leaves_the_others_alone():
    states = _haar_blocks(212, 4).reshape(4, 16)
    clean = {alpha: split_terms(states, (0, 1, 2, 3), alpha) for alpha in (2.0, 1.5, 1.0)}
    states[2, 5] = np.nan
    for alpha, (e_bip, pair) in clean.items():
        got_bip, got_pair = split_terms(states, (0, 1, 2, 3), alpha)
        assert np.isnan(got_bip[2]) and np.isnan(got_pair[2]).all(), alpha
        keep = [0, 1, 3]
        assert got_bip[keep].tolist() == e_bip[keep].tolist()
        assert got_pair[keep].tolist() == pair[keep].tolist()


def _numpy_displace(base, delta, z):
    """The numpy expression _kernels.displace replaced, kept as its oracle."""
    c = base + delta * z
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def test_displace_matches_the_numpy_formula():
    # numpy's own bits depend on its SIMD loops (fused complex products, the
    # pairwise sum), so the bound is two ulps of a component near 1; on an
    # AVX-512 build of numpy 2.4 every row matches exactly
    for n in range(1, 9):
        gen = sampler.generator(sampler.RngSeed(8, n))
        for delta in (1e-8, 1e-5, 1e-3, 2e-2, 0.3, 1.0):
            start = sampler.haar_random_state(n, gen)
            z = sampler.unit_noise(gen, 24, 2**n)
            want = _numpy_displace(start, delta, z)
            got = _kernels.displace(start, delta, z)
            assert got.shape == want.shape and got.dtype == np.complex128
            assert np.max(np.abs(got.view(float) - want.view(float))) <= 2.3e-16, (n, delta)
            # a row never depends on the rows after it
            assert _kernels.displace(start, delta, z[:5]).tobytes() == got[:5].tobytes()


def _numpy_unit_rows(g):
    """The numpy expression _kernels.unit_rows replaced in sampler.unit_noise, kept as its oracle."""
    z = g[:, 0] + 1j * g[:, 1]
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def test_unit_noise_matches_the_numpy_formula():
    # bit for bit where numpy fuses its complex products, as on FMA hardware
    for dim in (2, 3, 4, 7, 8, 9, 16, 31, 32, 64, 100, 128, 129, 136, 200, 256):
        gen, again = (sampler.generator(sampler.RngSeed(12, dim)) for _ in range(2))
        got = sampler.unit_noise(gen, 300, dim)
        want = _numpy_unit_rows(again.standard_normal((300, 2, dim)))
        assert got.shape == want.shape and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes(), dim
        assert gen.standard_normal() == again.standard_normal()  # the same draws
    # signed zeros keep numpy's signs, and a zero row is NaN on both sides
    g = np.array([
        [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, -0.0, 2.0]],
        [[-0.0, 3.0, -0.0, 0.0], [-0.0, -0.0, 0.0, -4.0]],
        [[-0.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 5e-324]],
        [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        [[-0.0, -0.0, -0.0, -0.0], [-0.0, -0.0, -0.0, -0.0]],
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _numpy_unit_rows(g)
    got = _kernels.unit_rows(g)
    assert got[:3].tobytes() == want[:3].tobytes()
    assert np.isnan(got[3:].view(float)).all() and np.isnan(want[3:].view(float)).all()
    # a row never depends on the rows around it
    assert _kernels.unit_rows(g[1:2]).tobytes() == got[1:2].tobytes()
    assert _kernels.unit_rows(g[:0]).shape == (0, 4)


def test_chunk_rows_match_the_numpy_formula():
    # a scan chunk's (2, m, dim) block, the real parts of every row and then
    # the imaginary parts, is read in place with its first two axes swapped;
    # bit for bit where numpy fuses its complex products, as on FMA hardware
    for dim in (8, 9, 16, 31, 32, 64, 100, 128, 129, 136, 200, 256):
        g = sampler.generator(sampler.RngSeed(14, dim)).standard_normal((2, 300, dim)).swapaxes(0, 1)
        got = _kernels.unit_rows(g)
        assert got.shape == (300, dim) and got.dtype == np.complex128
        assert got.tobytes() == _numpy_unit_rows(g).tobytes(), dim
        # a row range of the block is read in place, and its rows are the block's
        assert _kernels.unit_rows(g[7:100]).tobytes() == got[7:100].tobytes(), dim
        # a view with strided rows is copied first
        assert _kernels.unit_rows(g[:, :, ::3]).tobytes() == _numpy_unit_rows(g[:, :, ::3]).tobytes(), dim
    # signed zeros keep numpy's signs, and a zero row is NaN on both sides
    g = np.array([
        [[0.0, -0.0, 1.0, -0.0, 0.0, 0.0, -0.0, 3.0], [-0.0, 0.0, -0.0, 2.0, -0.0, 0.0, -0.0, -0.0]],
        [[-0.0, 3.0, -0.0, 0.0, 1.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, -4.0, 0.0, -0.0, -0.0, 0.0]],
        [[-0.0, -0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0], [0.0, -0.0, -0.0, 5e-324, -0.0, -0.0, 0.0, 0.0]],
        [[0.0] * 8, [0.0] * 8],
        [[-0.0] * 8, [-0.0] * 8],
    ]).swapaxes(0, 1).copy().swapaxes(0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _numpy_unit_rows(g)
    got = _kernels.unit_rows(g)
    assert got[:3].tobytes() == want[:3].tobytes()
    assert np.isnan(got[3:].view(float)).all() and np.isnan(want[3:].view(float)).all()
    assert _kernels.unit_rows(g[1:2]).tobytes() == got[1:2].tobytes()
    assert _kernels.unit_rows(g[:0]).shape == (0, 8)


def test_unit_rows_refuses_bad_input_before_the_kernel_runs(monkeypatch):
    class Refuse:
        def __getattr__(self, name):
            raise AssertionError(f"the C kernel {name} was called")

    monkeypatch.setattr(_kernels, "_SVD4", Refuse())
    g = np.zeros((3, 2, 16))
    for bad in (g.astype(np.float32), g.astype(complex), g[:, :1], g[0], g[None], g.tolist()):
        with pytest.raises(ValueError, match=r"float64 \(m, 2, dim\)"):
            _kernels.unit_rows(bad)
    with pytest.raises(AssertionError):
        _kernels.unit_rows(g[:, :, ::2])  # a strided view is copied, then passed on


def test_walk_matches_the_numpy_chain_and_the_residual_table(seed0_optimum):
    # from the optimum, delta = 1e-3 stays in the region, 2e-2 leaves it
    # within a few steps and 0.3 at once, and at alpha = 1 there is no
    # region; threshold +inf keeps every row of a chain
    for alpha in (2.0, 1.5, 1.0):
        for layout in (measures.CANONICAL_LAYOUT, measures.PairingLayout(2, 0, 3, 1)):
            gen = sampler.generator(sampler.RngSeed(9, int(10 * alpha)))
            start = relabeled(seed0_optimum, layout.as_tuple())
            for delta in (1e-3, 2e-2, 0.3):
                z = sampler.unit_noise(gen, 45)
                chain, state = np.empty_like(z), start
                for r in range(z.shape[0]):
                    state = chain[r] = _numpy_displace(state, delta, z[r])
                table = measures.residual_table(chain, layout, alpha)
                inside = table[:, measures.SS] < measures.VIOLATION_THRESHOLD
                stop = int(np.argmin(np.append(inside, False)))  # the first row outside, or 45
                for threshold, kept in ((measures.VIOLATION_THRESHOLD, stop), (np.inf, 45)):
                    got_kept, got_chain, got_table = _kernels.walk(start, delta, z, layout.as_tuple(), alpha, threshold)
                    case = (alpha, layout, delta, threshold)
                    assert got_kept == kept, case
                    assert len(got_chain) == len(got_table) == min(kept + 1, 45), case
                    assert np.max(np.abs(got_chain.view(float) - chain[:len(got_chain)].view(float))) <= 2.3e-16
                    # the chain has the bits of one-row displace calls, and
                    # its table those of residual_table on the chain
                    steps = [start, *got_chain[:-1]]
                    for r in range(len(got_chain)):
                        assert _kernels.displace(steps[r], delta, z[r:r + 1])[0].tobytes() == got_chain[r].tobytes()
                    want = measures.residual_table(got_chain, layout, alpha)
                    assert got_table.tobytes() == want.tobytes(), case
    # a row outside the region ends the walk there, a NaN row too
    z = sampler.unit_noise(sampler.generator(sampler.RngSeed(10)), 20)
    z[6, 3] = np.nan
    kept, chain, table = _kernels.walk(seed0_optimum, 1e-3, z, (0, 1, 2, 3), 2.0, measures.VIOLATION_THRESHOLD)
    assert kept == 6 and len(chain) == 7 and np.isnan(table[6]).all()
    assert _kernels.walk(seed0_optimum, 1e-3, z[:0], (0, 1, 2, 3), 2.0, 0.0)[0] == 0


def test_displace_refuses_bad_input_before_the_kernel_runs(monkeypatch):
    class Refuse:
        def __getattr__(self, name):
            raise AssertionError(f"the C kernel {name} was called")

    monkeypatch.setattr(_kernels, "_SVD4", Refuse())
    start, z = np.full(16, 0.25, dtype=complex), np.zeros((3, 16), dtype=complex)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1e-3, True, np.True_, "1e-3", 1e-3 + 0j, None, 10**400):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            _kernels.displace(start, bad, z)
    for bad in (start.real, start.astype(np.complex64), start[None], start.tolist()):
        with pytest.raises(ValueError, match="complex128 start"):
            _kernels.displace(bad, 1e-3, z)
    for bad in (z.real, z.astype(np.complex64), z[:, :8], z[0], z.reshape(3, 4, 4), z.tolist()):
        with pytest.raises(ValueError, match=r"complex128 \(m, 16\)"):
            _kernels.displace(start, 1e-3, bad)
    with pytest.raises(AssertionError):
        _kernels.displace(start, np.float64(1e-3), z)


def test_walk_refuses_bad_input_before_the_kernel_runs(monkeypatch):
    class Refuse:
        def __getattr__(self, name):
            raise AssertionError(f"the C kernel {name} was called")

    monkeypatch.setattr(_kernels, "_SVD4", Refuse())
    start, z, layout = np.full(16, 0.25, dtype=complex), np.zeros((3, 16), dtype=complex), (0, 1, 2, 3)
    for bad in (np.nan, np.inf, 0.0, -1e-3, True, "1e-3", 1e-3 + 0j, None):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            _kernels.walk(start, bad, z, layout, 2.0, -1e-7)
    for bad in (start.real, start.astype(np.complex64), start[None], start[:8], start.tolist()):
        with pytest.raises(ValueError, match="complex128 start vector of length 16"):
            _kernels.walk(bad, 1e-3, z, layout, 2.0, -1e-7)
    for bad in (z.real, z.astype(np.complex64), z[:, :8], z[0], z.reshape(3, 4, 4), z.tolist()):
        with pytest.raises(ValueError, match=r"complex128 \(m, 16\)"):
            _kernels.walk(start, 1e-3, bad, layout, 2.0, -1e-7)
    for bad in ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 3.0), (0, 1, 2, True), None):
        with pytest.raises(ValueError, match="layout must be a permutation"):
            _kernels.walk(start, 1e-3, z, bad, 2.0, -1e-7)
    for bad in (0.5, np.nan, "2", True, None):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            _kernels.walk(start, 1e-3, z, layout, bad, -1e-7)
    for bad in (np.nan, "-1e-7", None, 1j):
        with pytest.raises(ValueError, match="threshold must be a real number"):
            _kernels.walk(start, 1e-3, z, layout, 2.0, bad)
    with pytest.raises(AssertionError):
        _kernels.walk(start, np.float64(1e-3), z, np.array(layout), np.float64(2.0), -np.inf)


def _boundary_states():
    """States whose a1b2 pair (qubits 0 and 3) crosses from separable to
    entangled: cos t |B02 B13> + sin t |B03 B12>, B a Bell pair, with fine
    sweeps around the crossing t where det(rho^G) of that pair changes sign;
    then GHZ, W, product and basis states, whose pair reductions have
    det(rho^G) = 0 or are separable with a positive margin."""
    def bells(p, q):
        t = np.zeros((2,) * 4, dtype=complex)
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            t[(x, y, *((x, y) if (p, q) == ((0, 2), (1, 3)) else (y, x)))] = 0.5
        return t.reshape(16)

    a, b = bells((0, 2), (1, 3)), bells((0, 3), (1, 2))

    def det_pt(t):
        psi = np.cos(t) * a + np.sin(t) * b
        psi /= np.linalg.norm(psi)
        k = psi.reshape(2, 2, 2, 2).transpose(0, 3, 1, 2).reshape(4, 4)
        rho = (k @ k.conj().T).reshape(2, 2, 2, 2)
        return psi, np.linalg.det(rho.transpose(0, 3, 2, 1).reshape(4, 4))

    ts = np.linspace(0.0, np.pi / 2, 2001)
    dets = np.array([det_pt(t)[1] for t in ts])
    cross = int(np.flatnonzero(np.diff(np.sign(dets)) != 0)[0])
    lo, hi = ts[cross], ts[cross + 1]
    for _ in range(60):  # bisect to the sign change
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.sign(det_pt(mid)[1]) == np.sign(dets[cross]) else (lo, mid)
    # det(rho^G) within about 2e-7, then within about 2e-11, so some rows
    # fall on either side of SEPARABLE_DET
    fine = lo + np.concatenate([np.linspace(-1e-5, 1e-5, 401), np.linspace(-1e-9, 1e-9, 401)])
    states = [det_pt(t)[0] for t in np.concatenate([ts, fine])]
    rng = np.random.default_rng(213)
    product = np.kron(np.kron(random_state(rng, 1), random_state(rng, 1)), random_state(rng, 2))
    states += [ghz_state(4), w_state(4), bell_product(), product] + list(np.eye(16, dtype=complex))
    return np.array(states)


def test_screened_terms_are_the_unscreened_terms_bit_for_bit(seed0_optimum):
    gen = sampler.generator(sampler.RngSeed(214))
    haar = sampler.unit_noise(gen, search.SCAN_CHUNK)
    walk = np.vstack([
        _kernels.walk(seed0_optimum, 1e-3, sampler.unit_noise(gen, 1000), (0, 1, 2, 3), 2.0, np.inf)[1],
        _kernels.displace(seed0_optimum, 2e-2, sampler.unit_noise(gen, 1000)),
    ])
    boundary = _boundary_states()
    for states in (haar, walk, boundary):
        for alpha in (2.0, 1.5, 1.02, 1.0):
            for layout in ((0, 1, 2, 3), (2, 0, 3, 1)):
                screened = _kernels.terms_table(states, layout, alpha, 6)
                unscreened = _kernels.terms_table(states, layout, alpha, 6, np.inf)
                assert screened.tobytes() == unscreened.tobytes(), (alpha, layout)
    # the screen is taken near the optimum: the paper's symmetric violating
    # states have separable cross pairs, E(a1b2) = E(a2b1) = 0
    _, pair = split_terms(walk, (0, 1, 2, 3), 2.0)
    assert np.all(pair[:1000, 2:] == 0.0)
    # a screen that takes every pair leaves the first two and the bipartite term alone
    all_screened = _kernels.terms_table(haar, (0, 1, 2, 3), 1.5, 6, -np.inf)
    plain = _kernels.terms_table(haar, (0, 1, 2, 3), 1.5, 6)
    assert all_screened[:, :3].tobytes() == plain[:, :3].tobytes()
    assert np.all(all_screened[:, 3:7] == 0.0)


def test_a_nan_row_gives_nan_terms_whatever_the_screen():
    states = _haar_blocks(215, 3).reshape(3, 16)
    states[1, 9] = np.nan
    for separable_det in (-np.inf, _kernels.SEPARABLE_DET, np.inf):
        table = _kernels.terms_table(states, (0, 1, 2, 3), 2.0, 6, separable_det)
        e_bip, pair = table[:, 0], table[:, 1:7]
        assert np.isnan(e_bip[1]) and np.isnan(pair[1]).all(), separable_det
        assert np.isfinite(e_bip[[0, 2]]).all() and np.isfinite(pair[[0, 2]]).all()


def test_real_rank_deficient_pair_blocks_keep_their_singular_values():
    report = measures.residual_report(OPTIMUM_SYMMETRIC)
    assert report.e_a1b1 == report.e_a2b2
    e_bip, pair = oracle.terms(OPTIMUM_SYMMETRIC, (0, 1, 2, 3), (2.0,))[2.0]
    with mp.workdps(oracle.DPS):
        assert abs(report.ss_residual - float(e_bip - pair[0] - pair[1])) < 1e-13
    # real P,S-symmetric neighbours: at the unguarded kernel about 7% of their
    # a1b1 blocks at 1e-14 to 1e-10 came out wrong, by up to 1e-3
    rng = np.random.default_rng(230)
    v = rng.standard_normal((400, 16)).reshape(-1, 2, 2, 2, 2)
    v = (v + v.transpose(0, 2, 1, 4, 3) + v.transpose(0, 3, 4, 1, 2) + v.transpose(0, 4, 3, 2, 1)).reshape(-1, 16)
    for eps in (1e-14, 1e-12, 1e-10, 1e-8):
        states = OPTIMUM_SYMMETRIC + eps * v
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        blocks = states.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)  # qubits 0, 2
        tau = np.swapaxes(blocks, 1, 2) @ SPIN_FLIP @ blocks
        lam = _kernels.spin_flip_lambdas(blocks)
        assert np.max(np.abs(lam - np.linalg.svd(tau, compute_uv=False))) < 1e-14, eps


def test_singular_values_of_matrices_far_from_unit_scale():
    # each lane is scaled by a power of 2 before the sweeps, so a matrix far
    # from unit scale gets the values of its unit-scale copy, scaled exactly;
    # the unscaled kernel skipped every rotation below about 1e-77. The scale
    # comes from the largest |component|: scaled from the largest column
    # norm, a lane whose squared norms underflow (entries below about 1e-162)
    # or overflow (above about 1e154) was left unscaled and came out 0.92 off
    # at 2^-538 and [0, 0, 0, 0] at 1e-310.
    a = _haar_blocks(231, 50)
    unit = _kernels.singular_values4(a)
    lapack = np.linalg.svd(a, compute_uv=False)
    scales = (2.0**-1000, 2.0**-538, 2.0**-535, 2.0**-260, 2.0**-100, 2.0**100, 2.0**500, 2.0**600, 2.0**1000)
    for scale in scales:
        assert _kernels.singular_values4(a * scale).tobytes() == (unit * scale).tobytes(), scale
    assert np.max(np.abs(unit - lapack)) < 1e-14
    # subnormal entries keep about 14 significant digits of the unscaled
    # copy's, and the values no more (7.2e-14 relative, measured)
    got = _kernels.singular_values4(a * 1e-310)
    assert np.all(np.abs(got - lapack * 1e-310) <= 1e-12 * lapack[:, :1] * 1e-310)


def _lane_kinds():
    """One 4x4 matrix of each kind the lockstep SVD must keep apart: Haar,
    rank one, zero, NaN, subnormal, and a slow one: a complex Gaussian draw
    scaled to 1e-80, where TOL^2 np nq underflowed into the subnormals and the
    one-matrix kernel took 16 sweeps (counted in an instrumented build)
    against the 5 to 7 of a Haar matrix, until each lane was scaled to unit
    size."""
    rng = np.random.default_rng(216)
    haar = _haar_blocks(216, 1)[0]
    u, v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    nan = _haar_blocks(217, 1)[0]
    nan[2, 1] = np.nan
    slow = np.random.default_rng(2).standard_normal((2, 20000, 4, 4))[:, 13328]
    return {
        "haar": haar, "rank one": np.outer(u, v.conj()), "zero": np.zeros((4, 4), dtype=complex),
        "nan": nan, "subnormal": _haar_blocks(218, 1)[0] * 1e-310, "slow": 1e-80 * (slow[0] + 1j * slow[1]),
    }


def test_a_lane_never_depends_on_its_partners_or_its_position():
    kinds = _lane_kinds()
    names = list(kinds)
    for kernel in (_kernels.singular_values4, _kernels.spin_flip_lambdas):
        alone = {name: kernel(a).tobytes() for name, a in kinds.items()}
        for size in range(1, 18):
            for name in names:
                partners = [other for other in names if other != name]
                for at in range(size):
                    batch = [kinds[partners[j % len(partners)]] for j in range(size)]
                    batch[at] = kinds[name]
                    got = kernel(np.stack(batch))
                    assert got[at].tobytes() == alone[name], (kernel.__name__, name, size, at)


def test_a_ckw_r2_row_never_depends_on_its_partner_lane():
    # ckw_r2 runs two rows in lockstep, one in each lane of its vectors: a
    # row's residual and lambdas are those it gets alone, in either lane,
    # beside any partner (a NaN row included), as an odd last row with an
    # empty partner, and on either side of the 32-row block boundary
    for n in range(3, 9):
        rng = np.random.default_rng(230 + n)
        rows = rng.standard_normal((5, 2**n)) + 1j * rng.standard_normal((5, 2**n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[1] = w_state(n)
        rows[2] = 0.0
        rows[2, 0] = 1.0  # a product state: every pair separable
        rows[3, 3] = np.nan
        picks = rng.integers(0, 5, 35)
        for det in (_kernels.SEPARABLE_DET, np.inf, -np.inf):
            alone = [_kernels._ckw_r2(row[None], n, n % 3, det) for row in rows]

            def check(batch, picked):
                out, lam = _kernels._ckw_r2(rows[batch], n, n % 3, det)
                for at, r in enumerate(batch):
                    assert out[at].tobytes() == alone[r][0][0].tobytes(), (n, det, picked, at)
                    assert lam[at].tobytes() == alone[r][1][0].tobytes(), (n, det, picked, at)

            for a in range(5):
                for b in range(5):
                    check([a, b], "pair")
                check([a, (a + 1) % 5, (a + 3) % 5], "odd")
            check(picks, "35 rows")
            assert np.isfinite(_kernels._ckw_r2(rows[[0, 3]], n, n % 3, det)[0][0]), (n, det)


def _kernel_outputs(kernels=_kernels):
    """The outputs of every compiled kernel that runs the lockstep SVD, on
    Haar, rank-one, zero, NaN, subnormal and slow matrices, Haar states, and
    states near a Bell product, whose cross pairs the screen skips; from the
    package's `_kernels`, or from another build of it."""
    kinds = _lane_kinds()
    rng = np.random.default_rng(219)
    matrices = np.concatenate([_haar_blocks(220, 300), np.stack(list(kinds.values()) * 3)])
    matrices = matrices[rng.permutation(len(matrices))]
    near = _kernels.displace(bell_product(), 1e-2, sampler.unit_noise(sampler.generator(sampler.RngSeed(221)), 64))
    states = np.vstack([matrices.reshape(-1, 16), near])
    yield "singular_values4", "", kernels.singular_values4(matrices)
    yield "spin_flip_lambdas", "", kernels.spin_flip_lambdas(matrices)
    for alpha in (2.0, 1.5, 1.0):
        for k in (1, 2, 4, 6):
            for det in (_kernels.SEPARABLE_DET, np.inf, -np.inf):
                for layout in ((0, 1, 2, 3), (2, 0, 3, 1)):
                    # the terms alone, without the residuals the table appends
                    yield "_terms", f"{alpha} {k} {det} {layout}", kernels.terms_table(states, layout, alpha, k, det)[:, : 1 + k]
    for n in range(3, 9):
        rows = rng.standard_normal((40, 2**n)) + 1j * rng.standard_normal((40, 2**n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[0] = 0.0
        rows[0, 0] = 1.0  # a product state: its bipartite term is -0.0
        rows[1] = w_state(n)
        rows[2, 3] = np.nan
        for det in (_kernels.SEPARABLE_DET, np.inf, -np.inf):
            out, lam = kernels._ckw_r2(rows, n, n % 3, det)
            yield "_ckw_r2", f"{n} {det}", np.hstack([out[:, None], lam.reshape(len(rows), -1)])


def _digests(kernels=_kernels) -> dict:
    """sha256 of each kernel's outputs in _kernel_outputs, the first 16 hex digits."""
    digests = {}
    for kernel, case, x in _kernel_outputs(kernels):
        h = digests.setdefault(kernel, hashlib.sha256())
        h.update(case.encode())
        h.update(np.ascontiguousarray(x).tobytes())
    return {kernel: h.hexdigest()[:16] for kernel, h in digests.items()}


# _digests() at the commit before the lockstep SVD, which ran one matrix at a
# time, with the rows of the 1e-80 "slow" kind alone taken again once each
# lane was scaled to unit size and a subnormal |g|^2 no longer rotated: its 3
# singular_values4 and spin_flip_lambdas rows and its 3 rows in each
# alpha = 1.5 and alpha = 1 _terms case; its singular values and lambdas now
# agree with LAPACK's on the rescaled matrix to 1e-14. The 3 singular_values4
# rows of the "subnormal" kind were taken again once a lane whose squared
# column norms all underflow was scaled from its largest |component|: they
# were [0, 0, 0, 0] and now agree with LAPACK's. Its spin_flip_lambdas rows
# stay 0, since its spin-flip product underflows. The bits rest on numpy's
# default_rng streams and on libm's log2, expm1, log1p and log, as on x86-64
# glibc.
GOLDEN_DIGESTS = {
    "singular_values4": "7dc278d58f8e154f",
    "spin_flip_lambdas": "f8eaf11df122af5d",
    "_terms": "a3a1e63fc1e0e0e9",
    "_ckw_r2": "a99e26ed541ad25b",
}


def test_kernel_outputs_keep_the_bits_of_the_one_matrix_kernel():
    assert _digests() == GOLDEN_DIGESTS
    # a screened pair adds nothing: a product state's -0.0 stays -0.0 when
    # every pair is screened, and an unscreened pair's 0.0 makes it 0.0
    for n in range(3, 9):
        product = np.zeros((1, 2**n), dtype=complex)
        product[0, 0] = 1.0
        assert np.signbit(_kernels._ckw_r2(product, n, 0, -np.inf)[0][0]), n
        assert not np.signbit(_kernels._ckw_r2(product, n, 0, np.inf)[0][0]), n


def test_c_source_compiles_without_warnings(tmp_path):
    # index arithmetic and fixed-size buffers are where a silent sign or size bug would hide;
    # the build's own flags, since some warnings (-Wmaybe-uninitialized on partly filled
    # lane arrays) come only from the optimizer
    command = _kernels._compiler() + list(_kernels._CFLAGS) + [
        "-Wall", "-Wextra", "-Werror", "-c", "-o", str(tmp_path / "_svd4.o"), str(SRC / "_svd4.c"),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "_svd4.o").stat().st_size > 0


def _load_copy(directory: Path, edit=lambda source: source):
    """Import a copy of _kernels (and its C source, passed through edit) from
    `directory`, so its build cache is directory/__pycache__ and not the package's."""
    shutil.copy(SRC / "_kernels.py", directory / "_kernels.py")
    (directory / "_svd4.c").write_text(edit((SRC / "_svd4.c").read_text()))
    spec = importlib.util.spec_from_file_location("kernels_copy", directory / "_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_failure_names_the_command_and_its_stderr(tmp_path, monkeypatch):
    def failing(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, "", "cc: error: no such compiler\n")

    monkeypatch.setattr(subprocess, "run", failing)
    with pytest.raises(ImportError, match="-ffp-contract=off.*exited 1:\ncc: error: no such compiler"):
        _load_copy(tmp_path)

    def missing(command, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", command[0])

    monkeypatch.setattr(subprocess, "run", missing)
    with pytest.raises(ImportError, match="-ffp-contract=off.*No such file or directory"):
        _load_copy(tmp_path)
    # no partial library left behind
    assert [f for f in os.listdir(tmp_path / "__pycache__") if f.startswith("_svd4")] == []


def test_the_fma_clones_give_the_bits_of_the_plain_build(tmp_path, seed0_optimum):
    # FMA_CLONES adds an FMA build of the routines that call fma(); a copy
    # built without it calls libm's fma() there, and both round correctly
    clones = '__attribute__((target_clones("fma", "default")))'
    assert (SRC / "_svd4.c").read_text().count(clones) == 1
    plain = _load_copy(tmp_path, lambda source: source.replace(clones, ""))
    assert plain._SVD4._name != _kernels._SVD4._name
    assert _digests(plain) == GOLDEN_DIGESTS
    g = sampler.generator(sampler.RngSeed(13)).standard_normal((2000, 2, 16))
    z = _kernels.unit_rows(g)
    assert plain.unit_rows(g).tobytes() == z.tobytes()
    assert plain.displace(seed0_optimum, 1e-3, z).tobytes() == _kernels.displace(seed0_optimum, 1e-3, z).tobytes()
    for alpha in (2.0, 1.5):
        walks = [k.walk(seed0_optimum, 1e-3, z, (0, 1, 2, 3), alpha, np.inf) for k in (_kernels, plain)]
        assert walks[0][0] == walks[1][0] == 2000
        assert walks[0][1].tobytes() == walks[1][1].tobytes()
        assert walks[0][2].tobytes() == walks[1][2].tobytes()


def test_fresh_process_reuses_the_cached_library():
    refuse = (
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the compiler was called')\n"
        "subprocess.run = subprocess.Popen = refuse\n"
        "from ssmono import _kernels\n"
        "print(_kernels._SVD4._name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", refuse], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == _kernels._SVD4._name


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/run.py's tracer wraps package names by string; a renamed or
    # deleted one fails only there, with an AttributeError at install()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them at import; the fixture restores them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run

    tracer = run.make_tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
