"""Determinism and geometry of the state sampler."""

import numpy as np
import pytest

from conftest import pure_trace_distance

from ssmono import sampler


def test_rng_seed_validation():
    sampler.RngSeed(0, 0)
    sampler.RngSeed(2**64 - 1, 3)
    for bad in [(-1, 0), (0, -2), (2**64, 0), (1.5, 0)]:
        with pytest.raises(ValueError):
            sampler.RngSeed(*bad)


def test_rng_seed_takes_only_integers():
    assert sampler.RngSeed(np.int64(3), np.uint64(2)) == sampler.RngSeed(3, 2)
    # a bool seed would be archived as true
    for bad in [(True,), (np.True_,), (0, True), (0, False), (3.0,), ("3",)]:
        with pytest.raises(ValueError, match="must be an integer"):
            sampler.RngSeed(*bad)


def test_derive_offsets_wrap():
    assert sampler.derive(sampler.RngSeed(9, 4), 3) == sampler.RngSeed(9, 7)
    assert sampler.derive(sampler.RngSeed(9, 2**64 - 1), 1) == sampler.RngSeed(9, 0)


def test_equal_keys_replay_equal_sequences():
    a = sampler.haar_random_state(3, sampler.generator(sampler.RngSeed(5, 1)))
    b = sampler.haar_random_state(3, sampler.generator(sampler.RngSeed(5, 1)))
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = sampler.haar_random_state(3, sampler.generator(sampler.RngSeed(5, 1)))
    b = sampler.haar_random_state(3, sampler.generator(sampler.RngSeed(5, 2)))
    c = sampler.haar_random_state(3, sampler.generator(sampler.RngSeed(6, 1)))
    assert np.max(np.abs(a - b)) > 1e-3
    assert np.max(np.abs(a - c)) > 1e-3


def test_haar_random_state_is_normalized():
    gen = sampler.generator(sampler.RngSeed(1))
    for n in (1, 2, 4, 8):
        psi = sampler.haar_random_state(n, gen)
        assert psi.shape == (2**n,)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_haar_random_state_rejects_bad_sizes():
    gen = sampler.generator(sampler.RngSeed(1))
    for n in (0, -1, 9):
        with pytest.raises(ValueError):
            sampler.haar_random_state(n, gen)


def test_haar_random_state_takes_only_integer_sizes():
    gen = sampler.generator(sampler.RngSeed(1))
    assert sampler.haar_random_state(np.int64(4), gen).shape == (16,)
    # True used to give a 2-amplitude state and 2.5 numpy's TypeError
    for bad in (True, np.True_, 2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            sampler.haar_random_state(bad, gen)


def test_haar_first_amplitude_moment():
    # E |<e0|psi>|^2 = 1/d on the unit sphere
    gen = sampler.generator(sampler.RngSeed(7))
    samples = [abs(sampler.haar_random_state(3, gen)[0]) ** 2 for _ in range(4000)]
    assert np.mean(samples) == pytest.approx(1.0 / 8.0, abs=0.01)


def test_perturb_within_stays_inside_radius():
    gen = sampler.generator(sampler.RngSeed(3))
    psi = sampler.haar_random_state(4, gen)
    for delta in (0.5, 1e-2, 1e-5):
        for _ in range(200):
            cand = sampler.perturb_within(psi, delta, gen)
            assert np.linalg.norm(cand) == pytest.approx(1.0, abs=1e-12)
            assert pure_trace_distance(psi, cand) <= delta * (1 + 1e-12)


def test_perturb_within_actually_moves():
    gen = sampler.generator(sampler.RngSeed(4))
    psi = sampler.haar_random_state(2, gen)
    cand = sampler.perturb_within(psi, 0.3, gen)
    assert pure_trace_distance(psi, cand) > 0.01


def test_perturb_within_rejects_nonpositive_delta():
    gen = sampler.generator(sampler.RngSeed(5))
    psi = sampler.haar_random_state(2, gen)
    for delta in (0.0, -0.1):
        with pytest.raises(ValueError):
            sampler.perturb_within(psi, delta, gen)
