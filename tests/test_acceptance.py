"""Acceptance suite: the ten headline checks, one test per criterion.

These are the expensive end-to-end runs; the whole module takes several
minutes on one core. Each test prints a one-line summary with the measured
numbers next to the bounds they must meet.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import bell_pair, density_pair_term, reduced_density, split_terms

from ssmono import _kernels, cli, linalg, measures, sampler, search, store

RESTARTS = 30
WINDOW_LO, WINDOW_HI = -0.0202, -0.0192
EXTENDED_SCHEDULE = (1.5, 1.2, 1.1, 1.05, 1.02, 1.01, 1.005, 1.002)


@pytest.fixture(scope="module")
def restart_batch():
    runs = []
    for seed in range(RESTARTS):
        cfg = search.SearchConfig(alpha=2.0, objective="ss", rng=sampler.RngSeed(seed))
        t0 = time.perf_counter()
        rec = search.minimize_residual(cfg)
        runs.append((rec, time.perf_counter() - t0))
    return runs


@pytest.fixture(scope="module")
def violating_runs(restart_batch):
    return [
        rec
        for rec, _ in restart_batch
        if WINDOW_LO <= rec.final_residuals.ss_residual <= WINDOW_HI
    ]


@pytest.fixture(scope="module")
def continuation_stages(violating_runs):
    schedule = search.ContinuationSchedule(alphas=EXTENDED_SCHEDULE)
    return search.alpha_continuation(schedule, violating_runs[0])


def test_criterion_01_restarts_reach_the_violating_optimum(restart_batch, violating_runs):
    terminals = [rec.final_residuals.ss_residual for rec, _ in restart_batch]
    times = [t for _, t in restart_batch]
    others = [v for v in terminals if not (WINDOW_LO <= v <= WINDOW_HI)]
    print(
        f"[criterion 1] {len(violating_runs)}/{RESTARTS} runs in "
        f"[{WINDOW_LO}, {WINDOW_HI}], worst non-violating |residual| "
        f"{max((abs(v) for v in others), default=0.0):.3e}, slowest run {max(times):.1f}s"
    )
    assert len(restart_batch) == RESTARTS
    assert len(violating_runs) >= 1
    assert all(abs(v) <= 1e-4 for v in others)
    assert max(times) < 300.0


def test_criterion_02_optimum_fingerprint(violating_runs):
    rec = violating_runs[0]
    fp = store.run_fingerprint(rec.final_state, rec.config.layout, rec.config.alpha)
    pe = fp["pair_entanglements"]
    r = rec.final_residuals
    print(
        f"[criterion 2] spectrum_a1a2 {np.round(fp['spectrum_a1a2'], 4)}, "
        f"E(a1b1) {pe['a1b1']:.4f}, E(a2b2) {pe['a2b2']:.4f}, "
        f"e_bipartite {r.e_bipartite:.4f}"
    )
    np.testing.assert_allclose(fp["spectrum_a1a2"], [0.66, 0.14, 0.14, 0.06], atol=0.01)
    np.testing.assert_allclose(fp["spectrum_a1b1"], [0.997, 0.003, 0.0, 0.0], atol=0.005)
    np.testing.assert_allclose(fp["spectrum_a2b2"], [0.997, 0.003, 0.0, 0.0], atol=0.005)
    assert pe["a1b1"] == pytest.approx(0.54, abs=0.01)
    assert pe["a2b2"] == pytest.approx(0.54, abs=0.01)
    for name in ("a1a2", "a1b2", "a2b1", "b1b2"):
        assert abs(pe[name]) < 1e-3
    assert r.e_bipartite == pytest.approx(1.06, abs=0.01)


def test_criterion_03_ss_and_monogamy_coincide_inside_the_region(violating_runs):
    terminal_gap = max(
        abs(rec.final_residuals.ss_residual - rec.final_residuals.monogamy_residual)
        for rec in violating_runs
    )
    reports = search.random_walk_region(
        violating_runs[0].final_state,
        delta=1e-3,
        steps=11000,
        rng=sampler.RngSeed(0, 77),
    )
    walk_gap = max(abs(r.ss_residual - r.monogamy_residual) for r in reports)
    print(
        f"[criterion 3] {len(violating_runs)} terminals (max gap {terminal_gap:.3e}), "
        f"{len(reports)} walk states (max gap {walk_gap:.3e})"
    )
    assert len(reports) >= 10**4
    assert all(r.ss_residual < measures.VIOLATION_THRESHOLD for r in reports)
    assert terminal_gap < 1e-6
    assert walk_gap < 1e-6


def test_criterion_04_alpha_continuation_shrinks_the_violation(
    violating_runs, continuation_stages
):
    start = violating_runs[0].final_residuals.ss_residual
    mags = [-r.final_residuals.ss_residual for r in continuation_stages]
    print(
        "[criterion 4] magnitudes along alpha "
        + ", ".join(
            f"{a:g}: {m:.3e}" for a, m in zip(EXTENDED_SCHEDULE, mags)
        )
    )
    assert all(
        r.final_residuals.ss_residual < measures.VIOLATION_THRESHOLD
        for r in continuation_stages
    )
    chain = [-start] + mags
    assert all(x > y for x, y in zip(chain, chain[1:]))
    assert 1e-7 <= mags[-1] <= 1e-5


def test_criterion_04_violation_vanishes_quadratically_at_alpha_one(continuation_stages):
    # near alpha = 1 the paper's violation closes as (alpha - 1)^2: a
    # least-squares fit of m = (alpha - 1)^2 (a + b (alpha - 1)) to the last
    # four stages leaves a relative residual of about 3e-4
    x = np.array([r.config.alpha - 1.0 for r in continuation_stages[-4:]])
    m = np.array([-r.final_residuals.ss_residual for r in continuation_stages[-4:]])
    (a, b), *_ = np.linalg.lstsq(np.column_stack([x**2, x**3]), m, rcond=None)
    relative = np.abs((a + b * x) * x**2 - m) / m
    print(f"[criterion 4] m/(alpha-1)^2 = {', '.join(f'{v:.5f}' for v in m / x**2)}; "
          f"fit a = {a:.5f}, b = {b:.4f}, worst relative residual {relative.max():.2e} (bound 1e-3)")
    assert a > 0
    assert relative.max() <= 1e-3


def test_criterion_04_no_violation_at_alpha_one(violating_runs, continuation_stages):
    # the paper's alpha = 1 claim, checked locally: a descent at alpha = 1
    # from the alpha = 1.002 terminal, on the stream after the stages', ends
    # at ss >= 0 to rounding (streams 9, 10 and 11 ended within 9e-16 of 0)
    last = continuation_stages[-1]
    config = search.SearchConfig(
        alpha=1.0, layout=last.config.layout, delta0=1e-2, delta_min=1e-8,
        rng=sampler.derive(violating_runs[0].config.rng, 9), seed_state=last.final_state,
    )
    t0 = time.perf_counter()
    record = search.minimize_residual(config)
    ss = record.final_residuals.ss_residual
    print(f"[criterion 4] alpha 1 descent from the alpha {last.config.alpha:g} terminal: ss {ss:.3e} "
          f"(bound -1e-13) after {record.total_states_generated} states, {time.perf_counter() - t0:.2f}s")
    assert ss >= -1e-13


def test_criterion_04_terminals_match_the_oracle(violating_runs, continuation_stages):
    # every term of each stage's terminal, the two fingerprint-only pairs
    # included, against the 40-digit oracle; the alpha = 1.002 ss residual is
    # a 3e-7 difference of O(1) terms, so its sign needs this check
    layout = violating_runs[0].config.layout.as_tuple()
    worst = 0.0
    for record in continuation_stages:
        alpha, psi = record.config.alpha, record.final_state
        e_bip, pair = split_terms(psi[None], layout, alpha, 6)
        want_bip, want_pair = oracle.terms(psi, layout, (alpha,))[alpha]
        errors = [abs(e_bip[0] - float(want_bip))] + [abs(x - float(y)) for x, y in zip(pair[0], want_pair)]
        assert max(errors) < 1e-13, (alpha, errors)
        worst = max(worst, *errors)
    want_ss = float(want_bip - want_pair[0] - want_pair[1])
    got_ss = continuation_stages[-1].final_residuals.ss_residual
    print(f"[criterion 4] worst term error against the oracle {worst:.2e}; "
          f"alpha {alpha:g} ss {got_ss:.6e}, oracle {want_ss:.6e}")
    assert abs(got_ss - want_ss) < 1e-13
    assert want_ss < measures.VIOLATION_THRESHOLD


def test_criterion_04_fingerprints_agree_with_the_density_matrix_route(violating_runs, continuation_stages):
    # archives written before the fingerprint moved onto the residual kernel
    # took it through partial traces and eigh, the route conftest keeps as the
    # tests' reference; on the real optimum and the terminals the two agree
    # far inside LOAD_RESIDUAL_TOL, so they reload
    worst = 0.0
    for record in [violating_runs[0]] + continuation_stages:
        psi, layout, alpha = record.final_state, record.config.layout, record.config.alpha
        fp = store.run_fingerprint(psi, layout, alpha)
        roles = {"a1": layout.a1, "a2": layout.a2, "b1": layout.b1, "b2": layout.b2}
        for name, value in fp["pair_entanglements"].items():
            i, j = roles[name[:2]], roles[name[2:]]
            worst = max(worst, abs(value - density_pair_term(psi, i, j, alpha)))
        for name in ("spectrum_a1a2", "spectrum_a1b1", "spectrum_a2b2"):
            keep = sorted((roles[name[-4:-2]], roles[name[-2:]]))
            old = linalg.density_eigh(reduced_density(psi, keep))[0][::-1]
            worst = max(worst, float(np.max(np.abs(np.array(fp[name]) - old))))
    print(f"[criterion 4] fingerprints of the optimum and {len(continuation_stages)} terminals "
          f"within {worst:.2e} of the density-matrix route")
    assert worst < 1e-14


def test_criterion_05_haar_scan_finds_no_violation():
    t0 = time.perf_counter()
    summary = search.haar_scan(100_000, alpha=2.0, rng=sampler.RngSeed(0))
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 5] {summary.n_states} states, {summary.violations} violations, "
        f"min residual {summary.min_residual:.4f}, {elapsed:.1f}s"
    )
    assert summary.n_states == 100_000
    assert summary.violations == 0
    assert summary.min_residual > measures.VIOLATION_THRESHOLD
    assert elapsed < 600.0


def test_criterion_06_r2_monogamy_on_random_states():
    worst_per_n = {}
    for n in (3, 4, 5, 6):
        _, worst, _, state = search.haar_minimum(
            10_000, n, sampler.RngSeed(0, n << 32), "batched_ckw_r2", (n, 0), -1e-9, 1
        )
        assert _kernels.batched_ckw_r2(state[None], n)[0] == pytest.approx(worst, abs=1e-12)
        worst_per_n[n] = worst
    print(
        "[criterion 6] min residual per size "
        + ", ".join(f"n={n}: {v:.3e}" for n, v in worst_per_n.items())
    )
    assert all(v >= -1e-9 for v in worst_per_n.values())


def test_criterion_07_sum_inequality_on_admissible_vectors():
    vectors = cli._admissible_vectors(sampler.generator(sampler.RngSeed(0)), 100_000)
    worst = float(measures.sum_inequality_residuals(vectors).min())
    print(f"[criterion 7] 100000 vectors, min residual {worst:.3e}")
    assert worst >= -1e-12


def test_criterion_08_concurrence_formula_shape_and_limit():
    grid = np.linspace(0.0, 1.0, 1001)
    at_one = np.array([measures.renyi_from_concurrence(c, 1.0) for c in grid])
    worst_d1, worst_d2 = math.inf, math.inf
    for alpha in (1.0, 1.5, 2.0, 3.0):
        vals = np.array([measures.renyi_from_concurrence(c, alpha) for c in grid])
        worst_d1 = min(worst_d1, np.diff(vals).min())
        worst_d2 = min(worst_d2, np.diff(vals, 2).min())
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        vals = np.array([measures.renyi_from_concurrence(c, 1.0 + eps) for c in grid])
        gaps.append(float(np.max(np.abs(vals - at_one))))
    print(
        f"[criterion 8] min first diff {worst_d1:.3e}, min second diff {worst_d2:.3e}, "
        f"gap to the alpha=1 branch at eps 1e-2/1e-3/1e-4: "
        + ", ".join(f"{g:.3e}" for g in gaps)
    )
    assert worst_d1 >= -1e-10
    assert worst_d2 >= -1e-9
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4


def test_criterion_09_concurrence_oracles():
    gen = sampler.generator(sampler.RngSeed(0, 9))
    pure_worst = 0.0
    for _ in range(10_000):
        psi = sampler.haar_random_state(2, gen)
        rho = np.outer(psi, psi.conj())
        a, b, c, d = psi
        pure_worst = max(pure_worst, abs(measures.concurrence(rho) - 2 * abs(a * d - b * c)))
    bell = bell_pair()
    proj = np.outer(bell, bell.conj())
    werner_worst = 0.0
    for p in np.linspace(0.0, 1.0, 201):
        rho = p * proj + (1 - p) * np.eye(4) / 4
        werner_worst = max(
            werner_worst, abs(measures.concurrence(rho) - max(0.0, (3 * p - 1) / 2))
        )
    r2 = measures.renyi_entropy(np.diag([0.66, 0.14, 0.14, 0.06]), 2.0)
    print(
        f"[criterion 9] pure-state worst {pure_worst:.3e}, Werner worst "
        f"{werner_worst:.3e}, reference R2 {r2:.6f}"
    )
    assert pure_worst <= 1e-10
    assert werner_worst <= 1e-10
    assert r2 == pytest.approx(1.0637, abs=5e-4)


def test_criterion_10_archives_reproduce_across_workers(tmp_path):
    def body(path):
        lines = Path(path).read_text().splitlines()
        return "\n".join(line for line in lines if '"created_at"' not in line)

    s1 = search.haar_scan(20_000, alpha=2.0, rng=sampler.RngSeed(12), workers=1)
    s2 = search.haar_scan(20_000, alpha=2.0, rng=sampler.RngSeed(12), workers=2)
    p1, p2 = tmp_path / "scan_w1.json", tmp_path / "scan_w2.json"
    store.save_scan(s1, p1)
    store.save_scan(s2, p2)

    runs = []
    for i in range(2):
        cfg = search.SearchConfig(
            alpha=2.0, objective="ss", delta0=0.5, delta_min=1e-2, rng=sampler.RngSeed(12)
        )
        path = tmp_path / f"run{i}.json"
        store.save_run(store.make_archive(search.minimize_residual(cfg)), path)
        runs.append(path)

    scans_match = body(p1) == body(p2)
    runs_match = body(runs[0]) == body(runs[1])
    print(f"[criterion 10] scan archives byte-identical: {scans_match}, "
          f"run archives byte-identical: {runs_match}")
    assert scans_match
    assert runs_match
