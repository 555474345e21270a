"""Search loop semantics, region walks, continuation, and scans."""

import numpy as np
import pytest

from conftest import bell_product, random_state

from ssmono import measures, sampler, search


@pytest.fixture(scope="module")
def violating_record():
    # rng seed 0 descends into the violating basin in a couple of seconds
    cfg = search.SearchConfig(alpha=2.0, objective="ss", rng=sampler.RngSeed(0))
    rec = search.minimize_residual(cfg)
    assert rec.final_residuals.ss_residual < measures.VIOLATION_THRESHOLD
    return rec


def sequential_descent(config):
    """One candidate per draw, each scored by residual_report: the loop the
    block-speculative descent must reproduce bit for bit."""
    gen = sampler.generator(config.rng)
    field = "ss_residual" if config.objective == "ss" else "monogamy_residual"

    def value(state):
        return getattr(measures.residual_report(state, config.layout, config.alpha), field)

    current = sampler.haar_random_state(4, gen) if config.seed_state is None else config.seed_state
    best = value(current)
    rows = [(0, config.delta0, current, 0)]
    delta, counter, step, since = config.delta0, 0, 0, 0
    while delta >= config.delta_min:
        step += 1
        since += 1
        candidate = sampler.perturb_within(current, delta, gen)
        candidate_value = value(candidate)
        if candidate_value < best:
            current, best = candidate, candidate_value
            rows.append((step, delta, candidate, since))
            since = counter = 0
        else:
            counter += 1
            if counter >= config.counter_max:
                delta *= 0.5
                counter = 0
    return rows, step, delta


@pytest.mark.parametrize("objective, alpha", [("ss", 2.0), ("monogamy2", 1.5)])
def test_block_descent_matches_sequential_reference(objective, alpha):
    # counter_max = 50 is below the largest block and no multiple of it, so
    # blocks get cut at the counter; delta halves six times from 0.5 to 1e-2
    cfg = search.SearchConfig(
        alpha=alpha, objective=objective, counter_max=50, delta0=0.5, delta_min=1e-2,
        rng=sampler.RngSeed(21),
    )
    rec = search.minimize_residual(cfg)
    rows, steps, final_delta = sequential_descent(cfg)
    assert len(rows) > 10
    assert rec.total_states_generated == steps
    assert rec.final_delta == final_delta == 0.5 * 0.5**6
    assert len(rec.trace) == len(rows)
    for entry, (step, delta, state, since) in zip(rec.trace, rows):
        assert (entry.step, entry.delta, entry.states_since_accept) == (step, delta, since)
        assert entry.state.tobytes() == state.tobytes()
        report = measures.residual_report(state, cfg.layout, cfg.alpha)
        assert (entry.ss_residual, entry.monogamy_residual) == (
            report.ss_residual, report.monogamy_residual
        )
    assert rec.final_residuals == measures.residual_report(rows[-1][2], cfg.layout, cfg.alpha)


def test_search_config_validation():
    search.SearchConfig()
    with pytest.raises(ValueError):
        search.SearchConfig(objective="nope")
    with pytest.raises(ValueError):
        search.SearchConfig(delta0=0.0)
    with pytest.raises(ValueError):
        search.SearchConfig(delta_min=-1.0)
    with pytest.raises(ValueError):
        search.SearchConfig(counter_max=0)
    for name in ("delta0", "delta_min"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=name):
                search.SearchConfig(**{name: bad})
    with pytest.raises(ValueError):
        search.SearchConfig(seed_state=np.array([1, 0, 0, 0], dtype=complex))


def test_minimize_residual_evaluation_only_run():
    # delta0 below delta_min: the seed is recorded and no proposals are drawn
    cfg = search.SearchConfig(delta0=1e-6, delta_min=1e-4, seed_state=bell_product())
    rec = search.minimize_residual(cfg)
    assert len(rec.trace) == 1
    assert rec.total_states_generated == 0
    assert rec.trace[0].step == 0
    assert rec.trace[0].states_since_accept == 0
    assert rec.final_residuals.ss_residual == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(rec.final_state, rec.trace[0].state)


def test_minimize_residual_trace_is_strictly_improving():
    cfg = search.SearchConfig(delta0=0.5, delta_min=1e-2, rng=sampler.RngSeed(5))
    rec = search.minimize_residual(cfg)
    values = [t.ss_residual for t in rec.trace]
    assert len(values) > 1
    assert all(x > y for x, y in zip(values, values[1:]))
    assert rec.final_delta < cfg.delta_min
    assert rec.final_residuals.ss_residual == values[-1]


def test_trace_rows_reevaluate_bit_identically():
    cfg = search.SearchConfig(delta0=0.5, delta_min=1e-1, rng=sampler.RngSeed(5))
    rec = search.minimize_residual(cfg)
    for entry in rec.trace:
        fresh = measures.residual_report(entry.state, cfg.layout, cfg.alpha)
        assert fresh.ss_residual == entry.ss_residual
        assert fresh.monogamy_residual == entry.monogamy_residual


def test_minimize_residual_is_reproducible():
    runs = [
        search.minimize_residual(
            search.SearchConfig(delta0=0.5, delta_min=1e-2, rng=sampler.RngSeed(8))
        )
        for _ in range(2)
    ]
    a, b = runs
    np.testing.assert_array_equal(a.final_state, b.final_state)
    assert a.total_states_generated == b.total_states_generated
    assert [t.step for t in a.trace] == [t.step for t in b.trace]


def test_counter_max_exhaustion_halves_delta():
    # seeded at the exact optimum nothing is ever accepted, so each block of
    # counter_max rejections halves delta until it crosses delta_min
    cfg = search.SearchConfig(
        delta0=1e-3,
        delta_min=1e-4,
        counter_max=50,
        seed_state=bell_product(),
        rng=sampler.RngSeed(6),
    )
    rec = search.minimize_residual(cfg)
    assert len(rec.trace) == 1
    # blocks at 1e-3, 5e-4, 2.5e-4, 1.25e-4; the next halving ends the run
    assert rec.total_states_generated == 4 * 50
    assert rec.final_delta == cfg.delta0 * 0.5**4


def test_states_since_accept_bookkeeping():
    cfg = search.SearchConfig(delta0=0.5, delta_min=5e-2, rng=sampler.RngSeed(5))
    rec = search.minimize_residual(cfg)
    assert rec.trace[0].states_since_accept == 0
    assert all(t.states_since_accept >= 1 for t in rec.trace[1:])
    steps = [t.step for t in rec.trace]
    assert steps[0] == 0
    assert all(x < y for x, y in zip(steps, steps[1:]))
    assert rec.total_states_generated >= steps[-1]


def test_objective_monogamy2_minimizes_monogamy_residual():
    cfg = search.SearchConfig(
        objective="monogamy2", delta0=0.5, delta_min=1e-1, rng=sampler.RngSeed(9)
    )
    rec = search.minimize_residual(cfg)
    values = [t.monogamy_residual for t in rec.trace]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_random_walk_region_requires_violation():
    with pytest.raises(ValueError):
        search.random_walk_region(bell_product(), 1e-3, 10)


def test_random_walk_region_zero_steps(violating_record):
    reports = search.random_walk_region(violating_record.final_state, 1e-3, 0)
    assert len(reports) == 1
    assert reports[0].ss_residual < measures.VIOLATION_THRESHOLD


def test_random_walk_region_stays_in_violation(violating_record):
    reports = search.random_walk_region(
        violating_record.final_state, 1e-3, 300, rng=sampler.RngSeed(1, 1)
    )
    assert len(reports) > 1
    assert all(r.ss_residual < measures.VIOLATION_THRESHOLD for r in reports)


def test_random_walk_region_rejects_negative_steps(violating_record):
    with pytest.raises(ValueError):
        search.random_walk_region(violating_record.final_state, 1e-3, -1)


def test_random_walk_region_rejects_bad_delta(violating_record):
    for bad in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="delta"):
            search.random_walk_region(violating_record.final_state, bad, 10)


def test_random_walk_region_matches_sequential_reference(violating_record):
    # delta = 2e-2 leaves the region often enough that the walk's blocks
    # are cut short by rejections many times
    start, delta, steps, alpha = violating_record.final_state, 2e-2, 400, 2.0
    layout, rng = measures.PairingLayout(0, 1, 2, 3), sampler.RngSeed(3, 5)
    reports = search.random_walk_region(start, delta, steps, alpha, layout, rng)
    gen = sampler.generator(rng)
    current, visited = start, [start]
    for _ in range(steps):
        candidate = sampler.perturb_within(current, delta, gen)
        if measures.residual_report(candidate, layout, alpha).ss_residual < measures.VIOLATION_THRESHOLD:
            current = candidate
            visited.append(candidate)
    assert 20 < len(visited) < steps - 20
    assert reports == [measures.residual_report(s, layout, alpha) for s in visited]
    for state, report in list(zip(visited, reports))[::25]:
        assert report.e_bipartite == pytest.approx(
            measures.bipartite_pure_entanglement(state, (0, 1), alpha), abs=1e-10
        )
        for (i, j), term in zip(
            ((0, 2), (1, 3), (0, 3), (1, 2)),
            (report.e_a1b1, report.e_a2b2, report.e_a1b2, report.e_a2b1),
        ):
            assert term == pytest.approx(measures.pair_entanglement(state, i, j, alpha), abs=1e-10)


def test_continuation_schedule_validation():
    search.ContinuationSchedule(alphas=(1.5, 1.2))
    with pytest.raises(ValueError):
        search.ContinuationSchedule(alphas=())
    with pytest.raises(ValueError):
        search.ContinuationSchedule(alphas=(1.2, 1.5))  # not decreasing
    with pytest.raises(ValueError):
        search.ContinuationSchedule(alphas=(1.5, 1.0))  # must stay above 1
    with pytest.raises(ValueError):
        search.ContinuationSchedule(alphas=(1.5,), delta0=0.0)
    with pytest.raises(ValueError, match="delta0"):
        search.ContinuationSchedule(alphas=(1.5,), delta0=float("inf"))
    with pytest.raises(ValueError, match="delta_min"):
        search.ContinuationSchedule(alphas=(1.5,), delta_min=float("nan"))


def test_alpha_continuation_requires_violating_start():
    cfg = search.SearchConfig(delta0=1e-6, delta_min=1e-4, seed_state=bell_product())
    rec = search.minimize_residual(cfg)
    with pytest.raises(ValueError):
        search.alpha_continuation(search.ContinuationSchedule(alphas=(1.5,)), rec)


def test_alpha_continuation_single_stage(violating_record):
    sched = search.ContinuationSchedule(alphas=(1.5,), delta0=1e-2, delta_min=1e-3)
    records = search.alpha_continuation(sched, violating_record)
    assert len(records) == 1
    stage = records[0]
    assert stage.config.alpha == 1.5
    assert stage.config.rng == sampler.derive(violating_record.config.rng, 1)
    np.testing.assert_array_equal(stage.config.seed_state, violating_record.final_state)
    assert stage.final_residuals.ss_residual < measures.VIOLATION_THRESHOLD


def test_evaluate_scan_chunk_values_and_counts(violating_record):
    states = np.stack([violating_record.final_state, bell_product()])
    values, argmin, violations = search.evaluate_scan_chunk(states, (0, 1, 2, 3), 2.0)
    assert values.shape == (2,)
    assert argmin == 0
    assert violations == 1
    assert values[0] == pytest.approx(
        violating_record.final_residuals.ss_residual, abs=1e-10
    )
    assert values[1] == pytest.approx(0.0, abs=1e-12)


def test_batched_scan_values_match_reports():
    rng = np.random.default_rng(161)
    states = np.stack([random_state(rng, 4) for _ in range(40)])
    for alpha in (1.0, 1.5, 2.0):
        values, _, _ = search.evaluate_scan_chunk(states, (0, 1, 2, 3), alpha)
        for k in (0, 7, 19, 39):
            expected = measures.residual_report(states[k], alpha=alpha).ss_residual
            assert values[k] == pytest.approx(expected, abs=1e-11)


def test_haar_scan_summary_fields():
    s = search.haar_scan(2000, alpha=2.0, rng=sampler.RngSeed(4))
    assert s.n_states == 2000
    assert 0 <= s.argmin_index < 2000
    report = measures.residual_report(s.argmin_state, alpha=2.0)
    assert report.ss_residual == pytest.approx(s.min_residual, abs=1e-11)


def test_haar_scan_worker_count_does_not_change_results():
    a = search.haar_scan(6000, alpha=2.0, rng=sampler.RngSeed(3), workers=1)
    b = search.haar_scan(6000, alpha=2.0, rng=sampler.RngSeed(3), workers=2)
    assert a.min_residual == b.min_residual
    assert a.argmin_index == b.argmin_index
    assert a.violations == b.violations
    np.testing.assert_array_equal(a.argmin_state, b.argmin_state)


def test_haar_scan_validation():
    with pytest.raises(ValueError):
        search.haar_scan(0)
    with pytest.raises(ValueError):
        search.haar_scan(10, workers=0)
