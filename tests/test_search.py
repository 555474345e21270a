"""Search loop semantics, region walks, continuation, and scans."""

import concurrent.futures
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import bell_product, density_pair_term, random_state, reduced_density, relabeled

from ssmono import _kernels, measures, sampler, search


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


@pytest.mark.parametrize(
    "objective, alpha, counter_max, delta0",
    [("ss", 2.0, 50, 0.5), ("monogamy2", 1.5, 50, 0.5), ("ss", 2.0, 300, 0.5), ("monogamy2", 1.5, 300, 0.5),
     ("ss", 2.0, 50, 1e-3)],
    ids=["ss-2.0", "monogamy2-1.5", "ss-2.0-counter300", "monogamy2-1.5-counter300", "evaluation-only"],
)
def test_block_descent_matches_sequential_reference(objective, alpha, counter_max, delta0):
    # counter_max = 50 is below the largest block and no multiple of it, so
    # blocks get cut at the counter; at 300, runs of rejections cross the
    # boundaries of the NOISE_BLOCK-row noise draws. delta halves six times
    # from 0.5 to 1e-2; a delta0 below delta_min evaluates the seed alone
    cfg = search.SearchConfig(
        alpha=alpha, objective=objective, counter_max=counter_max, delta0=delta0, delta_min=1e-2,
        rng=sampler.RngSeed(21),
    )
    rec = search.minimize_residual(cfg)
    rows, steps, final_delta = sequential_descent(cfg)
    if delta0 < cfg.delta_min:
        assert len(rows) == 1 and steps == 0 and final_delta == delta0
    else:
        assert len(rows) > 10
        assert steps > search.NOISE_BLOCK
        assert final_delta == 0.5 * 0.5**6
    assert rec.total_states_generated == steps
    assert rec.final_delta == final_delta
    assert len(rec.trace) == len(rows)
    for entry, (step, delta, state, since) in zip(rec.trace, rows):
        assert (entry.step, entry.delta, entry.states_since_accept) == (step, delta, since)
        assert entry.state.tobytes() == state.tobytes()
        report = measures.residual_report(state, cfg.layout, cfg.alpha)
        assert (entry.ss_residual, entry.monogamy_residual) == (
            report.ss_residual, report.monogamy_residual
        )
    assert rec.final_residuals == measures.residual_report(rows[-1][2], cfg.layout, cfg.alpha)


# what every step length refuses, through one check (_kernels.checked_delta)
BAD_DELTAS = (0.0, -1e-3, float("inf"), float("nan"), True, False, np.True_, "1e-3", None, 1e-3 + 0j,
              [1e-3], 10**400)


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
        for bad in BAD_DELTAS:
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
                search.SearchConfig(**{name: bad})
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
                search.ContinuationSchedule(alphas=(1.5,), **{name: bad})
    search.SearchConfig(delta0=1, delta_min=np.float32(1e-3))
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
    # the trace is a sequence held as columns: negative indices, slices, bounds
    assert rec.trace[-1].state.tobytes() == rec.final_state.tobytes()
    assert [t.step for t in rec.trace[-2:]] == [t.step for t in rec.trace][-2:]
    with pytest.raises(IndexError):
        rec.trace[len(rec.trace)]


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


def test_a_record_derives_its_fields_again_under_replace():
    # perfbench re-seeds the seed-0 optimum's record with dataclasses.replace
    rec = search.minimize_residual(search.SearchConfig(delta0=0.5, delta_min=5e-2, rng=sampler.RngSeed(5)))
    moved = dataclasses.replace(rec, config=dataclasses.replace(rec.config, rng=sampler.RngSeed(7)))
    assert moved.trace is rec.trace and moved.config.rng == sampler.RngSeed(7)
    assert (moved.total_states_generated, moved.final_delta) == (rec.total_states_generated, rec.final_delta)
    assert moved.final_residuals == rec.final_residuals
    assert moved.final_state.tobytes() == rec.final_state.tobytes()
    with pytest.raises(ValueError, match="final_state"):
        dataclasses.replace(rec, final_state=rec.final_state)


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
    # a non-integer count is a usage error, not a TypeError from numpy
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="steps must be an integer"):
            search.random_walk_region(violating_record.final_state, 1e-3, bad)
    assert len(search.random_walk_region(violating_record.final_state, 1e-3, np.int64(0))) == 1


def test_random_walk_region_rejects_bad_delta(violating_record):
    for bad in BAD_DELTAS:
        with pytest.raises(ValueError, match="^delta must be finite and positive"):
            search.random_walk_region(violating_record.final_state, bad, 10)


def test_random_walk_region_matches_sequential_reference(violating_record):
    # delta = 2e-2 leaves the region often enough that the walk's blocks
    # are cut short by rejections many times; a non-canonical layout walks
    # the optimum with its qubits relabeled to match
    delta, steps = 2e-2, 400
    for alpha, layout in ((2.0, (0, 1, 2, 3)), (1.5, (0, 1, 2, 3)), (2.0, (2, 0, 3, 1)), (1.5, (3, 2, 0, 1))):
        start = relabeled(violating_record.final_state, layout)
        layout, rng = measures.PairingLayout(*layout), sampler.RngSeed(3, 5)
        reports = search.random_walk_region(start, delta, steps, alpha, layout, rng)
        gen = sampler.generator(rng)
        current, visited = start, [start]
        for _ in range(steps):
            candidate = sampler.perturb_within(current, delta, gen)
            if measures.residual_report(candidate, layout, alpha).ss_residual < measures.VIOLATION_THRESHOLD:
                current = candidate
                visited.append(candidate)
        assert 20 < len(visited) < steps - 20, (alpha, layout)
        assert reports == [measures.residual_report(s, layout, alpha) for s in visited], (alpha, layout)
        # built a block at a time, each report is still a whole ResidualReport
        assert all(type(report) is measures.ResidualReport and len(report) == 8 for report in reports)
        assert [report.alpha for report in reports] == [alpha] * len(reports)
        for state, report in list(zip(visited, reports))[::25]:
            assert report.e_bipartite == pytest.approx(
                measures.renyi_entropy(reduced_density(state, sorted((layout.a1, layout.a2))), alpha), abs=1e-10
            )
            for (i, j), term in zip(
                ((layout.a1, layout.b1), (layout.a2, layout.b2), (layout.a1, layout.b2), (layout.a2, layout.b1)),
                (report.e_a1b1, report.e_a2b2, report.e_a1b2, report.e_a2b1),
            ):
                assert term == pytest.approx(density_pair_term(state, i, j, alpha), abs=1e-10)


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
    # both used to be accepted: a NaN alpha failed only after the stages before it ran
    for alphas in ((1.5, float("nan")), (float("inf"), 1.5)):
        with pytest.raises(ValueError, match="alpha"):
            search.ContinuationSchedule(alphas=alphas)


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


def test_score_chunk_values_and_counts(violating_record):
    states = np.stack([violating_record.final_state, bell_product()])
    values = _kernels.batched_ss(states, (0, 1, 2, 3), 2.0)
    assert values.shape == (2,)
    assert np.argmin(values) == 0
    assert np.sum(values < measures.VIOLATION_THRESHOLD) == 1
    assert values[0] == pytest.approx(
        violating_record.final_residuals.ss_residual, abs=1e-10
    )
    assert values[1] == pytest.approx(0.0, abs=1e-12)


def test_batched_scan_values_match_reports():
    rng = np.random.default_rng(161)
    states = np.stack([random_state(rng, 4) for _ in range(40)])
    for alpha in (1.0, 1.5, 2.0):
        values = _kernels.batched_ss(states, (0, 1, 2, 3), alpha)
        for k in (0, 7, 19, 39):
            expected = measures.residual_report(states[k], alpha=alpha).ss_residual
            assert values[k] == pytest.approx(expected, abs=1e-11)


def test_chunk_states_are_the_normalized_draws_bit_for_bit():
    # a chunk is built and normalized in place, block by block; its states
    # keep the bits of the plain z / |z|. Its kernel calls share a cut, so
    # rows that cannot be the least value nor fall below the threshold skip
    # their singular values: the count, the least value and its row are
    # still those of scoring every row
    cases = [(4, "batched_ss", ((0, 1, 2, 3), alpha), threshold)
             for alpha in (1.0, 1.5, 2.0, 3.0) for threshold in (-1e-7, 1.2)]
    cases += [(n, "batched_ckw_r2", (n, 0), threshold) for n in range(3, 9) for threshold in (-1e-9, 0.5, 0.95)]
    split = set()  # the sizes with a count that the cut could get wrong: neither none nor all
    for n, kernel, args, threshold in cases:
        size = (search.SCAN_CHUNK * 16 >> n) - 5
        gen = sampler.generator(sampler.derive(sampler.RngSeed(12), 3))
        z = gen.standard_normal((size, 2**n)) + 1j * gen.standard_normal((size, 2**n))
        expected = z / np.linalg.norm(z, axis=1, keepdims=True)
        values = getattr(_kernels, kernel)(expected, *args)
        task = (2, size, n, sampler.RngSeed(12), kernel, args, threshold)
        violations, least, argmin, state = search._chunk_task(task)
        want = (int(np.sum(values < threshold)), values.min(), int(np.argmin(values)))
        assert (violations, least, argmin) == want, (kernel, args, threshold)
        assert state.tobytes() == expected[argmin].tobytes()
        if 0 < violations < size:
            split.add(n)
    assert split == {3, 4, 5, 6, 7, 8}


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


def test_haar_minimum_pool_has_no_more_workers_than_chunks(monkeypatch):
    # a fork-started pool forks every one of max_workers at its first submit;
    # and the pool is handed at most two chunks per process at a time, so that
    # its queue does not grow with the chunk count
    opened, most_in_flight = [], []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)
            most_in_flight.append(0)
            self.in_flight = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            pool = self
            pool.in_flight += 1
            most_in_flight[-1] = max(most_in_flight[-1], pool.in_flight)

            class Future:
                def result(self):
                    pool.in_flight -= 1
                    return fn(task)

                def cancel(self):
                    return True

            return Future()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    pooled = search.haar_scan(3 * search.SCAN_CHUNK - 5, rng=sampler.RngSeed(8), workers=64)
    assert opened == [3] and most_in_flight == [3]
    serial = search.haar_scan(3 * search.SCAN_CHUNK - 5, rng=sampler.RngSeed(8), workers=1)
    assert (pooled.min_residual, pooled.argmin_index) == (serial.min_residual, serial.argmin_index)
    # nor more than the CPUs: 40 chunks of 256 states at n = 8
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    many = search.haar_minimum(40 * 256, 8, sampler.RngSeed(9), "batched_ckw_r2", (8, 0), 0.0, 10_000)
    assert opened == [3, 3] and most_in_flight == [3, 2 * 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process, no pool
    assert search.haar_minimum(40 * 256, 8, sampler.RngSeed(9), "batched_ckw_r2", (8, 0), 0.0, 10_000)[1:3] == many[1:3]
    assert opened == [3, 3]


def test_haar_minimum_memory_does_not_grow_with_the_chunk_count():
    # each chunk's result is folded as it arrives: a driver that kept every
    # chunk's argmin state (4 KiB at n = 8) would grow by about 280 KB over these 64 chunks
    peaks = []
    for chunks in (1, 2, 66):  # the first call also loads what the kernel needs once
        tracemalloc.start()
        try:
            search.haar_minimum(chunks * 256, 8, sampler.RngSeed(1, 8 << 32), "batched_ckw_r2", (8, 0), 0.0, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 64 * 1024, peaks


def _loaded_after(statement: str, module: str) -> bool:
    """Whether `module` is in sys.modules of a fresh interpreter after `statement`."""
    code = f"import sys; {statement}; print({module!r} in sys.modules)"
    src = str(Path(search.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_import_leaves_multiprocessing_out():
    # the pool is imported only when one opens; multiprocessing costs every process about 1.5 MiB
    assert not _loaded_after("import ssmono.cli", "multiprocessing")


def test_package_import_loads_no_module():
    # the package is used through its modules: its __init__ re-exports nothing
    assert not _loaded_after("import ssmono", "ssmono._kernels")


def test_haar_scan_validation():
    with pytest.raises(ValueError):
        search.haar_scan(0)
    with pytest.raises(ValueError):
        search.haar_scan(10, workers=0)
    # counts must be integers: True is not one state, nor 1.5 workers one worker
    for n_states, workers in ((True, 1), (10.5, 1), (100, 1.5), (100, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            search.haar_scan(n_states, workers=workers)
    assert search.haar_scan(np.int64(10), workers=np.int64(1)).n_states == 10
    # a chunk of 2**16 amplitudes holds no state beyond MAX_QUBITS, and a
    # shift by a negative count is no chunk at all
    for n_qubits in (0, -1, 9, 17, True, 2.5, "4"):
        with pytest.raises(ValueError, match="n_qubits"):
            search.haar_minimum(10, n_qubits, sampler.RngSeed(0), "batched_ss", ((0, 1, 2, 3), 2.0), 0.0, 1)
