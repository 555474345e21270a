"""Monte Carlo residual minimization, region walks, Haar scans, alpha continuation."""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, linalg, measures, sampler

OBJECTIVES = ("ss", "monogamy2")
# fixed partition size so scan results never depend on the worker count
SCAN_CHUNK = 4096
# proposals scored per kernel call in the descent and the walk
BLOCK_MIN, BLOCK_MAX = 8, 64


def _check_deltas(**deltas) -> None:
    for name, value in deltas.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True, eq=False)
class SearchConfig:
    alpha: float = 2.0
    objective: str = "ss"
    layout: measures.PairingLayout = measures.CANONICAL_LAYOUT
    delta0: float = 0.5
    counter_max: int = 1000
    delta_min: float = 1e-4
    rng: sampler.RngSeed = sampler.RngSeed(0, 0)
    seed_state: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", measures.normalize_alpha(self.alpha))
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        # delta0 below delta_min is legal: the run evaluates its seed and stops
        _check_deltas(delta0=self.delta0, delta_min=self.delta_min)
        if self.counter_max < 1:
            raise ValueError(f"counter_max must be >= 1, got {self.counter_max}")
        if self.seed_state is not None:
            state = linalg.as_state(self.seed_state)
            if state.shape[0] != 16:
                raise ValueError("seed_state must be a 4-qubit state")
            object.__setattr__(self, "seed_state", state)


@dataclass(frozen=True, eq=False)
class TraceEntry:
    """One accepted state; the seed is entry 0 with states_since_accept = 0."""

    step: int
    delta: float
    state: np.ndarray
    ss_residual: float
    monogamy_residual: float
    states_since_accept: int


@dataclass(frozen=True, eq=False)
class RunRecord:
    config: SearchConfig
    trace: tuple
    final_state: np.ndarray
    final_residuals: measures.ResidualReport
    total_states_generated: int
    final_delta: float


@dataclass(frozen=True)
class ContinuationSchedule:
    alphas: tuple
    delta0: float = 1e-2
    delta_min: float = 1e-8

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise ValueError("schedule needs at least one alpha")
        if any(a <= 1.0 for a in alphas):
            raise ValueError(f"every schedule alpha must exceed 1, got {alphas}")
        if any(x <= y for x, y in zip(alphas, alphas[1:])):
            raise ValueError(f"schedule alphas must be strictly decreasing, got {alphas}")
        _check_deltas(delta0=self.delta0, delta_min=self.delta_min)
        object.__setattr__(self, "alphas", alphas)


def _block_size(events: int, trials: int, cap: int) -> int:
    """Proposals per kernel call. An event (an accept in the descent, a
    rejection in the walk) wastes the rest of its block; with a call's fixed
    cost worth about five rows, the cost per consumed proposal is least near
    B = sqrt(2*5/p) = 3.2/sqrt(p), p the run's own event rate so far."""
    p = (events + 1) / (trials + 1)
    return min(cap, BLOCK_MAX, max(BLOCK_MIN, round(3.2 / math.sqrt(p))))


def _objective_values(states: np.ndarray, layout, alpha: float, k: int) -> np.ndarray:
    e_bip, pair = _kernels.batched_terms(states, layout, alpha, k)
    value = e_bip - pair[:, 0] - pair[:, 1]
    return value if k == 2 else value - pair[:, 2] - pair[:, 3]


def minimize_residual(config: SearchConfig) -> RunRecord:
    """Stochastic descent: candidates within trace distance delta of the seed,
    strict improvements accepted, delta halved after counter_max consecutive
    rejections, termination once delta drops below delta_min.

    Proposals are scored in blocks. When candidate j of a block improves, the
    generator is rewound to the block's start and j + 1 proposals are drawn
    again, so the record equals that of a one-candidate-at-a-time loop. Blocks
    never run past counter_max, so delta only halves at a block boundary.
    """
    gen = sampler.generator(config.rng)
    layout = config.layout.as_tuple()
    alpha = config.alpha
    k = 2 if config.objective == "ss" else 4  # pair terms the objective needs
    current = (
        config.seed_state if config.seed_state is not None else sampler.haar_random_state(4, gen)
    )
    best = _objective_values(current[None], layout, alpha, k)[0]
    accepted = [(0, config.delta0, current, best, 0)]  # step, delta, state, value, since
    delta = config.delta0
    counter = 0
    step = 0
    while delta >= config.delta_min:
        size = _block_size(len(accepted) - 1, step, config.counter_max - counter)
        saved = gen.bit_generator.state
        candidates = sampler.displace(current, delta, sampler.unit_noise(gen, size))
        values = _objective_values(candidates, layout, alpha, k)
        better = np.flatnonzero(values < best)
        if better.size == 0:
            step += size
            counter += size
            if counter >= config.counter_max:
                delta *= 0.5
                counter = 0
            continue
        j = int(better[0])
        gen.bit_generator.state = saved
        sampler.unit_noise(gen, j + 1)  # consume only the proposals up to the accept
        step += j + 1
        current = candidates[j].copy()  # a row view would pin the whole block
        best = values[j]
        accepted.append((step, delta, current, best, step - accepted[-1][0]))
        counter = 0
    # the complementary residual of every accepted state, in one batched pass;
    # the minimized objective keeps its accepted value bit-for-bit
    reports = measures.residual_reports(np.array([row[2] for row in accepted]), config.layout, alpha)
    trace = []
    for (at, at_delta, state, value, since), report in zip(accepted, reports):
        if config.objective == "ss":
            ss, mono = float(value), float(value) - report.e_a1b2 - report.e_a2b1
        else:
            ss, mono = report.ss_residual, float(value)
        trace.append(TraceEntry(at, at_delta, state, ss, mono, since))
    return RunRecord(
        config=config,
        trace=tuple(trace),
        final_state=current,
        final_residuals=reports[-1],
        total_states_generated=step,
        final_delta=delta,
    )


def _walk_chain(start: np.ndarray, delta: float, z: np.ndarray) -> np.ndarray:
    """States visited if every step of z is accepted."""
    chain = np.empty_like(z)
    state = start
    for r in range(z.shape[0]):
        state = chain[r] = sampler.displace(state, delta, z[r])
    return chain


def random_walk_region(
    start,
    delta: float,
    steps: int,
    alpha=2.0,
    layout: measures.PairingLayout = measures.CANONICAL_LAYOUT,
    rng: sampler.RngSeed = sampler.RngSeed(0, 0),
) -> list:
    """Free walk inside the violation region.

    Proposes `steps` candidates; a candidate is visited (moved to and reported)
    only if its ss residual stays below the violation threshold. The start
    state's report always comes first.

    Each step draws one proposal whatever the outcome, so the chain of a block
    of draws is built as if every step were accepted and scored in one call;
    the prefix before the first rejection is kept, and the walk carries on
    from the step after it.
    """
    a = measures.normalize_alpha(alpha)
    state = linalg.as_state(start)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_deltas(delta=delta)
    report = measures.residual_report(state, layout, a)
    if report.ss_residual >= measures.VIOLATION_THRESHOLD:
        raise ValueError(
            f"start state is not in the violation region (ss residual {report.ss_residual})"
        )
    gen = sampler.generator(rng)
    reports = [report]
    current = state
    done = rejected = 0
    while done < steps:
        z = sampler.unit_noise(gen, _block_size(rejected, done, steps - done))
        r = 0
        while r < z.shape[0]:
            chain = _walk_chain(current, delta, z[r:])
            block = measures.residual_reports(chain, layout, a)
            inside = [rep.ss_residual < measures.VIOLATION_THRESHOLD for rep in block]
            kept = (inside + [False]).index(False)
            reports += block[:kept]
            if kept:
                current = chain[kept - 1]
            rejected += kept < len(block)
            r += kept + 1
        done += z.shape[0]
    return reports


def alpha_continuation(schedule: ContinuationSchedule, initial: RunRecord) -> list:
    """Re-minimize at each alpha of the schedule, seeding every stage with the
    previous optimum; stage k runs on the sibling stream (seed, stream_id+k+1)."""
    if initial.final_residuals.ss_residual >= measures.VIOLATION_THRESHOLD:
        raise ValueError("initial run is not in violation; nothing to continue")
    records = []
    state = initial.final_state
    for k, alpha in enumerate(schedule.alphas):
        config = SearchConfig(
            alpha=alpha,
            objective=initial.config.objective,
            layout=initial.config.layout,
            delta0=schedule.delta0,
            counter_max=initial.config.counter_max,
            delta_min=schedule.delta_min,
            rng=sampler.derive(initial.config.rng, k + 1),
            seed_state=state,
        )
        record = minimize_residual(config)
        records.append(record)
        state = record.final_state
    return records


@dataclass(frozen=True, eq=False)
class ScanSummary:
    n_states: int
    alpha: float
    layout: measures.PairingLayout
    rng: sampler.RngSeed
    violations: int
    min_residual: float
    argmin_index: int
    argmin_state: np.ndarray


def evaluate_scan_chunk(states: np.ndarray, layout, alpha: float):
    """Residuals for one block of already-normalized states; scan's evaluator."""
    values = _kernels.batched_ss(states, layout, alpha)
    argmin = int(np.argmin(values))
    violations = int(np.sum(values < measures.VIOLATION_THRESHOLD))
    return values, argmin, violations


def _scan_chunk_task(args):
    chunk_index, size, alpha, layout_tuple, rng = args
    gen = sampler.generator(sampler.derive(rng, chunk_index + 1))
    z = gen.standard_normal((size, 16)) + 1j * gen.standard_normal((size, 16))
    states = z / np.linalg.norm(z, axis=1, keepdims=True)
    values, argmin, violations = evaluate_scan_chunk(states, layout_tuple, alpha)
    return chunk_index, violations, float(values[argmin]), argmin, states[argmin].copy()


def haar_scan(
    n_states: int,
    alpha=2.0,
    layout: measures.PairingLayout = measures.CANONICAL_LAYOUT,
    rng: sampler.RngSeed = sampler.RngSeed(0, 0),
    workers: int = 1,
) -> ScanSummary:
    """Evaluate the ss residual on n_states Haar draws.

    States are drawn in fixed-size chunks with per-chunk sibling streams, so
    the summary is identical for every worker count.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    a = measures.normalize_alpha(alpha)
    lt = layout.as_tuple()
    sizes = [SCAN_CHUNK] * (n_states // SCAN_CHUNK)
    if n_states % SCAN_CHUNK:
        sizes.append(n_states % SCAN_CHUNK)
    tasks = [(ci, size, a, lt, rng) for ci, size in enumerate(sizes)]
    if workers == 1 or len(tasks) == 1:
        results = [_scan_chunk_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk_task, tasks))
    results.sort(key=lambda r: r[0])
    violations = sum(r[1] for r in results)
    best = min(results, key=lambda r: (r[2], r[0] * SCAN_CHUNK + r[3]))
    return ScanSummary(
        n_states=n_states,
        alpha=a,
        layout=layout,
        rng=rng,
        violations=violations,
        min_residual=best[2],
        argmin_index=best[0] * SCAN_CHUNK + best[3],
        argmin_state=best[4],
    )
