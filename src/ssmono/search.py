"""Monte Carlo residual minimization, region walks, Haar scans, alpha continuation."""
from __future__ import annotations

import collections
import contextlib
import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels, linalg, measures, sampler

OBJECTIVES = ("ss", "monogamy2")
# Haar draws per chunk at 4 qubits; every chunk holds 2**16 amplitudes, so
# results never depend on the worker count and memory never on n_states
SCAN_CHUNK = 4096
# amplitudes per normalization and kernel call within a chunk, so that the
# temporaries of scoring one chunk stay well below the chunk's own 1 MiB
SCORE_BLOCK = 2**12
# proposals scored per kernel call in the descent
BLOCK_MIN, BLOCK_MAX = 8, 64
# noise rows drawn at a time by the descent and the walk; a row does not
# depend on the state it displaces, so a block only bounds memory (64 KiB)
NOISE_BLOCK = 256


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
        object.__setattr__(self, "alpha", _kernels.normalize_alpha(self.alpha))
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        # delta0 below delta_min is legal: the run evaluates its seed and stops
        _kernels.checked_delta(self.delta0, "delta0")
        _kernels.checked_delta(self.delta_min, "delta_min")
        if _kernels.checked_index(self.counter_max, "counter_max") < 1:
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


def bookkeeping(config: SearchConfig, steps, after: Optional[TraceEntry] = None) -> tuple:
    """The rule by which a run's numbers follow from its config and its
    accepted steps, which come after the entry `after` (None: from the seed).
    The seed is step 0 at delta0. Each later accept is at least one state
    after the one before; delta has halved (*= 0.5, as in the descent) once
    per counter_max states rejected in between, and is still >= delta_min.
    After the last accept delta halves every counter_max states until it is
    below delta_min, which ends the run. Returns each step's delta and
    states_since_accept, the final delta and the states generated in all;
    ValueError if the steps break the rule."""
    deltas, since = [], []
    last, delta = (after.step, after.delta) if after else (None, None)
    for step in steps:
        if last is None:
            if step != 0:
                raise ValueError(f"the seed's step is {step}, not 0")
            delta = config.delta0
        elif step <= last:
            raise ValueError(f"step {step} does not follow step {last}")
        else:
            for _ in range((step - last - 1) // config.counter_max):
                if delta < config.delta_min:
                    break
                delta *= 0.5
            if delta < config.delta_min:
                raise ValueError(f"step {step} comes after delta fell below delta_min {config.delta_min}")
        deltas.append(delta)
        since.append(0 if last is None else step - last)
        last = step
    if last is None:
        raise ValueError("a trace holds at least the seed")
    halvings = 0
    while delta >= config.delta_min:
        delta *= 0.5
        halvings += 1
    return deltas, since, delta, last + halvings * config.counter_max


class Trace(Sequence):
    """The accepted states of a run, held as columns: one (n, 16) block of
    states and one array for each number, about 300 bytes a row. A TraceEntry
    is built on access; one object per row cost about 1 KB, and a
    continuation stage can accept 10^5 states."""

    def __init__(self, config: SearchConfig, steps, states: np.ndarray, after: Optional[TraceEntry] = None):
        """The entries of a run of config at these steps, with the (n, 16)
        amplitudes (held, not copied), after the entry `after` (None: from the
        seed); `bookkeeping` and one residual_table call give the rest."""
        self._steps = np.array(steps, dtype=np.int64)
        deltas, since, _, _ = bookkeeping(config, self._steps.tolist(), after)
        self._deltas = np.array(deltas, dtype=float)
        self._since = np.array(since, dtype=np.int64)
        self._states = states
        table = measures.residual_table(states, config.layout, config.alpha)
        self._ss, self._mono = table[:, measures.SS].copy(), table[:, measures.MONO].copy()

    _COLUMNS = ("_steps", "_deltas", "_since", "_states", "_ss", "_mono")

    @classmethod
    def joined(cls, parts) -> Trace:
        """One trace of the entries of `parts` (at least one), in order."""
        trace = cls.__new__(cls)
        for name in cls._COLUMNS:
            setattr(trace, name, np.concatenate([getattr(part, name) for part in parts]))
        return trace

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return TraceEntry(
            int(self._steps[i]), float(self._deltas[i]), self._states[i],
            float(self._ss[i]), float(self._mono[i]), int(self._since[i]),
        )


@dataclass(frozen=True, eq=False)
class RunRecord:
    """A run: its config and its trace. The other fields follow from these:
    the last entry's state and its residual_report, and `bookkeeping`'s end."""

    config: SearchConfig
    trace: Trace
    final_state: np.ndarray = field(init=False)
    final_residuals: measures.ResidualReport = field(init=False)
    total_states_generated: int = field(init=False)
    final_delta: float = field(init=False)

    def __post_init__(self):
        last = self.trace[-1]
        state = last.state.copy()  # a row view would pin the whole trace
        _, _, final_delta, total = bookkeeping(self.config, (), last)
        report = measures.residual_report(state, self.config.layout, self.config.alpha)
        vars(self).update(
            final_state=state, final_residuals=report, total_states_generated=total, final_delta=final_delta
        )


@dataclass(frozen=True)
class ContinuationSchedule:
    alphas: tuple
    delta0: float = 1e-2
    delta_min: float = 1e-8

    def __post_init__(self):
        alphas = tuple(_kernels.normalize_alpha(a) for a in self.alphas)
        if not alphas:
            raise ValueError("schedule needs at least one alpha")
        if any(a <= 1.0 for a in alphas):
            raise ValueError(f"every schedule alpha must exceed 1, got {alphas}")
        if any(x <= y for x, y in zip(alphas, alphas[1:])):
            raise ValueError(f"schedule alphas must be strictly decreasing, got {alphas}")
        _kernels.checked_delta(self.delta0, "delta0")
        _kernels.checked_delta(self.delta_min, "delta_min")
        object.__setattr__(self, "alphas", alphas)


def _block_size(events: int, trials: int, cap: int) -> int:
    """Proposals per kernel call in the descent. An accept wastes the rows of
    its block scored after it, though not their draws; with a call's fixed
    cost worth about five rows, the cost per consumed proposal is least near
    B = sqrt(2*5/p) = 3.2/sqrt(p), p the run's own accept rate so far."""
    p = (events + 1) / (trials + 1)
    return min(cap, BLOCK_MAX, max(BLOCK_MIN, round(3.2 / math.sqrt(p))))


def minimize_residual(config: SearchConfig) -> RunRecord:
    """Stochastic descent: candidates within trace distance delta of the seed,
    strict improvements accepted, delta halved after counter_max consecutive
    rejections, termination once delta drops below delta_min.

    A proposal is normalize(current + delta * z) for a unit noise row z that
    does not depend on the current state, so noise is drawn NOISE_BLOCK rows
    at a time and scored in blocks of rows. When candidate j of a block
    improves, the rows after it are displaced from the new state in the next
    block, so the record equals that of a one-candidate-at-a-time loop. Blocks
    never run past counter_max, so delta only halves at a block boundary.
    """
    gen = sampler.generator(config.rng)
    layout, roles, alpha = config.layout, config.layout.as_tuple(), config.alpha

    def objective(states):
        if config.objective == "ss":  # two pair terms, not the table's four
            return _kernels.batched_ss(states, roles, alpha)
        return measures.residual_table(states, layout, alpha)[:, measures.MONO]

    current = config.seed_state if config.seed_state is not None else sampler.haar_random_state(4, gen)
    best = objective(current[None])[0]
    # the accepted states' amplitudes, one after another, and their steps
    kept = bytearray(current.tobytes())
    steps = array("q", [0])
    delta, step = config.delta0, 0
    z, r = np.empty((0, 16), dtype=complex), 0  # the noise block and its next unscored row
    while delta >= config.delta_min:
        # the rejections since the last accept or halving are those since the
        # last accept, modulo counter_max
        size = _block_size(len(steps) - 1, step, config.counter_max - (step - steps[-1]) % config.counter_max)
        if z.shape[0] - r < size:  # the unscored rows lead the next noise block
            z, r = np.concatenate((z[r:], sampler.unit_noise(gen, NOISE_BLOCK))), 0
        candidates = _kernels.displace(current, delta, z[r : r + size])
        values = objective(candidates)
        better = np.flatnonzero(values < best)
        if better.size == 0:
            r += size
            step += size
            if (step - steps[-1]) % config.counter_max == 0:
                delta *= 0.5
            continue
        j = int(better[0])
        r += j + 1
        step += j + 1
        current = candidates[j].copy()  # a row view would pin the whole block
        best = values[j]
        kept += current.tobytes()
        steps.append(step)
    # the trace scores every accepted state in one call; a row's bits depend
    # neither on its batch nor on the pair terms asked for, so the objective
    # keeps its accepted value. Its deltas, and the record's counts, follow
    # from the steps by the rule this loop keeps (`bookkeeping`).
    states = np.frombuffer(kept, dtype=complex).reshape(len(steps), -1).copy()
    del kept
    return RunRecord(config, Trace(config, steps, states))


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

    Each step draws one proposal whatever the outcome, so a block of draws is
    chained and scored as if every step were accepted, in one compiled call
    (`_kernels.walk`) that stops at the first rejection; the walk carries on
    from the step after it with another call. The rows a rejection leaves
    unscored are at most seven, so a block can be long.
    """
    a = _kernels.normalize_alpha(alpha)
    state = linalg.as_state(start)
    if (steps := _kernels.checked_index(steps, "steps")) < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _kernels.checked_delta(delta)
    report = measures.residual_report(state, layout, a)
    if report.ss_residual >= measures.VIOLATION_THRESHOLD:
        raise ValueError(
            f"start state is not in the violation region (ss residual {report.ss_residual})"
        )
    gen = sampler.generator(rng)
    roles = layout.as_tuple()
    reports = [report]
    current = state
    for done in range(0, steps, NOISE_BLOCK):
        z = sampler.unit_noise(gen, min(NOISE_BLOCK, steps - done))
        r = 0
        while r < z.shape[0]:
            # kept: the rows before the first outside the region
            kept, chain, table = _kernels.walk(current, delta, z[r:], roles, a, measures.VIOLATION_THRESHOLD)
            reports += measures.residual_reports(a, table[:kept])
            if kept:
                current = chain[kept - 1]
            r += kept + 1
    return reports


def alpha_continuation(schedule: ContinuationSchedule, initial: RunRecord) -> list:
    """Re-minimize at each alpha of the schedule, seeding every stage with the
    previous optimum; stage k runs on the sibling stream (seed, stream_id+k+1)."""
    if initial.final_residuals.ss_residual >= measures.VIOLATION_THRESHOLD:
        raise ValueError("initial run is not in violation; nothing to continue")
    records = []
    state = initial.final_state
    for k, alpha in enumerate(schedule.alphas):
        config = replace(
            initial.config, alpha=alpha, delta0=schedule.delta0, delta_min=schedule.delta_min,
            rng=sampler.derive(initial.config.rng, k + 1), seed_state=state,
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


def _chunk_task(args):
    """One chunk's count of values below threshold, its least value, that
    value's row and state. The kernel is called once per SCORE_BLOCK
    amplitudes; its rows do not depend on the batch, so neither do the values."""
    chunk_index, size, n_qubits, rng, kernel, kernel_args, threshold = args
    gen = sampler.generator(sampler.derive(rng, chunk_index + 1))
    # the stream of two (size, dim) draws, the real parts of every row and
    # then the imaginary parts, in the chunk's one array; viewed as
    # unit_rows' (size, 2, dim) blocks, which it reads in place
    normals = gen.standard_normal(out=np.empty((2, size, 2**n_qubits))).swapaxes(0, 1)
    rows = max(1, SCORE_BLOCK // normals.shape[2])
    kernel_fn = getattr(_kernels, kernel)
    # each block made unit right before it is scored, while its rows are in cache
    values = np.concatenate([
        kernel_fn(_kernels.unit_rows(normals[lo : lo + rows]), *kernel_args) for lo in range(0, size, rows)
    ])
    argmin = int(np.argmin(values))
    state = _kernels.unit_rows(normals[argmin : argmin + 1])[0]
    return int(np.sum(values < threshold)), float(values[argmin]), argmin, state


def _in_order(pool, tasks, ahead: int):
    """_chunk_task of each task on pool, in task order, with at most `ahead`
    tasks submitted whose results are not yet taken."""
    pending = collections.deque()
    try:
        for task in tasks:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(pool.submit(_chunk_task, task))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:  # left by an error: drop what has not started
            future.cancel()


def haar_minimum(
    n_states: int, n_qubits: int, rng: sampler.RngSeed, kernel: str, kernel_args: tuple,
    threshold: float, workers: int,
):
    """Score n_states Haar draws on n_qubits with `_kernels.<kernel>`.

    Returns (violations below threshold, least value, its draw index, its
    state). Draws come in chunks of 2**16 amplitudes, chunk k on the sibling
    stream derive(rng, k + 1), so the result is identical for every worker
    count and no kernel call sees more than one chunk. At most min(workers,
    chunks, CPU count) processes are opened. The kernel is named,
    not passed, so that workers look it up in their own `_kernels`. Chunks
    are made as they are taken and folded as they arrive, and a pool holds at
    most two per process, so that a scan's memory does not grow with n_states.
    """
    if _kernels.checked_index(n_states, "n_states") < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if not 1 <= _kernels.checked_index(n_qubits, "n_qubits") <= linalg.MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {linalg.MAX_QUBITS}], got {n_qubits}")
    if _kernels.checked_index(workers, "workers") < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows = SCAN_CHUNK * 16 >> n_qubits
    starts = range(0, n_states, rows)
    tasks = ((ci, min(rows, n_states - lo), n_qubits, rng, kernel, kernel_args, threshold)
             for ci, lo in enumerate(starts))
    # a fork-started pool forks all max_workers processes at its first submit,
    # and processes beyond the CPU count only add memory
    processes = min(workers, len(starts), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        results = map(_chunk_task, tasks)
        if processes > 1:
            # imported here: multiprocessing costs every process about 1.5 MiB
            from concurrent.futures import ProcessPoolExecutor

            results = _in_order(stack.enter_context(ProcessPoolExecutor(max_workers=processes)), tasks, 2 * processes)
        violations, best = 0, None
        for ci, (count, least, argmin, state) in enumerate(results):
            violations += count
            # strict: the first of equal values, which is the lowest draw index
            if best is None or least < best[0]:
                best = least, ci * rows + argmin, state
    return (violations, *best)


def haar_scan(
    n_states: int,
    alpha=2.0,
    layout: measures.PairingLayout = measures.CANONICAL_LAYOUT,
    rng: sampler.RngSeed = sampler.RngSeed(0, 0),
    workers: int = 1,
) -> ScanSummary:
    """Evaluate the ss residual on n_states Haar draws through `haar_minimum`;
    the summary is identical for every worker count."""
    a = _kernels.normalize_alpha(alpha)
    violations, least, index, state = haar_minimum(
        n_states, 4, rng, "batched_ss", (layout.as_tuple(), a), measures.VIOLATION_THRESHOLD, workers
    )
    return ScanSummary(
        n_states=n_states,
        alpha=a,
        layout=layout,
        rng=rng,
        violations=violations,
        min_residual=least,
        argmin_index=index,
        argmin_state=state,
    )
