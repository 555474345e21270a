"""Benchmark of ssmono through its public functions.

    python3 perfbench/run.py --workload {search,region,scan} --seed N --seconds S --trace {0,1}

Each run sets up (imports, a warm-up pass through every layer, and the seed-0
alpha = 2 optimum where the workload needs it), then runs whole rounds of the
workload for about S seconds, checks every output against the reference
evaluator in reference.py or a property the method must have, and prints a
table of metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every other
round runs under the span tracer and the metrics are the per-layer ones. The
full result, and with --trace 1 the spans, are written under perfbench/out/.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import os  # noqa: E402

# one BLAS thread per process: the scan's second worker is the only parallelism
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "ssmono" / "__init__.py").is_file():
    sys.exit(f"error: the ssmono sources are missing: no {SRC / 'ssmono'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ssmono import _kernels, cli, linalg, measures, sampler, search, store  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("search", "region", "scan")
SETUP_SAMPLES = 3  # this process plus fresh processes; setup_s is their median

# the acceptance window of the seed-0 alpha = 2 optimum
WINDOW_LO, WINDOW_HI = -0.0202, -0.0192
# the first stages of the default schedule; delta stops at 1e-3 instead of
# 1e-8 so that one round (a descent plus the stages) takes seconds, not minutes
CONTINUATION = search.ContinuationSchedule(alphas=(1.5, 1.2), delta0=1e-2, delta_min=1e-3)
STREAM_STRIDE = 256  # rng streams of round i start at i * STREAM_STRIDE
WALK_DELTA = 1e-3
WALK_STEPS = 2000
REGION_SAMPLE_EVERY = 10  # replayed walk states checked against the reference
SCAN_STATES = 100_000
VERIFY_QUBITS = "3..8"
VERIFY_SAMPLES = 10_000
VERIFY_SIZES = 6

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "states_per_s": "states/s",
}
PER_LAYER = {
    "sampler.perturb_within_us": "us",
    "sampler.perturb_within_calls": "count",
    "kernels.pair_block_us": "us",
    "kernels.spin_flip_lambdas_us": "us",
    "kernels.pair_term_us": "us",
    "kernels.ss_value_us": "us",
    "kernels.ss_value_calls": "count",
    "kernels.bipartite_term_us": "us",
    "kernels.renyi_from_c_scalar_us": "us",
    "kernels.batched_ss_us_per_state": "us",
    **{f"kernels.batched_ckw_r2_us_per_state.n{n}": "us" for n in range(3, 9)},
    "verify.largest_array_mib": "MiB_computed",
    "linalg.as_state_us": "us",
    "measures.residual_report_us": "us",
    "measures.residual_report_calls": "count",
    "search.candidates": "count",
    "search.accepts": "count",
    "search.accept_ratio": "ratio",
    "search.delta_halvings": "count",
    "search.loop_self_us_per_candidate": "us",
    "search.walk_steps": "count",
    "search.walk_visits": "count",
    "search.walk_self_us_per_step": "us",
    "search.haar_scan_self_ms": "ms",
    "store.save_run_ms": "ms",
    "store.load_run_ms": "ms",
    "store.archive_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


@dataclasses.dataclass
class Round:
    seconds: float
    states: int
    attempted: int
    failed: int
    legs: dict  # leg name -> (seconds, states)
    data: dict
    traced: bool = False


# ---------------------------------------------------------------------------
# calls into the package


def run_cli(argv: list) -> tuple[int, str]:
    """ssmono's command line, in process, with its stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def archive_round_trip(record, path: Path):
    archive = store.make_archive(record)
    store.save_run(archive, path)
    return archive, store.load_run(path)


def attempt(errors: list, what: str, fn, *args, **kwargs):
    """Run one operation; a raised exception counts as a failed operation."""
    try:
        return True, fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - any failure of the program counts against it
        errors.append(f"{what} raised:\n{traceback.format_exc()}")
        return False, None


def warm_up() -> None:
    """One small pass through every layer, so that first-call costs land in set-up."""
    state = sampler.haar_random_state(4, sampler.generator(sampler.RngSeed(0, 1)))
    for alpha in (2.0, 1.5):
        measures.residual_report(state, alpha=alpha)
    record = search.minimize_residual(
        search.SearchConfig(rng=sampler.RngSeed(0), counter_max=50, delta_min=1e-2)
    )
    archive_round_trip(record, OUT / "warmup.json")
    if record.final_residuals.ss_residual < measures.VIOLATION_THRESHOLD:
        search.random_walk_region(record.final_state, WALK_DELTA, 50)
    search.haar_scan(search.SCAN_CHUNK, rng=sampler.RngSeed(0, 1))
    run_cli(["verify", "monogamy-r2", "--qubits", VERIFY_QUBITS, "--samples", "64"])


def set_up(workload: str):
    warm_up()
    if workload == "scan":
        return None
    return search.minimize_residual(search.SearchConfig(rng=sampler.RngSeed(0)))


# ---------------------------------------------------------------------------
# workloads: one round each; inputs come from --seed and the round index


def search_round(ctx, i: int) -> Round:
    errors = ctx["op_errors"]
    base = i * STREAM_STRIDE

    def descent():
        # round i replays restart i of the acceptance suite's restart batch
        record = search.minimize_residual(search.SearchConfig(rng=sampler.RngSeed(i)))
        return (record, *archive_round_trip(record, OUT / "search-descent.json"))

    optimum = ctx["optimum"]
    initial = dataclasses.replace(
        optimum, config=dataclasses.replace(optimum.config, rng=sampler.RngSeed(ctx["seed"], base))
    )

    def continuation():
        stages = search.alpha_continuation(CONTINUATION, initial)
        return [
            (record, *archive_round_trip(record, OUT / f"search-stage-{k}.json"))
            for k, record in enumerate(stages)
        ]

    t0 = time.perf_counter()
    ok_d, descended = attempt(errors, "descent", descent)
    t1 = time.perf_counter()
    ok_c, stages = attempt(errors, "continuation", continuation)
    t2 = time.perf_counter()
    d_states = descended[0].total_states_generated if ok_d else 0
    c_states = sum(record.total_states_generated for record, _, _ in stages) if ok_c else 0
    return Round(
        seconds=t2 - t0,
        states=d_states + c_states,
        attempted=2,
        failed=(not ok_d) + (not ok_c),
        legs={"descent": (t1 - t0, d_states), "continuation": (t2 - t1, c_states)},
        data={"descent": descended, "stages": stages or []},
    )


def region_walk_args(ctx, i: int):
    return (ctx["optimum"].final_state, WALK_DELTA, WALK_STEPS), {"rng": sampler.RngSeed(ctx["seed"], i)}


def region_round(ctx, i: int) -> Round:
    args, kwargs = region_walk_args(ctx, i)
    t0 = time.perf_counter()
    ok, reports = attempt(ctx["op_errors"], "walk", search.random_walk_region, *args, **kwargs)
    seconds = time.perf_counter() - t0
    reports = reports or []
    # checked now and dropped, so that memory does not grow with the number of
    # rounds; round 0 is kept for the replay check
    data = {"errors": region_report_errors(i, reports), "reports": reports if i == 0 else None}
    return Round(seconds, len(reports), 1, int(not ok), {"walk": (seconds, len(reports))}, data)


def region_report_errors(i: int, reports) -> list:
    for report in reports:
        if not report.ss_residual < measures.VIOLATION_THRESHOLD:
            return [f"round {i}: visited state with ss {report.ss_residual}"]
        if not abs(report.ss_residual - report.monogamy_residual) < 1e-6:
            return [f"round {i}: ss and monogamy differ by more than 1e-6"]
    return []


def scan_round(ctx, i: int) -> Round:
    errors = ctx["op_errors"]
    rng = sampler.RngSeed(ctx["seed"], i)
    legs, data, failed = {}, {}, 0
    for leg, workers in (("scan", 1), ("scan_w2", 2)):
        t0 = time.perf_counter()
        ok, data[leg] = attempt(errors, leg, search.haar_scan, SCAN_STATES, rng=rng, workers=workers)
        legs[leg] = (time.perf_counter() - t0, SCAN_STATES if ok else 0)
        failed += not ok
    verify_seed = (ctx["seed"] * 4096 + i) % 2**64
    argv = ["verify", "monogamy-r2", "--qubits", VERIFY_QUBITS, "--samples", str(VERIFY_SAMPLES),
            "--rng-seed", str(verify_seed)]
    t0 = time.perf_counter()
    ok, data["verify"] = attempt(errors, "verify", run_cli, argv)
    legs["verify"] = (time.perf_counter() - t0, VERIFY_SIZES * VERIFY_SAMPLES if ok else 0)
    failed += not ok
    return Round(
        seconds=sum(s for s, _ in legs.values()),
        states=sum(n for _, n in legs.values()),
        attempted=3,
        failed=failed,
        legs=legs,
        data=data,
    )


ROUNDS = {"search": search_round, "region": region_round, "scan": scan_round}


def measure(ctx, seconds: float, tracer: Tracer | None) -> list:
    """Whole rounds until another one would overrun `seconds`; with a tracer,
    even rounds run traced and odd ones untraced, and there are at least two."""
    round_fn = ROUNDS[ctx["workload"]]
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        try:
            with tracer.span("bench.round") if traced else contextlib.nullcontext():
                result = round_fn(ctx, len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        result.traced = traced
        rounds.append(result)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r.seconds for r in rounds)
        if len(rounds) >= (2 if tracer else 1) and elapsed + typical > seconds:
            return rounds


# ---------------------------------------------------------------------------
# checks: the reference evaluator and properties the method must have


def reference_mismatch(state, layout, alpha, report) -> str | None:
    ref = reference.residuals(state, layout, alpha)
    worst = max(abs(getattr(report, name) - value) for name, value in ref.items())
    if not worst <= reference.TOLERANCE:
        return f"residuals differ from the reference by {worst:.3e} (alpha {alpha})"
    return None


def same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_record(a, b) -> bool:
    ca, cb = a.config, b.config
    fields = ("alpha", "objective", "layout", "delta0", "counter_max", "delta_min", "rng")
    if any(getattr(ca, f) != getattr(cb, f) for f in fields) or not same_array(ca.seed_state, cb.seed_state):
        return False
    if len(a.trace) != len(b.trace):
        return False
    for ea, eb in zip(a.trace, b.trace):
        if (ea.step, ea.delta, ea.ss_residual, ea.monogamy_residual, ea.states_since_accept) != (
            eb.step, eb.delta, eb.ss_residual, eb.monogamy_residual, eb.states_since_accept
        ) or not same_array(ea.state, eb.state):
            return False
    return (
        same_array(a.final_state, b.final_state)
        and a.final_residuals == b.final_residuals
        and a.total_states_generated == b.total_states_generated
        and a.final_delta == b.final_delta
    )


def check_record(what: str, record, archive, loaded) -> list:
    errors = []
    values = [entry.ss_residual for entry in record.trace]
    if any(not later < earlier for earlier, later in zip(values, values[1:])):
        errors.append(f"{what}: trace residuals do not decrease strictly")
    if not (same_record(record, loaded.record) and loaded.fingerprint == archive.fingerprint):
        errors.append(f"{what}: the reloaded archive differs from its record")
    mismatch = reference_mismatch(
        record.final_state, record.config.layout.as_tuple(), record.config.alpha, record.final_residuals
    )
    if mismatch:
        errors.append(f"{what}: terminal {mismatch}")
    return errors


def check_search(ctx, rounds) -> list:
    errors = []
    start = ctx["optimum"].final_residuals.ss_residual
    for i, r in enumerate(rounds):
        if r.data["descent"] is not None:
            errors += check_record(f"round {i} descent", *r.data["descent"])
        previous = start
        for record, archive, loaded in r.data["stages"]:
            what = f"round {i} stage alpha={record.config.alpha:g}"
            errors += check_record(what, record, archive, loaded)
            ss = record.final_residuals.ss_residual
            if not ss < measures.VIOLATION_THRESHOLD:
                errors.append(f"{what}: terminal ss {ss} is not a violation")
            if not abs(ss) < abs(previous):
                errors.append(f"{what}: violation {ss} does not shrink from {previous}")
            previous = ss
    return errors


def check_region(ctx, rounds) -> list:
    errors = [e for r in rounds for e in r.data["errors"]]
    if not rounds[0].data["reports"]:
        return errors  # round 0's walk failed, and that is counted already
    # replay round 0 and capture the states the walk reports on
    captured = []
    original = measures.residual_report

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        captured.append((np.array(args[0], dtype=complex), report))
        return report

    args, kwargs = region_walk_args(ctx, 0)
    measures.residual_report = capture
    try:
        replay = search.random_walk_region(*args, **kwargs)
    finally:
        measures.residual_report = original
    if replay != rounds[0].data["reports"]:
        errors.append("round 0: replaying the walk gives different reports")
    for state, report in captured[::REGION_SAMPLE_EVERY] + captured[-1:]:
        mismatch = reference_mismatch(state, measures.CANONICAL_LAYOUT.as_tuple(), 2.0, report)
        if mismatch:
            errors.append(f"round 0 walk state: {mismatch}")
            break
    return errors


def summary_fields(summary) -> tuple:
    return (
        summary.n_states, summary.alpha, summary.layout, summary.rng, summary.violations,
        summary.min_residual.hex(), summary.argmin_index, summary.argmin_state.tobytes(),
    )


def check_scan(ctx, rounds) -> list:
    errors = []
    for i, r in enumerate(rounds):
        one, two = r.data["scan"], r.data["scan_w2"]
        for leg, summary in (("1 worker", one), ("2 workers", two)):
            if summary is not None and not (
                summary.violations == 0 and summary.min_residual > measures.VIOLATION_THRESHOLD
            ):
                errors.append(f"round {i} scan on {leg}: {summary.violations} violations, min {summary.min_residual}")
        if one is not None and two is not None and summary_fields(one) != summary_fields(two):
            errors.append(f"round {i}: scan summaries on 1 and 2 workers differ")
        if one is not None:
            ref = reference.residuals(one.argmin_state, one.layout.as_tuple(), one.alpha)["ss_residual"]
            if not abs(ref - one.min_residual) <= reference.TOLERANCE:
                errors.append(f"round {i}: scan minimum {one.min_residual} vs reference {ref}")
        if r.data["verify"] is not None:
            code, out = r.data["verify"]
            lines = out.strip().splitlines()
            payload = json.loads(lines[-1]) if lines else {}
            if code != 0 or payload.get("violations") != 0:
                errors.append(f"round {i}: verify exited {code} with {payload.get('violations')} violations")
    return errors


CHECKS = {"search": check_search, "region": check_region, "scan": check_scan}


# ---------------------------------------------------------------------------
# tracing and metrics


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_descent(counts, args, kwargs, record):
    counts["search.candidates"] += record.total_states_generated
    counts["search.accepts"] += len(record.trace) - 1
    counts["search.delta_halvings"] += round(math.log2(record.config.delta0 / record.final_delta))


def _count_walk(counts, args, kwargs, reports):
    counts["search.walk_steps"] += _arg(args, kwargs, 2, "steps")
    counts["search.walk_visits"] += len(reports) - 1


def _count_batched_ss(counts, args, kwargs, values):
    counts["kernels.batched_ss.states"] += len(values)


def _ckw_name(args, kwargs):
    return f"kernels.batched_ckw_r2.n{_arg(args, kwargs, 1, 'n_qubits')}"


def _count_ckw(counts, args, kwargs, values):
    counts[_ckw_name(args, kwargs) + ".states"] += len(values)
    states = _arg(args, kwargs, 0, "states")
    counts["verify.largest_array_bytes"] = max(counts["verify.largest_array_bytes"], states.nbytes)


def _count_archive(counts, args, kwargs, _):
    counts["store.archives"] += 1
    counts["store.archive_bytes"] += Path(_arg(args, kwargs, 1, "destination")).stat().st_size


def _scan_name(args, kwargs):
    return "search.haar_scan" if _arg(args, kwargs, 4, "workers", 1) == 1 else "search.haar_scan_w2"


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.target(sampler, "perturb_within", "sampler.perturb_within")
    for name in ("pair_block", "spin_flip_lambdas", "pair_term", "ss_value", "bipartite_term", "renyi_from_c_scalar"):
        tracer.target(_kernels, name, f"kernels.{name}")
    tracer.target(_kernels, "batched_ss", "kernels.batched_ss", _count_batched_ss)
    tracer.target(_kernels, "batched_ckw_r2", _ckw_name, _count_ckw)
    tracer.target(linalg, "as_state", "linalg.as_state")
    tracer.target(measures, "residual_report", "measures.residual_report")
    tracer.target(search, "minimize_residual", "search.minimize_residual", _count_descent)
    tracer.target(search, "random_walk_region", "search.random_walk_region", _count_walk)
    tracer.target(search, "alpha_continuation", "search.alpha_continuation")
    tracer.target(search, "haar_scan", _scan_name)
    tracer.target(store, "make_archive", "store.make_archive")
    tracer.target(store, "save_run", "store.save_run", _count_archive)
    tracer.target(store, "load_run", "store.load_run")
    tracer.target(cli, "main", "cli.main")
    return tracer


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def throughput(rounds) -> float:
    # a ratio of sums over the run: the machine's speed swings last seconds, so
    # pooling every round averages them better than a median of a few rounds
    return sum(r.states for r in rounds) / sum(r.seconds for r in rounds)


def per_layer_metrics(tracer: Tracer, rounds) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_ns(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_ns(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def mean_us(name):
        return _ratio(total_ns(name), calls(name)) / 1e3

    candidates = counts["search.candidates"]
    steps = counts["search.walk_steps"]
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    values = {
        "sampler.perturb_within_us": mean_us("sampler.perturb_within"),
        "sampler.perturb_within_calls": calls("sampler.perturb_within"),
        **{f"kernels.{k}_us": mean_us(f"kernels.{k}") for k in (
            "pair_block", "spin_flip_lambdas", "pair_term", "ss_value", "bipartite_term", "renyi_from_c_scalar")},
        "kernels.ss_value_calls": calls("kernels.ss_value"),
        "kernels.batched_ss_us_per_state": _ratio(total_ns("kernels.batched_ss"), counts["kernels.batched_ss.states"]) / 1e3,
        **{
            f"kernels.batched_ckw_r2_us_per_state.n{n}": _ratio(
                total_ns(f"kernels.batched_ckw_r2.n{n}"), counts[f"kernels.batched_ckw_r2.n{n}.states"]
            ) / 1e3
            for n in range(3, 9)
        },
        "verify.largest_array_mib": counts["verify.largest_array_bytes"] / 2**20,
        "linalg.as_state_us": mean_us("linalg.as_state"),
        "measures.residual_report_us": mean_us("measures.residual_report"),
        "measures.residual_report_calls": calls("measures.residual_report"),
        "search.candidates": int(candidates),
        "search.accepts": int(counts["search.accepts"]),
        "search.accept_ratio": _ratio(counts["search.accepts"], candidates),
        "search.delta_halvings": int(counts["search.delta_halvings"]),
        "search.loop_self_us_per_candidate": _ratio(self_ns("search.minimize_residual"), candidates) / 1e3,
        "search.walk_steps": int(steps),
        "search.walk_visits": int(counts["search.walk_visits"]),
        "search.walk_self_us_per_step": _ratio(self_ns("search.random_walk_region"), steps) / 1e3,
        "search.haar_scan_self_ms": _ratio(self_ns("search.haar_scan"), calls("search.haar_scan")) / 1e6,
        "store.save_run_ms": mean_us("store.save_run") / 1e3,
        "store.load_run_ms": mean_us("store.load_run") / 1e3,
        "store.archive_bytes": _ratio(counts["store.archive_bytes"], counts["store.archives"]),
        "trace.overhead_pct": 100.0 * (throughput(untraced) / throughput(traced) - 1.0) if untraced else 0.0,
        "trace.spans": len(tracer.start),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def leg_metrics(workload: str, rounds) -> dict:
    """The per-leg figures of each workload, printed and saved but not gated."""

    def leg_seconds(leg):
        return statistics.median(r.legs[leg][0] for r in rounds)

    def leg_rate(leg):
        return sum(r.legs[leg][1] for r in rounds) / sum(r.legs[leg][0] for r in rounds)

    if workload == "search":
        return {
            "descent_s": (leg_seconds("descent"), "s"),
            "continuation_s": (leg_seconds("continuation"), "s"),
            "descent_states_per_s": (leg_rate("descent"), "states/s"),
            "continuation_states_per_s": (leg_rate("continuation"), "states/s"),
        }
    if workload == "region":
        return {"region_states_per_s": (leg_rate("walk"), "states/s")}
    return {
        "scan_states_per_s": (leg_rate("scan"), "states/s"),
        "scan_states_per_s_w2": (leg_rate("scan_w2"), "states/s"),
        "verify_states_per_s": (leg_rate("verify"), "states/s"),
    }


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cold_setup_seconds(workload: str) -> float:
    """Set-up time of a fresh process, measured inside it like this process's own."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    OUT.mkdir(exist_ok=True)

    tracer = make_tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
            optimum = set_up(args.workload)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.perf_counter() - T_PROCESS
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [cold_setup_seconds(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    errors = []
    if optimum is not None and not WINDOW_LO <= optimum.final_residuals.ss_residual <= WINDOW_HI:
        errors.append(f"seed-0 optimum {optimum.final_residuals.ss_residual} outside [{WINDOW_LO}, {WINDOW_HI}]")
    ctx = {"workload": args.workload, "seed": args.seed, "optimum": optimum, "op_errors": []}
    rounds = measure(ctx, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += CHECKS[args.workload](ctx, rounds)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    legs = leg_metrics(args.workload, rounds)
    if args.trace:
        metrics = per_layer_metrics(tracer, rounds)
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": peak_rss_mib,
            "states_per_s": throughput(rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}

    for message in ctx["op_errors"]:
        print(f"operation failed: {message}", file=sys.stderr)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds, trace {args.trace}")
    for name, (value, unit) in legs.items():
        print(f"  {name:<40} {value:>16.6g} {unit}  (leg, over {len(rounds)} rounds)")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "setup_samples_s": setup_samples,
        "rounds": [
            {"seconds": r.seconds, "states": r.states, "traced": r.traced,
             "legs": {k: {"seconds": s, "states": n} for k, (s, n) in r.legs.items()}}
            for r in rounds
        ],
        "legs": {name: {"value": value, "unit": unit} for name, (value, unit) in legs.items()},
        "errors": errors + ctx["op_errors"],
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
