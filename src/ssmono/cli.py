"""Command line: Haar scans, residual searches, alpha continuation, verifiers.

Every command prints a one-line JSON summary on stdout (floats at 10
significant digits). Exit codes: 0 success, 1 verifier found violations,
2 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import _kernels, measures, sampler, search, store

DEFAULT_SCHEDULE = "1.5,1.2,1.1,1.05,1.02,1.01,1.005,1.002"
CKW_TOLERANCE = -1e-9
SUM_TOLERANCE = -1e-12
# vectors per sum_inequality_residuals call, so memory does not grow with --samples
SUM_CHUNK = 4096


def _emit(payload: dict) -> None:
    print(store.compact_json(payload))


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers() -> int:
    """SSMONO_WORKERS, default 1; handlers call it, so a bad value exits 2."""
    text = os.environ.get("SSMONO_WORKERS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"SSMONO_WORKERS must be an integer >= 1, got {text!r}")
    return int(text)


def _cmd_scan(args) -> int:
    summary = search.haar_scan(
        n_states=args.n,
        alpha=args.alpha,
        rng=sampler.RngSeed(args.rng_seed),
        workers=_workers(),
    )
    if args.out:
        store.save_scan(summary, args.out)
    _emit(
        {
            "command": "scan",
            "n_states": summary.n_states,
            "alpha": summary.alpha,
            "rng_seed": args.rng_seed,
            "violations": summary.violations,
            "min_residual": summary.min_residual,
            "argmin_index": summary.argmin_index,
            "out": args.out,
        }
    )
    return 0


def _cmd_search(args) -> int:
    seed_state = None
    if args.seed_file:
        seed_state, _, _ = store.load_state_document(args.seed_file)
    config = search.SearchConfig(
        alpha=args.alpha,
        objective=args.objective,
        delta0=args.delta0,
        counter_max=args.counter_max,
        delta_min=args.delta_min,
        rng=sampler.RngSeed(args.rng_seed),
        seed_state=seed_state,
    )
    record = search.minimize_residual(config)
    if args.out:
        store.save_run(store.make_archive(record), args.out)
    _emit(
        {
            "command": "search",
            "alpha": record.config.alpha,
            "objective": record.config.objective,
            "rng_seed": args.rng_seed,
            "terminal_ss_residual": record.final_residuals.ss_residual,
            "terminal_monogamy_residual": record.final_residuals.monogamy_residual,
            "trace_rows": len(record.trace),
            "total_states_generated": record.total_states_generated,
            "final_delta": record.final_delta,
            "out": args.out,
        }
    )
    return 0


def _cmd_continue(args) -> int:
    try:  # the schedule fails before the archive is loaded and checked
        alphas = tuple(float(part) for part in args.schedule.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"--schedule: {exc}") from None
    schedule = search.ContinuationSchedule(
        alphas=alphas, delta0=args.delta0, delta_min=args.delta_min
    )
    archive = store.load_run(args.from_path)
    records = search.alpha_continuation(schedule, archive.record)
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    stages = []
    for record in records:
        stage = {
            "alpha": record.config.alpha,
            "terminal_ss_residual": record.final_residuals.ss_residual,
            "terminal_monogamy_residual": record.final_residuals.monogamy_residual,
        }
        if args.out_dir:
            # every digit of alpha, so that no two stages share a file
            alpha = np.format_float_positional(record.config.alpha, trim="-")
            out = Path(args.out_dir) / f"stage_alpha_{alpha}.json"
            store.save_run(store.make_archive(record), out)
            stage["out"] = str(out)
        stages.append(stage)
    _emit({"command": "continue", "from": args.from_path, "stages": stages})
    return 0


def _cmd_verify_monogamy(args) -> int:
    ends, sizes = args.qubits.split(".."), _kernels._CKW_QUBITS
    ok = len(ends) <= 2 and all(map(str.isdecimal, ends))  # N or N..M, nothing else
    first, last = (int(ends[0]), int(ends[-1])) if ok else (0, 0)
    if not sizes[0] <= first <= last <= sizes[-1]:
        raise ValueError(f"--qubits must be N or N..M with {sizes[0]} <= N <= M <= {sizes[-1]}, got {args.qubits!r}")
    violations = 0
    per_size = {}
    for n in range(first, last + 1):
        # size n's chunks take streams (n << 32) + 1, 2, ...: no two (size, chunk) pairs share one
        count, least, _, _ = search.haar_minimum(
            args.samples, n, sampler.RngSeed(args.rng_seed, n << 32), "batched_ckw_r2", (n, 0),
            CKW_TOLERANCE, _workers(),
        )
        violations += count
        per_size[str(n)] = least
    _emit(
        {
            "command": "verify",
            "check": "monogamy-r2",
            "qubits": args.qubits,
            "samples": args.samples,
            "violations": violations,
            "min_residual": min(per_size.values()),
            "min_residual_per_size": per_size,
        }
    )
    return 1 if violations else 0


def _admissible_vectors(gen: np.random.Generator, count: int) -> np.ndarray:
    """count squared-concurrence vectors, zero-padded to 7: a length uniform in
    2..7, uniform entries scaled by uniform / max(1, their sum); drawn in bulk."""
    lengths = gen.integers(2, 8, size=count)
    raw = gen.uniform(size=(count, 7)) * (np.arange(7) < lengths[:, None])
    scale = gen.uniform(size=count) / np.maximum(1.0, raw.sum(axis=1))
    return raw * scale[:, None]


def _cmd_verify_sum(args) -> int:
    gen = sampler.generator(sampler.RngSeed(args.rng_seed))
    worst = np.inf
    violations = 0
    for lo in range(0, args.samples, SUM_CHUNK):
        vectors = _admissible_vectors(gen, min(SUM_CHUNK, args.samples - lo))
        residuals = measures.sum_inequality_residuals(vectors)
        worst = min(worst, float(residuals.min()))
        violations += int(np.sum(residuals < SUM_TOLERANCE))
    _emit(
        {
            "command": "verify",
            "check": "sum-inequality",
            "samples": args.samples,
            "violations": violations,
            "min_residual": worst,
        }
    )
    return 1 if violations else 0


def _cmd_analyze(args) -> int:
    state, stored_alpha, layout = store.load_state_document(args.file)
    alpha = args.alpha if args.alpha is not None else (stored_alpha if stored_alpha else 2.0)
    report = measures.residual_report(state, layout, alpha)
    fingerprint = store.run_fingerprint(state, layout, alpha)
    _emit(
        {
            "command": "analyze",
            "file": args.file,
            "alpha": report.alpha,
            **fingerprint,  # the three spectra, then the pair entanglements
            "e_bipartite": report.e_bipartite,
            "ss_residual": report.ss_residual,
            "monogamy_residual": report.monogamy_residual,
        }
    )
    return 0


def _cmd_trace_csv(args) -> int:
    archive = store.load_run(args.file)
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "delta", "ss_residual", "monogamy_residual", "states_since_accept"])
        for entry in archive.record.trace:
            writer.writerow(
                [
                    entry.step,
                    store.format_float(entry.delta),
                    store.format_float(entry.ss_residual),
                    store.format_float(entry.monogamy_residual),
                    entry.states_since_accept,
                ]
            )
    _emit({"command": "trace-csv", "file": args.file, "rows": len(archive.record.trace), "out": args.out})
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmono",
        description="Renyi-alpha entanglement inequalities: search, scan, verify, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="evaluate the ss residual on Haar-random states")
    scan.add_argument("--n", type=int, required=True, help="number of states")
    scan.add_argument("--alpha", type=float, default=2.0)
    scan.add_argument("--rng-seed", type=int, default=0)
    scan.add_argument("--out", default=None, help="write the scan summary document here")
    scan.set_defaults(handler=_cmd_scan)

    run = sub.add_parser("search", help="Monte Carlo minimization of a residual")
    run.add_argument("--alpha", type=float, default=2.0)
    run.add_argument("--objective", choices=search.OBJECTIVES, default="ss")
    run.add_argument("--delta0", type=float, default=0.5)
    run.add_argument("--counter-max", type=int, default=1000)
    run.add_argument("--delta-min", type=float, default=1e-4)
    run.add_argument("--seed-file", default=None, help="archive or state document for the seed")
    run.add_argument("--rng-seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write the run archive here")
    run.set_defaults(handler=_cmd_search)

    cont = sub.add_parser("continue", help="alpha continuation from a violating run archive")
    cont.add_argument("--schedule", default=DEFAULT_SCHEDULE)
    cont.add_argument("--delta0", type=float, default=1e-2)
    cont.add_argument("--delta-min", type=float, default=1e-8)
    cont.add_argument("--from", dest="from_path", required=True)
    cont.add_argument("--out-dir", default=None)
    cont.set_defaults(handler=_cmd_continue)

    verify = sub.add_parser("verify", help="numerical inequality verifiers")
    checks = verify.add_subparsers(dest="check", required=True)
    mono = checks.add_parser("monogamy-r2", help="R2 monogamy residual on Haar states")
    mono.add_argument("--qubits", default="3..6", help="N or N..M, sizes within 3..8")
    mono.add_argument("--samples", type=_at_least_one, default=10000)
    mono.add_argument("--rng-seed", type=int, default=0)
    mono.set_defaults(handler=_cmd_verify_monogamy)
    sums = checks.add_parser("sum-inequality", help="pairwise-term sum inequality")
    sums.add_argument("--samples", type=_at_least_one, default=100000)
    sums.add_argument("--rng-seed", type=int, default=0)
    sums.set_defaults(handler=_cmd_verify_sum)

    analyze = sub.add_parser("analyze", help="spectra, pair entanglements, residuals of a state")
    analyze.add_argument("file")
    analyze.add_argument("--alpha", type=float, default=None)
    analyze.set_defaults(handler=_cmd_analyze)

    csv_cmd = sub.add_parser("trace-csv", help="export a run archive's trace as CSV")
    csv_cmd.add_argument("file")
    csv_cmd.add_argument("--out", required=True)
    csv_cmd.set_defaults(handler=_cmd_trace_csv)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
