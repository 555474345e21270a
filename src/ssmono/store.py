"""Versioned text archives for runs and scans, with self-verifying reloads."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import linalg, measures, sampler, search

FORMAT_VERSION = 1
# reload checks: norm drift and residual re-evaluation drift
LOAD_NORM_TOL = 1e-9
LOAD_RESIDUAL_TOL = 1e-9

_REPORT_FIELDS = (
    "alpha",
    "e_bipartite",
    "e_a1b1",
    "e_a2b2",
    "e_a1b2",
    "e_a2b1",
    "ss_residual",
    "monogamy_residual",
)
_PAIR_ROLE_NAMES = ("a1a2", "a1b1", "a1b2", "a2b1", "a2b2", "b1b2")


class ArchiveError(ValueError):
    """Raised for malformed, mis-versioned, or self-inconsistent archives."""


@dataclass(frozen=True, eq=False)
class RunArchive:
    format_version: int
    created_at: str
    record: search.RunRecord
    fingerprint: dict


# ---------------------------------------------------------------------------
# canonical JSON text: floats at 17 significant digits, stable layout

def format_float(x, sig: int = 17) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    text = format(value, f".{sig}g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _render(value, sig: int, indent: int | None = None) -> str:
    """JSON text with floats at `sig` significant digits. With an indent,
    objects and lists of non-scalars span lines; without one, all is one line."""
    if isinstance(value, (dict, list, tuple)):
        if isinstance(value, dict):
            brackets, items = "{}", [(f"{json.dumps(str(k))}: ", v) for k, v in value.items()]
        else:
            brackets, items = "[]", [("", v) for v in value]
        if not items:
            return brackets
        flat = not isinstance(value, dict) and all(
            isinstance(v, (int, float, bool, str, type(None))) for v in value
        )
        if indent is None or flat:
            return brackets[0] + ", ".join(key + _render(v, sig) for key, v in items) + brackets[1]
        pad = "  " * (indent + 1)
        inner = ",\n".join(pad + key + _render(v, sig, indent + 1) for key, v in items)
        return brackets[0] + "\n" + inner + "\n" + "  " * indent + brackets[1]
    if isinstance(value, (bool, str)) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value, sig)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(doc: dict) -> str:
    return _render(doc, 17, indent=0) + "\n"


def compact_json(doc: dict, sig: int = 10) -> str:
    """Single-line rendering with floats at `sig` significant digits."""
    return _render(doc, sig)


# ---------------------------------------------------------------------------
# document builders

def _state_doc(amps: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(amps, dtype=complex)]


def _state_from_doc(pairs, what: str) -> np.ndarray:
    """A 4-qubit state stored as [re, im] pairs, with its norm checked."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArchiveError(f"malformed {what}: {exc}") from None
    if arr.shape != (16, 2):
        raise ArchiveError(f"malformed {what}: expected 16 [re, im] pairs")
    state = arr[:, 0] + 1j * arr[:, 1]
    norm = float(np.linalg.norm(state))
    if not abs(norm - 1.0) <= LOAD_NORM_TOL:
        raise ArchiveError(f"{what} norm {norm} deviates from 1 beyond {LOAD_NORM_TOL}")
    return state


def _check_residuals(what: str, stored, fresh, names) -> None:
    for name in names:
        kept, again = getattr(stored, name), getattr(fresh, name)
        if not abs(kept - again) <= LOAD_RESIDUAL_TOL:
            raise ArchiveError(
                f"stored {what} {name} {kept} disagrees with re-evaluation {again} beyond {LOAD_RESIDUAL_TOL}"
            )


def _config_doc(config: search.SearchConfig) -> dict:
    return {
        "alpha": config.alpha,
        "objective": config.objective,
        "layout": asdict(config.layout),
        "delta0": config.delta0,
        "counter_max": config.counter_max,
        "delta_min": config.delta_min,
        "rng": {"seed": config.rng.seed, "stream_id": config.rng.stream_id},
        "seed_state": None if config.seed_state is None else _state_doc(config.seed_state),
    }


def _config_from_doc(doc: dict) -> search.SearchConfig:
    seed_state = doc.get("seed_state")
    return search.SearchConfig(
        alpha=doc["alpha"],
        objective=doc["objective"],
        layout=measures.PairingLayout(**doc["layout"]),
        delta0=doc["delta0"],
        counter_max=doc["counter_max"],
        delta_min=doc["delta_min"],
        rng=sampler.RngSeed(doc["rng"]["seed"], doc["rng"]["stream_id"]),
        seed_state=None if seed_state is None else _state_from_doc(seed_state, "seed_state"),
    )


def _report_doc(report: measures.ResidualReport) -> dict:
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def _report_from_doc(doc: dict) -> measures.ResidualReport:
    return measures.ResidualReport(**{name: float(doc[name]) for name in _REPORT_FIELDS})


def _layout_pairs(layout: measures.PairingLayout):
    roles = asdict(layout)
    for name in _PAIR_ROLE_NAMES:
        yield name, roles[name[:2]], roles[name[2:]]


def run_fingerprint(state: np.ndarray, layout: measures.PairingLayout, alpha: float) -> dict:
    """Invariant identification of an optimum: reduction spectra plus all six
    pairwise entanglements (the state's amplitudes are gauge-dependent)."""
    fingerprint = {}
    for name, i, j in (
        ("spectrum_a1a2", layout.a1, layout.a2),
        ("spectrum_a1b1", layout.a1, layout.b1),
        ("spectrum_a2b2", layout.a2, layout.b2),
    ):
        rho = linalg.partial_trace(state, tuple(sorted((i, j))))
        fingerprint[name] = [float(w) for w in linalg.hermitian_eigenvalues(rho)]
    fingerprint["pair_entanglements"] = {
        name: measures.pair_entanglement(state, i, j, alpha) for name, i, j in _layout_pairs(layout)
    }
    return fingerprint


def make_archive(record: search.RunRecord, created_at: str | None = None) -> RunArchive:
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    fingerprint = run_fingerprint(record.final_state, record.config.layout, record.config.alpha)
    return RunArchive(
        format_version=FORMAT_VERSION,
        created_at=created_at,
        record=record,
        fingerprint=fingerprint,
    )


def save_run(archive: RunArchive, destination) -> None:
    """Write a self-contained archive document; amplitudes keep 17 significant digits."""
    record = archive.record
    doc = {
        "format_version": archive.format_version,
        "created_at": archive.created_at,
        "config": _config_doc(record.config),
        "trace": [
            {
                "step": entry.step,
                "delta": entry.delta,
                "state": _state_doc(entry.state),
                "ss_residual": entry.ss_residual,
                "monogamy_residual": entry.monogamy_residual,
                "states_since_accept": entry.states_since_accept,
            }
            for entry in record.trace
        ],
        "final_state": _state_doc(record.final_state),
        "final_residuals": _report_doc(record.final_residuals),
        "fingerprint": archive.fingerprint,
        "total_states_generated": record.total_states_generated,
        "final_delta": record.final_delta,
    }
    Path(destination).write_text(canonical_json(doc), encoding="utf-8")


def load_run(source) -> RunArchive:
    """Parse and validate an archive: version, required fields, the norm of
    every state, and a re-evaluation of every stored residual."""
    text = Path(source).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"malformed archive document: {exc}") from None
    if not isinstance(doc, dict):
        raise ArchiveError("malformed archive document: top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"unknown archive format version {version!r}")
    try:
        config = _config_from_doc(doc["config"])
        trace = tuple(
            search.TraceEntry(
                step=int(row["step"]),
                delta=float(row["delta"]),
                state=_state_from_doc(row["state"], f"trace row {n} state"),
                ss_residual=float(row["ss_residual"]),
                monogamy_residual=float(row["monogamy_residual"]),
                states_since_accept=int(row["states_since_accept"]),
            )
            for n, row in enumerate(doc["trace"])
        )
        final_state = _state_from_doc(doc["final_state"], "final_state")
        final_residuals = _report_from_doc(doc["final_residuals"])
        fingerprint = doc["fingerprint"]
        created_at = doc["created_at"]
        total = int(doc["total_states_generated"])
        final_delta = float(doc["final_delta"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ArchiveError):
            raise
        raise ArchiveError(f"malformed archive document: {exc!r}") from None
    states = np.array([entry.state for entry in trace] + [final_state])
    fresh = measures.residual_reports(states, config.layout, config.alpha)
    _check_residuals("final_residuals", final_residuals, fresh[-1], _REPORT_FIELDS)
    for n, (entry, report) in enumerate(zip(trace, fresh)):
        _check_residuals(f"trace row {n}", entry, report, ("ss_residual", "monogamy_residual"))
    record = search.RunRecord(
        config=config,
        trace=trace,
        final_state=final_state,
        final_residuals=final_residuals,
        total_states_generated=total,
        final_delta=final_delta,
    )
    return RunArchive(
        format_version=version, created_at=created_at, record=record, fingerprint=fingerprint
    )


def save_scan(summary: search.ScanSummary, destination, created_at: str | None = None) -> None:
    """Scan summary document; contents are independent of the worker count."""
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    doc = {
        "format_version": FORMAT_VERSION,
        "created_at": created_at,
        "kind": "scan",
        "config": {
            "n_states": summary.n_states,
            "alpha": summary.alpha,
            "layout": asdict(summary.layout),
            "rng": {"seed": summary.rng.seed, "stream_id": summary.rng.stream_id},
        },
        "violations": summary.violations,
        "min_residual": summary.min_residual,
        "argmin_index": summary.argmin_index,
        "argmin_state": _state_doc(summary.argmin_state),
    }
    Path(destination).write_text(canonical_json(doc), encoding="utf-8")


def load_state_document(source) -> tuple[np.ndarray, float | None, measures.PairingLayout]:
    """State, its alpha and its pairing layout from either a run archive or a
    bare {"state": [[re, im], ...]} document; a bare document has no alpha
    (None) and the canonical layout."""
    path = Path(source)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"malformed state document: {exc}") from None
    if isinstance(doc, dict) and "final_state" in doc:
        record = load_run(path).record
        return record.final_state, record.config.alpha, record.config.layout
    if isinstance(doc, dict) and "state" in doc:
        return _state_from_doc(doc["state"], "state"), None, measures.CANONICAL_LAYOUT
    raise ArchiveError("state document needs either a run archive or a top-level 'state' key")
