"""Versioned text archives for runs and scans, with self-verifying reloads.

Each writer's document builder is the only description of its format: a
reload parses a document's inputs, builds from them the document this build
would write and checks the stored one against it with `_agree`; a run
archive's trace is checked a block of rows at a time as it is read. Every number
a run archive stores, the fingerprint included, comes from the compiled
amplitude kernels in `_kernels`, never from a density matrix. All text comes
from one stdlib JSON encoder, which spells each float as its shortest
round-trip repr, so every stored number reloads bit for bit.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import re
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import _kernels, linalg, measures, sampler, search

FORMAT_VERSION = 1
# reload check: drift of every stored number from its re-derivation
LOAD_RESIDUAL_TOL = 1e-9


class ArchiveError(ValueError):
    """Raised for malformed, mis-versioned, or self-inconsistent archives."""


@dataclass(frozen=True, eq=False)
class RunArchive:
    format_version: int
    created_at: str
    record: search.RunRecord
    fingerprint: dict


# ---------------------------------------------------------------------------
# JSON text, all of it from one stdlib encoder

def format_float(x) -> str:
    """x at 10 significant digits, the spelling of every CLI number."""
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    text = format(value, ".10g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _plain(value):
    """The encoder's fallback for the one non-JSON type a document holds."""
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# Floats are written as their shortest round-trip repr. Only encode() takes
# the C encoder: json.dump and an indent take the pure-Python one.
_ENCODER = json.JSONEncoder(allow_nan=False, default=_plain)


def _lines(doc: dict):
    """A document's text in pieces, each one encode() call: one top-level key
    per line, and an iterator value as a list, one row per line, so that a
    long trace is built and encoded one row at a time."""
    encode = _ENCODER.encode
    yield "{"
    for n, (key, value) in enumerate(doc.items()):
        yield ("\n" if n == 0 else ",\n") + encode(key) + ": "
        if isinstance(value, Iterator):
            yield "["
            yield from (("\n" if m == 0 else ",\n") + encode(row) for m, row in enumerate(value))
            yield "\n]"
        else:
            yield encode(value)
    yield "\n}\n"


def canonical_json(doc: dict) -> str:
    return "".join(_lines(doc))


def compact_json(doc: dict) -> str:
    """One line, with floats rounded to 10 significant digits: the document's
    text parsed back with each float rounded, and encoded again."""
    rounded = json.loads(_ENCODER.encode(doc), parse_float=lambda text: float(format_float(text)))
    return _ENCODER.encode(rounded)


# ---------------------------------------------------------------------------
# document builders

def _state_doc(amps: np.ndarray) -> list:
    # a complex128 array viewed as float64 is its [re, im] pairs, bit for bit
    return np.ascontiguousarray(amps, dtype=complex).view(float).reshape(-1, 2).tolist()


def _state_from_doc(pairs, what: str) -> np.ndarray:
    """A 4-qubit state stored as [re, im] pairs, checked by `linalg.as_state`,
    through which the seed, argmin and last trace states are scored and
    fingerprinted again, so that a state this check passes never fails there."""
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"malformed {what}: {exc}") from None
    if arr.shape != (16, 2):
        raise ArchiveError(f"malformed {what}: expected 16 [re, im] pairs")
    # numpy would also parse a string; a JSON number parses as an int, a float or a bool
    if not all(isinstance(x, (int, float)) for pair in pairs for x in pair):
        raise ArchiveError(f"malformed {what}: an amplitude is not a number")
    try:  # re + 1j * im would turn -0.0 into 0.0
        return linalg.as_state(np.ascontiguousarray(arr).view(complex).ravel(), 4)
    except ValueError as exc:  # the norm: the shape is checked above
        raise ArchiveError(f"{what} norm check: {exc}") from None


def _config_doc(config: search.SearchConfig) -> dict:
    seed = config.seed_state
    return {**asdict(config), "seed_state": None if seed is None else _state_doc(seed)}


def _config_from_doc(doc: dict) -> search.SearchConfig:
    seed = doc["seed_state"]
    return search.SearchConfig(**{
        **doc,
        "layout": measures.PairingLayout(**doc["layout"]),
        "rng": sampler.RngSeed(**doc["rng"]),
        "seed_state": None if seed is None else _state_from_doc(seed, "seed_state"),
    })


def run_fingerprint(state, layout: measures.PairingLayout, alpha: float) -> dict:
    """Invariant identification of a 4-qubit optimum (its amplitudes are
    gauge-dependent): the spectra of the a1a2, a1b1 and a2b2 reductions and
    all six pair entanglements, from the blocks the residuals read
    (`_kernels.fingerprint_terms`)."""
    state = linalg.as_state(state, 4)
    pairs, spectra = _kernels.fingerprint_terms(state[None], layout.as_tuple(), alpha)
    fingerprint = dict(zip(("spectrum_a1a2", "spectrum_a1b1", "spectrum_a2b2"), spectra[0].tolist()))
    # sorted names: a1a2, a1b1, a1b2, a2b1, a2b2, b1b2
    fingerprint["pair_entanglements"] = dict(sorted(zip([n for n, _ in _kernels.TERM_PAIRS], pairs[0].tolist())))
    return fingerprint


def make_archive(record: search.RunRecord, created_at: str | None = None) -> RunArchive:
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    fingerprint = run_fingerprint(record.final_state, record.config.layout, record.config.alpha)
    return RunArchive(FORMAT_VERSION, created_at, record, fingerprint)


def _trace_row(entry: search.TraceEntry) -> dict:
    return {**vars(entry), "state": _state_doc(entry.state)}


def _run_doc(archive: RunArchive) -> dict:
    record = archive.record
    return {
        "format_version": archive.format_version,
        "created_at": archive.created_at,
        "config": _config_doc(record.config),
        "trace": map(_trace_row, record.trace),
        "final_state": _state_doc(record.final_state),
        "final_residuals": record.final_residuals._asdict(),
        "fingerprint": archive.fingerprint,
        "total_states_generated": record.total_states_generated,
        "final_delta": record.final_delta,
    }


def save_run(archive: RunArchive, destination) -> None:
    """Write a self-contained archive document, every float exact. The text
    of canonical_json is written as it is encoded, so neither the document
    nor its text is ever held whole."""
    with open(destination, "w", encoding="utf-8") as out:
        out.writelines(_lines(_run_doc(archive)))


def _scan_doc(summary: search.ScanSummary, created_at: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "created_at": created_at,
        "kind": "scan",
        "config": {
            "n_states": summary.n_states,
            "alpha": summary.alpha,
            "layout": asdict(summary.layout),
            "rng": asdict(summary.rng),
        },
        "violations": summary.violations,
        "min_residual": summary.min_residual,
        "argmin_index": summary.argmin_index,
        "argmin_state": _state_doc(summary.argmin_state),
    }


def save_scan(summary: search.ScanSummary, destination, created_at: str | None = None) -> None:
    """Scan summary document; contents are independent of the worker count."""
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    Path(destination).write_text(canonical_json(_scan_doc(summary, created_at)), encoding="utf-8")


# ---------------------------------------------------------------------------
# reading: parse the inputs, re-derive the rest, compare the whole document

def _finite(value) -> float:
    """float(value), refusing the NaN and infinities canonical JSON never holds."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"non-finite number {value}")
    return number


@contextlib.contextmanager
def _malformed(what: str):
    """A missing key or a value of the wrong type or range in a document,
    reported as ArchiveError."""
    try:
        yield
    except ArchiveError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"malformed {what}: {exc!r}") from None


# characters per read of a document, and the decoder of its values
_READ_CHARS = 1 << 16
_DECODER = json.JSONDecoder(parse_constant=_finite)
_SPACE = re.compile(r"[ \t\n\r]*")
_NUMBER_CHARS = frozenset("0123456789.eE+-")  # what may go on after a number's last digit


class _Stream:
    """A document's JSON text, read a window at a time: each value is decoded
    as soon as the window holds all of it, and the text before it is dropped,
    so that a long trace is never held as text."""

    def __init__(self, file, what: str):
        self._file, self._what = file, what
        self._text, self._at = "", 0
        self._dropped = 0  # characters of the file before the window

    def _malformed(self, message: str) -> ArchiveError:
        return ArchiveError(f"malformed {self._what}: {message}")

    def _more(self) -> bool:
        """Read as much again as the window still holds, at least _READ_CHARS;
        False at the end of the file."""
        try:
            piece = self._file.read(max(_READ_CHARS, len(self._text) - self._at))
        except UnicodeDecodeError as exc:
            raise self._malformed(str(exc)) from None
        self._dropped += self._at
        self._text, self._at = self._text[self._at:] + piece, 0
        return bool(piece)

    def peek(self) -> str:
        """The next character that is not whitespace; "" at the end."""
        while True:
            self._at = _SPACE.match(self._text, self._at).end()
            if self._at < len(self._text) or not self._more():
                return self._text[self._at:self._at + 1]

    def take(self, char: str) -> None:
        if (found := self.peek()) != char:
            raise self._malformed(f"expected {char!r} but found {found or 'the end'!r}")
        self._at += 1

    def value(self):
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self._text, self._at)
            except json.JSONDecodeError as exc:
                where = self._dropped + exc.pos
                if self._more():  # the value may go on past the window
                    continue
                raise self._malformed(f"{exc.msg} at character {where}") from None
            except ValueError as exc:  # a NaN or an infinity
                raise self._malformed(str(exc)) from None
            # a number that ends the window may go on in the next piece
            if (end < len(self._text) and self._text[end] not in _NUMBER_CHARS) or not self._more():
                self._at = end
                return value

    def items(self):
        """The values of the list that comes next, one at a time."""
        self.take("[")
        if self.peek() != "]":
            yield self.value()
            while self.peek() == ",":
                self._at += 1
                yield self.value()
        self.take("]")


def _read(source, what: str) -> dict:
    """Parse a document once: a JSON object without NaN or Infinity, of this
    format version when it names one (bare state documents do not). A run
    archive's "trace" list that follows its "config" is checked and packed as
    it is read (_checked_trace), and the document holds the Trace."""
    with open(source, encoding="utf-8") as file:
        stream = _Stream(file, what)
        if stream.peek() != "{":
            stream.value()
            raise ArchiveError(f"malformed {what}: top level must be an object")
        stream.take("{")
        doc = {}
        more = stream.peek() != "}"
        while more:
            if type(key := stream.value()) is not str:
                raise ArchiveError(f"malformed {what}: a key must be a string, not {key!r}")
            if key in doc:
                raise ArchiveError(f"malformed {what}: key {key!r} appears twice")
            stream.take(":")
            if key == "trace" and "config" in doc and stream.peek() == "[":
                with _malformed(what):
                    doc[key] = _checked_trace(_config_from_doc(doc["config"]), stream.items())
            else:
                doc[key] = stream.value()
            if key == "format_version" and doc[key] != FORMAT_VERSION:
                raise ArchiveError(f"unknown {what} format version {doc[key]!r}")
            if more := stream.peek() == ",":
                stream.take(",")
        stream.take("}")
        if stream.peek():
            raise ArchiveError(f"malformed {what}: text after the top-level object")
    return doc


# the keys whose numbers are kernel evaluations, and may drift between builds
# up to LOAD_RESIDUAL_TOL; every other number is an input, a copy or a count
_EVALUATED = frozenset(("ss_residual", "monogamy_residual", "final_residuals", "fingerprint", "min_residual"))


def _agree(stored, fresh, where: str = "", tol: float = 0.0) -> None:
    """Check a stored document against the one re-derived from its inputs:
    the same keys and lengths, the numbers under an _EVALUATED key within
    LOAD_RESIDUAL_TOL, all else equal, and an integer where this build
    writes one."""
    # compared in C; a dict is walked, since its == takes a stored 10.0 for a
    # count of 10 (every int sits in a dict: a document's lists hold floats)
    if stored == fresh and type(stored) is type(fresh) is not dict:
        return
    if isinstance(stored, dict) and isinstance(fresh, dict):
        if stored.keys() != fresh.keys():
            raise ArchiveError(f"{where or 'document'} keys {sorted(stored)} are not {sorted(fresh)}")
        for key in fresh:
            _agree(stored[key], fresh[key], f"{where} {key}".lstrip(), LOAD_RESIDUAL_TOL if key in _EVALUATED else tol)
        return
    if isinstance(stored, list) and isinstance(fresh, list) and len(stored) == len(fresh):
        for n, (kept, again) in enumerate(zip(stored, fresh)):
            _agree(kept, again, f"{where} row {n}", tol)
        return
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (stored, fresh))
    if numbers and isinstance(fresh, int) and not isinstance(stored, int):
        raise ArchiveError(f"stored {where} {stored!r} must be the integer {fresh!r}")
    if numbers:
        with _malformed(where):  # 1e999 parses as inf, and a long int overflows a float
            numbers = abs(_finite(stored) - fresh) <= tol
    if not numbers:
        raise ArchiveError(f"stored {where} {stored!r} disagrees with re-evaluation {fresh!r} beyond {tol}")


# rows of a stored trace checked per kernel call
_TRACE_BLOCK = 64


def _checked_trace(config: search.SearchConfig, rows) -> search.Trace:
    """The Trace of stored rows, checked a block at a time: each block's steps
    and states are parsed, its Trace is built from them alone and scored in
    one kernel call, and its rows are compared with those this build writes
    for it, so that a long trace is never held as parsed rows."""
    rows, parts = iter(rows), []
    while True:
        block, first = list(itertools.islice(rows, _TRACE_BLOCK)), len(parts) * _TRACE_BLOCK
        states = [_state_from_doc(row["state"], f"trace row {n} state") for n, row in enumerate(block, first)]
        with _malformed(f"trace from row {first}"):
            steps = [int(row["step"]) for row in block]
            states = np.array(states, dtype=complex).reshape(-1, 16)
            parts.append(search.Trace(config, steps, states, parts[-1][-1] if parts else None))
        for n, (row, entry) in enumerate(zip(block, parts[-1]), first):
            _agree(row, _trace_row(entry), f"trace row {n}")
        if len(block) < _TRACE_BLOCK:
            return search.Trace.joined(parts)


def _run_from_doc(doc: dict) -> RunArchive:
    with _malformed("archive document"):
        config = _config_from_doc(doc["config"])
        trace = doc["trace"]
        if not isinstance(trace, search.Trace):  # parsed whole, not checked as it was read
            trace = _checked_trace(config, trace)
        record = search.RunRecord(config, trace)
        created_at = str(doc["created_at"])
    archive = make_archive(record, created_at)
    # the trace's rows were compared as they were checked
    _agree({**doc, "trace": None}, {**_run_doc(archive), "trace": None})
    return archive


def load_run(source) -> RunArchive:
    """Parse an archive's inputs, its config and its trace's steps and states,
    and check the whole stored document against the one this build writes for
    them: the norm of every state is checked, and every residual, count and
    delta and the fingerprint are derived again. The record carries the fresh
    values. The trace is checked as it is read, so a long one is held only as
    its Trace."""
    return _run_from_doc(_read(source, "archive document"))


def _scan_from_doc(doc: dict) -> search.ScanSummary:
    with _malformed("scan document"):
        config = doc["config"]
        layout = measures.PairingLayout(**config["layout"])
        alpha = _kernels.normalize_alpha(config["alpha"])
        state = _state_from_doc(doc["argmin_state"], "argmin_state")
        summary = search.ScanSummary(
            n_states=int(config["n_states"]), alpha=alpha, layout=layout, rng=sampler.RngSeed(**config["rng"]),
            violations=int(doc["violations"]), argmin_index=int(doc["argmin_index"]), argmin_state=state,
            min_residual=measures.residual_report(state, layout, alpha).ss_residual,
        )
        created_at = str(doc["created_at"])
    _agree(doc, _scan_doc(summary, created_at))
    return summary


def load_state_document(source) -> tuple[np.ndarray, float | None, measures.PairingLayout]:
    """State, its alpha and its pairing layout from a run archive, a scan
    document (its argmin state) or a bare {"state": [[re, im], ...]} document;
    a bare document has no alpha (None) and the canonical layout."""
    doc = _read(source, "state document")
    if "final_state" in doc:
        record = _run_from_doc(doc).record
        return record.final_state, record.config.alpha, record.config.layout
    if doc.get("kind") == "scan":
        summary = _scan_from_doc(doc)
        return summary.argmin_state, summary.alpha, summary.layout
    if "state" in doc:
        return _state_from_doc(doc["state"], "state"), None, measures.CANONICAL_LAYOUT
    raise ArchiveError("state document needs a run archive, a scan document or a top-level 'state' key")
