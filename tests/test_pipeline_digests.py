"""Golden digests of the pipeline's outputs: the scan and verify commands,
the seed-0 search archive, two continuation stages from it, a region walk
and the trace export. A change that keeps every output's bits keeps these.

Each digest is the first 16 hex digits of the sha256 of an output's bytes: a
command's stdout, or a document's text without its created_at line, the one
line that is not deterministic. Commands run in a temporary directory with
relative paths, so that the paths they print are fixed. The bits rest on
numpy's Generator streams, which NEP 19 lets change between numpy versions,
and on libm's log2, expm1, log1p and log, as on x86-64 glibc."""

import hashlib
from pathlib import Path

import numpy as np

from ssmono import cli, sampler, search, store

NUMPY = "2.4.6"  # the numpy the digests were taken with

# a digest re-pinned is test data changed: CHANGES.md says which moved and why
GOLDEN = {
    "scan 1.5 stdout": "018ae2678e8f364f",
    "scan 1.5 document": "ccc30a0b4f3b8903",
    "scan 2 stdout": "fc25a5b8fcc77312",
    "scan 2 document": "67e706e801d48af2",
    "scan 3 stdout": "6fe8bd5d411c05f6",
    "scan 3 document": "bf87a13ad8c367f5",
    "verify monogamy-r2": "1bfdfedb917ddbdb",
    "verify sum-inequality": "d7b2f3694f5ef6dd",
    "search stdout": "fb5b2c37d4ae825a",
    "search document": "b5a27643d618eded",
    "continue stdout": "89d0c8caa0e2d07f",
    "stage 1.5 document": "283bbd12f86aa621",
    "stage 1.2 document": "578db0fb00338265",
    "trace-csv stdout": "03b2a019b4996d74",
    "trace-csv": "9657df52abe59864",
    "walk reports": "430011df65228845",
}


def _digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:16]


def _undated(path) -> str:
    """A document's text without its created_at line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith('"created_at": '))


def _run(capsys, *argv) -> str:
    """The stdout of a command that exits 0."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0 and err == "", (argv, code, err)
    return out


def _check(got: dict) -> None:
    want = {name: GOLDEN.get(name) for name in got}
    assert got == want, (f"digests taken with numpy {NUMPY}, running numpy {np.__version__}: NEP 19 lets "
                         f"Generator streams change between versions")


def _scan_and_verify(capsys, monkeypatch, workers) -> dict:
    """Digests of the scans at alpha 1.5, 2 and 3, at each worker count, and
    of the 3..8-qubit R2 verifier; a scan's outputs do not depend on the
    worker count, so each count must give the same digests."""
    got = {}
    for count in workers:
        monkeypatch.setenv("SSMONO_WORKERS", str(count))
        for alpha in ("1.5", "2", "3"):
            stdout = _run(capsys, "scan", "--n", "20000", "--alpha", alpha, "--out", "scan.json")
            for name, digest in ((f"scan {alpha} stdout", _digest(stdout)),
                                 (f"scan {alpha} document", _digest(_undated("scan.json")))):
                assert got.setdefault(name, digest) == digest, (name, count)
    monkeypatch.setenv("SSMONO_WORKERS", "1")
    got["verify monogamy-r2"] = _digest(_run(capsys, "verify", "monogamy-r2", "--qubits", "3..8", "--samples", "1000"))
    return got


def test_scans_and_the_r2_verifier_keep_their_digests(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    _check(_scan_and_verify(capsys, monkeypatch, (1, 2)))


def test_the_plain_build_keeps_the_scan_and_verifier_digests(plain_kernels, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(search, "_kernels", plain_kernels)
    _check(_scan_and_verify(capsys, monkeypatch, (1,)))


def test_search_stages_walk_and_trace_keep_their_digests(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    got = {"verify sum-inequality": _digest(_run(capsys, "verify", "sum-inequality"))}
    got["search stdout"] = _digest(_run(capsys, "search", "--delta0", "0.5", "--delta-min", "1e-2", "--out", "run.json"))
    got["search document"] = _digest(_undated("run.json"))
    got["continue stdout"] = _digest(_run(capsys, "continue", "--schedule", "1.5,1.2", "--delta-min", "1e-4",
                                          "--from", "run.json", "--out-dir", "stages"))
    for alpha in ("1.5", "1.2"):
        got[f"stage {alpha} document"] = _digest(_undated(f"stages/stage_alpha_{alpha}.json"))
    got["trace-csv stdout"] = _digest(_run(capsys, "trace-csv", "run.json", "--out", "trace.csv"))
    got["trace-csv"] = _digest(Path("trace.csv").read_bytes())
    start = store.load_run("run.json").record.final_state
    reports = search.random_walk_region(start, delta=1e-3, steps=2000, rng=sampler.RngSeed(0, 77))
    got["walk reports"] = _digest(np.array(reports, dtype=float).tobytes())
    _check(got)
