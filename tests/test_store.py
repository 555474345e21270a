"""Archive round trips, canonical formatting, and load-time validation."""

import json

import numpy as np
import pytest

from conftest import bell_product

from ssmono import measures, sampler, search, store

PINNED_TIME = "2024-01-01T00:00:00+00:00"


@pytest.fixture(scope="module")
def short_record():
    cfg = search.SearchConfig(
        alpha=2.0, objective="ss", delta0=0.5, delta_min=1e-2, rng=sampler.RngSeed(5)
    )
    return search.minimize_residual(cfg)


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(171)
    values = list(rng.standard_normal(200))
    values += [0.0, 1.0, -1.0, 0.1, 2.0 / 3.0, 1e-300, -1e300]
    for v in values:
        assert float(store.format_float(v)) == v


def test_format_float_always_looks_like_a_float():
    assert store.format_float(1.0) == "1.0"
    assert store.format_float(-0.0) == "-0.0"
    assert "." in store.format_float(3.0) or "e" in store.format_float(3.0)


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            store.format_float(bad)


def test_canonical_json_parses_and_is_stable():
    doc = {"a": 1, "b": [1.5, 2.5], "c": {"d": "x", "e": None}, "f": True}
    text = store.canonical_json(doc)
    assert json.loads(text) == doc
    assert store.canonical_json(doc) == text


def test_compact_json_is_one_line():
    text = store.compact_json({"x": 1.0 / 3.0, "y": [1, 2]})
    assert "\n" not in text
    assert "0.3333333333" in text
    assert json.loads(text)["y"] == [1, 2]


def test_run_fingerprint_of_bell_product():
    fp = store.run_fingerprint(bell_product(), measures.CANONICAL_LAYOUT, 2.0)
    np.testing.assert_allclose(fp["spectrum_a1a2"], [0.25, 0.25, 0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(fp["spectrum_a1b1"], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(fp["spectrum_a2b2"], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    pe = fp["pair_entanglements"]
    assert set(pe) == {"a1a2", "a1b1", "a1b2", "a2b1", "a2b2", "b1b2"}
    assert pe["a1b1"] == pytest.approx(1.0, abs=1e-12)
    assert pe["a2b2"] == pytest.approx(1.0, abs=1e-12)
    for name in ("a1a2", "a1b2", "a2b1", "b1b2"):
        assert abs(pe[name]) < 1e-12


def test_save_and_load_run_round_trip(tmp_path, short_record):
    archive = store.make_archive(short_record)
    path = tmp_path / "run.json"
    store.save_run(archive, path)
    loaded = store.load_run(path)

    assert loaded.format_version == store.FORMAT_VERSION
    assert loaded.created_at == archive.created_at
    assert loaded.fingerprint == archive.fingerprint

    rec = loaded.record
    assert rec.config.alpha == short_record.config.alpha
    assert rec.config.objective == short_record.config.objective
    assert rec.config.rng == short_record.config.rng
    assert rec.config.layout == short_record.config.layout
    assert rec.total_states_generated == short_record.total_states_generated
    assert rec.final_delta == short_record.final_delta
    assert rec.final_residuals == short_record.final_residuals
    np.testing.assert_array_equal(rec.final_state, short_record.final_state)

    assert len(rec.trace) == len(short_record.trace)
    for got, want in zip(rec.trace, short_record.trace):
        assert got.step == want.step
        assert got.delta == want.delta
        assert got.ss_residual == want.ss_residual
        assert got.monogamy_residual == want.monogamy_residual
        assert got.states_since_accept == want.states_since_accept
        np.testing.assert_array_equal(got.state, want.state)


def test_save_run_is_byte_deterministic(tmp_path, short_record):
    archive = store.make_archive(short_record, created_at=PINNED_TIME)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    store.save_run(archive, p1)
    store.save_run(archive, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_run_document_layout(tmp_path, short_record):
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    for key in (
        "format_version",
        "created_at",
        "config",
        "trace",
        "final_state",
        "final_residuals",
        "fingerprint",
        "total_states_generated",
        "final_delta",
    ):
        assert key in doc
    assert doc["format_version"] == 1
    assert len(doc["trace"]) == len(short_record.trace)
    assert all(len(pair) == 2 for pair in doc["final_state"])
    assert doc["config"]["rng"] == {"seed": 5, "stream_id": 0}


def test_load_run_rejects_unknown_version(tmp_path, short_record):
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError):
        store.load_run(path)


def test_load_run_rejects_norm_drift(tmp_path, short_record):
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    doc["final_state"] = [[1.0001 * re, 1.0001 * im] for re, im in doc["final_state"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError):
        store.load_run(path)


def test_load_run_rejects_residual_mismatch(tmp_path, short_record):
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    doc["final_residuals"]["ss_residual"] += 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError):
        store.load_run(path)


def _damage_trace_amplitudes(doc):
    doc["trace"][1]["state"] = [[5.0, 0.0]] * 16


def _damage_trace_residual(doc):
    doc["trace"][1]["ss_residual"] = 123.0


def _drop_total(doc):
    del doc["total_states_generated"]


def _drop_final_delta(doc):
    del doc["final_delta"]


def _all_damages(doc):
    for damage in (_damage_trace_amplitudes, _damage_trace_residual, _drop_total, _drop_final_delta):
        damage(doc)


@pytest.mark.parametrize(
    "damage, message",
    [
        (_damage_trace_amplitudes, "trace row 1 state norm"),
        (_damage_trace_residual, "trace row 1 ss_residual"),
        (_drop_total, "total_states_generated"),
        (_drop_final_delta, "final_delta"),
        (_all_damages, "trace row 1 state norm"),
    ],
    ids=["trace-amplitudes", "trace-residual", "no-total", "no-final-delta", "all"],
)
def test_load_run_checks_the_whole_archive(tmp_path, short_record, damage, message):
    # amplitudes of 5.0 in a trace row, a trace ss of 123 and missing counters
    # each used to load without complaint, with the counters read as 0
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    assert len(doc["trace"]) > 1
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match=message):
        store.load_run(path)


def test_load_run_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(store.ArchiveError):
        store.load_run(path)
    assert issubclass(store.ArchiveError, ValueError)


def test_save_scan_document(tmp_path):
    summary = search.haar_scan(500, alpha=2.0, rng=sampler.RngSeed(2))
    p1, p2 = tmp_path / "scan1.json", tmp_path / "scan2.json"
    store.save_scan(summary, p1, created_at=PINNED_TIME)
    store.save_scan(summary, p2, created_at=PINNED_TIME)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["kind"] == "scan"
    assert doc["config"]["n_states"] == 500
    assert doc["config"]["alpha"] == 2.0
    assert doc["violations"] == summary.violations
    assert doc["argmin_index"] == summary.argmin_index


def test_load_state_document_accepts_both_forms(tmp_path, short_record):
    run_path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), run_path)
    state, alpha, layout = store.load_state_document(run_path)
    np.testing.assert_array_equal(state, short_record.final_state)
    assert alpha == short_record.config.alpha
    assert layout == short_record.config.layout

    bare = tmp_path / "state.json"
    bare.write_text(json.dumps({"state": [[z.real, z.imag] for z in bell_product()]}))
    state, alpha, layout = store.load_state_document(bare)
    assert alpha is None
    assert layout == measures.CANONICAL_LAYOUT
    np.testing.assert_allclose(state, bell_product(), atol=1e-15)


def test_load_state_document_rejects_unknown_shape(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"something": 1}))
    with pytest.raises(store.ArchiveError):
        store.load_state_document(path)
