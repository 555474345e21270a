"""Archive round trips, canonical formatting, and load-time validation."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import apply_local_unitary, bell_product, random_state, w_state

from ssmono import measures, sampler, search, store

PINNED_TIME = "2024-01-01T00:00:00+00:00"


@pytest.fixture(scope="module")
def short_record():
    cfg = search.SearchConfig(
        alpha=2.0, objective="ss", delta0=0.5, delta_min=1e-2, rng=sampler.RngSeed(5)
    )
    return search.minimize_residual(cfg)


def test_format_float_keeps_ten_significant_digits():
    rng = np.random.default_rng(171)
    values = list(rng.standard_normal(200))
    values += [0.0, 1.0, -1.0, 0.1, 2.0 / 3.0, 1e-300, -1e300]
    for v in values:
        text = store.format_float(v)
        assert float(text) == float(f"{v:.10g}")
        assert abs(float(text) - v) <= 5e-10 * abs(v)
    assert store.format_float(2.0 / 3.0) == "0.6666666667"


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
    # the CLI's spelling: floats at 10 significant digits, integral ones with ".0"
    doc = {
        "two": 2.0, "negzero": -0.0, "small": 1e-05, "sum": 0.1 + 0.2, "third": 1.0 / 3.0, "int": 7,
        "none": None, "flag": True, "text": 'a "b"', "nested": {"x": [1.5, {"y": -2.5e-12}]}, "list": [1, 2.0, False],
    }
    assert store.compact_json(doc) == (
        '{"two": 2.0, "negzero": -0.0, "small": 1e-05, "sum": 0.3, "third": 0.3333333333, "int": 7, '
        '"none": null, "flag": true, "text": "a \\"b\\"", "nested": {"x": [1.5, {"y": -2.5e-12}]}, '
        '"list": [1, 2.0, false]}'
    )


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


def test_run_fingerprint_of_a_rotated_w_state_is_exact():
    # every pair of W4 has c = 1/2 and spectrum (1/2, 1/2, 0, 0), whatever the
    # local unitaries; the density-matrix route missed c = 1/2 by 1e-8 here
    rng = np.random.default_rng(3)
    psi = w_state(4)
    for q, u in enumerate(np.linalg.qr(rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))[0]):
        psi = apply_local_unitary(psi, q, u)
    for layout in (measures.CANONICAL_LAYOUT, measures.PairingLayout(2, 0, 3, 1)):
        for alpha in (2.0, 1.5, 1.0):
            fp = store.run_fingerprint(psi, layout, alpha)
            want = measures.renyi_from_concurrence(0.5, alpha)
            assert max(abs(v - want) for v in fp["pair_entanglements"].values()) < 1e-14, alpha
            for name in ("spectrum_a1a2", "spectrum_a1b1", "spectrum_a2b2"):
                assert np.max(np.abs(np.array(fp[name]) - [0.5, 0.5, 0.0, 0.0])) < 1e-14, name


def test_run_fingerprint_pairs_are_the_residual_terms_bit_for_bit():
    rng = np.random.default_rng(42)
    layouts = (measures.CANONICAL_LAYOUT, measures.PairingLayout(0, 2, 1, 3), measures.PairingLayout(3, 1, 0, 2))
    for psi in [random_state(rng, 4) for _ in range(20)] + [bell_product(), w_state(4)]:
        for layout in layouts:
            for alpha in (2.0, 1.5, 1.0):
                pairs = store.run_fingerprint(psi, layout, alpha)["pair_entanglements"]
                report = measures.residual_report(psi, layout, alpha)
                assert list(pairs) == ["a1a2", "a1b1", "a1b2", "a2b1", "a2b2", "b1b2"]
                for name in ("a1b1", "a2b2", "a1b2", "a2b1"):
                    assert pairs[name] == getattr(report, f"e_{name}")


def test_run_fingerprint_refuses_other_than_four_qubit_states():
    with pytest.raises(ValueError, match="4-qubit"):
        store.run_fingerprint(w_state(3), measures.CANONICAL_LAYOUT, 2.0)
    with pytest.raises(ValueError, match="norm"):
        store.run_fingerprint(2 * w_state(4), measures.CANONICAL_LAYOUT, 2.0)
    with pytest.raises(ValueError, match="alpha"):
        store.run_fingerprint(w_state(4), measures.CANONICAL_LAYOUT, "2")


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
    # written as it is encoded, the text is canonical_json of the whole document
    assert p1.read_text(encoding="utf-8") == store.canonical_json(store._run_doc(archive))


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


def test_a_state_is_loaded_at_the_norm_tolerance_it_is_scored_at(tmp_path, short_record):
    # off unit norm by 1e-10: the loader once let a final state through at
    # 1e-9, and scoring it again then raised a plain ValueError at 1e-12.
    # The final state is the last trace row's, so a stored one must equal it.
    def off(pairs):
        return [[(1 + 1e-10) * re, (1 + 1e-10) * im] for re, im in pairs]

    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    final, trace = json.loads(path.read_text()), json.loads(path.read_text())
    final["final_state"] = off(final["final_state"])
    trace["trace"][1]["state"] = off(trace["trace"][1]["state"])
    for message, doc in (("stored final_state row 0 .* beyond 0.0", final), ("trace row 1 state norm .* beyond 1e-12", trace)):
        path.write_text(json.dumps(doc))
        with pytest.raises(store.ArchiveError, match=message):
            store.load_run(path)
        with pytest.raises(store.ArchiveError, match=message):
            store.load_state_document(path)
    path.write_text(json.dumps({"state": final["final_state"]}))
    with pytest.raises(store.ArchiveError, match="state norm"):
        store.load_state_document(path)


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


def _tamper_pair_entanglement(doc):
    doc["fingerprint"]["pair_entanglements"]["a1b1"] = 123.0


def _tamper_spectrum(doc):
    doc["fingerprint"]["spectrum_a1a2"] = [9, 9]


def _nan_trace_delta(doc):
    doc["trace"][1]["delta"] = float("nan")  # json.dumps writes NaN


def _extra_key(doc):
    doc["comment"] = "not part of the format"


def _all_damages(doc):
    for damage in (_damage_trace_amplitudes, _damage_trace_residual, _drop_total, _drop_final_delta):
        damage(doc)


def _fifteen_pairs(doc):
    del doc["trace"][1]["state"][15]


def _pairs_of_three(doc):
    doc["trace"][1]["state"] = [pair + [0.0] for pair in doc["trace"][1]["state"]]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_damage_trace_amplitudes, "trace row 1 state norm"),
        (_damage_trace_residual, "trace row 1 ss_residual"),
        (_drop_total, "total_states_generated"),
        (_drop_final_delta, "final_delta"),
        (_tamper_pair_entanglement, "fingerprint pair_entanglements a1b1"),
        (_tamper_spectrum, "fingerprint spectrum_a1a2"),
        (_nan_trace_delta, "NaN"),
        (_extra_key, "document keys"),
        (_all_damages, "trace row 1 state norm"),
        (_fifteen_pairs, r"malformed trace row 1 state: expected 16 \[re, im\] pairs"),
        (_pairs_of_three, r"malformed trace row 1 state: expected 16 \[re, im\] pairs"),
    ],
    ids=[
        "trace-amplitudes", "trace-residual", "no-total", "no-final-delta",
        "fingerprint-entanglement", "fingerprint-spectrum", "nan-delta", "extra-key", "all",
        "fifteen-pairs", "pairs-of-three",
    ],
)
def test_load_run_checks_the_whole_archive(tmp_path, short_record, damage, message):
    # amplitudes of 5.0 in a trace row, a trace ss of 123 and missing counters
    # each used to load without complaint, with the counters read as 0; so did
    # a tampered fingerprint, a NaN delta and a key outside the format
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    assert len(doc["trace"]) > 1
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match=message):
        store.load_run(path)


@pytest.fixture(scope="module")
def seed0_archive(tmp_path_factory):
    """The text of the seed-0 run at counter_max 50: 65 rows, its last accept
    at step 1152, and 1202 states in all."""
    record = search.minimize_residual(search.SearchConfig(rng=sampler.RngSeed(0), counter_max=50, delta_min=1e-2))
    path = tmp_path_factory.mktemp("seed0") / "run.json"
    store.save_run(store.make_archive(record, PINNED_TIME), path)
    return path.read_text(encoding="utf-8")


def _row_three_since(doc):
    doc["trace"][3]["states_since_accept"] = 999


def _row_three_step(doc):
    doc["trace"][3]["step"] = 0


def _row_three_delta(doc):
    doc["trace"][3]["delta"] = 7.0  # above delta0


def _total_of_one(doc):
    doc["total_states_generated"] = 1


def _final_delta_above_delta_min(doc):
    doc["final_delta"] = 0.3


def _final_state_of_row_two(doc):
    state = np.array(doc["trace"][2]["state"]).view(complex).ravel()
    doc["final_state"] = doc["trace"][2]["state"]
    doc["final_residuals"] = measures.residual_report(state)._asdict()
    doc["fingerprint"] = store.run_fingerprint(state, measures.CANONICAL_LAYOUT, 2.0)


def _as_float(*keys):
    """An edit that writes the integer at doc[keys[0]][keys[1]]... as a float."""
    def edit(doc):
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        doc[last] = float(doc[last])
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_row_three_since, "stored trace row 3 states_since_accept 999"),
        (_row_three_step, "trace from row 0: .*step 0 does not follow step"),
        (_row_three_delta, "stored trace row 3 delta 7.0"),
        (_total_of_one, "stored total_states_generated 1 disagrees with re-evaluation 1202"),
        (_final_delta_above_delta_min, "stored final_delta 0.3 disagrees"),
        (_final_state_of_row_two, "stored final_state row"),
        # an integer written as a float: each of these loaded
        (_as_float("trace", 3, "step"), "stored trace row 3 step 10.0 must be the integer 10"),
        (_as_float("trace", 3, "states_since_accept"), "stored trace row 3 states_since_accept .* must be the integer"),
        (_as_float("total_states_generated"), "stored total_states_generated 1202.0 must be the integer 1202"),
        (_as_float("format_version"), "stored format_version 1.0 must be the integer 1"),
    ],
    ids=["since", "step", "delta", "total", "final-delta", "final-state", "float-step", "float-since", "float-total",
         "float-version"],
)
def test_load_run_derives_the_bookkeeping_from_the_steps(tmp_path, seed0_archive, edit, message):
    # each edit once loaded without complaint: the deltas, the counts and the
    # final state were read as inputs, not derived from the steps and states
    doc = json.loads(seed0_archive)
    assert (len(doc["trace"]), doc["trace"][-1]["step"], doc["total_states_generated"]) == (65, 1152, 1202)
    edit(doc)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match=message):
        store.load_run(path)


def test_bookkeeping_refuses_steps_that_break_the_rule():
    config = search.SearchConfig(delta0=0.5, counter_max=10, delta_min=0.05)
    deltas, since, final, total = search.bookkeeping(config, [0, 1, 12, 33])
    # 0, 10 and 20 states rejected before the three accepts: 0, 1 and 2 halvings;
    # then one more halving, after 10 rejections, takes delta below delta_min
    assert (deltas, since) == ([0.5, 0.5, 0.25, 0.0625], [0, 1, 11, 21])
    assert (final, total) == (0.03125, 33 + 10)
    for steps, message in (([3], "seed's step is 3"), ([0, 5, 5], "step 5 does not follow step 5"),
                           ([0, 41], "delta fell below delta_min"), ([], "at least the seed")):
        with pytest.raises(ValueError, match=message):
            search.bookkeeping(config, steps)


@pytest.mark.parametrize(
    "field, value",
    [("a2", 1.0), ("a2", True), ("a2", "1"), ("counter_max", 1000.5), ("counter_max", True), ("counter_max", 1000.0)],
)
def test_load_run_refuses_non_integer_layout_roles_and_counters(tmp_path, short_record, field, value):
    # "a2": 1.0 used to reach the kernel's own ValueError, and a counter_max of
    # 1000.5 or true loaded and then broke a continuation with a TypeError
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    config = doc["config"]["layout"] if field == "a2" else doc["config"]
    config[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match=f"{'a layout role' if field == 'a2' else field} must be an integer"):
        store.load_run(path)


def test_documents_refuse_numbers_beyond_float_range(tmp_path, short_record):
    # 1e999 parses to inf without passing through the NaN/Infinity hook, and
    # float() of a 400-digit integer raised OverflowError past the CLI's handler
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    doc = json.loads(path.read_text())
    doc["final_delta"] = "OVERFLOW"
    path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e999"))
    with pytest.raises(store.ArchiveError, match="non-finite number inf"):
        store.load_run(path)
    doc["final_delta"] = 10**400
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match="too large"):
        store.load_run(path)
    path.write_text(json.dumps({"state": [[10**400, 0.0]] + [[0.0, 0.0]] * 15}))
    with pytest.raises(store.ArchiveError, match="too large"):
        store.load_state_document(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (b"[1, 2]", "malformed state document: top level must be an object"),
        (b"{1: 2}", "malformed state document: a key must be a string, not 1"),
        (b'{"state": "\xff"}', "malformed state document: 'utf-8' codec can't decode byte 0xff"),
        (b'{"state" [[1, 0]]}', "malformed state document: expected ':' but found '\\['"),
    ],
    ids=["top-level-list", "integer-key", "invalid-utf-8", "no-colon"],
)
def test_documents_refuse_text_that_is_not_an_object_of_named_values(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    with pytest.raises(store.ArchiveError, match=message):
        store.load_state_document(path)


def test_numpy_integers_in_a_config_are_written_as_integers(tmp_path):
    # the encoder's fallback writes a numpy integer as the JSON integer, so
    # the run saves and reloads with the text of the same run given ints
    texts = []
    for integer in (int, np.int64):
        config = search.SearchConfig(
            layout=measures.PairingLayout(*map(integer, (0, 1, 2, 3))), counter_max=integer(50), delta_min=1e-2,
            rng=sampler.RngSeed(integer(5), integer(1)),
        )
        path = tmp_path / f"{integer.__name__}.json"
        store.save_run(store.make_archive(search.minimize_residual(config), PINNED_TIME), path)
        assert store.load_run(path).record.config.counter_max == 50
        texts.append(path.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]


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


def test_load_state_document_reads_scan_documents(tmp_path):
    layout = measures.PairingLayout(0, 2, 1, 3)
    summary = search.haar_scan(300, alpha=1.5, layout=layout, rng=sampler.RngSeed(6))
    path = tmp_path / "scan.json"
    store.save_scan(summary, path)
    state, alpha, loaded_layout = store.load_state_document(path)
    np.testing.assert_array_equal(state, summary.argmin_state)
    assert alpha == 1.5
    assert loaded_layout == layout

    doc = json.loads(path.read_text())
    doc["min_residual"] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match="min_residual"):
        store.load_state_document(path)


def test_load_state_document_rejects_unknown_shape(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"something": 1}))
    with pytest.raises(store.ArchiveError):
        store.load_state_document(path)


def test_states_render_as_the_list_renderer_writes_them():
    # _state_doc's array against the nested [re, im] lists it stands for,
    # with the integral values, -0.0 and subnormals among them
    rng = np.random.default_rng(172)
    states = [bell_product(), np.zeros(16, dtype=complex), rng.standard_normal(16) + 1j * rng.standard_normal(16)]
    states[1][[0, 3, 5]] = [-0.0 + 1j, 1e-300 - 2.0j, 5e-324]
    for state in states:
        pairs = [[z.real, z.imag] for z in state]
        nested = {"a": {"state": pairs}, "b": [pairs]}
        fast = {"a": {"state": store._state_doc(state)}, "b": [store._state_doc(state)]}
        assert store.canonical_json(fast) == store.canonical_json(nested)
        assert store.compact_json(fast) == store.compact_json(nested)
    with pytest.raises(ValueError, match="Out of range float"):
        store.canonical_json({"state": store._state_doc(np.full(16, np.nan, dtype=complex))})


def test_documents_load_whatever_their_layout_and_number_spelling(tmp_path):
    # a document written on one line, with another indent, or with integral
    # amplitudes spelled as integers or booleans must load as its canonical
    # text does
    basis = np.zeros(16, dtype=complex)
    basis[0] = 1.0
    record = search.minimize_residual(
        search.SearchConfig(delta0=1e-3, delta_min=1e-2, rng=sampler.RngSeed(7), seed_state=basis)
    )
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(record, PINNED_TIME), path)
    doc = json.loads(path.read_text())
    for text in (json.dumps(doc), json.dumps(doc, indent=3), path.read_text().replace("1.0, 0.0]", "1, false]")):
        path.write_text(text)
        loaded = store.load_run(path)
        np.testing.assert_array_equal(loaded.record.final_state, basis)
        np.testing.assert_array_equal(loaded.record.config.seed_state, basis)
    bare = tmp_path / "state.json"
    bare.write_text(json.dumps({"state": [[1, 0]] + [[0, 0]] * 15}))
    np.testing.assert_array_equal(store.load_state_document(bare)[0], basis)


def test_documents_refuse_amplitudes_that_are_not_numbers(tmp_path, short_record):
    # numpy parses the string "1.0" as a float, so a bare document with
    # string amplitudes loaded, and analyze exited 0 on it
    bare = tmp_path / "state.json"
    for amp in ("1.0", None, [1.0], {"re": 1.0}):
        bare.write_text(json.dumps({"state": [[amp, 0]] + [[0, 0]] * 15}))
        with pytest.raises(store.ArchiveError, match="malformed state"):
            store.load_state_document(bare)
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record, PINNED_TIME), path)
    for where, message in (("final_state", "stored final_state row 3 row 1 '"), ("trace row 1 state", "malformed trace row 1 state: an amplitude is not a number")):
        doc = json.loads(path.read_text())
        state = doc["final_state"] if where == "final_state" else doc["trace"][1]["state"]
        state[3][1] = repr(state[3][1])
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(doc))
        with pytest.raises(store.ArchiveError, match=message):
            store.load_run(damaged)


def _long_record(n_rows: int) -> search.RunRecord:
    """A record whose trace holds n_rows Haar states, one accept every three
    steps; a descent with that many accepts takes seconds."""
    config = search.SearchConfig(rng=sampler.RngSeed(11))
    gen = sampler.generator(config.rng)
    states = np.array([sampler.haar_random_state(4, gen) for _ in range(n_rows)])
    return search.RunRecord(config, search.Trace(config, 3 * np.arange(n_rows), states))


def _written(tmp_path, record) -> tuple:
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(record, PINNED_TIME), path)
    return path, path.read_text(encoding="utf-8")


def _reloaded_text(path) -> str:
    return store.canonical_json(store._run_doc(store.load_run(path)))


def test_load_run_reads_a_trace_a_window_and_a_block_at_a_time(tmp_path, monkeypatch):
    # 7-character windows split every number, key and row of the text, and 150
    # rows fill two kernel blocks and part of a third; in any layout the
    # reloaded record writes the stored text again
    path, written = _written(tmp_path, _long_record(150))
    doc = json.loads(written)
    monkeypatch.setattr(store, "_READ_CHARS", 7)
    for text in (written, json.dumps(doc), json.dumps(doc, indent=3)):
        path.write_text(text)
        assert _reloaded_text(path) == written
    # 128 rows end on a block boundary
    path, written = _written(tmp_path, _long_record(128))
    assert _reloaded_text(path) == written


@pytest.mark.parametrize("trace_first", [False, True], ids=["streamed", "parsed-whole"])
def test_load_run_checks_every_block_of_the_trace(tmp_path, trace_first):
    # a trace that comes before its config is parsed whole and checked after
    # it; either way a damaged row in the second block is found
    path, written = _written(tmp_path, _long_record(70))
    doc = json.loads(written)
    if trace_first:
        doc = {"trace": doc.pop("trace"), **doc}
        path.write_text(json.dumps(doc))
        assert _reloaded_text(path) == written
    doc["trace"][66]["ss_residual"] += 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match="trace row 66 ss_residual"):
        store.load_run(path)
    doc["trace"][66]["ss_residual"] -= 1e-6
    doc["trace"][67]["state"][0][0] = 5.0
    path.write_text(json.dumps(doc))
    with pytest.raises(store.ArchiveError, match="trace row 67 state norm"):
        store.load_run(path)


def test_load_run_refuses_a_repeated_key_and_text_after_the_document(tmp_path, short_record):
    path = tmp_path / "run.json"
    store.save_run(store.make_archive(short_record), path)
    text = path.read_text()
    path.write_text(text.replace('"format_version": 1,', '"format_version": 1, "format_version": 1,', 1))
    with pytest.raises(store.ArchiveError, match="'format_version' appears twice"):
        store.load_run(path)
    path.write_text(text + "{}")
    with pytest.raises(store.ArchiveError, match="after the top-level object"):
        store.load_run(path)
    # a decoding error names its place in the file, not in the window
    at = text.index('"trace": [') + len('"trace": [')
    path.write_text(text[:at] + "," + text[at:])
    with pytest.raises(store.ArchiveError, match=f"Expecting value at character {at}"):
        store.load_run(path)


def test_load_run_holds_neither_the_text_nor_the_parsed_trace(tmp_path):
    # a 2,000-row archive is 1.75 MB of text and its Trace 0.6 MB; parsed
    # whole, the text and the parsed rows took twice the text at once, and
    # read as it is checked the load peaks at 0.8 of it
    path, _ = _written(tmp_path, _long_record(2000))
    tracemalloc.start()
    try:
        store.load_run(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size

