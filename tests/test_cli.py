"""End-to-end checks of the command line interface."""

import json

import numpy as np
import pytest

from conftest import bell_product

from ssmono import _kernels, cli, linalg, measures, sampler, search, store


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bell_product_doc(path):
    path.write_text(json.dumps({"state": [[z.real, z.imag] for z in bell_product()]}))


def test_scan_command_emits_one_json_line(capsys):
    code, out, err = run_cli(["scan", "--n", "500", "--alpha", "2", "--rng-seed", "3"], capsys)
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["command"] == "scan"
    assert doc["n_states"] == 500
    assert doc["violations"] == 0


def test_scan_command_writes_archive(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, out, _ = run_cli(
        ["scan", "--n", "300", "--rng-seed", "3", "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "scan"
    assert doc["config"]["n_states"] == 300
    assert json.loads(out)["min_residual"] == pytest.approx(doc["min_residual"], rel=1e-9)


def test_scan_worker_env_var_does_not_change_results(tmp_path, capsys, monkeypatch):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    monkeypatch.setenv("SSMONO_WORKERS", "1")
    assert cli.main(["scan", "--n", "5000", "--rng-seed", "4", "--out", str(out1)]) == 0
    monkeypatch.setenv("SSMONO_WORKERS", "2")
    assert cli.main(["scan", "--n", "5000", "--rng-seed", "4", "--out", str(out2)]) == 0
    capsys.readouterr()
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1.pop("created_at")
    d2.pop("created_at")
    assert d1 == d2


def test_malformed_worker_env_exits_two(capsys, monkeypatch):
    # these values used to be read as 1 without a word
    commands = (["scan", "--n", "64"], ["verify", "monogamy-r2", "--qubits", "3", "--samples", "64"])
    for value in ("many", "abc", "0", "-3", ""):
        monkeypatch.setenv("SSMONO_WORKERS", value)
        for argv in commands:
            code, out, err = run_cli(argv, capsys)
            assert code == 2
            assert out == ""
            assert err == f"error: SSMONO_WORKERS must be an integer >= 1, got {value!r}\n"
    # the environment variable is the only worker setting
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--n", "64", "--workers", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


def test_search_command_writes_loadable_archive(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    code, out, _ = run_cli(
        [
            "search",
            "--alpha", "2",
            "--objective", "ss",
            "--delta0", "0.5",
            "--delta-min", "1e-2",
            "--rng-seed", "5",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "search"
    archive = store.load_run(out_path)
    assert archive.record.config.rng == sampler.RngSeed(5, 0)
    assert archive.record.config.delta_min == 1e-2
    assert doc["terminal_ss_residual"] == pytest.approx(
        archive.record.final_residuals.ss_residual, rel=1e-8, abs=1e-9
    )


def test_search_seed_file_evaluation_only(tmp_path, capsys):
    seed_doc = tmp_path / "seed.json"
    write_bell_product_doc(seed_doc)
    out_path = tmp_path / "run.json"
    code, out, _ = run_cli(
        [
            "search",
            "--delta0", "1e-6",
            "--delta-min", "1e-4",
            "--seed-file", str(seed_doc),
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trace_rows"] == 1
    assert doc["total_states_generated"] == 0
    assert abs(doc["terminal_ss_residual"]) < 1e-9


def test_continue_command_runs_stages(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert cli.main(["search", "--rng-seed", "0", "--out", str(run_path)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "stages"
    code, out, _ = run_cli(
        [
            "continue",
            "--from", str(run_path),
            "--schedule", "1.5",
            "--delta0", "1e-2",
            "--delta-min", "1e-3",
            "--out-dir", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [s["alpha"] for s in doc["stages"]] == [1.5]
    assert doc["stages"][0]["terminal_ss_residual"] < -1e-7
    stage = store.load_run(out_dir / "stage_alpha_1.5.json")
    assert stage.record.config.alpha == 1.5


def test_continue_names_each_stage_by_every_digit_of_its_alpha(tmp_path, capsys):
    # at 6 significant digits both stages were written to stage_alpha_1.12346.json
    run_path = tmp_path / "run.json"
    assert cli.main(["search", "--rng-seed", "0", "--out", str(run_path)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "stages"
    argv = ["continue", "--from", str(run_path), "--schedule", "1.1234571,1.1234567",
            "--delta0", "1e-2", "--delta-min", "1e-3", "--out-dir", str(out_dir)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    written = [stage["out"] for stage in json.loads(out)["stages"]]
    assert sorted(path.name for path in out_dir.iterdir()) == ["stage_alpha_1.1234567.json", "stage_alpha_1.1234571.json"]
    for path, alpha in zip(written, (1.1234571, 1.1234567)):
        assert store.load_run(path).record.config.alpha == alpha


def test_analyze_refuses_an_archive_whose_counts_disagree_with_its_steps(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert cli.main(["search", "--rng-seed", "0", "--counter-max", "50", "--delta-min", "1e-2", "--out", str(run_path)]) == 0
    capsys.readouterr()
    doc = json.loads(run_path.read_text())
    doc["total_states_generated"] = 1
    run_path.write_text(json.dumps(doc))
    code, out, err = run_cli(["analyze", str(run_path)], capsys)
    assert code == 2 and out == ""
    assert "total_states_generated" in err


def test_continue_rejects_non_violating_start(tmp_path, capsys):
    seed_doc = tmp_path / "seed.json"
    write_bell_product_doc(seed_doc)
    run_path = tmp_path / "run.json"
    assert (
        cli.main(
            [
                "search",
                "--delta0", "1e-6",
                "--delta-min", "1e-4",
                "--seed-file", str(seed_doc),
                "--out", str(run_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, _, err = run_cli(["continue", "--from", str(run_path), "--schedule", "1.5"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("counter_max", [1000.5, True])
def test_continue_refuses_an_archive_with_a_non_integer_counter(tmp_path, capsys, counter_max):
    # such an archive used to load and the continuation died with a numpy
    # TypeError traceback and exit code 1, the code for "violations found"
    run_path = tmp_path / "run.json"
    assert cli.main(["search", "--delta0", "0.5", "--delta-min", "1e-2", "--out", str(run_path)]) == 0
    capsys.readouterr()
    doc = json.loads(run_path.read_text())
    doc["config"]["counter_max"] = counter_max
    run_path.write_text(json.dumps(doc))
    code, out, err = run_cli(["continue", "--from", str(run_path), "--schedule", "1.5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed archive document") and "counter_max must be an integer" in err
    assert len(err.splitlines()) == 1


def test_archives_and_analyze_stay_off_the_density_matrix_path(tmp_path, capsys, monkeypatch):
    # the fingerprint and every residual come from the compiled amplitude
    # kernels; the density-matrix measures are for mixed states only
    record = search.minimize_residual(search.SearchConfig(alpha=1.5, delta0=0.5, delta_min=1e-2))

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline reached the density-matrix path")

    for module, name in ((measures, "concurrence"), (linalg, "density_eigh"), (np.linalg, "eigh"),
                         (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, refuse)
    archive = store.make_archive(record)
    path = tmp_path / "run.json"
    store.save_run(archive, path)
    assert store.load_run(path).fingerprint == archive.fingerprint
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["pair_entanglements"] == pytest.approx(archive.fingerprint["pair_entanglements"])


def test_continue_rejects_bad_schedule_before_any_stage(tmp_path, capsys, monkeypatch):
    # "1.5,nan" used to run the whole alpha = 1.5 stage before failing, and
    # "1.5,abc" failed in float() only after the archive was loaded
    seed_doc, run_path = tmp_path / "seed.json", tmp_path / "run.json"
    write_bell_product_doc(seed_doc)
    argv = ["search", "--delta0", "1e-6", "--delta-min", "1e-4", "--seed-file", str(seed_doc)]
    assert cli.main(argv + ["--out", str(run_path)]) == 0
    capsys.readouterr()
    started = []
    monkeypatch.setattr(store, "load_run", lambda *args: started.append(args))
    monkeypatch.setattr(search, "alpha_continuation", lambda *args: started.append(args) or [])
    for schedule, message in (
        ("1.5,nan", "error: alpha must be a real number"),
        ("inf,1.5", "error: alpha must be a real number"),
        ("1.5,abc", "error: --schedule: could not convert string to float: 'abc'"),
        ("1.5;1.2", "error: --schedule: could not convert string to float: '1.5;1.2'"),
    ):
        code, out, err = run_cli(["continue", "--from", str(run_path), "--schedule", schedule], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
    assert started == []


def test_verify_monogamy_r2_subcommand(capsys):
    code, out, _ = run_cli(
        ["verify", "monogamy-r2", "--qubits", "3..4", "--samples", "400", "--rng-seed", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["min_residual"] >= -1e-9
    assert set(doc["min_residual_per_size"]) == {"3", "4"}


def test_verify_monogamy_r2_does_not_depend_on_workers(capsys, monkeypatch):
    argv = ["verify", "monogamy-r2", "--qubits", "6..8", "--samples", "1100", "--rng-seed", "2"]
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SSMONO_WORKERS", workers)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_monogamy_r2_scores_in_bounded_chunks(capsys, monkeypatch):
    shapes = []
    kernel = _kernels.batched_ckw_r2

    def recording(states, n_qubits, *rest):
        shapes.append(states.shape)
        return kernel(states, n_qubits, *rest)

    monkeypatch.setattr(_kernels, "batched_ckw_r2", recording)
    monkeypatch.setenv("SSMONO_WORKERS", "1")
    code, _, _ = run_cli(["verify", "monogamy-r2", "--qubits", "8", "--samples", "600"], capsys)
    assert code == 0
    assert sum(rows for rows, _ in shapes) == 600
    # chunks of 256, 256 and 88 rows, each scored 16 rows (2**12 amplitudes) at a time
    assert len(shapes) == 16 + 16 + 6
    assert max(rows * dim for rows, dim in shapes) <= search.SCORE_BLOCK


def test_verify_monogamy_r2_rejects_bad_range(capsys):
    code, _, err = run_cli(["verify", "monogamy-r2", "--qubits", "2..9"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("qubits", ["3..", "..5", "3..4..5", "abc", "9", "5..4"])
def test_verify_monogamy_r2_refuses_malformed_qubits(qubits, capsys):
    # "3.." ran size 3 alone and exited 0; "3..4..5" and "abc" failed in int()
    code, out, err = run_cli(["verify", "monogamy-r2", "--qubits", qubits, "--samples", "64"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --qubits must be N or N..M with 3 <= N <= M <= 8, got {qubits!r}\n"


def test_verify_sum_inequality_subcommand(capsys):
    code, out, _ = run_cli(
        ["verify", "sum-inequality", "--samples", "2000", "--rng-seed", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["min_residual"] >= -1e-12


def test_verify_sum_inequality_scores_in_bounded_chunks(capsys, monkeypatch):
    shapes = []
    score = measures.sum_inequality_residuals

    def recording(vectors):
        shapes.append(vectors.shape)
        return score(vectors)

    monkeypatch.setattr(measures, "sum_inequality_residuals", recording)
    code, _, _ = run_cli(["verify", "sum-inequality", "--samples", "9000"], capsys)
    assert code == 0
    assert shapes == [(cli.SUM_CHUNK, 7), (cli.SUM_CHUNK, 7), (9000 - 2 * cli.SUM_CHUNK, 7)]


def test_admissible_vectors_keep_the_draw_distribution_support():
    vectors = cli._admissible_vectors(sampler.generator(sampler.RngSeed(8)), 5000)
    lengths = np.count_nonzero(vectors, axis=1)
    assert vectors.shape == (5000, 7)
    assert set(lengths.tolist()) == set(range(2, 8))
    # nonzero entries form a prefix, and every vector is admissible
    assert all(not vectors[r, n:].any() for r, n in enumerate(lengths))
    assert vectors.min() >= 0.0 and vectors.sum(axis=1).max() <= 1.0
    assert cli._admissible_vectors(sampler.generator(sampler.RngSeed(8)), 5000).tolist() == vectors.tolist()


def test_analyze_bare_state_defaults_to_alpha_two(tmp_path, capsys):
    seed_doc = tmp_path / "state.json"
    write_bell_product_doc(seed_doc)
    code, out, _ = run_cli(["analyze", str(seed_doc)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 2.0
    assert abs(doc["ss_residual"]) < 1e-9
    assert doc["pair_entanglements"]["a1b1"] == pytest.approx(1.0, rel=1e-8)


def test_analyze_archive_uses_stored_alpha(tmp_path, capsys):
    seed_doc = tmp_path / "state.json"
    write_bell_product_doc(seed_doc)
    run_path = tmp_path / "run.json"
    assert (
        cli.main(
            [
                "search",
                "--alpha", "1.5",
                "--delta0", "1e-6",
                "--delta-min", "1e-4",
                "--seed-file", str(seed_doc),
                "--out", str(run_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code, out, _ = run_cli(["analyze", str(run_path)], capsys)
    assert code == 0
    assert json.loads(out)["alpha"] == 1.5
    code, out, _ = run_cli(["analyze", str(run_path), "--alpha", "3"], capsys)
    assert code == 0
    assert json.loads(out)["alpha"] == 3.0


def test_trace_csv_export(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert (
        cli.main(
            [
                "search",
                "--delta0", "0.5",
                "--delta-min", "1e-2",
                "--rng-seed", "5",
                "--out", str(run_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(["trace-csv", str(run_path), "--out", str(out_csv)], capsys)
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "step,delta,ss_residual,monogamy_residual,states_since_accept"
    archive = store.load_run(run_path)
    assert len(rows) == len(archive.record.trace) + 1
    first = rows[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.5
    assert first[4] == "0"


def test_search_rejects_non_finite_delta(capsys):
    # used to run on and die inside the SVD with "SVD did not converge"
    code, out, err = run_cli(["search", "--delta0", "inf", "--delta-min", "1e-2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: delta0 must be finite")


@pytest.mark.parametrize("check", ["monogamy-r2", "sum-inequality"])
def test_verify_rejects_zero_samples(check, capsys):
    # used to fail with "cannot reshape array of size 0" and
    # "cannot serialize non-finite float inf"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", check, "--samples", "0"])
    assert exc.value.code == 2
    assert "argument --samples: must be >= 1" in capsys.readouterr().err


def test_analyze_archive_uses_stored_layout(tmp_path, capsys):
    layout = measures.PairingLayout(0, 2, 1, 3)
    record = search.minimize_residual(search.SearchConfig(layout=layout, rng=sampler.RngSeed(3)))
    run_path = tmp_path / "run.json"
    archive = store.make_archive(record)
    store.save_run(archive, run_path)
    code, out, _ = run_cli(["analyze", str(run_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    # the canonical layout gives about +0.00888 for this state
    assert record.final_residuals.ss_residual == pytest.approx(-0.01977, abs=1e-5)
    assert doc["ss_residual"] == pytest.approx(record.final_residuals.ss_residual, rel=1e-9)
    assert doc["monogamy_residual"] == pytest.approx(
        record.final_residuals.monogamy_residual, rel=1e-9
    )
    assert doc["pair_entanglements"] == pytest.approx(archive.fingerprint["pair_entanglements"], rel=1e-9)
    assert doc["spectrum_a1a2"] == pytest.approx(archive.fingerprint["spectrum_a1a2"], rel=1e-9)


def test_scan_document_feeds_analyze_and_seed_file(tmp_path, capsys):
    scan_path, run_path = tmp_path / "s.json", tmp_path / "run.json"
    assert cli.main(["scan", "--n", "100", "--out", str(scan_path)]) == 0
    stored = json.loads(scan_path.read_text())
    capsys.readouterr()
    code, out, _ = run_cli(["analyze", str(scan_path)], capsys)
    assert code == 0
    assert json.loads(out)["ss_residual"] == pytest.approx(stored["min_residual"], rel=1e-9)
    argv = ["search", "--seed-file", str(scan_path), "--delta-min", "1e-2", "--out", str(run_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    seed_state = store.load_run(run_path).record.config.seed_state
    np.testing.assert_allclose(seed_state, [complex(*z) for z in stored["argmin_state"]], atol=1e-15)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan"])  # missing --n
    assert exc.value.code == 2
    capsys.readouterr()


def test_string_amplitudes_exit_two(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"state": [["1.0", 0]] + [[0, 0]] * 15}))
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "an amplitude is not a number" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/file.json"], capsys)
    assert code == 2
    assert "error:" in err
