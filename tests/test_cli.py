import json

import numpy as np
import pytest

from qrdr import cli, tfim
from qrdr import dataset as dataset_mod
from qrdr.pca import fit_pca


def run_cli(argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:   # argparse-level rejections
        return exc.code


def read_report(directory, command):
    path = directory / f"report_{command.replace('-', '_')}.json"
    with open(path) as fh:
        return json.load(fh)


def report_bytes(directory, command):
    path = directory / f"report_{command.replace('-', '_')}.json"
    return path.read_bytes()


# ---------------------------------------------------------------------------
# argument handling


def test_requires_subcommand():
    assert run_cli([]) == 1


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["reduce", "--bogus"]) == 1
    capsys.readouterr()


def test_rank_validation(tmp_path, capsys):
    assert run_cli(["reduce", "--r", "0", "--out", tmp_path]) == 1
    assert "r:" in capsys.readouterr().err


def test_folds_validation(tmp_path, capsys):
    assert run_cli(["qsvm", "--folds", "1", "--out", tmp_path]) == 1
    assert "folds:" in capsys.readouterr().err


def test_missing_dataset(tmp_path, capsys):
    assert run_cli(["reduce", "--dataset", tmp_path / "nope.csv",
                    "--out", tmp_path]) == 1
    assert "dataset:" in capsys.readouterr().err


def test_threads_validation(tmp_path, capsys):
    assert run_cli(["verify", "--threads", "0", "--out", tmp_path]) == 1
    assert "threads:" in capsys.readouterr().err


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QRDR_THREADS", "3")
    assert run_cli(["verify", "--out", tmp_path]) == 0
    capsys.readouterr()
    assert read_report(tmp_path, "verify")["config"]["threads"] == 3


def test_threads_env_is_checked_like_the_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QRDR_THREADS", "abc")
    assert run_cli(["verify", "--out", tmp_path]) == 1
    assert "threads:" in capsys.readouterr().err
    assert not list(tmp_path.glob("report_*.json"))


def test_bad_config_json(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run_cli(["reduce", "--config", bad, "--out", tmp_path]) == 1
    assert "config:" in capsys.readouterr().err
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert run_cli(["reduce", "--config", listy, "--out", tmp_path]) == 1
    assert run_cli(["reduce", "--config", tmp_path / "absent.json",
                    "--out", tmp_path]) == 1
    capsys.readouterr()


def test_flag_beats_config_beats_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 8, "c": 0.008}))
    assert run_cli(["reduce", "--config", cfg, "--c", "0.004",
                    "--out", tmp_path]) == 0
    capsys.readouterr()
    echo = read_report(tmp_path, "reduce")["config"]
    assert echo["r"] == 8          # config file over built-in default 16
    assert echo["c"] == 0.004      # flag over config file


def test_config_list_values_and_null(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 8, "c_grid": [0.004, 0.002],
                               "dataset": None}))
    assert run_cli(["sweep-c", "--config", cfg, "--out", tmp_path]) == 0
    capsys.readouterr()
    echo = read_report(tmp_path, "sweep-c")["config"]
    assert echo["c_grid"] == [0.004, 0.002]
    assert echo["dataset"] == str(dataset_mod.sonar_path())   # null: default


def test_config_seeds_list_and_flag_override(tmp_path, tiny_phase_file,
                                             capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [3, 4], "arms": ["mlp"],
                               "epochs": 5, "batch_size": 4}))
    assert run_cli(["qcnn-train", "--config", cfg, "--data", tiny_phase_file,
                    "--r", "4", "--epochs", "1", "--out", tmp_path]) == 0
    capsys.readouterr()
    echo = read_report(tmp_path, "qcnn-train")["config"]
    assert echo["seeds"] == [3, 4] and echo["arms"] == ["mlp"]
    assert echo["epochs"] == 1 and echo["batch_size"] == 4


@pytest.mark.parametrize("command, values, cause", [
    ("reduce", {"rr": 8}, "unrecognized arguments: --rr=8"),
    ("reduce", {"folds": 4}, "unrecognized arguments: --folds=4"),
    ("qcnn-train", {"ep": 3}, "unrecognized arguments: --ep=3"),
    ("qsvm", {"arm": "bogus"}, "invalid choice: 'bogus'"),
    ("reduce", {"r": 8.5}, "invalid int value: '8.5'"),
    ("reduce", {"c": "0.004x"}, "invalid float value"),
    ("qcnn-train", {"arms": ["qcnn", "teleport"]}, "arms:"),
    ("qcnn-train", {"r": 8}, "even reduced register"),
    ("qsvm", {"folds": 1}, "folds:"),
    ("reduce", {"config": "other.json"}, "config:"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command,
                                              values, cause):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert cause in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reduce


def test_reduce_report(tmp_path, capsys):
    assert run_cli(["reduce", "--out", tmp_path]) == 0
    captured = capsys.readouterr()
    assert "report_reduce.json" in captured.err
    report = read_report(tmp_path, "reduce")
    assert report["experiment"] == "reduce"
    m = report["metrics"]
    assert m["rank"] == 16
    assert m["epsilon"] == pytest.approx(1.610626e-05, rel=1e-4)
    assert m["success_probability"] == pytest.approx(0.987413, abs=1e-5)
    assert m["fidelity"] == pytest.approx(1.0 - m["epsilon"])


def test_reduce_runtime_failure_exits_two(tmp_path, capsys):
    assert run_cli(["reduce", "--c", "10", "--out", tmp_path]) == 2
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "qsvm"])
def test_non_finite_dataset_exits_one_without_report(tmp_path, capsys,
                                                     command):
    lines = dataset_mod.sonar_path().read_text().splitlines()
    fields = lines[4].split(",")
    fields[9] = "nan"
    lines[4] = ",".join(fields)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli([command, "--dataset", bad, "--out", out]) == 1
    assert "row 5, column 10: non-finite" in capsys.readouterr().err
    assert not list(out.glob("report_*.json"))


def test_reduce_rerun_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert run_cli(["reduce", "--r", "8", "--c", "0.002", "--out", d]) == 0
    capsys.readouterr()
    assert report_bytes(a, "reduce") == report_bytes(b, "reduce")


# ---------------------------------------------------------------------------
# sweep-c


def test_sweep_c_artifacts(tmp_path, capsys):
    assert run_cli(["sweep-c", "--r", "8", "--c-grid", "0.002,0.004",
                    "--out", tmp_path]) == 0
    capsys.readouterr()
    report = read_report(tmp_path, "sweep-c")
    assert report["artifacts"]["sweep_csv"] == "sweep_c_r8.csv"
    assert (tmp_path / "sweep_c_r8.csv").is_file()
    m = report["metrics"]
    assert m["c_values"] == [0.002, 0.004]
    assert m["loglog_correlation"] == pytest.approx(1.0)
    assert m["degenerate_fit"] is False
    with open(tmp_path / "sweep_c_r8.csv") as fh:
        header = fh.readline().strip()
    assert header == "c,epsilon,fidelity,success_probability"


# ---------------------------------------------------------------------------
# qsvm


def test_qsvm_rerun_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert run_cli(["qsvm", "--folds", "4", "--r", "8", "--out", d]) == 0
    capsys.readouterr()
    assert report_bytes(a, "qsvm") == report_bytes(b, "qsvm")
    report = read_report(a, "qsvm")
    assert set(report["metrics"]) == {"raw", "reduced"}
    assert len(report["metrics"]["raw"]["fold_accuracies"]) == 4


def test_qsvm_single_arm(tmp_path, capsys):
    assert run_cli(["qsvm", "--folds", "4", "--arm", "raw",
                    "--out", tmp_path]) == 0
    capsys.readouterr()
    assert set(read_report(tmp_path, "qsvm")["metrics"]) == {"raw"}


# ---------------------------------------------------------------------------
# tfim-gen


def test_tfim_gen_writes_dataset(tmp_path, capsys):
    assert run_cli(["tfim-gen", "--n-sites", "4", "--count", "8",
                    "--out", tmp_path]) == 0
    capsys.readouterr()
    report = read_report(tmp_path, "tfim-gen")
    assert report["artifacts"]["dataset"] == "tfim_phase.jsonl"
    m = report["metrics"]
    assert m["count"] == 8 and m["n_sites"] == 4
    assert m["paramagnetic"] == m["ferromagnetic"] == 4
    ds = tfim.load_dataset(tmp_path / "tfim_phase.jsonl")
    assert ds.count == 8 and ds.seed == 7


def test_tfim_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert run_cli(["tfim-gen", "--n-sites", "4", "--count", "6",
                        "--out", d]) == 0
    capsys.readouterr()
    assert (a / "tfim_phase.jsonl").read_bytes() == \
        (b / "tfim_phase.jsonl").read_bytes()
    assert report_bytes(a, "tfim-gen") == report_bytes(b, "tfim-gen")


def test_tfim_gen_custom_out_file(tmp_path, capsys):
    target = tmp_path / "phases.jsonl"
    assert run_cli(["tfim-gen", "--n-sites", "2", "--count", "4",
                    "--out-file", target, "--out", tmp_path]) == 0
    capsys.readouterr()
    assert target.is_file()
    assert read_report(tmp_path, "tfim-gen")["artifacts"]["dataset"] == \
        "phases.jsonl"


# ---------------------------------------------------------------------------
# qcnn-train


@pytest.fixture()
def tiny_phase_file(tmp_path):
    path = tmp_path / "phase.jsonl"
    tfim.save_dataset(path, tfim.generate_dataset(n_sites=4, count=8, seed=3))
    return path


def test_qcnn_train_small_run(tmp_path, tiny_phase_file, capsys):
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                    "--arms", "qcnn+qrdr,mlp", "--epochs", "1",
                    "--batch-size", "4", "--out", tmp_path]) == 0
    capsys.readouterr()
    report = read_report(tmp_path, "qcnn-train")
    for tag in ("qcnn_qrdr_s7", "mlp_s7"):
        assert (tmp_path / f"history_{tag}.csv").is_file()
        assert (tmp_path / f"model_{tag}.json").is_file()
    arms = report["metrics"]
    assert set(arms) == {"qcnn+qrdr", "mlp"}
    for arm in arms.values():
        assert 0.0 <= arm["mean_final_test_acc"] <= 1.0
        assert "final_test_acc" in arm["7"]
    with open(tmp_path / "model_qcnn_qrdr_s7.json") as fh:
        ckpt = json.load(fh)
    assert ckpt["kind"] == "qcnn" and ckpt["r"] == 2
    assert len(ckpt["theta"]) == 28


def test_qcnn_train_rerun_byte_identical(tmp_path, tiny_phase_file, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                        "--arms", "qcnn+qrdr", "--epochs", "1",
                        "--batch-size", "4", "--out", d]) == 0
    capsys.readouterr()
    assert report_bytes(a, "qcnn-train") == report_bytes(b, "qcnn-train")
    assert (a / "history_qcnn_qrdr_s7.csv").read_bytes() == \
        (b / "history_qcnn_qrdr_s7.csv").read_bytes()


def test_qcnn_train_threads_do_not_change_results(tmp_path, tiny_phase_file,
                                                  capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d, threads in ((a, 1), (b, 2)):
        assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                        "--arms", "qcnn+qrdr,mlp", "--epochs", "1",
                        "--batch-size", "4", "--threads", threads,
                        "--out", d]) == 0
    capsys.readouterr()
    ra = read_report(a, "qcnn-train")
    rb = read_report(b, "qcnn-train")
    assert ra["metrics"] == rb["metrics"]   # config echo differs, results not


def test_qcnn_train_bad_arms(tmp_path, capsys):
    assert run_cli(["qcnn-train", "--arms", "qcnn,teleport",
                    "--out", tmp_path]) == 1
    assert "arms:" in capsys.readouterr().err


def test_qcnn_train_odd_reduced_register(tmp_path, tiny_phase_file, capsys):
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "8",
                    "--arms", "qcnn+qrdr", "--epochs", "1",
                    "--batch-size", "4", "--out", tmp_path]) == 1
    assert "even reduced register" in capsys.readouterr().err


def test_qcnn_train_checks_register_before_generating(tmp_path, monkeypatch,
                                                      capsys):
    def generate(*args, **kwargs):
        raise AssertionError("dataset generated before the flags were checked")

    monkeypatch.setattr(tfim, "generate_dataset", generate)
    assert run_cli(["qcnn-train", "--r", "8", "--out", tmp_path]) == 1
    assert "even reduced register" in capsys.readouterr().err


def test_qcnn_train_non_finite_data_exits_one_without_report(
        tmp_path, tiny_phase_file, capsys):
    lines = tiny_phase_file.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["amplitudes"][4] = float("nan")
    lines[3] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli(["qcnn-train", "--data", bad, "--r", "4", "--arms",
                    "qcnn+qrdr,mlp", "--epochs", "1", "--batch-size", "4",
                    "--out", out]) == 1
    assert "data: record 3, amplitude 5: non-finite" in capsys.readouterr().err
    assert not list(out.glob("report_*.json"))


def test_qcnn_train_reduces_at_an_admissible_rank(tmp_path, capsys):
    # 6-site ground states have numerical rank 6; their top-16 boundary is
    # degenerate, so the reduction must target fewer levels of the register
    phase = tmp_path / "phase.jsonl"
    ds = tfim.generate_dataset(n_sites=6, count=40, seed=3)
    tfim.save_dataset(phase, ds)
    assert fit_pca(ds.features, 16).boundary_degenerate
    assert run_cli(["qcnn-train", "--data", phase, "--r", "16",
                    "--arms", "qcnn+qrdr,mlp+dr", "--epochs", "1",
                    "--batch-size", "8", "--out", tmp_path]) == 0
    capsys.readouterr()
    metrics = read_report(tmp_path, "qcnn-train")["metrics"]
    red = metrics["qcnn+qrdr"]["reduction"]
    assert metrics["mlp+dr"]["reduction"] == red
    assert red["rank"] == 6
    model = fit_pca(ds.features, red["rank"])
    assert not model.boundary_degenerate
    assert red["delta_min"] == pytest.approx(model.delta_min)
    assert red["c"] == pytest.approx(model.delta_min / 100.0)
    assert red["epsilon"] <= 1e-8
    with open(tmp_path / "model_qcnn_qrdr_s7.json") as fh:
        assert json.load(fh)["r"] == 4


def test_qcnn_train_multi_seed_mean(tmp_path, tiny_phase_file, capsys):
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                    "--arms", "mlp", "--epochs", "1", "--batch-size", "4",
                    "--seeds", "3,4", "--out", tmp_path]) == 0
    capsys.readouterr()
    arm = read_report(tmp_path, "qcnn-train")["metrics"]["mlp"]
    mean = np.mean([arm["3"]["final_test_acc"], arm["4"]["final_test_acc"]])
    assert arm["mean_final_test_acc"] == pytest.approx(mean)
    assert (tmp_path / "history_mlp_s3.csv").is_file()
    assert (tmp_path / "history_mlp_s4.csv").is_file()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(tmp_path, capsys):
    assert run_cli(["verify", "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    report = read_report(tmp_path, "verify")
    assert report["metrics"]["failed"] == 0
    assert report["metrics"]["checks"] >= 10
