import json
import shutil
import zlib

import numpy as np
import pytest

from oracles import read_vector
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
    # jobs run one at a time: the flag takes only 1
    out = tmp_path / "out"
    for threads in ("0", "2"):
        assert run_cli(["verify", "--threads", threads, "--out", out]) == 1
        assert f"argument --threads: invalid choice: {threads}" in \
            capsys.readouterr().err
    assert not out.exists()


_SOME_FILE = str(dataset_mod.sonar_path())   # parse only: any file will do


@pytest.mark.parametrize("argv, cause", [
    (["reduce", "--c", "nan"], "argument --c: 'nan': must be finite"),
    (["reduce", "--c", "inf"], "argument --c: 'inf': must be finite"),
    (["sweep-c", "--c-grid", "nan,0.004"],
     "argument --c-grid: 'nan': must be finite"),
    (["tfim-gen", "--ratio-range", "0.2,inf"],
     "argument --ratio-range: 'inf': must be finite"),
    (["qcnn-train", "--lr", "-1"],
     "argument --lr: '-1': must be finite and > 0"),
    (["qcnn-train", "--lr", "nan"],
     "argument --lr: 'nan': must be finite and > 0"),
    (["qcnn-train", "--arms", ","], "argument --arms: ',': empty list"),
    (["qcnn-train", "--seeds", ","], "argument --seeds: ',': empty list"),
    (["qsvm", "--gammas", ","], "argument --gammas: ',': empty list"),
    (["tfim-gen", "--count", "0"],
     "argument --count: '0': must be positive and even"),
    (["tfim-gen", "--count", "7"],
     "argument --count: '7': must be positive and even"),
    (["tfim-gen", "--n-sites", "1"], "argument --n-sites: '1': must be >= 2"),
    (["qcnn-train", "--epochs", "0"], "argument --epochs: '0': must be >= 1"),
    (["qcnn-train", "--batch-size", "0"],
     "argument --batch-size: '0': must be >= 1"),
    (["qsvm", "--gammas", "-1"],
     "argument --gammas: '-1': must be finite and > 0"),
    (["qsvm", "--gammas", "1,0"],
     "argument --gammas: '0': must be finite and > 0"),
    (["tfim-gen", "--ratio-range", "1.1,1.8"],
     "ratio_range, exclusion: need 0 < ratio_range[0] < exclusion[0] < 1 < "
     "exclusion[1] < ratio_range[1], got [1.1, 1.8] and [0.95, 1.05]"),
    (["tfim-gen", "--exclusion", "1.2,1.4"],
     "got [0.2, 1.8] and [1.2, 1.4]"),
    (["tfim-gen", "--ratio-range=-0.5,1.8"],
     "got [-0.5, 1.8] and [0.95, 1.05]"),
    (["tfim-gen", "--ratio-range", "0.2"],
     "argument --ratio-range: '0.2': need two values lo,hi"),
    (["tfim-gen", "--exclusion", "0.9,1.1,1.2"],
     "argument --exclusion: '0.9,1.1,1.2': need two values lo,hi"),
    (["qsvm", "--seed", "-1"], "argument --seed: '-1': must be >= 0"),
    (["tfim-gen", "--seed", "-1"], "argument --seed: '-1': must be >= 0"),
    (["qcnn-train", "--seed", "-1"], "argument --seed: '-1': must be >= 0"),
    (["qcnn-train", "--seeds", "-3"], "argument --seeds: '-3': must be >= 0"),
    (["qcnn-train", "--seeds", "7,7"],
     "argument --seeds: '7,7': an item is listed twice"),
    (["qcnn-train", "--arms", "mlp,mlp"],
     "argument --arms: 'mlp,mlp': an item is listed twice"),
    (["sweep-c", "--c-grid", "0.004,0.004"],
     "argument --c-grid: '0.004,0.004': an item is listed twice"),
    (["sweep-c", "--c-grid", "0.004,0.002,0.004"],
     "argument --c-grid: '0.004,0.002,0.004': an item is listed twice"),
    (["qsvm", "--gammas", "1,1"],
     "argument --gammas: '1,1': an item is listed twice"),
    (["qsvm", "--gammas", "1,2,1.0"],
     "argument --gammas: '1,2,1.0': an item is listed twice"),
    (["qcnn-train", "--r", "1"],
     "argument --r: '1': does not map to an even reduced register"),
    (["reduce", "--folds", "4"], "unrecognized arguments: --folds 4"),
    (["tfim-gen", "--j", "2"], "unrecognized arguments: --j 2"),
    (["tfim-gen", "--out-file", "x.jsonl"],
     "unrecognized arguments: --out-file x.jsonl"),
    (["qcnn-train", "--data", _SOME_FILE, "--ep", "3"],
     "unrecognized arguments: --ep 3"),
    (["qsvm", "--arm", "bogus"], "argument --arm: invalid choice: 'bogus'"),
    (["reduce", "--r", "8.5"], "argument --r: invalid int value: '8.5'"),
    (["reduce", "--c", "0.004x"],
     "argument --c: invalid float value: '0.004x'"),
    (["qcnn-train", "--data", _SOME_FILE, "--arms", "qcnn,teleport"],
     "argument --arms: 'teleport': not one of"),
    (["qsvm", "--dataset", "absent.csv"],
     "argument --dataset: 'absent.csv': file not found"),
    (["qcnn-train", "--data", "absent.jsonl"],
     "argument --data: 'absent.jsonl': file not found"),
    (["qcnn-train"], "the following arguments are required: --data"),
], ids=["reduce-c-nan", "reduce-c-inf", "sweep-c-grid-nan", "tfim-ratio-inf",
        "qcnn-lr-negative", "qcnn-lr-nan", "qcnn-arms-empty",
        "qcnn-seeds-empty", "qsvm-gammas-empty", "tfim-count-zero",
        "tfim-count-odd", "tfim-n-sites-one", "qcnn-epochs-zero",
        "qcnn-batch-size-zero", "qsvm-gammas-negative", "qsvm-gammas-zero",
        "tfim-ratio-range-above-one", "tfim-exclusion-above-one",
        "tfim-ratio-range-negative", "tfim-ratio-range-one-item",
        "tfim-exclusion-three-items", "qsvm-seed-negative",
        "tfim-seed-negative", "qcnn-seed-negative", "qcnn-seeds-negative",
        "qcnn-seeds-repeated", "qcnn-arms-repeated", "sweep-c-grid-repeated",
        "sweep-c-grid-repeated-apart", "qsvm-gammas-repeated",
        "qsvm-gammas-repeated-after-conversion", "qcnn-r-one",
        "reduce-folds-unknown", "tfim-j-unknown", "tfim-out-file-unknown",
        "qcnn-abbreviated", "qsvm-arm-bogus", "reduce-r-not-int",
        "reduce-c-not-float", "qcnn-arms-unknown", "qsvm-dataset-absent",
        "qcnn-data-absent", "qcnn-no-data"])
def test_bad_flag_values_exit_one_before_any_work(tmp_path, monkeypatch,
                                                  capsys, argv, cause):
    def generate(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(tfim, "generate_dataset", generate)
    monkeypatch.setattr(tfim, "load_dataset", generate)
    monkeypatch.setattr(dataset_mod, "load_sonar", generate)
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", out]) == 1
    assert cause in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, lowest, parsed, below", [
    (["reduce"], "--seed", "0", 0, "-1"),
    (["reduce"], "--r", "1", 1, "0"),
    (["sweep-c"], "--r", "1", 1, "0"),
    (["qsvm"], "--r", "1", 1, "0"),
    (["qsvm"], "--folds", "2", 2, "1"),
    (["qsvm"], "--gammas", "5e-324", [5e-324], "0"),
    (["tfim-gen"], "--n-sites", "2", 2, "1"),
    (["tfim-gen"], "--count", "2", 2, "1"),
    (["qcnn-train", "--data", _SOME_FILE], "--r", "4", 4, "2"),
    (["qcnn-train", "--data", _SOME_FILE], "--r", "16", 16, "8"),
    (["qcnn-train", "--data", _SOME_FILE], "--epochs", "1", 1, "0"),
    (["qcnn-train", "--data", _SOME_FILE], "--batch-size", "1", 1, "0"),
    (["qcnn-train", "--data", _SOME_FILE], "--seeds", "0", [0], "-1"),
    (["qcnn-train", "--data", _SOME_FILE], "--lr", "5e-324", 5e-324, "0"),
], ids=["seed", "reduce-r", "sweep-c-r", "qsvm-r", "folds", "gammas",
        "n-sites", "count", "qcnn-r-4", "qcnn-r-16", "epochs",
        "batch-size", "seeds", "lr"])
def test_each_bound_is_exact(capsys, argv, flag, lowest, parsed, below):
    # the lowest accepted value parses; the next value down exits 1
    ns = cli.parse_config([*argv, flag, lowest])
    assert getattr(ns, flag[2:].replace("-", "_")) == parsed
    with pytest.raises(SystemExit) as exc:
        cli.parse_config([*argv, flag, below])
    assert exc.value.code == 1
    assert f"argument {flag}: '{below}': " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reduce"], ["tfim-gen", "--count", "4", "--n-sites", "4"],
    ["qsvm", "--folds", "4", "--r", "8"], ["verify"],
], ids=["reduce", "tfim-gen", "qsvm", "verify"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_at_or_under_a_file_exits_one_before_any_work(
        tmp_path, monkeypatch, capsys, argv, under):
    # its own test: the bad-flag table appends an --out of its own
    from qrdr import verify

    def work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(tfim, "generate_dataset", work)
    monkeypatch.setattr(dataset_mod, "load_sonar", work)
    monkeypatch.setattr(verify, "run_invariants", work)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if under else taken
    assert run_cli([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert f"argument --out: '{out}': must be a directory" in captured.err
    assert captured.out == ""
    assert taken.read_text() == "kept\n"


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
    out = tmp_path / "out"
    assert run_cli(["reduce", "--c", "10", "--out", out]) == 2
    assert "failed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_failing_in_its_metrics_leaves_no_csv(tmp_path, monkeypatch,
                                                    capsys):
    from qrdr.resonance import SweepResult

    def fail(self):
        raise ValueError("no error law to fit")

    monkeypatch.setattr(SweepResult, "to_metrics", fail)
    out = tmp_path / "out"
    assert run_cli(["sweep-c", "--r", "8", "--c-grid", "0.002,0.004",
                    "--out", out]) == 2
    assert "sweep-c failed: no error law to fit" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_metric_exits_two_without_report(tmp_path, monkeypatch,
                                                    capsys):
    # a report must be JSON: NaN is not, so the run fails before writing
    from qrdr.engine import QrdrOutcome

    to_metrics = QrdrOutcome.to_metrics
    monkeypatch.setattr(QrdrOutcome, "to_metrics",
                        lambda self: {**to_metrics(self), "epsilon": np.nan})
    out = tmp_path / "out"
    assert run_cli(["reduce", "--out", out]) == 2
    assert "reduce failed: Out of range float values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reduce"], ["sweep-c"], ["qsvm", "--arm", "reduced"], ["qsvm"],
], ids=["reduce", "sweep-c", "qsvm-reduced", "qsvm-both"])
def test_rank_above_feature_count_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli([*argv, "--r", "100", "--out", out]) == 1
    assert "r: rank 100 exceeds 60 features" in capsys.readouterr().err
    assert not out.exists()


def test_qsvm_raw_arm_ignores_rank(tmp_path, capsys):
    assert run_cli(["qsvm", "--arm", "raw", "--r", "100", "--folds", "2",
                    "--out", tmp_path]) == 0
    assert list(read_report(tmp_path, "qsvm")["metrics"]) == ["raw"]


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
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["reduce", "--r", "8", "--c", "0.002"], "--dataset"),
    (["qcnn-train", "--r", "4", "--arms", "qcnn+qrdr,mlp", "--epochs", "1",
      "--batch-size", "4"], "--data"),
], ids=["reduce", "qcnn-train"])
def test_reports_name_input_files_by_content(tmp_path, tiny_phase_file,
                                             capsys, argv, flag):
    # the input file itself (for reduce, the bundled default) and two copies
    # at different paths, each run writing to its own --out, give the same
    # report bytes
    source = (dataset_mod.sonar_path() if flag == "--dataset"
              else tiny_phase_file)
    inputs = [[] if flag == "--dataset" else [flag, source]]
    for where in ("a", "b/c"):
        copy = tmp_path / where / source.name
        copy.parent.mkdir(parents=True)
        shutil.copyfile(source, copy)
        inputs.append([flag, copy])
    reports = []
    for i, extra in enumerate(inputs):
        out = tmp_path / "out" / str(i)
        assert run_cli([*argv, *extra, "--out", out]) == 0
        reports.append(report_bytes(out, argv[0]))
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]
    assert str(tmp_path) not in reports[0].decode()
    data = source.read_bytes()
    assert json.loads(reports[0])["config"][flag[2:]] == {
        "name": source.name, "bytes": len(data),
        "crc32": f"{zlib.crc32(data):08x}"}


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
    assert report["config"]["r"] == 8
    assert report["config"]["c_grid"] == [0.002, 0.004]
    assert report["artifacts"]["sweep_csv"] == "sweep_c_r8.csv"
    assert (tmp_path / "sweep_c_r8.csv").is_file()
    m = report["metrics"]
    assert m["c_values"] == [0.002, 0.004]
    assert m["loglog_correlation"] == pytest.approx(1.0)
    assert m["degenerate_fit"] is False
    with open(tmp_path / "sweep_c_r8.csv") as fh:
        header = fh.readline().strip()
    assert header == "c,epsilon,fidelity,success_probability"


def test_sweep_c_reports_one_point_with_null_fit_fields(tmp_path, capsys):
    assert run_cli(["sweep-c", "--r", "8", "--c-grid", "0.004",
                    "--out", tmp_path]) == 0
    capsys.readouterr()
    m = read_report(tmp_path, "sweep-c")["metrics"]
    assert m["c_values"] == [0.004] and len(m["epsilon"]) == 1
    assert m["degenerate_fit"] is True
    for key in ("quadratic_correlation", "loglog_correlation",
                "power_law_slope", "power_law_intercept"):
        assert m[key] is None
    with open(tmp_path / "sweep_c_r8.csv") as fh:
        assert len(fh.read().splitlines()) == 2


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


@pytest.mark.parametrize("command, argv, cause", [
    ("qsvm", ["--folds", "300"], "folds: 300 folds exceed the 208 samples"),
    ("qsvm", ["--folds", "4", "--arm", "raw", "--dataset", "<4 sonar rows>"],
     "folds: 4 folds leave 3 training samples, fewer than the 4 inner folds"),
    ("qcnn-train", ["--batch-size", "1000"],
     "batch_size: 1000 exceeds the 7 training rows"),
    ("qcnn-train", ["--r", "64", "--batch-size", "4"],
     "r: rank 64 exceeds the 16 amplitudes of the data"),
], ids=["qsvm-folds-above-rows", "qsvm-folds-below-inner-folds",
        "qcnn-batch-size-above-train-rows", "qcnn-r-above-amplitudes"])
def test_flags_bad_against_the_data_exit_one_before_any_work(
        tmp_path, tiny_phase_file, monkeypatch, capsys, command, argv, cause):
    from qrdr import qcnn, svm

    def work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for module, name in ((svm, "cross_validate"), (svm, "reduced_features"),
                         (cli, "reduce_rows"), (qcnn, "train"),
                         (qcnn, "mlp_baseline")):
        monkeypatch.setattr(module, name, work)
    if command == "qcnn-train":
        argv = ["--data", tiny_phase_file, "--r", "4", *argv]
    if "<4 sonar rows>" in argv:
        rows = dataset_mod.sonar_path().read_text().splitlines()[:4]
        (tmp_path / "sonar4.csv").write_text("\n".join(rows) + "\n")
        argv = [tmp_path / "sonar4.csv" if a == "<4 sonar rows>" else a
                for a in argv]
    out = tmp_path / "out"
    assert run_cli([command, *argv, "--out", out]) == 1
    assert cause in capsys.readouterr().err
    assert not out.exists()


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
    assert read_vector(ckpt["theta"]).shape == (28,)
    assert read_vector(ckpt["readout"]).shape == (2,)


def _recorded_mlp(monkeypatch, final=None):
    # records each MLP result; with ``final``, its final parameters are
    # replaced by final(parameters)
    from qrdr import qcnn

    results = []
    train_mlp = qcnn.mlp_baseline

    def recorded(model, split, cfg):
        results.append(train_mlp(model, split, cfg))
        if final is not None:
            results[-1].final_params = final(results[-1].final_params)
        return results[-1]

    monkeypatch.setattr(qcnn, "mlp_baseline", recorded)
    return results


def test_mlp_checkpoint_round_trips_final_params_bit_for_bit(
        tmp_path, tiny_phase_file, monkeypatch, capsys):
    results = _recorded_mlp(monkeypatch)
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                    "--arms", "mlp", "--epochs", "1", "--batch-size", "4",
                    "--out", tmp_path]) == 0
    capsys.readouterr()
    ckpt = json.loads((tmp_path / "model_mlp_s7.json").read_text())
    assert ckpt["kind"] == "mlp" and ckpt["sizes"] == [16, 128, 128, 128, 1]
    params = read_vector(ckpt["params"])
    assert params.dtype == np.float64
    assert params.tobytes() == results[0].final_params.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_checkpoint_fails_the_run(tmp_path, tiny_phase_file,
                                             monkeypatch, capsys, bad):
    # a diverged arm writes no checkpoint and no report: the encoded vector
    # would hide the NaN that a JSON number cannot hold
    def diverged(params):
        params = params.copy()
        params[3] = bad
        return params

    _recorded_mlp(monkeypatch, diverged)
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                    "--arms", "qcnn+qrdr,mlp", "--epochs", "1",
                    "--batch-size", "4", "--out", tmp_path]) == 2
    assert "parameter 4: non-finite value" in capsys.readouterr().err
    assert not list(tmp_path.glob("model_*.json"))
    assert not (tmp_path / "report_qcnn_train.json").exists()


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


def test_qcnn_train_echoes_seeds_not_seed(tmp_path, tiny_phase_file, capsys):
    # --seed only sets the default of --seeds, so the report echoes seeds
    for extra, seeds in (([], [7]),
                         (["--seed", "7", "--seeds", "3,4"], [3, 4])):
        out = tmp_path / f"out{len(seeds)}"
        assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                        "--arms", "mlp", "--epochs", "1", "--batch-size", "4",
                        *extra, "--out", out]) == 0
        echo = read_report(out, "qcnn-train")["config"]
        assert echo["seeds"] == seeds and "seed" not in echo
    capsys.readouterr()


def test_qcnn_train_bad_arms(tmp_path, capsys):
    assert run_cli(["qcnn-train", "--arms", "qcnn,teleport",
                    "--out", tmp_path]) == 1
    assert "arms:" in capsys.readouterr().err


def test_qcnn_train_odd_reduced_register(tmp_path, tiny_phase_file, capsys):
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "8",
                    "--arms", "qcnn+qrdr", "--epochs", "1",
                    "--batch-size", "4", "--out", tmp_path]) == 1
    assert "even reduced register" in capsys.readouterr().err


def test_qcnn_train_checks_register_before_generating(tmp_path, capsys):
    # a bad --r names itself before the missing --data does
    assert run_cli(["qcnn-train", "--r", "8", "--out", tmp_path]) == 1
    assert "even reduced register" in capsys.readouterr().err


@pytest.mark.parametrize("arms, code", [
    ("mlp,mlp+dr,qcnn+qrdr", 0), ("qcnn", 1)])
def test_qcnn_train_needs_an_even_register_only_for_the_raw_qcnn(
        tmp_path, capsys, arms, code):
    # the reduced QCNN reads the even log2(--r) register, whatever the sites
    phase = tmp_path / "phase5.jsonl"
    tfim.save_dataset(phase, tfim.generate_dataset(n_sites=5, count=10, seed=3))
    out = tmp_path / "out"
    assert run_cli(["qcnn-train", "--data", phase, "--r", "4", "--arms", arms,
                    "--epochs", "1", "--batch-size", "4", "--out", out]) == code
    err = capsys.readouterr().err
    if code:
        assert "data: odd register of 5 qubits unsupported" in err
        assert not out.exists()
    else:
        assert read_report(out, "qcnn-train")["metrics"]["qcnn+qrdr"][
            "reduction"]["rank"] == 4


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
    assert not out.exists()


@pytest.mark.parametrize("edit, cause", [
    (lambda rec: rec.update(label=0), "data: record 3: label 0 is not +1/-1"),
    (lambda rec: rec.pop("label"), "data: record 3: missing field 'label'"),
], ids=["label-0", "no-label"])
def test_qcnn_train_bad_record_exits_one_without_report(
        tmp_path, tiny_phase_file, capsys, edit, cause):
    lines = tiny_phase_file.read_text().splitlines()
    rec = json.loads(lines[3])
    edit(rec)
    lines[3] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli(["qcnn-train", "--data", bad, "--r", "4", "--arms", "mlp",
                    "--epochs", "1", "--batch-size", "4", "--out", out]) == 1
    assert cause in capsys.readouterr().err
    assert not out.exists()


def test_qcnn_train_truncated_data_exits_one_without_report(
        tmp_path, tiny_phase_file, capsys):
    # records are sorted by ratio, so a cut file would train on one phase
    # more than the other
    lines = tiny_phase_file.read_text().splitlines()
    bad = tmp_path / "cut.jsonl"
    bad.write_text("\n".join(lines[:7]) + "\n")
    out = tmp_path / "out"
    assert run_cli(["qcnn-train", "--data", bad, "--r", "4", "--arms", "mlp",
                    "--epochs", "1", "--batch-size", "4", "--out", out]) == 1
    assert "header count 8 but 6 records" in capsys.readouterr().err
    assert not out.exists()


def test_qcnn_train_has_no_gradient_flag(tmp_path, tiny_phase_file, capsys):
    # training has one gradient path; finite differences are only reachable
    # through qcnn.TrainConfig, as the reference of the checks
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                    "--arms", "qcnn", "--epochs", "1", "--batch-size", "4",
                    "--gradient", "fd", "--out", tmp_path]) == 1
    assert "unrecognized arguments: --gradient fd" in capsys.readouterr().err
    assert not list(tmp_path.glob("report_*.json"))


def test_qcnn_train_reduces_at_an_admissible_rank(tmp_path, capsys):
    # 6-site ground states reduce at rank 6: delta_min(7) lies below the gap
    # floor, and their top-16 boundary is degenerate, so the reduction must
    # target fewer levels of the register
    phase = tmp_path / "phase.jsonl"
    ds = tfim.generate_dataset(n_sites=6, count=40, seed=3)
    tfim.save_dataset(phase, ds)
    model = fit_pca(ds.features)
    assert model.boundary_degenerate(16)
    assert run_cli(["qcnn-train", "--data", phase, "--r", "16",
                    "--arms", "qcnn+qrdr,mlp+dr", "--epochs", "1",
                    "--batch-size", "8", "--out", tmp_path]) == 0
    capsys.readouterr()
    metrics = read_report(tmp_path, "qcnn-train")["metrics"]
    red = metrics["qcnn+qrdr"]["reduction"]
    assert metrics["mlp+dr"]["reduction"] == red
    assert red["rank"] == 6
    assert not model.boundary_degenerate(red["rank"])
    assert red["delta_min"] == pytest.approx(model.delta_min(red["rank"]))
    # the spectral gap, far below the probe gap 2^-4, sets the coupling
    assert red["c"] == pytest.approx(model.delta_min(red["rank"]) / 100.0)
    assert red["epsilon"] <= 1e-8
    with open(tmp_path / "model_qcnn_qrdr_s7.json") as fh:
        assert json.load(fh)["r"] == 4


def test_qcnn_train_multi_seed_mean(tmp_path, tiny_phase_file, monkeypatch,
                                   capsys):
    from qrdr import qcnn

    calls = []
    initial = qcnn.MlpModel.initial

    def counted(n_inputs, seed):
        calls.append((n_inputs, seed))
        return initial(n_inputs, seed)

    monkeypatch.setattr(qcnn.MlpModel, "initial", staticmethod(counted))
    assert run_cli(["qcnn-train", "--data", tiny_phase_file, "--r", "4",
                    "--arms", "mlp", "--epochs", "1", "--batch-size", "4",
                    "--seeds", "3,4", "--out", tmp_path]) == 0
    capsys.readouterr()
    arm = read_report(tmp_path, "qcnn-train")["metrics"]["mlp"]
    mean = np.mean([arm["3"]["final_test_acc"], arm["4"]["final_test_acc"]])
    assert arm["mean_final_test_acc"] == pytest.approx(mean)
    assert (tmp_path / "history_mlp_s3.csv").is_file()
    assert (tmp_path / "history_mlp_s4.csv").is_file()
    assert calls == [(16, 3), (16, 4)]   # one model per job, trained as built


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(tmp_path, capsys):
    assert run_cli(["verify", "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    report = read_report(tmp_path, "verify")
    assert report["metrics"]["failed"] == 0
    assert report["metrics"]["checks"] == 9
    results = report["metrics"]["results"]
    assert list(results) == sorted([
        "kron-associativity", "spectral-evolution-unitarity",
        "pca-eigensystem-reconstruction", "engine-path-equivalence",
        "low-rank-lossless-reduction", "svm-separable-exactness",
        "tfim-z2-symmetry", "gradient-method-agreement",
        "split-partition-determinism"])
    assert all(r == {"passed": True, "detail": ""} for r in results.values())


def test_verify_failure_writes_report_then_exits_two(tmp_path, monkeypatch,
                                                     capsys):
    from qrdr import verify

    def broken():
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(verify, "CHECKS",
                        [*verify.CHECKS[:2], ("broken-check", broken)])
    assert run_cli(["verify", "--out", tmp_path]) == 2
    captured = capsys.readouterr()
    assert "FAIL  broken-check  (deliberately broken)" in captured.out
    assert "verify failed: 1 invariant check(s) failed" in captured.err
    metrics = read_report(tmp_path, "verify")["metrics"]
    assert (metrics["checks"], metrics["failed"]) == (3, 1)
    assert metrics["results"]["broken-check"] == {
        "passed": False, "detail": "deliberately broken"}
    assert metrics["results"]["kron-associativity"]["passed"]


def test_verify_z2_check_reads_the_shipped_solver(monkeypatch):
    from qrdr import verify

    solve = tfim.ground_state

    def broken(n_sites, J, h):
        # the exact ground state with its parity broken in the last digit
        gs = solve(n_sites, J, h)
        gs.amplitudes[0] *= 1 + 1e-15
        return gs

    monkeypatch.setattr(tfim, "ground_state", broken)
    results = {name: (ok, detail)
               for name, ok, detail in verify.run_invariants()}
    assert results["tfim-z2-symmetry"] == (
        False, "ground state breaks the Z2 symmetry")


_BROKEN_Z2_UNDER_O = """
from qrdr import tfim, verify

solve = tfim.ground_state

def broken(n_sites, J, h):
    gs = solve(n_sites, J, h)
    gs.amplitudes[0] *= 1 + 1e-15
    return gs

tfim.ground_state = broken
results = {name: ok for name, ok, _ in verify.run_invariants()}
print(__debug__, results["tfim-z2-symmetry"])
"""


def _python(*args, **env):
    # a fresh interpreter that imports this package, with ``env`` added to
    # its environment
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qrdr
    src = str(Path(qrdr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, **env, "PYTHONPATH": path})


def test_verify_checks_hold_under_python_optimise():
    # python -O strips assert statements; the checks must still fail
    proc = _python("-O", "-c", _BROKEN_Z2_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


_SONAR_STEPS = """
import sys
from qrdr import cli

for argv in (["reduce", "--r", "16", "--c", "0.004"], ["sweep-c", "--r", "16"],
             ["qsvm", "--folds", "8", "--arm", "both", "--r", "16"]):
    if cli.main([*argv, "--out", sys.argv[1]]):
        sys.exit(1)
"""


def test_sonar_outputs_are_the_same_at_one_and_two_blas_threads(tmp_path):
    # the byte-identity claim holds across BLAS thread counts for the sonar
    # steps; qcnn-train's is not covered (README "Reproducibility")
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = _python("-c", _SONAR_STEPS, str(out),
                       OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(trees[0]) == ["report_qsvm.json", "report_reduce.json",
                                "report_sweep_c.json", "sweep_c_r16.csv"]
    assert trees[1] == trees[0]


def test_cli_import_loads_no_thread_pool():
    # jobs run one at a time, so no subcommand pays for concurrent.futures
    proc = _python("-c", "import sys, qrdr.cli; "
                         "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_package_import_loads_no_submodule():
    # the package root re-exports nothing; each caller imports its module
    proc = _python("-c", "import sys, qrdr; "
                         "print([m for m in sys.modules if "
                         "m.startswith('qrdr.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_package_has_no_assert_statements():
    # the package's checks must not depend on assert, which python -O strips
    import ast
    from pathlib import Path

    import qrdr
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(qrdr.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
