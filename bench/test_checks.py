"""Each output check of the benchmark passes on the program's real output
and fails once that output is corrupted.

Run from the root of the checkout (about 30 s, most of it qcnn-train):

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import R_SWEEP, cli_steps  # noqa: E402

from qrdr import cli, svm  # noqa: E402
from qrdr.dataset import holdout_split, kfold_split  # noqa: E402

SEED = 3


def _run(workload, out, data=None):
    for _, argv, _ in cli_steps(workload, SEED, out, data):
        assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def sonar_xy():
    return checks.read_sonar_csv(ROOT / "src" / "qrdr" / "data" / "sonar.all-data")


@pytest.fixture(scope="module")
def sonar_out(tmp_path_factory, sonar_xy):
    out = tmp_path_factory.mktemp("sonar")
    _run("sonar", out)
    X, y = sonar_xy
    res = svm.r_sweep(X, y, seed=SEED, **R_SWEEP)
    (out / "r_sweep").mkdir()
    (out / "r_sweep" / "r_sweep.json").write_text(json.dumps(res.to_metrics()))
    return out


@pytest.fixture(scope="module")
def tfim_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("tfim")
    _run("tfim-gen", out)
    return out


@pytest.fixture(scope="module")
def qcnn_out(tmp_path_factory, tfim_out):
    out = tmp_path_factory.mktemp("qcnn")
    data = tfim_out / "tfim_gen" / "tfim_phase.jsonl"
    _run("qcnn-train", out, data)
    return out, data


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_json(path: Path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_csv(path: Path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _sonar_errors(out, sonar_xy):
    X, y = sonar_xy
    return checks.check_sonar(out, X, y, SEED, kfold_split, holdout_split)


def test_sonar_passes(sonar_out, sonar_xy):
    assert _sonar_errors(sonar_out, sonar_xy) == []


def _double_reduce_epsilon(out):
    def edit(r):
        r["metrics"]["epsilon"] *= 2.0
    _edit_json(out / "reduce" / "report_reduce.json", edit)


def _shift_success_probability(out):
    def edit(r):
        r["metrics"]["success_probability"] -= 0.05
    _edit_json(out / "reduce" / "report_reduce.json", edit)


def _flip_fold_prediction(out):
    def edit(r):
        r["metrics"]["reduced"]["fold_accuracies"][3] += 1.0 / 26.0
    _edit_json(out / "qsvm" / "report_qsvm.json", edit)


def _change_gamma(out):
    def edit(r):
        gammas = r["metrics"]["raw"]["chosen_gammas"]
        gammas[0] = 16.0 if gammas[0] != 16.0 else 0.5
    _edit_json(out / "qsvm" / "report_qsvm.json", edit)


def _bend_sweep(out):
    # c^3 instead of c^2 across the R = 8 sweep
    def edit(rows):
        for row in rows:
            row["epsilon"] = repr(float(row["epsilon"]) * float(row["c"]) / 0.004)
    _edit_csv(out / "sweep_r8" / "sweep_c_r8.csv", edit)


def _flip_rsweep_prediction(out):
    def edit(r):
        r["rep_accuracies"][1][5] -= 1.0 / 20.0
    _edit_json(out / "r_sweep" / "r_sweep.json", edit)


@pytest.mark.parametrize("corrupt", [
    _double_reduce_epsilon, _shift_success_probability, _flip_fold_prediction,
    _change_gamma, _bend_sweep, _flip_rsweep_prediction,
])
def test_sonar_corruption_fails(sonar_out, sonar_xy, tmp_path, corrupt):
    out = _copy(sonar_out, tmp_path)
    corrupt(out)
    assert _sonar_errors(out, sonar_xy)


def test_tfim_passes(tfim_out):
    assert checks.check_tfim(tfim_out) == []


def _rewrite_records(out, edit):
    path = out / "tfim_gen" / "tfim_phase.jsonl"
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    edit(records)
    path.write_text("\n".join([lines[0]] + [json.dumps(r) for r in records]) + "\n")


def _negate_amplitude(records):
    amps = records[17]["amplitudes"]
    k = int(np.argmax(np.abs(amps)))
    amps[k] = -amps[k]


def _excite_state(records):
    # a normalised state that is not the ground state of its chain
    amps = np.array(records[150]["amplitudes"])
    amps = np.roll(amps, 1)
    records[150]["amplitudes"] = list(amps / np.linalg.norm(amps))


def _flip_label(records):
    records[0]["label"] = -records[0]["label"]


def _drop_sample(records):
    del records[-1]


@pytest.mark.parametrize("corrupt", [_negate_amplitude, _excite_state,
                                     _flip_label, _drop_sample])
def test_tfim_corruption_fails(tfim_out, tmp_path, corrupt):
    out = _copy(tfim_out, tmp_path)
    _rewrite_records(out, corrupt)
    assert checks.check_tfim(out)


def test_qcnn_passes(qcnn_out):
    out, data = qcnn_out
    assert checks.check_qcnn(out, data) == []


def _fail_arm(out):
    tag = f"qcnn_s{SEED}"
    _edit_json(out / "qcnn_train" / "report_qcnn_train.json",
               lambda r: r["metrics"]["qcnn"][str(SEED)].update(final_test_acc=0.45))

    def edit(rows):
        rows[-1]["test_acc"] = repr(0.45)
    _edit_csv(out / "qcnn_train" / f"history_{tag}.csv", edit)


def _raise_epsilon(out):
    _edit_json(out / "qcnn_train" / "report_qcnn_train.json",
               lambda r: r["metrics"]["qcnn+qrdr"]["reduction"].update(epsilon=2e-3))


def _drop_epoch(out):
    _edit_csv(out / "qcnn_train" / f"history_mlp_dr_s{SEED}.csv",
              lambda rows: rows.pop(4))


def _report_other_accuracy(out):
    _edit_json(out / "qcnn_train" / "report_qcnn_train.json",
               lambda r: r["metrics"]["mlp"][str(SEED)].update(final_test_acc=0.975))


@pytest.mark.parametrize("corrupt", [_fail_arm, _raise_epsilon, _drop_epoch,
                                     _report_other_accuracy])
def test_qcnn_corruption_fails(qcnn_out, tmp_path, corrupt):
    out, data = qcnn_out
    out = _copy(out, tmp_path)
    corrupt(out)
    assert checks.check_qcnn(out, data)


def test_digests_see_one_changed_byte(sonar_out, tmp_path):
    out = _copy(sonar_out, tmp_path)
    before = checks.digests(out)
    path = out / "sweep_r4" / "sweep_c_r4.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    assert checks.digests(out) != before


def test_benchmark_json_names_every_metric_the_runner_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layers = run.layer_metrics({}, 0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    assert all(m["unit"] == run.layer_units(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_counts_calls_where_they_are_looked_up(sonar_xy):
    import qrdr.engine
    import qrdr.resonance
    from spans import Tracer

    original = qrdr.engine.hermitian_eig
    tracer = Tracer().install()
    try:
        qrdr.resonance.sweep_c(sonar_xy[0], 4, (0.001, 0.002))
    finally:
        tracer.uninstall()
    assert qrdr.engine.hermitian_eig is original
    spans = tracer.summary()
    assert spans["engine.run_qrdr"]["calls"] == 2
    assert spans["linalg.hermitian_eig"]["calls"] == 2 * 64
    sweep = spans["resonance.sweep_c"]
    assert 0.0 < sweep["self_s"] < sweep["s"]
    assert spans["engine.run_qrdr"]["s"] < sweep["s"]
