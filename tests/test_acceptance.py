"""End-to-end acceptance battery: one test per shipping criterion.

Every test pins its protocol (seeds, grids, tolerances) explicitly so a
pass or fail line is meaningful on its own.  Shared heavyweight runs
(the coupling sweeps, the classifier training) are module-scoped.
"""

import json
import time

import numpy as np
import pytest

from qrdr import cli, tfim
from qrdr.dataset import load_sonar, make_rng
from qrdr.engine import build_hamiltonian, encode_dataset_state, \
    evolve_blockwise, evolve_full, run_qrdr
from qrdr.pca import fit_pca
from qrdr.qcnn import QcnnModel, fd_gradient, loss_and_grad
from qrdr.resonance import sweep_c
from qrdr.svm import cross_validate, r_sweep, reduced_features

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def sonar_sweeps(sonar_features):
    start = time.monotonic()
    results = {16: sweep_c(sonar_features, 16), 8: sweep_c(sonar_features, 8)}
    return results, time.monotonic() - start


def _cli(argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def test_criterion_01_fidelity_bound_on_random_instances():
    # 20 fresh Gaussian instances, c = delta_min/100, quadratic error bound
    start = time.monotonic()
    rng = make_rng(7, 9)
    for _ in range(20):
        X = rng.normal(size=(16, 8))
        model = fit_pca(X)
        assert not model.degenerate_pairs          # distinct spectrum
        c = model.delta_min(4) / 100.0
        out = run_qrdr(build_hamiltonian(model, 4, c))
        bound = 1.0 - 10.0 * (c / model.delta_min(4)) ** 2
        assert out.fidelity >= bound, (
            f"fidelity {out.fidelity:.8f} below bound {bound:.8f}"
        )
    assert time.monotonic() - start < 30.0


def test_criterion_02_blockwise_matches_dense(sonar_features):
    # every exercised instance stays within 1e-10 amplitude agreement
    cases = []
    rng = make_rng(7, 10)
    for m, n, r in ((6, 4, 2), (12, 6, 3), (16, 8, 4)):
        cases.append((rng.normal(size=(m, n)), r, 1e-3))
    cases.append((sonar_features, 8, 0.004))
    cases.append((sonar_features, 16, 0.004))
    for X, rank, c in cases:
        h = build_hamiltonian(fit_pca(X), rank, c)
        lay = h.layout
        assert lay.dim <= 4096
        m = X.shape[0]
        encoded = encode_dataset_state(X, lay).reshape(lay.dim_n, m)
        psi0 = np.zeros((lay.dim, m))
        psi0.reshape(2, lay.dim_r, lay.dim_n, m)[0, 0] = encoded
        diff = np.abs(evolve_full(h, psi0) - evolve_blockwise(h, psi0)).max()
        assert diff <= 1e-10, f"paths diverge by {diff:.3e} at rank {rank}"


def test_criterion_03_sweep_correlation(sonar_sweeps):
    results, elapsed = sonar_sweeps
    for rank in (16, 8):
        corr = results[rank].loglog_correlation()
        assert corr >= 0.95, f"R={rank} correlation {corr:.4f} < 0.95"
    assert elapsed < 600.0


def test_criterion_04_sweep_slope(sonar_sweeps):
    results, _ = sonar_sweeps
    for rank in (16, 8):
        slope, _ = results[rank].power_law()
        assert 1.8 <= slope <= 2.2, f"R={rank} slope {slope:.4f}"


def test_criterion_05_qsvm_accuracy_windows(sonar):
    start = time.monotonic()
    raw = cross_validate(sonar.features, sonar.labels, k=8, seed=7)
    red = cross_validate(reduced_features(sonar.features, 16), sonar.labels,
                         k=8, seed=7)
    elapsed = time.monotonic() - start
    assert red.mean_accuracy >= raw.mean_accuracy - 0.02, (
        f"reduced {red.mean_accuracy:.4f} trails raw {raw.mean_accuracy:.4f}"
    )
    assert elapsed < 300.0
    assert abs(raw.mean_accuracy - 0.8625) <= 0.06, (
        f"raw 8-fold accuracy {raw.mean_accuracy:.4f} outside 0.8625 +/- 0.06"
    )
    assert abs(red.mean_accuracy - 0.8937) <= 0.06, (
        f"reduced 8-fold accuracy {red.mean_accuracy:.4f} outside 0.8937 +/- 0.06"
    )


def test_criterion_06_rank_sweep_shape(sonar):
    res = r_sweep(sonar.features, sonar.labels, ranks=(4, 8, 16, 32),
                  reps=8, test_count=20, seed=7)
    acc = dict(zip(res.ranks, res.mean_accuracies))
    assert acc[8] - acc[4] >= 0.03, (
        f"R=4 ({acc[4]:.4f}) not well below R=8 ({acc[8]:.4f})"
    )
    assert abs(acc[8] - acc[16]) <= 0.03, (
        f"R=8 ({acc[8]:.4f}) vs R=16 ({acc[16]:.4f}) differ beyond 0.03"
    )
    assert abs(acc[8] - acc[32]) <= 0.03, (
        f"R=8 ({acc[8]:.4f}) vs R=32 ({acc[32]:.4f}) differ beyond 0.03"
    )


def test_criterion_07_success_probability_tracks_variance(sonar_features):
    out = run_qrdr(build_hamiltonian(fit_pca(sonar_features), 16, 0.004))
    gap = abs(out.success_probability - out.ideal_probability)
    assert gap <= out.epsilon + 0.01, (
        f"probability gap {gap:.4f} exceeds epsilon + 0.01"
    )


def test_criterion_08_tfim_brute_force_agreement():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])

    def dense(n, J, h):
        dim = 2 ** n
        H = np.zeros((dim, dim))
        for i in range(n - 1):
            ops = [np.eye(2)] * n
            ops[i] = z
            ops[i + 1] = z
            term = ops[0]
            for o in ops[1:]:
                term = np.kron(term, o)
            H -= J * term
        for i in range(n):
            ops = [np.eye(2)] * n
            ops[i] = x
            term = ops[0]
            for o in ops[1:]:
                term = np.kron(term, o)
            H += h * term
        return H

    for n in (2, 4):
        parity = tfim.parity_operator(n)
        for h in (0.5, 1.0, 2.0):
            ours = tfim.ground_state(n, h).energy
            ref = np.linalg.eigvalsh(dense(n, 1.0, h))[0]
            assert abs(ours - ref) <= 1e-10, f"n={n} h={h}: {ours} vs {ref}"
            H = tfim.build_tfim(n, h)
            assert np.abs(H @ parity - parity @ H).max() <= 1e-12


def test_criterion_09_qcnn_trend(tmp_path):
    # full protocol through the CLI: 200-sample chain dataset, R=16,
    # 160/40 split per seed, batch 20, 20 epochs, seeds 7..11
    start = time.monotonic()
    assert _cli(["tfim-gen", "--n-sites", "8", "--count", "200",
                 "--out", tmp_path]) == 0
    assert _cli(["qcnn-train", "--data", tmp_path / "tfim_phase.jsonl",
                 "--r", "16", "--seeds", "7,8,9,10,11", "--epochs", "20",
                 "--batch-size", "20", "--out", tmp_path]) == 0
    with open(tmp_path / "report_qcnn_train.json") as fh:
        metrics = json.load(fh)["metrics"]
    elapsed = time.monotonic() - start
    means = {arm: metrics[arm]["mean_final_test_acc"] for arm in metrics}
    assert "mlp" in means and "mlp+dr" in means     # baseline arms reported
    assert elapsed < 2700.0
    assert means["qcnn+qrdr"] > 0.5 and means["qcnn"] > 0.5, str(means)
    assert means["qcnn+qrdr"] >= means["qcnn"], (
        f"reduction arm {means['qcnn+qrdr']:.4f} below "
        f"raw arm {means['qcnn']:.4f} (all means: {means})"
    )


def test_criterion_10_gradient_methods_cross_check():
    rng = make_rng(7, 11)
    Z = rng.normal(size=(6, 16))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    y = np.array([1, -1, 1, -1, 1, -1])
    base = QcnnModel.initial(4, 7)
    n_par = base.params().size
    for point in range(10):
        model = base.with_params(rng.uniform(-1.0, 1.0, n_par))
        g_fd = fd_gradient(model, Z, y)
        _, g_ps = loss_and_grad(model, Z, y)
        rel = np.linalg.norm(g_fd - g_ps) / np.linalg.norm(g_ps)
        assert rel <= 1e-4, f"point {point}: relative deviation {rel:.3e}"


def test_criterion_11_cli_rerun_byte_identical(tmp_path):
    phase = tmp_path / "phase.jsonl"
    tfim.save_dataset(phase, tfim.generate_dataset(n_sites=4, count=8, seed=3))
    commands = {
        "reduce": ["reduce", "--r", "8", "--c", "0.004"],
        "sweep-c": ["sweep-c", "--r", "8", "--c-grid", "0.002,0.004"],
        "qsvm": ["qsvm", "--folds", "4", "--r", "8"],
        "tfim-gen": ["tfim-gen", "--n-sites", "4", "--count", "6"],
        "qcnn-train": ["qcnn-train", "--data", phase, "--r", "4",
                       "--arms", "qcnn+qrdr,mlp", "--epochs", "2",
                       "--batch-size", "4"],
        "verify": ["verify"],
    }
    for command, argv in commands.items():
        dirs = [tmp_path / f"{command}-{i}" for i in (0, 1)]
        for d in dirs:
            assert _cli(argv + ["--out", d]) == 0, command
        name = f"report_{command.replace('-', '_')}.json"
        first, second = [(d / name).read_bytes() for d in dirs]
        assert first == second, f"{command} report differs between reruns"
        for artifact in sorted(dirs[0].glob("*")):
            twin = dirs[1] / artifact.name
            assert twin.is_file(), f"{command}: missing {artifact.name}"
            assert artifact.read_bytes() == twin.read_bytes(), (
                f"{command}: artifact {artifact.name} differs"
            )
