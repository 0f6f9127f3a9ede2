"""Cross-module invariant battery behind the ``verify`` subcommand.

Each check is a small self-contained assertion of a structural property
(unitarity, partition, symmetry, path equivalence, determinism).  These are
fast smoke checks, not the full test suite.
"""

from __future__ import annotations

import numpy as np

from . import linalg, pca, qcnn, resonance, svm, tfim
from .dataset import holdout_split, kfold_split, make_rng
from .engine import build_hamiltonian, evolve_blockwise, evolve_full, run_qrdr


def _check_kron():
    rng = make_rng(0, 90)
    A, B, C = (rng.normal(size=(2, 2)) for _ in range(3))
    left = linalg.kron_all([linalg.kron_all([A, B]), C])
    right = linalg.kron_all([A, linalg.kron_all([B, C])])
    assert np.allclose(left, right, atol=1e-12), "kron not associative"


def _check_evolution_unitary():
    rng = make_rng(0, 91)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    H = (raw + raw.conj().T) / 2
    U = linalg.evolve_spectral(H, 0.37, np.eye(12))
    assert np.abs(U @ U.conj().T - np.eye(12)).max() < 1e-10, "not unitary"


def _check_pca_reconstruction():
    rng = make_rng(0, 92)
    X = rng.normal(size=(9, 5))
    model = pca.fit_pca(X, 3)
    A = (model.components * model.eigenvalues) @ model.components.T
    assert np.abs(A - pca.covariance(X)).max() < 1e-9, "eigensystem broken"


def _check_engine_paths_agree():
    rng = make_rng(0, 93)
    X = rng.normal(size=(6, 4))
    h = build_hamiltonian(pca.fit_pca(X, 2), 1e-3)
    psi = rng.normal(size=h.layout.dim) + 1j * rng.normal(size=h.layout.dim)
    psi /= np.linalg.norm(psi)
    a = evolve_full(h, psi)
    b = evolve_blockwise(h, psi)
    assert np.abs(a - b).max() < 1e-10, "evolution paths disagree"


def _check_low_rank_reduction():
    rng = make_rng(0, 94)
    X = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8))
    out = run_qrdr(X, 3, 1e-4)
    assert out.epsilon < 1e-6, f"rank-3 data should reduce losslessly: {out.epsilon}"
    assert out.success_probability > 0.999, "success probability too low"


def _check_offresonance_peak():
    b = resonance.offresonance_amplitude(0.01, 1.0, 1.0)
    bound = resonance.offresonance_bound(0.01, 1.0, 1.0)
    assert b <= bound, "exact peak exceeds first-order bound"


def _check_svm_separable():
    X = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1]])
    y = np.array([1, 1, -1, -1])
    model = svm.train_lssvm(X, y, 2.0)
    assert np.array_equal(svm.predict(model, X), y), "separable case failed"


def _check_tfim_symmetry():
    H = tfim.build_tfim(4, 1.0, 0.8)
    P = tfim.parity_operator(4)
    assert np.abs(H @ P - P @ H).max() < 1e-12, "Z2 symmetry broken"


def _check_lcu_one_hot():
    rng = make_rng(0, 95)
    z = rng.normal(size=16)
    z /= np.linalg.norm(z)
    for k in (0, 4, 8):
        anc = np.zeros(16)
        anc[k] = 1.0
        prob, out = qcnn.conv_lcu(z, anc)
        assert abs(prob - 1.0) < 1e-12, "permutation branch must preserve norm"
        assert np.allclose(out, qcnn.branch_matrix(4, k) @ z, atol=1e-12)


def _check_pool_density():
    rng = make_rng(0, 96)
    z = rng.normal(size=16) + 1j * rng.normal(size=16)
    z /= np.linalg.norm(z)
    rho = qcnn.pool_discard(z)
    assert abs(np.trace(rho).real - 1.0) < 1e-12, "pooled trace != 1"
    assert np.linalg.eigvalsh(rho).min() > -1e-12, "pooled operator not PSD"


def _check_gradient_methods():
    rng = make_rng(0, 97)
    Z = rng.normal(size=(6, 16))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    y = np.array([1, -1, 1, -1, 1, -1])
    model = qcnn.QcnnModel.initial(4, 3)
    cfg_fd = qcnn.TrainConfig(gradient="fd", seed=3)
    cfg_ps = qcnn.TrainConfig(gradient="parameter-shift", seed=3)
    _, g_fd = qcnn.loss_and_grad(model, Z, y, cfg_fd)
    _, g_ps = qcnn.loss_and_grad(model, Z, y, cfg_ps)
    scale = max(np.abs(g_ps).max(), 1e-12)
    assert np.abs(g_fd - g_ps).max() / scale < 1e-4, "gradient methods disagree"


def _check_split_partition():
    folds = kfold_split(29, 4, 11)
    seen = np.sort(np.concatenate([te for _, te in folds]))
    assert np.array_equal(seen, np.arange(29)), "folds must partition the data"
    a = holdout_split(50, 10, 5, 2)
    b = holdout_split(50, 10, 5, 2)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]), \
        "holdout split not deterministic"


CHECKS = [
    ("kron-associativity", _check_kron),
    ("spectral-evolution-unitarity", _check_evolution_unitary),
    ("pca-eigensystem-reconstruction", _check_pca_reconstruction),
    ("engine-path-equivalence", _check_engine_paths_agree),
    ("low-rank-lossless-reduction", _check_low_rank_reduction),
    ("offresonance-peak-bound", _check_offresonance_peak),
    ("svm-separable-exactness", _check_svm_separable),
    ("tfim-z2-symmetry", _check_tfim_symmetry),
    ("lcu-one-hot-branches", _check_lcu_one_hot),
    ("pool-density-operator", _check_pool_density),
    ("gradient-method-agreement", _check_gradient_methods),
    ("split-partition-determinism", _check_split_partition),
]


def run_invariants():
    """Run every check; returns (name, passed, detail) triples."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:
            results.append((name, False, str(exc)))
    return results
