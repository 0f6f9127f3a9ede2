"""Cross-module invariant battery behind the ``verify`` subcommand.

Each check is a small self-contained assertion of a structural property
(unitarity, partition, symmetry, path equivalence, determinism) of code
that the pipeline runs.  These are fast smoke checks, not the full test
suite; the suite runs each of them once and does not repeat them.
"""

from __future__ import annotations

import numpy as np

from . import linalg, pca, qcnn, svm, tfim
from .dataset import holdout_split, kfold_split, make_rng
from .engine import build_hamiltonian, evolve_blockwise, evolve_full, run_qrdr


def _check(ok, message: str) -> None:
    # an assert statement would vanish under python -O
    if not ok:
        raise AssertionError(message)


def _check_kron():
    rng = make_rng(0, 90)
    A, B, C = (rng.normal(size=(2, 2)) for _ in range(3))
    left = linalg.kron_all([linalg.kron_all([A, B]), C])
    right = linalg.kron_all([A, linalg.kron_all([B, C])])
    _check(np.abs(left - right).max() <= 1e-13, "kron not associative")


def _check_evolution_unitary():
    rng = make_rng(0, 91)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    H = (raw + raw.conj().T) / 2
    U = linalg.evolve_spectral(linalg.hermitian_eig(H), 0.37, np.eye(12))
    _check(np.abs(U @ U.conj().T - np.eye(12)).max() <= 1e-12, "not unitary")


def _check_pca_reconstruction():
    rng = make_rng(0, 92)
    X = rng.normal(size=(9, 5))
    model = pca.fit_pca(X)
    A = (model.components * model.eigenvalues) @ model.components.T
    _check(np.abs(A - X.T @ X).max() < 1e-9, "eigensystem broken")


def _check_engine_paths_agree():
    rng = make_rng(0, 93)
    X = rng.normal(size=(6, 4))
    h = build_hamiltonian(pca.fit_pca(X), 2, 1e-3)
    psi = rng.normal(size=h.layout.dim) + 1j * rng.normal(size=h.layout.dim)
    psi /= np.linalg.norm(psi)
    a = evolve_full(h, psi)
    b = evolve_blockwise(h, psi)
    _check(np.abs(a - b).max() < 1e-10, "evolution paths disagree")
    _check(abs(np.linalg.norm(a) - 1.0) <= 1e-10, "dense evolution not unitary")


def _check_low_rank_reduction():
    rng = make_rng(0, 94)
    X = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8))
    out = run_qrdr(build_hamiltonian(pca.fit_pca(X), 3, 1e-4))
    _check(out.epsilon < 1e-6, f"rank-3 data should reduce losslessly: {out.epsilon}")
    _check(out.success_probability > 0.999, "success probability too low")
    _check(abs(out.ideal_probability - 1.0) <= 1e-6, "variance lost at rank 3")


def _check_svm_separable():
    X = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1]])
    y = np.array([1, 1, -1, -1])
    labels = svm.predict(svm.train_lssvm(X, y, (2.0,)), X)[:, 0]
    _check(np.array_equal(labels, y), "separable case failed")


def _check_tfim_symmetry():
    gs = tfim.ground_state(4, 0.8)
    e0 = np.linalg.eigvalsh(tfim.build_tfim(4, 0.8))[0]
    _check(abs(gs.energy - e0) <= 1e-12, f"energy {gs.energy} vs {e0}")
    # prod_i X_i reverses the computational index; the parity at 4 sites is +1
    _check(np.array_equal(gs.amplitudes[::-1], gs.amplitudes),
           "ground state breaks the Z2 symmetry")


def _check_gradient_methods():
    rng = make_rng(0, 97)
    Z = rng.normal(size=(6, 16))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    y = np.array([1, -1, 1, -1, 1, -1])
    model = qcnn.QcnnModel.initial(4, 3)
    g_fd = qcnn.fd_gradient(model, Z, y)
    _, g_ex = qcnn.loss_and_grad(model, Z, y)
    scale = max(np.abs(g_ex).max(), 1e-12)
    _check(np.abs(g_fd - g_ex).max() / scale < 1e-4, "gradient methods disagree")


def _check_split_partition():
    folds = kfold_split(29, 4, 11)
    seen = np.sort(np.concatenate([te for _, te in folds]))
    _check(np.array_equal(seen, np.arange(29)), "folds must partition the data")
    a = holdout_split(50, 10, 5, 2)
    b = holdout_split(50, 10, 5, 2)
    _check(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]),
           "holdout split not deterministic")


CHECKS = [
    ("kron-associativity", _check_kron),
    ("spectral-evolution-unitarity", _check_evolution_unitary),
    ("pca-eigensystem-reconstruction", _check_pca_reconstruction),
    ("engine-path-equivalence", _check_engine_paths_agree),
    ("low-rank-lossless-reduction", _check_low_rank_reduction),
    ("svm-separable-exactness", _check_svm_separable),
    ("tfim-z2-symmetry", _check_tfim_symmetry),
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
