"""Quantum resonant dimensionality reduction: simulator and evaluations.

Subpackages: :mod:`qrdr.linalg` (dense primitives), :mod:`qrdr.dataset`
(loading and splits), :mod:`qrdr.pca` (classical oracle), :mod:`qrdr.engine`
(resonant reduction dynamics), :mod:`qrdr.resonance` (error-law analysis),
:mod:`qrdr.svm` (LS-SVM evaluation), :mod:`qrdr.tfim` (Ising phase
dataset), :mod:`qrdr.qcnn` (quantum convolutional classifier and MLP
baseline), :mod:`qrdr.cli` (experiment runner).
"""

from .engine import (QrdrHamiltonian, QrdrOutcome, RegisterLayout,
                     build_hamiltonian, encode_dataset_state,
                     evolve_blockwise, evolve_full, run_qrdr)
from .pca import PcaModel, fit_pca, project, target_state
from .resonance import SweepResult, sweep_c

__version__ = "0.1.0"

__all__ = [
    "QrdrHamiltonian", "QrdrOutcome", "RegisterLayout", "build_hamiltonian",
    "encode_dataset_state", "evolve_blockwise", "evolve_full", "run_qrdr",
    "PcaModel", "fit_pca", "project", "target_state",
    "SweepResult", "sweep_c",
    "__version__",
]
