"""Quantum resonant dimensionality reduction: simulator and evaluations.

Modules: :mod:`qrdr.linalg` (dense primitives), :mod:`qrdr.dataset`
(loading and splits), :mod:`qrdr.pca` (classical oracle), :mod:`qrdr.engine`
(resonant reduction dynamics), :mod:`qrdr.resonance` (error-law analysis),
:mod:`qrdr.svm` (LS-SVM evaluation), :mod:`qrdr.tfim` (Ising phase
dataset), :mod:`qrdr.qcnn` (quantum convolutional classifier and MLP
baseline), :mod:`qrdr.verify` (cross-module invariant battery),
:mod:`qrdr.cli` (experiment runner).
"""

__version__ = "0.1.0"
