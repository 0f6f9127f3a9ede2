"""Least-squares SVM classifier and its evaluation protocols.

With a linear kernel, the LS-SVM dual (the bias-bordered system with block
X X^T + I/gamma) has the decision function of ridge regression on centred
data with an unpenalised bias (Suykens & Vandewalle 1999).  This module
solves that primal form, w = V diag(1/(s + 1/gamma)) V^T Xc^T (y - mean y)
with (s, V) = eigh(Xc^T Xc) and b = mean y - (mean x) . w, so one
eigendecomposition fits a whole gamma grid; the tests keep the dual as oracle.
Protocols: seeded k-fold cross-validation with nested gamma selection, and
repeated random holdout tracing accuracy against the reduction rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import holdout_split, kfold_split, require_finite
from .pca import fit_pca, project

GAMMA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
# inner cross-validation folds of gamma selection
INNER_K = 4


@dataclass
class LssvmModel:
    """A fit at each gamma of a grid: one weights column per gamma."""

    weights: np.ndarray   # (features, G)
    bias: np.ndarray      # (G,)
    gammas: np.ndarray    # (G,)


def train_lssvm(X: np.ndarray, y: np.ndarray, gammas) -> LssvmModel:
    """Fit the least-squares SVM at each gamma of a non-empty 1-D grid,
    from one eigendecomposition of the centred training set; X must hold
    finite reals."""
    X = require_finite(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0 or y.shape != (X.shape[0],):
        raise ValueError("labels must align with one or more feature rows")
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or not gammas.size:
        raise ValueError(f"gammas must be a non-empty 1-D grid, got shape "
                         f"{gammas.shape}")
    if not np.all(gammas > 0):
        raise ValueError(f"gamma must be positive, got {gammas.min()}")
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc = X - x_mean
    s, V = np.linalg.eigh(Xc.T @ Xc)
    rhs = V.T @ (Xc.T @ (y - y_mean))
    W = V @ (rhs[:, None] / (s[:, None] + 1.0 / gammas))
    return LssvmModel(weights=W, bias=y_mean - x_mean @ W, gammas=gammas)


def decision_values(model: LssvmModel, X: np.ndarray) -> np.ndarray:
    """w . x + b per row and per gamma; X must hold finite reals."""
    return require_finite(np.atleast_2d(X)) @ model.weights + model.bias


def predict(model: LssvmModel, X: np.ndarray) -> np.ndarray:
    """Labels +/-1 per row and gamma; ties (decision value 0) resolve to +1."""
    return np.where(decision_values(model, X) >= 0.0, 1, -1)


def accuracy(model: LssvmModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fraction of rows labelled correctly, one per gamma."""
    return (predict(model, X).T == np.asarray(y)).mean(axis=1)


def select_gamma(X: np.ndarray, y: np.ndarray, gammas=GAMMA_GRID,
                 seed: int = 7, stream: int = 0) -> float:
    """Pick gamma by INNER_K-fold inner cross-validation, fitting each inner
    training set once for every gamma; ties go to the smallest value."""
    X = require_finite(X)
    y = np.asarray(y)
    gammas = np.asarray(gammas, dtype=float)
    folds = kfold_split(X.shape[0], INNER_K, seed, stream=stream)
    scores = [accuracy(train_lssvm(X[tr], y[tr], gammas), X[te], y[te])
              for tr, te in folds]
    return float(gammas[int(np.argmax(np.mean(scores, axis=0)))])


def _select_fit_score(X, y, train, test, gammas, seed, stream):
    """Select gamma on the training rows, fit there at it and score the test
    rows: (accuracy, gamma)."""
    gamma = select_gamma(X[train], y[train], gammas=gammas, seed=seed,
                         stream=stream)
    model = train_lssvm(X[train], y[train], (gamma,))
    return float(accuracy(model, X[test], y[test])[0]), gamma


@dataclass
class CvResult:
    fold_accuracies: np.ndarray
    chosen_gammas: np.ndarray
    mean_accuracy: float
    k: int
    seed: int

    def to_metrics(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "fold_accuracies": [float(a) for a in self.fold_accuracies],
            "chosen_gammas": [float(g) for g in self.chosen_gammas],
            "mean_accuracy": self.mean_accuracy,
        }


def cross_validate(X: np.ndarray, y: np.ndarray, k: int = 8, seed: int = 7,
                   gammas=GAMMA_GRID) -> CvResult:
    """k-fold accuracy with gamma chosen by nested CV inside each fold."""
    X = require_finite(X)
    y = np.asarray(y)
    accs, gams = np.empty((2, k))
    for i, (tr, te) in enumerate(kfold_split(X.shape[0], k, seed)):
        if np.unique(y[tr]).size < 2:
            warnings.warn(
                f"fold {i}: training data contains a single class; the fold "
                "is still evaluated", stacklevel=2,
            )
        accs[i], gams[i] = _select_fit_score(X, y, tr, te, gammas, seed,
                                             100 + i)
    return CvResult(fold_accuracies=accs, chosen_gammas=gams,
                    mean_accuracy=float(accs.mean()), k=k, seed=seed)


def reduced_features(X: np.ndarray, rank: int) -> np.ndarray:
    """Project the whole dataset onto its top principal components.

    The projection basis is fit on the full dataset before any splitting,
    matching the evaluation protocol of the downstream comparisons.
    """
    return project(X, fit_pca(X), rank)


@dataclass
class RSweepResult:
    ranks: list
    mean_accuracies: np.ndarray
    rep_accuracies: np.ndarray  # (len(ranks), reps)
    reps: int
    test_count: int
    seed: int

    def to_metrics(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "mean_accuracies": [float(a) for a in self.mean_accuracies],
            "min_accuracies": [float(a) for a in self.rep_accuracies.min(axis=1)],
            "max_accuracies": [float(a) for a in self.rep_accuracies.max(axis=1)],
            "rep_accuracies": [[float(a) for a in row]
                               for row in self.rep_accuracies],
            "reps": self.reps,
            "test_count": self.test_count,
            "seed": self.seed,
        }


def r_sweep(X: np.ndarray, y: np.ndarray, ranks=(4, 8, 16, 32), reps: int = 8,
            test_count: int = 20, seed: int = 7) -> RSweepResult:
    """Accuracy versus reduction rank under repeated random holdout.

    For every rank, the dataset is projected onto its top components, then
    ``reps`` random holdout splits (``test_count`` test samples each) are
    scored with nested gamma selection from ``GAMMA_GRID`` on the training
    part.  All splits are shared across ranks so the comparison is paired.
    Ranks must be powers of two in [2, N]; the full dimension N is also
    allowed as the isometric reference point (it cannot change the linear
    kernel).
    """
    X = require_finite(X)
    y = np.asarray(y)
    m, n_feat = X.shape
    for rank in ranks:
        power_of_two = rank >= 2 and (rank & (rank - 1)) == 0
        if not ((power_of_two and rank <= n_feat) or rank == n_feat):
            raise ValueError(
                f"rank {rank} must be a power of two in [2, {n_feat}] "
                f"(or exactly {n_feat})"
            )
    Z_full = reduced_features(X, max(ranks))
    splits = [holdout_split(m, test_count, seed, rep) for rep in range(reps)]
    rep_accs = np.empty((len(ranks), reps))
    for ri, rank in enumerate(ranks):
        Z = Z_full[:, :rank]
        for rep, (tr, te) in enumerate(splits):
            rep_accs[ri, rep], _ = _select_fit_score(
                Z, y, tr, te, GAMMA_GRID, seed, 200 + rep)
    return RSweepResult(
        ranks=list(ranks),
        mean_accuracies=rep_accs.mean(axis=1),
        rep_accuracies=rep_accs,
        reps=reps,
        test_count=test_count,
        seed=seed,
    )
