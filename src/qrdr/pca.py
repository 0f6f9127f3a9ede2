"""Classical principal-component oracle.

Works on the uncentred second-moment matrix A = X^T X of a dataset whose
rows are samples.  Its eigensystem belongs to the dataset and is computed
once by :func:`fit_pca`; a reduction rank R is an argument of the questions
asked of it: the top-R spectrum (resonance targets), the eigenbasis
(disentangling directions), the minimal spectral gap (admissibility of the
coupling strength), and the ideal reduced state used as the fidelity
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import require_finite

# adjacent eigenvalues closer than this times lambda_1 are reported as
# degenerate; relative, because the spectrum scales as X^2
DEGENERACY_RTOL = 1e-12


def _fix_signs(V: np.ndarray) -> np.ndarray:
    # orient each eigenvector so its largest-magnitude component is positive
    # (ties broken by the lowest index, which argmax already picks)
    V = V.copy()
    lead = np.argmax(np.abs(V), axis=0)
    flip = V[lead, np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return V


@dataclass
class PcaModel:
    """Eigensystem of A = X^T X and the checked data X it was fitted on.

    ``eigenvalues`` are descending; ``components[:, k]`` is the k-th
    principal direction, sign-fixed so the largest-magnitude entry is
    positive.  ``degenerate_pairs`` lists adjacent indices (k, k+1), 0-based,
    with an eigenvalue spacing at most ``DEGENERACY_RTOL`` times the largest
    eigenvalue, so scaling X leaves them unchanged.  Every question
    about a reduction takes its rank R, which must lie in [1, N].
    """

    eigenvalues: np.ndarray
    components: np.ndarray
    data: np.ndarray
    degenerate_pairs: list = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.components.shape[0]

    def check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.n_features:
            raise ValueError(
                f"rank must be in [1, {self.n_features}], got {rank}")

    def boundary_degenerate(self, rank: int) -> bool:
        """True when the spectrum is degenerate across the R-boundary."""
        self.check_rank(rank)
        return (rank - 1, rank) in set(self.degenerate_pairs)

    def variance_fraction(self, rank: int) -> float:
        """Fraction of total variance carried by the top-R eigenvalues."""
        self.check_rank(rank)
        total = float(np.sum(self.eigenvalues))
        if total <= 0:
            raise ValueError("total variance is zero")
        return float(np.sum(self.eigenvalues[:rank]) / total)

    def delta_min(self, rank: int) -> float:
        """Smallest spectral detuning protecting the resonant transitions.

        Off-resonant leakage couples every populated eigenvalue sector to
        each of the R target levels, so the minimum runs over adjacent gaps
        among the top R+1 eigenvalues (the level just past the boundary is
        the nearest contaminant) and over the distance from the last target
        level down to the zero levels of padded sectors.
        """
        self.check_rank(rank)
        lam = self.eigenvalues
        lead = lam[: min(rank + 1, lam.size)]
        gaps = [lam[rank - 1]]  # padded sectors sit at eigenvalue 0
        if lead.size > 1:
            gaps.extend(np.diff(lead) * -1.0)
        return float(min(gaps))


def fit_pca(X: np.ndarray) -> PcaModel:
    """Eigendecompose A = X^T X, once per dataset.

    X must hold finite reals (:func:`dataset.require_finite`); the model
    keeps the checked array as ``data``.
    """
    X = require_finite(X)
    n = X.shape[1]
    values, vectors = np.linalg.eigh(X.T @ X)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    tol = DEGENERACY_RTOL * values[0]
    pairs = [(k, k + 1) for k in range(n - 1)
             if values[k] - values[k + 1] <= tol]
    return PcaModel(eigenvalues=values, components=vectors, data=X,
                    degenerate_pairs=pairs)


def project(X: np.ndarray, model: PcaModel, rank: int) -> np.ndarray:
    """Project sample rows onto the top-R principal directions."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != model.n_features:
        raise ValueError(
            f"feature count {X.shape[-1]} does not match model ({model.n_features})"
        )
    model.check_rank(rank)
    return X @ model.components[:, :rank]


def target_state(model: PcaModel, rank: int, r_qubits: int) -> np.ndarray:
    """Ideal joint reduced state over (component register, sample register).

    The amplitude of |j>|i> is proportional to the projection of sample i
    of the fitted data onto component j; the vector is unit-normalised.
    The component register holds ``r_qubits`` qubits, so indices j >= R
    carry zeros; the flattened index is j * M + i.
    """
    Z = project(model.data, model, rank)
    dim_r = 2 ** r_qubits
    if dim_r < rank:
        raise ValueError(f"2^{r_qubits} register cannot hold {rank} components")
    out = np.zeros(dim_r * Z.shape[0])
    out[: rank * Z.shape[0]] = Z.T.reshape(-1)
    norm = np.linalg.norm(out)
    if norm == 0:
        raise ValueError("projections vanish; cannot form a target state")
    return out / norm
